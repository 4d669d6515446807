"""Feedback decoding: syndromes, error solving, channels, end-to-end runs."""

import itertools
from math import comb

import pytest

from convmds import linalg
from convmds.decoder import (MAX_LENGTH, _window_plan, channel_trials,
                             decoding_radius, encode_word,
                             feedback_decode, format_received_file,
                             load_received, make_error_pattern, make_received,
                             parse_received_file, save_received, simulate,
                             solve_eta0, systematic_shortcut, word_from_polys)
from convmds.distances import lm_params
from convmds.errors import (Ambiguous, BadParams, BudgetExceeded,
                            FieldMismatch, Infeasible, NoSolution,
                            NotRateNMinus1, ParseError, ShapeMismatch)
from convmds.fixtures import all_fixtures, decode_walkthrough, fixture
from convmds.galois import standard_field
from convmds.poly import poly_add, poly_mul
from convmds.rng import XorShift64Star
from convmds.selftest import decodable_fixtures
from decoder_oracle import (HorizonExceeded, solve_eta0_by_enumeration,
                            window_syndrome)

F8 = standard_field(8)


def test_make_received_validation():
    w = make_received(F8, [(1, 2), (0, 3), (0, 0)])
    assert w.n == 2 and w.horizon == 2 and w.weight() == 3
    assert w.coordinate(0) == (1,)
    assert w.coordinate(1) == (2, 3)
    with pytest.raises(BadParams):
        make_received(F8, [])
    with pytest.raises(ShapeMismatch):
        make_received(F8, [(1, 2), (1,)])
    with pytest.raises(FieldMismatch):
        make_received(F8, [(9, 0)])


def test_word_from_polys_round_trip():
    polys = ((1, 0, 3), (0, 2))
    w = word_from_polys(F8, polys, length=4)
    assert [w.coordinate(i) for i in range(w.n)] == [(1, 0, 3), (0, 2)]
    assert w.symbols == ((1, 0), (0, 2), (3, 0), (0, 0))
    with pytest.raises(BadParams):
        word_from_polys(F8, polys, length=2)  # would clip a coefficient


def test_encode_word_matches_polynomial_product():
    rng = XorShift64Star(71)
    for name in ("smds_2_1_2_q8", "smds_3_2_2_q16"):
        c = fixture(name).code
        G = c.gen if c.gen is not None else None
        for _ in range(10):
            msg = [tuple(rng.below(c.field.q) for _ in range(3))
                   for _ in range(c.k)]
            w = encode_word(c, msg, length=8)
            from convmds.code import window_generator
            G = window_generator(c)
            for i in range(c.n):
                acc = ()
                for r in range(c.k):
                    acc = poly_add(c.field, acc,
                                   poly_mul(c.field, msg[r], G.entries[r][i]))
                assert w.coordinate(i) == acc
        with pytest.raises(ShapeMismatch):
            encode_word(c, [()] * (c.k + 1), length=8)


def test_values_outside_the_field_are_rejected():
    c = fixture("smds_3_2_2_q64").code
    with pytest.raises(FieldMismatch):
        encode_word(c, [(200,), (1,)], 6)
    with pytest.raises(FieldMismatch):
        solve_eta0([200, 0, 0, 0], c)
    with pytest.raises(FieldMismatch):
        encode_word(fixture("smds_2_1_2_q8").code, [(1, 9)], 6)


def test_window_syndrome_zero_on_codewords():
    rng = XorShift64Star(72)
    c = fixture("smds_2_1_2_q8").code
    _, M = lm_params(c.n, c.k, c.delta)
    for _ in range(10):
        msg = [tuple(rng.below(8) for _ in range(4))]
        w = encode_word(c, msg, length=12)
        for j in range(12 - M):
            assert window_syndrome(w, c, j) == [0] * (M + 1)
    with pytest.raises(HorizonExceeded):
        window_syndrome(encode_word(c, [(1,)], length=6), c, 2)
    with pytest.raises(NotRateNMinus1):
        window_syndrome(word_from_polys(standard_field(16), ((1,), (), ()),
                                        length=6),
                        fixture("smds_3_1_2_q16").code, 0)


def test_window_syndrome_sees_only_the_error():
    rng = XorShift64Star(73)
    c = fixture("smds_2_1_2_q8").code
    _, M = lm_params(c.n, c.k, c.delta)
    msg = [(3, 1, 4, 1, 5)]
    clean = encode_word(c, msg, length=12)
    for _ in range(10):
        epolys = [tuple(rng.below(8) if rng.below(3) == 0 else 0
                        for _ in range(7)) for _ in range(2)]
        noisy = make_received(F8, [
            tuple(c.field.add(a, poly_coef_at(epolys[i], t))
                  for i, a in enumerate(blk))
            for t, blk in enumerate(clean.symbols)])
        error_only = word_from_polys(F8, epolys, length=12)
        for j in range(12 - M):
            assert window_syndrome(noisy, c, j) == window_syndrome(
                error_only, c, j)


def poly_coef_at(p, t):
    return p[t] if t < len(p) else 0


def test_solve_eta0_goldens():
    c = fixture("smds_2_1_2_q8").code
    assert solve_eta0((0, 2, 0, 0, 0), c) == [1, 1]
    assert solve_eta0((0, 0, 0, 0, 0), c) == [0, 0]
    with pytest.raises(NoSolution):
        solve_eta0((2, 2, 2, 0, 0), c)
    with pytest.raises(NoSolution):
        solve_eta0((0, 0, 1, 0, 3), c)
    # the same syndrome becomes ambiguous once the weight cap is raised
    # beyond the decodable radius
    with pytest.raises(Ambiguous):
        solve_eta0((0, 0, 1, 0, 3), c, t=3)
    with pytest.raises(NotRateNMinus1):
        solve_eta0((0, 0, 0, 0), fixture("smds_3_1_2_q16").code)


def test_solve_eta0_unique_at_guaranteed_weight():
    """Whenever a light window matches, the leading block is unambiguous."""
    c = fixture("smds_2_1_2_q8").code
    rng = XorShift64Star(74)
    solved = 0
    for _ in range(300):
        S = tuple(rng.below(8) for _ in range(5))
        try:
            solve_eta0(S, c)
            solved += 1
        except NoSolution:
            pass
    assert solved > 0


def test_solve_eta0_budget_boundary():
    """The budget counts every support of each level up to the hit level."""
    walk = decode_walkthrough()
    c = fixture(walk["code"]).code
    S = window_syndrome(walk["received"], c, 0)  # cycle 0 is a search cycle
    # the leading error (1, 1) is the lightest match: weight 2 among the
    # 10 columns of the parity window
    through_hit = comb(10, 1) + comb(10, 2)
    assert solve_eta0(S, c, budget=through_hit) == [1, 1]
    with pytest.raises(BudgetExceeded):
        solve_eta0(S, c, budget=through_hit - 1)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (NoSolution, Ambiguous) as exc:
        return type(exc), str(exc)


def test_solve_eta0_matches_the_enumeration_oracle():
    """The kept heads decide as the full sorted enumeration did, messages
    included, at the decoding radius and one above it."""
    rng = XorShift64Star(75)
    seen = set()
    for name, fx in sorted(all_fixtures().items()):
        c = fx.code
        if c.k != c.n - 1:
            continue
        _, M = lm_params(c.n, c.k, c.delta)
        plan = _window_plan(c, M)
        for t in (decoding_radius(M), decoding_radius(M) + 1):
            for _ in range(100):
                S = [rng.below(c.field.q) for _ in range(M + 1)]
                got = _outcome(solve_eta0, S, c, t, 1 << 20, plan)
                assert got == _outcome(solve_eta0_by_enumeration, S, c, t,
                                       1 << 20, plan), (name, S, t)
                seen.add("unique" if isinstance(got, list) else
                         got[1] if got[0] is Ambiguous else got[0])
    assert seen == {"unique", NoSolution,
                    "matching windows disagree on the leading block",
                    "matching windows disagree on the second block"}


def test_systematic_shortcut():
    assert systematic_shortcut((3, 0, 0, 0, 1), 4) == (3, True)
    assert systematic_shortcut((0, 0, 0, 0, 0), 4) == (0, True)
    assert systematic_shortcut((3, 1, 0, 0, 1), 4) == (3, True)
    assert systematic_shortcut((3, 1, 2, 0, 1), 4) is None
    with pytest.raises(BadParams):
        systematic_shortcut((1, 2), 4)


def test_walkthrough_decode():
    walk = decode_walkthrough()
    c = fixture(walk["code"]).code
    rep = feedback_decode(walk["received"], c, paranoid=True)
    assert rep.ok and rep.status == "success"
    assert tuple(rep.decoded_polys()) == walk["decoded"]
    for j, eta in walk["eta0"].items():
        assert rep.cycles[j].eta0 == eta
    methods = [cyc.method for cyc in rep.cycles]
    assert methods[0] == "search"
    assert any(m.startswith("shortcut") for m in methods)
    assert all(cyc.syndrome_weight == 0 for cyc in rep.cycles if cyc.j > 5)


def test_feedback_decode_clean_word_is_fixed_point():
    c = fixture("smds_3_2_2_q64").code
    msg = [(1, 5, 0, 9), (0, 2, 7)]
    w = encode_word(c, msg, length=14)
    rep = feedback_decode(w, c)
    assert rep.ok
    assert rep.decoded == w.symbols
    assert rep.core_end == 13 - rep.M
    assert all(cyc.method == "zero" for cyc in rep.cycles)


def test_feedback_decode_needs_room():
    c = fixture("smds_2_1_2_q8").code
    short = make_received(F8, [(1, 1)] * 3)
    with pytest.raises(BadParams):
        feedback_decode(short, c)


def test_feedback_decode_rejects_a_word_that_does_not_fit_the_code():
    walk = decode_walkthrough()
    word = walk["received"]  # GF(8), n = 2
    with pytest.raises(FieldMismatch):
        feedback_decode(word, fixture("smds_2_1_3_q32").code)
    c3 = fixture("smds_3_2_2_q16").code
    with pytest.raises(ShapeMismatch):
        feedback_decode(make_received(c3.field, [(1, 2)] * 8), c3)
    with pytest.raises(ShapeMismatch):
        feedback_decode(make_received(F8, [(1, 2, 3)] * 8),
                        fixture(walk["code"]).code)


def test_search_cycles_share_one_span_plan(monkeypatch):
    """A decode builds each prefix node of its span plan at most once."""
    built = []
    node = linalg.SpanPlan._node

    def spy(plan, prefix, later):
        built.append(prefix)
        return node(plan, prefix, later)

    monkeypatch.setattr(linalg.SpanPlan, "_node", spy)
    c = fixture("smds_2_1_3_q32").code
    _, M = lm_params(c.n, c.k, c.delta)
    horizon = 12 + 2 * M
    err = make_error_pattern(c.field, horizon + 1, c.n, M, (M + 1) // 2,
                             seed=1, adversarial=True)
    rep = simulate(c, [()] * c.k, err, horizon)
    methods = [y.method.split(":")[0] for y in rep.cycles]
    assert methods.count("search") == 2 and methods.count("failed") == 6
    # 8 search cycles over 14 columns with t = 3 reach the root, its 14
    # children and their children
    assert built.count(()) == 1
    assert len(built) == len(set(built)) > 15
    built.clear()
    clean = make_error_pattern(c.field, horizon + 1, c.n, M, 0, seed=1)
    assert simulate(c, [()] * c.k, clean, horizon).ok and built == []


@pytest.mark.parametrize("fx", decodable_fixtures(), ids=lambda fx: fx.name)
def test_paranoid_reports_match_the_default_path(fx):
    """The paranoid cross-checks share the search's plan and change nothing."""
    c = fx.code
    _, M = lm_params(c.n, c.k, c.delta)
    horizon = 12 + 2 * M
    trials = [*channel_trials(c, 100, 0, horizon),
              *channel_trials(c, 20, 1000, horizon)]
    for msg, err in trials:
        assert repr(simulate(c, msg, err, horizon, paranoid=True)) == \
            repr(simulate(c, msg, err, horizon))


def test_paranoid_fails_overloaded_shortcut_cycles():
    """A shortcut cycle whose window has no match of weight <= t is recorded
    as failed with a zero correction, as a search cycle would be."""
    c = fixture("smds_2_1_2_q8").code
    _, M = lm_params(c.n, c.k, c.delta)
    horizon = 12 + 2 * M
    diverged = 0
    for msg, err in channel_trials(c, 20, 0, horizon, adversarial=True):
        mine = simulate(c, msg, err, horizon, paranoid=True).cycles
        base = simulate(c, msg, err, horizon).cycles
        j = next((j for j, (a, b) in enumerate(zip(mine, base)) if a != b),
                 None)
        if j is not None:
            diverged += 1
            assert base[j].method.startswith("shortcut:")
            assert mine[j].method == "failed:no_solution"
            assert mine[j].eta0 == (0,) * c.n
    assert diverged


def test_error_pattern_compliant_windows():
    c = fixture("smds_2_1_2_q8").code
    _, M = lm_params(c.n, c.k, c.delta)
    t = (M + 1) // 2
    for seed in range(12):
        pat = make_error_pattern(F8, 20, c.n, M, t, seed=seed)
        assert pat.constraint_ok
        # independent window scan, clipped at the end of the pattern
        grid = pat.symbols
        scan = [sum(1 for r in range(s, min(s + M + 1, 20))
                    for x in grid[r] if x) for s in range(20)]
        assert max(scan) <= t
        assert list(pat.window_weights()) == scan


def test_channel_trials_at_neighbouring_seeds_share_no_pattern():
    for fx in decodable_fixtures():
        c = fx.code
        _, M = lm_params(c.n, c.k, c.delta)
        runs = [{err.symbols for _, err in channel_trials(c, 20, seed,
                                                          12 + 2 * M)}
                for seed in (0, 1)]
        assert len(runs[0]) == len(runs[1]) == 20, fx.name
        assert not runs[0] & runs[1], fx.name


def test_error_pattern_reproducible_and_distinct():
    a = make_error_pattern(F8, 20, 2, 4, 2, seed=5)
    b = make_error_pattern(F8, 20, 2, 4, 2, seed=5)
    c = make_error_pattern(F8, 20, 2, 4, 2, seed=6)
    assert a.symbols == b.symbols
    assert a.symbols != c.symbols


def test_error_pattern_exact_count_and_infeasible():
    pat = make_error_pattern(F8, 30, 2, 4, 2, seed=9, errors=5)
    assert pat.weight() == 5 and pat.constraint_ok
    with pytest.raises(Infeasible):
        make_error_pattern(F8, 10, 2, 4, 0, seed=1, errors=1)
    with pytest.raises(BadParams):
        make_error_pattern(F8, 0, 2, 4, 2, seed=1)
    with pytest.raises(BadParams):
        make_error_pattern(F8, 1 << 20, 2, 4, 2, seed=0)
    with pytest.raises(BadParams, match="errors >= 0"):
        make_error_pattern(F8, 30, 2, 4, 2, seed=9, errors=-1)


def test_error_pattern_adversarial():
    pat = make_error_pattern(F8, 20, 2, 4, 2, seed=3, adversarial=True)
    assert not pat.constraint_ok
    assert max(pat.window_weights()) == 3  # t + 1


def test_simulate_end_to_end():
    c = fixture("smds_2_1_2_q8").code
    _, M = lm_params(c.n, c.k, c.delta)
    t = (M + 1) // 2
    horizon = 12 + 2 * M
    for seed in range(5):
        err = make_error_pattern(F8, horizon + 1, c.n, M, t, seed=seed)
        rep = simulate(c, [(1, 2, 3)], err, horizon, paranoid=True)
        assert rep.ok and rep.matched
        assert rep.constraint_ok is True
    with pytest.raises(ShapeMismatch):
        simulate(c, [(1,)], make_error_pattern(F8, 10, 3, M, t, seed=0), 20)
    with pytest.raises(BadParams):
        simulate(c, [(1,)], make_error_pattern(F8, 40, 2, M, t, seed=0), 6)


def test_received_file_round_trip():
    walk = decode_walkthrough()
    w = walk["received"]
    text = format_received_file(w, comment="sample word")
    back = parse_received_file(text)
    assert back.symbols == w.symbols and back.field == w.field
    with pytest.raises(ParseError):
        parse_received_file("received n=2 length=4\n1\n1\n")
    with pytest.raises(ParseError):
        parse_received_file("field GF(2)\nwrong header\n")
    with pytest.raises(BadParams):
        parse_received_file("field GF(2)\nreceived n=2 length=2000000\n1\n1\n")


def test_word_length_bound():
    F2 = standard_field(2)
    assert word_from_polys(F2, [(1,)], MAX_LENGTH).horizon == MAX_LENGTH - 1
    with pytest.raises(BadParams):
        word_from_polys(F2, [(1,)], MAX_LENGTH + 1)


def test_received_file_inline_comments():
    w = decode_walkthrough()["received"]
    text = format_received_file(w, comment="sample word")
    commented = "\n".join(f"{line}  # note {i}" if line else line
                          for i, line in enumerate(text.splitlines()))
    back = parse_received_file(commented)
    assert back.symbols == w.symbols and back.field == w.field
    assert parse_received_file(format_received_file(back)) == back


def test_received_file_io(tmp_path):
    walk = decode_walkthrough()
    path = tmp_path / "w.word"
    save_received(walk["received"], path)
    assert load_received(path).symbols == walk["received"].symbols
