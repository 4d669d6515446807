"""Code descriptions, sliding matrices, and the code file format."""

import re
from pathlib import Path

import pytest

from convmds import code
from convmds.code import (basic_degree, derived_complement, dual,
                          format_code_file, full_size_minors, laurent_table,
                          make_code, parse_code_file, pm_coefficient,
                          pm_is_zero, pm_make, pm_memory, pm_mul,
                          pm_transpose, sliding_generator, sliding_parity,
                          systematic_h_rows, systematic_sliding_parity,
                          window_generator, window_parity)
from convmds.decoder import (encode_word, feedback_decode, format_received_file,
                             parse_received_file, simulation_horizon)
from convmds.distances import has_mdp_minors, lm_params, profile
from convmds.errors import (A1NotUnit, BadParams, FieldMismatch,
                            MissingMatrix, NotBasic, NotRateNMinus1,
                            ParseError, RankDeficient, ShapeMismatch)
from convmds.fixtures import all_fixtures, decode_walkthrough, fixture
from convmds.galois import parse_field, standard_field
from convmds.poly import poly_coef
from convmds.rng import XorShift64Star
from convmds.selftest import methods_agreement
from algebra_helpers import identity, mat_mul, pm_det, poly_eval, vec_mat

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
F2 = standard_field(2)
F4 = standard_field(4)
F8 = standard_field(8)


def test_pm_make_validation():
    with pytest.raises(ShapeMismatch):
        pm_make(F4, [])
    with pytest.raises(ShapeMismatch):
        pm_make(F4, [[(1,)], [(1,), (2,)]])
    with pytest.raises(FieldMismatch):
        pm_make(F4, [[(9,)]])
    for coefficient in (1.0, "1", 0.0):  # not ints, though 0 <= 1.0 < 4
        with pytest.raises(FieldMismatch, match=r"^value .* outside GF\(4\)$"):
            make_code(F4, 2, 1, 1, gen=[[(1, coefficient), (1,)]])
    M = pm_make(F4, [[(1, 0, 0), (0,)]])
    assert M.entries == (((1,), ()),)


def test_pm_mul_matches_pointwise_evaluation():
    rng = XorShift64Star(13)
    q = 8
    for _ in range(25):
        A = pm_make(F8, [[tuple(rng.below(q) for _ in range(3))
                          for _ in range(2)] for _ in range(2)])
        B = pm_make(F8, [[tuple(rng.below(q) for _ in range(3))
                          for _ in range(4)] for _ in range(2)])
        C = pm_mul(A, B)
        for x in range(q):
            Ax = [[poly_eval(F8, e, x) for e in row] for row in A.entries]
            Bx = [[poly_eval(F8, e, x) for e in row] for row in B.entries]
            Cx = [[poly_eval(F8, e, x) for e in row] for row in C.entries]
            assert mat_mul(F8, Ax, Bx) == Cx


def test_pm_helpers():
    M = pm_make(F4, [[(1, 2), (0, 0, 3)]])
    assert pm_memory(M) == 2
    assert pm_coefficient(M, 0) == [[1, 0]]
    assert pm_coefficient(M, 2) == [[0, 3]]
    assert pm_transpose(M).entries == (((1, 2),), ((0, 0, 3),))
    assert not pm_is_zero(M)
    assert pm_is_zero(pm_make(F4, [[(0,)]]))


def test_basic_and_degree():
    good = pm_make(F2, [[(1,), (0, 1)]])
    assert basic_degree(good) == 1
    shared = pm_make(F2, [[(1, 1), (1, 0, 1)]])  # gcd x+1
    assert basic_degree(shared) is None
    with pytest.raises(RankDeficient):
        basic_degree(pm_make(F2, [[(1,), (1,)], [(1,), (1,)]]))
    minors = dict(full_size_minors(good))
    assert minors == {(0,): (1,), (1,): (0, 1)}


def test_full_size_minors_match_cofactor_expansion():
    rng = XorShift64Star(31)
    fields = [standard_field(q) for q in (2, 4, 8, 16, 64, 11)]
    fields.append(parse_field("GF(3^2;2,1,1)"))
    compared = 0
    for F in fields:
        for rows in range(1, 6):
            for _ in range(6):
                cols = rows + rng.below(3)
                # zero and constant entries are frequent, so zero pivots
                # and row swaps occur
                M = pm_make(F, [[tuple(rng.below(F.q)
                                       for _ in range(rng.below(4)))
                                 for _ in range(cols)] for _ in range(rows)])
                for chosen, minor in full_size_minors(M):
                    sub = [[row[j] for j in chosen] for row in M.entries]
                    assert minor == pm_det(F, sub), (F, M, chosen)
                    compared += 1
    assert compared > 1000


def test_minors_of_a_parity_check_cost_cubic_products(monkeypatch, tmp_path):
    """An 11 x 12 parity check loads with O(n^3) products per maximal minor,
    where a cofactor expansion takes 11! per minor."""
    F = standard_field(16)
    # Vandermonde rows x^i at 12 distinct points: every maximal minor is a
    # nonzero constant, so H is basic of degree 0
    H = [[F.pow(x, i) if i else 1 for x in range(12)] for i in range(11)]
    path = tmp_path / "wide.code"
    path.write_text(f"field {F}\ncode n=12 k=1 delta=0\nH 11 12\n"
                    + "".join(f"{x}\n" for row in H for x in row))
    bound = 12 * 11 ** 3
    products = 0
    real = code.poly_mul

    def counted(*args):
        nonlocal products
        products += 1
        if products > bound:
            raise AssertionError(f"more than {bound} polynomial products")
        return real(*args)

    monkeypatch.setattr(code, "poly_mul", counted)
    c = code.load_code(path)
    assert (c.n, c.k, c.delta) == (12, 1, 0)
    assert 0 < products <= bound


def test_fixture_matrices_are_basic_with_declared_degree():
    for name, fx in sorted(all_fixtures().items()):
        for M in (fx.code.gen, fx.code.par):
            if M is None:
                continue
            assert basic_degree(M) == fx.code.delta, name


def test_make_code_lists_each_matrix_minors_once(monkeypatch):
    seen = []
    real = code.full_size_minors

    def counted(M):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(code, "full_size_minors", counted)
    matrices = 0
    for path in sorted(FIXTURES.glob("*.code")):
        c = code.load_code(path)
        matrices += (c.gen is not None) + (c.par is not None)
    assert len(seen) == matrices == 20


def test_make_code_errors():
    with pytest.raises(BadParams):
        make_code(F2, 2, 2, 0, gen=[[(1,), (1,)], [(0,), (1,)]])
    with pytest.raises(MissingMatrix):
        make_code(F2, 2, 1, 0)
    with pytest.raises(ShapeMismatch):
        make_code(F2, 3, 1, 0, gen=[[(1,), (1,)]])
    with pytest.raises(BadParams):
        make_code(F2, 2, 1, 0, gen=[[(1,), (1,)]], par=[[(1,), (0, 1)]])
    with pytest.raises(NotBasic):
        make_code(F2, 2, 1, 2, gen=[[(1, 1), (1, 0, 1)]])
    with pytest.raises(BadParams):
        make_code(F2, 2, 1, 2, gen=[[(1,), (0, 1)]])


def test_dual_swaps_roles():
    c = fixture("smds_3_1_2_q16").code
    d = dual(c)
    assert (d.n, d.k, d.delta) == (3, 2, 2)
    assert d.gen == c.par and d.par == c.gen
    dd = dual(d)
    assert dd.gen == c.gen and dd.par == c.par


def test_two_sided_fixtures_are_orthogonal():
    for name, fx in sorted(all_fixtures().items()):
        c = fx.code
        if c.gen is None or c.par is None:
            continue
        assert pm_is_zero(pm_mul(c.gen, pm_transpose(c.par))), name


def test_derived_complements_are_orthogonal():
    compared = 0
    for name, fx in sorted(all_fixtures().items()):
        d = dual(fx.code)
        for c in (fx.code, d):
            for M in (c.gen, c.par):
                if M is None:
                    continue
                N = derived_complement(M)
                if c.k not in (1, c.n - 1):
                    assert N is None, name
                    continue
                assert N.rows == M.cols - M.rows, name
                assert pm_is_zero(pm_mul(M, pm_transpose(N))), name
        if d.n <= 4:
            # each engine reads a stored matrix or a derived complement;
            # the n = 2 duals derive with both rules applicable
            got, problems = methods_agreement(d, jmax=1)
            assert problems == [], name
            compared += got
    assert compared >= 20


def test_window_matrices_availability():
    c = fixture("smds_5_2_2_q16").code  # k=2, n=5: no parity derivable
    assert window_generator(c) is not None
    assert window_parity(c) is None
    r = fixture("smds_2_1_2_q8").code
    assert window_generator(r) is not None
    assert window_parity(r) is not None


# smds_3_2_2_q16 stores only G, smds_2_1_2_q8 only H; both are decodable
@pytest.mark.parametrize("name", ["smds_3_2_2_q16", "smds_2_1_2_q8"])
def test_a_code_derives_its_complement_once(monkeypatch, name):
    seen = []
    real = code.derived_complement

    def counted(M):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(code, "derived_complement", counted)
    c = code.load_code(FIXTURES / f"{name}.code")
    stored = c.gen if c.par is None else c.par
    assert (c.gen is None) != (c.par is None)
    profile(c)
    has_mdp_minors(c)
    for j in range(3):
        sliding_generator(c, j)
        sliding_parity(c, j)
    _, M = lm_params(c.n, c.k, c.delta)
    word = encode_word(c, [(1, 1)] * c.k, simulation_horizon(M) + 1)
    assert feedback_decode(word, c).ok
    assert seen == [stored]


def test_filling_the_complement_leaves_equality_hash_and_repr():
    c = code.load_code(FIXTURES / "smds_2_1_2_q8.code")
    twin = code.load_code(FIXTURES / "smds_2_1_2_q8.code")
    before = (repr(c), hash(c))
    assert window_generator(c) is c.complement is window_generator(c)
    assert "complement" in vars(c) and "complement" not in vars(twin)
    assert (repr(c), hash(c)) == before == (repr(twin), hash(twin))
    assert c == twin


def _block_window(P, j, upper):
    """Block row t, block column s holds P_{s-t} when upper, else P_{t-s}."""
    return [[poly_coef(P.entries[r][i], s - t if upper else t - s)
             for s in range(j + 1) for i in range(P.cols)]
            for t in range(j + 1) for r in range(P.rows)]


def test_sliding_windows_match_their_block_definition():
    compared = 0
    for name, fx in sorted(all_fixtures().items()):
        c = fx.code
        for sliding, P, upper in ((sliding_generator, window_generator(c), True),
                                  (sliding_parity, window_parity(c), False)):
            if P is None:
                continue
            for j in range(4):
                S = sliding(c, j)
                assert (S.j, S.block_cols) == (j, c.n), name
                assert S.data == _block_window(P, j, upper), name
                compared += 1
    assert compared == 4 * 33
    c = fixture("smds_5_2_2_q16").code
    with pytest.raises(BadParams, match="^window index must be nonnegative$"):
        sliding_generator(c, -1)
    with pytest.raises(MissingMatrix,
                       match="^no parity check available for this code$"):
        sliding_parity(c, 0)


def test_sliding_generator_encodes_windows():
    rng = XorShift64Star(55)
    for name in ("smds_3_1_1_q4", "smds_3_2_2_q16", "smds_2_1_2_q8"):
        c = fixture(name).code
        mem = pm_memory(window_generator(c))
        for j in (0, 1, 3):
            S = sliding_generator(c, j)
            assert S.rows == (j + 1) * c.k and S.cols == (j + 1) * c.n
            msg = [tuple(rng.below(c.field.q) for _ in range(j + 1))
                   for _ in range(c.k)]
            word = encode_word(c, msg, length=j + 1 + mem)
            uflat = [msg[r][t] for t in range(j + 1) for r in range(c.k)]
            vflat = [x for blk in word.symbols[: j + 1] for x in blk]
            assert vec_mat(c.field, uflat, S.data) == vflat


def test_sliding_parity_annihilates_codewords():
    rng = XorShift64Star(56)
    for name in ("smds_3_1_2_q16", "smds_2_1_3_q32", "smds_4_3_1_q16"):
        c = fixture(name).code
        j = 4
        S = sliding_parity(c, j)
        assert S.rows == (j + 1) * (c.n - c.k)
        mem = pm_memory(window_generator(c))
        msg = [tuple(rng.below(c.field.q) for _ in range(j + 1))
               for _ in range(c.k)]
        word = encode_word(c, msg, length=j + 1 + mem)
        vflat = [x for blk in word.symbols[: j + 1] for x in blk]
        prod = mat_mul(c.field, S.data, [[x] for x in vflat])
        assert all(row[0] == 0 for row in prod)


def test_systematic_window_structure():
    c = fixture("smds_2_1_2_q8").code
    M = 4
    S = systematic_sliding_parity(c, M)
    left = [row[: M + 1] for row in S.data]
    assert left == identity(c.field, M + 1)
    assert systematic_h_rows(S) == laurent_table(c, M)
    for window in (systematic_sliding_parity, laurent_table):
        with pytest.raises(BadParams,
                           match="^window index must be nonnegative$"):
            window(c, -1)


def systematic_column_order(n: int, M: int, pivot: int = 0):
    """Source column indices of the systematic reordering of a parity window.

    Entry r of the result is the column of the plain (time-major) window that
    lands at position r of the systematic one.
    """
    order = [t * n + pivot for t in range(M + 1)]
    for t in range(M + 1):
        order.extend(t * n + i for i in range(n) if i != pivot)
    return order


def test_systematic_window_annihilates_reordered_codewords():
    rng = XorShift64Star(57)
    for name, pivot in (("smds_2_1_2_q8", 0), ("smds_2_1_2_q8", 1),
                        ("smds_3_2_2_q64", 2)):
        c = fixture(name).code
        M = 3
        S = systematic_sliding_parity(c, M, pivot=pivot)
        order = systematic_column_order(c.n, M, pivot=pivot)
        assert sorted(order) == list(range((M + 1) * c.n))
        mem = pm_memory(window_generator(c))
        msg = [tuple(rng.below(c.field.q) for _ in range(M + 1))
               for _ in range(c.k)]
        word = encode_word(c, msg, length=M + 1 + mem)
        vflat = [x for blk in word.symbols[: M + 1] for x in blk]
        vperm = [vflat[col] for col in order]
        prod = mat_mul(c.field, S.data, [[x] for x in vperm])
        assert all(row[0] == 0 for row in prod)


def test_laurent_requires_unit_pivot():
    c = make_code(F2, 2, 1, 1, par=[[(0, 1), (1,)]])  # a_0 = D
    with pytest.raises(A1NotUnit):
        laurent_table(c, 3, pivot=0)
    assert laurent_table(c, 3, pivot=1) == [[0], [1], [0], [0]]
    with pytest.raises(NotRateNMinus1):
        laurent_table(fixture("smds_3_1_2_q16").code, 3)


def test_code_file_round_trip():
    for name, fx in sorted(all_fixtures().items()):
        text = format_code_file(fx.code, comment=f"fixture {name}")
        back = parse_code_file(text)
        assert back.gen == fx.code.gen and back.par == fx.code.par, name
        assert (back.n, back.k, back.delta) == (fx.code.n, fx.code.k,
                                                fx.code.delta)


def _fixture_texts(kind):
    """The writer's text of every fixture of one file format."""
    if kind == "code":
        return [format_code_file(fx.code, f"fixture {name}")
                for name, fx in sorted(all_fixtures().items())]
    return [format_received_file(decode_walkthrough()["received"], "word")]


@pytest.mark.parametrize("kind, keys, body", [
    ("code", ("n", "k", "delta"), "H 2 3\n1\n1\n0\n0\n1\n1\n"),
    ("received", ("n", "length"), "1\n0,1\n"),
], ids=["code", "received"])
def test_both_file_formats_follow_one_header_rule(kind, keys, body):
    parse, fmt = {"code": (parse_code_file, format_code_file),
                  "received": (parse_received_file, format_received_file)}[kind]
    good = dict(zip(keys, (3, 1, 0) if kind == "code" else (2, 3)))
    line = " ".join([kind] + [f"{k}={v}" for k, v in good.items()])
    assert parse(f"field GF(2)\n{line}\n{body}") is not None
    first, last = keys[0], keys[-1]
    bad_heads = [
        line.replace(f" {first}={good[first]}", ""),  # a key missing
        f"{line} extra=1",  # an unknown key
        f"{line} {first}={good[first]}",  # a repeated key
        f"{line} {last}=7",  # a repeated key with another value
        line.replace(f"{last}={good[last]}", f"{last}=x"),  # not an integer
        line.replace(f"{last}={good[last]}", last),  # no "="
        line.replace(kind, "code" if kind == "received" else "received"),
        kind,  # no keys at all
    ]
    expected = " ".join([kind] + [f"{k}=<int>" for k in keys])
    texts = [f"field GF(2)\n{head}\n{body}" for head in bad_heads]
    texts += [f"GF(2)\n{line}\n{body}", f"{line}\n{body}", "field GF(2)\n", ""]
    for text in texts:
        with pytest.raises(ParseError, match=re.escape(f"'{expected}'")):
            parse(text)
    for text in _fixture_texts(kind):  # every fixture reads back unchanged
        back = parse(text)
        assert fmt(back, text.splitlines()[0][2:]) == text


def test_file_head_strips_trailing_spaces_of_comment_lines():
    w = decode_walkthrough()["received"]
    for fmt, obj in ((format_code_file, fixture("smds_3_1_1_q4").code),
                     (format_received_file, w)):
        assert fmt(obj, "a\n\nb ").splitlines()[:3] == ["# a", "#", "# b"]


def test_code_file_parse_errors():
    with pytest.raises(ParseError):
        parse_code_file("code n=2 k=1 delta=0\n")
    with pytest.raises(ParseError):
        parse_code_file("field GF(2)\nwrong\n")
    good = format_code_file(fixture("smds_3_1_1_q4").code)
    with pytest.raises(ParseError):
        parse_code_file(good + "G 1 3\n1\n1\n1\n")
    with pytest.raises(ParseError):
        parse_code_file(good + "Q 1 3\n")
    with pytest.raises(ParseError):
        parse_code_file(good + "H a b\n")
    with pytest.raises(ParseError):
        parse_code_file(good.replace("delta=1", "delta=x"))
