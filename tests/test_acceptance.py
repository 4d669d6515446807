"""Acceptance gate.

One test per advertised guarantee, run end to end at full size.  Everything
here is exact: golden profiles, certified constructions, decoder walkthrough,
simulation recovery, and the brute-force method equivalences.  Run with
``pytest -v`` to get one pass/fail line per guarantee.
"""

import itertools
import re
from pathlib import Path

from convmds import selftest
from convmds.code import dual, laurent_table
from convmds.construct import construct_strongly_mds
from convmds.decoder import feedback_decode, make_error_pattern, simulate
from convmds.distances import (free_distance, griesmer_feasible,
                               has_mdp_bruteforce, has_mdp_minors, lm_params,
                               profile)
from convmds.fixtures import (all_fixtures, decode_walkthrough, fixture,
                              reference_toeplitz)
from convmds.galois import standard_field
from convmds.superregular import (binomial_column, inverse_superregular,
                                  is_superregular, proper_minors_positive,
                                  search_general_toeplitz,
                                  smallest_prime_superregular, theorem_a_check,
                                  toeplitz)
from superregular_oracle import check_equivalences

GOLDEN_PROFILES = {
    "smds_3_1_1_q4": (3, 5, 6),
    "smds_3_1_2_q16": (3, 5, 7, 9),
    "smds_3_2_2_q16": (2, 3, 4, 5),
    "smds_5_1_1_q16": (5, 9, 10),
    "smds_5_1_2_q16": (5, 9, 13, 15),
    "smds_5_2_2_q16": (4, 7, 9),
    "smds_7_1_1_q8": (7, 13, 14),
    "smds_7_1_2_q8": (7, 13, 18, 21),
}


def test_c1_column_distance_profiles_match_goldens():
    for name, expected in GOLDEN_PROFILES.items():
        c = fixture(name).code
        prof = profile(c, horizon=len(expected) - 1)
        assert tuple(prof.values) == expected, name
        assert prof.strongly_mds is True, name


def test_c2_superregular_references_and_gf4_size4_gap():
    refs = reference_toeplitz()
    assert len(refs) == 11
    for T in refs:
        assert is_superregular(T), (T.field.q, T.size)
    assert search_general_toeplitz(4, standard_field(4)) is None


def test_c3_binomial_matrices_band_criterion_and_smallest_primes():
    for n in range(1, 7):
        assert proper_minors_positive(binomial_column(n)), n
    checked = 0
    for n in range(2, 7):
        for k in range(1, n):
            for r in range(1, min(n, 4) + 1):
                for rows in itertools.combinations(range(1, n + 1), r):
                    for cols in itertools.combinations(range(1, n + 1), r):
                        banded = all(i - k <= j <= i
                                     for i, j in zip(rows, cols))
                        assert theorem_a_check(n, k, rows, cols) == banded
                        checked += 1
    assert checked == 5680
    assert [smallest_prime_superregular(n) for n in range(2, 8)] == \
        [2, 5, 7, 11, 23, 43]


def test_selftest_binomial_check_reports_a_wrong_band_sign(monkeypatch):
    real = selftest.theorem_a_check

    def one_wrong(n, k, rows, cols):
        sign = real(n, k, rows, cols)
        return -sign if (n, k, rows, cols) == (4, 2, (1, 2), (1, 2)) else sign

    monkeypatch.setattr(selftest, "theorem_a_check", one_wrong)
    [result] = selftest.run_checks(["binomial"])
    assert not result.ok
    assert result.detail == "n=4 k=2 (1, 2)|(1, 2): minor sign -1, band says 1"


def test_c4_construction_pipelines_certify_strongly_mds():
    refs = {(T.field.q, T.size): T for T in reference_toeplitz()}
    golds = [
        ("smds_2_1_2_q8", 2, 2, 8, 5, 6),
        ("smds_2_1_3_q32", 2, 3, 32, 7, 8),
        ("smds_3_2_2_q64", 3, 2, 64, 8, 5),
        ("smds_4_3_1_q16", 4, 1, 16, 6, 3),
    ]
    for name, n, delta, q, size, want_d in golds:
        trace = construct_strongly_mds(n, delta, standard_field(q),
                                       T=refs[(q, size)])
        assert trace.code.par.entries == fixture(name).code.par.entries, name
        assert trace.certificates["strongly_mds"] is True, name
        assert trace.certificates["basic"] is True, name
        assert trace.certificates["d_c_M"] == want_d, name
    # bundled parity matrices hold up on their own, pipeline or not
    for name in ("smds_2_1_2_q8", "smds_3_2_2_q16", "smds_4_3_1_q16"):
        assert selftest.verify_fixture(fixture(name)) == []
    F8 = standard_field(8)
    rows = laurent_table(fixture("smds_2_1_2_q8").code, 4)
    assert rows == [[F8.pow(2, e)] for e in (0, 1, 3, 1, 0)]


def test_c5_duality_flags_and_distances():
    for name, fx in sorted(all_fixtures().items()):
        d = dual(fx.code)
        assert has_mdp_minors(fx.code) == has_mdp_minors(d), name
        assert has_mdp_minors(fx.code) == has_mdp_bruteforce(d), name
    c = fixture("mds_3_1_2_q16").code
    prof = profile(c, horizon=4)
    assert prof.values[3] == 8 and prof.values[4] == 9
    assert prof.strongly_mds is False
    assert free_distance(dual(c), horizon=6).value == 4
    c11 = fixture("mds_2_1_2_q11").code
    assert profile(c11).strongly_mds is False
    fd = free_distance(c11, horizon=5)
    assert fd.value == 6 == profile(c11).singleton
    assert fd.status == "exact"


def test_c6_decoder_walkthrough_simulations_and_flagging():
    walk = decode_walkthrough()
    c = fixture(walk["code"]).code
    rep = feedback_decode(walk["received"], c, paranoid=True)
    assert rep.ok
    assert tuple(rep.decoded_polys()) == walk["decoded"]
    for j, eta in walk["eta0"].items():
        assert rep.cycles[j].eta0 == eta, j
    fxs = selftest.decodable_fixtures()
    assert [fx.name for fx in fxs] == [
        "smds_2_1_2_q8", "smds_2_1_3_q32", "smds_3_2_2_q16",
        "smds_3_2_2_q16b", "smds_3_2_2_q64", "smds_4_3_1_q16"]
    for fx in fxs:
        assert selftest.run_simulations(fx, 100) == [], fx.name
        assert selftest.run_simulations(fx, 20, seed_base=1000,
                                        paranoid=True) == [], fx.name
        code = fx.code
        _, M = lm_params(code.n, code.k, code.delta)
        t = (M + 1) // 2
        horizon = 12 + 2 * M
        bad = make_error_pattern(code.field, horizon + 1, code.n, M, t,
                                 seed=11, adversarial=True)
        rep = simulate(code, [()] * code.k, bad, horizon)
        assert rep.constraint_ok is False, fx.name


def test_c7_bruteforce_method_equivalences():
    total = 0
    for name, fx in sorted(all_fixtures().items()):
        assert has_mdp_bruteforce(fx.code) == has_mdp_minors(fx.code), name
        compared, problems = selftest.methods_agreement(fx.code, jmax=4)
        assert problems == [], name
        total += compared
    assert total >= 50
    for q in (2, 3):
        F = standard_field(q)
        for l in range(1, 5):
            for col in itertools.product(range(q), repeat=l):
                rep = check_equivalences(toeplitz(F, col))
                assert rep.superregular == is_superregular(toeplitz(F, col))
                if col[0]:
                    assert rep.agree, (q, col)
                else:
                    # zero diagonal is a singular 1x1 proper minor; the
                    # weight/span conditions degenerate there
                    assert not rep.superregular, (q, col)
    for T in reference_toeplitz():
        assert is_superregular(inverse_superregular(T)), (T.field.q, T.size)


def test_c8_distance_feasibility_bound():
    assert griesmer_feasible(7, 2, 2, memory=1, d=12, q=8)
    assert not griesmer_feasible(7, 2, 2, memory=1, d=13, q=8)
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    least = next(q for q in prime_powers
                 if griesmer_feasible(7, 2, 2, memory=1, d=13, q=q, i_max=1))
    assert least == 13


def test_readme_library_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md quickstart", "exec"), scope)
    assert scope["rep"].ok
