"""Construction pipeline from a superregular matrix to a certified code."""

import random

import pytest

from construct_oracle import canonical_a
from convmds.code import (SlidingMatrix, laurent_table, pm_is_zero, pm_mul,
                          pm_transpose, window_parity)
from convmds.construct import (build_hhat, column_property_holds,
                               construct_dual_mds, construct_strongly_mds,
                               required_tau, solve_ab)
from convmds.distances import lm_params, profile, singleton_bound
from convmds.errors import (BadParams, BudgetExceeded, DivisibilityViolated,
                            NoSuperregularFound, NotSuperregular,
                            ShapeMismatch, SystemInconsistent)
from convmds.fixtures import fixture, reference_toeplitz
from convmds.galois import standard_field
from convmds.poly import poly_coef, poly_gcd, poly_norm, series_div
from convmds.superregular import search_toeplitz, toeplitz

F4 = standard_field(4)
F8 = standard_field(8)


def ref(q, size):
    for T in reference_toeplitz():
        if T.field is not None and T.field.q == q and T.size == size:
            return T
    raise AssertionError(f"no reference matrix for q={q} size={size}")


def test_required_tau_goldens():
    assert required_tau(2, 2) == 5
    assert required_tau(2, 3) == 7
    assert required_tau(3, 2) == 8
    assert required_tau(4, 1) == 6
    assert required_tau(2, 0) == 1
    for n, delta in ((1, 2), (2, -1)):  # lm_params' check on (n, n-1, delta)
        with pytest.raises(BadParams, match=f"n={n} k={n - 1} delta={delta}"):
            required_tau(n, delta)


def test_build_hhat_checks_inputs():
    T = ref(8, 5)
    S = build_hhat(T, 2, 4)
    assert S.rows == 5 and S.cols == 10
    assert [row[:5] for row in S.data] == [
        [1 if s == r else 0 for s in range(5)] for r in range(5)]
    assert column_property_holds(S)
    with pytest.raises(ShapeMismatch):
        build_hhat(T, 3, 4)
    with pytest.raises(NotSuperregular):
        build_hhat(toeplitz(F8, (1, 1, 1, 1, 1)), 2, 4)
    one = toeplitz(F8, (1,))
    assert build_hhat(one, 2, 0).data == [[1, 1]]  # M = 0: one block column
    with pytest.raises(BadParams):  # not a ShapeMismatch on the 0x0 size
        build_hhat(one, 1, 0)


def test_solve_ab_reproduces_window_series():
    T = ref(8, 5)
    n, delta = 2, 2
    _, M = lm_params(n, n - 1, delta)
    S = build_hhat(T, n, M)
    a, bs = solve_ab(S, n, delta)
    assert poly_coef(a, 0) != 0
    # the recovered parity row must regenerate the window's Laurent rows
    from convmds.code import make_code
    c = make_code(S.field, n, n - 1, delta, par=[[a] + bs])
    rows = laurent_table(c, M)
    width = n - 1
    for t in range(M + 1):
        for b in range(M + 1):
            block = S.data[t][M + 1 + b * width: M + 1 + (b + 1) * width]
            want = rows[t - b] if t >= b else [0] * width
            assert block == want, (t, b)


def synthetic_window(F, n, delta, a, bs):
    """Systematic window whose Laurent rows are the series b_w/a through D^M."""
    _, M = lm_params(n, n - 1, delta)
    h = [series_div(F, b, a, M + 1) for b in bs]
    data = [[1 if s == t else 0 for s in range(M + 1)]
            + [h[w][t] for w in range(n - 1)] for t in range(M + 1)]
    return SlidingMatrix(F, M, n, data)


@pytest.mark.parametrize("n, delta", [(3, 3), (4, 4), (3, 5), (4, 5), (4, 2)])
@pytest.mark.parametrize("q", [4, 8])
def test_solve_ab_picks_the_enumerated_canonical_solution(q, n, delta):
    # underdetermined windows: (n-1)(M-delta) equations in delta unknowns;
    # a low-degree a and short b widen the solution set further.  With
    # delta < n-1 there are no equations and a = 1.
    F = standard_field(q)
    rng = random.Random(q * 100 + n * 10 + delta)
    for _ in range(25):
        da, db = rng.randrange(delta + 1), rng.randrange(delta + 1)
        a = (1,) + tuple(rng.randrange(q) for _ in range(da))
        bs = [tuple(rng.randrange(q) for _ in range(db + 1))
              for _ in range(n - 1)]
        S = synthetic_window(F, n, delta, a, bs)
        got_a, got_bs = solve_ab(S, n, delta)
        assert got_a == poly_norm([1] + canonical_a(S, n, delta))
        assert all(len(b) <= delta + 1 for b in got_bs)
        g = got_a
        for b in got_bs:
            g = poly_gcd(F, g, b)
        assert g == (1,)  # the least-degree a leaves no common factor


def test_solve_ab_canonical_beyond_the_old_enumeration_limit():
    # h = 1/(1 + 3D) over GF(16) with delta = 5: every a = (1 + 3D) m with
    # deg m <= 4 and m(0) = 1 solves the window system, a 16^4 solution set;
    # the least-degree choice is 1 + 3D itself
    F = standard_field(16)
    S = synthetic_window(F, 2, 5, (1, 3), [(1,)])
    a, bs = solve_ab(S, 2, 5)
    assert a == (1, 3) and bs == [(1,)]


def test_solve_ab_rejects_a_window_without_a_denominator():
    # n = 2, delta = 1, M = 2: the one equation a_1 h_1 = -h_2 has no
    # solution when h_1 = 0 and h_2 != 0
    S = SlidingMatrix(F8, 2, 2, [[1 if s == t else 0 for s in range(3)] + [h]
                                 for t, h in enumerate((1, 0, 1))])
    with pytest.raises(SystemInconsistent):
        solve_ab(S, 2, 1)


def test_pipeline_matches_fixture_parities():
    golds = [
        ("smds_2_1_2_q8", 2, 2, 8, 5),
        ("smds_2_1_3_q32", 2, 3, 32, 7),
        ("smds_3_2_2_q64", 3, 2, 64, 8),
        ("smds_4_3_1_q16", 4, 1, 16, 6),
    ]
    for name, n, delta, q, size in golds:
        trace = construct_strongly_mds(n, delta, standard_field(q),
                                       T=ref(q, size))
        fx = fixture(name)
        assert trace.code.par.entries == fx.code.par.entries, name
        # the systematic window the parity row was solved from
        _, M = lm_params(n, n - 1, delta)
        assert (trace.hhat.rows, trace.hhat.cols) == (M + 1, (M + 1) * n)
        assert column_property_holds(trace.hhat), name
        assert trace.certificates["strongly_mds"] is True
        assert trace.certificates["d_c_M"] == singleton_bound(n, n - 1, delta)


def test_pipeline_with_search_small_field():
    trace = construct_strongly_mds(2, 1, F4)
    assert trace.tau == 3
    assert trace.certificates["strongly_mds"] is True
    prof = profile(trace.code)
    assert prof.strongly_mds is True
    assert prof.values[-1] == singleton_bound(2, 1, 1)


def test_pipeline_search_failure():
    # no superregular 5x5 Toeplitz matrix exists over GF(2)
    with pytest.raises(NoSuperregularFound):
        construct_strongly_mds(2, 2, standard_field(2))


def test_search_takes_the_least_column():
    # tau = 7 and 8: q^(tau-1) is far above the default budget, yet the
    # exhaustive search reaches its first hit after a few thousand classes
    F32 = standard_field(32)
    trace = construct_strongly_mds(2, 3, F32)
    assert trace.toeplitz.col == (1, 1, 2, 3, 8, 1, 26)
    assert trace.toeplitz.col == search_toeplitz(7, F32).col
    assert all(v is True for k, v in trace.certificates.items() if k != "d_c_M")
    trace = construct_strongly_mds(3, 2, standard_field(64))
    assert trace.toeplitz.col == (1, 1, 2, 3, 8, 7, 1, 62)


def test_search_miss_is_a_proof_and_the_budget_holds():
    # the exhaustive search proves that no 10x10 exists over GF(8)
    with pytest.raises(NoSuperregularFound, match="exists"):
        construct_strongly_mds(3, 3, F8)
    with pytest.raises(BudgetExceeded):
        construct_strongly_mds(2, 3, standard_field(32), budget=1000)


def test_dual_rejects_n_below_two():
    with pytest.raises(BadParams):
        construct_dual_mds(1, 2, F4)


def test_field_mismatch_rejected():
    with pytest.raises(BadParams):
        construct_strongly_mds(2, 2, F4, T=ref(8, 5))


def test_dual_construction():
    trace = construct_dual_mds(3, 2, standard_field(64), T=ref(64, 8))
    c = trace.code
    assert (c.n, c.k, c.delta) == (3, 1, 2)
    assert c.gen is not None and c.par is None
    assert pm_is_zero(pm_mul(c.gen, pm_transpose(window_parity(c))))
    assert trace.certificates["dual_of_certified"] is True
    assert c.gen.entries == fixture("smds_3_1_2_q64").code.gen.entries
    with pytest.raises(DivisibilityViolated):
        construct_dual_mds(3, 3, standard_field(64))
