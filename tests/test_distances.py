"""Column distances against a direct message-enumeration oracle."""

import itertools

import pytest
from hypothesis import given, settings

from convmds.code import sliding_generator, window_generator
from convmds.distances import (_message_space, column_distance, free_distance,
                               griesmer_feasible, has_mdp_bruteforce,
                               has_mdp_minors, lm_params, profile,
                               singleton_bound)
from convmds.errors import BadParams, BudgetExceeded, MissingMatrix
from convmds.fixtures import all_fixtures, fixture
from convmds.linalg import vec_mat, vec_weight
from distances_oracle import dc_messages_state_table
from test_properties import random_codes

ORACLE_BUDGET = 1 << 20


def oracle_dc(c, j):
    """Minimum window weight over all messages with a nonzero first block."""
    S = sliding_generator(c, j)
    q, k = c.field.q, c.k
    best = None
    for u in itertools.product(range(q), repeat=(j + 1) * k):
        if all(x == 0 for x in u[:k]):
            continue
        w = vec_weight(vec_mat(c.field, list(u), S.data))
        if best is None or w < best:
            best = w
    return best


def test_lm_params_goldens():
    assert lm_params(2, 1, 2) == (4, 4)
    assert lm_params(2, 1, 3) == (6, 6)
    assert lm_params(3, 1, 2) == (3, 3)
    assert lm_params(3, 2, 2) == (3, 3)
    assert lm_params(4, 3, 1) == (1, 1)
    assert lm_params(5, 1, 2) == (2, 3)
    assert lm_params(7, 1, 2) == (2, 3)
    for n, k, delta in ((2, 1, 2), (3, 2, 2), (5, 2, 2), (7, 1, 2)):
        L, M = lm_params(n, k, delta)
        assert M >= L >= 0


def test_singleton_goldens():
    assert singleton_bound(3, 1, 1) == 6
    assert singleton_bound(3, 1, 2) == 9
    assert singleton_bound(7, 1, 2) == 21
    assert singleton_bound(2, 1, 2) == 6
    assert singleton_bound(2, 1, 3) == 8
    assert singleton_bound(4, 3, 1) == 3
    assert singleton_bound(5, 1, 2) == 15


def test_column_distance_matches_enumeration():
    cases = [("smds_3_1_1_q4", 2), ("smds_2_1_2_q8", 2),
             ("smds_3_2_2_q16", 1), ("mds_2_1_2_q11", 2)]
    for name, jmax in cases:
        c = fixture(name).code
        for j in range(jmax + 1):
            want = oracle_dc(c, j)
            assert column_distance(c, j, method="messages") == want, (name, j)
            assert column_distance(c, j, method="syndrome") == want, (name, j)
            assert column_distance(c, j) == want, (name, j)


def _outcome(run, *args):
    try:
        return run(*args)
    except BudgetExceeded:
        return "over budget"


def _same_as_state_table(c, j):
    return (_outcome(column_distance, c, j, ORACLE_BUDGET, "messages")
            == _outcome(dc_messages_state_table, c, j, ORACLE_BUDGET))


@pytest.mark.parametrize("name", sorted(
    name for name, fx in all_fixtures().items()
    if window_generator(fx.code) is not None))
def test_message_engine_matches_state_table_on_fixtures(name):
    c = fixture(name).code
    _, M = lm_params(c.n, c.k, c.delta)
    js = [j for j in range(M + 2) if _message_space(c, j) <= ORACLE_BUDGET]
    assert js, name
    for j in js:
        assert _same_as_state_table(c, j), (name, j)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(random_codes())
def test_message_engine_matches_state_table_on_random_codes(c):
    for j in range(4):
        assert _same_as_state_table(c, j), j


def test_column_distance_validation():
    c = fixture("smds_2_1_2_q8").code
    with pytest.raises(BadParams):
        column_distance(c, -1)
    with pytest.raises(BadParams):
        column_distance(c, 1, method="witchcraft")
    for method in ("auto", "syndrome"):
        with pytest.raises(BudgetExceeded):
            column_distance(fixture("smds_7_1_2_q8").code, 4, budget=10,
                            method=method)
    with pytest.raises(MissingMatrix):
        column_distance(fixture("smds_5_2_2_q16").code, 1, method="syndrome")


def test_profile_flags_and_bounds():
    prof = profile(fixture("smds_3_1_1_q4").code)
    assert prof.values == [3, 5, 6]
    assert prof.singleton == 6
    assert (prof.L, prof.M) == (1, 2)
    assert prof.strongly_mds is True
    assert prof.mdp is True
    assert prof.bound_at(0) == 3
    assert prof.horizon == 2
    short = profile(fixture("smds_3_1_1_q4").code, horizon=1)
    assert short.strongly_mds is None  # window too short to tell
    assert short.mdp is True


def test_profile_of_mds_only_code():
    prof = profile(fixture("mds_2_1_2_q11").code, horizon=5)
    assert prof.values == [2, 3, 4, 5, 5, 6]
    assert prof.strongly_mds is False
    assert prof.mdp is False


def test_free_distance_statuses():
    c = fixture("smds_3_1_1_q4").code
    fd = free_distance(c, horizon=2)
    assert (fd.value, fd.status, fd.reached_at) == (6, "exact", 2)
    low = free_distance(c, horizon=1)
    assert (low.value, low.status, low.reached_at) == (5, "lower_bound", None)
    assert free_distance(fixture("mds_2_1_2_q11").code, horizon=5).value == 6
    with pytest.raises(BadParams):
        free_distance(c, horizon=-1)


def test_mdp_methods_agree_on_sample():
    for name in ("smds_3_1_1_q4", "smds_2_1_2_q8", "mds_2_1_2_q11",
                 "smds_4_3_1_q16"):
        c = fixture(name).code
        assert has_mdp_bruteforce(c) == has_mdp_minors(c), name


def test_griesmer_goldens():
    assert griesmer_feasible(7, 2, 2, memory=1, d=12, q=8)
    assert not griesmer_feasible(7, 2, 2, memory=1, d=13, q=8)
    assert griesmer_feasible(7, 2, 2, memory=1, d=13, q=13, i_max=1)
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        assert not griesmer_feasible(7, 2, 2, memory=1, d=13, q=q, i_max=1)


def test_griesmer_monotone_in_d():
    hit_infeasible = False
    for d in range(1, 30):
        ok = griesmer_feasible(7, 2, 2, memory=1, d=d, q=8)
        if not ok:
            hit_infeasible = True
        assert not (hit_infeasible and ok), "feasibility came back after failing"
