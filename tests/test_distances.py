"""Column distances and the MDP minor test against their oracles."""

import gc
import itertools
from collections import Counter
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convmds import distances, linalg
from convmds.code import (MAX_LENGTH, dual, sliding_generator,
                          window_generator, window_parity)
from convmds.distances import (_dc_messages, _dc_syndrome, _engines,
                               _message_space, _syndrome_space,
                               column_distance, free_distance,
                               griesmer_feasible, has_mdp_bruteforce,
                               has_mdp_minors, is_strongly_mds, lm_params,
                               profile, singleton_bound)
from convmds.errors import BadParams, BudgetExceeded
from convmds.fixtures import all_fixtures, fixture
from convmds.galois import standard_field
from convmds.linalg import vec_weight
from convmds.superregular import search_toeplitz
from algebra_helpers import vec_mat
from distances_oracle import (admissible_picks, dc_messages_state_table,
                              has_mdp_minors_by_det)
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
            assert _dc_messages(c, j) == want, (name, j)
            assert _dc_syndrome(c, j) == want, (name, j)
            assert column_distance(c, j) == want, (name, j)


def _outcome(run, *args):
    try:
        return run(*args)
    except BudgetExceeded:
        return "over budget"


def _matches_state_table(c, js):
    """The message engine against the state-table oracle at j = 0, 1, ...,
    both alone and given the proven floor d^c_{j-1}; past ORACLE_BUDGET
    messages neither runs."""
    floor = 0
    for j in js:
        want = _outcome(dc_messages_state_table, c, j, ORACLE_BUDGET)
        if _message_space(c, j) > ORACLE_BUDGET:
            assert want == "over budget", j
            floor = 0
            continue
        assert _dc_messages(c, j) == want, j
        assert _dc_messages(c, j, floor) == want, j
        floor = want


@pytest.mark.parametrize("name", sorted(
    name for name, fx in all_fixtures().items()
    if window_generator(fx.code) is not None))
def test_message_engine_matches_state_table_on_fixtures(name):
    c = fixture(name).code
    _, M = lm_params(c.n, c.k, c.delta)
    js = [j for j in range(M + 2) if _message_space(c, j) <= ORACLE_BUDGET]
    assert js, name
    _matches_state_table(c, js)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(random_codes())
def test_message_engine_matches_state_table_on_random_codes(c):
    _matches_state_table(c, range(4))


@pytest.mark.parametrize("name", sorted(
    name for name, fx in all_fixtures().items()
    if window_parity(fx.code) is not None))
def test_syndrome_engine_floor_changes_no_value(name):
    c = fixture(name).code
    _, M = lm_params(c.n, c.k, c.delta)
    js = [j for j in range(M + 1) if _syndrome_space(c, j) <= 1 << 14]
    assert js, name
    floor = 0
    for j in js:
        want = _dc_syndrome(c, j)
        assert _dc_syndrome(c, j, floor) == want, j
        floor = want


def test_floor_keeps_every_budget_boundary():
    with pytest.raises(BudgetExceeded):
        column_distance(fixture("smds_7_1_2_q8").code, 4, budget=10,
                        at_least=20)


def test_floor_keeps_every_budget_boundary_of_auto():
    # only the syndrome engine fits 5943 = 3 sum_{s<9} C(11, s) < 16^4, so
    # auto runs it rather than raise, and raises one candidate below
    c = fixture("smds_3_1_2_q16").code
    assert column_distance(c, 3, 5943) == 9
    assert column_distance(c, 3, 5943, at_least=7) == 9
    with pytest.raises(BudgetExceeded):
        column_distance(c, 3, 5942, at_least=7)


def test_is_strongly_mds_budget_boundary():
    # the flag is read from the profile to M, whose largest window needs the
    # most; at M = 6 only the syndrome engine fits, 2 sum_{s<8} C(13, s) < 32^7
    c = fixture("smds_2_1_3_q32").code
    need = 2 * sum(comb(13, s) for s in range(8))
    assert profile(c, budget=need).strongly_mds is True
    with pytest.raises(BudgetExceeded):
        profile(c, budget=need - 1)
    assert is_strongly_mds(fixture("mds_2_1_2_q11").code) is False


# The engine auto runs at the floor profile passes, wherever the other one
# took at least twice as long and 1 ms more (tests/engine_costs.py) or does
# not fit the default budget (smds_3_2_2_q64 at 2, smds_7_1_2_q8 at 3).
PICKS = (
    [(name, j, "messages") for name in ("mds_3_1_2_q16", "smds_3_1_2_q16",
                                        "smds_3_1_2_q16b", "smds_3_1_2_q64")
     for j in (2, 3)]
    + [("smds_2_1_2_q8", 4, "messages"), ("smds_3_1_1_q4", 2, "messages")]
    + [(name, j, "messages") for name, js in (
        ("smds_5_1_1_q16", (1, 2)), ("smds_5_1_2_q16", (1, 2, 3)),
        ("smds_7_1_1_q8", (0, 1, 2)), ("smds_7_1_2_q8", (0, 1, 2, 3)))
       for j in js]
    + [("smds_2_1_3_q32", j, "syndrome") for j in (3, 4)]
    + [(name, j, "syndrome") for name in ("smds_3_2_2_q16", "smds_3_2_2_q16b",
                                          "smds_3_2_2_q64") for j in (0, 1, 2)]
    + [("smds_4_3_1_q16", j, "syndrome") for j in (0, 1)]
)


@pytest.mark.parametrize("name,j,engine", PICKS)
def test_auto_picks_the_faster_engine(monkeypatch, name, j, engine):
    c = fixture(name).code
    floor = profile(c, j - 1).values[-1] if j else 0
    ran = []
    for method in ("messages", "syndrome"):
        monkeypatch.setattr(distances, f"_dc_{method}",
                            lambda *args, method=method: ran.append(method))
    column_distance(c, j, at_least=floor)
    assert ran == [engine]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(random_codes())
def test_auto_matches_both_engines_on_random_codes(c):
    budget = 1 << 12
    floor = 0  # d^c_{j-1}, as profile passes it
    for j in range(4):
        fit = [m for space, _, m in _engines(c, j) if space <= budget]
        if not fit:
            with pytest.raises(BudgetExceeded):
                column_distance(c, j, budget, at_least=floor)
            return
        got = column_distance(c, j, budget, at_least=floor)
        engines = {"messages": _dc_messages, "syndrome": _dc_syndrome}
        assert [engines[m](c, j) for m in fit] == [got] * len(fit)
        floor = got


def test_column_distance_validation():
    c = fixture("smds_2_1_2_q8").code
    with pytest.raises(BadParams):
        column_distance(c, -1)
    with pytest.raises(BudgetExceeded):
        column_distance(fixture("smds_7_1_2_q8").code, 4, budget=10)
    # smds_5_2_2_q16 stores G only; the syndrome engine reads the parity
    # window of its derived complement
    c = fixture("smds_5_2_2_q16").code
    assert _dc_syndrome(c, 1) == 7


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


def test_profile_horizon_is_capped_like_a_word():
    c = fixture("smds_2_1_2_q8").code
    prof = profile(c, MAX_LENGTH - 1)
    assert len(prof.values) == MAX_LENGTH
    assert prof.values[:5] == [2, 3, 4, 5, 6] and prof.values[-1] == 6
    for horizon in (MAX_LENGTH, 10**9):
        with pytest.raises(BadParams, match="above the supported 65536 blocks"):
            profile(c, horizon)


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


@pytest.mark.parametrize("name", sorted(all_fixtures()))
def test_mdp_minor_walk_matches_determinants(name):
    c = fixture(name).code
    for code in (c, dual(c)):  # generator side, then parity side
        assert has_mdp_minors(code) == has_mdp_minors_by_det(code)


def test_mdp_minor_walk_finds_zero_minors():
    for name in ("mds_2_1_2_q11", "mds_3_1_2_q16", "smds_7_1_2_q8"):
        c = fixture(name).code
        for code in (c, dual(c)):
            assert has_mdp_minors_by_det(code) is False, name
            assert has_mdp_minors(code) is False, name


@pytest.mark.parametrize("name", ["smds_5_2_2_q16", "smds_2_1_3_q32"],
                         ids=["gen", "par"])  # the one matrix the code stores
def test_mdp_minor_walk_enters_only_completable_prefixes(monkeypatch, name):
    # on an MDP code the walk finds no dependent column, so it enters each
    # prefix of an admissible pick once, and no other prefix; it walks the
    # parity window of the code when H is stored, else that of its dual
    c = fixture(name).code
    _, picks = admissible_picks(c if c.par is not None else dual(c))
    want = Counter(p for p in range(len(picks[0]))
                   for _ in {pick[:p] for pick in picks})
    entered = Counter()
    real = distances._picks_independent

    def spy(F, cols, p, hi):
        entered[p] += 1
        return real(F, cols, p, hi)

    monkeypatch.setattr(distances, "_picks_independent", spy)
    assert has_mdp_minors(c) is True
    assert entered == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(random_codes(), st.booleans())
def test_mdp_minor_walk_matches_determinants_on_random_codes(c, take_dual):
    c = dual(c) if take_dual else c
    L, _ = lm_params(c.n, c.k, c.delta)
    assume(comb((L + 1) * c.n, (L + 1) * c.k) <= 5000)
    assert has_mdp_minors(c) == has_mdp_minors_by_det(c)


def test_profile_skips_supports_below_the_floor(monkeypatch):
    # d^c_j >= d^c_{j-1}, so no window at j >= 1 needs a support search of
    # fewer than d^c_{j-1} - 1 columns; auto runs the syndrome engine at
    # every j of this code
    c = fixture("smds_2_1_3_q32").code
    real = linalg.SpanPlan.supports
    calls = []

    def spy(self, target, size, skip=None):
        calls.append((len(self.vectors) // c.n - 1, size))  # (j, size)
        return real(self, target, size, skip)

    monkeypatch.setattr(linalg.SpanPlan, "supports", spy)
    values = profile(c).values
    late = [(j, size) for j, size in calls if j >= 1]
    assert {j for j, _ in late} == set(range(1, len(values)))
    assert all(size >= values[j - 1] - 1 for j, size in late)


def test_message_engine_last_level_weighs_no_child(monkeypatch):
    fx = fixture("smds_5_2_2_q16")
    real = distances._MessageSearch.child_weights
    sums = {}  # depth -> child-weight sums made there

    def spy(self, carry):
        weights = real(self, carry)
        depth = len(self.path)
        sums[depth] = sums.get(depth, 0) + len(weights)
        return weights

    monkeypatch.setattr(distances._MessageSearch, "child_weights", spy)
    assert _dc_messages(fx.code, 2) == fx.profile[2]
    assert sums.get(0) and sums.get(1) and not sums.get(2)


@pytest.mark.parametrize("run", [
    lambda c: _dc_syndrome(c, 2),
    lambda c: _dc_messages(c, 2),
    has_mdp_minors,
    lambda c: search_toeplitz(5, standard_field(8)),
], ids=["syndrome", "messages", "minors", "toeplitz"])
def test_searches_leave_no_reference_cycles(run):
    c = fixture("smds_3_1_2_q16").code
    run(c)  # fill any caches first
    gc.collect()
    gc.disable()
    try:
        run(c)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_griesmer_goldens():
    assert griesmer_feasible(7, 2, 2, memory=1, d=12, q=8)
    assert not griesmer_feasible(7, 2, 2, memory=1, d=13, q=8)
    assert griesmer_feasible(7, 2, 2, memory=1, d=13, q=13, i_max=1)
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        assert not griesmer_feasible(7, 2, 2, memory=1, d=13, q=q, i_max=1)
    # the round whose dimension bound is 0 still counts: one block of
    # length 2 cannot reach distance 3
    assert not griesmer_feasible(2, 1, 0, memory=1, d=3, q=2, i_max=0)
    edge = dict(n=2, k=1, delta=0, memory=1, d=2, q=2, i_max=0)
    assert griesmer_feasible(**edge)
    for bad in ({"memory": 0}, {"k": 2}):
        with pytest.raises(BadParams):
            griesmer_feasible(**{**edge, **bad})


def test_griesmer_monotone_in_d():
    hit_infeasible = False
    for d in range(1, 30):
        ok = griesmer_feasible(7, 2, 2, memory=1, d=d, q=8)
        if not ok:
            hit_infeasible = True
        assert not (hit_infeasible and ok), "feasibility came back after failing"
