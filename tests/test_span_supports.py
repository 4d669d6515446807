"""The span-support enumerator against the subset loops it replaced.

The oracles below are the plain searches that the distance engine, the
construction certificate, the superregular battery and the decoder ran
before ``linalg.SpanPlan`` existed: every index set of a given size, one
full ``in_span`` or elimination (``solve_all``) per set.  A plan must yield
exactly what they find, whether it is fresh or has kept the nodes of
earlier walks, and with one index left out when ``least_span_size`` asks
about that vector.
"""

import itertools
import random

import pytest

from convmds.code import sliding_parity, window_parity
from convmds.distances import lm_params
from convmds.errors import BudgetExceeded
from convmds.fixtures import all_fixtures
from convmds.galois import standard_field
from convmds.linalg import SpanPlan, in_span, least_span_size, transpose
from convmds.selftest import decodable_fixtures
from algebra_helpers import solve_all, vec_mat
from decoder_oracle import _eta_solutions

FIELDS = (2, 3, 4, 8)
ORACLE_CALLS = 1 << 13  # largest subset loop run on a fixture window


def random_columns(rng, F, rows, count):
    """Random columns, about a third of them forced dependent on earlier ones."""
    cols = [[rng.randrange(F.q) for _ in range(rows)] for _ in range(count)]
    for i in range(1, count):
        if rng.random() < 0.35:
            a, b = rng.randrange(i), rng.randrange(i)
            ca, cb = rng.randrange(F.q), rng.randrange(F.q)
            cols[i] = [F.add(F.mul(ca, x), F.mul(cb, y))
                       for x, y in zip(cols[a], cols[b])]
    return cols


def random_target(rng, F, cols):
    """A random vector, or a random combination of up to three columns."""
    rows = len(cols[0])
    if rng.random() < 0.4:
        return [rng.randrange(F.q) for _ in range(rows)]
    v = [0] * rows
    for i in rng.sample(range(len(cols)), min(len(cols), rng.randint(1, 3))):
        c = rng.randrange(F.q)
        v = [F.add(x, F.mul(c, y)) for x, y in zip(v, cols[i])]
    return v


def random_cases(seed, count):
    rng = random.Random(seed)
    for case in range(count):
        F = standard_field(FIELDS[case % len(FIELDS)])
        cols = random_columns(rng, F, rng.randint(2, 4), rng.randint(3, 7))
        yield rng, F, cols, random_target(rng, F, cols)


def supports_oracle(F, vectors, target, size):
    """Independent index sets of the size with a full-support solution."""
    out = []
    for pick in itertools.combinations(range(len(vectors)), size):
        A = [[vectors[i][r] for i in pick] for r in range(len(target))]
        got = solve_all(F, A, list(target))
        if got is not None and not got[1] and all(got[0]):
            out.append((pick, got[0]))
    return out


def least_support_oracle(F, vectors, target):
    """Least s such that some s of the vectors span the target."""
    for s in range(len(vectors) + 1):
        for pick in itertools.combinations(range(len(vectors)), s):
            if in_span(F, [vectors[i] for i in pick], target):
                return s
    return None


def supports(F, vectors, target, size):
    return list(SpanPlan(F, vectors).supports(target, size))


def least_support(F, vectors, target):
    plan = SpanPlan(F, vectors)
    return next((s for s in range(len(vectors) + 1)
                 if any(plan.supports(target, s))), None)


def eta_solutions_oracle(F, window, S, t, budget, null_limit=4096):
    """The decoder's support search with its null-space enumeration."""
    rows = len(window)
    cols = len(window[0]) if rows else 0
    if not any(S):
        return 0, [tuple([0] * cols)]
    columns = [[window[r][ci] for r in range(rows)] for ci in range(cols)]
    spent = 0
    for size in range(1, t + 1):
        found = []
        for subset in itertools.combinations(range(cols), size):
            spent += 1
            if spent > budget:
                raise BudgetExceeded("oracle over budget")
            A = [[columns[ci][r] for ci in subset] for r in range(rows)]
            res = solve_all(F, A, list(S))
            if res is None:
                continue
            part, nullbasis = res
            if nullbasis:
                if F.q ** len(nullbasis) > null_limit:
                    raise BudgetExceeded("degenerate support")
                cands = []
                for combo in itertools.product(range(F.q),
                                               repeat=len(nullbasis)):
                    v = list(part)
                    for coef, basis in zip(combo, nullbasis):
                        if coef:
                            v = [F.add(x, F.mul(coef, y))
                                 for x, y in zip(v, basis)]
                    cands.append(v)
            else:
                cands = [part]
            for v in cands:
                if all(v):
                    eta = [0] * cols
                    for ci, val in zip(subset, v):
                        eta[ci] = val
                    found.append(tuple(eta))
        if found:
            return size, sorted(set(found))
    return t, []


def test_span_supports_matches_subset_oracle():
    cases = 0
    for _, F, cols, target in random_cases(seed=11, count=400):
        for size in range(len(cols) + 1):
            assert supports(F, cols, target, size) == \
                supports_oracle(F, cols, target, size), (F.q, cols, target)
        cases += 1
    assert cases == 400


def test_span_supports_edge_cases():
    F = standard_field(3)
    cols = [[1, 0], [0, 1], [1, 1]]
    assert supports(F, cols, [0, 0], 0) == [((), [])]
    assert supports(F, cols, [0, 0], 1) == []
    assert supports(F, cols, [1, 0], 0) == []
    assert supports(F, cols, [1, 0], 1) == [((0,), [1])]
    # (1,1) is column 2 itself, so on {0, 2} and {1, 2} a coefficient vanishes
    assert supports(F, cols, [1, 1], 2) == [((0, 1), [1, 1])]
    assert supports(F, cols, [1, 2], 2) == [
        ((0, 1), [1, 2]), ((0, 2), [2, 2]), ((1, 2), [1, 1])]
    assert supports(F, cols, [1, 0], 3) == []
    assert supports(F, [], [1, 0], 1) == []
    plan = SpanPlan(F, cols)
    assert list(plan.supports([1, 1], 1, skip=2)) == []
    assert list(plan.supports([1, 1], 2, skip=2)) == [((0, 1), [1, 1])]
    assert list(plan.supports([1, 2], 2, skip=0)) == [((1, 2), [1, 1])]
    assert list(plan.supports([0, 0], 0, skip=0)) == [((), [])]


def test_least_support_matches_in_span_loop():
    for _, F, cols, target in random_cases(seed=12, count=400):
        assert least_support(F, cols, target) == \
            least_support_oracle(F, cols, target), (F.q, cols, target)


def test_least_support_on_fixture_parity_windows():
    """Per-target least supports on every fixture's parity window, j <= 2.

    Windows whose old subset loop would need more than ORACLE_CALLS
    ``in_span`` calls (the five- and seven-column fixtures at large j) are
    left to the message-side cross-check of test_c7.
    """
    compared = 0
    for name, fx in sorted(all_fixtures().items()):
        c = fx.code
        if window_parity(c) is None:
            continue
        for j in range(3):
            cols = transpose(sliding_parity(c, j).data)
            if c.n * 2 ** (len(cols) - 1) > ORACLE_CALLS:
                continue
            for t in range(c.n):
                others = cols[:t] + cols[t + 1:]
                assert least_support(c.field, others, cols[t]) == \
                    least_support_oracle(c.field, others, cols[t]), (name, j, t)
            compared += 1
    assert compared >= 35


@pytest.mark.parametrize("seed", [21, 22])
def test_eta_solutions_match_null_space_oracle(seed):
    rng = random.Random(seed)
    hits = 0
    for case in range(200):
        F = standard_field(FIELDS[case % len(FIELDS)])
        rows, count = rng.randint(2, 4), rng.randint(3, 7)
        window = transpose(random_columns(rng, F, rows, count))
        S = random_target(rng, F, transpose(window))
        t = rng.randint(1, min(count, 4))
        want = eta_solutions_oracle(F, window, S, t, budget=1 << 20)
        plan = SpanPlan(F, transpose(window))
        assert _eta_solutions(plan, S, t, budget=1 << 20) == want, \
            (F.q, window, S, t)
        hits += bool(want[1])
    assert hits > 100


def test_shared_span_plan_matches_oracle():
    """One plan per window answers many targets, sizes in mixed order.

    Targets repeat and sizes come shuffled, so later walks run through the
    nodes an earlier walk built and kept.
    """
    rng = random.Random(31)
    compared = 0
    for case in range(150):
        F = standard_field(FIELDS[case % len(FIELDS)])
        cols = random_columns(rng, F, rng.randint(2, 5), rng.randint(3, 8))
        plan = SpanPlan(F, cols)
        targets = [random_target(rng, F, cols) for _ in range(4)]
        for target in targets + rng.sample(targets, 2):
            sizes = list(range(len(cols) + 1))
            rng.shuffle(sizes)
            for size in sizes:
                assert list(plan.supports(target, size)) == \
                    supports_oracle(F, cols, target, size), \
                    (F.q, cols, target, size)
                compared += 1
    assert compared > 3000


@pytest.mark.parametrize("fx", decodable_fixtures(), ids=lambda fx: fx.name)
def test_span_plan_on_decodable_parity_windows(fx):
    """Syndromes of random error windows of weight <= t, sizes 0..t."""
    c = fx.code
    F = c.field
    _, M = lm_params(c.n, c.k, c.delta)
    t = (M + 1) // 2
    cols = transpose(sliding_parity(c, M).data)
    plan = SpanPlan(F, cols)
    rng = random.Random(41)
    hits = 0
    for _ in range(40):
        eta = [0] * len(cols)
        for i in rng.sample(range(len(cols)), rng.randint(1, t)):
            eta[i] = 1 + rng.randrange(F.q - 1)
        S = vec_mat(F, eta, cols)
        for size in rng.sample(range(t + 1), t + 1):
            got = list(plan.supports(S, size))
            assert got == supports_oracle(F, cols, S, size), (S, size)
            hits += bool(got)
    assert hits >= 40


def test_least_span_size_on_one_plan_matches_oracles():
    """Random windows, several targets, random floors and limits.

    ``supports(target, size, skip=t)`` on the shared plan must yield the
    subset oracle's supports over the columns other than t, with indices
    mapped back; ``least_span_size`` must give the least size in [floor,
    limit] at which some target has one, which below every target's least
    support is the least support itself.
    """
    rng = random.Random(51)
    for case in range(80):
        F = standard_field(FIELDS[case % len(FIELDS)])
        cols = random_columns(rng, F, rng.randint(2, 5), rng.randint(3, 9))
        targets = sorted(rng.sample(range(len(cols)), rng.randint(1, 3)))
        plan = SpanPlan(F, cols)
        found = set()  # sizes at which some target has a support
        for t in rng.sample(targets, len(targets)):
            others = cols[:t] + cols[t + 1:]
            for size in rng.sample(range(len(cols)), len(cols)):
                want = [(tuple(i + (i >= t) for i in pick), coeffs)
                        for pick, coeffs in
                        supports_oracle(F, others, cols[t], size)]
                assert list(plan.supports(cols[t], size, skip=t)) == want, \
                    (F.q, cols, t, size)
                if want:
                    found.add(size)
        leasts = [least_support_oracle(F, cols[:t] + cols[t + 1:], cols[t])
                  for t in targets]
        least = min((s for s in leasts if s is not None), default=None)
        assert least == min(found, default=None)
        floor = rng.randint(0, 2)
        limit = rng.randint(floor, len(cols) - 1)
        want = min((s for s in found if floor <= s <= limit), default=None)
        assert least_span_size(F, cols, targets, floor, limit) == want
        if least is not None and floor <= least <= limit:
            assert want == least
