"""Distance machinery: column distances, classification flags, bounds.

Column distance d^c_j is the minimum weight of a codeword window v_[0,j]
over messages with u_0 != 0.  Two exact strategies are implemented and
cross-checked in the test suite:

* message enumeration: depth first search over (u_0, ..., u_j), u_0
  normalized so its first nonzero coordinate is 1.  Block i of the codeword
  is the sum of u_{i-t} G_t over t <= min(nu, i), so a node adds the blocks
  its path carries into block i (t >= 1) once, and weighs each child u as
  that carry plus u G_0, read from per-message tables of u G_t.  A child is
  entered only while the weight so far stays below the best window found;
* parity search: d^c_j = 1 + min s such that some column of the parity
  window among the first n lies in the span of s of the other columns.

Both are capped by the per-window bound (n-k)(j+1)+1 and by the generalized
Singleton bound, which every column distance obeys.  A search whose candidate
count exceeds the budget (default 2^28) raises BudgetExceeded instead of
silently grinding.

``profile`` is the one loop over j.  Once d^c_j meets the Singleton bound
every later value equals it, so the rest is filled in without a search (proof
in ``profile``).  The free distance is read from the profile: exact at the
first j that meets the bound, otherwise d^c_horizon as a lower bound.

Classification: a code is strongly MDS when d^c_M meets the Singleton bound
at M = floor(delta/k) + ceil(delta/(n-k)), and has a maximum distance profile
(MDP) when d^c_L = (n-k)(L+1)+1 at L = floor(delta/k) + floor(delta/(n-k)).
The MDP property also has a determinantal test on a single sliding matrix
(generator or parity side), used as an independent route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from math import comb

from . import linalg
from .code import (
    CodeSpec,
    pm_coefficient,
    pm_memory,
    sliding_generator,
    sliding_parity,
    window_generator,
    window_parity,
)
from .errors import BadParams, BudgetExceeded, MissingMatrix

DEFAULT_BUDGET = 1 << 28


def singleton_bound(n: int, k: int, delta: int) -> int:
    """Generalized Singleton bound (n-k)(floor(delta/k)+1) + delta + 1."""
    if not (0 < k < n) or delta < 0:
        raise BadParams(f"bad parameters n={n} k={k} delta={delta}")
    return (n - k) * (delta // k + 1) + delta + 1


def lm_params(n: int, k: int, delta: int):
    """The horizons (L, M): profile optimality range and strong-MDS test index."""
    if not (0 < k < n) or delta < 0:
        raise BadParams(f"bad parameters n={n} k={k} delta={delta}")
    L = delta // k + delta // (n - k)
    M = delta // k + -(-delta // (n - k))
    return L, M


def _window_cap(n: int, k: int, delta: int, j: int) -> int:
    """The most d^c_j can be: (n-k)(j+1)+1, capped by the Singleton bound.

    For j <= L the cap never binds: (n-k)(L+1)+1 is at most
    (n-k)(floor(delta/k)+1) + delta + 1, as (n-k) floor(delta/(n-k)) <= delta.
    """
    return min((n - k) * (j + 1) + 1, singleton_bound(n, k, delta))


def _message_space(c: CodeSpec, j: int) -> int:
    return c.field.q ** ((j + 1) * c.k)


def _syndrome_space(c: CodeSpec, j: int) -> int:
    N = (j + 1) * c.n
    cap = _window_cap(c.n, c.k, c.delta, j)
    return c.n * sum(comb(N - 1, s) for s in range(cap))


def column_distance(c: CodeSpec, j: int, budget: int = DEFAULT_BUDGET,
                    method: str = "auto") -> int:
    """Exact j-th column distance of the code."""
    if j < 0:
        raise BadParams("window index must be nonnegative")
    gen_ok = window_generator(c) is not None
    par_ok = window_parity(c) is not None
    if not gen_ok and not par_ok:
        raise MissingMatrix("code carries no usable matrix")
    if method == "messages":
        return _dc_messages(c, j, budget)
    if method == "syndrome":
        return _dc_syndrome(c, j, budget)
    if method != "auto":
        raise BadParams(f"unknown method {method!r}")
    costs = []
    if gen_ok:
        costs.append((_message_space(c, j), _dc_messages))
    if par_ok:
        costs.append((_syndrome_space(c, j), _dc_syndrome))
    costs.sort(key=lambda t: t[0])
    cost, run = costs[0]
    if cost > budget:
        raise BudgetExceeded(
            f"column distance at j={j} needs {cost} candidates, budget {budget}"
        )
    return run(c, j, budget)


def _dc_messages(c: CodeSpec, j: int, budget: int) -> int:
    G = window_generator(c)
    if G is None:
        raise MissingMatrix("no generator available")
    F, k, n = c.field, c.k, c.n
    q = F.q
    if _message_space(c, j) > budget:
        raise BudgetExceeded(f"message space {_message_space(c, j)} over budget")
    nu = pm_memory(G)
    qk = q**k
    msgs = [[u // q**i % q for i in range(k)] for u in range(qk)]  # base-q digits
    # tabs[t][u] = u G_t, the share of message u in the block t steps later
    tabs = [[linalg.vec_mat(F, m, pm_coefficient(G, t)) for m in msgs]
            for t in range(nu + 1)]
    canon = [u for u in range(1, qk) if next(x for x in msgs[u] if x) == 1]
    cap = _window_cap(n, k, c.delta, j)
    best = cap + 1
    path = []

    def rec(depth, wsum):
        nonlocal best
        if depth > j:
            best = wsum
            return
        # block depth is u G_0 plus the carry sum_{t>=1} u_{depth-t} G_t
        carry = [0] * n
        for t in range(1, min(nu, depth) + 1):
            carry = [F.add(a, b) for a, b in zip(carry, tabs[t][path[-t]])]
        for u in canon if depth == 0 else range(qk):
            w = sum(1 for a, b in zip(carry, tabs[0][u]) if F.add(a, b))
            if wsum + w < best:
                path.append(u)
                rec(depth + 1, wsum + w)
                path.pop()

    rec(0, 0)
    assert best <= cap, "no window met the distance bound"
    return best


def _dc_syndrome(c: CodeSpec, j: int, budget: int) -> int:
    Hj = sliding_parity(c, j)
    F, n = c.field, c.n
    cols = linalg.transpose(Hj.data)
    N = len(cols)
    cap = _window_cap(c.n, c.k, c.delta, j)
    spent = 0
    for s in range(cap):
        spent += n * comb(N - 1, s)
        if spent > budget:
            raise BudgetExceeded(f"syndrome search at j={j} over budget {budget}")
        for t in range(n):
            # s grows from 0, so the first s with any support is the least
            if any(linalg.span_supports(F, cols[:t] + cols[t + 1:], cols[t], s)):
                return s + 1
    raise AssertionError("column distance exceeded its provable cap")


@dataclass
class FreeDistanceResult:
    value: int
    status: str  # exact | lower_bound
    reached_at: int | None


@dataclass
class DistanceProfile:
    n: int
    k: int
    delta: int
    L: int
    M: int
    singleton: int
    values: list = dataclass_field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def bound_at(self, j: int) -> int:
        return _window_cap(self.n, self.k, self.delta, j)

    @property
    def strongly_mds(self):
        if self.horizon < self.M:
            return None
        return self.values[self.M] == self.singleton

    @property
    def mdp(self):
        if self.horizon < self.L:
            return None
        return self.values[self.L] == self.bound_at(self.L)

    @property
    def free_distance(self) -> FreeDistanceResult:
        """Exact at the first j with d^c_j at the Singleton bound, since
        d^c_j <= d_free <= bound; otherwise d^c_horizon is a lower bound."""
        for j, d in enumerate(self.values):
            if d == self.singleton:
                return FreeDistanceResult(d, "exact", j)
        return FreeDistanceResult(self.values[-1], "lower_bound", None)


def profile(c: CodeSpec, horizon: int | None = None,
            budget: int = DEFAULT_BUDGET) -> DistanceProfile:
    """Column distances d^c_0..d^c_horizon (horizon defaults to M).

    Saturation: d^c_j <= d^c_{j+1} (truncating a window to [0, j] keeps
    u_0 != 0 and cannot add weight) and d^c_j <= d_free <= the Singleton
    bound, so once d^c_j meets the bound all later values equal it.  It never
    fires before M: for j < M, (n-k)(j+1)+1 is below the Singleton bound.
    """
    L, M = lm_params(c.n, c.k, c.delta)
    if horizon is None:
        horizon = M
    if horizon < 0:
        raise BadParams("horizon must be nonnegative")
    sing = singleton_bound(c.n, c.k, c.delta)
    values = []
    for j in range(horizon + 1):
        values.append(column_distance(c, j, budget))
        if values[-1] == sing:
            values += [sing] * (horizon - j)
            break
    return DistanceProfile(c.n, c.k, c.delta, L, M, sing, values)


def free_distance(c: CodeSpec, horizon: int,
                  budget: int = DEFAULT_BUDGET) -> FreeDistanceResult:
    """Free distance as read from ``profile(c, horizon, budget)``."""
    return profile(c, horizon, budget).free_distance


def is_strongly_mds(c: CodeSpec, budget: int = DEFAULT_BUDGET) -> bool:
    _, M = lm_params(c.n, c.k, c.delta)
    return column_distance(c, M, budget) == singleton_bound(c.n, c.k, c.delta)


def has_mdp_bruteforce(c: CodeSpec, budget: int = DEFAULT_BUDGET) -> bool:
    L, _ = lm_params(c.n, c.k, c.delta)
    return column_distance(c, L, budget) == _window_cap(c.n, c.k, c.delta, L)


def has_mdp_minors(c: CodeSpec) -> bool:
    """MDP test by full-size minors of one sliding matrix.

    Generator side: the code has a maximum distance profile iff every minor
    of the generator window at L built from columns j_1 < ... < j_{(L+1)k}
    with j_{sk+1} > sn for s = 1..L is nonzero.  Parity side: iff every minor
    of the parity window from columns i_1 < ... < i_{(L+1)(n-k)} with
    i_{s(n-k)} <= sn is nonzero.  Uses whichever matrix the code stores
    (generator preferred).
    """
    L, _ = lm_params(c.n, c.k, c.delta)
    F = c.field
    if c.gen is not None:
        W = sliding_generator(c, L)
        size = (L + 1) * c.k
        step, upper = c.k, True
    elif c.par is not None:
        W = sliding_parity(c, L)
        size = (L + 1) * (c.n - c.k)
        step, upper = c.n - c.k, False
    else:
        raise MissingMatrix("code carries no matrix")
    N = (L + 1) * c.n
    for pick in itertools.combinations(range(1, N + 1), size):
        ok = True
        for s in range(1, L + 1):
            if upper:
                if pick[s * step] <= s * c.n:  # 1-based j_{sk+1}
                    ok = False
                    break
            else:
                if pick[s * step - 1] > s * c.n:  # 1-based i_{s(n-k)}
                    ok = False
                    break
        if not ok:
            continue
        sub = [[W.data[r][col - 1] for col in pick] for r in range(size)]
        if linalg.mat_det(F, sub) == 0:
            return False
    return True


def griesmer_feasible(n: int, k: int, delta: int, memory: int, d: int, q: int,
                      i_max: int = 3) -> bool:
    """Necessary existence condition for (n, k, delta) codes of free distance d.

    For each i = 0..i_max the truncated block code of length n(memory+i) and
    dimension k(memory+i) - delta must obey the classical Griesmer bound;
    rounds where the dimension bound is not yet positive hold trivially.
    """
    if min(n, k, memory, d, q) <= 0 or delta < 0 or i_max < 0 or not k < n:
        raise BadParams("bad Griesmer parameters")
    for i in range(i_max + 1):
        mi = memory + i
        upper = k * mi - delta - 1
        if upper < 0:
            continue
        lhs = sum(-(-d // q**l) for l in range(upper + 1))
        if lhs > n * mi:
            return False
    return True
