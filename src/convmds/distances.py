"""Distance machinery: column distances, classification flags, bounds.

Column distance d^c_j is the minimum weight of a codeword window v_[0,j]
over messages with u_0 != 0.  Two exact strategies are implemented and
cross-checked in the test suite:

* message enumeration: depth first search over (u_0, ..., u_j), u_0
  normalized so its first nonzero coordinate is 1.  Block i of the codeword
  is the sum of u_{i-t} G_t over t <= min(nu, i), so a node adds the blocks
  its path carries into block i (t >= 1) once, and weighs each child u as
  that carry x plus u G_0, read from per-message tables of u G_t.  A child is
  entered only while the weight so far stays below the best window found.
  The last block needs no child loop.  Coordinate i of x + u G_0 vanishes
  exactly when (u G_0)_i = -x_i, and the messages with that value (a coset
  of the kernel of u -> (u G_0)_i, or none) are kept as one bit mask.  So
  the lightest last block has weight n - z for the most coordinates z whose
  masks intersect, found by trying z downwards while n - z still beats the
  best window;
* parity search: d^c_j = 1 + min s such that some column of the parity
  window among the first n lies in the span of s of the other columns.

Both are capped by the per-window bound (n-k)(j+1)+1 and by the generalized
Singleton bound, which every column distance obeys.  ``column_distance``
runs, of the engines whose candidate space fits the budget (default 2^28),
the one of least estimated work in field additions, and raises
BudgetExceeded when none fits instead of silently grinding.  Messages: n k q^k
per table u G_t (t <= min(nu, j)) plus n q^k per internal node, counting at
depth d the ((q^k-1)/(q-1)) q^{k(d-1)} prefixes of a random code times the
share V_q(dn, cap-1) / q^{dn} that weighs less than the cap, where
V_q(L, r) = sum_{w<=r} C(L, w)(q-1)^w.  Parity search: SYNDROME_SCALE
(n-k)(j+1) per support for each of n targets, over the sizes floor-1..cap-2
that it searches in full when d^c_j is the cap; size cap-1 stops at its
first support (for j <= L, cap-1 is the window's rank).

``profile`` is the one loop over j.  Column distances never decrease
(truncating a window to [0, j-1] keeps u_0 != 0 and cannot add weight), so
it hands d^c_{j-1} to the search at j as a proven floor: the parity search
skips the span sizes below it, though its candidate space still counts them,
and the message search stops once a window meets it.  Once d^c_j meets the
Singleton bound every later value equals it, so the rest is filled in
without a search (proof in ``profile``).  The free distance is read from the
profile: exact at the first j that meets the bound, otherwise d^c_horizon as
a lower bound.

Classification: a code is strongly MDS when d^c_M meets the Singleton bound
at M = floor(delta/k) + ceil(delta/(n-k)), and has a maximum distance profile
(MDP) when d^c_L = (n-k)(L+1)+1 at L = floor(delta/k) + floor(delta/(n-k)).
The MDP property also has a determinantal test on one sliding matrix, the
parity window of the code or of its dual, used as an independent route.  It
walks the admissible column picks depth first and stops at the first column
that depends on the chosen prefix, as a dependent prefix zeroes every
full-size minor that completes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from math import comb

from . import linalg
from .code import (
    CodeSpec,
    _check_length,
    _sliding,
    pm_coefficient,
    pm_memory,
    sliding_parity,
    window_generator,
)
from .errors import BadParams, BudgetExceeded

DEFAULT_BUDGET = 1 << 28
SYNDROME_SCALE = 2  # one syndrome-engine step in message-engine additions


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


def _engines(c: CodeSpec, j: int, floor: int = 0) -> list:
    """(candidate space, estimated work, name) per engine at j."""
    q, n, k, qk = c.field.q, c.n, c.k, c.field.q**c.k
    cap = _window_cap(n, k, c.delta, j)
    nodes = 1 if j else 0  # the root; at j = 0 it is the leaf
    for d in range(1, j):
        ball = sum(comb(d * n, w) * (q - 1) ** w for w in range(cap))
        nodes += max(1, (qk - 1) // (q - 1) * qk**(d - 1) * ball
                     // q**(d * n))
    nu = min(pm_memory(window_generator(c)), j)
    messages = n * qk * (k * (nu + 1) + nodes)
    sizes = range(max(floor - 1, 0), cap - 1)
    syndrome = (n - k) * (j + 1) * n * sum(comb((j + 1) * n - 1, s)
                                           for s in sizes)
    return [(_message_space(c, j), messages, "messages"),
            (_syndrome_space(c, j), SYNDROME_SCALE * syndrome, "syndrome")]


def column_distance(c: CodeSpec, j: int, budget: int = DEFAULT_BUDGET,
                    at_least: int = 0) -> int:
    """Exact j-th column distance of the code.

    ``at_least`` is a proven lower bound on d^c_j, such as d^c_{j-1}; the
    engines skip the work it rules out.  A bound above d^c_j is not caught.
    Runs the engine of least estimated work (module docstring) among those
    whose candidate space fits the budget, else raises BudgetExceeded.

    The engines charge no budget of their own: the space bounds all either
    can do.  The message engine visits at most the q^{k(j+1)} messages; the
    parity search asks each of the n targets about the C(N-1, s) supports
    among the other columns of each size s below the cap, N = (j+1)n, and a
    floor only skips sizes: n sum_{s<cap} C(N-1, s) at most, its space.
    """
    if j < 0:
        raise BadParams("window index must be nonnegative")
    engines = _engines(c, j, at_least)
    fits = [(work, name) for space, work, name in engines if space <= budget]
    if not fits:
        raise BudgetExceeded(f"column distance at j={j} needs "
                             f"{min(engines)[0]} candidates, budget {budget}")
    run = _dc_messages if min(fits)[1] == "messages" else _dc_syndrome
    return run(c, j, at_least)


def _dc_messages(c: CodeSpec, j: int, at_least: int = 0) -> int:
    cap = _window_cap(c.n, c.k, c.delta, j)
    search = _MessageSearch(c.field, window_generator(c), j, cap + 1, at_least)
    search.descend(0, 0)
    assert search.best <= cap, "no window met the distance bound"
    return search.best


class _MessageSearch:
    """The message engine's depth-first search for one window [0, j].

    ``path`` holds the messages chosen so far and ``best`` the lightest
    window found.  An object, not a nested function, so that the search
    leaves no reference cycle behind.
    """

    def __init__(self, F, G, j, best, floor):
        q, k = F.q, G.rows
        self.F, self.n, self.j, self.qk = F, G.cols, j, q**k
        self.best, self.floor, self.path = best, floor, []
        self.nu = min(pm_memory(G), j)
        msgs = [[u // q**i % q for i in range(k)]  # base-q digits
                for u in range(self.qk)]
        self.canon = [u for u in range(1, self.qk)
                      if next(x for x in msgs[u] if x) == 1]
        # tabs[t][u] = u G_t, the share of message u in the block t steps later
        self.tabs = [_message_rows(F, pm_coefficient(G, t))
                     for t in range(self.nu + 1)]
        # hit[i][a] has bit u set when (u G_0)_i = a
        self.hit = [[0] * q for _ in range(self.n)]
        for u, row in enumerate(self.tabs[0]):
            for i, a in enumerate(row):
                self.hit[i][a] |= 1 << u

    def child_weights(self, carry):
        """wt(carry + u G_0) for every message u."""
        add = self.F.add
        return [sum(1 for a, b in zip(carry, row) if add(a, b))
                for row in self.tabs[0]]

    def descend(self, depth, wsum):
        """Search below the path's node, whose blocks so far weigh wsum."""
        F, path = self.F, self.path
        # block depth is u G_0 plus the carry sum_{t>=1} u_{depth-t} G_t
        carry = [0] * self.n
        for t in range(1, min(self.nu, depth) + 1):
            carry = [F.add(a, b) for a, b in zip(carry, self.tabs[t][path[-t]])]
        if depth == self.j:
            allowed = sum(1 << u for u in self.canon) if depth == 0 else -1
            self.best = wsum + self.lightest(carry, allowed,
                                             self.best - wsum)
            return
        weights = self.child_weights(carry)
        for u in self.canon if depth == 0 else range(self.qk):
            w = weights[u]
            if wsum + w < self.best:
                path.append(u)
                self.descend(depth + 1, wsum + w)
                path.pop()
                if self.best == self.floor:
                    return  # d^c_j >= floor, so nothing lighter exists

    def lightest(self, carry, allowed, room):
        """min wt(carry + u G_0) over the messages u in ``allowed`` (a bit
        mask, -1 for all) if below ``room``, else room: n - z for the most
        coordinates z whose masks hit[i][-carry_i] meet inside ``allowed``.
        """
        n, neg = self.n, self.F.neg
        masks = [m for m in (h[neg(x)] & allowed
                             for h, x in zip(self.hit, carry)) if m]
        for z in range(len(masks), max(n - room, -1), -1):
            for pick in itertools.combinations(masks, z):
                meet = allowed
                for m in pick:
                    meet &= m
                    if not meet:
                        break
                if meet:
                    return n - z
        return room


def _message_rows(F, Gt):
    """u Gt for every message u in base-q index order.  The rows are linear
    in u, so the messages below q^(i+1) come from those below q^i by adding
    a Gt[i] once per nonzero digit a."""
    rows = [[0] * len(Gt[0])]
    for g in Gt:
        below = rows[:]
        for a in range(1, F.q):
            ag = [F.mul(a, x) for x in g]
            rows += [[F.add(x, y) for x, y in zip(r, ag)] for r in below]
    return rows


def _dc_syndrome(c: CodeSpec, j: int, at_least: int = 0) -> int:
    cols = linalg.transpose(sliding_parity(c, j).data)
    s = linalg.least_span_size(c.field, cols, range(c.n), at_least - 1,
                               _window_cap(c.n, c.k, c.delta, j) - 1)
    assert s is not None, "column distance exceeded its provable cap"
    return s + 1


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
    A profile spans at most ``code.MAX_LENGTH`` windows, like a word.
    """
    L, M = lm_params(c.n, c.k, c.delta)
    if horizon is None:
        horizon = M
    if horizon < 0:
        raise BadParams("horizon must be nonnegative")
    _check_length(horizon + 1)
    sing = singleton_bound(c.n, c.k, c.delta)
    values = []
    for j in range(horizon + 1):
        floor = values[-1] if values else 0  # d^c_{j-1} <= d^c_j
        values.append(column_distance(c, j, budget, at_least=floor))
        if values[-1] == sing:
            values += [sing] * (horizon - j)
            break
    return DistanceProfile(c.n, c.k, c.delta, L, M, sing, values)


def free_distance(c: CodeSpec, horizon: int) -> FreeDistanceResult:
    """Free distance as read from ``profile(c, horizon)``."""
    return profile(c, horizon).free_distance


def is_strongly_mds(c: CodeSpec) -> bool:
    return profile(c).strongly_mds is True


def has_mdp_bruteforce(c: CodeSpec) -> bool:
    L, _ = lm_params(c.n, c.k, c.delta)
    return column_distance(c, L) == _window_cap(c.n, c.k, c.delta, L)


def has_mdp_minors(c: CodeSpec) -> bool:
    """MDP test by full-size minors of one sliding matrix.

    A code has a maximum distance profile iff every minor of its parity
    window at L from columns i_1 < ... < i_{(L+1)(n-k)} with i_{s(n-k)} <= sn
    (s = 1..L) is nonzero, and iff every minor of its generator window from
    columns j_1 < ... < j_{(L+1)k} with j_{sk+1} > sn is nonzero.  Reversing
    the L+1 block rows and block columns of an r-row P's upper window (block
    (t, s) = P_{s-t}) gives its lower window (block (t, s) = P_{t-s}).  It
    maps the picks with j_{sr+1} > sn (at most sr columns in the first s
    blocks) onto those with i_{ur} <= un (at least ur in the first u), where
    u = L+1-s, and permuting rows and columns keeps a minor zero or nonzero.
    So the walk reads the lower window of the stored matrix with fewer rows
    (H on a tie) with the parity-side bounds; for G that is the generator
    criterion, and G's lower window is the dual's parity window.

    A minor is nonzero iff its columns are independent, so the admissible
    picks are walked depth first, the chosen prefix kept as an echelon basis.
    The per-index bounds are tightened so that a prefix is entered only when
    some admissible pick completes it.  A column that depends on the prefix
    then zeroes every completion's minor, and one such minor decides False;
    a walk that meets none has seen every admissible pick independent.
    """
    L, _ = lm_params(c.n, c.k, c.delta)
    P = min((M for M in (c.par, c.gen) if M is not None),
            key=lambda M: M.rows)
    W = _sliding(P, L, False)
    r = P.rows
    hi = [(L + 1) * c.n - 1] * ((L + 1) * r)  # 0-based columns of each pick
    for s in range(1, L + 1):
        hi[s * r - 1] = s * c.n - 1  # i_{sr} <= sn
    # picks increase; with r < n these bounds leave p <= hi[p] everywhere
    for p in range(len(hi) - 2, -1, -1):
        hi[p] = min(hi[p], hi[p + 1] - 1)
    cols = list(enumerate(linalg.transpose(W.data)))  # W has len(hi) rows
    return _picks_independent(c.field, cols, 0, hi)


def _picks_independent(F, cols, p, hi) -> bool:
    """Are all admissible completions of a prefix of p picks independent?

    cols lists (index, column reduced against the prefix's echelon basis) for
    the columns after the prefix's last pick.
    """
    last = p + 1 == len(hi)
    for at, (col, v) in enumerate(cols):
        if col > hi[p]:
            break
        piv = next((r for r, x in enumerate(v) if x), None)
        if piv is None:
            return False  # the prefix and col are dependent
        if last:
            continue
        inv = F.inv(v[piv])
        child = []
        for col2, u in cols[at + 1:]:
            if u[piv]:
                g = F.mul(u[piv], inv)
                u = [F.sub(x, F.mul(g, y)) for x, y in zip(u, v)]
            child.append((col2, u))
        if not _picks_independent(F, child, p + 1, hi):
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
