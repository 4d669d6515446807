"""Reference superregularity check and searches, kept as test oracles.

These are the direct forms the package's level-by-level code replaces: every
proper pair gets its own determinant, and the exhaustive search tests each
column of ``itertools.product`` order from scratch.  ``unhalved_level`` is
the minor table with both pairs of every flip orbit.  ``all_minors_nonzero``
and ``first_general_toeplitz`` do the same for general Toeplitz matrices.
``check_equivalences`` evaluates six equivalent characterizations of
superregularity (weight of column combinations, span conditions,
bounded-weight kernel vectors of [I | T]) independently, so they can be
cross-checked.
"""

import itertools
from dataclasses import dataclass

from convmds import linalg
from convmds.errors import BudgetExceeded
from convmds.linalg import mat_det
from convmds.rng import XorShift64Star
from convmds.superregular import (LowerToeplitz, general_toeplitz,
                                  is_superregular)


def proper_pairs(l, r=None):
    """Proper index pairs (rows | cols), 1-based, rows-major lexicographic."""
    sizes = range(1, l + 1) if r is None else [r]
    for size in sizes:
        for rows in itertools.combinations(range(1, l + 1), size):
            for cols in itertools.combinations(range(1, l + 1), size):
                if all(j <= i for i, j in zip(rows, cols)):
                    yield rows, cols


def unhalved_level(k):
    """Level k with both pairs of each flip orbit: offset rows of the
    indecomposable proper pairs with j_1 = 1 and i_r = k, in table order."""
    level = []
    for size in range(1, k + 1):
        for head in itertools.combinations(range(1, k), size - 1):
            rows = head + (k,)
            for tail in itertools.combinations(range(2, k + 1), size - 1):
                cols = (1,) + tail
                if all(j <= i for i, j in zip(rows, cols[1:])):
                    level.append(tuple(tuple(i - j for j in cols)
                                       for i in rows))
    return level


def flip(pair):
    """The offsets of the flipped pair: flip[a][b] = pair[r-1-b][r-1-a]."""
    r = len(pair)
    return tuple(tuple(pair[r - 1 - b][r - 1 - a] for b in range(r))
                 for a in range(r))


def submatrix(col, rows, cols):
    return [[col[i - j] if i >= j else 0 for j in cols] for i in rows]


def superregular_column(F, col):
    """Every proper minor of the lower Toeplitz matrix of ``col`` is nonzero."""
    return all(mat_det(F, submatrix(col, rows, cols))
               for rows, cols in proper_pairs(len(col)))


def first_column(F, l):
    """First superregular (1, t_2, ..., t_l) in ``itertools.product`` order."""
    for tail in itertools.product(range(F.q), repeat=l - 1):
        if superregular_column(F, (1,) + tail):
            return (1,) + tail
    return None


def seeded_column(F, l, seed, max_tries=100000):
    """First superregular column drawn from the xorshift64* stream."""
    rng = XorShift64Star(seed)
    for _ in range(max_tries):
        col = (1,) + tuple(rng.below(F.q) for _ in range(l - 1))
        if superregular_column(F, col):
            return col
    return None


def all_minors_nonzero(F, rows) -> bool:
    """Whether every square submatrix of any order is nonsingular.

    This is the superregularity notion for matrices without structural
    zeros: no minor is forced to vanish, so all of them must not.
    """
    l = len(rows)
    for r in range(1, l + 1):
        for ri in itertools.combinations(range(l), r):
            for ci in itertools.combinations(range(l), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if linalg.mat_det(F, sub) == 0:
                    return False
    return True


def first_general_toeplitz(F, l):
    """First l x l general Toeplitz matrix with all minors nonzero, as rows.

    Nonzero diagonals, top right first, in ``itertools.product`` order, with
    the main diagonal fixed to 1.
    """
    for rest in itertools.product(range(1, F.q), repeat=2 * l - 2):
        rows = general_toeplitz(F, rest[:l - 1] + (1,) + rest[l - 1:])
        if all_minors_nonzero(F, rows):
            return rows
    return None


@dataclass
class EquivalenceReport:
    superregular: bool          # all proper minors nonzero
    combo_weight: bool          # wt(T_1 + sum beta_j T_mj) >= l - s
    span_t1: bool               # T_1 not in span of other/unit columns
    kernel_t1: bool             # no light kernel vector of [I|T] hitting T_1
    span_e1: bool               # e_1 not in span of T columns/unit vectors
    kernel_e1: bool             # no light kernel vector of [I|T] hitting e_1

    @property
    def agree(self) -> bool:
        vals = (
            self.superregular,
            self.combo_weight,
            self.span_t1,
            self.kernel_t1,
            self.span_e1,
            self.kernel_e1,
        )
        return len(set(vals)) == 1


def check_equivalences(T: LowerToeplitz, budget: int = 1 << 22) -> EquivalenceReport:
    """Evaluate six equivalent superregularity conditions independently."""
    F = T.field
    l = T.size
    if (1 + F.q) ** (l - 1) > budget:
        raise BudgetExceeded("combination condition too large for the budget")
    M = T.rows()
    tcols = [[M[i][j] for i in range(l)] for j in range(l)]
    ecols = [[1 if i == j else 0 for i in range(l)] for j in range(l)]

    a = is_superregular(T)

    # s = 0 is the bare column: wt(T_1) >= l, since every entry of T_1 is
    # itself a proper 1x1 minor
    c = True
    for s in range(l):
        for ms in itertools.combinations(range(1, l), s):  # 0-based cols 1..l-1
            for betas in itertools.product(range(F.q), repeat=s):
                v = list(tcols[0])
                for m, b in zip(ms, betas):
                    if b:
                        v = [F.add(x, F.mul(b, y)) for x, y in zip(v, tcols[m])]
                if linalg.vec_weight(v) < l - s:
                    c = False
                    break
            if not c:
                break
        if not c:
            break

    def outside_span(target, pool):
        # target lies in the span of no l - 1 or fewer vectors of the pool
        plan = linalg.SpanPlan(F, pool)
        return not any(any(plan.supports(target, s)) for s in range(l))

    # span conditions: T_1 against the other T columns and the unit vectors,
    # e_1 against the T columns and the other unit vectors
    d = outside_span(tcols[0], tcols[1:] + ecols)
    f = outside_span(ecols[0], tcols + ecols[1:])
    # kernel conditions: no v with v Hhat^T = 0, v_special != 0 and
    # wt(v) <= l, where Hhat = [I | T]; equivalently the special column of
    # Hhat is outside the span of every set of at most l - 1 other columns
    e = outside_span(tcols[0], ecols + tcols[1:])  # column l+1, i.e. T_1
    g = outside_span(ecols[0], ecols[1:] + tcols)  # column e_1

    return EquivalenceReport(a, c, d, e, f, g)
