"""Superregular lower triangular Toeplitz matrices.

A lower triangular matrix is superregular when every proper submatrix is
nonsingular; a pair of index sequences (i_1 < ... < i_r | j_1 < ... < j_r) is
proper when j_v <= i_v for every v, which is exactly the family of submatrices
that can be nonsingular at all for a lower triangular matrix.

A LowerToeplitz is described by its first column (t_1, ..., t_l); entry (i, j)
is t_{i-j+1} for i >= j and 0 above the diagonal.  The field may be None, in
which case the matrix lives over the integers (used for the binomial matrices
whose proper minors are all positive).

Minors are checked one shift class and one level at a time.  Shifting a
proper pair by -(j_1 - 1) in rows and columns leaves a Toeplitz minor
unchanged, so only pairs with j_1 = 1 need a determinant.  Level k holds
those with i_r = k, the minors t_k first enters, and only the indecomposable
ones: i_v >= j_{v+1} for every v < r.  If i_v < j_{v+1}, rows i_1..i_v meet
columns j_{v+1}..j_r above the diagonal only, so the minor is the level-i_v
minor (i_1..i_v | j_1..j_v) times a trailing minor that, shifted by
-(j_{v+1} - 1), has j_1 = 1 and last row i_r - j_{v+1} + 1 < k.  By
induction on k, levels 1..k decide the k x k leading principal submatrix,
over GF(p^m) (no zero divisors) and for integer positivity alike.  Over any
commutative ring the minor on (I | J) equals that on its flip, rows k+1-J
and columns k+1-I (J A^T J for the reversal J, as J T^T J = T).  The flip
keeps (i_r, j_1) = (k, 1) and indecomposability, so each level keeps one
pair per flip orbit: levels 1..8 hold 352 pairs for 626 of the 3432 shift
classes.  The search grows a column depth first and checks only level k when
it sets t_k.  It only explores t_2 = 1: the 1 x 1 minor t_2 rules out
t_2 = 0, and the diagonal similarity diag(a^i) T diag(a^-i) turns any
superregular column with t_2 = 1/a into one with t_2 = 1 (see
``search_toeplitz``).

Besides the direct minor test this module implements the closure properties
(inverse, leading principal submatrices), binomial Toeplitz matrices with
their banded-power positivity criterion, the smallest prime over which the
n-th binomial matrix stays superregular, and exhaustive or seeded searches
for superregular columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import linalg
from .errors import BadParams, BudgetExceeded, Singular
from .galois import FiniteField, is_prime
from .poly import series_div
from .rng import XorShift64Star

SEARCH_BUDGET = 1 << 24
SEEDED_TRIES = 100000  # random candidates a seeded search draws


@dataclass(frozen=True)
class LowerToeplitz:
    field: FiniteField | None
    col: tuple

    @property
    def size(self) -> int:
        return len(self.col)

    def entry(self, i: int, j: int):
        """0-based entry, t_{i-j+1} on and below the diagonal."""
        return self.col[i - j] if 0 <= i - j < self.size else 0

    def rows(self):
        l = self.size
        return [[self.col[i - j] if i >= j else 0 for j in range(l)] for i in range(l)]

    def leading_principal(self, size: int) -> "LowerToeplitz":
        if not 1 <= size <= self.size:
            raise BadParams("bad principal size")
        return LowerToeplitz(self.field, self.col[:size])


def toeplitz(field, col) -> LowerToeplitz:
    col = tuple(col)
    if not col:
        raise BadParams("empty Toeplitz column")
    if field is not None:
        for c in col:
            if not 0 <= c < field.q:
                raise BadParams(f"column value {c} outside {field}")
    return LowerToeplitz(field, col)


@lru_cache(maxsize=None)
def minor_level(k: int) -> tuple:
    """Level k: the indecomposable proper pairs with j_1 = 1 and i_r = k.

    One pair per shift class of the minors t_k first enters, less those
    with some i_v < j_{v+1}: their rows i_1..i_v meet columns j_{v+1}..j_r
    above the diagonal only, so each is a level-i_v minor times a minor
    that, shifted by -(j_{v+1} - 1), has j_1 = 1 and i_r = k - j_{v+1} + 1.
    That leaves C_{k-1} classes; of each and its flip (module docstring)
    only the first in (size, rows, cols) order is kept.  Pairs are rows of
    entry offsets i - j (the minor of ``col`` is ``col[i - j]``, 0 where
    i - j < 0), smaller first: cheaper, fail sooner.
    """
    level, shared = [], {}
    for size in range(1, k + 1):
        for head in itertools.combinations(range(1, k), size - 1):
            rows = head + (k,)
            for tail in itertools.combinations(range(2, k + 1), size - 1):
                cols = (1,) + tail
                flip = (tuple(k + 1 - j for j in reversed(cols)),
                        tuple(k + 1 - i for i in reversed(rows)))
                # i_v >= j_{v+1} for v < r, which implies j_v <= i_v
                if (rows, cols) <= flip and all(
                        j <= i for i, j in zip(rows, cols[1:])):
                    # pairs share most offset rows; store each row once
                    offsets = (tuple(i - j for j in cols) for i in rows)
                    level.append(tuple(shared.setdefault(r, r) for r in offsets))
    return tuple(level)


def _minor(col, offsets):
    return [[col[d] if d >= 0 else 0 for d in row] for row in offsets]


def _level_ok(F: FiniteField, col) -> bool:
    """Whether every minor of level len(col) is nonzero for this column."""
    return all(linalg.mat_det(F, _minor(col, offsets))
               for offsets in minor_level(len(col)))


def is_superregular(T: LowerToeplitz) -> bool:
    """All proper minors nonzero, checked level by level (``minor_level``)."""
    if T.field is None:
        raise BadParams("superregularity test needs a field")
    return all(_level_ok(T.field, T.col[:k]) for k in range(1, T.size + 1))


def inverse_superregular(T: LowerToeplitz) -> LowerToeplitz:
    """Inverse of a lower triangular Toeplitz matrix (again Toeplitz).

    The first column of the inverse is the reciprocal power series of the
    column polynomial, so inversion preserves the Toeplitz shape; it also
    preserves superregularity.
    """
    if T.field is None:
        raise BadParams("inversion implemented over fields")
    if T.col[0] == 0:
        raise Singular("diagonal entry is zero")
    inv_col = series_div(T.field, (1,), tuple(T.col), T.size)
    return LowerToeplitz(T.field, tuple(inv_col))


# --- integer binomial matrices and the banded power criterion -------------


def binomial_toeplitz(n: int) -> LowerToeplitz:
    """Integer Toeplitz matrix with first column binom(n-1, i), i = 0..n-1."""
    if n < 1:
        raise BadParams("size must be positive")
    return LowerToeplitz(None, tuple(comb(n - 1, i) for i in range(n)))


def _integer_minors(T: LowerToeplitz):
    """Exact big-integer proper minors, one per pair of ``minor_level``."""
    return (linalg.det_bareiss(_minor(T.col, offsets))
            for k in range(1, T.size + 1) for offsets in minor_level(k))


def proper_minors_positive(T: LowerToeplitz) -> bool:
    """Exact big-integer check that every proper minor is positive."""
    if T.field is not None:
        raise BadParams("positivity is an integer matrix check")
    return all(m > 0 for m in _integer_minors(T))


def banded_power(n: int, k: int):
    """The k-th power of the n x n unit bidiagonal matrix: binom(k, i-j) band."""
    if not 1 <= k <= n - 1:
        raise BadParams("power k must satisfy 1 <= k <= n-1")
    return [[comb(k, i - j) if 0 <= i - j <= k else 0 for j in range(n)] for i in range(n)]


def theorem_a_check(n: int, k: int, rows, cols) -> bool:
    """Determinant sign of a submatrix of the banded binomial power.

    The submatrix on (rows | cols) of the k-th power of the bidiagonal matrix
    has nonnegative determinant, positive exactly when every column index sits
    in the band [i_l - k, i_l].  Returns positivity and asserts the criterion
    agrees with the computed determinant.
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols) or not rows:
        raise BadParams("index sequences must be nonempty and equally long")
    for seq in (rows, cols):
        if any(not 1 <= x <= n for x in seq) or any(
            a >= b for a, b in zip(seq, seq[1:])
        ):
            raise BadParams("indices must be strictly increasing within 1..n")
    X = banded_power(n, k)
    sub = [[X[i - 1][j - 1] for j in cols] for i in rows]
    det = linalg.det_bareiss(sub)
    band = all(i - k <= j <= i for i, j in zip(rows, cols))
    assert det >= 0, "banded binomial minor went negative"
    assert (det > 0) == band, "band criterion disagrees with determinant"
    return det > 0


def smallest_prime_superregular(n: int) -> int:
    """Least prime p such that the n-th binomial Toeplitz matrix stays
    superregular over GF(p)."""
    if n < 2:
        raise BadParams("size must be at least 2")
    if n > 8:
        raise BudgetExceeded("minor enumeration beyond 8x8 not supported")
    minors = list(_integer_minors(binomial_toeplitz(n)))
    # a prime above every |minor| divides none of them, so this returns
    return next(p for p in itertools.count(2)
                if is_prime(p) and all(m % p for m in minors))


# --- searches --------------------------------------------------------------


def search_toeplitz(
    l: int,
    field: FiniteField,
    mode: str = "exhaustive",
    seed: int | None = None,
    budget: int = SEARCH_BUDGET,
) -> LowerToeplitz | None:
    """Find a superregular l x l Toeplitz matrix over the field, or None.

    Columns are normalized to t_1 = 1 (scaling does not change
    superregularity and a zero t_1 never is).  Exhaustive mode returns the
    first hit of (t_2, ..., t_l) in lexicographic order and raises
    BudgetExceeded once the shift classes it was due to check (C_{k-1} per
    candidate t_k, not the determinants made) exceed ``budget``; its None
    proves that no such matrix exists.  Seeded mode draws up to
    SEEDED_TRIES columns from the xorshift64* stream; its None proves nothing.
    """
    if l < 1:
        raise BadParams("size must be positive")
    q = field.q
    if l == 1:
        return LowerToeplitz(field, (1,))
    if mode == "exhaustive":
        # Depth first in lexicographic order: setting t_k checks level k, and
        # a failed level prunes every column that extends the prefix.  Only
        # t_2 = 1 is explored.  t_2 = 0 fails the 1 x 1 minor (2 | 1).  For
        # t_2 != 0 and a = 1/t_2, D T D^-1 with D = diag(1, a, ..., a^(l-1))
        # is lower Toeplitz with column a^(k-1) t_k, so t_1 = t_2 = 1, and
        # its minor on (rows | cols) is that of T times a^(sum rows - sum
        # cols), so it is superregular exactly when T is.  Hence if no column
        # with t_2 = 1 is a hit, none is; and as every t_2 = 0 column fails,
        # the first hit in product order has t_2 = 1.  Each candidate t_k
        # is charged C_{k-1} against the budget.  A loop, not a nested
        # function: a closure that calls itself is a reference cycle.
        col, spent = [1, 1], 0
        while True:
            spent += comb(2 * len(col) - 2, len(col) - 1) // len(col)
            if spent > budget:
                raise BudgetExceeded(
                    f"exhaustive search over budget {budget} at {col}")
            if _level_ok(field, col):
                if len(col) == l:
                    return LowerToeplitz(field, tuple(col))
                col.append(0)
                continue
            while len(col) > 2 and col[-1] == q - 1:
                col.pop()  # this level's values are used up
            if len(col) == 2:
                return None  # no column with t_2 = 1 is a hit
            col[-1] += 1
    if mode == "seeded":
        rng = XorShift64Star(0 if seed is None else seed)
        for _ in range(SEEDED_TRIES):
            tail = tuple(rng.below(q) for _ in range(l - 1))
            T = LowerToeplitz(field, (1,) + tail)
            if is_superregular(T):
                return T
        return None
    raise BadParams(f"unknown search mode {mode!r}")


# --- general (full) Toeplitz matrices --------------------------------------


def general_toeplitz(field: FiniteField, diagonals):
    """Square Toeplitz matrix from its 2l-1 diagonals, upper-right first.

    Entry (i, j) is diagonals[i - j + l - 1]; index l-1 is the main diagonal.
    Returns plain rows.
    """
    d = list(diagonals)
    if len(d) % 2 == 0:
        raise BadParams("a general Toeplitz matrix needs 2l-1 diagonals")
    l = (len(d) + 1) // 2
    for x in d:
        if not isinstance(x, int) or not (0 <= x < field.q):
            raise BadParams(f"diagonal value {x!r} outside GF({field.q})")
    return [[d[i - j + l - 1] for j in range(l)] for i in range(l)]


def all_minors_nonzero(F: FiniteField, rows) -> bool:
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


def search_general_toeplitz(
    l: int,
    field: FiniteField,
    mode: str = "exhaustive",
    seed: int | None = None,
    budget: int = SEARCH_BUDGET,
):
    """Find an l x l general Toeplitz matrix with all minors nonzero.

    Every entry is a 1 x 1 minor, so only nonzero diagonals are tried; the
    main diagonal is normalized to 1 by the scaling freedom.  Returns the
    matrix rows or None.  Exhaustive mode raises BudgetExceeded up front
    when the (q-1)^(2l-2) candidates exceed ``budget``; seeded mode draws
    up to SEEDED_TRIES candidates.
    """
    if l < 1:
        raise BadParams("size must be positive")
    q = field.q
    if l == 1:
        return [[1]]
    nonzero = range(1, q)

    def candidate(rest):
        return rest[:l - 1] + (1,) + rest[l - 1:]

    if mode == "exhaustive":
        space = (q - 1) ** (2 * l - 2)
        if space > budget:
            raise BudgetExceeded(
                f"exhaustive search needs {space} candidates, budget {budget}")
        for rest in itertools.product(nonzero, repeat=2 * l - 2):
            rows = general_toeplitz(field, candidate(rest))
            if all_minors_nonzero(field, rows):
                return rows
        return None
    if mode == "seeded":
        rng = XorShift64Star(0 if seed is None else seed)
        for _ in range(SEEDED_TRIES):
            rest = tuple(1 + rng.below(q - 1) for _ in range(2 * l - 2))
            rows = general_toeplitz(field, candidate(rest))
            if all_minors_nonzero(field, rows):
                return rows
        return None
    raise BadParams(f"unknown search mode {mode!r}")
