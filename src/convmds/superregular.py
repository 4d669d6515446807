"""Superregular lower triangular Toeplitz matrices.

A lower triangular matrix is superregular when every proper submatrix is
nonsingular; a pair of index sequences (i_1 < ... < i_r | j_1 < ... < j_r) is
proper when j_v <= i_v for every v, which is exactly the family of submatrices
that can be nonsingular at all for a lower triangular matrix.

A LowerToeplitz is described by its first column (t_1, ..., t_l); entry (i, j)
is t_{i-j+1} for i >= j and 0 above the diagonal.

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
classes.  A general (full) l x l Toeplitz matrix has no structural zeros and
is called superregular when all its minors are nonzero.  Entry (i, j) lies on
diagonal i - j + l - 1, and level s holds the minors whose last diagonal,
i_r - j_1 + l - 1, is s: one pair per shift class and, as J A^T J = A for
every Toeplitz A, per flip orbit (36 determinants for the 50 classes of a
4x4).  Both exhaustive searches grow a prefix depth first in lexicographic
order (``_first_hit``), check a level when they set its entry and charge
each candidate the level's shift classes; a None proves that none exists.

Besides the direct minor test this module implements the closure properties
(inverse, leading principal submatrices), the integer binomial columns with
their banded-power positivity criterion, the smallest prime over which the
n-th binomial matrix stays superregular, and the searches.
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
    field: FiniteField
    col: tuple

    def __post_init__(self):
        if self.field is None:
            raise BadParams("a Toeplitz matrix needs a field")
        if not self.col:
            raise BadParams("empty Toeplitz column")
        for c in self.col:
            if not isinstance(c, int) or not 0 <= c < self.field.q:
                raise BadParams(f"column value {c!r} outside {self.field}")

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
    return LowerToeplitz(field, tuple(col))


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


def _level_ok(F: FiniteField, col, level=minor_level) -> bool:
    """Whether every minor of level(len(col)) is nonzero for this column."""
    return all(linalg.mat_det(F, _minor(col, offsets))
               for offsets in level(len(col)))


def is_superregular(T: LowerToeplitz) -> bool:
    """All proper minors nonzero, checked level by level (``minor_level``)."""
    return all(_level_ok(T.field, T.col[:k]) for k in range(1, T.size + 1))


def inverse_superregular(T: LowerToeplitz) -> LowerToeplitz:
    """Inverse of a lower triangular Toeplitz matrix (again Toeplitz).

    The first column of the inverse is the reciprocal power series of the
    column polynomial, so inversion preserves the Toeplitz shape; it also
    preserves superregularity.
    """
    if T.col[0] == 0:
        raise Singular("diagonal entry is zero")
    inv_col = series_div(T.field, (1,), tuple(T.col), T.size)
    return LowerToeplitz(T.field, tuple(inv_col))


# --- integer binomial matrices and the banded power criterion -------------


def binomial_column(n: int) -> tuple:
    """First column binom(n-1, i), i = 0..n-1, of the n-th binomial matrix."""
    if n < 1:
        raise BadParams("size must be positive")
    return tuple(comb(n - 1, i) for i in range(n))


def _integer_minors(col):
    """Exact big-integer proper minors of a column, one per ``minor_level`` pair."""
    return (linalg.det_bareiss(_minor(col, offsets))
            for k in range(1, len(col) + 1) for offsets in minor_level(k))


def proper_minors_positive(col) -> bool:
    """Exact big-integer check that every proper minor is positive."""
    return all(m > 0 for m in _integer_minors(col))


def theorem_a_check(n: int, k: int, rows, cols) -> int:
    """Determinant sign (1, 0 or -1) of a submatrix of the banded binomial power.

    The k-th power of the n x n unit bidiagonal matrix has entry binom(k, i-j)
    for i >= j (0 past the band, as binom(k, i-j) = 0 for i - j > k).  Its
    submatrix on (rows | cols) has nonnegative determinant, positive exactly
    when every column index sits in the band [i_l - k, i_l].
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols) or not rows:
        raise BadParams("index sequences must be nonempty and equally long")
    for seq in (rows, cols):
        if any(not 1 <= x <= n for x in seq) or any(
            a >= b for a, b in zip(seq, seq[1:])
        ):
            raise BadParams("indices must be strictly increasing within 1..n")
    if not 1 <= k <= n - 1:
        raise BadParams("power k must satisfy 1 <= k <= n-1")
    det = linalg.det_bareiss([[comb(k, i - j) if i >= j else 0 for j in cols]
                              for i in rows])
    return (det > 0) - (det < 0)


def smallest_prime_superregular(n: int) -> int:
    """Least prime p such that the n-th binomial Toeplitz matrix stays
    superregular over GF(p)."""
    if n < 2:
        raise BadParams("size must be at least 2")
    if n > 8:
        raise BudgetExceeded("minor enumeration beyond 8x8 not supported")
    minors = list(_integer_minors(binomial_column(n)))
    # a prime above every |minor| divides none of them, so this returns
    return next(p for p in itertools.count(2)
                if is_prime(p) and all(m % p for m in minors))


# --- searches --------------------------------------------------------------


def _first_hit(F, length, span, given, level, charge, budget):
    """First list of ``length`` entries, entry i in the range span(i), whose
    every level holds.

    Depth first in lexicographic order: setting entry i charges charge(i)
    (BudgetExceeded past ``budget``) and checks the minors of level(i + 1),
    and a zero one prunes every extension, so None proves that no list
    passes.  The first ``given`` entries (one value each) are not
    charged or checked.  A depth's range and charge are built when the walk
    first reaches it.  A loop: a closure that calls itself is a cycle.
    """
    ranges = [span(i) for i in range(given + 1)]
    costs = [charge(i) for i in range(given + 1)]
    prefix, spent = [r[0] for r in ranges], 0
    while True:
        n = len(prefix)
        spent += costs[n - 1]
        if spent > budget:
            raise BudgetExceeded(
                f"exhaustive search over budget {budget} at {prefix}")
        if _level_ok(F, prefix, level):
            if n == length:
                return prefix
            if n == len(ranges):  # the walk reaches depth n for the first time
                ranges.append(span(n))
                costs.append(charge(n))
            prefix.append(ranges[n][0])
            continue
        while len(prefix) > given and prefix[-1] == ranges[len(prefix) - 1][-1]:
            prefix.pop()  # this position's values are used up
        if len(prefix) == given:
            return None
        prefix[-1] += 1


def search_toeplitz(l: int, field: FiniteField, mode: str = "exhaustive",
                    seed: int | None = None, budget: int = SEARCH_BUDGET
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
        # Setting t_k checks level k; only t_2 = 1 is explored.  t_2 = 0
        # fails the 1 x 1 minor (2 | 1).  For t_2 != 0 and a = 1/t_2,
        # D T D^-1 with D = diag(1, a, ..., a^(l-1)) is lower Toeplitz with
        # column a^(k-1) t_k, so t_1 = t_2 = 1, and its minor on (rows |
        # cols) is that of T times a^(sum rows - sum cols), so it is
        # superregular exactly when T is.  Hence if no column with t_2 = 1
        # is a hit, none is; and as every t_2 = 0 column fails, the first
        # hit in product order has t_2 = 1.
        col = _first_hit(field, l, lambda i: range(1, 2) if i < 2 else range(q), 1,
                         minor_level, lambda k: comb(2 * k, k) // (k + 1), budget)
        return None if col is None else LowerToeplitz(field, tuple(col))
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
    Returns plain rows."""
    d = list(diagonals)
    if len(d) % 2 == 0:
        raise BadParams("a general Toeplitz matrix needs 2l-1 diagonals")
    l = (len(d) + 1) // 2
    for x in d:
        if not isinstance(x, int) or not (0 <= x < field.q):
            raise BadParams(f"diagonal value {x!r} outside GF({field.q})")
    return [[d[i - j + l - 1] for j in range(l)] for i in range(l)]


def general_classes(l: int, s: int) -> int:
    """Shift classes of the l x l pairs diagonal s decides, without a list.

    With m = s - l + 1, the pairs within 1..n with i_r = a and j_1 = a - m
    number sum_r C(a-1, r-1) C(n-a+m, r-1) = C(n-1+m, a-1) (Vandermonde).
    A class has one pair with min(i_1, j_1) = 1; the others are the pairs
    within 1..l-1, shifted by one."""
    m = s - l + 1
    return sum(sign * comb(n - 1 + m, a - 1) for n, sign in ((l, 1), (l - 1, -1))
               for a in range(max(1, 1 + m), min(n, n + m) + 1))


@lru_cache(maxsize=None)
def general_level(l: int, s: int) -> tuple:
    """The pairs whose l x l Toeplitz minor diagonal s decides (i_r - j_1 =
    s - l + 1): one per shift class (min(i_1, j_1) = 1) and flip orbit (the
    one with smaller offsets), as rows of diagonal indices i - j + l - 1,
    smaller first."""
    m, level, shared = s - l + 1, [], {}
    for size in range(1, min(l, l + m) + 1):  # rows end at a <= min(l, l + m)
        for a in range(max(size, 1 + m), min(l, l + m) + 1):
            b = a - m  # rows end at a, columns start at b
            for head in itertools.combinations(range(1, a), size - 1):
                rows = head + (a,)
                if 1 not in (rows[0], b):
                    continue  # not the class's pair with min(i_1, j_1) = 1
                for tail in itertools.combinations(range(b + 1, l + 1), size - 1):
                    pair = tuple(tuple(i - j + l - 1 for j in (b,) + tail) for i in rows)
                    if pair <= tuple(zip(*pair[::-1]))[::-1]:  # flip: anti-transpose
                        level.append(tuple(shared.setdefault(r, r) for r in pair))
    return tuple(level)


def search_general_toeplitz(l: int, field: FiniteField,
                            budget: int = SEARCH_BUDGET):
    """Find an l x l general Toeplitz matrix with all minors nonzero.

    Entries are 1 x 1 minors and scaling scales every minor, so the main
    diagonal is 1 and the others range over 1..q-1.  The diagonals are set
    depth first, top right first, and setting diagonal s checks
    ``general_level(l, s)``.  Returns the rows of the first hit in
    lexicographic order, or None, which proves that no such matrix exists.
    Each candidate for diagonal s is charged its ``general_classes`` shift
    classes (before the level is built); BudgetExceeded past ``budget``.
    """
    if l < 1:
        raise BadParams("size must be positive")
    nonzero = range(1, field.q)
    diagonals = _first_hit(
        field, 2 * l - 1, lambda s: range(1, 2) if s == l - 1 else nonzero, 0,
        lambda n: general_level(l, n - 1),
        lambda s: general_classes(l, s), budget)
    return None if diagonals is None else general_toeplitz(field, diagonals)
