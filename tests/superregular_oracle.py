"""Reference superregularity check and searches, kept as test oracles.

These are the direct forms the package's level-by-level code replaces: every
proper pair gets its own determinant, and the exhaustive search tests each
column of ``itertools.product`` order from scratch.
"""

import itertools

from convmds.linalg import mat_det
from convmds.rng import XorShift64Star


def proper_pairs(l, r=None):
    """Proper index pairs (rows | cols), 1-based, rows-major lexicographic."""
    sizes = range(1, l + 1) if r is None else [r]
    for size in sizes:
        for rows in itertools.combinations(range(1, l + 1), size):
            for cols in itertools.combinations(range(1, l + 1), size):
                if all(j <= i for i, j in zip(rows, cols)):
                    yield rows, cols


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
