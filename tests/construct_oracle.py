"""Reference denominator choice for ``solve_ab``, kept as a test oracle.

This is the direct form the package's two eliminations replace: it
enumerates the whole affine solution set of the window system and keeps
the candidate with the smallest degree of a, then the lexicographically
smallest (a_1, ..., a_delta).  It has no size limit, so keep the solution
sets small.
"""

from convmds.code import systematic_h_rows
from algebra_helpers import affine_solutions


def canonical_a(S, n, delta):
    """The a-coefficients (a_1, ..., a_delta) that solve_ab should pick."""
    F = S.field
    M = S.j
    hrows = systematic_h_rows(S)
    width = n - 1
    A = []
    rhs = []
    for c in range(M - delta):
        for w in range(width):
            A.append([hrows[M - delta + r - c][w] for r in range(delta)])
            rhs.append(F.neg(hrows[M - c][w]))
    keys = []
    for cand in affine_solutions(F, A, rhs):
        coeffs = tuple(reversed(cand))  # cand holds (a_delta, ..., a_1)
        deg = max((i + 1 for i, v in enumerate(coeffs) if v), default=0)
        keys.append((deg, coeffs))
    return list(min(keys)[1])
