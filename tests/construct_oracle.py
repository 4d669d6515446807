"""Reference denominator choice for ``solve_ab``, kept as a test oracle.

This is the direct form the package's pinning code replaces: it enumerates
the whole affine solution set of the window system and keeps the candidate
with the smallest degree of a, then the lexicographically smallest
(a_1, ..., a_delta).  Unlike the old package code it has no size limit, so
keep the solution sets small.
"""

import itertools

from convmds.code import systematic_h_rows
from convmds.linalg import solve


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
    part, basis = solve(F, A, rhs)
    best = None
    for mults in itertools.product(range(F.q), repeat=len(basis)):
        cand = list(part)
        for m, vec in zip(mults, basis):
            if m:
                cand = [F.add(x, F.mul(m, y)) for x, y in zip(cand, vec)]
        coeffs = list(reversed(cand))  # cand holds (a_delta, ..., a_1)
        deg = max((i + 1 for i, v in enumerate(coeffs) if v), default=0)
        key = (deg, tuple(coeffs))
        if best is None or key < best:
            best = key
    return list(best[1])
