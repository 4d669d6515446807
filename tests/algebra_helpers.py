"""Small field helpers that only the tests use.

``poly_eval`` evaluates a polynomial at a point (Horner's rule), so
polynomial and polynomial-matrix products can be checked pointwise;
``identity`` is the n x n identity matrix over a field; ``mat_mul`` and
``vec_mat`` are plain matrix products, for checking solutions and
encodings; ``solve_all`` describes the whole affine solution set of a
linear system and ``affine_solutions`` lists it, for the oracles.
"""

import itertools

from convmds.galois import FiniteField
from convmds.linalg import _eliminate


def identity(F: FiniteField, n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(F: FiniteField, A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        Oi = out[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(cols):
                    if Bt[j]:
                        Oi[j] = F.add(Oi[j], F.mul(a, Bt[j]))
    return out


def vec_mat(F: FiniteField, v, A):
    return mat_mul(F, [list(v)], A)[0]


def poly_eval(F: FiniteField, f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def solve_all(F: FiniteField, A, b):
    """All solutions x of A x = b.

    Returns (particular, nullbasis) or None when inconsistent.  The particular
    solution sets every free variable to zero; nullbasis spans ker A.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(A[i]) + [b[i]] for i in range(rows)]
    pivots = _eliminate(F, M)
    if cols in pivots:
        return None
    part = [0] * cols
    for r, c in enumerate(pivots):
        part[c] = M[r][cols]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = F.neg(M[r][fc])
        basis.append(v)
    return part, basis


def affine_solutions(F: FiniteField, A, b):
    """Every solution of A x = b: solve_all's particular solution plus each
    combination of its null basis.  Keep the null space small."""
    got = solve_all(F, A, b)
    if got is None:
        return []
    part, basis = got
    out = []
    for mults in itertools.product(range(F.q), repeat=len(basis)):
        x = list(part)
        for m, vec in zip(mults, basis):
            x = [F.add(u, F.mul(m, v)) for u, v in zip(x, vec)]
        out.append(x)
    return out
