"""Small field helpers that only the tests use.

``poly_eval`` evaluates a polynomial at a point (Horner's rule), so
polynomial and polynomial-matrix products can be checked pointwise;
``identity`` is the n x n identity matrix over a field; ``mat_mul`` and
``vec_mat`` are plain matrix products, for checking solutions and
encodings.
"""

from convmds.galois import FiniteField


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
