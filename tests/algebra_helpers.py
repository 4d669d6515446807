"""Small field helpers that only the tests use.

``poly_eval`` evaluates a polynomial at a point (Horner's rule), so
polynomial and polynomial-matrix products can be checked pointwise;
``identity`` is the n x n identity matrix over a field.
"""

from convmds.galois import FiniteField


def identity(F: FiniteField, n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def poly_eval(F: FiniteField, f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc
