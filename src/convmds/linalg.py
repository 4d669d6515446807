"""Exact linear algebra over a finite field, plus fraction-free determinants.

Matrices are lists of row lists of int elements; vectors are lists or tuples.
Everything here is plain Gaussian elimination sized for desk-scale problems
(dimensions in the tens).  The exception is ``SpanPlan``, the one support
search behind the column distances, the construction certificate and the
decoder: it reduces incrementally along a depth-first walk instead of
eliminating afresh for every index set, because those searches spend their
time in it.  A plan serves one fixed list of vectors and many targets: it
keeps the prefix nodes it builds and answers the last level of a walk with
one dict lookup.  ``least_span_size`` asks one plan about every target and
size, leaving each target's own vector out of its walks.
"""

from __future__ import annotations

import operator
from math import comb

from .errors import BudgetExceeded
from .galois import FiniteField


def mat_copy(A):
    return [list(r) for r in A]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def vec_weight(v) -> int:
    return sum(1 for x in v if x)


def _eliminate(F: FiniteField, A):
    """Row echelon form in place; returns list of pivot column indices."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = F.inv(A[r][c])
        A[r] = [F.mul(inv, x) for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def mat_det(F: FiniteField, A) -> int:
    n = len(A)
    M = mat_copy(A)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            det = F.neg(det)
        det = F.mul(det, M[c][c])
        inv = F.inv(M[c][c])
        for i in range(c + 1, n):
            if M[i][c]:
                f = F.mul(inv, M[i][c])
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[c])]
    return det


def solve(F: FiniteField, A, b):
    """One solution x of A x = b, or None: the one with every free variable
    (non-pivot column) 0.  With no rows A has no columns, so x = [].

    If b is in the span of the first d columns, x is zero past column d:
    the row operations E that reduce A reduce those columns A_d alone, so
    E A_d is zero in each row whose pivot is at d or later, and so is
    E b = E A_d y.  Each pivot variable is its row's right-hand side less
    multiples of the free variables right of it, so once the variables
    right of column c are fixed, x_c is forced at a pivot and free
    elsewhere: read from the last column leftwards, x sets each variable to
    0 whenever the variables to its right allow it.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(A[i]) + [b[i]] for i in range(rows)]
    pivots = _eliminate(F, M)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = M[r][cols]
    return x


def in_span(F: FiniteField, vectors, target) -> bool:
    """Is target a linear combination of the given vectors?"""
    if not any(target):
        return True
    if not vectors:
        return False
    A = transpose(list(vectors))
    return solve(F, A, list(target)) is not None


class SpanPlan:
    """The support search over one fixed list of vectors, for many targets.

    ``supports(target, size)`` walks index tuples P = (i_1 < ... < i_size) in
    lexicographic order, depth first, keeping the target reduced against an
    echelon basis of the chosen prefix.  A vector that depends on the prefix
    is skipped, and a prefix that already spans the target is not extended.
    It yields (P, coefficients) for every independent P with target =
    sum_r coefficients[r] * vectors[i_r] and every coefficient nonzero;
    ``solve`` runs only on the sets that span the target.

    Skipping dependent sets loses no minimal support.  If target has a
    full-support representation on a dependent P, subtracting a suitable
    multiple of a dependency on P zeroes one coefficient, so target lies in
    the span of a strictly smaller set.  Hence the least size that yields
    anything is the least number of vectors whose span holds the target, and
    every support of that size is independent.

    The prefix nodes of the walk do not depend on the target, so the plan
    builds each node on its first visit and keeps it for every later target
    and size.  A node holds the later vectors reduced against its prefix's
    echelon basis, each one that does not vanish normalised to a leading
    entry of 1, and indexes them by that normalised vector.  The prefix plus
    vector i spans the target exactly when the target's residual is a
    multiple of vector i's, that is when the normalised residual equals
    vector i's key; so the last level of a walk is one dict lookup instead
    of a reduction per leaf.
    """

    def __init__(self, F: FiniteField, vectors):
        self.F = F
        self.vectors = [list(v) for v in vectors]
        self.root = self._node((), enumerate(self.vectors))

    def _node(self, prefix, later):
        """The node of a prefix, from (index, reduced vector) pairs past it.

        Returns (prefix, moves, keys, children): moves lists (i, v, p) for
        each nonzero v, normalised so that v[p] = 1 at its first nonzero p
        and stored as the tuple that keys it; keys maps each normalised v to
        its indices in ascending order; children fills in as the walk first
        reaches each child.
        """
        F = self.F
        moves, keys = [], {}
        for i, v in later:
            p = next((c for c, x in enumerate(v) if x), None)
            if p is None:
                continue  # depends on the prefix
            if v[p] != 1:
                inv = F.inv(v[p])
                v = [F.mul(inv, x) for x in v]
            v = tuple(v)
            moves.append((i, v, p))
            keys.setdefault(v, []).append(i)
        return prefix, moves, keys, {}

    def _child(self, node, i, v, p):
        """The node of the prefix plus move (i, v, p), built on first use."""
        prefix, moves, _, children = node
        if i not in children:
            F = self.F
            children[i] = self._node(prefix + (i,), (
                (j, [F.sub(x, F.mul(u[p], y)) for x, y in zip(u, v)]
                 if u[p] else u)
                for j, u, _ in moves if j > i))
        return children[i]

    def supports(self, target, size: int, skip=None):
        """Each (P, coefficients) of ``size`` vectors that spans the target,
        in lexicographic order of P; no P holds the index ``skip``."""
        target = list(target)
        if not any(target):
            if size == 0:
                yield (), []
            return
        if size:
            yield from self._walk(self.root, target, target, size, skip)

    def _walk(self, node, rest, target, size, skip):
        # rest is the target reduced against the node's prefix, never zero.
        # A method, not a nested function: a closure that calls itself is a
        # reference cycle, which would keep the plan alive after a decode
        # until the cycle collector runs.
        F, vectors = self.F, self.vectors
        mul, sub = F.mul, F.sub
        prefix, moves, keys, _ = node
        if len(prefix) + 1 == size:
            p = next(c for c, x in enumerate(rest) if x)
            inv = F.inv(rest[p])
            for i in keys.get(tuple([mul(inv, x) for x in rest]), ()):
                if i == skip:
                    continue
                pick = prefix + (i,)
                A = [[vectors[j][row] for j in pick]
                     for row in range(len(target))]
                coeffs = solve(F, A, target)
                if all(coeffs):
                    yield pick, coeffs
            return
        end = len(vectors) - size + len(prefix) + 1
        if skip is not None and skip >= end - 1:
            end -= 1  # each move left has vector skip after it to pass over
        for i, v, p in moves:
            if i >= end:
                break
            if i == skip:
                continue
            f = rest[p]
            r = [sub(x, mul(f, y)) for x, y in zip(rest, v)] if f else rest
            if any(r):  # a prefix that spans the target is not extended
                yield from self._walk(self._child(node, i, v, p), r, target,
                                      size, skip)


def least_span_size(F: FiniteField, vectors, targets, floor: int, limit: int,
                    budget: int | None = None):
    """Least s in [floor, limit] with some vectors[t], t in targets, in the
    span of s others, else None.  Every s, skipped or not, costs len(targets)
    C(len(vectors)-1, s) of the budget, so a floor moves no budget boundary.
    One plan over all the vectors serves every target and every size."""
    plan = None
    spent = 0
    for s in range(limit + 1):
        spent += len(targets) * comb(len(vectors) - 1, s)
        if budget is not None and spent > budget:
            raise BudgetExceeded(f"span search of size {s} over budget {budget}")
        if s >= floor:
            plan = plan or SpanPlan(F, vectors)
            if any(any(plan.supports(vectors[t], s, skip=t)) for t in targets):
                return s
    return None


def det_bareiss(A, mul=operator.mul, sub=operator.sub, div=operator.floordiv,
                zero=0):
    """Exact determinant by fraction-free (Bareiss) elimination.

    The entries live in an integral domain given by its multiplication,
    subtraction, exact division and zero: the integers by default, F[D] for
    the polynomial minors of ``code``.  After step c every entry right of and
    below the pivot is a minor of A of order c + 2, so each division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968).  The empty
    matrix has determinant 1.
    """
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    negate = False
    prev = None  # the first step divides by one
    for c in range(n - 1):
        if M[c][c] == zero:
            pr = next((i for i in range(c + 1, n) if M[i][c] != zero), None)
            if pr is None:
                return zero
            M[c], M[pr] = M[pr], M[c]
            negate = not negate
        pivot = M[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                x = sub(mul(M[i][j], pivot), mul(M[i][c], M[c][j]))
                M[i][j] = x if prev is None else div(x, prev)
        prev = pivot
    return sub(zero, M[n - 1][n - 1]) if negate else M[n - 1][n - 1]
