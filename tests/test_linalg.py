"""Linear algebra over finite fields and exact integer determinants."""

import itertools
from fractions import Fraction

from convmds.galois import standard_field
from convmds.linalg import (det_bareiss, in_span, mat_det, solve, transpose,
                            vec_weight)
from convmds.rng import XorShift64Star
from algebra_helpers import affine_solutions, mat_mul, solve_all, vec_mat


def random_matrix(rng, q, r, c):
    return [[rng.below(q) for _ in range(c)] for _ in range(r)]


def det_permutation(F, A):
    """Leibniz expansion, independent of the elimination code."""
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term = F.mul(term, A[i][perm[i]])
        total = F.add(total, term if sign > 0 else F.neg(term))
    return total


def test_det_matches_leibniz():
    rng = XorShift64Star(11)
    for q in [2, 4, 11]:
        F = standard_field(q)
        for n in (1, 2, 3):
            for _ in range(30):
                A = random_matrix(rng, q, n, n)
                assert mat_det(F, A) == det_permutation(F, A)


def test_solve_recovers_known_solution():
    rng = XorShift64Star(31)
    F = standard_field(8)
    for _ in range(60):
        rows, cols = 3 + rng.below(3), 2 + rng.below(4)
        A = random_matrix(rng, 8, rows, cols)
        x = [rng.below(8) for _ in range(cols)]
        b = [row[0] for row in mat_mul(F, A, [[v] for v in x])]
        got = solve(F, A, b)
        assert got is not None
        check = mat_mul(F, A, [[v] for v in got])
        assert [row[0] for row in check] == b
        particular, nullbasis = solve_all(F, A, b)
        assert particular == got
        for vec in nullbasis:
            prod = mat_mul(F, A, [[v] for v in vec])
            assert all(row[0] == 0 for row in prod)


def test_solve_inconsistent_returns_none():
    F = standard_field(2)
    A = [[1, 0], [1, 0]]
    assert solve(F, A, [1, 0]) is None
    assert solve(F, A, [1, 1]) is not None


def test_solve_is_zero_past_the_span_and_least_from_the_right():
    # random systems over GF(2..8), the last column often the sum of the
    # first two; b is random or a combination of the first d columns
    rng = XorShift64Star(73)
    checked = 0
    for q in (2, 3, 4, 5, 7, 8):
        F = standard_field(q)
        for _ in range(40):
            rows, cols = 1 + rng.below(4), 1 + rng.below(4)
            A = random_matrix(rng, q, rows, cols)
            if cols > 2 and rng.below(2):
                for row in A:
                    row[-1] = F.add(row[0], row[1])
            if rng.below(4):
                d = rng.below(cols + 1)
                b = [0] * rows
                for c in range(d):
                    m = rng.below(q)
                    b = [F.add(u, F.mul(m, row[c])) for u, row in zip(b, A)]
            else:
                b = [rng.below(q) for _ in range(rows)]
            sols = affine_solutions(F, A, b)
            x = solve(F, A, b)
            if not sols:
                assert x is None
                continue
            for e in range(cols + 1):
                if any(not any(s[e:]) for s in sols):  # b in e columns' span
                    assert not any(x[e:]), (q, A, b, e)
            assert x == min(sols, key=lambda s: s[::-1]), (q, A, b)
            checked += 1
    assert checked >= 150


def rank_by_minors(F, A):
    """Order of the largest nonzero minor, by Leibniz expansion."""
    for r in range(min(len(A), len(A[0])), 0, -1):
        for rows in itertools.combinations(range(len(A)), r):
            for cols in itertools.combinations(range(len(A[0])), r):
                if det_permutation(F, [[A[i][j] for j in cols] for i in rows]):
                    return r
    return 0


def test_rank_and_kernel_dimensions():
    rng = XorShift64Star(47)
    F = standard_field(4)
    for _ in range(40):
        rows, cols = 2 + rng.below(4), 2 + rng.below(4)
        A = random_matrix(rng, 4, rows, cols)
        r = rank_by_minors(F, A)
        _, null = solve_all(F, A, [0] * rows)
        assert r + len(null) == cols
        for vec in null:
            assert all(x == 0 for x in vec_mat(F, vec, transpose(A)))


def test_in_span():
    F = standard_field(3)
    vectors = [(1, 0, 2), (0, 1, 1)]
    assert in_span(F, vectors, (1, 1, 0))  # sum of the two
    assert not in_span(F, vectors, (0, 0, 1))
    assert in_span(F, [], (0, 0))
    assert not in_span(F, [], (1, 0))


def test_vec_weight():
    assert vec_weight((0, 3, 0, 1)) == 2
    assert vec_weight(()) == 0


def test_det_bareiss_matches_fraction_elimination():
    rng = XorShift64Star(61)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            A = [[rng.below(19) - 9 for _ in range(n)] for _ in range(n)]
            exact = det_fraction_oracle(A)
            assert det_bareiss(A) == exact


def det_fraction_oracle(A):
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            for c in range(col, n):
                M[r][c] -= f * M[col][c]
    assert det.denominator == 1
    return int(det)


def test_bareiss_big_integers_stay_exact():
    A = [[(i * 37 + j * 101 + 3) ** 2 for j in range(6)] for i in range(6)]
    assert det_bareiss(A) == det_fraction_oracle(A)
