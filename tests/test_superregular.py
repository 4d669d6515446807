"""Superregular Toeplitz matrices: checks, inverses, searches, binomial facts."""

import time
from math import comb

import pytest

from convmds.errors import BadParams, BudgetExceeded, Singular
from convmds.galois import standard_field
from convmds.superregular import (LowerToeplitz, binomial_column,
                                  general_toeplitz, inverse_superregular,
                                  is_superregular, proper_minors_positive,
                                  search_general_toeplitz, search_toeplitz,
                                  smallest_prime_superregular, theorem_a_check,
                                  toeplitz)
from algebra_helpers import mat_mul
from superregular_oracle import (all_minors_nonzero, check_equivalences,
                                 proper_pairs)

F2 = standard_field(2)
F3 = standard_field(3)
F4 = standard_field(4)
F5 = standard_field(5)


def test_toeplitz_entries_and_principal():
    T = toeplitz(F5, (1, 2, 3))
    assert T.rows() == [[1, 0, 0], [2, 1, 0], [3, 2, 1]]
    assert T.entry(2, 0) == 3 and T.entry(0, 2) == 0
    assert T.leading_principal(2).col == (1, 2)
    with pytest.raises(BadParams):
        T.leading_principal(4)


@pytest.mark.parametrize("col", [(1, -1, 3), (1, 9, 3), (1, 1.0), ()])
def test_lower_toeplitz_checks_its_own_column(col):
    # built directly, not through toeplitz(); -1 would wrap the log table
    with pytest.raises(BadParams):
        LowerToeplitz(standard_field(8), col)


def test_lower_toeplitz_needs_a_field():
    with pytest.raises(BadParams, match="needs a field"):
        LowerToeplitz(None, (1, 1, 2))


def test_proper_pairs_shape():
    pairs = list(proper_pairs(4))
    assert all(len(r) == len(c) for r, c in pairs)
    for rows, cols in pairs:
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert all(j <= i for i, j in zip(rows, cols))
    # every singleton on or below the diagonal appears
    singles = [(r, c) for r, c in pairs if len(r) == 1]
    assert len(singles) == 10


def test_known_superregular_columns():
    assert is_superregular(toeplitz(F2, (1, 1)))
    assert is_superregular(toeplitz(F3, (1, 1, 2)))
    assert is_superregular(toeplitz(F5, (1, 1, 2, 1)))
    assert not is_superregular(toeplitz(F4, (1, 0, 2)))  # zero band entry
    assert not is_superregular(toeplitz(F2, (1, 1, 1)))  # singular 2x2


def test_inverse_is_actual_inverse():
    for F, col in ((F5, (1, 1, 2, 1)), (standard_field(8), (1, 2, 3, 2, 1))):
        T = toeplitz(F, col)
        inv = inverse_superregular(T)
        prod = mat_mul(F, T.rows(), inv.rows())
        assert prod == [[1 if i == j else 0 for j in range(T.size)]
                        for i in range(T.size)]
        assert is_superregular(inv)
    with pytest.raises(Singular):
        inverse_superregular(toeplitz(F4, (0, 1)))


def test_equivalence_report_on_samples():
    for F, col in ((F4, (1, 1, 2)), (F3, (1, 1, 2)), (F2, (1, 1)),
                   (F4, (1, 0, 2)), (F2, (1, 1, 1))):
        rep = check_equivalences(toeplitz(F, col))
        assert rep.agree, (F.q, col)
        assert rep.superregular == is_superregular(toeplitz(F, col))


def test_binomial_matrix_definition():
    assert binomial_column(5) == tuple(comb(4, i) for i in range(5))


def test_binomial_proper_minors_positive_small():
    for n in range(1, 5):
        assert proper_minors_positive(binomial_column(n))


def test_theorem_a_band_criterion():
    assert theorem_a_check(4, 2, (1, 2), (1, 2)) == 1
    assert theorem_a_check(4, 2, (1, 2), (3, 4)) == 0
    assert theorem_a_check(5, 3, (2, 4), (1, 3)) == 1
    # column 2 lies outside row 4's band [3, 4]
    assert theorem_a_check(4, 1, (2, 4), (1, 2)) == 0
    for k in (0, 4):
        with pytest.raises(BadParams, match="1 <= k <= n-1"):
            theorem_a_check(4, k, (1,), (1,))
    with pytest.raises(BadParams):
        theorem_a_check(4, 2, (2, 1), (1, 2))
    with pytest.raises(BadParams):
        theorem_a_check(4, 2, (1, 5), (1, 2))
    with pytest.raises(BadParams):  # a repeated index is not increasing
        theorem_a_check(4, 2, (1, 1), (1, 2))


def test_smallest_prime_small_sizes():
    assert smallest_prime_superregular(2) == 2
    assert smallest_prime_superregular(3) == 5
    assert smallest_prime_superregular(4) == 7


def test_search_exhaustive_hits_and_misses():
    assert search_toeplitz(1, F2).col == (1,)
    hit = search_toeplitz(2, F2)
    assert hit is not None and hit.col == (1, 1)
    assert search_toeplitz(3, F2) is None  # needs a larger field
    got = search_toeplitz(3, F4)
    assert got is not None and is_superregular(got)
    with pytest.raises(BudgetExceeded):
        search_toeplitz(9, standard_field(32), budget=1000)


def test_search_seeded_is_deterministic():
    a = search_toeplitz(3, F5, mode="seeded", seed=12)
    b = search_toeplitz(3, F5, mode="seeded", seed=12)
    assert a is not None and a.col == b.col
    assert is_superregular(a)
    with pytest.raises(BadParams):
        search_toeplitz(3, F5, mode="psychic")


def test_general_toeplitz_layout():
    rows = general_toeplitz(F4, (3, 2, 1, 2, 3))
    assert rows == [[1, 2, 3], [2, 1, 2], [3, 2, 1]]
    with pytest.raises(BadParams):
        general_toeplitz(F4, (1, 2, 3, 1))
    with pytest.raises(BadParams):
        general_toeplitz(F4, (9, 1, 1))


def test_general_search():
    assert search_general_toeplitz(2, F2) is None  # only candidate is singular
    hit = search_general_toeplitz(2, F3)
    assert hit is not None and all_minors_nonzero(F3, hit)
    hit4 = search_general_toeplitz(3, F4)
    assert hit4 is not None and all_minors_nonzero(F4, hit4)
    assert not all_minors_nonzero(F2, [[1, 1], [1, 1]])


def test_general_search_finds_5x5_over_gf16():
    F16 = standard_field(16)
    hit = search_general_toeplitz(5, F16)
    assert hit == [[1, 3, 2, 1, 1], [3, 1, 3, 2, 1], [14, 3, 1, 3, 2],
                   [10, 14, 3, 1, 3], [9, 10, 14, 3, 1]]
    assert all_minors_nonzero(F16, hit)


def test_general_search_proves_none_for_5x5_over_gf8():
    assert search_general_toeplitz(5, standard_field(8)) is None


@pytest.mark.parametrize("l,q,least,found", [(4, 4, 282, False),
                                             (5, 16, 3132, True)])
def test_general_budget_boundaries(l, q, least, found):
    # the budget counts the shift classes due as the search runs
    F = standard_field(q)
    assert (search_general_toeplitz(l, F, budget=least) is not None) == found
    with pytest.raises(BudgetExceeded):
        search_general_toeplitz(l, F, budget=least - 1)


def test_searches_build_no_level_the_walk_does_not_reach():
    # both walks end at a low level: the deeper ranges, charges and levels
    # of a large size are never built
    start = time.perf_counter()
    assert search_toeplitz(16000, standard_field(2)) is None
    assert search_general_toeplitz(800, standard_field(3)) is None
    assert time.perf_counter() - start < 1


def test_general_search_refuses_a_large_size_quickly():
    # the levels are built one diagonal at a time, each after its charge
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        search_general_toeplitz(15, standard_field(16), budget=1000)
    assert time.perf_counter() - start < 1
