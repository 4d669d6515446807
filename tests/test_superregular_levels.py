"""Level-by-level superregularity against the direct all-pairs oracle."""

import itertools
import random
from math import comb

import pytest

from convmds.errors import BudgetExceeded
from convmds.galois import parse_field, standard_field
from convmds.fixtures import reference_toeplitz
from convmds import linalg
from convmds.linalg import det_bareiss, mat_det
from convmds.superregular import (LowerToeplitz, binomial_column,
                                  general_classes, general_level,
                                  inverse_superregular, is_superregular,
                                  minor_level, proper_minors_positive,
                                  search_general_toeplitz, search_toeplitz,
                                  smallest_prime_superregular, toeplitz)
from superregular_oracle import (first_column, first_general_toeplitz, flip,
                                 proper_pairs, seeded_column, submatrix,
                                 superregular_column, unhalved_level)

SMALL_FIELDS = (2, 3, 4, 5, 7, 8, 16)
# every (l, q) whose oracle search over product order runs in about 1 s or less
ORACLE_SEARCHES = ([(l, q) for l in range(2, 6) for q in SMALL_FIELDS]
                   + [(6, q) for q in (2, 3, 4, 5)] + [(7, q) for q in (2, 3, 4)])


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def table(l):
    return [pair for k in range(1, l + 1) for pair in minor_level(k)]


def offset_minor(col, pair):
    return [[col[d] if d >= 0 else 0 for d in row] for row in pair]


def offsets(rows, cols):
    """A pair's entry offsets i - j: equal exactly within a shift class."""
    return tuple(tuple(i - j for j in cols) for i in rows)


def splits(rows, cols):
    """Each v with i_v < j_{v+1}: the pair is block lower triangular there."""
    return [v for v in range(1, len(rows)) if rows[v - 1] < cols[v]]


def test_level_and_pair_counts():
    sizes = [len(table(l)) for l in range(1, 9)]
    assert sizes == [1, 2, 4, 8, 18, 44, 120, 352]
    assert [len(minor_level(k)) for k in range(1, 10)] == [
        1, 1, 2, 4, 10, 26, 76, 232, 750]
    # before halving, level k holds C_{k-1} shift classes
    for k in range(1, 10):
        assert len(unhalved_level(k)) == catalan(k - 1)
    for l in range(1, 9):
        assert sum(1 for _ in proper_pairs(l)) == catalan(l + 1) - 1


def test_levels_are_the_shift_classes():
    # the unhalved table holds one pair per shift class of the
    # indecomposable proper pairs (no i_v < j_{v+1}); a shift keeps
    # i_v - j_{v+1}, so whether a pair decomposes is a property of its class
    for l in range(1, 8):
        pairs = [pair for k in range(1, l + 1) for pair in unhalved_level(k)]
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {offsets(rows, cols)
                              for rows, cols in proper_pairs(l)
                              if not splits(rows, cols)}
        assert len({offsets(rows, cols) for rows, cols in proper_pairs(l)}
                   ) == catalan(l + 1) - catalan(l)
    for k in range(1, 9):
        # entry (i_r, j_1) = (k, 1) is t_k, the largest index in the minor
        assert all(p[-1][0] == k - 1 == max(map(max, p)) for p in minor_level(k))


def test_levels_keep_the_first_pair_of_each_flip_orbit():
    for k in range(1, 10):
        full = unhalved_level(k)
        where = {pair: n for n, pair in enumerate(full)}
        # the flip is an involution of level k
        assert all(flip(flip(p)) == p and flip(p) in where for p in full)
        # kept: each pair that comes no later than its flip, in table order
        assert minor_level(k) == tuple(p for p in full
                                       if where[p] <= where[flip(p)])
        # so every pair is kept or is the flip of a kept pair, and no two
        # kept pairs share an orbit
        kept = set(minor_level(k))
        assert all(p in kept or flip(p) in kept for p in full)
        assert not any(p != flip(p) and flip(p) in kept for p in kept)


def test_flipped_pairs_have_equal_minors():
    rng = random.Random(17)
    pairs = [p for k in range(2, 8) for p in unhalved_level(k) if p != flip(p)]
    for q in (16, 32):
        F = standard_field(q)
        for _ in range(6):
            col = tuple(rng.randrange(q) for _ in range(7))
            for p in pairs:
                assert (mat_det(F, offset_minor(col, p))
                        == mat_det(F, offset_minor(col, flip(p)))), (q, col, p)
    for _ in range(6):
        col = tuple(rng.randint(-4, 9) for _ in range(7))
        for p in pairs:
            assert (det_bareiss(offset_minor(col, p))
                    == det_bareiss(offset_minor(col, flip(p)))), (col, p)


def test_decomposable_minors_are_products_of_lower_minors():
    rng = random.Random(13)
    F = standard_field(16)
    for l in range(2, 8):
        columns = [(F, (rng.randrange(1, 16),)
                    + tuple(rng.randrange(16) for _ in range(l - 1)))
                   for _ in range(3)]
        columns += [(None, tuple(rng.randint(-3, 6) for _ in range(l)))
                    for _ in range(3)]
        decomposable = 0
        for rows, cols in proper_pairs(l):
            for v in splits(rows, cols):
                decomposable += 1
                shift = cols[v] - 1
                lead = rows[:v], cols[:v]
                trail = (tuple(i - shift for i in rows[v:]),
                         tuple(j - shift for j in cols[v:]))
                # both factors are proper and end on a lower row; the
                # shifted trailing one starts at column 1
                for pair in (lead, trail):
                    assert all(j <= i for i, j in zip(*pair))
                    assert pair[0][-1] < rows[-1]
                assert trail[1][0] == 1
                for field, col in columns:
                    minors = [submatrix(col, *p)
                              for p in ((rows, cols), lead, trail)]
                    if field is None:
                        whole, a, b = map(det_bareiss, minors)
                        assert whole == a * b, (col, rows, cols, v)
                    else:
                        whole, a, b = (mat_det(field, m) for m in minors)
                        assert whole == field.mul(a, b), (col, rows, cols, v)
        assert decomposable > 0


def test_reference_8x8_check_counts_one_determinant_per_pair(monkeypatch):
    T = next(T for T in reference_toeplitz() if T.size == 8)
    calls = []

    def counted(F, rows):
        calls.append(len(rows))
        return mat_det(F, rows)

    monkeypatch.setattr(linalg, "mat_det", counted)
    assert T.field.q == 64 and is_superregular(T)
    # one determinant per flip orbit of the 626 indecomposable shift
    # classes, of 3432 shift classes
    assert len(calls) == 352


def test_least_gf2m_goldens_for_7x7_and_8x8():
    # an 8x8 superregular matrix exists over GF(32), a smaller field than
    # the GF(64) of the bundled 8x8 reference
    F = standard_field(32)
    col = (1, 1, 2, 6, 5, 30, 31, 1)
    assert is_superregular(toeplitz(F, col)) and superregular_column(F, col)
    assert search_toeplitz(7, F).col == (1, 1, 2, 3, 8, 1, 26)


def test_check_matches_oracle_on_random_columns():
    rng = random.Random(3)
    fields = [standard_field(q) for q in SMALL_FIELDS]
    outcomes = []
    for trial in range(1200):
        F = rng.choice(fields)
        l = rng.randint(1, 6)
        low = 1 if trial % 2 else 0  # every other column has no zero entry
        col = (rng.randrange(1, F.q),) + tuple(
            rng.randrange(low, F.q) for _ in range(l - 1))
        got = is_superregular(toeplitz(F, col))
        assert got == superregular_column(F, col), (F.q, col)
        outcomes.append(got)
    assert 100 <= sum(outcomes) <= 1100


def test_check_matches_oracle_on_perturbed_references():
    rng = random.Random(5)
    for T in reference_toeplitz():
        for M in (T, inverse_superregular(T)):
            assert is_superregular(M) and superregular_column(M.field, M.col)
            col = list(M.col)
            k = rng.randrange(1, M.size) if M.size > 1 else 0
            col[k] = rng.randrange(1, M.field.q)
            got = is_superregular(LowerToeplitz(M.field, tuple(col)))
            assert got == superregular_column(M.field, col), (M.field.q, col)


@pytest.mark.parametrize("l,q", ORACLE_SEARCHES)
def test_exhaustive_first_hit_matches_oracle(l, q):
    F = standard_field(q)
    hit = search_toeplitz(l, F)
    assert (None if hit is None else hit.col) == first_column(F, l)


def test_general_levels_keep_one_pair_per_shift_class_and_flip_orbit():
    assert [general_classes(4, s) for s in range(7)] == [1, 1, 2, 4, 8, 14, 20]
    assert [len(general_level(4, s)) for s in range(7)] == [
        1, 1, 2, 3, 6, 9, 14]
    for l in range(1, 6):
        # every pair of the l x l matrix, as diagonal indices, by the last
        # diagonal it reads: equal rows of indices means one shift class
        classes = [set() for _ in range(2 * l - 1)]
        for size in range(1, l + 1):
            for rows in itertools.combinations(range(l), size):
                for cols in itertools.combinations(range(l), size):
                    classes[rows[-1] - cols[0] + l - 1].add(
                        tuple(tuple(i - j + l - 1 for j in cols)
                              for i in rows))
        for s, full in enumerate(classes):
            kept = general_level(l, s)
            assert general_classes(l, s) == len(full)
            assert len(set(kept)) == len(kept) and set(kept) <= full
            assert all(p in kept or flip(p) in kept for p in full)
            assert all(p[-1][0] == s == max(map(max, p)) for p in kept)


@pytest.mark.parametrize("field", ["GF(3)", "GF(7)", "GF(2^2;1,1,1)",
                                   "GF(2^3;1,1,0,1)", "GF(2^4;1,1,0,0,1)",
                                   "GF(3^2;2,1,1)"])
def test_general_first_hit_matches_oracle(field):
    F = parse_field(field)
    for l in range(1, 5):
        assert search_general_toeplitz(l, F) == first_general_toeplitz(F, l)


@pytest.mark.parametrize("l,q", [(5, 8), (6, 16), (7, 32)])
def test_seeded_hits_match_oracle(l, q):
    F = standard_field(q)
    for seed in range(5):
        hit = search_toeplitz(l, F, mode="seeded", seed=seed)
        assert hit.col == seeded_column(F, l, seed), seed


def test_diagonal_similarity_sets_t2_to_one():
    # the argument behind exploring only t_2 = 1 in the exhaustive search
    for l, q, seed in ((5, 8, 0), (5, 8, 1), (6, 16, 0), (6, 16, 2)):
        F = standard_field(q)
        col = search_toeplitz(l, F, mode="seeded", seed=seed).col
        a = F.inv(col[1])
        scaled = tuple(F.mul(F.pow(a, k), t) for k, t in enumerate(col))
        assert col[1] != 1 and scaled[:2] == (1, 1)
        assert superregular_column(F, scaled)


def test_known_misses_and_budget():
    assert search_toeplitz(6, standard_field(8)) is None
    assert search_toeplitz(5, standard_field(4)) is None
    with pytest.raises(BudgetExceeded):
        search_toeplitz(9, standard_field(32), budget=1000)
    # each candidate t_k is charged the size of level k as the search runs:
    # 3,801 minors up to the first 7/GF(32) hit, not 32^6 columns up front
    F = standard_field(32)
    assert search_toeplitz(7, F, budget=3801).col == (1, 1, 2, 3, 8, 1, 26)
    with pytest.raises(BudgetExceeded):
        search_toeplitz(7, F, budget=3800)


@pytest.mark.parametrize("l,q,least,want", [(6, 8, 6977, None),
                                             (5, 4, 49, None),
                                             (6, 16, 237, (1, 1, 2, 3, 8, 1))])
def test_budget_boundaries(l, q, least, want):
    # the least budget each search runs to the end with, as measured on the
    # unhalved table: the budget counts shift classes due, so keeping one
    # determinant per flip orbit moves no boundary
    F = standard_field(q)
    hit = search_toeplitz(l, F, budget=least)
    assert (None if hit is None else hit.col) == want
    with pytest.raises(BudgetExceeded):
        search_toeplitz(l, F, budget=least - 1)


def test_binomial_matrices_over_the_integers_and_least_primes():
    assert all(proper_minors_positive(binomial_column(n))
               for n in range(1, 9))
    assert [smallest_prime_superregular(n) for n in range(2, 9)] == [
        2, 5, 7, 11, 23, 43, 79]


def test_integer_positivity_matches_oracle():
    rng = random.Random(11)
    columns = [binomial_column(n) for n in range(1, 7)]
    columns += [tuple(rng.randint(-1, 6) for _ in range(rng.randint(1, 6)))
                for _ in range(60)]
    for col in columns:
        want = all(det_bareiss(submatrix(col, rows, cols)) > 0
                   for rows, cols in proper_pairs(len(col)))
        assert proper_minors_positive(col) == want, col
