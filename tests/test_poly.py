"""Polynomial arithmetic checked by algebraic identities."""

import pytest

from convmds.errors import BothZero, DenominatorNotUnit, ParseError
from convmds.galois import standard_field
from convmds.poly import (format_poly, parse_poly, poly_add, poly_coef,
                          poly_deg, poly_divmod, poly_gcd, poly_monic,
                          poly_mul, poly_norm, poly_scale, series_div)
from convmds.rng import XorShift64Star
from algebra_helpers import poly_eval


def random_poly(rng, q, maxdeg):
    return poly_norm(tuple(rng.below(q) for _ in range(rng.below(maxdeg + 1) + 1)))


def test_norm_strips_leading_zeros():
    assert poly_norm((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert poly_norm((0, 0)) == ()
    assert poly_deg(()) == -1
    assert poly_deg((0, 1)) == 1


def test_mul_degree_and_eval_homomorphism():
    rng = XorShift64Star(41)
    for q in [2, 8, 13, 16]:
        F = standard_field(q)
        for _ in range(50):
            f, g = random_poly(rng, q, 4), random_poly(rng, q, 4)
            h = poly_mul(F, f, g)
            if f and g:
                assert poly_deg(h) == poly_deg(f) + poly_deg(g)
            else:
                assert h == ()
            for x in range(min(q, 6)):
                assert poly_eval(F, h, x) == F.mul(poly_eval(F, f, x),
                                                   poly_eval(F, g, x))
                assert poly_eval(F, poly_add(F, f, g), x) == F.add(
                    poly_eval(F, f, x), poly_eval(F, g, x))


def test_divmod_identity():
    rng = XorShift64Star(99)
    for q in [2, 4, 11]:
        F = standard_field(q)
        for _ in range(80):
            f = random_poly(rng, q, 6)
            g = random_poly(rng, q, 3)
            if not g:
                continue
            quo, rem = poly_divmod(F, f, g)
            assert poly_deg(rem) < poly_deg(g)
            assert poly_add(F, poly_mul(F, quo, g), rem) == f


def test_divmod_by_zero():
    F = standard_field(4)
    with pytest.raises(DenominatorNotUnit):
        poly_divmod(F, (1, 2), ())


def test_gcd_divides_and_is_monic():
    rng = XorShift64Star(5)
    F = standard_field(8)
    for _ in range(60):
        f, g = random_poly(rng, 8, 5), random_poly(rng, 8, 5)
        if not f and not g:
            continue
        d = poly_gcd(F, f, g)
        assert d[-1] == 1
        for h in (f, g):
            if h:
                assert poly_divmod(F, h, d)[1] == ()
    with pytest.raises(BothZero):
        poly_gcd(F, (), ())


def test_gcd_common_factor_survives():
    F = standard_field(4)
    common = (1, 1)  # x + 1
    f = poly_mul(F, common, (2, 1))
    g = poly_mul(F, common, (3, 0, 1))
    d = poly_gcd(F, f, g)
    assert poly_divmod(F, d, common)[1] == ()


def test_series_div_multiplies_back():
    rng = XorShift64Star(17)
    for q in [2, 8, 16]:
        F = standard_field(q)
        for _ in range(60):
            num = random_poly(rng, q, 5)
            den = random_poly(rng, q, 4)
            if not den or den[0] == 0:
                continue
            terms = 8
            s = series_div(F, num, den, terms)
            assert len(s) == terms
            back = poly_mul(F, tuple(s), den)
            for i in range(terms):
                assert poly_coef(back, i) == poly_coef(num, i)
    with pytest.raises(DenominatorNotUnit):
        series_div(standard_field(4), (1,), (0, 1), 4)


def test_scale_shift_monic():
    F = standard_field(8)
    assert poly_scale(F, (1, 2, 3), 2) == (2, 4, 6)
    assert poly_monic(F, (0, 0, 2)) == (0, 0, 1)


def test_format_parse_round_trip():
    F = standard_field(16)
    rng = XorShift64Star(3)
    for _ in range(40):
        f = random_poly(rng, 16, 5)
        assert parse_poly(format_poly(f), F) == f
    assert parse_poly("0", F) == ()
    assert format_poly(()) == "0"
    with pytest.raises(ParseError):
        parse_poly("1,x,2", F)
    with pytest.raises(ParseError):
        parse_poly("1,99", F)
