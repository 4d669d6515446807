"""Field arithmetic against independent integer-polynomial oracles."""

import pytest

from convmds import galois
from convmds.errors import (BadLength, BadParams, DivisionByZero, NotPrime,
                            ParseError, ReducibleModulus)
from convmds.galois import (FiniteField, field_make, is_prime, parse_field,
                            standard_field)
from convmds.rng import XorShift64Star

FIELD_SIZES = [2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 32, 64]


def oracle_mul(F, a, b):
    """Multiply via explicit digit convolution and modulus reduction."""
    p, m = F.p, F.m
    da, db = F.digits(a), F.digits(b)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = list(F.modulus)
    inv_lead = pow(mod[m], p - 2, p)
    for top in range(len(prod) - 1, m - 1, -1):
        c = (prod[top] * inv_lead) % p
        for i in range(m + 1):
            prod[top - m + i] = (prod[top - m + i] - c * mod[i]) % p
    return F.from_digits(prod[:m])


def test_is_prime():
    for x in range(0, 200):
        slow = x >= 2 and all(x % d for d in range(2, x))
        assert is_prime(x) == slow


def test_standard_fields_exist():
    for q in FIELD_SIZES:
        F = standard_field(q)
        assert F.q == q
        assert F.modulus[F.m] != 0


def test_mul_matches_convolution_oracle():
    # the GF(3^2) and GF(5^2) moduli are not monic; GF(3^8) lies above the
    # table limit, so each of its products takes the raw path
    explicit = [parse_field(spec) for spec in (
        "GF(3^2;1,2,2)", "GF(5^2;2,1,3)", "GF(3^8;1,0,0,0,0,1,1,0,1)")]
    assert explicit[-1].q > galois._TABLE_LIMIT and explicit[-1]._log is None
    rng = XorShift64Star(2024)
    for F in [standard_field(q) for q in FIELD_SIZES] + explicit:
        q = F.q
        for _ in range(60):
            a, b = rng.below(q), rng.below(q)
            assert F.mul(a, b) == oracle_mul(F, a, b)


def test_field_laws_seeded():
    rng = XorShift64Star(7)
    for q in [4, 8, 13, 16, 32]:
        F = standard_field(q)
        for _ in range(40):
            a, b, c = rng.below(q), rng.below(q), rng.below(q)
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
            assert F.sub(a, b) == F.add(a, F.neg(b))


def test_fermat_and_inverse():
    for q in FIELD_SIZES:
        F = standard_field(q)
        for a in range(1, q):
            assert F.pow(a, q - 1) == 1
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(0, 1) == 0


def test_generator_has_full_order():
    fields = [standard_field(q) for q in (2, 4, 7, 8, 11, 16, 17, 32, 64)]
    fields.append(FiniteField(2, 4, (1, 1, 1, 1, 1)))  # x has order 5 here

    def order(F, a):
        x, k = a, 1
        while x != 1:
            x, k = F.mul(x, a), k + 1
        return k

    for F in fields:
        q = F.q
        g = F.generator()
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == q - 1
        # the least such element: 2 has order 3 in GF(7), 8 in GF(17)
        assert all(order(F, a) < q - 1 for a in range(2, g))


def test_division_by_zero():
    F = standard_field(8)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(3, 0)


def test_bad_constructions():
    with pytest.raises(NotPrime):
        FiniteField(6)
    with pytest.raises(ReducibleModulus):
        FiniteField(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(BadLength):
        FiniteField(2, 3, (1, 1, 1))
    with pytest.raises(BadParams):
        standard_field(1024 * 1024 * 4)


def test_large_fields_are_rejected_before_the_prime_test(monkeypatch):
    tested = []
    monkeypatch.setattr(galois, "is_prime", lambda p: tested.append(p) or True)
    big = 2**61 - 1
    with pytest.raises(BadParams):
        parse_field(f"GF({big})")
    with pytest.raises(BadParams):
        standard_field(big)
    assert tested == []


def test_digits_round_trip():
    F = standard_field(16)
    for a in range(16):
        assert F.from_digits(F.digits(a)) == a


def test_parse_field_round_trip():
    for q in FIELD_SIZES:
        F = standard_field(q)
        assert parse_field(str(F)) == F
    assert parse_field("GF(7)") == standard_field(7)
    assert parse_field("GF(2^3; 1,1,0,1)") == standard_field(8)
    for bad in ("Z(8)", "GF(2^x)", "GF(a)", "GF(4;1,x)"):
        with pytest.raises(ParseError):
            parse_field(bad)
    assert field_make(5) == standard_field(5)
