"""Polynomials in D over a finite field, as normalized coefficient tuples.

A polynomial is a tuple of int elements, ascending powers, with no trailing
zero: the zero polynomial is the empty tuple ().  ``poly_deg`` returns -1 for
the zero polynomial as the customary stand-in for degree minus infinity.

Truncated power series (Laurent expansions of rational functions that are
regular at D = 0) appear as fixed-length lists of coefficients produced by
``series_div``; those are NOT normalized, their length is the requested
number of terms.
"""

from __future__ import annotations

from .errors import BothZero, DenominatorNotUnit, ParseError
from .galois import FiniteField


def poly_norm(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(f) -> int:
    return len(f) - 1


def poly_add(F: FiniteField, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(F.add(a, b))
    return poly_norm(out)


def poly_neg(F: FiniteField, f):
    return tuple(F.neg(c) for c in f)


def poly_mul(F: FiniteField, f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_norm(out)


def poly_scale(F: FiniteField, f, c: int):
    if c == 0:
        return ()
    return poly_norm(F.mul(a, c) for a in f)


def poly_coef(f, i: int) -> int:
    return f[i] if 0 <= i < len(f) else 0


def poly_monic(F: FiniteField, f):
    if not f:
        return ()
    return poly_scale(F, f, F.inv(f[-1]))


def poly_divmod(F: FiniteField, f, g):
    if not g:
        raise DenominatorNotUnit("polynomial division by zero")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = F.inv(g[-1])
    while len(r) >= len(g):
        if r[-1] == 0:
            r.pop()
            continue
        c = F.mul(r[-1], inv_lead)
        off = len(r) - len(g)
        q[off] = c
        for i in range(len(g)):
            r[off + i] = F.sub(r[off + i], F.mul(c, g[i]))
        r.pop()
    return poly_norm(q), poly_norm(r)


def poly_gcd(F: FiniteField, f, g):
    """Monic greatest common divisor by the Euclidean algorithm."""
    f, g = poly_norm(f), poly_norm(g)
    if not f and not g:
        raise BothZero("gcd(0, 0) is undefined")
    while g:
        f, g = g, poly_divmod(F, f, g)[1]
    return poly_monic(F, f)


def series_div(F: FiniteField, num, den, terms: int):
    """First ``terms`` coefficients of num/den as a power series in D.

    Requires den(0) to be a unit, i.e. the quotient must be regular at D = 0.
    """
    if not den or den[0] == 0:
        raise DenominatorNotUnit("series division needs den(0) != 0")
    inv0 = F.inv(den[0])
    out = []
    for i in range(terms):
        acc = poly_coef(num, i)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc = F.sub(acc, F.mul(den[j], out[i - j]))
        out.append(F.mul(acc, inv0))
    return out


def format_poly(f) -> str:
    if not f:
        return "0"
    return ",".join(str(c) for c in f)


def parse_poly(text: str, F: FiniteField):
    parts = text.strip().replace(" ", "").split(",")
    try:
        coeffs = [int(x) for x in parts if x != ""]
    except ValueError:
        raise ParseError(f"bad polynomial text: {text!r}")
    for c in coeffs:
        if not 0 <= c < F.q:
            raise ParseError(f"coefficient {c} outside field of size {F.q}")
    return poly_norm(coeffs)
