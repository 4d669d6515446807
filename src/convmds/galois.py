"""Finite fields GF(p^m) with explicit moduli and integer element encoding.

An element is a plain Python int in ``0..q-1``.  Its base-p digits, least
significant first, are the coordinates in the power basis ``1, x, x^2, ...``
of GF(p)[x] modulo the field modulus.  Example: in GF(2^3) with modulus
``1 + x + x^3`` the int 6 has digits (0, 1, 1), i.e. the element ``x + x^2``.
The root ``x`` itself is always the int ``p``... for p = 2 that is element 2,
which is the usual primitive element of the tabulated binary fields.

The field object carries the arithmetic; elements stay bare ints so they can
sit in tuples, matrices and dict keys without wrapping.  Mixing ints that
belong to different fields is the caller's bug; the matrix and code layers
guard the boundaries where two fields could meet.

Moduli for GF(4), GF(8), GF(16), GF(32) and GF(64) are built in:

    GF(2^2): 1,1,1        GF(2^3): 1,1,0,1      GF(2^4): 1,1,0,0,1
    GF(2^5): 1,0,1,0,0,1  GF(2^6): 1,1,0,0,0,0,1

All listed moduli are primitive, so the int 2 generates the multiplicative
group of each tabulated field.
"""

from __future__ import annotations

from math import isqrt

from .errors import (
    BadLength,
    BadParams,
    DivisionByZero,
    NotPrime,
    ParseError,
    ReducibleModulus,
)

# coefficient tuples, ascending powers, for (p, m) -> modulus of length m+1
MODULUS_TABLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
}

MAX_EXT_DEGREE = 8
_TABLE_LIMIT = 4096  # build exp/log multiplication tables up to this q


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """Arithmetic context for GF(p^m) with a fixed irreducible modulus."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        if m < 1 or m > MAX_EXT_DEGREE:
            raise BadParams(f"extension degree {m} outside 1..{MAX_EXT_DEGREE}")
        if p**m > 1 << 20:
            raise BadParams(f"field size {p**m} above supported 2^20")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if modulus is None:
            if m == 1:
                modulus = (0, 1)
            elif (p, m) in MODULUS_TABLE:
                modulus = MODULUS_TABLE[(p, m)]
            else:
                raise BadParams(f"no built-in modulus for GF({p}^{m}); pass one")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1:
            raise BadLength(f"modulus needs {m + 1} coefficients, got {len(modulus)}")
        if modulus[m] == 0:
            raise BadLength("modulus leading coefficient vanishes")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        if m > 1:
            _check_irreducible(p, modulus)
        self._exp = None
        self._log = None
        self._gen = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # --- representation -------------------------------------------------

    def digits(self, a: int):
        """Base-p digit tuple of an element, ascending powers."""
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(a % p)
            a //= p
        return tuple(out)

    def from_digits(self, ds) -> int:
        v = 0
        for d in reversed(list(ds)):
            v = v * self.p + d % self.p
        return v

    def __str__(self):
        return f"GF({self.p}^{self.m}; {','.join(str(c) for c in self.modulus)})"

    def __repr__(self):
        return str(self)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # --- arithmetic on int encodings -------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self.from_digits(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self.from_digits(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._log is not None:
            return self._exp[(self.q - 1) - self._log[a]] if self._log[a] else 1
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def generator(self) -> int:
        """Smallest int encoding that generates the multiplicative group:
        the least g with g^(n/r) != 1 for every prime r dividing n = q-1."""
        if self._gen is None:
            n = rest = self.q - 1
            primes = []
            for r in range(2, isqrt(n) + 1):
                if rest % r == 0:
                    primes.append(r)
                    while rest % r == 0:
                        rest //= r
            if rest > 1:
                primes.append(rest)
            self._gen = next((g for g in range(2, self.q)
                              if all(self.pow(g, n // r) != 1 for r in primes)),
                             1)  # GF(2), whose group is {1}
        return self._gen

    # --- internals --------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        return self.from_digits(_poly_rem(p, conv, self.modulus))

    def _build_tables(self):
        n, g = self.q - 1, self.generator()
        exp = [1] * (2 * n)
        log = [0] * self.q
        for i in range(1, n):
            exp[i] = self._mul_raw(exp[i - 1], g)
            log[exp[i]] = i
        exp[n:] = exp[:n]
        self._exp = exp
        self._log = log


def _check_irreducible(p: int, modulus):
    """Trial division by all monic polynomials of degree 1..deg/2 over GF(p)."""
    m = len(modulus) - 1
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            div = []
            v = idx
            for _ in range(d):
                div.append(v % p)
                v //= p
            div.append(1)
            if not any(_poly_rem(p, modulus, div)):
                raise ReducibleModulus(
                    f"modulus {list(modulus)} divisible by {div} over GF({p})"
                )


def _poly_rem(p, num, den):
    """Remainder of num modulo den over GF(p), coefficients ascending; it
    has len(den) - 1 coefficients when num has at least that many."""
    r = [c % p for c in num]
    dd = len(den) - 1
    inv_lead = pow(den[dd], p - 2, p)
    while len(r) > dd:
        if r[-1]:  # a zero quotient term leaves r unchanged
            c = (r[-1] * inv_lead) % p
            off = len(r) - 1 - dd
            for i in range(dd + 1):
                r[off + i] = (r[off + i] - c * den[i]) % p
        r.pop()
    return r


def field_make(p: int, m: int = 1, modulus=None) -> FiniteField:
    return FiniteField(p, m, modulus)


def standard_field(q: int) -> FiniteField:
    """Field of size q using the built-in modulus table (or a prime field)."""
    if q <= 1 << 20 and is_prime(q):
        return FiniteField(q)
    for (p, m), mod in MODULUS_TABLE.items():
        if p**m == q:
            return FiniteField(p, m, mod)
    raise BadParams(f"no built-in field of size {q}; construct one explicitly")


def parse_field(text: str) -> FiniteField:
    """Parse 'GF(p^m; c0,c1,...,cm)' or the prime shorthand 'GF(p)'."""
    s = text.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise ParseError(f"bad field syntax: {text!r}")
    body = s[3:-1]
    try:
        if ";" in body:
            head, coeffs = body.split(";", 1)
            modulus = tuple(int(c) for c in coeffs.replace(" ", "").split(","))
        else:
            head, modulus = body, None
        head = head.strip()
        if "^" in head:
            ps, ms = head.split("^", 1)
            p, m = int(ps), int(ms)
        else:
            p, m = int(head), 1
    except ValueError:
        raise ParseError(f"bad field syntax: {text!r}") from None
    return FiniteField(p, m, modulus)
