"""Construction of strongly MDS (n, n-1, delta) codes from superregular data.

The pipeline has three steps; without a given T, step 1 first searches for
the lexicographically least superregular column, or proves none exists.

1. From a tau x tau superregular Toeplitz matrix T with tau = (M+1)(n-1),
   where M = floor(delta/(n-1)) + delta, assemble the systematic window
   Hhat = [I_{M+1} | R] whose right part stacks the rows (n-1), 2(n-1), ...,
   (M+1)(n-1) of T.  Such a window automatically has the defining property of
   strongly MDS rate (n-1)/n codes: none of its first n-1 right-hand columns
   lies in the span of any other M columns.  The property is re-verified here
   exhaustively and recorded as a certificate.

2. Find polynomials a (monic at D^0, degree <= delta) and b_2, ..., b_n
   (degree <= delta) whose quotient series b_i/a reproduces the Laurent rows
   of Hhat through D^M.  For delta < n-1 simply a = 1 and b = sum h_i D^i;
   otherwise the a-coefficients solve a delta x (n-1)(M-delta) linear system
   built from the Laurent rows, which the column property guarantees to be
   solvable, and b is the truncated product of the series with a.

3. Reduce by the common monic gcd and return the code with parity check
   H = [a, b_2, ..., b_n], re-validating that the result is basic of degree
   delta and strongly MDS (certified through d^c_M of the code's column
   distance profile, an independent route from the column property of
   step 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

from . import linalg
from .code import (
    CodeSpec,
    SlidingMatrix,
    dual,
    make_code,
    systematic_h_rows,
)
from .distances import is_strongly_mds, lm_params, singleton_bound
from .errors import (
    BadParams,
    ColumnPropertyFailed,
    DivisibilityViolated,
    NoSuperregularFound,
    NotSuperregular,
    ShapeMismatch,
    SystemInconsistent,
)
from .galois import FiniteField
from .poly import poly_divmod, poly_gcd, poly_mul, poly_norm, series_div
from .superregular import (
    SEARCH_BUDGET,
    LowerToeplitz,
    is_superregular,
    search_toeplitz,
)


def required_tau(n: int, delta: int) -> int:
    """Size of the superregular matrix feeding an (n, n-1, delta) build."""
    if n < 2 or delta < 0:
        raise BadParams(f"bad parameters n={n} delta={delta}")
    _, M = lm_params(n, n - 1, delta)
    return (M + 1) * (n - 1)


def column_property_holds(S: SlidingMatrix) -> bool:
    """The strong-MDS window property: no column among the first n-1 of the
    right part lies in the span of any M other columns of the window."""
    M = S.j
    return linalg.least_span_size(S.field, linalg.transpose(S.data),
                                  range(M + 1, M + S.block_cols), 0, M) is None


def build_hhat(T: LowerToeplitz, n: int, M: int) -> SlidingMatrix:
    """Assemble the systematic window from rows (n-1), 2(n-1), ... of T."""
    if n < 2 or M < 0:
        raise BadParams(f"bad parameters n={n} M={M}")
    tau = (M + 1) * (n - 1)
    if T.size != tau:
        raise ShapeMismatch(f"need a {tau}x{tau} matrix, got {T.size}x{T.size}")
    if T.field is None or not is_superregular(T):
        raise NotSuperregular("input matrix is not superregular over its field")
    rows = T.rows()
    data = []
    for r in range(M + 1):
        row = [1 if s == r else 0 for s in range(M + 1)]
        row.extend(rows[(r + 1) * (n - 1) - 1])
        data.append(row)
    S = SlidingMatrix(T.field, M, n, data)
    if not column_property_holds(S):
        raise ColumnPropertyFailed("window misses the strong-MDS column property")
    return S


def solve_ab(S: SlidingMatrix, n: int, delta: int):
    """Recover (a, [b_2..b_n]) whose series b_i/a matches the window rows.

    When the defining linear system is underdetermined the solution with the
    smallest degree of a is returned, ties broken by the lexicographically
    smallest coefficient tuple (a_1, ..., a_delta).  It is computed directly:
    d is the least degree whose system with a_{>d} = 0 is consistent, then
    a_1, ..., a_d are pinned in turn, to 0 when that stays consistent and to
    the forced value otherwise.  This is exact because an affine solution
    set projects onto one coordinate as a single point or the whole field.
    """
    F = S.field
    M = S.j
    _, M_expected = lm_params(n, n - 1, delta)
    if M != M_expected:
        raise ShapeMismatch(f"window at M={M} does not fit delta={delta}")
    hrows = systematic_h_rows(S)
    width = n - 1
    if M == delta:
        a = (1,)
    else:
        A, rhs = [], []  # (n-1)(M-delta) x delta, unknowns (a_delta, ..., a_1)
        for c in range(M - delta):
            for w in range(width):
                A.append([hrows[M - delta + r - c][w] for r in range(delta)])
                rhs.append(F.neg(hrows[M - c][w]))

        def solve_pinned(pins):
            """Solutions with a_i = v for every (i, v) in pins."""
            unit = [[1 if r == delta - i else 0 for r in range(delta)]
                    for i in pins]
            return linalg.solve(F, A + unit, rhs + list(pins.values()))

        for d in range(delta + 1):  # d = delta pins nothing
            pins = dict.fromkeys(range(d + 1, delta + 1), 0)
            if solve_pinned(pins) is not None:
                break
        else:
            raise SystemInconsistent("window rows admit no matching denominator")
        for i in range(1, d + 1):
            pins[i] = 0
            if solve_pinned(pins) is None:
                del pins[i]
                pins[i] = solve_pinned(pins)[0][delta - i]
        a = poly_norm([1] + [pins[i] for i in range(1, delta + 1)])
    hpolys = [[hrows[t][w] for t in range(M + 1)] for w in range(width)]
    bs = [poly_norm(poly_mul(F, poly_norm(h), a)[: delta + 1]) for h in hpolys]
    if any(series_div(F, b, a, M + 1) != h for b, h in zip(bs, hpolys)):
        raise SystemInconsistent("series of b/a does not reproduce the window")
    return a, bs


@dataclass
class ConstructionTrace:
    n: int
    delta: int
    field: FiniteField
    tau: int
    toeplitz: LowerToeplitz
    hhat: SlidingMatrix
    a: tuple
    b: list
    code: CodeSpec
    certificates: dict = dataclass_field(default_factory=dict)


def construct_strongly_mds(
    n: int,
    delta: int,
    field: FiniteField,
    T: LowerToeplitz | None = None,
    budget: int = SEARCH_BUDGET,
) -> ConstructionTrace:
    """Full pipeline from a superregular matrix, ``T`` or else the least
    column ``search_toeplitz`` finds within ``budget``, to a certified code."""
    if n < 2 or delta < 0:
        raise BadParams(f"bad parameters n={n} delta={delta}")
    tau = required_tau(n, delta)
    _, M = lm_params(n, n - 1, delta)
    if T is None:
        T = search_toeplitz(tau, field, budget=budget)
        if T is None:
            raise NoSuperregularFound(
                f"no superregular {tau}x{tau} Toeplitz matrix exists over {field}"
            )
    elif T.field != field:
        raise BadParams("Toeplitz matrix field differs from the requested field")
    S = build_hhat(T, n, M)
    a, bs = solve_ab(S, n, delta)
    g = a
    for b in bs:
        g = poly_gcd(field, g, b)
    if len(g) > 1:
        a = poly_divmod(field, a, g)[0]
        bs = [poly_divmod(field, b, g)[0] for b in bs]
    code = make_code(field, n, n - 1, delta, par=[[a] + bs])
    certificates = {
        "column_property": True,  # verified inside build_hhat
        "degree": True,  # enforced by make_code
        "basic": True,  # enforced by make_code
        "strongly_mds": is_strongly_mds(code),
        "d_c_M": singleton_bound(n, n - 1, delta),
    }
    if not certificates["strongly_mds"]:
        raise ColumnPropertyFailed("constructed code failed the strong-MDS check")
    return ConstructionTrace(n, delta, field, tau, T, S, a, bs, code, certificates)


def construct_dual_mds(
    n: int,
    delta: int,
    field: FiniteField,
    T: LowerToeplitz | None = None,
    budget: int = SEARCH_BUDGET,
) -> ConstructionTrace:
    """Strongly MDS (n, 1, delta) code as the dual of a constructed one.

    Requires (n-1) | delta, the regime in which the strong-MDS property is
    preserved under dualization for rate (n-1)/n codes.
    """
    if n < 2 or delta < 0:
        raise BadParams(f"bad parameters n={n} delta={delta}")
    if delta % (n - 1):
        raise DivisibilityViolated(f"need (n-1)={n - 1} dividing delta={delta}")
    trace = construct_strongly_mds(n, delta, field, T=T, budget=budget)
    certificates = dict(trace.certificates, dual_of_certified=True)
    return replace(trace, code=dual(trace.code), certificates=certificates)
