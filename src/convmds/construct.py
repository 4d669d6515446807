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
   (degree <= delta) whose quotient series b_i/a reproduce the Laurent rows
   of Hhat through D^M: the a-coefficients solve a linear system that the
   column property makes consistent (with no equations when delta < n-1),
   two eliminations pick the a of least degree, then least coefficients,
   and b is the truncated product of the series with a.

3. Return the code with parity check H = [a, b_2, ..., b_n], re-validating
   that it is basic of degree delta and strongly MDS (certified through
   d^c_M of its column distance profile, a route independent of step 1).
   There is no gcd step: a common factor of a and the b_i would leave a
   solution of smaller degree (``solve_ab``).
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
    systematic_window,
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
from .poly import poly_mul, poly_norm, series_div
from .superregular import (
    SEARCH_BUDGET,
    LowerToeplitz,
    is_superregular,
    search_toeplitz,
)


def required_tau(n: int, delta: int) -> int:
    """Size of the superregular matrix feeding an (n, n-1, delta) build."""
    _, M = lm_params(n, n - 1, delta)
    return (M + 1) * (n - 1)


def column_property_holds(S: SlidingMatrix) -> bool:
    """The strong-MDS window property: no column among the first n-1 of the
    right part lies in the span of any M other columns of the window."""
    M = S.j
    return linalg.least_span_size(S.field, linalg.transpose(S.data),
                                  range(M + 1, M + S.block_cols), 0, M) is None


def build_hhat(T: LowerToeplitz, n: int, M: int) -> SlidingMatrix:
    """Assemble the systematic window from rows (n-1), 2(n-1), ... of T:
    their Laurent rows h_t are the slices T.col[t(n-1) : (t+1)(n-1)] reversed."""
    if n < 2 or M < 0:
        raise BadParams(f"bad parameters n={n} M={M}")
    tau = (M + 1) * (n - 1)
    if T.size != tau:
        raise ShapeMismatch(f"need a {tau}x{tau} matrix, got {T.size}x{T.size}")
    if not is_superregular(T):
        raise NotSuperregular("input matrix is not superregular over its field")
    w = n - 1
    S = systematic_window(T.field, [T.col[t * w:(t + 1) * w][::-1]
                                    for t in range(M + 1)])
    if not column_property_holds(S):
        raise ColumnPropertyFailed("window misses the strong-MDS column property")
    return S


def solve_ab(S: SlidingMatrix, n: int, delta: int):
    """Recover (a, [b_2..b_n]) whose series b_i/a match the window rows.

    deg(h a) <= delta through D^M exactly when sum_i a_i h_{t-i} = -h_t for
    t = delta+1..M and each of the n-1 series h.  The a returned has the
    least degree d, ties broken by the least (a_1, ..., a_d), from two
    ``linalg.solve`` calls: on the columns a_1..a_delta the solution is zero
    past the least d, and on a_d..a_1 it sets a_1, a_2, ... to 0 whenever
    the earlier entries allow it.  With no equations, a = 1.

    No nonconstant g divides a and every b_i.  Scaled to g(0) = 1 (as
    a(0) = 1), 1/g is a power series, so (b_i/g)/(a/g) = h_i through D^M
    and a/g solves the system with a smaller degree than a.
    """
    F = S.field
    M = S.j
    _, M_expected = lm_params(n, n - 1, delta)
    if M != M_expected:
        raise ShapeMismatch(f"window at M={M} does not fit delta={delta}")
    hrows = systematic_h_rows(S)
    width = n - 1
    eqs = [(t, w) for t in range(delta + 1, M + 1) for w in range(width)]
    A = [[hrows[t - i][w] for i in range(1, delta + 1)] for t, w in eqs]
    rhs = [F.neg(hrows[t][w]) for t, w in eqs]
    x = linalg.solve(F, A, rhs)
    if x is None:
        raise SystemInconsistent("window rows admit no matching denominator")
    d = max((i + 1 for i, v in enumerate(x) if v), default=0)
    y = linalg.solve(F, [row[:d][::-1] for row in A], rhs)
    a = poly_norm([1] + y[::-1])
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
    tau = required_tau(n, delta)  # rejects n < 2 and delta < 0
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
