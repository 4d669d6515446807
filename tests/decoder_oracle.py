"""Reference error channel and window syndromes, kept as test oracles.

``make_error_pattern`` is the direct form the package's window-count sampler
replaces: each try rescans every window that covers its block, and the loop
runs until the target or the try limit even after no slot is left that could
be accepted.  ``window_syndrome`` reads one syndrome window of a received
word from scratch, where the decoder updates one running series.
``solve_eta0_by_enumeration`` is the decoder's support search as it was
before it kept only the leading blocks: it lists every least-size match as
a full window with ``_eta_solutions``, sorts them and compares them in turn.
"""

from math import comb

from convmds import linalg
from convmds.code import CodeSpec
from convmds.decoder import (DEFAULT_SOLVE_BUDGET, ErrorPattern, ReceivedWord,
                             _check_values, _parity_row, _syndrome_series,
                             _window_plan, decoding_radius)
from convmds.distances import lm_params
from convmds.errors import (Ambiguous, BadParams, BudgetExceeded, CodingError,
                            Infeasible, NoSolution, NotRateNMinus1)
from convmds.galois import FiniteField
from convmds.rng import XorShift64Star


class HorizonExceeded(CodingError):
    code = "HORIZON_EXCEEDED"


def window_syndrome(vhat: ReceivedWord, c: CodeSpec, j: int):
    """Syndrome coefficients j..j+M of the product of vhat with the parity row."""
    parity = _parity_row(c)
    _, M = lm_params(c.n, c.k, c.delta)
    if j < 0 or j + M > vhat.horizon:
        raise HorizonExceeded(
            f"window [{j}, {j + M}] leaves the received horizon {vhat.horizon}")
    syn = _syndrome_series(c.field, vhat.symbols, parity, j + M + 1)
    return syn[j:j + M + 1]


def _window_weight_at(grid, pos: int, M: int, t: int) -> bool:
    """Whether every window that covers time ``pos`` still respects the cap."""
    L = len(grid)
    for j in range(max(0, pos - M), pos + 1):
        w = sum(1 for tt in range(j, min(j + M + 1, L)) for x in grid[tt] if x)
        if w > t:
            return False
    return True


def make_error_pattern(field: FiniteField, length: int, n: int, M: int, t: int,
                       seed: int, adversarial: bool = False,
                       errors: int | None = None) -> ErrorPattern:
    """Seeded error sequence for the sliding-window channel.

    Compliant mode rejection-samples nonzero symbols, keeping a placement
    only while every window of M+1 blocks stays within the weight cap t.
    Adversarial mode plants t+1 errors inside one window on purpose.  When
    ``errors`` is given, exactly that many placements are required.
    """
    if length < 1 or n < 1 or M < 0 or t < 0:
        raise BadParams("pattern needs length, n >= 1 and M, t >= 0")
    rng = XorShift64Star(seed)
    grid = [[0] * n for _ in range(length)]
    q = field.q

    def nonzero():
        return 1 + rng.below(q - 1)

    if adversarial:
        start = rng.below(max(1, length - M))
        span = min(M + 1, length - start)
        slots = [(start + dt, i) for dt in range(span) for i in range(n)]
        if len(slots) < t + 1:
            raise Infeasible(
                f"window from {start} has only {len(slots)} slots, need {t + 1}")
        remaining = list(slots)
        for _ in range(t + 1):
            pos, coord = remaining.pop(rng.below(len(remaining)))
            grid[pos][coord] = nonzero()
        return ErrorPattern(field, tuple(tuple(r) for r in grid), M, t)

    if errors is not None and t == 0 and errors > 0:
        raise Infeasible("cap t=0 admits no errors at all")
    target = errors if errors is not None else t * ((length + M) // (M + 1))
    placed = 0
    tries = 0
    limit = 400 * max(1, target)
    while placed < target and tries < limit:
        tries += 1
        pos = rng.below(length)
        coord = rng.below(n)
        if grid[pos][coord]:
            continue
        grid[pos][coord] = nonzero()
        if _window_weight_at(grid, pos, M, t):
            placed += 1
        else:
            grid[pos][coord] = 0
    if errors is not None and placed < errors:
        raise Infeasible(
            f"placed only {placed} of {errors} errors under the window cap {t}")
    return ErrorPattern(field, tuple(tuple(r) for r in grid), M, t)


def _eta_solutions(plan: linalg.SpanPlan, S, t: int, budget: int):
    """All minimum-support windows eta with eta * window^T = S and wt <= t.

    The plan holds the window's columns.  Supports are scanned in ascending
    size, lexicographically within a size.  Each size charges all
    comb(cols, size) candidate supports to the budget before it runs.
    Returns (size, solutions as full tuples); no solution gives (t, []).
    """
    cols = len(plan.vectors)
    if not any(S):
        return 0, [tuple([0] * cols)]
    spent = 0
    for size in range(1, t + 1):
        spent += comb(cols, size)
        if spent > budget:
            raise BudgetExceeded(
                f"syndrome search exceeded {budget} candidate supports")
        found = []
        for subset, coeffs in plan.supports(S, size):
            eta = [0] * cols
            for ci, val in zip(subset, coeffs):
                eta[ci] = val
            found.append(tuple(eta))
        if found:
            return size, sorted(found)
    return t, []


def solve_eta0_by_enumeration(S, c: CodeSpec, t: int | None = None,
                              budget: int = DEFAULT_SOLVE_BUDGET, plan=None):
    """The leading error block, from every least-size match in full."""
    if c.k != c.n - 1:
        raise NotRateNMinus1("syndrome solving needs k = n-1")
    _check_values(c.field, S)
    n = c.n
    M = len(S) - 1
    if t is None:
        t = decoding_radius(M)
    if plan is None:
        plan = _window_plan(c, M)
    _, sols = _eta_solutions(plan, list(S), t, budget)
    if not sols:
        raise NoSolution(f"no error window of weight <= {t} matches the syndrome")
    first = sols[0]
    for other in sols[1:]:
        if other[:n] != first[:n]:
            raise Ambiguous("matching windows disagree on the leading block")
        if M % 2 == 0 and other[n:2 * n] != first[n:2 * n]:
            raise Ambiguous("matching windows disagree on the second block")
    return list(first[:n])
