"""Feedback decoding for rate (n-1)/n codes via sliding syndrome windows.

The decoder processes a received word one time step per cycle.  Each cycle
reads M+1 consecutive scalar syndromes, recovers the unique leading error
block among all error windows of weight at most t = floor((M+1)/2), subtracts
it, and moves on.  A systematic shortcut settles most cycles from the
syndrome weight alone; the remaining ones fall back to a small support
search over the parity window.

Weights are Hamming weights over field coordinates throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import linalg
from .code import MAX_LENGTH  # noqa: F401  (the block cap, importable here too)
from .code import (CodeSpec, _check_length, _check_values, file_head,
                   pm_memory, read_head, read_text, sliding_parity,
                   window_generator, window_parity)
from .distances import lm_params
from .errors import (Ambiguous, BadParams, FieldMismatch, Infeasible,
                     NoSolution, NotRateNMinus1, ParseError, ShapeMismatch,
                     BudgetExceeded)
from .galois import FiniteField
from .poly import (format_poly, parse_poly, poly_add, poly_coef, poly_deg,
                   poly_mul, poly_norm, series_div)
from .rng import XorShift64Star

DEFAULT_SOLVE_BUDGET = 1 << 20


def decoding_radius(M: int) -> int:
    """Errors per window of M+1 blocks the decoder corrects: (M+1)//2."""
    return (M + 1) // 2


def simulation_horizon(M: int) -> int:
    """Last time index of a simulated word when none is given: 12 + 2M."""
    return 12 + 2 * M


# --- received words -------------------------------------------------------


@dataclass(frozen=True)
class ReceivedWord:
    """A finite window of n-symbol blocks, delay normalized to time 0."""

    field: FiniteField
    symbols: tuple

    @property
    def n(self) -> int:
        return len(self.symbols[0])

    @property
    def horizon(self) -> int:
        return len(self.symbols) - 1

    def weight(self) -> int:
        return sum(1 for row in self.symbols for x in row if x)

    def coordinate(self, i: int):
        """Coefficient tuple of the i-th coordinate polynomial."""
        return poly_norm(tuple(row[i] for row in self.symbols))


def make_received(field: FiniteField, symbols) -> ReceivedWord:
    rows = [tuple(row) for row in symbols]
    if not rows:
        raise BadParams("a received word needs at least one symbol")
    n = len(rows[0])
    if n == 0 or any(len(r) != n for r in rows):
        raise ShapeMismatch("symbol blocks must share a positive length")
    for r in rows:
        _check_values(field, r)
    return ReceivedWord(field, tuple(rows))


def word_from_polys(field: FiniteField, polys, length: int | None = None) -> ReceivedWord:
    """Bundle per-coordinate coefficient sequences into a received word."""
    ps = [tuple(p) for p in polys]
    need = max([len(p) for p in ps] + [1])
    if length is None:
        length = need
    if length < need:
        raise BadParams(f"length {length} clips a degree-{need - 1} coordinate")
    _check_length(length)
    rows = [tuple(poly_coef(p, t) for p in ps) for t in range(length)]
    return make_received(field, rows)


# --- syndromes ------------------------------------------------------------


def _parity_row(c: CodeSpec):
    """The n parity polynomials (a_1, ..., a_n) of a rate (n-1)/n code."""
    if c.k != c.n - 1:
        raise NotRateNMinus1("feedback decoding needs k = n-1")
    H = window_parity(c)
    return [tuple(p) for p in H.entries[0]]


def _syndrome_series(F: FiniteField, symbols, parity, length: int):
    """First ``length`` coefficients of sum_i v_i(D) a_i(D)."""
    syn = [0] * length
    for i, a in enumerate(parity):
        for d, coef in enumerate(a):
            if not coef:
                continue
            for t in range(min(len(symbols), length - d)):
                v = symbols[t][i]
                if v:
                    syn[t + d] = F.add(syn[t + d], F.mul(v, coef))
    return syn


# --- the leading error block ----------------------------------------------


def _window_plan(c: CodeSpec, M: int) -> linalg.SpanPlan:
    """The span plan over the columns of the length-(M+1) parity window."""
    return linalg.SpanPlan(c.field, linalg.transpose(sliding_parity(c, M).data))


def solve_eta0(S, c: CodeSpec, t: int | None = None,
               budget: int = DEFAULT_SOLVE_BUDGET, plan=None):
    """The leading length-n error block shared by all light syndrome matches.

    Searches every eta in F^((M+1)n) of weight at most t with
    S = eta * (parity window)^T.  Supports are scanned in ascending size,
    lexicographically within a size, and each size charges all
    comb((M+1)n, size) candidate supports to the budget before it runs; a
    zero syndrome is answered without a charge.  Of each match only its head
    is kept: the first block, and the second too when M is even.  All matches
    of the least size must agree on their heads; the shared first block is
    returned.  ``plan`` is the window's span plan from an earlier call with
    the same code and M; without one a fresh plan is built.
    """
    if c.k != c.n - 1:
        raise NotRateNMinus1("syndrome solving needs k = n-1")
    _check_values(c.field, S)
    n = c.n
    M = len(S) - 1
    if t is None:
        t = decoding_radius(M)
    if plan is None:
        plan = _window_plan(c, M)
    if not any(S):
        return [0] * n
    width = 2 * n if M % 2 == 0 else n
    cols = len(plan.vectors)
    spent = 0
    for size in range(1, t + 1):
        spent += comb(cols, size)
        if spent > budget:
            raise BudgetExceeded(
                f"syndrome search exceeded {budget} candidate supports")
        heads = set()
        for subset, coeffs in plan.supports(S, size):
            head = [0] * width
            for ci, val in zip(subset, coeffs):
                if ci < width:
                    head[ci] = val
            heads.add(tuple(head))
        if heads:
            first = min(heads)
            if any(h != first and h[:n] == first[:n] for h in heads):
                raise Ambiguous("matching windows disagree on the second block")
            if len(heads) > 1:
                raise Ambiguous("matching windows disagree on the leading block")
            return list(first[:n])
    raise NoSolution(f"no error window of weight <= {t} matches the syndrome")


def systematic_shortcut(Shat, M: int):
    """Leading error entry read off a light systematic syndrome, if light enough.

    Shat must be taken against the systematic parity window [I | T].  When
    wt(Shat) <= ceil((M+1)/2) the pivot coordinate of the leading error block
    is Shat[0] and every other coordinate is zero; returns (Shat[0], True).
    Returns None when the weight test fails and the caller must fall back.
    """
    if len(Shat) != M + 1:
        raise BadParams(f"expected {M + 1} syndrome entries, got {len(Shat)}")
    if linalg.vec_weight(Shat) <= (M + 2) // 2:
        return Shat[0], True
    return None


# --- the decoder ----------------------------------------------------------


@dataclass
class CycleRecord:
    j: int
    syndrome_weight: int
    method: str
    eta0: tuple
    tail: bool


@dataclass
class DecodeReport:
    field: FiniteField
    n: int
    M: int
    t: int
    decoded: tuple
    cycles: list
    status: str
    matched: bool | None = None
    constraint_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.status == "success"

    @property
    def core_end(self) -> int:
        """Last time index covered by the correctness guarantee."""
        return len(self.decoded) - 1 - self.M

    def decoded_polys(self):
        return [poly_norm(tuple(row[i] for row in self.decoded))
                for i in range(self.n)]


def feedback_decode(vhat: ReceivedWord, c: CodeSpec, paranoid: bool = False,
                    budget: int = DEFAULT_SOLVE_BUDGET) -> DecodeReport:
    """Iterative syndrome decoding of a received word.

    Cycle j reads the syndrome window [j, j+M] of the current word, finds the
    unique weight-capped leading error block, subtracts it at time j and
    advances.  Every systematic pivot is tried for the weight shortcut before
    the support search runs.  Cycles whose window reaches past the horizon
    are flagged as tail cycles; unresolved cycles are recorded and skipped
    with a zero correction rather than aborting, and the first one names the
    status.  The search cycles share one span plan of the parity window,
    built on the first of them.

    With ``paranoid`` set, shortcut answers are cross-checked against the
    support search and any disagreement raises Ambiguous; a shortcut cycle
    whose search finds no unique match is recorded as failed, as above.
    """
    if vhat.field != c.field:
        raise FieldMismatch(f"received word over {vhat.field}, code over {c.field}")
    if vhat.n != c.n:
        raise ShapeMismatch(f"received word has n={vhat.n}, code has n={c.n}")
    F = c.field
    n = c.n
    parity = _parity_row(c)
    _, M = lm_params(c.n, c.k, c.delta)
    t = decoding_radius(M)
    T = vhat.horizon
    if T < M:
        raise BadParams(f"horizon {T} is shorter than one window (M={M})")
    pivots = [i for i in range(n) if poly_coef(parity[i], 0)]
    word = [list(row) for row in vhat.symbols] + [[0] * n for _ in range(M)]
    syn = _syndrome_series(F, word, parity, T + M + 1)
    plan = None
    cycles = []
    status = "success"
    for j in range(T + 1):
        S = syn[j:j + M + 1]
        sw = linalg.vec_weight(S)
        eta0 = [0] * n
        if sw == 0:
            method = "zero"
        else:
            method = ""
            for i in pivots:
                Shat = series_div(F, tuple(S), parity[i], M + 1)
                hit = systematic_shortcut(Shat, M)
                if hit is not None:
                    eta0[i] = hit[0]
                    method = f"shortcut:{i}"
                    break
            if paranoid or not method:
                plan = plan or _window_plan(c, M)
                try:
                    found = solve_eta0(S, c, t, budget, plan)
                except (NoSolution, Ambiguous) as exc:
                    kind = exc.code.lower()
                    if status == "success":
                        status = f"{kind}({j})"
                    method = f"failed:{kind}"
                    found = [0] * n
                else:
                    if method and found != eta0:
                        raise Ambiguous(f"cycle {j}: shortcut disagrees "
                                        "with the support search")
                    method = method or "search"
                eta0 = found
        for i in range(n):
            e = eta0[i]
            if e:
                word[j][i] = F.sub(word[j][i], e)
                for d, coef in enumerate(parity[i]):
                    if coef:
                        syn[j + d] = F.sub(syn[j + d], F.mul(e, coef))
        cycles.append(CycleRecord(j, sw, method, tuple(eta0), j > T - M))
    decoded = tuple(tuple(row) for row in word[:T + 1])
    return DecodeReport(F, n, M, t, decoded, cycles, status)


# --- error channels -------------------------------------------------------


@dataclass(frozen=True)
class ErrorPattern(ReceivedWord):
    """An additive error sequence with a sliding-window weight budget."""

    M: int
    t: int

    def window_weights(self):
        counts = [sum(1 for x in row if x) for row in self.symbols]
        return tuple(sum(counts[j:j + self.M + 1]) for j in range(len(counts)))

    @property
    def constraint_ok(self) -> bool:
        return all(w <= self.t for w in self.window_weights())


def make_error_pattern(field: FiniteField, length: int, n: int, M: int, t: int,
                       seed: int, adversarial: bool = False,
                       errors: int | None = None) -> ErrorPattern:
    """Seeded error sequence for the sliding-window channel.

    Compliant mode rejection-samples nonzero symbols, keeping a placement
    only while every window of M+1 blocks stays within the weight cap t.
    Adversarial mode plants t+1 errors inside one window on purpose.  When
    ``errors`` is given, exactly that many placements are required.
    Sampling stops early once every zero slot lies under a window holding t
    errors: windows never lose errors, so no later try could be accepted.
    """
    if length < 1 or n < 1 or M < 0 or t < 0 or (errors or 0) < 0:
        raise BadParams("pattern needs length, n >= 1 and M, t, errors >= 0")
    _check_length(length)
    rng = XorShift64Star(seed)
    grid = [[0] * n for _ in range(length)]

    def nonzero():
        return 1 + rng.below(field.q - 1)

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
    win = [0] * length  # errors in blocks j..j+M, clipped at the end
    closed = [False] * length  # some window over the block holds t errors
    open_slots = length * n
    placed = 0
    for _ in range(400 * max(1, target)):
        if placed >= target or not open_slots:
            break
        pos = rng.below(length)
        coord = rng.below(n)
        if grid[pos][coord]:
            continue
        value = nonzero()
        if closed[pos]:
            continue
        grid[pos][coord] = value
        placed += 1
        open_slots -= 1
        for j in range(max(0, pos - M), pos + 1):
            win[j] += 1
            if win[j] == t:
                for b in range(j, min(j + M + 1, length)):
                    open_slots -= 0 if closed[b] else grid[b].count(0)
                    closed[b] = True
    if errors is not None and placed < errors:
        raise Infeasible(
            f"placed only {placed} of {errors} errors under the window cap {t}")
    return ErrorPattern(field, tuple(tuple(r) for r in grid), M, t)


def channel_trials(c: CodeSpec, trials: int, seed: int, horizon: int,
                   adversarial: bool = False):
    """Seeded (message, error pattern) pairs, one per simulation trial.

    One xorshift64* stream, seeded with 97 + seed, draws each message (k
    polynomials of 5 coefficients) and then that trial's 64-bit pattern seed,
    so neighbouring run seeds share no pattern.  Patterns span horizon + 1
    blocks; a horizon past the supported length or too short for such a
    message (below M + memory + 4), like a code that is not of rate (n-1)/n,
    fails before any trial."""
    _check_length(horizon + 1)
    _parity_row(c)
    _, M = lm_params(c.n, c.k, c.delta)
    least = M + pm_memory(window_generator(c)) + 4
    if horizon < least:
        raise BadParams(f"horizon {horizon} leaves no room for a 5-term "
                        f"message: need M + memory + 4 = {least}")
    t = decoding_radius(M)
    rng = XorShift64Star(97 + seed)
    for _ in range(trials):
        msg = [tuple(rng.below(c.field.q) for _ in range(5)) for _ in range(c.k)]
        yield msg, make_error_pattern(c.field, horizon + 1, c.n, M, t,
                                      seed=rng.next64(), adversarial=adversarial)


# --- encoding and end-to-end simulation ------------------------------------


def encode_word(c: CodeSpec, message, length: int) -> ReceivedWord:
    """Codeword symbols 0..length-1 of the message row times the generator."""
    G = window_generator(c)
    if len(message) != c.k:
        raise ShapeMismatch(f"message needs {c.k} coordinates, got {len(message)}")
    F = c.field
    for u in message:
        _check_values(F, u)
    polys = []
    for i in range(c.n):
        acc = ()
        for r in range(c.k):
            acc = poly_add(F, acc, poly_mul(F, tuple(message[r]), G.entries[r][i]))
        polys.append(acc)
    return word_from_polys(F, polys, length)


def simulate(c: CodeSpec, message, error: ErrorPattern, horizon: int,
             paranoid: bool = False,
             budget: int = DEFAULT_SOLVE_BUDGET) -> DecodeReport:
    """Encode, distort, decode and compare.

    The report's ``matched`` flag records whether the decoder recovered the
    sent codeword on the guaranteed region 0..horizon-M; ``constraint_ok``
    records whether the injected error kept its window cap.
    """
    F = c.field
    _, M = lm_params(c.n, c.k, c.delta)
    mdeg = max([poly_deg(tuple(u)) for u in message] + [-1])
    if mdeg + pm_memory(window_generator(c)) > horizon - M:
        raise BadParams("message reaches into the undecoded tail")
    if len(error.symbols) > horizon + 1:
        raise BadParams("error pattern outruns the horizon")
    if error.n != c.n:
        raise ShapeMismatch("error pattern and code disagree on n")
    sent = encode_word(c, message, horizon + 1)
    mixed = [list(row) for row in sent.symbols]
    for tpos, row in enumerate(error.symbols):
        for i, e in enumerate(row):
            if e:
                mixed[tpos][i] = F.add(mixed[tpos][i], e)
    received = make_received(F, mixed)
    report = feedback_decode(received, c, paranoid, budget)
    core = report.core_end
    report.matched = report.decoded[:core + 1] == sent.symbols[:core + 1]
    report.constraint_ok = error.constraint_ok
    return report


# --- received-word files ----------------------------------------------------


def format_received_file(w: ReceivedWord, comment: str = "") -> str:
    lines = file_head(comment, w.field, "received", n=w.n, length=len(w.symbols))
    for i in range(w.n):
        lines.append(format_poly(w.coordinate(i)))
    return "\n".join(lines) + "\n"


def parse_received_file(text: str) -> ReceivedWord:
    field, (n, length), body = read_head(text, "received", ("n", "length"))
    if len(body) != n:
        raise ParseError(f"expected {n} coordinate lines, found {len(body)}")
    polys = [parse_poly(ln, field) for ln in body]
    return word_from_polys(field, polys, length)


def load_received(path) -> ReceivedWord:
    return parse_received_file(read_text(path))


def save_received(w: ReceivedWord, path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_received_file(w, comment))
