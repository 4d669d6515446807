"""Convolutional codes: polynomial matrices, sliding windows, file format.

A rate k/n convolutional code is stored as a CodeSpec holding the field, the
parameters (n, k, delta) and at least one of two polynomial matrices: a k x n
generator ``gen`` and an (n-k) x n parity check ``par``.  Matrices are tuples
of rows of polynomial tuples (see poly.py).  Validation is strict: declared
shapes, full rank over the rational function field, orthogonality when both
matrices are present, basicness, and that ``delta`` equals the computed
degree of each stored matrix.

Sliding (truncated block Toeplitz) matrices expose the first j+1 coefficient
blocks.  With G(D) = sum G_t D^t and H(D) = sum H_t D^t:

    generator window: block row t, block column s holds G_{s-t}
    parity window:    block row t, block column s holds H_{t-s}

so the generator window is upper block triangular and the parity window lower
block triangular.  Codeword windows v_[0,j] are exactly the row space of the
generator window and exactly the kernel of the parity window transposed; this
needs only full-rank constant blocks plus orthogonality, which lets the
window routines fall back on derived (not necessarily basic) complements when
only one matrix is stored and k is 1 or n-1.  A code derives its complement
once, on first use, and keeps it as ``CodeSpec.complement``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    A1NotUnit,
    BadParams,
    FieldMismatch,
    MissingMatrix,
    NotBasic,
    NotRateNMinus1,
    ParseError,
    RankDeficient,
    ShapeMismatch,
)
from .galois import FiniteField, parse_field
from .linalg import det_bareiss
from .poly import (
    format_poly,
    parse_poly,
    poly_add,
    poly_coef,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_norm,
    series_div,
)

MAX_LENGTH = 1 << 16  # blocks in a received word, an error pattern or a profile


def _check_length(length: int) -> None:
    if length > MAX_LENGTH:
        raise BadParams(f"length {length} above the supported {MAX_LENGTH} blocks")


def _check_values(field: FiniteField, values) -> None:
    """Reject anything that is not an element of the field, once, at entry."""
    for x in values:
        if not isinstance(x, int) or not (0 <= x < field.q):
            raise FieldMismatch(f"value {x!r} outside GF({field.q})")


@dataclass(frozen=True)
class PolyMatrix:
    field: FiniteField
    rows: int
    cols: int
    entries: tuple


def pm_make(field: FiniteField, entries) -> PolyMatrix:
    rows = tuple(tuple(tuple(e) for e in row) for row in entries)
    if not rows or not rows[0]:
        raise ShapeMismatch("empty polynomial matrix")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ShapeMismatch("ragged polynomial matrix")
    for row in rows:
        for e in row:
            _check_values(field, e)  # before a trailing 0.0 is normalised away
    rows = tuple(tuple(poly_norm(e) for e in row) for row in rows)
    return PolyMatrix(field, len(rows), cols, rows)


def pm_coefficient(M: PolyMatrix, t: int):
    """Scalar coefficient matrix of D^t."""
    return [[poly_coef(e, t) for e in row] for row in M.entries]


def pm_memory(M: PolyMatrix) -> int:
    """Largest power of D appearing in any entry."""
    return max(poly_deg(e) for row in M.entries for e in row)


def pm_mul(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    if A.field != B.field or A.cols != B.rows:
        raise ShapeMismatch("polynomial matrix product shape mismatch")
    F = A.field
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = ()
            for t in range(A.cols):
                acc = poly_add(F, acc, poly_mul(F, A.entries[i][t], B.entries[t][j]))
            row.append(acc)
        out.append(row)
    return pm_make(F, out)


def pm_transpose(M: PolyMatrix) -> PolyMatrix:
    return pm_make(M.field, list(zip(*M.entries)))


def pm_is_zero(M: PolyMatrix) -> bool:
    return all(e == () for row in M.entries for e in row)


def full_size_minors(M: PolyMatrix):
    """All maximal minors (column choices of size M.rows) as polynomials,
    each by fraction-free elimination over F[D]."""
    if M.rows > M.cols:
        raise ShapeMismatch("more rows than columns")
    F = M.field
    ring = dict(mul=functools.partial(poly_mul, F),
                sub=lambda f, g: poly_add(F, f, poly_neg(F, g)),
                div=lambda f, g: poly_divmod(F, f, g)[0], zero=())
    return [(cols, det_bareiss([[row[j] for j in cols] for row in M.entries],
                               **ring))
            for cols in itertools.combinations(range(M.cols), M.rows)]


def basic_degree(M: PolyMatrix) -> int | None:
    """Largest degree of a maximal minor when their gcd is 1 (M is basic),
    else None; raises RankDeficient when every maximal minor is zero."""
    minors = [minor for _, minor in full_size_minors(M)]
    g = ()
    for minor in filter(None, minors):
        g = poly_gcd(M.field, g, minor) if g else minor
        if poly_deg(g) == 0:
            break
    if g == ():
        raise RankDeficient("matrix has rank below its row count")
    if poly_deg(g) != 0:
        return None
    return max(poly_deg(minor) for minor in minors)


@dataclass(frozen=True)
class CodeSpec:
    field: FiniteField
    n: int
    k: int
    delta: int
    gen: PolyMatrix | None = None
    par: PolyMatrix | None = None

    @functools.cached_property
    def complement(self) -> PolyMatrix | None:
        """``derived_complement`` of the stored G, else of H; built once."""
        return derived_complement(self.gen if self.gen is not None else self.par)


def make_code(field, n, k, delta, gen=None, par=None) -> CodeSpec:
    if not (0 < k < n) or delta < 0:
        raise BadParams(f"bad code parameters n={n} k={k} delta={delta}")
    if gen is not None and not isinstance(gen, PolyMatrix):
        gen = pm_make(field, gen)
    if par is not None and not isinstance(par, PolyMatrix):
        par = pm_make(field, par)
    if gen is None and par is None:
        raise MissingMatrix("need a generator or a parity check matrix")
    if gen is not None and (gen.rows, gen.cols) != (k, n):
        raise ShapeMismatch(f"generator must be {k}x{n}")
    if par is not None and (par.rows, par.cols) != (n - k, n):
        raise ShapeMismatch(f"parity check must be {n - k}x{n}")
    for M in (gen, par):
        if M is not None and M.field != field:
            raise FieldMismatch("matrix field differs from declared field")
    if gen is not None and par is not None:
        if not pm_is_zero(pm_mul(gen, pm_transpose(par))):
            raise BadParams("generator and parity check are not orthogonal")
    for name, M in (("generator", gen), ("parity check", par)):
        if M is None:
            continue
        d = basic_degree(M)
        if d is None:
            raise NotBasic(f"{name} matrix is not basic")
        if d != delta:
            raise BadParams(f"declared delta={delta} but {name} degree is {d}")
    return CodeSpec(field, n, k, delta, gen, par)


def dual(c: CodeSpec) -> CodeSpec:
    """The dual code: parameters (n, n-k, delta), matrices with swapped roles."""
    return make_code(c.field, c.n, c.n - c.k, c.delta, gen=c.par, par=c.gen)


# --- derived complements ------------------------------------------------


def _cofactor_row(M: PolyMatrix):
    """Signed maximal cofactors of an (n-1) x n matrix; orthogonal to it."""
    minors = [d for _, d in reversed(full_size_minors(M))]  # i-th drops col i
    return [poly_neg(M.field, d) if i % 2 else d for i, d in enumerate(minors)]


def _pivot_rows(F: FiniteField, a):
    """Rows spanning the kernel of a single row a with some a_p(0) a unit."""
    n = len(a)
    p = next((i for i in range(n) if poly_coef(a[i], 0)), None)
    if p is None:
        raise RankDeficient("row has no unit constant term; not delay free")
    rows = []
    for i in range(n):
        if i == p:
            continue
        row = [() for _ in range(n)]
        row[i] = a[p]
        row[p] = poly_neg(F, a[i])
        rows.append(row)
    return rows


def derived_complement(M: PolyMatrix) -> PolyMatrix | None:
    """Rows spanning the orthogonal complement of M's rows (rationally).

    The cofactor row when M is (n-1) x n, the pivot rows when M is one row,
    None otherwise.  At n = 2 both apply and the cofactor row is taken.
    Window computations need only full-rank constant blocks and
    orthogonality, so the result need not be basic.
    """
    if M.rows == M.cols - 1:
        return pm_make(M.field, [_cofactor_row(M)])
    if M.rows == 1:
        return pm_make(M.field, _pivot_rows(M.field, list(M.entries[0])))
    return None


def window_generator(c: CodeSpec) -> PolyMatrix | None:
    return c.gen if c.gen is not None else c.complement


def window_parity(c: CodeSpec) -> PolyMatrix | None:
    return c.par if c.par is not None else c.complement


# --- sliding matrices ----------------------------------------------------


@dataclass
class SlidingMatrix:
    field: FiniteField
    j: int
    block_cols: int
    data: list

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0]) if self.data else 0


def _block_toeplitz(blocks, j: int, upper: bool) -> list:
    """Rows of the window whose block row t, block column s (0 <= t, s <= j)
    holds blocks[s-t] if ``upper`` else blocks[t-s], or zeros off the list."""
    zero = [0] * len(blocks[0][0]) if blocks else []  # empty only at j < 0
    data = []
    for t in range(j + 1):
        for r in range(len(blocks[0])):
            row = []
            for s in range(j + 1):
                d = s - t if upper else t - s
                row.extend(blocks[d][r] if 0 <= d < len(blocks) else zero)
            data.append(row)
    return data


def _sliding(P: PolyMatrix | None, j: int, upper: bool, missing: str):
    if j < 0:
        raise BadParams("window index must be nonnegative")
    if P is None:
        raise MissingMatrix(missing)
    blocks = [pm_coefficient(P, t) for t in range(pm_memory(P) + 1)]
    return SlidingMatrix(P.field, j, P.cols, _block_toeplitz(blocks, j, upper))


def sliding_generator(c: CodeSpec, j: int) -> SlidingMatrix:
    return _sliding(window_generator(c), j, True,
                    "no generator available for this code")


def sliding_parity(c: CodeSpec, j: int) -> SlidingMatrix:
    return _sliding(window_parity(c), j, False,
                    "no parity check available for this code")


def laurent_table(c: CodeSpec, M: int, pivot: int = 0):
    """Power series rows h_0..h_M of a_i/a_pivot for the non-pivot coordinates.

    The parity row (a_1, ..., a_n) of a rate (n-1)/n code determines each
    non-pivot coordinate's expansion; row t of the result collects the D^t
    coefficients in ascending coordinate order.
    """
    if M < 0:
        raise BadParams("window index must be nonnegative")
    if c.k != c.n - 1:
        raise NotRateNMinus1("systematic form needs k = n-1")
    a = list(window_parity(c).entries[0])
    if poly_coef(a[pivot], 0) == 0:
        raise A1NotUnit(f"pivot coordinate {pivot} has zero constant term")
    series = [series_div(c.field, a[i], a[pivot], M + 1)
              for i in range(c.n) if i != pivot]
    return [[s[t] for s in series] for t in range(M + 1)]


def systematic_window(field: FiniteField, hrows) -> SlidingMatrix:
    """The window [I | R] at M = len(hrows) - 1 whose block row t, block
    column b of R holds the Laurent row h_{t-b} (zero for b > t)."""
    M = len(hrows) - 1
    eye = _block_toeplitz([[[1]]], M, upper=False)
    right = _block_toeplitz([[h] for h in hrows], M, upper=False)
    return SlidingMatrix(field, M, len(hrows[0]) + 1,
                         [a + b for a, b in zip(eye, right)])


def systematic_sliding_parity(c: CodeSpec, M: int, pivot: int = 0) -> SlidingMatrix:
    """The reduced parity window [I | block Toeplitz of Laurent rows].

    Columns are reordered so the pivot coordinate's M+1 time positions come
    first (the identity part); block column b of the right part holds the
    remaining coordinates at time b.
    """
    return systematic_window(c.field, laurent_table(c, M, pivot))


def systematic_h_rows(S: SlidingMatrix):
    """Recover the Laurent rows h_0..h_M from a systematic parity window."""
    M = S.j
    n = S.block_cols
    return [list(S.data[t][M + 1 : M + n]) for t in range(M + 1)]


# --- code description files ----------------------------------------------


def content_lines(text: str) -> list:
    """Nonblank lines with ``#`` comments removed, inline ones included.

    The comment rule of both file formats, code files and received words.
    """
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def read_head(text: str, kind: str, keys) -> tuple:
    """The field, the values of ``keys`` and the body lines of a file.

    The header rule of both file formats: the first content line is
    ``field GF(...)``, the second is ``kind`` and then each of ``keys``
    exactly once, in any order, as ``key=<int>``, and nothing else.
    """
    lines = content_lines(text)
    head = lines[1].split() if len(lines) > 1 else []
    try:
        values = {key: int(val) for key, val in
                  (tok.split("=", 1) for tok in head[1:])}
    except ValueError:  # a token without "=" or with a non-integer value
        values = {}
    if (head[:1] != [kind] or not lines[0].startswith("field ")
            or len(head) != len(keys) + 1 or set(values) != set(keys)):
        expected = " ".join([kind] + [f"{key}=<int>" for key in keys])
        raise ParseError(f"a {kind} file starts with the lines "
                         f"'field GF(...)' and '{expected}'")
    return (parse_field(lines[0][len("field "):]),
            tuple(values[key] for key in keys), lines[2:])


def file_head(comment: str, field: FiniteField, kind: str, **values) -> list:
    """Comment lines, the field line and the header line of either format."""
    lines = [f"# {part}".rstrip() for part in comment.splitlines()]
    lines.append(f"field {field}")
    lines.append(" ".join([kind] + [f"{k}={v}" for k, v in values.items()]))
    return lines


def format_code_file(c: CodeSpec, comment: str = "") -> str:
    lines = file_head(comment, c.field, "code", n=c.n, k=c.k, delta=c.delta)
    for tag, M in (("G", c.gen), ("H", c.par)):
        if M is None:
            continue
        lines.append(f"{tag} {M.rows} {M.cols}")
        for row in M.entries:
            for e in row:
                lines.append(format_poly(e))
    return "\n".join(lines) + "\n"


def parse_code_file(text: str) -> CodeSpec:
    field, (n, k, delta), lines = read_head(text, "code", ("n", "k", "delta"))
    body = iter(lines)

    def take():
        line = next(body, None)
        if line is None:
            raise ParseError("unexpected end of code description")
        return line

    mats = {}
    for line in body:
        tag, *size = line.split()
        try:
            r, cnum = map(int, size)
        except ValueError:  # not two integers
            tag = None
        if tag not in ("G", "H"):
            raise ParseError(f"bad matrix header {line!r}")
        M = pm_make(field, [[parse_poly(take(), field) for _ in range(cnum)]
                            for _ in range(r)])
        if tag in mats:
            raise ParseError(f"duplicate {tag} block")
        mats[tag] = M
    return make_code(field, n, k, delta, gen=mats.get("G"), par=mats.get("H"))


def read_text(path) -> str:
    """The text of a code or received-word file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def load_code(path) -> CodeSpec:
    return parse_code_file(read_text(path))


def save_code(c: CodeSpec, path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code_file(c, comment))
