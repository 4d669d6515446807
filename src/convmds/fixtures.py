"""Reference codes bundled with the package.

Each entry pairs a code with recorded distance data: the column distance
profile (from time 0 up to the strong-MDS test index M), extra spot values
beyond that window, and the expected classification flags.  The test suite
recomputes everything from scratch; the ``selftest`` command replays the
same checks.  Entries carrying both a generator and a parity check are dual
pairs: each matrix generates the dual of the code generated by the other.

All extension fields use the shared power-basis moduli, and powers are taken
of the base element x (the integer 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

from .code import CodeSpec, make_code, save_code
from .decoder import save_received, word_from_polys
from .galois import standard_field
from .poly import poly_norm


@dataclass(frozen=True)
class Fixture:
    name: str
    code: CodeSpec
    profile: tuple = ()
    spots: dict = dc_field(default_factory=dict)
    strongly_mds: bool | None = None
    mdp: bool | None = None
    dfree: int | None = None
    dfree_at: int | None = None
    note: str = ""


def _entry(out, name, code, **kw):
    out[name] = Fixture(name=name, code=code, **kw)


@lru_cache(maxsize=1)
def all_fixtures() -> dict:
    out: dict = {}

    F4 = standard_field(4)
    F8 = standard_field(8)
    F11 = standard_field(11)
    F16 = standard_field(16)
    F32 = standard_field(32)
    F64 = standard_field(64)

    def pw(F):
        return lambda e: F.pow(2, e)

    a, g, b, e, w = pw(F4), pw(F8), pw(F16), pw(F32), pw(F64)

    # --- rate 1/n and 2/n codes given by generator matrices ----------------

    _entry(out, "smds_3_1_1_q4",
           make_code(F4, 3, 1, 1, gen=[[(a(1), a(1)), (a(2), a(1)), (1, a(1))]]),
           profile=(3, 5, 6), strongly_mds=True, mdp=True, dfree=6, dfree_at=2)

    _entry(out, "smds_3_1_2_q16",
           make_code(F16, 3, 1, 2, gen=[[(b(1), b(1), 1),
                                         (b(6), b(1), b(10)),
                                         (b(11), b(1), b(5))]]),
           profile=(3, 5, 7, 9), strongly_mds=True, mdp=True, dfree=9, dfree_at=3,
           note="dual pair with smds_3_2_2_q16b")

    _entry(out, "smds_3_2_2_q16",
           make_code(F16, 3, 2, 2, gen=[[(b(5), b(4)), (b(3), b(8)), (b(9), b(2))],
                                        [(b(9), b(12)), (b(5), b(14)), (b(3), b(3))]]),
           profile=(2, 3, 4, 5), strongly_mds=True, mdp=True, dfree=5, dfree_at=3,
           note="dual pair with smds_3_1_2_q16b")

    _entry(out, "smds_5_1_1_q16",
           make_code(F16, 5, 1, 1, gen=[[(b(1), b(1)), (b(13), b(10)), (b(10), b(4)),
                                         (b(7), b(13)), (b(4), b(7))]]),
           profile=(5, 9, 10), strongly_mds=True, mdp=True, dfree=10, dfree_at=2)

    _entry(out, "smds_5_1_2_q16",
           make_code(F16, 5, 1, 2, gen=[[(b(1), b(4), b(1)), (b(7), b(1), b(10)),
                                         (b(13), b(13), b(4)), (b(4), b(10), b(13)),
                                         (b(10), b(7), b(7))]]),
           profile=(5, 9, 13, 15), strongly_mds=True, mdp=True, dfree=15, dfree_at=3)

    _entry(out, "smds_5_2_2_q16",
           make_code(F16, 5, 2, 2, gen=[[(b(1), b(1)), (b(13), b(10)), (b(10), b(4)),
                                         (b(7), b(13)), (b(4), b(7))],
                                        [(1, b(5)), (b(3), b(11)), (b(6), b(2)),
                                         (b(9), b(8)), (b(12), b(14))]]),
           profile=(4, 7, 9), strongly_mds=True, mdp=True, dfree=9, dfree_at=2)

    _entry(out, "smds_7_1_1_q8",
           make_code(F8, 7, 1, 1, gen=[[(g(1), g(1)), (g(3), 1), (g(5), g(6)),
                                        (1, g(5)), (g(2), g(4)), (g(4), g(3)),
                                        (g(6), g(2))]]),
           profile=(7, 13, 14), strongly_mds=True, mdp=True, dfree=14, dfree_at=2)

    _entry(out, "smds_7_1_2_q8",
           make_code(F8, 7, 1, 2, gen=[[(g(2), g(1), 1), (g(5), g(3), g(6)),
                                        (g(1), g(5), g(5)), (g(4), 1, g(4)),
                                        (1, g(2), g(3)), (g(3), g(4), g(2)),
                                        (g(6), g(6), g(1))]]),
           profile=(7, 13, 18, 21), strongly_mds=True, mdp=False, dfree=21, dfree_at=3,
           note="profile falls one short of the bound at j=2 (18 vs 19)")

    # --- rate (n-1)/n codes given by parity check matrices ------------------

    _entry(out, "smds_2_1_2_q8",
           make_code(F8, 2, 1, 2, par=[[(1, g(2), g(5)), (1, g(4), g(5))]]),
           profile=(2, 3, 4, 5, 6), strongly_mds=True, mdp=True, dfree=6, dfree_at=4,
           note="bundled received word decodes against this code")

    _entry(out, "smds_2_1_3_q32",
           make_code(F32, 2, 1, 3, par=[[(1, e(18), e(11), e(29)),
                                         (1, 1, e(27), e(18))]]),
           profile=(2, 3, 4, 5, 6, 7, 8), strongly_mds=True, mdp=True,
           dfree=8, dfree_at=6)

    _entry(out, "smds_3_2_2_q64",
           make_code(F64, 3, 2, 2, par=[[(1, w(57), w(62)), (w(1), w(44), w(54)),
                                         (1, w(17), w(21))]]),
           profile=(2, 3, 4, 5), strongly_mds=True, mdp=True, dfree=5, dfree_at=3,
           note="dual pair with smds_3_1_2_q64")

    _entry(out, "smds_4_3_1_q16",
           make_code(F16, 4, 3, 1, par=[[(1,), (b(5), 1), (b(1), b(1)), (1, b(5))]]),
           profile=(2, 3), strongly_mds=True, mdp=True, dfree=3, dfree_at=1,
           note="dual code is not MDS: its generator has weight below the bound")

    _entry(out, "mds_2_1_2_q11",
           make_code(F11, 2, 1, 2, par=[[(10, 3, 2), (4, 2, 1)]]),
           profile=(2, 3, 4, 5, 5), spots={5: 6}, strongly_mds=False, mdp=False,
           dfree=6, dfree_at=5,
           note="free distance meets the bound but only after the test index M")

    # --- duals of the codes above -------------------------------------------

    _entry(out, "smds_3_1_2_q64",
           make_code(F64, 3, 1, 2, gen=[[(1, w(57), w(62)), (w(1), w(44), w(54)),
                                         (1, w(17), w(21))]]),
           profile=(3, 5, 7, 9), strongly_mds=True, mdp=True, dfree=9, dfree_at=3,
           note="dual pair with smds_3_2_2_q64")

    _entry(out, "smds_3_2_2_q16b",
           make_code(F16, 3, 2, 2,
                     gen=[[(1,), (b(9), b(1)), (b(8), b(6))],
                          [(0, b(14)), (b(6), b(7)), (b(1), b(8))]],
                     par=[[(b(1), b(1), 1), (b(6), b(1), b(10)),
                           (b(11), b(1), b(5))]]),
           profile=(2, 3, 4, 5), strongly_mds=True, mdp=True, dfree=5, dfree_at=3,
           note="dual pair with smds_3_1_2_q16")

    _entry(out, "smds_3_1_2_q16b",
           make_code(F16, 3, 1, 2,
                     gen=[[(b(2), 1, 1), (b(7), 1, b(10)), (b(12), 1, b(5))]],
                     par=[[(b(5), b(4)), (b(3), b(8)), (b(9), b(2))],
                          [(b(9), b(12)), (b(5), b(14)), (b(3), b(3))]]),
           profile=(3, 5, 7, 9), strongly_mds=True, mdp=True, dfree=9, dfree_at=3,
           note="dual pair with smds_3_2_2_q16")

    _entry(out, "mds_3_1_2_q16",
           make_code(F16, 3, 1, 2,
                     gen=[[(1, b(1), b(4)), (b(10), b(2), b(4)), (b(8), b(5), 1)]],
                     par=[[(1,), (b(2), b(14)), (b(3), b(3))],
                          [(0, b(1)), (b(8), b(11)), (b(10), b(10))]]),
           spots={3: 8, 4: 9}, strongly_mds=False, mdp=False, dfree=9, dfree_at=4,
           note="free distance meets the bound late; the dual code has distance 4")

    return out


def fixture(name: str) -> Fixture:
    table = all_fixtures()
    if name not in table:
        raise KeyError(f"unknown fixture {name!r}")
    return table[name]


@lru_cache(maxsize=1)
def reference_toeplitz() -> tuple:
    """Known superregular lower triangular Toeplitz matrices, one per field.

    The 5x5/GF(8), 6x6/GF(16), 7x7/GF(32) and 8x8/GF(64) entries are exactly
    the matrices the bundled rate (n-1)/n codes were built from.
    """
    from .superregular import toeplitz

    prime_cols = {2: (1, 1), 3: (1, 1, 2), 5: (1, 1, 2, 1), 7: (1, 2, 1, 6, 4),
                  11: (1, 2, 1, 1, 3, 4), 17: (1, 7, 13, 2, 1, 4, 14)}
    ext_powers = {4: (0, 1, 0), 8: (0, 1, 3, 1, 0), 16: (0, 1, 5, 5, 1, 0),
                  32: (0, 1, 6, 9, 6, 1, 0), 64: (0, 1, 9, 33, 33, 9, 1, 0)}
    out = []
    for q, col in sorted(prime_cols.items()):
        out.append(toeplitz(standard_field(q), col))
    for q, powers in sorted(ext_powers.items()):
        F = standard_field(q)
        out.append(toeplitz(F, tuple(F.pow(2, ex) for ex in powers)))
    return tuple(out)


@lru_cache(maxsize=1)
def decode_walkthrough() -> dict:
    """The bundled received word plus the codeword it must decode to."""
    F = standard_field(8)
    g = lambda ex: F.pow(2, ex)
    received = word_from_polys(
        F, [(0, g(1), 0, 0, g(5)), (0, 0, g(3), g(2))], length=10)
    decoded = (poly_norm((1, g(1), 0, 0, g(5), g(2))),
               poly_norm((1, 0, g(3), g(2), 0, g(2))))
    return {
        "code": "smds_2_1_2_q8",
        "received": received,
        "decoded": decoded,
        "eta0": {0: (1, 1), 5: (g(2), g(2))},
    }


def write_fixture_files(dirpath) -> list:
    """Write every fixture as a .code file (plus the bundled received word).

    Returns the list of written paths.
    """
    base = Path(dirpath)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, fx in sorted(all_fixtures().items()):
        c = fx.code
        comment = f"{name}: ({c.n},{c.k},{c.delta}) code over GF({c.field.q})"
        if fx.note:
            comment += "\n" + fx.note
        path = base / f"{name}.code"
        save_code(c, path, comment)
        written.append(path)
    walk = decode_walkthrough()
    path = base / "received_2_1_2_q8.word"
    save_received(walk["received"], path,
                  f"received word for {walk['code']}; decodes to a codeword "
                  "at distance 4")
    written.append(path)
    return written
