"""The benchmark's three workloads: classify, decode and build.

A workload is built once per set-up from the imported package, then hands
out blocks of jobs.  Block ``i`` is a pure function of (seed, i), so a run
that reaches block ``i`` executes the same jobs as every other run with that
seed.  A job is a zero-argument callable that calls only public package
functions, looked up on their module at call time so that the traced run's
wrappers are seen; ``check`` compares its output with a golden from the package's
fixtures or with an exact oracle written here, and runs outside the timed
region.  ``digest_item`` is the part of the checked output that goes into
the workload's output digest.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import random
from pathlib import Path

class Job:
    __slots__ = ("key", "run", "check", "digest_item")

    def __init__(self, key, run, check, digest_item=repr):
        self.key = key
        self.run = run
        self.check = check
        self.digest_item = digest_item


def _rng(seed: int, block: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{block}")


# --- exact oracles ------------------------------------------------------------


def _det_nonzero(F, rows) -> bool:
    """Whether a square matrix over F is nonsingular (plain elimination)."""
    M = [list(r) for r in rows]
    n = len(M)
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return False
        M[c], M[pr] = M[pr], M[c]
        inv = F.inv(M[c][c])
        for i in range(c + 1, n):
            if M[i][c]:
                f = F.mul(inv, M[i][c])
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[c])]
    return True


def superregular_oracle(F, col) -> bool:
    """Every proper minor of the lower triangular Toeplitz matrix is nonzero."""
    l = len(col)
    for r in range(1, l + 1):
        for rows in itertools.combinations(range(l), r):
            for cols in itertools.combinations(range(l), r):
                if any(j > i for i, j in zip(rows, cols)):
                    continue
                sub = [[col[i - j] if i >= j else 0 for j in cols] for i in rows]
                if not _det_nonzero(F, sub):
                    return False
    return True


def encode_oracle(F, message, gen_entries, length):
    """Codeword blocks 0..length-1 of message(D) * G(D), by convolution."""
    n = len(gen_entries[0])
    out = [[0] * n for _ in range(length)]
    for r, u in enumerate(message):
        for i in range(n):
            for du, a in enumerate(u):
                if not a:
                    continue
                for dg, b in enumerate(gen_entries[r][i]):
                    if b and du + dg < length:
                        out[du + dg][i] = F.add(out[du + dg][i], F.mul(a, b))
    return tuple(tuple(row) for row in out)


def max_window_weight(symbols, M: int) -> int:
    counts = [sum(1 for x in row if x) for row in symbols]
    return max(sum(counts[j:j + M + 1]) for j in range(len(counts)))


# --- classify -------------------------------------------------------------------


class Classify:
    """``convmds classify --format csv`` plus ``has_mdp_minors`` per fixture.

    The seed only permutes the job order.
    """

    name = "classify"

    def __init__(self, pkg, root: Path, seed: int):
        self.pkg = pkg
        self.seed = seed
        table = pkg.fixtures.all_fixtures()
        paths = sorted((root / "fixtures").glob("*.code"))
        if sorted(p.stem for p in paths) != sorted(table):
            raise RuntimeError("fixtures/*.code does not match convmds.fixtures")
        self.items = [(p.stem, str(p), table[p.stem]) for p in paths]

    def block(self, i: int):
        items = list(self.items)
        _rng(self.seed, i, "classify").shuffle(items)
        return [self._job(*item) for item in items]

    def _job(self, name, path, fx):
        cli, distances = self.pkg.cli, self.pkg.distances
        argv = ["classify", "--code", path, "--format", "csv"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue(), distances.has_mdp_minors(fx.code)

        return Job(name, run, lambda out: self._check(fx, out))

    def _check(self, fx, out):
        rc, text, mdp_minors = out
        if rc != 0:
            return [f"exit code {rc}"]
        rows = list(csv.reader(io.StringIO(text)))
        got = {r[0]: r[1] for r in rows[1:] if len(r) == 2}
        c = fx.code
        _, M = self.pkg.distances.lm_params(c.n, c.k, c.delta)
        known = dict(enumerate(fx.profile))
        known.update(fx.spots)
        try:
            values = [int(v) for v in got["profile"].split(",")]
        except (KeyError, ValueError):
            return [f"unparsable output {text!r}"]
        want = {
            "code": f"n={c.n} k={c.k} delta={c.delta}",
            "strongly-MDS": "true" if fx.strongly_mds else "false",
            "MDP": "true" if fx.mdp else "false",
        }
        if fx.dfree_at is not None and fx.dfree_at <= M:
            want["free-distance"] = f"{fx.dfree} (exact)"
            want["MDS"] = "true"
        else:
            want["free-distance"] = f"{known[M]} (lower_bound)"
            want["MDS"] = "unknown"
        problems = [f"{k}: {got.get(k)!r} != {v!r}"
                    for k, v in want.items() if got.get(k) != v]
        if len(values) != M + 1:
            problems.append(f"profile length {len(values)} != {M + 1}")
        problems += [f"d^c_{j} = {values[j]} != {d}" for j, d in known.items()
                     if j < len(values) and values[j] != d]
        if mdp_minors != fx.mdp:
            problems.append(f"has_mdp_minors {mdp_minors} != {fx.mdp}")
        return problems


# --- decode ---------------------------------------------------------------------


class Decode:
    """Seeded channel simulations on the decodable fixtures.

    Each block holds, per fixture, COMPLIANT words with at most t errors in
    every window (recovered exactly) and ADVERSARIAL words with t+1 errors
    in one window (flagged, their failed cycles run the search dry).
    """

    name = "decode"
    COMPLIANT = 8
    ADVERSARIAL = 2

    def __init__(self, pkg, root: Path, seed: int):
        self.pkg = pkg
        self.seed = seed
        lm = pkg.distances.lm_params
        self.items = []
        for fx in pkg.selftest.decodable_fixtures():
            c = fx.code
            _, M = lm(c.n, c.k, c.delta)
            gen = pkg.code.window_generator(c).entries
            self.items.append((fx.name, c, M, (M + 1) // 2, 12 + 2 * M, gen))

    def block(self, i: int):
        rng = _rng(self.seed, i, "decode")
        jobs = []
        for item in self.items:
            c = item[1]
            for adversarial in ([False] * self.COMPLIANT
                                + [True] * self.ADVERSARIAL):
                trial = rng.getrandbits(32)
                msg = [tuple(rng.randrange(c.field.q) for _ in range(5))
                       for _ in range(c.k)]
                jobs.append(self._job(item, trial, msg, adversarial))
        rng.shuffle(jobs)
        return jobs

    def _job(self, item, trial, msg, adversarial):
        name, c, M, t, horizon, gen = item
        decoder = self.pkg.decoder

        def run():
            err = decoder.make_error_pattern(c.field, horizon + 1, c.n, M, t,
                                             seed=trial, adversarial=adversarial)
            return err, decoder.simulate(c, msg, err, horizon)

        def check(out):
            err, rep = out
            heavy = max_window_weight(err.symbols, M) > t
            if adversarial:
                if not heavy or rep.constraint_ok is not False:
                    return ["adversarial word not flagged"]
                return []
            if heavy or rep.constraint_ok is not True:
                return ["compliant pattern broke its window cap"]
            core = rep.core_end + 1
            sent = encode_oracle(c.field, msg, gen, horizon + 1)
            if not (rep.ok and rep.matched) or rep.decoded[:core] != sent[:core]:
                return [f"compliant word not recovered: {rep.status}"]
            return []

        def digest_item(out):
            err, rep = out
            cycles = [(y.j, y.syndrome_weight, y.method, y.eta0, y.tail)
                      for y in rep.cycles]
            return repr((err.symbols, rep.status, rep.matched,
                         rep.constraint_ok, cycles))

        kind = "adv" if adversarial else "ok"
        return Job(f"{name}/{kind}/{trial}", run, check, digest_item)

    @staticmethod
    def cycle_counts(outputs):
        counts = {"zero": 0, "shortcut": 0, "search": 0, "failed": 0}
        for _, rep in outputs:
            for y in rep.cycles:
                counts[y.method.split(":")[0]] += 1
        return counts


# --- build ----------------------------------------------------------------------

# First lexicographic hits of the exhaustive Toeplitz searches (None: no hit).
SEARCH_GOLDENS = {(5, 8): (1, 1, 2, 6, 3), (6, 16): (1, 1, 2, 3, 8, 1),
                  (5, 4): None}
# (fixture, n, delta, q, Toeplitz size, d^c_M), as in the selftest goldens.
CONSTRUCTION_GOLDENS = (
    ("smds_2_1_2_q8", 2, 2, 8, 5, 6),
    ("smds_2_1_3_q32", 2, 3, 32, 7, 8),
    ("smds_3_2_2_q64", 3, 2, 64, 8, 5),
    ("smds_4_3_1_q16", 4, 1, 16, 6, 3),
)


class Build:
    """Superregular searches and checks, and the certified constructions.

    Each block runs the exhaustive searches, ``is_superregular`` on every
    reference matrix and its inverse, and the golden construction pipelines.
    Block 0 adds one seeded 7x7/GF(32) search with its seed drawn from the
    workload seed.  A seeded search costs 0.4 s on average with about as
    large a spread, so one in every block would make the run's cost depend
    on the seed far more than on the package.
    """

    name = "build"
    FIELD_SIZES = (4, 8, 16, 32, 64)

    def __init__(self, pkg, root: Path, seed: int):
        self.pkg = pkg
        self.seed = seed
        self.fields = {q: pkg.galois.standard_field(q)
                       for q in self.FIELD_SIZES}
        sr = pkg.superregular
        self.refs = {(T.field.q, T.size): T
                     for T in pkg.fixtures.reference_toeplitz()}
        self.matrices = []
        for (q, size), T in sorted(self.refs.items()):
            self.matrices.append((f"ref/{q}/{size}", T))
            self.matrices.append((f"inv/{q}/{size}", sr.inverse_superregular(T)))
        self.fixtures = pkg.fixtures.all_fixtures()

    def block(self, i: int):
        rng = _rng(self.seed, i, "build")
        jobs = [self._search(l, q) for (l, q) in SEARCH_GOLDENS]
        if i == 0:
            jobs.append(self._seeded(rng.getrandbits(32)))
        jobs += [self._check(key, T) for key, T in self.matrices]
        jobs += [self._construct(*g) for g in CONSTRUCTION_GOLDENS]
        jobs.append(self._dual())
        rng.shuffle(jobs)
        return jobs

    def _search(self, l, q):
        sr, F = self.pkg.superregular, self.fields[q]
        want = SEARCH_GOLDENS[(l, q)]

        def run():
            T = sr.search_toeplitz(l, F)
            return None if T is None else T.col

        return Job(f"search/{l}/{q}", run,
                   lambda col: [] if col == want else [f"hit {col} != {want}"])

    def _seeded(self, seed):
        sr, F = self.pkg.superregular, self.fields[32]

        def run():
            T = sr.search_toeplitz(7, F, mode="seeded", seed=seed)
            return None if T is None else T.col

        def check(col):
            if col is None or col[0] != 1 or not superregular_oracle(F, col):
                return [f"seeded hit {col} is not a superregular column"]
            return []

        return Job(f"seeded/7/32/{seed}", run, check)

    def _check(self, key, T):
        sr = self.pkg.superregular
        return Job(f"check/{key}", lambda: sr.is_superregular(T),
                   lambda ok: [] if ok is True else ["reported not superregular"])

    def _construct(self, name, n, delta, q, size, want_d):
        construct = self.pkg.construct
        F, T = self.fields[q], self.refs[(q, size)]
        want_par = self.fixtures[name].code.par.entries

        def run():
            trace = construct.construct_strongly_mds(n, delta, F, T=T)
            return trace.code.par.entries, trace.certificates

        def check(out):
            par, certs = out
            problems = [] if par == want_par else ["parity differs from fixture"]
            problems += [f"certificate {k} = {v}" for k, v in certs.items()
                         if k != "d_c_M" and v is not True]
            if certs.get("d_c_M") != want_d:
                problems.append(f"d_c_M {certs.get('d_c_M')} != {want_d}")
            return problems

        return Job(f"construct/{name}", run, check)

    def _dual(self):
        construct = self.pkg.construct
        F, T = self.fields[64], self.refs[(64, 8)]
        want = self.fixtures["smds_3_1_2_q64"].code.gen.entries

        def run():
            trace = construct.construct_dual_mds(3, 2, F, T=T)
            return trace.code.gen.entries, trace.certificates

        def check(out):
            gen, certs = out
            problems = [] if gen == want else ["generator differs from fixture"]
            return problems + [f"certificate {k} = {v}" for k, v in certs.items()
                               if k != "d_c_M" and v is not True]

        return Job("construct/dual_3_1_2_q64", run, check)


WORKLOADS = {w.name: w for w in (Classify, Decode, Build)}
