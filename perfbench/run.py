"""Benchmark for the convmds package: classify, decode and build workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout.  One job is one
call sequence into the package's public functions; jobs run back to back in
one thread (a closed loop with one client).  A run prints a readable summary
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs whole blocks of jobs (see workloads.py) until the timed
job time reaches ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` runs block 0 untraced until half of ``--seconds`` is used,
then block 0 once more with spans recorded around every traced package
function, and reports the per-layer metrics derived from those spans.  The
spans are written to ``perfbench/out/<workload>.spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import refclock  # noqa: E402  (the script's own directory is on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TAIL_SAMPLES = 10
MODULES = ("galois", "poly", "linalg", "code", "distances", "superregular",
           "construct", "decoder", "fixtures", "selftest", "cli")

# (module, function, outcome flag) for every traced layer boundary.
TRACED = (
    ("cli", "main", None),
    ("code", "load_code", None),
    ("code", "sliding_parity", None),
    ("distances", "column_distance", None),
    ("distances", "profile", None),
    ("distances", "free_distance", None),
    ("distances", "has_mdp_minors", None),
    ("distances", "is_strongly_mds", None),
    ("linalg", "in_span", lambda r: r is True),
    ("linalg", "solve", lambda r: r is not None),
    ("linalg", "mat_det", lambda r: r == 0),
    ("superregular", "is_superregular", None),
    ("superregular", "search_toeplitz", None),
    ("construct", "construct_strongly_mds", None),
    ("construct", "build_hhat", None),
    ("construct", "column_property_holds", None),
    ("construct", "solve_ab", None),
    ("decoder", "make_error_pattern", None),
    ("decoder", "simulate", None),
    ("decoder", "feedback_decode", None),
    ("decoder", "solve_eta0", None),
    ("decoder", "encode_word", None),
    ("poly", "series_div", None),
)
JOB_SPAN = "bench.job"

# Per-layer metrics: span name and the quantities derived from its spans.
LAYER_METRICS = (
    ("linalg.in_span", "calls total_s true_ratio share"),
    ("linalg.solve", "calls total_s consistent_ratio share"),
    ("linalg.mat_det", "calls total_s zero_ratio share"),
    ("distances.column_distance", "calls total_s self_s"),
    ("distances.profile", "total_s"),
    ("distances.free_distance", "total_s"),
    ("distances.has_mdp_minors", "total_s"),
    ("superregular.is_superregular", "calls total_s self_s minors_per_call"),
    ("superregular.search_toeplitz", "calls total_s candidates_per_call"),
    ("construct.construct_strongly_mds", "total_s"),
    ("construct.build_hhat", "total_s"),
    ("construct.column_property_holds", "total_s"),
    ("construct.solve_ab", "total_s"),
    ("construct.is_strongly_mds", "total_s"),
    ("decoder.make_error_pattern", "calls total_s share"),
    ("decoder.simulate", "total_s self_s"),
    ("decoder.feedback_decode", "total_s self_s"),
    ("decoder.solve_eta0", "calls total_s supports_per_call share"),
    ("decoder.encode_word", "total_s"),
    ("poly.series_div", "calls total_s"),
    ("code.load_code", "total_s"),
    ("code.sliding_parity", "calls total_s"),
    ("cli.main", "total_s self_s"),
)
# is_strongly_mds lives in distances; construct is its only caller here.
SPAN_OF = {"construct.is_strongly_mds": "distances.is_strongly_mds"}
CHILD_OF = {"minors_per_call": "linalg.mat_det",
            "candidates_per_call": "superregular.is_superregular",
            "supports_per_call": "linalg.solve"}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "share": "ratio",
         "minors_per_call": "count/call", "candidates_per_call": "count/call",
         "supports_per_call": "count/call"}


def import_package():
    """Import convmds afresh from the checkout's src/ and return its modules."""
    for key in [k for k in sys.modules
                if k == "convmds" or k.startswith("convmds.")]:
        del sys.modules[key]
    pkg = importlib.import_module("convmds")
    if Path(pkg.__file__).resolve().parent != SRC / "convmds":
        raise ImportError(f"convmds imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"convmds.{m}") for m in MODULES})


def set_up(workload: str, seed: int):
    """Import the package, fill the fixture caches and build the inputs.

    Returns the workload and the set-up time, measured and rescaled.
    """
    before = refclock.tick()
    start = time.perf_counter()
    pkg = import_package()
    pkg.fixtures.all_fixtures()
    pkg.fixtures.reference_toeplitz()
    wl = workloads.WORKLOADS[workload](pkg, ROOT, seed)
    took = time.perf_counter() - start
    return wl, took, refclock.rescale(took, [before, refclock.tick()])


class Phase:
    """Job times, failures and block-0 outputs of one run phase.

    ``times`` holds each job's measured wall time and ``scaled`` the same
    time rescaled by the reference ticks taken on either side of the job
    and, for a long job, during it.
    """

    def __init__(self, probe=True):
        self.probe = refclock.Probe(enabled=probe)
        self.times = []
        self.scaled = []
        self.failed = 0
        self.problems = []
        self.first_outputs = None

    @property
    def busy(self) -> float:
        return math.fsum(self.times)

    def run(self, jobs, call=None):
        """Run the jobs back to back, timing each; check each afterwards."""
        clock = time.perf_counter
        probe = self.probe
        outputs = []
        before = refclock.tick()
        for job in jobs:
            probe.start()
            t0 = clock()
            try:
                out = job.run() if call is None else call(job.run)
                error = None
            except Exception as exc:  # a failing job is counted, never fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                took = clock() - t0
                probe.stop()
            took -= probe.spent
            after = refclock.tick()
            self.times.append(took)
            self.scaled.append(
                refclock.rescale(took, [before, *probe.ticks, after]))
            before = after
            if error is None:
                try:
                    problems = job.check(out)
                except Exception as exc:  # an unreadable output is a failure
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems += [f"{job.key}: {p}" for p in problems]
            outputs.append((job, out, error))
        if self.first_outputs is None:
            self.first_outputs = outputs
        return outputs


def output_digest(outputs) -> str:
    """sha256 over every job's checked output, independent of job order."""
    lines = sorted(f"{job.key}\t{error if error else job.digest_item(out)}"
                   for job, out, error in outputs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def tail_percentile(times):
    """p90 when at least TAIL_SAMPLES jobs lie beyond it, else the highest
    percentile that has TAIL_SAMPLES beyond it.

    Returns (value, percentile, samples beyond it).
    """
    xs = sorted(times)
    n = len(xs)
    rank = min(math.ceil(0.9 * n), max(1, n - TAIL_SAMPLES))
    return xs[rank - 1], 100.0 * rank / n, n - rank


def timing_metrics(times, sizes, setup_times):
    """setup_s, jobs_per_s, job_p50_ms and job_p90_ms from one kind of time.

    ``sizes`` are the job counts of the consecutive blocks in ``times``.
    jobs_per_s is the median over blocks of each block's job rate, so that
    one slow job, such as block 0's seeded search, moves it little.
    """
    rates, end = [], 0
    for size in sizes:
        rates.append(size / math.fsum(times[end:end + size]))
        end += size
    p90, pct, beyond = tail_percentile(times)
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_p90_ms": 1000 * p90,
    }, f"job_p90_ms is p{pct:.1f} over {len(times)} jobs ({beyond} beyond)"


def end_to_end(wl, seconds: float, setups):
    phase = Phase()
    sizes = []
    while not sizes or phase.busy < seconds:
        sizes.append(len(phase.run(wl.block(len(sizes)))))
    scaled, note = timing_metrics(phase.scaled, sizes, [s for _, s in setups])
    measured, _ = timing_metrics(phase.times, sizes, [m for m, _ in setups])
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
             "job_p90_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = [f"blocks {len(sizes)}, jobs {len(phase.times)}, "
             f"measured job time {phase.busy:.3f} s", note,
             "measured, before rescaling to the reference tick: "
             + "  ".join(f"{k} {v:.6g}" for k, v in measured.items()),
             "set-ups (measured s): "
             + " ".join(f"{m:.4f}" for m, _ in setups)]
    return phase, metrics, notes


def layer_metrics(summary, extra):
    jobs_s = summary.total_s(JOB_SPAN)
    out = {}
    for name, quantities in LAYER_METRICS:
        span = SPAN_OF.get(name, name)
        for qty in quantities.split():
            if qty == "calls":
                value = summary.calls(span)
            elif qty == "total_s":
                value = summary.total_s(span)
            elif qty == "self_s":
                value = summary.self_s(span)
            elif qty == "share":
                value = summary.total_s(span) / jobs_s if jobs_s else 0.0
            elif qty.endswith("_ratio"):
                value = summary.flag_ratio(span)
            else:
                value = summary.children_per_call(span, CHILD_OF[qty])
            out[f"{name}.{qty}"] = (value, UNITS.get(qty, "ratio"))
    for kind, count in extra["cycles"].items():
        out[f"decoder.cycles.{kind}"] = (count, "count")
    out["trace.jobs"] = (summary.calls(JOB_SPAN), "count")
    out["trace.spans"] = (summary.spans, "count")
    out["trace.overhead_frac"] = (extra["overhead"], "ratio")
    return out


def traced(wl, seconds: float):
    """Block 0 untraced for half the time, then block 0 once with spans.

    Both phases go without in-job ticks, so that no tick lands in a span and
    the two rates in trace.overhead_frac are rescaled alike.
    """
    plain = Phase(probe=False)
    while not plain.times or plain.busy < seconds / 2:
        plain.run(wl.block(0))
    tracer = spans.Tracer()
    call = tracer.job_runner(JOB_SPAN)
    jobs = wl.block(0)
    tracer.install("convmds", TRACED)
    try:
        phase = Phase(probe=False)
        outputs = phase.run(jobs, call)
    finally:
        tracer.uninstall()
    decoded = [out for job, out, error in outputs
               if error is None and wl.name == "decode"]
    cycles = workloads.Decode.cycle_counts(decoded)
    plain_rate = len(plain.scaled) / math.fsum(plain.scaled)
    traced_rate = len(phase.scaled) / math.fsum(phase.scaled)
    summary = tracer.summary()
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"{wl.name}.spans"
    tracer.write(path)
    metrics = layer_metrics(summary, {
        "cycles": cycles, "overhead": 1 - traced_rate / plain_rate})
    notes = [f"untraced block 0: {len(plain.times)} jobs in "
             f"{plain.busy:.3f} s; traced: {len(phase.times)} jobs in "
             f"{phase.busy:.3f} s, {summary.spans} spans written to "
             f"{path.relative_to(ROOT)}"]
    plain.times += phase.times
    plain.scaled += phase.scaled
    plain.failed += phase.failed
    plain.problems += phase.problems
    return plain, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "convmds" / "__init__.py").is_file():
        print(f"error: no convmds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        wl, measured, scaled = set_up(args.workload, args.seed)
        setups.append((measured, scaled))
    if args.trace:
        phase, metrics, notes = traced(wl, args.seconds)
    else:
        phase, metrics, notes = end_to_end(wl, args.seconds, setups)
    attempted = len(phase.times)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(line)
    print(f"failed {phase.failed}/{attempted}  "
          f"failed_frac {phase.failed / attempted}")
    for problem in phase.problems[:20]:
        print(f"  FAIL {problem}")
    print(f"output_digest {output_digest(phase.first_outputs)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
