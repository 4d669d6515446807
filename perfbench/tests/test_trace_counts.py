"""Count-type per-layer metrics repeat exactly across two traced runs.

Each workload is run traced twice, concurrently, with one fixed seed.  Spans
of a fixed block are deterministic work, so every count, ratio of counts and
per-call count must agree to the last digit, and so must the output digest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 3


def _run_pair(workload, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)]
    procs = [subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    results = []
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=170)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err
        lines = out.strip().splitlines()
        digest = next(ln.split()[1] for ln in lines
                      if ln.startswith("output_digest "))
        results.append((json.loads(lines[-1]), digest))
    return results


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[section]}


def _is_count(name):
    return (name.endswith((".calls", "_ratio", "_per_call"))
            or name.startswith(("decoder.cycles.", "trace.jobs", "trace.spans")))


@pytest.mark.parametrize("workload", ["classify", "decode", "build"])
def test_count_metrics_repeat_across_traced_runs(workload):
    (a, digest_a), (b, digest_b) = _run_pair(workload, trace=1)
    for res in (a, b):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == _declared("per_layer")
    counts = sorted(name for name in a["metrics"] if _is_count(name))
    assert len(counts) > 20
    differ = [name for name in counts
              if a["metrics"][name]["value"] != b["metrics"][name]["value"]]
    assert differ == []
    assert digest_a == digest_b


def test_untraced_run_reports_the_end_to_end_metrics():
    (a, digest_a), (b, digest_b) = _run_pair("decode", trace=0)
    for res in (a, b):
        assert res["correct"] and res["attempted"] >= 1
        assert set(res["metrics"]) == _declared("end_to_end")
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert digest_a == digest_b
