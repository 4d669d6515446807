"""Time both column-distance engines against their work estimates.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/engine_costs.py [--horizon H] [--repeats R]
        [FIXTURE ...]

For each bundled fixture (or each one named) and each j that ``profile``
searches up to the horizon (default M), it runs both engines at the floor
``profile`` passes, d^c_{j-1}, and prints their median times, their work
estimates from ``distances._engines``, the engine ``column_distance`` picks
and the faster one.  An engine whose candidate space exceeds the default
budget, or whose matrix the code lacks, shows "-".  A row whose engines
differ at least 2x and by at least 1 ms is marked "gap"; the last line gives
the range of ``SYNDROME_SCALE`` that picks the faster engine on every such
row.  After each fixture's rows, one line gives the rows of the window that
``has_mdp_minors`` walks and its median time.  Timings vary from machine to machine, so no test reads them; the
pinned picks live in ``test_distances.py``.
"""

import argparse
import math
import statistics
import time

from convmds import distances
from convmds.distances import (DEFAULT_BUDGET, SYNDROME_SCALE, _engines,
                               column_distance, has_mdp_minors, lm_params,
                               profile)
from convmds.fixtures import all_fixtures

CELL_SECONDS = 2.0  # stop repeating an engine once it has used this much


def profile_floors(c, horizon):
    """(j, floor, d^c_j) for each j that ``profile`` searches."""
    values = profile(c, horizon).values
    out = []
    for j, d in enumerate(values):
        out.append((j, values[j - 1] if j else 0, d))
        if d == values[-1] == distances.singleton_bound(c.n, c.k, c.delta):
            break  # saturated: profile fills in the rest
    return out


def picked(c, j, floor):
    """The engine ``column_distance`` runs at j given the floor."""
    seen = []
    real = {m: getattr(distances, f"_dc_{m}") for m in ("messages", "syndrome")}

    def spy(method):
        def run(*args):
            seen.append(method)
            return real[method](*args)
        return run

    try:
        for method in real:
            setattr(distances, f"_dc_{method}", spy(method))
        column_distance(c, j, at_least=floor)
    finally:
        for method, fn in real.items():
            setattr(distances, f"_dc_{method}", fn)
    return seen[0]


def median_ms(run, repeats):
    times = []
    while len(times) < repeats and sum(times) < CELL_SECONDS:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=int, default=None)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("fixtures", nargs="*")
    args = ap.parse_args()
    print(f"{'fixture':16} {'j':>2} {'floor':>5} {'dc':>3} {'msg_ms':>9} "
          f"{'syn_ms':>9} {'msg_work':>10} {'syn_work':>10} {'pick':>8} "
          f"{'faster':>8}")
    lo, hi = 0.0, math.inf
    for name, fx in sorted(all_fixtures().items()):
        if args.fixtures and name not in args.fixtures:
            continue
        c = fx.code
        _, M = lm_params(c.n, c.k, c.delta)
        horizon = M if args.horizon is None else args.horizon
        for j, floor, d in profile_floors(c, horizon):
            ms, works = {}, {}
            for space, work, method in _engines(c, j, floor):
                works[method] = work
                if space <= DEFAULT_BUDGET:
                    run = getattr(distances, f"_dc_{method}")
                    ms[method] = median_ms(lambda: run(c, j, floor),
                                           args.repeats)
            faster, mark = "-", ""
            if len(ms) == 2:
                faster = min(ms, key=ms.get)
                slow, fast = max(ms.values()), min(ms.values())
                if slow >= 2 * fast and slow - fast >= 1:
                    mark = "gap"
                    # auto picks messages iff msg_work <= scale * per-scale
                    x = works["messages"] * SYNDROME_SCALE / works["syndrome"]
                    if faster == "messages":
                        lo = max(lo, x)
                    else:
                        hi = min(hi, x)
            cells = [f"{ms[m]:9.2f}" if m in ms else f"{'-':>9}"
                     for m in ("messages", "syndrome")]
            cells += [f"{works[m]:10d}" if m in works else f"{'-':>10}"
                      for m in ("messages", "syndrome")]
            print(f"{name:16} {j:2d} {floor:5d} {d:3d} {' '.join(cells)} "
                  f"{picked(c, j, floor):>8} {faster:>8} {mark}", flush=True)
        L, _ = lm_params(c.n, c.k, c.delta)
        P = min((m for m in (c.par, c.gen) if m is not None),
                key=lambda m: m.rows)
        mdp_ms = median_ms(lambda: has_mdp_minors(c), args.repeats)
        print(f"{name:16} has_mdp_minors walks {(L + 1) * P.rows} rows of "
              f"{'H' if P is c.par else 'G'}'s lower window at L={L}: "
              f"{mdp_ms:.2f} ms", flush=True)
    print(f"SYNDROME_SCALE = {SYNDROME_SCALE}; the rows marked gap pick the "
          f"faster engine for any scale in [{lo:.3g}, {hi:.3g})")


if __name__ == "__main__":
    main()
