"""Command line front end.

Eight subcommands cover the package surface: ``construct`` builds a code
from a superregular Toeplitz matrix, ``distances`` and ``classify`` report
column distances and flags, ``superregular`` checks or searches Toeplitz
matrices, ``decode`` runs feedback decoding on a received word file,
``simulate`` measures recovery over seeded error channels, ``dual`` flips a
code description, and ``selftest`` replays the bundled golden checks.

Every table is printed human-aligned followed by a comma-separated copy
(``--format csv`` keeps only the latter).  Domain failures exit 1 after a
single line ``error[CODE]: message`` on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import selftest as selftest_mod
from .code import dual, format_code_file, load_code
from .construct import construct_dual_mds, construct_strongly_mds
from .decoder import (DEFAULT_SOLVE_BUDGET, channel_trials, decoding_radius,
                      feedback_decode, load_received, make_received,
                      save_received, simulate, simulation_horizon)
from .distances import DEFAULT_BUDGET, lm_params, profile
from .errors import BadParams, CodingError, NoSuperregularFound, ParseError
from .galois import parse_field
from .poly import format_poly
from .superregular import (SEARCH_BUDGET, is_superregular,
                           search_general_toeplitz, search_toeplitz, toeplitz)


# --- output helpers ---------------------------------------------------------


def _csv_block(headers, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(headers)
    for row in rows:
        w.writerow([str(x) for x in row])
    return buf.getvalue().rstrip("\n")


def emit_table(headers, rows, fmt: str) -> None:
    rows = [[str(x) for x in row] for row in rows]
    if fmt == "text":
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(x)) for w, x in zip(widths, row)]
        head = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
        print(head)
        for row in rows:
            print("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
        print()
    print(_csv_block(headers, rows))


def _ints(text: str):
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise ParseError(f"bad integer list: {text!r}")


def _flag(b) -> str:
    if b is None:
        return "unknown"
    return "true" if b else "false"


def _write_or_print(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------------


def cmd_construct(args) -> int:
    field = parse_field(args.field)
    T = toeplitz(field, _ints(args.toeplitz)) if args.toeplitz else None
    build = construct_dual_mds if args.dual else construct_strongly_mds
    trace = build(args.n, args.delta, field, T=T, budget=args.budget)
    c = trace.code
    rows = [
        ("field", field),
        ("code", f"n={c.n} k={c.k} delta={c.delta}"),
        ("tau", trace.tau),
        ("toeplitz", ",".join(str(x) for x in trace.toeplitz.col)),
        ("a", format_poly(trace.a)),
    ]
    for i, b in enumerate(trace.b, start=1):
        rows.append((f"b{i}", format_poly(b)))
    for key, val in trace.certificates.items():
        rows.append((key, _flag(val) if isinstance(val, bool) else val))
    emit_table(("property", "value"), rows, args.format)
    body = ""
    if not args.out:
        body = "\n"
    _write_or_print(body + format_code_file(c), args.out)
    return 0


def cmd_distances(args) -> int:
    prof = profile(load_code(args.code), args.horizon, args.budget)
    L, M, sing = prof.L, prof.M, prof.singleton
    rows = []
    for j, d in enumerate(prof.values):
        bound = prof.bound_at(j)
        mark = []
        if j == L:
            mark.append("L")
        if j == M:
            mark.append("M")
        rows.append((j, d, bound, "tight" if d == bound else "",
                     "".join(mark)))
    emit_table(("j", "dc", "bound", "status", "mark"), rows, args.format)
    print()
    summary = [
        ("L", L), ("M", M), ("singleton", sing),
        ("strongly-MDS", _flag(prof.strongly_mds)),
        ("MDP", _flag(prof.mdp)),
    ]
    emit_table(("property", "value"), summary, args.format)
    return 0


def cmd_classify(args) -> int:
    c = load_code(args.code)
    prof = profile(c, args.horizon, args.budget)
    fd = prof.free_distance
    mds = True if fd.status == "exact" else None
    rows = [
        ("field", c.field),
        ("code", f"n={c.n} k={c.k} delta={c.delta}"),
        ("L", prof.L),
        ("M", prof.M),
        ("singleton", prof.singleton),
        ("profile", ",".join(str(v) for v in prof.values)),
        ("strongly-MDS", _flag(prof.strongly_mds)),
        ("MDP", _flag(prof.mdp)),
        ("MDS", _flag(mds)),
        ("free-distance", f"{fd.value} ({fd.status})"),
    ]
    emit_table(("property", "value"), rows, args.format)
    return 0


def cmd_superregular(args) -> int:
    if args.check:
        field_text, col = _split_check(args.check)
        field = parse_field(field_text)
        T = toeplitz(field, col)
        print(_flag(is_superregular(T)))
        return 0
    field = parse_field(args.field)
    budget = SEARCH_BUDGET if args.budget is None else args.budget
    if args.general:
        rows = search_general_toeplitz(args.search, field, budget)
        if rows is None:
            raise NoSuperregularFound(
                f"no general {args.search}x{args.search} hit over {field}")
        for row in rows:
            print(" ".join(str(x) for x in row))
        return 0
    T = search_toeplitz(args.search, field, budget=budget)
    if T is None:
        raise NoSuperregularFound(
            f"no {args.search}x{args.search} hit over {field}")
    print(f"{field} ; {','.join(str(x) for x in T.col)}")
    return 0


def _split_check(text: str):
    """Split 'GF(...);t1,...,tl' into the field text and the column."""
    close = text.find(")")
    if close < 0 or ";" not in text[close + 1:]:
        raise ParseError(f"expected 'GF(...);t1,...,tl', got {text!r}")
    rest = text[close + 1:].strip()
    if not rest.startswith(";"):
        raise ParseError(f"expected ';' after the field in {text!r}")
    return text[:close + 1], _ints(rest[1:])


def cmd_decode(args) -> int:
    c = load_code(args.code)
    vhat = load_received(args.received)
    rep = feedback_decode(vhat, c, args.paranoid, args.budget)
    rows = [(cyc.j, cyc.syndrome_weight, cyc.method,
             " ".join(str(x) for x in cyc.eta0), "tail" if cyc.tail else "")
            for cyc in rep.cycles]
    emit_table(("j", "weight", "method", "eta0", "note"), rows, args.format)
    print()
    summary = [("status", rep.status)]
    for i, p in enumerate(rep.decoded_polys()):
        summary.append((f"v{i}", format_poly(p)))
    emit_table(("property", "value"), summary, args.format)
    if args.out:
        save_received(make_received(c.field, rep.decoded[:rep.core_end + 1]),
                      args.out)
        print(f"wrote {args.out}")
    return 0 if rep.ok else 1


def cmd_simulate(args) -> int:
    if args.trials < 0:
        raise BadParams(f"--trials must be at least 0, got {args.trials}")
    c = load_code(args.code)
    _, M = lm_params(c.n, c.k, c.delta)
    horizon = simulation_horizon(M) if args.horizon is None else args.horizon
    if horizon < M:
        raise BadParams(f"horizon {horizon} is shorter than one window (M={M})")
    rows = []
    recovered = flagged = 0
    trials = channel_trials(c, args.trials, args.seed, horizon,
                            args.adversarial)
    for trial, (msg, err) in enumerate(trials):
        rep = simulate(c, msg, err, horizon, args.paranoid, args.budget)
        ok = rep.ok and rep.matched
        recovered += bool(ok)
        flagged += not rep.constraint_ok
        rows.append((trial, err.weight(), rep.status, _flag(rep.matched),
                     _flag(not rep.constraint_ok)))
    emit_table(("trial", "errors", "status", "matched", "flagged"),
               rows, args.format)
    print()
    summary = [
        ("code", f"n={c.n} k={c.k} delta={c.delta}"),
        ("M", M), ("t", decoding_radius(M)), ("trials", args.trials),
        ("recovered", f"{recovered}/{args.trials}"),
        ("flagged", f"{flagged}/{args.trials}"),
    ]
    emit_table(("property", "value"), summary, args.format)
    return 0


def cmd_dual(args) -> int:
    c = load_code(args.code)
    d = dual(c)
    print(f"dual code n={d.n} k={d.k} delta={d.delta} over {d.field}")
    _write_or_print(format_code_file(d), args.out)
    return 0


def cmd_selftest(args) -> int:
    names = args.only.split(",") if args.only else None
    results = selftest_mod.run_checks(names)
    rows = [(r.name, "PASS" if r.ok else "FAIL", f"{r.seconds:.2f}",
             r.detail) for r in results]
    emit_table(("check", "result", "seconds", "detail"), rows, args.format)
    bad = [r for r in results if not r.ok]
    print()
    print(f"{len(results) - len(bad)}/{len(results)} checks passed")
    return 1 if bad else 0


# --- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv"), default="text",
                        help="table output style")

    p = argparse.ArgumentParser(
        prog="convmds",
        description="strongly MDS convolutional codes: build, classify, decode")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", parents=[common],
                        help="build a certified code from a Toeplitz matrix")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--delta", type=int, required=True)
    pc.add_argument("--field", required=True,
                    help="field spec, e.g. 'GF(2^3;1,1,0,1)'")
    pc.add_argument("--toeplitz", default=None,
                    help="comma separated first column (searched when absent)")
    pc.add_argument("--dual", action="store_true",
                    help="build the rate 1/n dual construction")
    pc.add_argument("--out", default=None, help="write the code file here")
    pc.set_defaults(fn=cmd_construct)

    pd = sub.add_parser("distances", parents=[common],
                        help="column distance table for a code file")
    pd.add_argument("--code", required=True)
    pd.add_argument("--horizon", type=int, default=None)
    pd.set_defaults(fn=cmd_distances)

    pk = sub.add_parser("classify", parents=[common],
                        help="profile and strongly-MDS / MDP / MDS flags")
    pk.add_argument("--code", required=True)
    pk.add_argument("--horizon", type=int, default=None)
    pk.set_defaults(fn=cmd_classify)

    ps = sub.add_parser("superregular", parents=[common],
                        help="check or search superregular Toeplitz matrices")
    ps.add_argument("--check", default=None,
                    help="'GF(...);t1,...,tl' to verify one column")
    ps.add_argument("--search", type=int, default=None, metavar="SIZE",
                    help="search for a superregular SIZExSIZE matrix")
    ps.add_argument("--field", default=None, help="field spec for --search")
    ps.add_argument("--general", action="store_true",
                    help="search full Toeplitz matrices (all minors nonzero)")
    ps.set_defaults(fn=cmd_superregular)

    pe = sub.add_parser("decode", parents=[common],
                        help="feedback-decode a received word file")
    pe.add_argument("--code", required=True)
    pe.add_argument("--received", required=True)
    pe.add_argument("--paranoid", action="store_true",
                    help="cross-check the shortcut against the full search")
    pe.add_argument("--out", default=None,
                    help="write the decoded word here")
    pe.set_defaults(fn=cmd_decode)

    pm = sub.add_parser("simulate", parents=[common],
                        help="seeded error-channel recovery runs")
    pm.add_argument("--code", required=True)
    pm.add_argument("--trials", type=int, required=True)
    pm.add_argument("--adversarial", action="store_true",
                    help="overload one window beyond the decodable weight")
    pm.add_argument("--horizon", type=int, default=None)
    pm.add_argument("--paranoid", action="store_true")
    pm.add_argument("--seed", type=int, default=0,
                    help="seed of the channel's generator stream")
    pm.set_defaults(fn=cmd_simulate)

    pu = sub.add_parser("dual", parents=[common],
                        help="emit the dual code description")
    pu.add_argument("--code", required=True)
    pu.add_argument("--out", default=None)
    pu.set_defaults(fn=cmd_dual)

    pt = sub.add_parser("selftest", parents=[common],
                        help="run the bundled golden checks")
    pt.add_argument("--only", default=None,
                    help="comma separated subset of check names")
    pt.set_defaults(fn=cmd_selftest)

    for searching, budget in ((pc, SEARCH_BUDGET), (pd, DEFAULT_BUDGET),
                              (pk, DEFAULT_BUDGET), (ps, None),
                              (pe, DEFAULT_SOLVE_BUDGET),
                              (pm, DEFAULT_SOLVE_BUDGET)):
        searching.add_argument("--budget", type=int, default=budget,
                               help="work cap for searches: candidates, "
                               "supports or Toeplitz shift classes")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "superregular":
        if bool(args.check) == bool(args.search is not None):
            parser.error("superregular needs exactly one of --check / --search")
        if args.search is not None and not args.field:
            parser.error("--search requires --field")
        if args.check and (args.field is not None or args.general
                           or args.budget is not None):
            parser.error("--check reads none of --field, --general, --budget")
    try:
        return args.fn(args)
    except CodingError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
