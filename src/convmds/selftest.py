"""Golden self-checks over the bundled reference data.

Every check recomputes something the package claims about its fixtures: the
column distance profiles, the classification flags, the superregular
reference matrices, the construction pipeline golds, the decoding
walkthrough, and the bound arithmetic.  The CLI ``selftest`` command runs
the registry and prints one pass/fail row per check; the test suite calls
the same helpers with heavier parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .code import dual, window_generator
from .construct import construct_dual_mds, construct_strongly_mds
from .decoder import (channel_trials, decoding_radius, feedback_decode,
                      make_error_pattern, simulate, simulation_horizon)
from .distances import (free_distance, griesmer_feasible, has_mdp_bruteforce,
                        has_mdp_minors, lm_params, profile, _dc_messages,
                        _dc_syndrome, _engines)
from .errors import BadParams, CodingError
from .fixtures import (all_fixtures, decode_walkthrough, fixture,
                       reference_toeplitz)
from .galois import standard_field
from .superregular import (binomial_toeplitz, inverse_superregular,
                           is_superregular, proper_minors_positive,
                           search_general_toeplitz, search_toeplitz,
                           smallest_prime_superregular, theorem_a_check)

AGREEMENT_BUDGET = 1 << 20


# --- fixture-level helpers (shared with the test suite) ---------------------


def verify_fixture(fx) -> list:
    """Recompute a fixture's profile, spots and flags; returns problems."""
    c = fx.code
    _, M = lm_params(c.n, c.k, c.delta)
    horizon = max([M] + list(fx.spots))
    prof = profile(c, horizon=horizon)
    problems = []
    if fx.profile and tuple(prof.values[:len(fx.profile)]) != fx.profile:
        problems.append(f"{fx.name}: profile {prof.values} != {fx.profile}")
    for j, d in fx.spots.items():
        if prof.values[j] != d:
            problems.append(f"{fx.name}: d^c_{j} = {prof.values[j]} != {d}")
    if fx.strongly_mds is not None and prof.strongly_mds != fx.strongly_mds:
        problems.append(f"{fx.name}: strongly_mds = {prof.strongly_mds}")
    if fx.mdp is not None and prof.mdp != fx.mdp:
        problems.append(f"{fx.name}: mdp = {prof.mdp}")
    return problems


def verify_free_distance(fx) -> list:
    problems = []
    if fx.dfree is None:
        return problems
    fd = free_distance(fx.code, horizon=fx.dfree_at)
    if fd.value != fx.dfree:
        problems.append(f"{fx.name}: free distance {fd.value} != {fx.dfree}")
    if fd.reached_at != fx.dfree_at:
        problems.append(f"{fx.name}: reached at {fd.reached_at} != {fx.dfree_at}")
    return problems


def methods_agreement(c, jmax: int):
    """Compare the message-side and syndrome-side column distances.

    Every code has both windows; a window index is compared when both
    predicted search spaces fit AGREEMENT_BUDGET.  Returns (comparisons
    made, problems).
    """
    compared = 0
    problems = []
    for j in range(jmax + 1):
        if any(space > AGREEMENT_BUDGET for space, _, _ in _engines(c, j)):
            continue
        compared += 1
        got, want = _dc_messages(c, j), _dc_syndrome(c, j)
        if got != want:
            problems.append(f"j={j}: messages {got} != syndrome {want}")
    return compared, problems


def decodable_fixtures():
    """Fixtures suited to feedback decoding: strongly MDS with k = n-1."""
    out = []
    for name, fx in sorted(all_fixtures().items()):
        if fx.strongly_mds and fx.code.k == fx.code.n - 1:
            out.append(fx)
    return out


def run_simulations(fx, trials: int, seed_base: int = 0,
                    paranoid: bool = False) -> list:
    """Seeded compliant-error simulations; returns problems (empty = all good)."""
    c = fx.code
    horizon = simulation_horizon(lm_params(c.n, c.k, c.delta)[1])
    problems = []
    for i, (msg, err) in enumerate(channel_trials(c, trials, seed_base, horizon)):
        if not err.constraint_ok:
            problems.append(f"{fx.name}: trial {i} pattern broke its own cap")
            continue
        rep = simulate(c, msg, err, horizon, paranoid=paranoid)
        if not (rep.ok and rep.matched):
            problems.append(f"{fx.name}: trial {i} -> {rep.status}, "
                            f"matched={rep.matched}")
    return problems


# --- the check registry -----------------------------------------------------


def _check_profiles():
    problems = []
    for name, fx in sorted(all_fixtures().items()):
        problems += verify_fixture(fx)
    return problems, f"{len(all_fixtures())} fixtures"


def _check_free_distance():
    problems = []
    for name, fx in sorted(all_fixtures().items()):
        problems += verify_free_distance(fx)
    return problems, f"{len(all_fixtures())} fixtures"


def _check_mdp_methods():
    problems = []
    for name, fx in sorted(all_fixtures().items()):
        a = has_mdp_bruteforce(fx.code)
        b = has_mdp_minors(fx.code)
        if a != b:
            problems.append(f"{name}: bruteforce {a} != minors {b}")
    return problems, f"{len(all_fixtures())} fixtures"


def _check_distance_methods():
    problems = []
    total = 0
    for name, fx in sorted(all_fixtures().items()):
        compared, probs = methods_agreement(fx.code, jmax=4)
        total += compared
        problems += [f"{name}: {p}" for p in probs]
    if total == 0:
        problems.append("no comparison ran at all")
    return problems, f"{total} comparisons"


def _check_dual_mdp():
    problems = []
    for name, fx in sorted(all_fixtures().items()):
        d = dual(fx.code)
        a = has_mdp_minors(fx.code)
        b, brute = has_mdp_minors(d), has_mdp_bruteforce(d)
        if not a == b == brute:
            problems.append(f"{name}: mdp {a}, dual mdp {b} (minors) and "
                            f"{brute} (column distance)")
    return problems, f"{len(all_fixtures())} codes"


def _check_dual_distance():
    problems = []
    d43 = dual(fixture("smds_4_3_1_q16").code)
    fd = free_distance(d43, horizon=4)
    if not fd.value <= 7:
        problems.append(f"(4,1,1) dual: lower bound {fd.value} > 7")
    row = window_generator(d43).entries[0]
    genwt = sum(1 for p in row for x in p if x)
    if genwt >= 8:
        problems.append(f"(4,1,1) dual: generator weight {genwt} not below 8")
    d31 = dual(fixture("mds_3_1_2_q16").code)
    fd = free_distance(d31, horizon=6)
    if fd.value != 4:
        problems.append(f"(3,2,2) dual: distance bound {fd.value} != 4")
    return problems, "2 dual codes"


def _check_superregular_refs():
    problems = []
    for T in reference_toeplitz():
        if not is_superregular(T):
            problems.append(f"GF({T.field.q}) size {T.size}: not superregular")
        elif not is_superregular(inverse_superregular(T)):
            problems.append(f"GF({T.field.q}) size {T.size}: inverse fails")
    return problems, f"{len(reference_toeplitz())} matrices"


def _check_superregular_search():
    problems = []
    # first lexicographic hits of the exhaustive search, None for no hit
    golds = [(2, 2, (1, 1)), (3, 4, (1, 1, 2)), (5, 8, (1, 1, 2, 6, 3)),
             (6, 16, (1, 1, 2, 3, 8, 1)), (6, 8, None)]
    for l, q, want in golds:
        hit = search_toeplitz(l, standard_field(q))
        if (hit and hit.col) != want:
            problems.append(f"{l}x{l} over GF({q}): got {hit and hit.col}")
    # first hits of the general search, the diagonals top right first
    general = [(3, 4, [[1, 2, 1], [1, 1, 2], [2, 1, 1]]), (4, 4, None),
               (5, 16, [[1, 3, 2, 1, 1], [3, 1, 3, 2, 1], [14, 3, 1, 3, 2],
                        [10, 14, 3, 1, 3], [9, 10, 14, 3, 1]])]
    for l, q, want in general:
        rows = search_general_toeplitz(l, standard_field(q))
        if rows != want:
            problems.append(f"general {l}x{l} over GF({q}): got {rows}")
    return problems, f"{len(golds) + len(general)} searches"


def _check_binomial():
    problems = []
    for n in range(1, 7):
        if not proper_minors_positive(binomial_toeplitz(n)):
            problems.append(f"binomial matrix n={n}: nonpositive proper minor")
    import itertools
    checked = 0
    for n in range(2, 7):
        for k in range(1, n):
            for r in range(1, min(n, 4) + 1):
                for rows in itertools.combinations(range(1, n + 1), r):
                    for cols in itertools.combinations(range(1, n + 1), r):
                        theorem_a_check(n, k, rows, cols)
                        checked += 1
    want = [2, 5, 7, 11, 23, 43]
    got = [smallest_prime_superregular(n) for n in range(2, 8)]
    if got != want:
        problems.append(f"smallest primes {got} != {want}")
    return problems, f"6 binomial sizes, {checked} band checks"


def _check_construction():
    problems = []
    refs = {(T.field.q, T.size): T for T in reference_toeplitz()}
    golds = [
        ("smds_2_1_2_q8", 2, 2, 8, 5, 6),
        ("smds_2_1_3_q32", 2, 3, 32, 7, 8),
        ("smds_3_2_2_q64", 3, 2, 64, 8, 5),
        ("smds_4_3_1_q16", 4, 1, 16, 6, 3),
    ]
    for name, n, delta, q, size, want_d in golds:
        T = refs[(q, size)]
        trace = construct_strongly_mds(n, delta, standard_field(q), T=T)
        if trace.code.par.entries != fixture(name).code.par.entries:
            problems.append(f"{name}: pipeline parity differs from the fixture")
        bad = [k for k, v in trace.certificates.items() if v is not True
               and k != "d_c_M"]
        if bad:
            problems.append(f"{name}: certificates failed: {bad}")
        if trace.certificates.get("d_c_M") != want_d:
            problems.append(
                f"{name}: d^c_M = {trace.certificates.get('d_c_M')} != {want_d}")
    dtr = construct_dual_mds(3, 2, standard_field(64), T=refs[(64, 8)])
    if dtr.code.gen.entries != fixture("smds_3_1_2_q64").code.gen.entries:
        problems.append("dual pipeline: generator differs from the fixture")
    return problems, f"{len(golds)} pipelines + 1 dual"


def _check_laurent():
    from .code import laurent_table
    problems = []
    F8 = standard_field(8)
    rows = laurent_table(fixture("smds_2_1_2_q8").code, 4)
    want = [[F8.pow(2, e)] for e in (0, 1, 3, 1, 0)]
    if rows != want:
        problems.append(f"GF(8) series rows {rows} != {want}")
    F32 = standard_field(32)
    rows = laurent_table(fixture("smds_2_1_3_q32").code, 6)
    want = [[F32.pow(2, e)] for e in (0, 1, 6, 9, 6, 1, 0)]
    if rows != want:
        problems.append(f"GF(32) series rows {rows} != {want}")
    return problems, "2 series"


def _check_decode():
    problems = []
    walk = decode_walkthrough()
    c = fixture(walk["code"]).code
    rep = feedback_decode(walk["received"], c, paranoid=True)
    if not rep.ok:
        problems.append(f"walkthrough status {rep.status}")
    if tuple(rep.decoded_polys()) != walk["decoded"]:
        problems.append("walkthrough decoded the wrong codeword")
    for j, eta in walk["eta0"].items():
        if rep.cycles[j].eta0 != eta:
            problems.append(f"cycle {j}: eta0 {rep.cycles[j].eta0} != {eta}")
    if any(cyc.syndrome_weight for cyc in rep.cycles if cyc.j > 5):
        problems.append("syndrome weights did not settle to zero after time 5")
    return problems, "1 walkthrough"


def _check_simulations():
    problems = []
    fxs = decodable_fixtures()
    for fx in fxs:
        problems += run_simulations(fx, 10)
        c = fx.code
        _, M = lm_params(c.n, c.k, c.delta)
        horizon = simulation_horizon(M)
        bad = make_error_pattern(c.field, horizon + 1, c.n, M,
                                 decoding_radius(M), seed=11, adversarial=True)
        rep = simulate(c, [()] * c.k, bad, horizon)
        if rep.constraint_ok is not False:
            problems.append(f"{fx.name}: adversarial pattern not flagged")
    return problems, f"{len(fxs)} codes x 10 trials"


def _check_griesmer():
    problems = []
    if not griesmer_feasible(7, 2, 2, memory=1, d=12, q=8):
        problems.append("d=12 over GF(8) should be feasible")
    if griesmer_feasible(7, 2, 2, memory=1, d=13, q=8):
        problems.append("d=13 over GF(8) should be infeasible")
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    least = next(q for q in prime_powers
                 if griesmer_feasible(7, 2, 2, memory=1, d=13, q=q, i_max=1))
    if least != 13:
        problems.append(f"least feasible field size {least} != 13")
    return problems, "3 bounds"


CHECKS = [
    ("profiles", _check_profiles),
    ("free-distance", _check_free_distance),
    ("mdp-methods", _check_mdp_methods),
    ("distance-methods", _check_distance_methods),
    ("dual-mdp", _check_dual_mdp),
    ("dual-distance", _check_dual_distance),
    ("superregular-refs", _check_superregular_refs),
    ("superregular-search", _check_superregular_search),
    ("binomial", _check_binomial),
    ("construction", _check_construction),
    ("laurent", _check_laurent),
    ("decode", _check_decode),
    ("simulations", _check_simulations),
    ("griesmer", _check_griesmer),
]


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str


def check_names():
    return [name for name, _ in CHECKS]


def run_checks(names=None) -> list:
    wanted = set(names) if names else None
    unknown = sorted((wanted or set()) - set(check_names()))
    if unknown:
        raise BadParams(f"unknown check {', '.join(unknown)}; "
                        f"known: {', '.join(check_names())}")
    results = []
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        start = time.time()
        try:
            problems, detail = fn()
        except CodingError as exc:
            problems, detail = [f"error[{exc.code}]: {exc}"], "aborted"
        took = time.time() - start
        if problems:
            detail = "; ".join(problems)
        results.append(CheckResult(name, not problems, took, detail))
    return results
