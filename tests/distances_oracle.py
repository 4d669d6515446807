"""Reference engines for the distance module, kept as test oracles.

``dc_messages_state_table`` is the state-table form of the message engine.
A node's state packs the last min(nu, j) + 1 messages as one base-q^k
integer; ``block_weight`` decodes a state into the weight of its codeword
block, and when there are at most 2^18 states their weights are tabulated up
front.  Every level, the last included, weighs each child message on its own.
The normalized first block and the pruning are the package's, so both return
the same d^c_j.  The oracle alone takes a budget, on the package's message
space.

``admissible_picks`` lists the column picks whose full-size minors decide
the MDP property, and ``has_mdp_minors_by_det`` takes one determinant per
pick, in lexicographic order.
"""

import itertools

from convmds import linalg
from convmds.code import (pm_coefficient, pm_memory, sliding_generator,
                          sliding_parity, window_generator)
from convmds.distances import _message_space, _window_cap, lm_params
from convmds.errors import BudgetExceeded
from algebra_helpers import vec_mat

_STATE_TABLE_LIMIT = 1 << 18


def dc_messages_state_table(c, j, budget):
    G = window_generator(c)
    F, k, n = c.field, c.k, c.n
    q = F.q
    if _message_space(c, j) > budget:
        raise BudgetExceeded(f"message space {_message_space(c, j)} over budget")
    nu = pm_memory(G)
    coeffs = [pm_coefficient(G, t) for t in range(nu + 1)]
    qk = q**k
    msgs = [[u // q**i % q for i in range(k)] for u in range(qk)]  # base-q digits
    tabs = []
    for t in range(nu + 1):
        tabs.append([tuple(vec_mat(F, m, coeffs[t])) for m in msgs])
    canon = [u for u in range(1, qk) if next(x for x in msgs[u] if x) == 1]

    depth_states = min(nu, j) + 1
    mod = qk**depth_states
    def block_weight(state):
        acc = [0] * n
        x = state
        for d in range(depth_states):
            row = tabs[d][x % qk]
            x //= qk
            for i in range(n):
                if row[i]:
                    acc[i] = F.add(acc[i], row[i])
        return sum(1 for v in acc if v)

    wtab = None
    if mod <= _STATE_TABLE_LIMIT:
        wtab = [block_weight(s) for s in range(mod)]

    best = _window_cap(n, k, c.delta, j) + 1

    def rec(depth, state, wsum):
        nonlocal best
        if depth > j:
            best = wsum
            return
        options = canon if depth == 0 else range(qk)
        base = (state * qk) % mod
        for u in options:
            s2 = base + u
            w = wtab[s2] if wtab is not None else block_weight(s2)
            if wsum + w < best:
                rec(depth + 1, s2, wsum + w)

    rec(0, 0, 0)
    assert best <= _window_cap(n, k, c.delta, j), "no window met the distance bound"
    return best


def admissible_picks(c):
    """The sliding matrix at L that ``has_mdp_minors`` reads, and its
    admissible column picks (1-based, lexicographic order)."""
    L, _ = lm_params(c.n, c.k, c.delta)
    if c.gen is not None:
        W = sliding_generator(c, L)
        size = (L + 1) * c.k
        step, upper = c.k, True
    else:
        W = sliding_parity(c, L)
        size = (L + 1) * (c.n - c.k)
        step, upper = c.n - c.k, False
    N = (L + 1) * c.n
    picks = []
    for pick in itertools.combinations(range(1, N + 1), size):
        ok = True
        for s in range(1, L + 1):
            if upper:
                if pick[s * step] <= s * c.n:  # 1-based j_{sk+1}
                    ok = False
                    break
            else:
                if pick[s * step - 1] > s * c.n:  # 1-based i_{s(n-k)}
                    ok = False
                    break
        if ok:
            picks.append(pick)
    return W, picks


def has_mdp_minors_by_det(c):
    """``has_mdp_minors`` with one ``mat_det`` per admissible column pick."""
    W, picks = admissible_picks(c)
    for pick in picks:
        sub = [[row[col - 1] for col in pick] for row in W.data[:len(pick)]]
        if linalg.mat_det(c.field, sub) == 0:
            return False
    return True
