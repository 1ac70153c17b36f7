"""Reference answers computed apart from the program.

Nothing here imports ``causalrating``.  Every function takes the same
JSON documents the program reads and answers from first principles:

* the road-risk chain in closed form (absorbing escalation, gated
  accident, latent ``U`` summed by hand), which gives every effect and
  every information measure of the ``evaluate`` report;
* brute-force enumeration of the truncated factorisation for small SCM
  files;
* d-separation on the moralised ancestral graph (Lauritzen), an
  algorithm apart from the program's reachability search;
* a checker that a returned witness is an open trail.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

# -- road-risk chain in closed form ----------------------------------------


def _decision_dist(doc, jo: int, u: int) -> list:
    """P(D | J_o=jo, U=u): U moves a share of mass to the last decision."""
    base = [float(p) for p in doc["decision_base"][jo]]
    if not u:
        return base
    shift = float(doc["confounder_strength"]["decision_shift"])
    out = [(1.0 - shift) * p for p in base]
    out[-1] += shift
    return out


def stay_safe(doc, d: int) -> float:
    """P(S_D = 0 | D=d) = prod_i (1 - sum_t pi_t * esc_i[d][t])."""
    pi = doc["traffic_dist"]
    p = 1.0
    for stage in doc["escalation"]:
        p *= 1.0 - sum(float(w) * float(e) for w, e in zip(pi, stage[d]))
    return p


def accident_prob(doc, d: int, u: int) -> float:
    """P(Y_f = 1 | J_o=1, D=d, U=u), summing the final peril level."""
    a0, a1 = (float(a) for a in doc["accident_base"])
    h = float(doc["confounder_strength"]["hazard"]) * u
    safe = stay_safe(doc, d)
    return safe * min(1.0, a0 + h) + (1.0 - safe) * min(1.0, a1 + h)


def do_effect(doc) -> dict:
    """P(Y_f | do(J_o, D)) for every (J_o, D): graph surgery by hand."""
    u_prob = float(doc["confounder_strength"]["u_prob"])
    out = {}
    for d in range(int(doc["decision_card"])):
        p = (1.0 - u_prob) * accident_prob(doc, d, 0) + u_prob * accident_prob(doc, d, 1)
        out[(0, d)] = [1.0, 0.0]
        out[(1, d)] = [1.0 - p, p]
    return out


# Axes of the closed-form joint returned by small_joint().
SMALL_AXES = ("Y_h", "J_o", "U", "D", "Y_f")


def small_joint(doc) -> dict:
    """P(Y_h, J_o, U, D, Y_f) as {assignment tuple: probability}.

    Every report quantity outside the peril chain is a function of this
    72-cell table, so it stands in for the full joint.
    """
    u_prob = float(doc["confounder_strength"]["u_prob"])
    dc = int(doc["decision_card"])
    out = {}
    for h, prior in enumerate(doc["y_h_prior"]):
        r = float(doc["journey_rate"][h])
        for jo, pj in ((0, 1.0 - r), (1, r)):
            for u, pu in ((0, 1.0 - u_prob), (1, u_prob)):
                dd = _decision_dist(doc, jo, u)
                for d in range(dc):
                    acc = accident_prob(doc, d, u) if jo else 0.0
                    base = float(prior) * pj * pu * dd[d]
                    out[(h, jo, u, d, 0)] = base * (1.0 - acc)
                    out[(h, jo, u, d, 1)] = base * acc
    return out


def naive_effect(doc) -> dict:
    """P(Y_f | J_o, D) by Bayes over U, from the closed-form joint."""
    table = small_joint(doc)
    out = {}
    for jo in range(2):
        for d in range(int(doc["decision_card"])):
            mass = [0.0, 0.0]
            for (h, j, u, dv, y), p in table.items():
                if j == jo and dv == d:
                    mass[y] += p
            total = mass[0] + mass[1]
            out[(jo, d)] = [m / total for m in mass]
    return out


def history_outcome_table(doc) -> dict:
    """The (Y_h, Y_f) table behind ``history_outcome_mi_bits``."""
    return marginalize(small_joint(doc), SMALL_AXES, ("Y_h", "Y_f"))


# -- information measures on {assignment: p} tables ------------------------


def marginalize(table: dict, axes: tuple, keep) -> dict:
    idx = [axes.index(v) for v in keep]
    out = {}
    for cfg, p in table.items():
        key = tuple(cfg[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def entropy(table: dict, axes: tuple, keep) -> float:
    if not keep:
        return 0.0
    return -sum(p * math.log2(p) for p in marginalize(table, axes, keep).values() if p > 0.0)


def mutual_information(table: dict, axes: tuple, a, b) -> float:
    a, b = tuple(a), tuple(b)
    return entropy(table, axes, a) + entropy(table, axes, b) - entropy(table, axes, a + b)


def conditional_mutual_information(table: dict, axes: tuple, a, b, c) -> float:
    a, b, c = tuple(a), tuple(b), tuple(c)
    return (
        entropy(table, axes, a + c)
        + entropy(table, axes, b + c)
        - entropy(table, axes, a + b + c)
        - entropy(table, axes, c)
    )


# -- brute-force enumeration for SCM documents ------------------------------


def kahn_order(nodes, edges) -> list:
    """Topological order the SCM file format uses for default CPT rows:
    Kahn's algorithm, FIFO, roots in declaration order, children in
    edge order."""
    indeg = {n: 0 for n in nodes}
    children = {n: [] for n in nodes}
    for a, b in edges:
        indeg[b] += 1
        children[a].append(b)
    queue = deque(n for n in nodes if indeg[n] == 0)
    order = []
    while queue:
        n = queue.popleft()
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return order


def scm_parents(doc) -> dict:
    g = doc["graph"]
    edges = [tuple(e) for e in g["edges"]]
    if "parents" in doc:
        return {v: tuple(ps) for v, ps in doc["parents"].items()}
    pos = {v: i for i, v in enumerate(kahn_order(g["nodes"], edges))}
    return {
        v: tuple(sorted((a for a, b in edges if b == v), key=pos.__getitem__))
        for v in g["nodes"]
    }


def enumerate_joint(doc, do=None) -> tuple:
    """(nodes, {assignment: p}) of the truncated factorisation under ``do``."""
    do = dict(do or {})
    nodes = list(doc["graph"]["nodes"])
    card = {v: int(doc["card"][v]) for v in nodes}
    parents = scm_parents(doc)
    pos = {v: i for i, v in enumerate(nodes)}
    table = {}
    for cfg in itertools.product(*(range(card[v]) for v in nodes)):
        if any(cfg[pos[v]] != val for v, val in do.items()):
            continue
        p = 1.0
        for v in nodes:
            if v in do:
                continue
            row = 0
            for pa in parents[v]:
                row = row * card[pa] + cfg[pos[pa]]
            p *= float(doc["cpt"][v][row][cfg[pos[v]]])
        table[cfg] = p
    return tuple(nodes), table


def interventional(doc, outcome: str, do: dict, given: dict | None = None) -> list:
    """P(outcome | do(do), given) by enumeration; None if P(given) = 0."""
    nodes, table = enumerate_joint(doc, do)
    given = given or {}
    mass = [0.0] * int(doc["card"][outcome])
    for cfg, p in table.items():
        if all(cfg[nodes.index(v)] == val for v, val in given.items()):
            mass[cfg[nodes.index(outcome)]] += p
    total = sum(mass)
    return [m / total for m in mass] if total > 0.0 else None


# -- graphs -----------------------------------------------------------------


def _parents_map(nodes, edges) -> dict:
    parents = {n: set() for n in nodes}
    for a, b in edges:
        parents[b].add(a)
    return parents


def ancestors_of(nodes, edges, seeds) -> set:
    """``seeds`` together with all their ancestors."""
    parents = _parents_map(nodes, edges)
    out = set(seeds)
    stack = list(out)
    while stack:
        for p in parents[stack.pop()]:
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def d_separated(nodes, edges, X, Y, Z) -> bool:
    """X _||_ Y | Z by separation in the moralised ancestral graph."""
    X, Y, Z = set(X), set(Y), set(Z)
    parents = _parents_map(nodes, edges)
    anc = ancestors_of(nodes, edges, X | Y | Z)
    adj = {v: set() for v in anc}
    for v in anc:
        ps = parents[v]
        for p in ps:
            adj[v].add(p)
            adj[p].add(v)
        for p, q in itertools.combinations(ps, 2):
            adj[p].add(q)
            adj[q].add(p)
    seen = set(X)
    stack = list(X)
    while stack:
        for w in adj[stack.pop()]:
            if w in Z or w in seen:
                continue
            if w in Y:
                return False
            seen.add(w)
            stack.append(w)
    return True


def open_trail_error(nodes, edges, trail, X, Y, Z) -> str | None:
    """Why ``trail`` is not an open trail from X to Y given Z, or None."""
    edge_set = {tuple(e) for e in edges}
    X, Y, Z = set(X), set(Y), set(Z)
    if not isinstance(trail, list) or len(trail) < 2:
        return f"witness {trail!r} is not a trail"
    if trail[0] not in X or trail[-1] not in Y:
        return f"witness {trail} does not run from {sorted(X)} to {sorted(Y)}"
    if len(set(trail)) != len(trail):
        return f"witness {trail} repeats a node"
    for a, b in zip(trail, trail[1:]):
        if (a, b) not in edge_set and (b, a) not in edge_set:
            return f"witness {trail}: {a} and {b} are not adjacent"
    anc_z = ancestors_of(nodes, edges, Z)
    for prev, v, nxt in zip(trail, trail[1:], trail[2:]):
        collider = (prev, v) in edge_set and (nxt, v) in edge_set
        if collider and v not in anc_z:
            return f"witness {trail}: collider {v} has no descendant in Z"
        if not collider and v in Z:
            return f"witness {trail}: non-collider {v} is in Z"
    return None


def verdict(nodes, edges, candidate, outcome, observed) -> str:
    """The noise/signal decision, each step decided by moralised d-separation.

    Noise when observation or do(observed) screens the candidate off;
    Signal when it stays relevant but no back-door trail is open;
    Unidentifiable otherwise.
    """
    observed = set(observed)
    if d_separated(nodes, edges, {candidate}, {outcome}, observed):
        return "Noise"
    cut = [(a, b) for a, b in edges if b not in observed]
    if d_separated(nodes, cut, {outcome}, {candidate}, observed):
        return "Noise"
    backdoor = [(a, b) for a, b in edges if a != candidate]
    if d_separated(nodes, backdoor, {candidate}, {outcome}, observed):
        return "Signal"
    return "Unidentifiable"
