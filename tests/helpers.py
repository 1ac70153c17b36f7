"""Shared test helpers: brute-force oracles and random-structure builders.

Test modules import these from here, not from ``conftest``: a run that
collects both ``tests`` and ``bench`` has two ``conftest`` modules, and
only one of them can be imported under that name.
"""

import csv
import io
import itertools
import math

import numpy as np

from causalrating import (
    CapacityReport,
    ConfoundingGap,
    Dag,
    DiscreteScm,
    EffectTable,
    JointTable,
    NumericalConsistencyError,
    OverlapError,
    ParameterError,
    PositivityViolation,
    StateSpaceTooLarge,
    UnknownVariable,
    ZeroProbabilityEvidence,
    build_scenario,
    condition,
    conditional_entropy,
    conditional_mutual_information,
    infer,
    intervene,
    marginal,
    mutual_information,
    random_scm,
    scenario_dag,
    template,
)
from causalrating.scm import DEFAULT_CELL_CAP, _contract, _mix, _row_keys, _value


def mass_of(j: JointTable, assignment) -> float:
    """Total probability of a (partial) assignment."""
    idx = [slice(None)] * len(j.vars)
    for var, val in assignment.items():
        idx[j.axis(var)] = int(val)
    return float(np.sum(j.probs[tuple(idx)]))


def brute_force_joint(scm: DiscreteScm) -> JointTable:
    """Independent joint oracle: enumerate every assignment explicitly."""
    order = scm.dag.topological_order
    cards = tuple(scm.card[v] for v in order)
    pos = {v: i for i, v in enumerate(order)}
    probs = np.zeros(cards)
    for cfg in itertools.product(*(range(c) for c in cards)):
        p = 1.0
        for v in order:
            ps = scm.parents_of(v)
            row = 0
            for pa in ps:
                row = row * scm.card[pa] + cfg[pos[pa]]
            p *= scm.cpt[v][row, cfg[pos[v]]]
        probs[cfg] = p
    return JointTable(order, cards, probs)


def reference_infer(scm: DiscreteScm, keep, evidence=None, max_cells=DEFAULT_CELL_CAP) -> JointTable:
    """Elimination oracle: variable elimination that rescans every factor
    at each step to rebuild every bucket, then sums out the variable of
    fewest cells, ties broken by topological index.  It builds each
    bucket's scope in factor order, as ``infer`` plans it, so the two
    agree bit for bit."""
    evidence = dict(evidence or {})
    for var, val in evidence.items():
        if var not in scm.card:
            raise UnknownVariable(f"unknown variable: {var!r}")
        evidence[var] = _value(var, val, scm.card[var])
    keep = set(keep)
    if not keep:
        raise UnknownVariable("keep set must be nonempty")
    for v in keep:
        if v not in scm.card or v in evidence:
            raise UnknownVariable(f"unknown variable: {v!r}")

    relevant = {*keep, *evidence}
    relevant |= scm.dag._reach(relevant, scm.dag._parents)
    order = {v: i for i, v in enumerate(scm.dag.topological_order)}

    def size(scope) -> int:
        return math.prod(scm.card[u] for u in scope)

    factors = []
    for v in sorted(relevant, key=order.__getitem__):
        scope = scm.parents[v] + (v,)
        table = scm.cpt[v].reshape([scm.card[u] for u in scope])
        if not evidence.keys().isdisjoint(scope):
            table = table[tuple(evidence[u] if u in evidence else slice(None) for u in scope)]
            scope = tuple(u for u in scope if u not in evidence)
        factors.append((scope, table))

    hidden = relevant - keep - evidence.keys()
    while hidden:
        buckets = {v: {} for v in hidden}
        for scope, _ in factors:
            for u in scope:
                if u in buckets:
                    buckets[u].update(dict.fromkeys(scope))
        cells = {u: size(bucket) for u, bucket in buckets.items()}
        v = min(hidden, key=lambda u: (cells[u], order[u]))
        if cells[v] > max_cells:
            raise StateSpaceTooLarge(f"factor to eliminate {v} has {cells[v]} cells, over the cap {max_cells}")
        inside = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        out = tuple(u for u in buckets[v] if u != v)
        factors.append((out, _contract(inside, out)))
        hidden.discard(v)

    out = tuple(sorted(keep, key=order.__getitem__))
    if size(out) > max_cells:
        raise StateSpaceTooLarge(f"result has {size(out)} cells, over the cap {max_cells}")
    probs = _contract(factors, out)
    if evidence:
        total = float(probs.sum())
        if total <= 0.0:
            raise ZeroProbabilityEvidence(f"P({evidence}) = 0")
        probs = probs / total
    return JointTable(out, tuple(scm.card[u] for u in out), probs)


def reference_markov_consistency(scm: DiscreteScm) -> float:
    """Markov-residual oracle: one inference per stage, whatever the
    graph, conditioned on every decision value of positive mass; the
    largest I(T_k; next | S_k, D=d)."""
    states = sorted(
        (v for v in scm.dag.nodes if v[:2] == "S_" and v[2:].isdecimal()), key=lambda v: int(v[2:])
    )
    worst = 0.0
    for i, st in enumerate(states):
        nxt = states[i + 1] if i + 1 < len(states) else "Y_f"
        t = "T" + st[1:]
        if t not in scm.card or nxt not in scm.card:
            continue
        j = infer(scm, {"D", t, st, nxt})
        for d in range(scm.card["D"]):
            if mass_of(j, {"D": d}) > 0.0:
                jd = condition(j, {"D": d})
                worst = max(worst, conditional_mutual_information(jd, {t}, {nxt}, {st}))
    return worst


def csv_writer_bytes(rows: np.ndarray, header=()) -> bytes:
    """CSV oracle: what ``csv.writer`` writes for the header and the rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(header)
    w.writerows(rows.tolist())
    return buf.getvalue().encode()


def uniforms(seed: int, rows: np.ndarray, draw: int) -> np.ndarray:
    """The documented stream: splitmix64 uniforms in [0, 1) for (seed,
    row, draw), from the sampler's own hash steps."""
    t = np.empty(len(rows), dtype=np.uint64)
    h = _row_keys(seed, rows.astype(np.uint64), t)
    h ^= np.uint64(draw % (1 << 64))
    return (_mix(h, t) >> np.uint64(11)) * 2.0**-53


def reference_sample_rows(scm: DiscreteScm, n: int, seed: int) -> np.ndarray:
    """Sampling oracle: every row at once, each value the number of
    cumulative CPT thresholds at or below its uniform, clipped to the
    cardinality."""
    order = scm.dag.topological_order
    pos = {v: i for i, v in enumerate(order)}
    rows = np.zeros((n, len(order)), dtype=np.int64)
    for k, v in enumerate(order):
        u = uniforms(seed, np.arange(n, dtype=np.uint64), k)
        ridx = np.zeros(n, dtype=np.int64)
        for p in scm.parents_of(v):
            ridx = ridx * scm.card[p] + rows[:, pos[p]]
        cum = np.cumsum(scm.cpt[v], axis=1)
        rows[:, k] = np.clip((u[:, None] >= cum[ridx, :]).sum(axis=1), 0, scm.card[v] - 1)
    return rows


def reference_check_range(vars: tuple, cards: tuple, rows: np.ndarray):
    """Range-check oracle: the message for the first column, checked one
    column at a time, with a value outside ``0..card-1``; None if none."""
    for k, c in enumerate(cards):
        if rows.size and (rows[:, k].min() < 0 or rows[:, k].max() >= c):
            return f"column {vars[k]} exceeds cardinality {c}"
    return None


def reference_build_scenario(s) -> DiscreteScm:
    """Scenario oracle: every CPT row written on its own, one call of a
    per-node function on each parent configuration, enumerated in the
    model's row order."""
    dag = scenario_dag(s)
    cs = s.confounder_strength
    u_prob, shift, hazard = float(cs["u_prob"]), float(cs["decision_shift"]), float(cs["hazard"])
    dc, tc = s.decision_card, s.traffic_card
    card = {"Y_h": len(s.y_h_prior), "J_o": 2, "U": 2, "D": dc, "Y_f": 2}
    for v in s.traffic_vars + s.states:
        card[v] = tc if v.startswith("T") else 2

    def rows(node, dist_fn):
        parents = dag._parents[node]
        cfgs = itertools.product(*[range(card[p]) for p in parents])
        return np.array([dist_fn(dict(zip(parents, cfg))) for cfg in cfgs], dtype=float)

    cpt = {
        "Y_h": np.array([s.y_h_prior]),
        "J_o": np.array([[1.0 - r, r] for r in s.journey_rate]),
        "U": np.array([[1.0 - u_prob, u_prob]]),
    }
    aggressive = np.eye(dc)[-1]

    def d_dist(a):
        base = np.array(s.decision_base[a["J_o"]])
        if a["U"]:
            return (1.0 - shift) * base + shift * aggressive
        return base

    cpt["D"] = rows("D", d_dist)
    for t in s.traffic_vars:
        cpt[t] = np.array([s.traffic_dist])
    cpt["S_0"] = rows("S_0", lambda a: [1.0, 0.0])
    for i in range(1, s.depth + 1):

        def s_dist(a, stage=i):
            if a[f"S_{stage - 1}"]:
                return [0.0, 1.0]
            e = s.escalation[stage - 1][a["D"]][a[f"T_{stage}"]]
            return [1.0 - e, e]

        cpt[f"S_{i}"] = rows(f"S_{i}", s_dist)

    def y_dist(a):
        if a["J_o"] == 0:
            return [1.0, 0.0]
        p = min(1.0, s.accident_base[a[f"S_{s.depth}"]] + hazard * a["U"])
        return [1.0 - p, p]

    cpt["Y_f"] = rows("Y_f", y_dist)
    return DiscreteScm(dag, card, cpt)


def reference_canonical_escalation(depth: int) -> tuple:
    """Fixture oracle: the escalation of ``canonical_scenario(depth)``,
    one stage, decision and traffic value at a time."""
    dc, tc = 3, 2
    esc = []
    for stage in range(depth):
        base = 0.05 + 0.06 * stage
        esc.append(
            tuple(
                tuple(
                    min(0.9, base * (1.0 + 2.2 * d / (dc - 1)) * (1.0 + 0.9 * t / (tc - 1)))
                    for t in range(tc)
                )
                for d in range(dc)
            )
        )
    return tuple(esc)


def reference_chain_factorization_residual(s, d_value: int, scm=None) -> float:
    """Residual oracle: max |P(chain | D) - P(first | D) times the stage
    conditionals| over the chain S_0..S_D, Y_f, one configuration at a
    time, skipping those whose conditioning events have zero mass."""
    scm = build_scenario(s) if scm is None else scm
    chain = list(s.states) + ["Y_f"]
    lhs = infer(scm, chain, {"D": int(d_value)})
    first = marginal(lhs, {chain[0]}).probs
    pair_cond = []
    for a, b in zip(chain, chain[1:]):
        m = marginal(lhs, {a, b})
        p = m.probs if m.vars == (a, b) else m.probs.T
        denom = p.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            pair_cond.append((np.where(denom > 0, p / np.where(denom > 0, denom, 1.0), np.nan), denom[:, 0]))
    worst = 0.0
    for cfg in np.ndindex(*(2,) * len(chain)):
        vals = list(cfg)
        prod = float(first[vals[0]])
        defined = True
        for k in range(len(chain) - 1):
            cond, denom = pair_cond[k]
            if denom[vals[k]] <= 0.0:
                defined = False
                break
            prod *= cond[vals[k], vals[k + 1]]
        if not defined:
            continue
        idx = tuple(cfg[chain.index(v)] for v in lhs.vars)
        actual = float(lhs.probs[idx])
        worst = max(worst, abs(actual - prod))
    return worst


def _configs(j: JointTable, names: tuple):
    """All value tuples for ``names`` (in that order)."""
    if not names:
        yield ()
        return
    yield from np.ndindex(*(j.card(v) for v in names))


def reference_backdoor_adjust(j: JointTable, x: str, y: str, Z) -> dict:
    """Back-door oracle: sum_z P(y|x,z) P(z), one x-value and one
    configuration of ``Z`` at a time.  Raises :class:`PositivityViolation`
    at the first (x, z) cell, in that order, with P(z) > 0 = P(x, z)."""
    z_vars = tuple(v for v in j.vars if v in set(Z))
    out = {}
    for xv in range(j.card(x)):
        dist = np.zeros(j.card(y))
        for z_cfg in _configs(j, z_vars):
            z_assign = dict(zip(z_vars, (int(c) for c in z_cfg)))
            pz = mass_of(j, z_assign) if z_assign else 1.0
            if pz <= 0.0:
                continue
            cell = {x: xv, **z_assign}
            if mass_of(j, cell) <= 0.0:
                raise PositivityViolation(f"P{cell} = 0", cell=cell)
            dist += pz * marginal(condition(j, cell), {y}).probs
        out[xv] = dist
    return out


def reference_frontdoor_adjust(j: JointTable, x: str, y: str, M, given=()) -> dict:
    """Front-door oracle: sum_m P(m|v,g) sum_v' P(y|v',m,g) P(v'|g), one
    stratum g, x-value v, mediator configuration m and x-value v' at a
    time, skipping strata of zero mass.  Raises
    :class:`PositivityViolation` at the first empty cell in that order."""
    m_vars = tuple(v for v in j.vars if v in set(M))
    g_vars = tuple(v for v in j.vars if v in set(given))
    x_card, y_card = j.card(x), j.card(y)
    out = {}
    for g_cfg in _configs(j, g_vars):
        g_assign = dict(zip(g_vars, (int(c) for c in g_cfg)))
        if g_assign and mass_of(j, g_assign) <= 0.0:
            continue
        jg = condition(j, g_assign) if g_assign else j
        px = marginal(jg, {x}).probs
        for xv in range(x_card):
            cell = {x: xv, **g_assign}
            if mass_of(jg, {x: xv}) <= 0.0:
                raise PositivityViolation(f"P{cell} = 0", cell=cell)
            jm = marginal(condition(jg, {x: xv}), m_vars)
            dist = np.zeros(y_card)
            for m_cfg in _configs(j, m_vars):
                pm = float(jm.probs[tuple(m_cfg)])
                if pm <= 0.0:
                    continue
                m_assign = dict(zip(m_vars, (int(c) for c in m_cfg)))
                inner = np.zeros(y_card)
                for xp in range(x_card):
                    w = float(px[xp])
                    if w <= 0.0:
                        continue
                    cell = {x: xp, **m_assign, **g_assign}
                    if mass_of(jg, {x: xp, **m_assign}) <= 0.0:
                        raise PositivityViolation(f"P{cell} = 0", cell=cell)
                    inner += w * marginal(condition(jg, {x: xp, **m_assign}), {y}).probs
                dist += pm * inner
            out[(xv, tuple(int(c) for c in g_cfg))] = dist
    return out


def reference_oracle_effect(scm: DiscreteScm, query) -> EffectTable:
    """Surgery oracle: one :func:`intervene` and one :func:`infer` per
    do-configuration, then P(outcome | stratum) for every stratum of
    positive mass."""
    order = scm.dag.topological_order
    do_vars = tuple(v for v in order if v in query.do)
    given = tuple(v for v in order if v in query.observed)
    y = query.outcome
    probs = np.zeros([scm.card[v] for v in (*do_vars, *given, y)])
    for cfg in np.ndindex(*(scm.card[v] for v in do_vars)):
        j = infer(intervene(scm, dict(zip(do_vars, cfg))), {y, *given})
        for g in _configs(j, given):
            stratum = dict(zip(given, (int(c) for c in g)))
            if mass_of(j, stratum) > 0.0:
                probs[cfg + tuple(stratum.values())] = marginal(condition(j, stratum), {y}).probs
    return EffectTable(y, do_vars, given, probs)


def reference_effect_json(t: EffectTable) -> dict:
    """Serialisation oracle: the table as a dict of its live cells keyed
    by (do_config, given_config), written in sorted key order."""
    n = len(t.do_vars)
    table = {}
    for cell in np.ndindex(*t.probs.shape[:-1]):
        if t.probs[cell].any():
            table[(cell[:n], cell[n:])] = t.probs[cell]
    return {
        "outcome": t.outcome,
        "outcome_card": int(t.probs.shape[-1]),
        "do_vars": list(t.do_vars),
        "given_vars": list(t.given_vars),
        "cells": [
            {
                "do": list(do_cfg),
                "given": list(g_cfg),
                "distribution": [float(p) for p in dist],
            }
            for (do_cfg, g_cfg), dist in sorted(table.items())
        ],
    }


def live_cells(t: EffectTable):
    """(do_config, given_config, distribution) for each live cell of
    ``t``, in row-major order."""
    n = len(t.do_vars)
    for cell in np.argwhere(t.probs.any(axis=-1)).tolist():
        yield tuple(cell[:n]), tuple(cell[n:]), t.probs[tuple(cell)]


def loop_dict(t: EffectTable, strata: bool = True) -> dict:
    """An adjuster's table as the dict of its loop oracle: the live cells
    in row-major order, keyed by (x-value, stratum), or by x-value alone
    as the back-door oracle keys them (``strata=False``)."""
    return {(do[0], g) if strata else do[0]: dist for do, g, dist in live_cells(t)}


def reference_conditional_mutual_information(j: JointTable, X, Y, Z) -> float:
    """CMI oracle: I(X; Y | Z) as H(Y|Z) - H(Y|X,Z), cross-checked against
    H(X|Z) + H(Y|Z) - H(X,Y|Z), each conditional entropy on its own."""
    from causalrating.graph import _disjoint
    from causalrating.info import AGREEMENT_TOL, _as_set, _clamp_mi

    X, Y, Z = _as_set(X, "X"), _as_set(Y, "Y"), _as_set(Z, "Z")
    if not X or not Y:
        raise OverlapError("X and Y must be nonempty")
    _disjoint(X, Y, Z)
    a = conditional_entropy(j, Y, Z) - conditional_entropy(j, Y, X | Z)
    b = (
        conditional_entropy(j, X, Z)
        + conditional_entropy(j, Y, Z)
        - conditional_entropy(j, X | Y, Z)
    )
    if abs(a - b) > AGREEMENT_TOL:
        raise NumericalConsistencyError(f"CMI routes disagree: {a} vs {b}")
    return _clamp_mi(a, "CMI")


def reference_rating_comparison(j: JointTable, yh, xc, yf) -> CapacityReport:
    """Capacity oracle: each MI and CMI computed on its own, and the
    capacity chain rule checked here."""
    yh = frozenset([yh]) if isinstance(yh, str) else frozenset(yh)
    xc = frozenset([xc]) if isinstance(xc, str) else frozenset(xc)
    yf = frozenset([yf]) if isinstance(yf, str) else frozenset(yf)
    report = CapacityReport(
        naive_bms=mutual_information(j, yh, yf),
        augmented_bms=mutual_information(j, yh | xc, yf),
        phyd_major=mutual_information(j, xc, yf),
        phyd_minor=reference_conditional_mutual_information(j, yh, yf, xc),
    )
    if report.augmented_bms < report.naive_bms - 1e-9:
        raise NumericalConsistencyError("augmented capacity below naive capacity")
    if abs(report.augmented_bms - (report.phyd_major + report.phyd_minor)) > 1e-9:
        raise NumericalConsistencyError("capacity chain rule violated")
    return report


def reference_confounding_gap(scm: DiscreteScm, x: str, y: str, u: str) -> ConfoundingGap:
    """Confounding-gap oracle: each MI and CMI computed on its own off the
    joint of {u, x, y}, and the identity checked here."""
    if u not in scm.dag.latent:
        raise ParameterError(f"{u!r} is not flagged latent in the graph")
    j = infer(scm, {u, x, y})
    gap = ConfoundingGap(
        i_x_y=mutual_information(j, {x}, {y}),
        i_ux_y=mutual_information(j, {u, x}, {y}),
        i_u_y_given_x=reference_conditional_mutual_information(j, {u}, {y}, {x}),
    )
    if abs(gap.i_x_y - (gap.i_ux_y - gap.i_u_y_given_x)) > 1e-9:
        raise NumericalConsistencyError("confounding-gap identity violated")
    return gap


def random_joint(seed: int, cards=(2, 2, 2), names=("A", "B", "C")) -> JointTable:
    rng = np.random.default_rng(seed)
    mass = rng.gamma(1.0, size=cards)
    mass = np.maximum(mass, 1e-12)
    return JointTable(names, cards, mass / mass.sum())


def sparse_scm(dag: Dag, seed: int, card=2, zero_share: float = 0.5, nodes=None) -> DiscreteScm:
    """:func:`random_scm` with each CPT entry of ``nodes`` (default: every
    node) zeroed with probability ``zero_share`` (every row keeps one
    positive entry), so that strata of zero mass and empty adjustment
    cells occur."""
    scm = random_scm(dag, seed, card=card)
    rng = np.random.default_rng(seed + 1)
    cpt = {}
    for v in dag.nodes:
        t = np.array(scm.cpt[v])
        keep = rng.random(t.shape) >= (zero_share if nodes is None or v in nodes else 0.0)
        keep[np.arange(len(t)), rng.integers(t.shape[1], size=len(t))] = True
        t = np.where(keep, t, 0.0)
        cpt[v] = t / t.sum(axis=1, keepdims=True)
    return DiscreteScm(dag, scm.card, cpt)


def _ancestral_closure(dag: Dag, Z) -> set:
    """``Z`` together with every ancestor of a member."""
    return set(Z).union(*(dag.ancestors(z) for z in Z))


def reference_open_trail(dag: Dag, X, Y, Z):
    """Trail oracle: depth-first enumeration of simple trails from
    ``sorted(X)``, neighbours in name order, returning the first open one
    that reaches ``Y``, or ``None``.  Exponential in the graph size."""
    X, Y, Z = frozenset(X), frozenset(Y), frozenset(Z)
    anc_z = _ancestral_closure(dag, Z)

    def explore(trail, arrows):
        # arrows[i] is True when the edge between trail[i] and trail[i+1]
        # points forward (at trail[i+1]).
        v = trail[-1]
        if v in Y:
            return list(trail)
        for u in sorted(dag.parents(v) | dag.children(v)):
            if u in trail:
                continue
            forward = u in dag.children(v)
            if len(trail) >= 2:
                if arrows[-1] and not forward:  # v is a collider
                    if v not in anc_z:
                        continue
                elif v in Z:
                    continue
            res = explore(trail + [u], arrows + [forward])
            if res is not None:
                return res
        return None

    for x in sorted(X):
        res = explore([x], [])
        if res is not None:
            return res
    return None


def open_trail_problem(dag: Dag, trail, X, Y, Z) -> str | None:
    """Why ``trail`` is not an open trail from ``X`` to ``Y`` given ``Z``,
    or ``None`` when it is one."""
    if not isinstance(trail, list) or len(trail) < 2:
        return f"{trail!r} is not a trail"
    if trail[0] not in X or trail[-1] not in Y:
        return f"{trail} does not run from {sorted(X)} to {sorted(Y)}"
    if len(set(trail)) != len(trail):
        return f"{trail} repeats a node"
    for a, b in zip(trail, trail[1:]):
        if (a, b) not in dag.edges and (b, a) not in dag.edges:
            return f"{trail}: {a} and {b} are not adjacent"
    anc_z = _ancestral_closure(dag, Z)
    for prev, v, nxt in zip(trail, trail[1:], trail[2:]):
        collider = (prev, v) in dag.edges and (nxt, v) in dag.edges
        if collider and v not in anc_z:
            return f"{trail}: collider {v} has no descendant in Z"
        if not collider and v in Z:
            return f"{trail}: non-collider {v} is in Z"
    return None


def random_dag(seed: int, n_nodes: int) -> Dag:
    """Random DAG: each pair (i < j) gets an edge with probability 1/2."""
    rng = np.random.default_rng(seed)
    names = [f"N{i}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < 0.5
    ]
    return Dag(names, edges, [])


TEMPLATE_DAGS = {
    "Fig1a": template("Fig1a"),
    "Fig1b": template("Fig1b"),
    "Fig1c": template("Fig1c"),
    "Fig1d": template("Fig1d"),
    "Fig2a": template("Fig2a"),
    "Fig2b": template("Fig2b"),
    "Fig2c": template("Fig2c"),
    "Fig3": template("Fig3"),
    "Fig4Chain": template("Fig4Chain(2)"),
    "Fig6Canonical": template("Fig6Canonical(2)"),
}

