"""Shared test helpers: brute-force oracles and random-structure builders.

Test modules import these from here, not from ``conftest``: a run that
collects both ``tests`` and ``bench`` has two ``conftest`` modules, and
only one of them can be imported under that name.
"""

import csv
import io
import itertools

import numpy as np

from causalrating import (
    Dag,
    DiscreteScm,
    JointTable,
    build_dag,
    build_scenario,
    infer,
    marginal,
    template,
)


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


def csv_writer_bytes(rows: np.ndarray, header=()) -> bytes:
    """CSV oracle: what ``csv.writer`` writes for the header and the rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(header)
    w.writerows(rows.tolist())
    return buf.getvalue().encode()


def reference_sample_rows(scm: DiscreteScm, n: int, seed: int) -> np.ndarray:
    """Sampling oracle: every row at once, each value the number of
    cumulative CPT thresholds at or below its uniform, clipped to the
    cardinality."""
    from causalrating.scm import _uniforms

    order = scm.dag.topological_order
    pos = {v: i for i, v in enumerate(order)}
    rows = np.zeros((n, len(order)), dtype=np.int64)
    for k, v in enumerate(order):
        u = _uniforms(seed, np.arange(n, dtype=np.uint64), k)
        ridx = np.zeros(n, dtype=np.int64)
        for p in scm.parents_of(v):
            ridx = ridx * scm.card[p] + rows[:, pos[p]]
        cum = np.cumsum(scm.cpt[v], axis=1)
        rows[:, k] = np.clip((u[:, None] >= cum[ridx, :]).sum(axis=1), 0, scm.card[v] - 1)
    return rows


def reference_chain_factorization_residual(s, d_value: int, scm=None) -> float:
    """Residual oracle: max |P(chain | D) - product of stage conditionals|
    over the chain S_0..S_D, Y_f, one configuration at a time, skipping
    those whose conditioning events have zero mass."""
    scm = build_scenario(s) if scm is None else scm
    chain = list(s.states) + ["Y_f"]
    lhs = infer(scm, chain, {"D": int(d_value)})
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
        prod = 1.0
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


def random_joint(seed: int, cards=(2, 2, 2), names=("A", "B", "C")) -> JointTable:
    rng = np.random.default_rng(seed)
    mass = rng.gamma(1.0, size=cards)
    mass = np.maximum(mass, 1e-12)
    return JointTable(names, cards, mass / mass.sum())


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
    return build_dag(names, edges, [])


TEMPLATE_DAGS = {
    "Fig1a": template("Fig1a"),
    "Fig1b": template("Fig1b"),
    "Fig1c": template("Fig1c"),
    "Fig1d": template("Fig1d"),
    "Fig2a": template("Fig2a"),
    "Fig2b": template("Fig2b"),
    "Fig2c": template("Fig2c"),
    "Fig3": template("Fig3"),
    "Fig4Chain": template("Fig4Chain", 2),
    "Fig6Canonical": template("Fig6Canonical", 2),
}

