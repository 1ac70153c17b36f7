"""The real-time road-risk scenario: TTA-discretized driving-state chain.

The scenario is a concrete :class:`DiscreteScm` on the canonical graph
(claim history ``Y_h``, journey switch ``J_o``, latent confounder ``U``,
driving decision ``D``, per-stage traffic ``T_i``, binary peril states
``S_0..S_D`` with absorbing escalation, future claim ``Y_f``).  ``S_0``
is the absolutely-safe start event (point mass at 0), accidents require
``J_o = 1``, and each ``S_i`` is the indicator "peril level i reached".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Mapping

import numpy as np

from .errors import NegativeTta, ParameterError, ValueOutOfRange
from .graph import Dag, _read_json
from .identify import EffectQuery, EffectTable, identify_effect
from .info import conditional_mutual_information
from .scm import (
    Dataset,
    DiscreteScm,
    JointTable,
    condition,
    infer,
    marginal,
    _sample_rows,
)

__all__ = [
    "RoadRiskScenario",
    "tta_discretize",
    "build_scenario",
    "scenario_dag",
    "markov_consistency",
    "simulate_journeys",
    "ground_truth_effect",
    "phyd_effect",
    "naive_effect",
    "observational_joint",
    "chain_factorization_residual",
    "default_scenario",
    "canonical_scenario",
    "scenario_to_json",
    "scenario_from_json",
]

SCENARIO_SCHEMA_VERSION = 1
_CONFOUNDER_KEYS = ("u_prob", "decision_shift", "hazard")
_SCENARIO_DOC = {
    "schema_version": int, "depth": int, "decision_card?": int, "traffic_card?": int,
    "tta_thresholds": [float], "y_h_prior": [float], "journey_rate": [float],
    "decision_base": [[float]], "traffic_dist": [float], "escalation": [[[float]]],
    "accident_base": [float], "confounder_strength": dict.fromkeys(_CONFOUNDER_KEYS, float),
}
_FLOAT_FIELDS = [f for f, kind in _SCENARIO_DOC.items() if type(kind) is list]


def _finite_floats(value, name: str) -> tuple:
    """The array ``value`` as nested tuples of floats, which must be finite."""
    if len(value) and isinstance(value[0], (list, tuple, np.ndarray)):
        return tuple(_finite_floats(v, name) for v in value)
    if all(map(math.isfinite, floats := tuple(map(float, value)))):
        return floats
    raise ParameterError(f"{name} must hold finite numbers")


@dataclass(frozen=True)
class RoadRiskScenario:
    """Parameterization of the canonical road-risk graph.

    ``escalation[i][d][t]`` is the probability of advancing from peril
    level i to i+1 under decision d and traffic t (stages feed
    ``S_1..S_D``).  ``accident_base[s]`` is the accident probability for
    a started journey ending at peril level s with no confounder;
    ``confounder_strength`` holds the latent prevalence (``u_prob``),
    the shift of the decision distribution toward the most aggressive
    value (``decision_shift``) and the additive accident hazard
    (``hazard``).  All constants are repository fixtures; none come from
    measured data.
    """

    depth: int
    tta_thresholds: tuple
    y_h_prior: tuple
    journey_rate: tuple  # P(J_o=1 | Y_h=h)
    decision_base: tuple  # per J_o value: distribution over decisions (U=0)
    traffic_dist: tuple
    escalation: tuple  # [stage][decision][traffic] -> advance probability
    accident_base: tuple  # by final peril level: (safe, perilous)
    confounder_strength: Mapping[str, float]
    decision_card: int = 3
    traffic_card: int = 2
    schema_version: int = SCENARIO_SCHEMA_VERSION

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, _finite_floats(getattr(self, name), name))
        object.__setattr__(self, "confounder_strength", dict(self.confounder_strength))
        self._validate()

    def _validate(self):
        if self.depth < 1:
            raise ParameterError("depth must be >= 1")
        if self.decision_card < 2 or self.traffic_card < 2:
            raise ParameterError("decision and traffic cardinalities must be >= 2")
        t = self.tta_thresholds
        if len(t) != self.depth + 1:
            raise ParameterError(f"need {self.depth + 1} TTA thresholds, got {len(t)}")
        if any(x <= 0 for x in t) or any(a >= b for a, b in zip(t[1:], t[:-1])):
            raise ParameterError("TTA thresholds must be strictly decreasing and positive")
        for name, dist in (("y_h_prior", self.y_h_prior), ("traffic_dist", self.traffic_dist)):
            if abs(sum(dist) - 1.0) > 1e-9 or min(dist) < 0:
                raise ParameterError(f"{name} is not a distribution")
        if len(self.traffic_dist) != self.traffic_card:
            raise ParameterError("traffic_dist length != traffic_card")
        if len(self.journey_rate) != len(self.y_h_prior):
            raise ParameterError("journey_rate must have one entry per claim-history value")
        if not all(0.0 <= r <= 1.0 for r in self.journey_rate):
            raise ParameterError("journey rates must be probabilities")
        if len(self.decision_base) != 2:
            raise ParameterError("decision_base needs one row per journey-switch value")
        for row in self.decision_base:
            if len(row) != self.decision_card or abs(sum(row) - 1.0) > 1e-9 or min(row) < 0:
                raise ParameterError("decision_base rows must be distributions over decisions")
        if len(self.escalation) != self.depth:
            raise ParameterError(f"need {self.depth} escalation stages")
        for stage in self.escalation:
            if len(stage) != self.decision_card:
                raise ParameterError("escalation stage must cover every decision value")
            for row in stage:
                if len(row) != self.traffic_card or not all(0.0 <= p <= 1.0 for p in row):
                    raise ParameterError("escalation entries must be probabilities per traffic value")
        if len(self.accident_base) != 2 or not all(0.0 <= p <= 1.0 for p in self.accident_base):
            raise ParameterError("accident_base must be two probabilities")
        cs = self.confounder_strength
        unknown = set(cs) - set(_CONFOUNDER_KEYS)
        if unknown:
            raise ParameterError(f"unknown confounder_strength keys: {sorted(unknown)}")
        for key in _CONFOUNDER_KEYS:
            if key not in cs or not 0.0 <= float(cs[key]) <= 1.0:
                raise ParameterError(f"confounder_strength.{key} must be a probability")
        if max(self.accident_base) + float(cs["hazard"]) > 1.0 + 1e-12:
            raise ParameterError("accident_base + hazard exceeds 1")

    @property
    def states(self) -> tuple:
        return tuple(f"S_{i}" for i in range(self.depth + 1))

    @property
    def traffic_vars(self) -> tuple:
        return tuple(f"T_{i}" for i in range(self.depth + 1))


def tta_discretize(tta: float, thresholds) -> int:
    """Peril state index for a time-to-accident reading.

    ``thresholds`` are strictly decreasing seconds t_1 > ... > t_{D+1};
    the returned index counts how many thresholds the reading falls
    below, so boundary values land in the less perilous state.  An
    infinite reading (no collision course) is the safest state.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or any(not 0 < x < math.inf for x in thresholds) or any(
        a >= b for a, b in zip(thresholds[1:], thresholds[:-1])
    ):
        raise ParameterError("thresholds must be strictly decreasing, positive and finite")
    if math.isnan(tta):
        raise ParameterError("TTA must be a number, got nan")
    if tta < 0:
        raise NegativeTta(f"TTA must be nonnegative, got {tta}")
    return sum(1 for t in thresholds if tta < t)


def scenario_dag(s: RoadRiskScenario) -> Dag:
    """Canonical graph extended with traffic parents and the journey gate."""
    states, traffic = s.states, s.traffic_vars
    nodes = ["Y_h", "J_o", "U", "D", *traffic, *states, "Y_f"]
    edges = [("Y_h", "J_o"), ("J_o", "D"), ("U", "D"), ("U", "Y_f"), ("J_o", "Y_f")]
    for t, st in zip(traffic, states):
        edges.append((t, st))
    for st in states:
        edges.append(("D", st))
    for a, b in zip(states, states[1:]):
        edges.append((a, b))
    edges.append((states[-1], "Y_f"))
    return Dag(nodes, edges, ("U",))


def _cpt_rows(dag: Dag, card: Mapping[str, int], node: str, dist_fn) -> np.ndarray:
    """Build a CPT by enumerating parent rows in the model's own order.

    Rows are mixed-radix over the parents in the default order of
    :class:`DiscreteScm`, most significant parent first.
    """
    parents = dag._parents[node]
    rows = [
        dist_fn(dict(zip(parents, cfg)))
        for cfg in itertools.product(*[range(card[p]) for p in parents])
    ]
    return np.array(rows, dtype=float)


def build_scenario(s: RoadRiskScenario) -> DiscreteScm:
    """Emit the scenario as a validated discrete SCM."""
    dag = scenario_dag(s)
    cs = s.confounder_strength
    u_prob, shift, hazard = float(cs["u_prob"]), float(cs["decision_shift"]), float(cs["hazard"])
    dc, tc = s.decision_card, s.traffic_card

    card = {"Y_h": len(s.y_h_prior), "J_o": 2, "U": 2, "D": dc, "Y_f": 2}
    for v in s.traffic_vars + s.states:
        card[v] = tc if v.startswith("T") else 2

    cpt = {
        "Y_h": np.array([s.y_h_prior]),
        "J_o": np.array([[1.0 - r, r] for r in s.journey_rate]),
        "U": np.array([[1.0 - u_prob, u_prob]]),
    }
    # D: the confounder shifts mass toward the most aggressive value.
    aggressive = np.eye(dc)[-1]

    def d_dist(a):
        base = np.array(s.decision_base[a["J_o"]])
        if a["U"]:
            return (1.0 - shift) * base + shift * aggressive
        return base

    cpt["D"] = _cpt_rows(dag, card, "D", d_dist)

    for t in s.traffic_vars:
        cpt[t] = np.array([s.traffic_dist])

    # S_0: every journey starts absolutely safe.
    cpt["S_0"] = _cpt_rows(dag, card, "S_0", lambda a: [1.0, 0.0])
    # S_i: absorbing escalation driven by the decision and stage traffic.
    for i in range(1, s.depth + 1):
        def s_dist(a, stage=i):
            if a[f"S_{stage - 1}"]:
                return [0.0, 1.0]
            e = s.escalation[stage - 1][a["D"]][a[f"T_{stage}"]]
            return [1.0 - e, e]

        cpt[f"S_{i}"] = _cpt_rows(dag, card, f"S_{i}", s_dist)

    # Y_f: accidents require a started journey.
    def y_dist(a):
        if a["J_o"] == 0:
            return [1.0, 0.0]
        p = min(1.0, s.accident_base[a[f"S_{s.depth}"]] + hazard * a["U"])
        return [1.0 - p, p]

    cpt["Y_f"] = _cpt_rows(dag, card, "Y_f", y_dist)
    return DiscreteScm(dag, card, cpt)


def _states(scm: DiscreteScm) -> list:
    """The model's peril states ``S_0, S_1, ...`` in chain order."""
    return sorted(
        (v for v in scm.dag.nodes if v.startswith("S_")), key=lambda v: int(v.split("_")[1])
    )


def markov_consistency(scm: DiscreteScm) -> float:
    """Max over stages and decision values of I(T_i; S_{i+1} | S_i, D=d).

    Each stage costs one inference, whose joint keeps ``D`` and is then
    conditioned on every decision value.  Structurally zero (< 1e-9) for
    models emitted by :func:`build_scenario`; a positive value flags a
    traffic variable leaking past its own stage.
    """
    states = _states(scm)
    worst = 0.0
    for i, st in enumerate(states):
        nxt = states[i + 1] if i + 1 < len(states) else "Y_f"
        t = f"T_{i}"
        if t not in scm.card or nxt not in scm.card:
            continue
        j = infer(scm, {"D", t, st, nxt})
        for d in range(scm.card["D"]):
            jd = condition(j, {"D": d})
            worst = max(worst, conditional_mutual_information(jd, {t}, {nxt}, {st}))
    return worst


def _journey_blocks(s: RoadRiskScenario, n: int, seed: int, block_rows: int):
    """Journey records ``0..n-1`` of the scenario, as one :class:`Dataset`
    per block of at most ``block_rows`` rows.

    Each block is drawn on its own (:func:`_sample_rows`), so the rows
    are those of one large draw.  Rows with ``J_o = 0`` describe a
    journey that never happened: their peril-state columns are set to
    the all-safe trajectory in place (the sampled values are
    counterfactual style potentials, not realized states).  ``Y_f``
    needs no masking; the model gates it on ``J_o``.
    """
    if n < 1:
        raise ValueOutOfRange("n must be >= 1")
    scm = build_scenario(s)
    order = scm.dag.topological_order
    cards = tuple(scm.card[v] for v in order)
    journey, states = order.index("J_o"), [order.index(st) for st in s.states]
    for start in range(0, n, block_rows):
        rows = _sample_rows(scm, min(block_rows, n - start), seed, start=start)
        for k in states:
            rows[:, k] *= rows[:, journey]  # J_o is 0 or 1
        yield Dataset(order, cards, rows, seed)


def simulate_journeys(s: RoadRiskScenario, n: int, seed: int) -> Dataset:
    """Ancestral sampling of the scenario, one journey record per row,
    with the peril states of stay-home rows masked (see
    :func:`_journey_blocks`)."""
    return next(_journey_blocks(s, n, seed, n))


def ground_truth_effect(s: RoadRiskScenario, q: EffectQuery) -> EffectTable:
    """Exact interventional oracle via graph surgery on the full model."""
    return identify_effect(build_scenario(s), q, "oracle")[1]


def observational_joint(s: RoadRiskScenario) -> JointTable:
    """Exact joint over every observable variable (U and traffic summed
    out): 36 * 2^(depth + 1) cells on the default cardinalities."""
    return infer(build_scenario(s), {"Y_h", "J_o", "D", "Y_f", *s.states})


def phyd_effect(s: RoadRiskScenario) -> EffectTable:
    """P(Y_f | do(J_o, D)) for every (J_o, D) pair, identified from data.

    Front-door adjustment through the peril-state chain on the U-free
    observational joint, stratified by the journey switch; matches the
    surgery oracle on the canonical graph to 1e-9.
    """
    q = EffectQuery("Y_f", {"J_o", "D"})
    return identify_effect(build_scenario(s), q, "frontdoor", s.states)[1]


def naive_effect(s: RoadRiskScenario, *, joint: JointTable | None = None) -> EffectTable:
    """Conditioning-based estimate P(Y_f | J_o, D), for bias comparison.

    ``joint``, when given, may be any joint of ``build_scenario(s)`` that
    holds ``J_o``, ``D`` and ``Y_f``; the default infers the joint of
    those three alone, whose size does not grow with the depth.
    """
    j = infer(build_scenario(s), {"J_o", "D", "Y_f"}) if joint is None else joint
    probs = [
        [marginal(condition(j, {"J_o": jo, "D": d}), {"Y_f"}).probs for d in range(s.decision_card)]
        for jo in range(2)
    ]
    return EffectTable("Y_f", ("J_o", "D"), (), np.array(probs))


def chain_factorization_residual(scm: DiscreteScm) -> float:
    """Max over decision values d of the deviation of P(chain | D=d) from
    the product of the stage conditionals P(next | prev, D=d).

    The chain is the model's S_0, S_1, ... followed by Y_f as the
    accident state; each decision value costs one inference.
    Configurations whose conditioning events have zero mass (unreachable
    under the absorbing encoding) are skipped.
    """
    chain = [*_states(scm), "Y_f"]
    worst = 0.0
    for d in range(scm.card["D"]):
        lhs = infer(scm, chain, {"D": d})
        actual = lhs.probs.transpose([lhs.vars.index(v) for v in chain])
        # The product over every chain configuration; NaN where a
        # conditioning event has zero mass.
        prod = np.ones((1,) * len(chain))
        for k, (a, b) in enumerate(zip(chain, chain[1:])):
            m = marginal(lhs, {a, b})
            p = m.probs if m.vars == (a, b) else m.probs.T
            denom = p.sum(axis=1, keepdims=True)
            cond = np.where(denom > 0, p / np.where(denom > 0, denom, 1.0), np.nan)
            prod = prod * cond.reshape((1,) * k + cond.shape + (1,) * (len(chain) - k - 2))
        dev = np.abs(actual - prod)
        worst = max(worst, float(np.max(dev, where=~np.isnan(dev), initial=0.0)))
    return worst


# -- fixtures and serialization -------------------------------------------


def canonical_scenario(depth: int) -> RoadRiskScenario:
    """Programmatic defaults for any chain depth (fixtures, not data)."""
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
    return RoadRiskScenario(
        depth=depth,
        decision_card=dc,
        traffic_card=tc,
        tta_thresholds=tuple(4.0 * 0.5**i for i in range(depth + 1)),
        y_h_prior=(0.62, 0.28, 0.10),
        journey_rate=(0.90, 0.72, 0.50),
        decision_base=((0.45, 0.40, 0.15), (0.50, 0.35, 0.15)),
        traffic_dist=(0.65, 0.35),
        escalation=tuple(esc),
        accident_base=(0.015, 0.55),
        confounder_strength={"u_prob": 0.30, "decision_shift": 0.55, "hazard": 0.30},
    )


def scenario_to_json(s: RoadRiskScenario) -> dict:
    doc = asdict(s)
    doc["confounder_strength"] = dict(s.confounder_strength)
    return json.loads(json.dumps(doc))


def scenario_from_json(doc: Mapping) -> RoadRiskScenario:
    doc = _read_json(doc, _SCENARIO_DOC, "scenario", ParameterError)
    if doc["schema_version"] != SCENARIO_SCHEMA_VERSION:
        raise ParameterError(f"unsupported scenario schema_version {doc['schema_version']}")
    return RoadRiskScenario(**doc)


def default_scenario() -> RoadRiskScenario:
    """The shipped depth-2 scenario fixture."""
    text = resources.files("causalrating.data").joinpath("default_scenario.json").read_text()
    return scenario_from_json(json.loads(text))
