"""The real-time road-risk scenario: TTA-discretized driving-state chain.

The scenario is a concrete :class:`DiscreteScm` on the canonical graph
(claim history ``Y_h``, journey switch ``J_o``, latent confounder ``U``,
driving decision ``D``, per-stage traffic ``T_i``, binary peril states
``S_0..S_D`` with absorbing escalation, future claim ``Y_f``).  ``S_0``
is the absolutely-safe start event (point mass at 0), accidents require
``J_o = 1``, and each ``S_i`` is the indicator "peril level i reached".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from operator import gt
from typing import Mapping

import numpy as np

from .errors import NegativeTta, ParameterError, UnknownVariable
from .graph import _MAX_DEPTH, Dag, _read, _real, _shown, d_separated
from .identify import (
    EffectQuery, EffectTable, _divide, _fill, _layout, confounding_gap, identify_effect, rating_report,
)
from .info import conditional_mutual_information
from .scm import (
    Dataset, DiscreteScm, JointTable, _check_range, _csv_writer, _Sampler, _sum_to, condition, infer,
)

__all__ = [
    "RoadRiskScenario",
    "tta_discretize",
    "build_scenario",
    "scenario_dag",
    "markov_consistency",
    "simulate_journeys",
    "write_journeys",
    "evaluate_scenario",
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
_COUNTS = {"depth": 1, "decision_card": 2, "traffic_card": 2}  # the least value of each count
_THRESHOLDS = "positive, strictly decreasing numbers", lambda t: t and t[-1] > 0 and all(map(gt, t, t[1:]))
# Each rule: what it expects, its test and {field: levels down the field to one value}.
_VALUE_RULES = (
    (str(SCENARIO_SCHEMA_VERSION), lambda v: v == SCENARIO_SCHEMA_VERSION, {"schema_version": 0}),
    (*_THRESHOLDS, {"tta_thresholds": 0}),
    ("a distribution", lambda r: abs(sum(r) - 1.0) <= 1e-9 and min(r) >= 0.0,
     {"y_h_prior": 0, "traffic_dist": 0, "decision_base": 1}),
    ("a probability", lambda p: 0.0 <= p <= 1.0,
     {"journey_rate": 1, "escalation": 3, "accident_base": 1, "confounder_strength": 1}),
)
# The scenario's questions: the effect of (J_o, D) on Y_f, and the rating_report roles.
EFFECT_QUERY = EffectQuery("Y_f", {"J_o", "D"})
REPORT_ROLES = {"history": "Y_h", "behavior": "D", "outcome": EFFECT_QUERY.outcome, "observed": ("J_o", "D")}


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
        depth, dc, tc = counts = [_read(getattr(self, f), int, f, ParameterError) for f in _COUNTS]
        for (f, low), n in zip(_COUNTS.items(), counts):
            _check(n, f, 0, f"an integer >= {low}", low.__le__)
        y_h = _read(self.y_h_prior, [float], "y_h_prior", ParameterError)
        _check(y_h, "y_h_prior", 0, "an array of 2 or more", lambda a: len(a) >= 2)
        doc = _SCENARIO_DOC | {"tta_thresholds": [float, depth + 1], "journey_rate": [float, len(y_h)],
                               "traffic_dist": [float, tc], "accident_base": [float, 2],
                               "decision_base": [[float, dc], 2], "escalation": [[[float, tc], dc], depth]}
        for name, value in _read(vars(self), doc, "", ParameterError).items():
            object.__setattr__(self, name, value)
        for expected, ok, fields in _VALUE_RULES:
            for field, levels in fields.items():
                _check(getattr(self, field), field, levels, expected, ok)
        if max(self.accident_base) + (hazard := self.confounder_strength["hazard"]) > 1.0 + 1e-12:
            raise ParameterError(
                f"confounder_strength.hazard: expected <= 1 - max(accident_base), got {_shown(hazard)}")

    @property
    def states(self) -> tuple:
        return tuple(f"S_{i}" for i in range(self.depth + 1))

    @property
    def traffic_vars(self) -> tuple:
        return tuple(f"T_{i}" for i in range(self.depth + 1))

    @property
    def mediators(self) -> tuple:
        """The front-door set of ``EFFECT_QUERY``, ``S_depth``: every directed path D -> Y_f passes it,
        given the stratum J_o no back-door trail from D reaches it, and given D none reaches Y_f from it."""
        return (f"S_{self.depth}",)

    def query(self, **flags) -> dict:
        """An ``identify`` or ``report`` query's flags, each left ``None`` filled by :func:`identify._fill`
        from one table: ``REPORT_ROLES``, ``EFFECT_QUERY``'s do set and :attr:`mediators`."""
        return _fill({**REPORT_ROLES, "do": tuple(sorted(EFFECT_QUERY.do)), "mediators": self.mediators}, flags)


def _check(value, path: str, levels: int, expected: str, ok) -> None:
    """Raise :class:`ParameterError` at the first part ``levels`` levels down ``value`` that fails ``ok``."""
    if not levels:
        if not ok(value):
            raise ParameterError(f"{path}: expected {expected}, got {_shown(value)}")
        return
    for k, v in value.items() if type(value) is dict else enumerate(value):
        _check(v, f"{path}.{k}" if type(k) is str else f"{path}[{k}]", levels - 1, expected, ok)


def tta_discretize(tta: float, thresholds) -> int:
    """Peril state index for a time-to-accident reading.

    ``thresholds`` are strictly decreasing seconds t_1 > ... > t_{D+1};
    the returned index counts how many thresholds the reading falls
    below, so boundary values land in the less perilous state.  An
    infinite reading (no collision course) is the safest state, and so is
    an integer past the float range: each comparison is exact.
    """
    _check(t := _read(thresholds, [float], "thresholds", ParameterError), "thresholds", 0, *_THRESHOLDS)
    if not _real(tta) or tta != tta:  # NaN
        raise ParameterError(f"TTA must be a number, got {_shown(tta)}")
    if tta < 0:
        raise NegativeTta(f"TTA must be nonnegative, got {_shown(tta)}")
    return sum(1 for x in t if tta < x)


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


def _cpt(dag: Dag, v: str, table, axes: tuple) -> np.ndarray:
    """The CPT of ``v`` from ``table``, which has one axis per name in
    ``axes``, ``v``'s last: transposed to ``(*parents, v)`` and reshaped to
    one row per parent configuration, most significant parent first, in C
    order (a model keeps the layout of the rows it is given)."""
    t = np.asarray(table).transpose([axes.index(a) for a in (*dag._parents[v], v)])
    return np.ascontiguousarray(t).reshape(-1, t.shape[-1])


def build_scenario(s: RoadRiskScenario) -> DiscreteScm:
    """Emit the scenario as a validated discrete SCM.  Each CPT with
    parents is one table with a named axis per variable, put in the
    model's row order by :func:`_cpt`."""
    dag = scenario_dag(s)
    cs = s.confounder_strength
    u_prob, shift, hazard = (cs[k] for k in _CONFOUNDER_KEYS)
    dc, tc = s.decision_card, s.traffic_card
    card = {"Y_h": len(s.y_h_prior), "J_o": 2, "U": 2, "D": dc, "Y_f": 2}
    card |= dict.fromkeys(s.traffic_vars, tc) | dict.fromkeys(s.states, 2)

    cpt = {
        "Y_h": np.array([s.y_h_prior]),
        "J_o": np.array([[1.0 - r, r] for r in s.journey_rate]),
        "U": np.array([[1.0 - u_prob, u_prob]]),
        **dict.fromkeys(s.traffic_vars, np.array([s.traffic_dist])),
    }
    # D: the confounder shifts mass toward the most aggressive value.
    base = np.array(s.decision_base)  # (J_o, D)
    table = [base, (1.0 - shift) * base + shift * np.eye(dc)[-1]]
    cpt["D"] = _cpt(dag, "D", table, ("U", "J_o", "D"))
    # S_0: every journey starts absolutely safe.
    cpt["S_0"] = _cpt(dag, "S_0", np.broadcast_to([1.0, 0.0], (tc, dc, 2)), ("T_0", "D", "S_0"))
    # S_i: absorbing escalation driven by the decision and stage traffic.
    esc = np.array(s.escalation)  # (stage, D, T_i)
    step = np.stack([1.0 - esc, esc], axis=-1)
    absorbed = np.broadcast_to([0.0, 1.0], (dc, tc, 2))
    for i in range(1, s.depth + 1):
        axes = (f"S_{i - 1}", "D", f"T_{i}", f"S_{i}")
        cpt[f"S_{i}"] = _cpt(dag, f"S_{i}", [step[i - 1], absorbed], axes)
    # Y_f: accidents require a started journey.
    p = np.minimum(1.0, np.array(s.accident_base) + hazard * np.arange(2)[:, None])  # (U, S_D)
    table = [np.broadcast_to([1.0, 0.0], (2, 2, 2)), np.stack([1.0 - p, p], axis=-1)]
    cpt["Y_f"] = _cpt(dag, "Y_f", table, ("J_o", "U", s.states[-1], "Y_f"))
    return DiscreteScm(dag, card, cpt)


def _chain(scm: DiscreteScm) -> list:
    """The model's peril states ``S_<digits>`` in number order, then ``Y_f``;
    a model without ``D`` raises :class:`UnknownVariable`."""
    if "D" not in scm.card:
        raise UnknownVariable("unknown variable: 'D'")
    states = (v for v in scm.dag.nodes if v[:2] == "S_" and v[2:].isdecimal())
    return [*sorted(states, key=lambda v: int(v[2:])), "Y_f"]


def markov_consistency(scm: DiscreteScm) -> float:
    """Max over stages and decision values of I(T_k; next | S_k, D=d),
    where ``T_k`` is the traffic of state ``S_k`` (paired by the number in
    the name) and ``next`` is the link after ``S_k`` in :func:`_chain`.

    A stage where ``{S_k, D}`` d-separates ``T_k`` from ``next`` in the
    graph contributes exactly 0 and costs no inference: the conditional
    independence holds in every model on that graph, for every decision
    value.  Every other stage costs one inference, whose joint keeps
    ``D`` and is then conditioned on every decision value of positive
    mass.  So a model emitted by :func:`build_scenario` gives exactly 0
    without any inference; a positive value flags a traffic variable
    leaking past its own stage.  A model without ``D`` raises
    :class:`UnknownVariable`.
    """
    chain = _chain(scm)
    worst = 0.0
    for st, nxt in zip(chain, chain[1:]):
        t = "T" + st[1:]
        if t not in scm.card or nxt not in scm.card:
            continue
        if d_separated(scm.dag, {t}, {nxt}, {st, "D"}):
            continue  # zero in every model on this graph
        j = infer(scm, {"D", t, st, nxt})
        for d in np.flatnonzero(_sum_to(j, ("D",))).tolist():
            jd = condition(j, {"D": d})
            worst = max(worst, conditional_mutual_information(jd, {t}, {nxt}, {st}))
    return worst


class _JourneySampler(_Sampler):
    """The sampler of the scenario's model, which masks and range-checks
    each block of journey records it draws.

    Rows with ``J_o = 0`` describe a journey that never happened: their
    peril-state columns are set to the all-safe trajectory in place (the
    sampled values are counterfactual style potentials, not realized
    states).  ``Y_f`` needs no masking; the model gates it on ``J_o``.
    """

    def __init__(self, s: RoadRiskScenario):
        super().__init__(build_scenario(s))
        self.journey, self.states = self.order.index("J_o"), [self.order.index(st) for st in s.states]

    def draw(self, seed: int, start: int, rows: np.ndarray) -> np.ndarray:
        super().draw(seed, start, rows)
        for k in self.states:
            rows[:, k] *= rows[:, self.journey]  # J_o is 0 or 1
        _check_range(self.order, self.cards, rows)
        return rows


def simulate_journeys(s: RoadRiskScenario, n: int, seed: int) -> Dataset:
    """Ancestral sampling of the scenario, one journey record per row, with
    ``n`` and ``seed`` read and the rows held as by :func:`scm.sample`, and
    the peril states of stay-home rows masked (see :class:`_JourneySampler`)."""
    return _JourneySampler(s).dataset(seed, 0, n)


def write_journeys(s: RoadRiskScenario, n: int, seed: int, path) -> tuple:
    """Stream the CSV of ``simulate_journeys(s, n, seed)`` to the file at ``path``: the
    header, then each block of rows as it is drawn into the sampler's one reused block.
    Returns the columns and the count of rows with ``Y_f = 1``.  ``n`` and ``seed`` are
    read, and the sampler compiled, before ``path`` is opened: a refusal leaves it as it was."""
    sampler, claims = _JourneySampler(s), 0
    seed, _, n = sampler.request(seed, 0, n, held=False)
    with open(path, "wb") as fh:
        write_rows = _csv_writer(fh.write, sampler.order, sampler.cards)
        for rows in sampler.blocks(seed, 0, n, sampler.rows):
            write_rows(rows)
            claims += np.count_nonzero(rows[:, sampler.order.index("Y_f")])
    return sampler.order, claims


def ground_truth_effect(s: RoadRiskScenario, q: EffectQuery) -> EffectTable:
    """Exact interventional oracle via graph surgery on the full model."""
    return identify_effect(build_scenario(s), q, "oracle")[1]


def observational_joint(s: RoadRiskScenario) -> JointTable:
    """Exact joint over every observable variable (U and traffic summed
    out): 36 * 2^(depth + 1) cells on the default cardinalities."""
    return infer(build_scenario(s), {"Y_h", "J_o", "D", "Y_f", *s.states})


def phyd_effect(s: RoadRiskScenario) -> EffectTable:
    """P(Y_f | do(J_o, D)) for every (J_o, D) pair, identified from data.

    Front-door adjustment through ``s.mediators``, the last peril state,
    on the U-free observational joint, stratified by the journey switch;
    matches the surgery oracle on the canonical graph to 1e-9.
    """
    return identify_effect(build_scenario(s), EFFECT_QUERY, "frontdoor", s.mediators)[1]


def naive_effect(s: RoadRiskScenario, *, joint: JointTable | None = None) -> EffectTable:
    """Conditioning-based estimate P(Y_f | J_o, D), for bias comparison.

    ``joint``, when given, may be any joint of ``build_scenario(s)`` that
    holds ``J_o``, ``D`` and ``Y_f``; the default infers the joint of
    those three alone, whose size does not grow with the depth.  A
    (J_o, D) pair of zero mass is a dead cell of the table.
    """
    j = infer(build_scenario(s), {"J_o", "D", "Y_f"}) if joint is None else joint
    p = _layout(j, ("J_o",), ("D",), ("Y_f",))
    _divide((p, p.sum(axis=-1, keepdims=True)))
    return EffectTable("Y_f", ("J_o", "D"), (), p)


def chain_factorization_residual(scm: DiscreteScm) -> float:
    """Max over decision values d of the deviation of P(chain | D=d) from
    P(first | D=d) times the stage conditionals P(next | prev, D=d), for the
    chain S_0, S_1, ..., Y_f.  It is exactly 0, with no inference, where
    ``{previous link, D}`` d-separates each link from every earlier one
    (the chain is then Markov given ``D`` in every model on the graph, as
    in every :func:`build_scenario` model).  A model without ``D`` or
    ``Y_f`` raises :class:`UnknownVariable`."""
    chain = _chain(scm)
    if "Y_f" in scm.card and all(
        d_separated(scm.dag, {chain[k + 1]}, set(chain[:k]), {chain[k], "D"})
        for k in range(1, len(chain) - 1)
    ):
        return 0.0
    return _factorization_residual(scm, chain)


def _factorization_residual(scm: DiscreteScm, chain: list) -> float:
    """:func:`chain_factorization_residual` from one inferred joint of ``D``
    and the chain, exponential in its length (3 * 2^(depth + 2) cells on the
    canonical chain, under the cap of :func:`infer`).  A decision value or
    stage condition of zero mass adds nothing: its conditionals are 0."""
    j = infer(scm, {"D", *chain})
    worst = 0.0
    for d in np.flatnonzero(_sum_to(j, ("D",))).tolist():
        lhs = condition(j, {"D": d})
        prod = _layout(lhs, chain[:1])
        for a, b in zip(chain, chain[1:]):
            p = _layout(lhs, (a,), (b,))
            _divide((p, p.sum(axis=1, keepdims=True)))
            prod = prod[..., None] * p
        worst = max(worst, float(np.abs(_layout(lhs, *zip(chain)) - prod).max()))
    return worst


def evaluate_scenario(s: RoadRiskScenario) -> dict:
    """The ``evaluate`` report of the scenario, every field but the document's ``schema_version``:
    the history verdict, the capacities, the confounding gap, both chain diagnostics and the
    front-door (through ``s.mediators``) and naive estimates, each with its largest deviation
    from the surgery oracle over its live cells."""
    scm = build_scenario(s)
    # One joint holds every information field and the naive estimate.
    j = infer(scm, {"Y_h", "J_o", "U", "D", "Y_f"})
    report = rating_report(scm, **REPORT_ROLES, joint=j)
    gap = confounding_gap(scm, "D", "Y_f", "U", joint=j)
    _, pe = identify_effect(scm, EFFECT_QUERY, "frontdoor", s.mediators)
    _, gt = identify_effect(scm, EFFECT_QUERY, "oracle")
    ne = naive_effect(s, joint=j)
    phyd_dev = float(np.abs(pe.probs - gt.probs)[pe.probs.any(axis=-1)].max())
    naive_tv = 0.5 * float(np.abs(ne.probs - gt.probs).sum(axis=-1)[ne.probs.any(axis=-1)].max())
    return {
        "depth": int(s.depth),
        "capacity_bits": report["capacity_bits"],
        "confounding_gap_bits": gap.to_json(),
        "chain_factorization_residual": chain_factorization_residual(scm),
        "traffic_markov_residual_bits": markov_consistency(scm),
        "phyd_vs_oracle_max_dev": phyd_dev,
        "naive_vs_oracle_max_tv": naive_tv,
        "history_outcome_mi_bits": report["capacity_bits"]["naive_bms"],
        "history_verdict": report["verdict"],
        "effects": {"oracle": gt.to_json(), "frontdoor": pe.to_json(), "naive": ne.to_json()},
    }


# -- fixtures and serialization -------------------------------------------


def canonical_scenario(depth: int) -> RoadRiskScenario:
    """Programmatic defaults for chain depths 1 to 1074 (fixtures, not data):
    past 1074, the last threshold, ``4 * 0.5**depth``, underflows to 0."""
    depth, dc, tc = _read(depth, int, "depth", ParameterError), 3, 2
    if not 1 <= depth <= _MAX_DEPTH:
        raise ParameterError(f"depth: expected an integer from 1 to {_MAX_DEPTH}, got {_shown(depth)}")
    base = 0.05 + 0.06 * np.arange(depth)[:, None, None]  # (stage, D, T)
    d, t = np.arange(dc)[:, None], np.arange(tc)
    esc = np.minimum(0.9, base * (1.0 + 2.2 * d / (dc - 1)) * (1.0 + 0.9 * t / (tc - 1)))
    return RoadRiskScenario(
        depth=depth,
        decision_card=dc,
        traffic_card=tc,
        tta_thresholds=tuple(4.0 * 0.5**i for i in range(depth + 1)),
        y_h_prior=(0.62, 0.28, 0.10),
        journey_rate=(0.90, 0.72, 0.50),
        decision_base=((0.45, 0.40, 0.15), (0.50, 0.35, 0.15)),
        traffic_dist=(0.65, 0.35),
        escalation=esc,
        accident_base=(0.015, 0.55),
        confounder_strength={"u_prob": 0.30, "decision_shift": 0.55, "hazard": 0.30},
    )


def scenario_to_json(s: RoadRiskScenario) -> dict:
    doc = asdict(s)
    doc["confounder_strength"] = dict(s.confounder_strength)
    return json.loads(json.dumps(doc))


def scenario_from_json(doc: Mapping) -> RoadRiskScenario:
    return RoadRiskScenario(**_read(doc, dict.fromkeys(_SCENARIO_DOC, object), "scenario", ParameterError))


def default_scenario() -> RoadRiskScenario:
    """The shipped depth-2 scenario fixture."""
    text = resources.files("causalrating.data").joinpath("default_scenario.json").read_text()
    return scenario_from_json(json.loads(text))
