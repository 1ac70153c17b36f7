"""Causal-effect identification and variable-elimination verdicts.

Adjustment estimators consume an observational joint table that must
not contain latent variables; only the surgery oracle
(:func:`causalrating.scm.do_distribution`) may see the full model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CriterionNotMet,
    LatentAdjustmentError,
    NumericalConsistencyError,
    OverlapError,
    ParameterError,
    PositivityViolation,
)
from .graph import (
    Dag,
    _drop_out_edges,
    d_separated,
    frontdoor_failure,
    mutilate,
    open_backdoor_trail,
    open_trail,
    satisfies_backdoor,
    satisfies_frontdoor,
)
from .info import conditional_mutual_information, mutual_information
from .scm import (
    DiscreteScm,
    JointTable,
    condition,
    infer,
    marginal,
    mass_of,
    scm_from_json,
)

__all__ = [
    "EffectQuery",
    "EliminationVerdict",
    "CapacityReport",
    "ConfoundingGap",
    "backdoor_adjust",
    "frontdoor_adjust",
    "rule1_deletion_check",
    "noise_verdict",
    "confounding_gap",
    "rating_comparison",
    "confounded_direct_example",
    "confounded_mediation_example",
    "NOISE",
    "SIGNAL",
    "UNIDENTIFIABLE",
]

NOISE = "Noise"
SIGNAL = "Signal"
UNIDENTIFIABLE = "Unidentifiable"


@dataclass(frozen=True)
class EffectQuery:
    """An interventional quantity: P(outcome | do(do), observed)."""

    outcome: str
    do: Mapping[str, int] | frozenset
    observed: frozenset = frozenset()

    def __post_init__(self):
        do = self.do if isinstance(self.do, Mapping) else frozenset(self.do)
        observed = frozenset(self.observed)
        do_names = frozenset(do.keys()) if isinstance(do, Mapping) else do
        if self.outcome in do_names or self.outcome in observed:
            raise OverlapError("outcome may not appear in do or observed sets")
        if do_names & observed:
            raise OverlapError("do and observed sets overlap")
        object.__setattr__(self, "do", do)
        object.__setattr__(self, "observed", observed)

    @property
    def do_names(self) -> tuple:
        if isinstance(self.do, Mapping):
            return tuple(self.do.keys())
        return tuple(sorted(self.do))


@dataclass(frozen=True)
class EliminationVerdict:
    """Outcome of the noise-vs-signal decision for one variable.

    ``justification`` is machine-parseable: a method prefix
    (``observational`` / ``interventional`` / ``blocked-backdoor`` /
    ``open-backdoor``) followed by the witnessing statement.
    """

    variable: str
    verdict: str
    justification: str

    def to_json(self) -> dict:
        return {
            "variable": self.variable,
            "verdict": self.verdict,
            "justification": self.justification,
        }


@dataclass(frozen=True)
class CapacityReport:
    """Predictive-capacity comparison of rating designs, in bits."""

    naive_bms: float
    augmented_bms: float
    phyd_major: float
    phyd_minor: float

    def to_json(self) -> dict:
        return {
            "naive_bms": self.naive_bms,
            "augmented_bms": self.augmented_bms,
            "phyd_major": self.phyd_major,
            "phyd_minor": self.phyd_minor,
        }


@dataclass(frozen=True)
class ConfoundingGap:
    """Decomposition of the observable MI against the confounded MI."""

    i_x_y: float
    i_ux_y: float
    i_u_y_given_x: float

    def to_json(self) -> dict:
        return {
            "i_x_y": self.i_x_y,
            "i_ux_y": self.i_ux_y,
            "i_u_y_given_x": self.i_u_y_given_x,
        }


def _ordered(j: JointTable, names: Iterable[str]) -> tuple:
    names = set(names)
    return tuple(v for v in j.vars if v in names)


def _configs(j: JointTable, names: tuple):
    """All value tuples for ``names`` (in that order)."""
    if not names:
        yield ()
        return
    cards = [j.card(v) for v in names]
    yield from np.ndindex(*cards)


def backdoor_adjust(j: JointTable, dag: Dag, x: str, y: str, Z) -> dict:
    """Back-door adjustment: P(y | do(x=v)) = sum_z P(y|v,z) P(z).

    Returns a map from x-value to a distribution over y.
    """
    Z = frozenset(Z)
    if Z & dag.latent:
        raise LatentAdjustmentError(f"latent nodes in adjustment set: {sorted(Z & dag.latent)}")
    if not satisfies_backdoor(dag, x, y, Z):
        raise CriterionNotMet(
            f"back-door criterion fails for ({x}, {y}) given {sorted(Z)}",
            witness=open_backdoor_trail(dag, x, y, Z),
        )
    z_vars = _ordered(j, Z)
    y_card = j.card(y)
    out = {}
    for xv in range(j.card(x)):
        dist = np.zeros(y_card)
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


def frontdoor_adjust(
    j: JointTable, dag: Dag, x: str, y: str, M, given=()
) -> dict:
    """Front-door adjustment through mediator set ``M``, per stratum of ``given``.

    For each configuration g of ``given`` with positive mass and each
    x-value v:

        P(y | do(x=v), g) = sum_m P(m|v,g) sum_v' P(y|v',m,g) P(v'|g)

    With ``given`` empty this is the classic front-door formula.  The
    inner factors are conditioned on the stratum throughout, which is
    what makes the estimate agree exactly with graph surgery.  Returns a
    map from (x-value, given-configuration) to a distribution over y.
    """
    M = frozenset(M)
    given = frozenset(given)
    if dag.latent & set(j.vars):
        raise LatentAdjustmentError(
            f"joint table contains latent nodes: {sorted(dag.latent & set(j.vars))}"
        )
    if not satisfies_frontdoor(dag, x, y, M):
        raise CriterionNotMet(
            f"front-door criterion fails for ({x}, {y}) via {sorted(M)}",
            witness=frontdoor_failure(dag, x, y, M),
        )
    m_vars = _ordered(j, M)
    g_vars = _ordered(j, given)
    x_card, y_card = j.card(x), j.card(y)
    out = {}
    for g_cfg in _configs(j, g_vars):
        g_assign = dict(zip(g_vars, (int(c) for c in g_cfg)))
        if g_assign and mass_of(j, g_assign) <= 0.0:
            continue
        jg = condition(j, g_assign) if g_assign else j
        px = marginal(jg, {x}).probs  # P(x' | g)
        # P(y | x', m, g) for every needed cell, computed once per stratum.
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


def rule1_deletion_check(dag: Dag, outcome: str, candidate: str, do_set) -> bool:
    """Do-calculus Rule 1: may ``candidate`` be deleted from
    P(outcome | do(do_set), candidate)?

    True iff outcome and candidate are d-separated by ``do_set`` in the
    surgically mutilated graph.
    """
    do_set = frozenset(do_set)
    if candidate in do_set or outcome in do_set:
        raise OverlapError("candidate/outcome may not be in the do-set")
    cut = mutilate(dag, do_set)
    return d_separated(cut, {outcome}, {candidate}, do_set)


def noise_verdict(dag: Dag, candidate: str, outcome: str, observed) -> EliminationVerdict:
    """Decide whether ``candidate`` is a deprecable noise variable.

    Noise when observational d-separation (checked first) or Rule-1
    deletion under do(observed) eliminates it; Signal when it stays
    relevant but every back-door trail to the outcome is blocked;
    Unidentifiable when an open back-door trail (through a latent
    confounder) remains.
    """
    observed = frozenset(observed)
    if candidate == outcome:
        raise OverlapError("candidate and outcome must differ")
    if observed & dag.latent:
        raise LatentAdjustmentError(
            f"latent nodes in observed set: {sorted(observed & dag.latent)}"
        )
    obs = ",".join(sorted(observed))
    if d_separated(dag, {candidate}, {outcome}, observed):
        return EliminationVerdict(
            candidate, NOISE, f"observational:({candidate} _||_ {outcome} | {obs})"
        )
    if rule1_deletion_check(dag, outcome, candidate, observed):
        return EliminationVerdict(
            candidate,
            NOISE,
            f"interventional:({outcome} _||_ {candidate} | do({obs}))",
        )
    trail = open_trail(_drop_out_edges(dag, {candidate}), {candidate}, {outcome}, observed)
    if trail is None:
        return EliminationVerdict(
            candidate,
            SIGNAL,
            f"blocked-backdoor:no open back-door trail from {candidate} to {outcome} given ({obs})",
        )
    return EliminationVerdict(
        candidate, UNIDENTIFIABLE, "open-backdoor:" + " - ".join(trail)
    )


def confounding_gap(scm: DiscreteScm, x: str, y: str, u: str) -> ConfoundingGap:
    """I(x;y), I({u,x};y) and I(u;y|x) off the exact joint of {u, x, y}.

    The identity i_x_y = i_ux_y - i_u_y_given_x is verified to 1e-9.
    """
    if u not in scm.dag.latent:
        raise ParameterError(f"{u!r} is not flagged latent in the graph")
    j = infer(scm, {u, x, y})
    gap = ConfoundingGap(
        i_x_y=mutual_information(j, {x}, {y}),
        i_ux_y=mutual_information(j, {u, x}, {y}),
        i_u_y_given_x=conditional_mutual_information(j, {u}, {y}, {x}),
    )
    if abs(gap.i_x_y - (gap.i_ux_y - gap.i_u_y_given_x)) > 1e-9:
        raise NumericalConsistencyError("confounding-gap identity violated")
    return gap


def rating_comparison(j: JointTable, yh, xc, yf) -> CapacityReport:
    """Predictive capacities of the naive, augmented and PHYD designs."""
    yh = frozenset([yh]) if isinstance(yh, str) else frozenset(yh)
    xc = frozenset([xc]) if isinstance(xc, str) else frozenset(xc)
    yf = frozenset([yf]) if isinstance(yf, str) else frozenset(yf)
    report = CapacityReport(
        naive_bms=mutual_information(j, yh, yf),
        augmented_bms=mutual_information(j, yh | xc, yf),
        phyd_major=mutual_information(j, xc, yf),
        phyd_minor=conditional_mutual_information(j, yh, yf, xc),
    )
    if report.augmented_bms < report.naive_bms - 1e-9:
        raise NumericalConsistencyError("augmented capacity below naive capacity")
    if abs(report.augmented_bms - (report.phyd_major + report.phyd_minor)) > 1e-9:
        raise NumericalConsistencyError("capacity chain rule violated")
    return report


def _packaged_scm(name: str) -> DiscreteScm:
    import json
    from importlib import resources

    text = resources.files("causalrating.data").joinpath(name).read_text()
    return scm_from_json(json.loads(text))


def confounded_direct_example() -> DiscreteScm:
    """A model where a latent cause drives both behavior and outcome.

    Conditioning on behavior overstates its effect; the confounding gap
    I(U; Y_f | X_c) is large and no back-door set exists among the
    observed variables, so the effect is not identifiable by
    adjustment on this graph.
    """
    return _packaged_scm("confounded_direct.json")


def confounded_mediation_example() -> DiscreteScm:
    """A confounded model whose effect is still front-door identifiable.

    The behavior acts on the outcome only through an observed mediator,
    so :func:`frontdoor_adjust` recovers the interventional
    distribution exactly while plain conditioning is biased.
    """
    return _packaged_scm("confounded_mediation.json")
