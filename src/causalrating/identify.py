"""Causal-effect identification.

:func:`_choose` is the one place that picks an identification strategy,
on the graph alone; :func:`identify_effect` and both adjusters run its
choice, and each returns an :class:`EffectTable`.  Adjustment estimators
consume an observational joint table that must not contain latent
variables; only the surgery oracle may see the full model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CriterionNotMet,
    NumericalConsistencyError,
    OverlapError,
    ParameterError,
    PositivityViolation,
    UnknownVariable,
)
from .graph import (
    IDENTIFY_METHODS,
    Dag,
    _cut,
    _names,
    _refuse_latent,
    frontdoor_failure,
    noise_verdict,
    open_backdoor_trail,
    open_trail,
)
from .info import chain_decompositions
from .scm import DiscreteScm, JointTable, _in_range, _sum_to, _surgery, infer, scm_from_json

__all__ = [
    "EffectQuery",
    "EffectTable",
    "CapacityReport",
    "ConfoundingGap",
    "backdoor_adjust",
    "frontdoor_adjust",
    "identify_effect",
    "confounding_gap",
    "rating_comparison",
    "rating_report",
    "confounded_direct_example",
    "confounded_mediation_example",
]


@dataclass(frozen=True)
class EffectQuery:
    """An interventional quantity: P(outcome | do(do), observed).

    ``do`` names the intervened variables; :func:`identify_effect`
    answers the query for every configuration of them.
    """

    outcome: str
    do: frozenset
    observed: frozenset = frozenset()

    def __post_init__(self):
        for field in ("do", "observed"):
            if isinstance(getattr(self, field), Mapping):
                raise ParameterError(f"EffectQuery.{field} takes a collection of variable names")
        do = _names(self.do, "EffectQuery.do")
        observed = _names(self.observed, "EffectQuery.observed")
        if self.outcome in do or self.outcome in observed:
            raise OverlapError("outcome may not appear in do or observed sets")
        if do & observed:
            raise OverlapError("do and observed sets overlap")
        object.__setattr__(self, "do", do)
        object.__setattr__(self, "observed", observed)


@dataclass(frozen=True)
class EffectTable:
    """Distributions over an outcome, per do-configuration and stratum.

    ``probs`` has one axis per do-variable, then one per stratum
    variable, each group in topological order (an adjuster's in the
    order of its joint), then the outcome.  A (do, given) cell of zero
    mass holds zeros: it is dead, so :meth:`dist` raises ``KeyError`` on
    it and :meth:`to_json` leaves it out.
    """

    outcome: str
    do_vars: tuple
    given_vars: tuple
    probs: np.ndarray

    @property
    def outcome_card(self) -> int:
        return self.probs.shape[-1]

    def dist(self, do_config, given_config=()) -> np.ndarray:
        do_config, given_config = tuple(do_config), tuple(given_config)
        key = do_config + given_config
        if (
            (len(do_config), len(given_config)) != (len(self.do_vars), len(self.given_vars))
            or not all(map(_in_range, key, self.probs.shape))
            or not self.probs[key].any()
        ):
            raise KeyError((do_config, given_config))
        return self.probs[key]

    def to_json(self) -> dict:
        live, n = self.probs.any(axis=-1), len(self.do_vars)
        return {
            "outcome": self.outcome,
            "outcome_card": int(self.outcome_card),
            "do_vars": list(self.do_vars),
            "given_vars": list(self.given_vars),
            "cells": [
                {"do": cell[:n], "given": cell[n:], "distribution": dist}
                for cell, dist in zip(np.argwhere(live).tolist(), self.probs[live].tolist())
            ],
        }


@dataclass(frozen=True)
class CapacityReport:
    """Predictive-capacity comparison of rating designs, in bits."""

    naive_bms: float
    augmented_bms: float
    phyd_major: float
    phyd_minor: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConfoundingGap:
    """Decomposition of the observable MI against the confounded MI."""

    i_x_y: float
    i_ux_y: float
    i_u_y_given_x: float

    def to_json(self) -> dict:
        return asdict(self)


def _ordered(j: JointTable, names: Iterable[str]) -> tuple:
    """``names`` in the order of ``j.vars``; each must be in ``j``."""
    names = set(names)
    missing = names - set(j.vars)
    if missing:
        raise UnknownVariable(f"unknown variable: {min(missing)!r}")
    return tuple(v for v in j.vars if v in names)


def _layout(j: JointTable, *groups: tuple) -> np.ndarray:
    """The mass of ``j`` on the variables of ``groups``, one axis per
    group running over its configurations in row-major order, as a new
    array."""
    names = [v for g in groups for v in g]
    axes = [j.axis(v) for v in names]
    p = _sum_to(j, names).transpose([sorted(axes).index(a) for a in axes])
    return p.reshape([math.prod(j.card(v) for v in g) for g in groups])


def _cell(j: JointTable, names: tuple, k: int) -> dict:
    """``names`` at their ``k``-th configuration in row-major order."""
    return dict(zip(names, map(int, np.unravel_index(k, [j.card(v) for v in names]))))


def _divide(*pairs) -> None:
    """``num /= den`` for each pair in turn, where ``den > 0``.  Each
    numerator is part of its denominator's mass, so it is 0 elsewhere."""
    for num, den in pairs:
        np.divide(num, den, out=num, where=den > 0)


def _check_positivity(empty: np.ndarray, cell_at) -> None:
    """Raise :class:`PositivityViolation` at the first true cell of
    ``empty`` in row-major order, named by ``cell_at(*index)``."""
    hits = np.argwhere(empty)
    if len(hits):
        cell = cell_at(*(int(i) for i in hits[0]))
        raise PositivityViolation(f"P{cell} = 0", cell=cell)


def backdoor_adjust(j: JointTable, dag: Dag, x: str, y: str, Z) -> EffectTable:
    """Back-door adjustment: P(y | do(x=v)) = sum_z P(y|v,z) P(z).

    Returns the table over the one do-variable x, with no strata.  A
    latent node in ``j`` or ``Z`` raises :class:`LatentAdjustmentError`;
    a ``Z`` that fails the back-door criterion, the
    :class:`CriterionNotMet` of :func:`_choose`, with the witness of
    :func:`open_backdoor_trail`.  A :class:`PositivityViolation` names
    the first cell (v, z) with P(z) > 0 = P(v, z).
    """
    Z = _names(Z, "Z")
    _refuse_latent(dag, Z | set(j.vars), "latent nodes in joint or adjustment set")
    _choose(dag, y, (x,), (), "backdoor", frozenset(), (Z,))
    return _backdoor(j, x, y, Z)


def _backdoor(j: JointTable, x: str, y: str, Z) -> EffectTable:
    """The core of :func:`backdoor_adjust`; it checks no criterion."""
    z_vars = _ordered(j, Z)
    t = _layout(j, (x,), z_vars, (y,))
    pxz = t.sum(axis=2)
    pz = pxz.sum(axis=0)
    _check_positivity((pz > 0) & (pxz <= 0), lambda v, z: {x: v, **_cell(j, z_vars, z)})
    _divide((t, pxz[..., None]))
    return EffectTable(y, (x,), (), np.einsum("z,xzy->xy", pz, t))


def frontdoor_adjust(j: JointTable, dag: Dag, x: str, y: str, M, given=()) -> EffectTable:
    """Front-door adjustment through mediator set ``M``, per stratum of ``given``.

    For each configuration g of ``given`` with positive mass and each
    x-value v:

        P(y | do(x=v), g) = sum_m P(m|v,g) sum_v' P(y|v',m,g) P(v'|g)

    With ``given`` empty this is the classic front-door formula.  The
    inner factors are conditioned on the stratum throughout, which is
    what makes the estimate agree exactly with graph surgery when the
    criterion holds within the strata; otherwise the
    :class:`CriterionNotMet` of :func:`_choose` carries the message of
    ``frontdoor_failure(dag, x, y, M, given)``.  A member of ``M`` or
    ``given`` missing from ``j`` raises :class:`UnknownVariable`.  The
    factors are ratios of sums of the {g, x, M, y} mass, joined by one
    ``einsum``.  A :class:`PositivityViolation` names the first empty
    cell in the order stratum, v, m, v'.  Returns the table over the one
    do-variable x and the strata ``given``, in the order of ``j.vars``.
    """
    M, given = _names(M, "M"), _names(given, "given")
    _refuse_latent(dag, j.vars, "joint table contains latent nodes")
    _choose(dag, y, (x,), given, "frontdoor", M)
    return _frontdoor(j, x, y, M, (x,), given)


def _frontdoor(j: JointTable, x: str, y: str, M, do_vars, given) -> EffectTable:
    """The core of :func:`frontdoor_adjust`, with ``do_vars`` other than x
    as strata (Rule 2); it checks no criterion.  The table's axes are the
    tuple ``do_vars``, then ``given`` in the order of ``j.vars``."""
    m_vars, given = _ordered(j, M), _ordered(j, given)
    g_vars = _ordered(j, {*do_vars, *given} - {x})
    t = _layout(j, g_vars, (x,), m_vars, (y,))  # P(g, v, m, y)
    pxm = t.sum(axis=3)
    px = pxm.sum(axis=2)
    pg = px.sum(axis=1)
    # Per stratum g and value v: first P(v, g) = 0, then the first m with
    # P(v, m, g) > 0 at which some v' has P(v', m, g) = 0 < P(v', g).
    hole = (pxm <= 0) & (px[..., None] > 0)
    empty = np.concatenate([px[..., None] <= 0, (pxm > 0) & hole.any(axis=1)[:, None]], axis=2)

    def cell_at(g, v, k):
        vp = int(np.argmax(hole[g, :, k - 1]))
        cell = {x: v} if k == 0 else {x: vp, **_cell(j, m_vars, k - 1)}
        return {**cell, **_cell(j, g_vars, g)}

    _check_positivity(empty & (pg > 0)[:, None, None], cell_at)
    # In place, in this order: P(y | v', m, g), P(m | v, g), P(v' | g).
    _divide((t, pxm[..., None]), (pxm, px[..., None]), (px, pg[:, None]))
    est = np.einsum("gam,gbmy,gb->gay", pxm, t, px)
    # Split the stratum axis per variable; reorder to (do, given, y).
    axes = [*g_vars, x]
    est = est.reshape([j.card(v) for v in (*axes, y)])
    est = est.transpose([axes.index(v) for v in do_vars + given] + [len(axes)])
    return EffectTable(y, do_vars, given, est)


def _choose(dag: Dag, y: str, do_vars: tuple, given, method: str, M, sets=None) -> tuple:
    """How to identify P(y | do(do_vars), given), decided on the graph
    alone: ``("frontdoor", x, strata)``, ``("backdoor", x, Z)`` or
    ``("oracle", None, frozenset())``.

    ``auto`` tries the front-door criterion through ``M``, then the
    back-door criterion; ``frontdoor`` and ``backdoor`` force one.  The
    front-door treatment x is the first of ``do_vars`` whose criterion
    holds within the strata of ``given`` and the other do-variables W,
    where do-calculus Rule 2 lets do(W) be read as observing W: no trail
    from y to W is open given x and ``given`` once x's incoming and W's
    outgoing edges are cut.  Back-door needs one do-variable and no
    ``given``; it tries ``sets`` in turn (by default the empty set, then
    every observed non-descendant of x) and takes the first that holds.
    Otherwise :class:`CriterionNotMet` carries the witness of the last
    criterion tried: the ``frontdoor_failure`` message or open Rule-2
    trail of the last treatment, the :func:`open_backdoor_trail` result
    of the first set, or the line saying why back-door was not tried.  An
    ``auto`` refusal's message says whether back-door adjustment ran.
    """
    if method == "oracle":
        return "oracle", None, frozenset()
    given, witness = frozenset(given), None
    if method != "backdoor":
        for x in do_vars:
            W = frozenset(do_vars) - {x}
            witness = frontdoor_failure(dag, x, y, M, W | given)
            if witness is None and W:
                witness = open_trail(_cut(dag, into={x}, out_of=W), {y}, W, {x} | given)
            if witness is None:
                return "frontdoor", x, W | given
    one = len(do_vars) == 1 and not given  # back-door's precondition
    if method != "frontdoor":
        witness = "back-door adjustment needs one do-variable and no observed variables"
        if one:
            x = do_vars[0]
            if sets is None:
                observed = frozenset(dag.nodes) - dag.latent - {x, y}
                sets = (frozenset(), observed - dag.descendants(x))
            for k, Z in enumerate(dict.fromkeys(sets)):
                trail = open_backdoor_trail(dag, x, y, Z)
                if trail is None:
                    return "backdoor", x, Z
                witness = trail if k == 0 else witness
    what = f"do({', '.join(do_vars)}) on {y}"
    if method == "frontdoor":
        message = f"front-door criterion fails for {what} via {sorted(M)}"
    elif method == "backdoor":
        message = f"no admissible back-door adjustment set for {what}"
    else:
        why = (
            "an unblockable back-door trail remains" if one else "back-door adjustment was not tried"
        )
        message = f"effect of {what} is not identifiable by the available criteria; {why}"
    raise CriterionNotMet(message, witness=witness)


def identify_effect(
    scm: DiscreteScm, query: EffectQuery, method: str = "auto", mediators=(), adjust=()
) -> tuple:
    """P(outcome | do(do), observed) for every do-configuration and every
    stratum of positive mass, as ``(method, EffectTable)``.

    :func:`_choose` picks the method on the graph, with ``mediators`` as
    the front-door set and ``adjust``, when given, as the one back-door
    set; when none applies it raises :class:`CriterionNotMet` with a
    witness.  ``oracle`` is graph surgery on the full model: the
    do-variables lose their parents and become uniform roots, so one
    inference over the do-variables, the strata and the outcome holds
    every do-configuration.  An adjustment infers only the observed
    joint it reads and runs its adjuster's core, which checks nothing
    again.  Do-variables and strata come out in topological order, as
    the axes of ``probs``.
    """
    if method not in IDENTIFY_METHODS:
        raise ParameterError(f"method must be one of {IDENTIFY_METHODS}, got {method!r}")
    M, adjust = _names(mediators, "mediators"), _names(adjust, "adjust")
    for v in (query.outcome, *query.do, *query.observed, *M, *adjust):
        if v not in scm.card:
            raise UnknownVariable(f"unknown variable: {v!r}")
    dag, y = scm.dag, query.outcome
    do_vars = tuple(v for v in dag.topological_order if v in query.do)
    given = tuple(v for v in dag.topological_order if v in query.observed)
    method, x, S = _choose(dag, y, do_vars, given, method, M, (adjust,) if adjust else None)

    if method == "oracle":
        cut = _surgery(scm, {v: np.full(scm.card[v], 1.0 / scm.card[v]) for v in do_vars})
        q = _layout(infer(cut, {*do_vars, *given, y}), *((v,) for v in do_vars + given), (y,))
        _divide((q, q.sum(axis=-1, keepdims=True)))
        return "oracle", EffectTable(y, do_vars, given, q)
    if method == "backdoor":
        _refuse_latent(dag, {x, y, *S}, "latent nodes in joint or adjustment set")
        return "backdoor", _backdoor(infer(scm, {x, y, *S}), x, y, S)
    _refuse_latent(dag, {x, y, *M, *S}, "joint table contains latent nodes")
    return "frontdoor", _frontdoor(infer(scm, {x, y, *M, *S}), x, y, M, do_vars, given)


def confounding_gap(
    scm: DiscreteScm, x: str, y: str, u: str, *, joint: JointTable | None = None
) -> ConfoundingGap:
    """I(x;y), I({u,x};y) and I(u;y|x) off the exact joint of {u, x, y}: the
    chain rule I(u,x;y) = I(x;y) + I(u;y|x) of :func:`chain_decompositions`.

    ``joint``, when given, may be any joint of ``scm`` that holds ``u``,
    ``x`` and ``y``; the default infers the joint of those three alone.
    A ``u`` the graph does not flag latent raises :class:`ParameterError`
    either way.
    """
    if u not in scm.dag.latent:
        raise ParameterError(f"{u!r} is not flagged latent in the graph")
    j = infer(scm, {u, x, y}) if joint is None else joint
    c = chain_decompositions(j, x, u, y)
    return ConfoundingGap(i_x_y=c.i_a_y, i_ux_y=c.i_ab_y, i_u_y_given_x=c.i_b_y_given_a)


def rating_comparison(j: JointTable, yh, xc, yf) -> CapacityReport:
    """Predictive capacities of the naive, augmented and PHYD designs: the
    chain rule I(yh,xc;yf) = I(xc;yf) + I(yh;yf|xc) of :func:`chain_decompositions`."""
    c = chain_decompositions(j, xc, yh, yf)
    if c.i_ab_y < c.i_b_y - 1e-9:
        raise NumericalConsistencyError("augmented capacity below naive capacity")
    return CapacityReport(
        naive_bms=c.i_b_y, augmented_bms=c.i_ab_y, phyd_major=c.i_a_y, phyd_minor=c.i_b_y_given_a
    )


def rating_report(
    scm: DiscreteScm, history="Y_h", behavior="X_c", outcome="Y_f", observed=(), *,
    joint: JointTable | None = None,
) -> dict:
    """The ``report`` document less its ``schema_version``: the :func:`noise_verdict`
    on ``history`` given ``observed``, then the :func:`rating_comparison` of the
    three roles.  An unknown name raises :class:`UnknownNodeError`, then a latent
    role :class:`UnknownVariable`.  ``joint``, when given, may be any joint of
    ``scm`` that holds the three roles; the default infers theirs alone."""
    verdict = noise_verdict(scm.dag, history, outcome, observed)
    for v in (history, behavior, outcome):
        if v in scm.dag.latent:
            raise UnknownVariable(f"unknown variable: {v!r}")
    j = infer(scm, {history, behavior, outcome}) if joint is None else joint
    capacity = rating_comparison(j, history, behavior, outcome)
    return {"verdict": verdict.to_json(), "capacity_bits": capacity.to_json()}


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
