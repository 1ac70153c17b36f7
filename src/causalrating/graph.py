"""Causal diagrams: DAGs, d-separation, adjustment criteria, noise
verdicts, templates.

All graph values are immutable after construction.  Node names are
nonempty ASCII identifiers.  A set of names is never a bare string.
This layer imports no NumPy.
"""

from __future__ import annotations

import reprlib
import sys
from collections import deque
from typing import Mapping, NamedTuple

from .errors import (
    CycleError,
    GraphError,
    LatentAdjustmentError,
    OverlapError,
    ParameterError,
    UnknownNodeError,
    UnknownTemplate,
)

__all__ = [
    "Dag",
    "template",
    "TEMPLATE_IDS",
    "d_separated",
    "open_trail",
    "mutilate",
    "dag_to_json",
    "dag_from_json",
    "EliminationVerdict",
    "rule1_deletion_check",
    "noise_verdict",
    "NOISE",
    "SIGNAL",
    "UNIDENTIFIABLE",
]


def _valid_name(name) -> bool:
    return isinstance(name, str) and name.isascii() and name.isidentifier()


class Dag:
    """Directed acyclic graph over named variables.

    ``latent`` flags nodes as unobserved.  It is advisory metadata here:
    graphical queries ignore it, adjustment code in :mod:`identify`
    refuses latent adjustment sets.  ``_parents`` lists each node's
    parents in topological order, the default CPT row order of
    :class:`~causalrating.scm.DiscreteScm`.
    """

    __slots__ = ("nodes", "edges", "latent", "_parents", "_children", "_order")

    def __init__(self, nodes, edges, latent=()):
        nodes = _names(nodes, "nodes", tuple)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node names")
        for n in nodes:
            if not _valid_name(n):
                raise GraphError(f"invalid node name: {n!r}")
        node_set = set(nodes)
        edge_list = [e if isinstance(e, str) else tuple(e) for e in edges]
        if bad := [e for e in edge_list if type(e) is not tuple or len(e) != 2]:
            raise GraphError(f"an edge must be a pair of node names, got {bad[0]!r}")
        if len(set(edge_list)) != len(edge_list):
            raise GraphError("duplicate edges")
        for a, b in edge_list:
            if a not in node_set or b not in node_set:
                raise UnknownNodeError(f"edge ({a}, {b}) references undeclared node")
            if a == b:
                raise CycleError([a, a])
        latent = _names(latent, "latent")
        if not latent <= node_set:
            raise UnknownNodeError("latent set references undeclared node")

        children = {n: [] for n in nodes}
        indeg = dict.fromkeys(nodes, 0)
        for a, b in edge_list:
            children[a].append(b)
            indeg[b] += 1

        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(edge_list))
        object.__setattr__(self, "latent", latent)
        object.__setattr__(self, "_children", {n: tuple(cs) for n, cs in children.items()})
        parents = {n: [] for n in nodes}
        object.__setattr__(self, "_order", self._toposort(indeg, parents))
        object.__setattr__(self, "_parents", {n: tuple(ps) for n, ps in parents.items()})

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    def _toposort(self, indeg, parents):
        # Kahn's algorithm on the in-degrees; appending each placed node to
        # its children's lists in ``parents`` leaves those in this order too.
        queue = deque(n for n in self.nodes if indeg[n] == 0)
        order = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for c in self._children[n]:
                parents[c].append(n)
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self.nodes):
            cyc = [n for n in self.nodes if indeg[n] > 0]
            raise CycleError(cyc)
        return tuple(order)

    # -- basic queries ---------------------------------------------------

    @property
    def topological_order(self) -> tuple:
        return self._order

    def _check(self, v):
        if v not in self._parents:
            raise UnknownNodeError(f"unknown node: {v!r}")

    def parents(self, v) -> frozenset:
        self._check(v)
        return frozenset(self._parents[v])

    def children(self, v) -> frozenset:
        self._check(v)
        return frozenset(self._children[v])

    def _reach(self, starts, step, stop=frozenset()) -> frozenset:
        """The nodes outside ``stop`` that are one or more ``step``s
        (``_parents`` or ``_children``) from ``starts`` along a path that
        passes through no member of ``stop``.  Linear in the edge count."""
        seen = set()
        stack = [u for v in starts for u in step[v]]
        while stack:
            u = stack.pop()
            if u not in seen and u not in stop:
                seen.add(u)
                stack.extend(step[u])
        return frozenset(seen)

    def ancestors(self, v) -> frozenset:
        """Strict ancestors of ``v`` (``v`` excluded)."""
        self._check(v)
        return self._reach((v,), self._parents)

    def descendants(self, v) -> frozenset:
        """Strict descendants of ``v`` (``v`` excluded)."""
        self._check(v)
        return self._reach((v,), self._children)

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return (
            set(self.nodes) == set(other.nodes)
            and self.edges == other.edges
            and self.latent == other.latent
        )

    def __hash__(self):
        return hash((frozenset(self.nodes), self.edges, self.latent))

    def __repr__(self):
        return f"Dag(nodes={list(self.nodes)}, edges={sorted(self.edges)}, latent={sorted(self.latent)})"


def _names(names, what: str, kind=frozenset):
    """``names`` as a ``kind`` (a set by default) of variable names; a
    bare string is refused, since it would be read as its letters."""
    if isinstance(names, str):
        raise ParameterError(f"{what} takes a collection of variable names")
    return kind(names)


def _check_sets(dag: Dag, *sets):
    for s in sets:
        for v in s:
            dag._check(v)
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            inter = set(a) & set(b)
            if inter:
                raise OverlapError(f"sets overlap on {sorted(inter)}")


def d_separated(dag: Dag, X, Y, Z) -> bool:
    """True iff ``Z`` blocks every trail between ``X`` and ``Y``.

    One :func:`open_trail` search, linear in the edge count.
    """
    return open_trail(dag, X, Y, Z) is None


def open_trail(dag: Dag, X, Y, Z):
    """A shortest open trail from ``X`` to ``Y`` given ``Z``, or ``None``
    when the sets are d-separated.

    Breadth-first Bayes-ball reachability (Shachter 1998; Koller &
    Friedman 2009, Alg. 3.1) over (node, direction) states, linear in
    the edge count.  It starts from ``sorted(X)`` and expands neighbours
    in name order, so ties between shortest trails are broken by sorted
    names and the result is deterministic.  A shortest walk in the state
    graph never visits a node twice, so it is already a simple trail.
    """
    X, Y, Z = _names(X, "X"), _names(Y, "Y"), _names(Z, "Z")
    if not X or not Y:
        raise OverlapError("X and Y must be nonempty")
    _check_sets(dag, X, Y, Z)
    parents, children = dag._parents, dag._children

    # Z together with its ancestors: colliders are open exactly there.
    anc_z = Z | dag._reach(Z, parents)

    # A state (v, True) arrived from a child of v or starts in X; (v,
    # False) arrived from a parent.  Each maps to the state it came from.
    came_from = {(x, True): None for x in sorted(X)}
    frontier = deque(came_from)
    while frontier:
        state = frontier.popleft()
        v, up = state
        moves = [(c, False) for c in children[v]] if v not in Z else []
        if (v not in Z) if up else (v in anc_z):
            moves += [(p, True) for p in parents[v]]
        for nxt in sorted(moves):
            if nxt in came_from:
                continue
            came_from[nxt] = state
            if nxt[0] in Y:
                trail = []
                while nxt is not None:
                    trail.append(nxt[0])
                    nxt = came_from[nxt]
                return trail[::-1]
            frontier.append(nxt)
    return None


def mutilate(dag: Dag, do_set) -> Dag:
    """Copy of ``dag`` with every edge into a member of ``do_set`` removed."""
    do_set = _names(do_set, "do_set")
    _check_sets(dag, do_set)
    return _cut(dag, into=do_set)


def _cut(dag: Dag, into=(), out_of=()) -> Dag:
    """Copy of ``dag`` without the edges into ``into`` and out of ``out_of``,
    listed from the child lists: the set ``dag.edges`` iterates in hash order."""
    kids = dag._children
    edges = [(a, b) for a in dag.nodes if a not in out_of for b in kids[a] if b not in into]
    return Dag(dag.nodes, edges, dag.latent)


def open_backdoor_trail(dag: Dag, x: str, y: str, Z):
    """Why ``Z`` fails Pearl's back-door criterion for (x, y), or ``None``
    when it holds.

    The witness is the sorted members of ``Z`` that descend from x, when
    there are any, else a shortest back-door trail from x to y that
    ``Z`` leaves open.  Unknown or overlapping sets raise.
    """
    Z = frozenset(Z)
    _check_sets(dag, {x}, {y}, Z)
    bad = Z & dag.descendants(x)
    if bad:
        return sorted(bad)
    # Removing x's outgoing edges leaves exactly the trails that start
    # with an edge into x.
    return open_trail(_cut(dag, out_of={x}), {x}, {y}, Z)


def frontdoor_failure(dag: Dag, x: str, y: str, M, strata=()):
    """Why the front-door criterion for (x, y) via ``M`` fails within the
    strata of ``strata``, or ``None`` when it holds.

    Pearl's conditions are (a) M intercepts every directed path from x
    to y, (b) no back-door trail from x to M is open and (c) {x} blocks
    every back-door trail from M to y.  Within strata, no stratum may be
    a mediator or descend from x or M, and (b) and (c) must also hold
    with the strata added; then the stratified front-door formula equals
    P(y | do(x), strata).  The message names the first condition that
    fails, checked in the order: empty M, (a), the strata, then (b) and
    (c) without and with the strata; a failed (b) or (c) carries its
    open trail.  Unknown or overlapping sets raise.
    """
    M, strata = frozenset(M), frozenset(strata)
    _check_sets(dag, {x}, {y}, M)
    _check_sets(dag, {x, y}, strata)
    if not M:
        return "empty mediator set"
    if y in dag._reach((x,), dag._children, stop=M):
        return f"a directed path from {x} to {y} bypasses the mediators"
    below = strata & (M | dag._reach({x} | M, dag._children))
    if below:
        return f"strata {sorted(below)} are mediators or descend from {x} or the mediators"
    cut_x, cut_m = _cut(dag, out_of={x}), _cut(dag, out_of=M)
    # Without the strata, then with them; one pass when there are none.
    for s in dict.fromkeys((frozenset(), strata)):
        given = f" given {sorted(s)}" if s else ""
        trail = open_trail(cut_x, {x}, M, s)
        if trail is not None:
            return f"open back-door trail from {x} to mediators{given}: " + " - ".join(trail)
        trail = open_trail(cut_m, M, {y}, {x} | s)
        if trail is not None:
            return (
                f"back-door trail from mediators to {y} not blocked by {x}{given}: "
                + " - ".join(trail)
            )
    return None


# -- noise-vs-signal verdicts -------------------------------------------

NOISE = "Noise"
SIGNAL = "Signal"
UNIDENTIFIABLE = "Unidentifiable"
# The --method choices of ``identify``; here so the CLI parser needs no NumPy.
IDENTIFY_METHODS = ("auto", "frontdoor", "backdoor", "oracle")


class EliminationVerdict(NamedTuple):
    """Outcome of the noise-vs-signal decision for one variable.

    ``justification`` is machine-parseable: a method prefix
    (``observational`` / ``interventional`` / ``blocked-backdoor`` /
    ``open-backdoor``) followed by the witnessing statement.
    """

    variable: str
    verdict: str
    justification: str

    def to_json(self) -> dict:
        return self._asdict()


def _refuse_latent(dag: Dag, names, what: str) -> None:
    """Raise :class:`LatentAdjustmentError` naming the latent ``names``."""
    latent = dag.latent & set(names)
    if latent:
        raise LatentAdjustmentError(f"{what}: {sorted(latent)}")


def rule1_deletion_check(dag: Dag, outcome: str, candidate: str, do_set) -> bool:
    """Do-calculus Rule 1: may ``candidate`` be deleted from
    P(outcome | do(do_set), candidate)?

    True iff outcome and candidate are d-separated by ``do_set`` in the
    surgically mutilated graph.
    """
    do_set = _names(do_set, "do_set")
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
    observed = _names(observed, "observed")
    if candidate == outcome:
        raise OverlapError("candidate and outcome must differ")
    _refuse_latent(dag, observed, "latent nodes in observed set")
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
    trail = open_trail(_cut(dag, out_of={candidate}), {candidate}, {outcome}, observed)
    if trail is None:
        return EliminationVerdict(
            candidate,
            SIGNAL,
            f"blocked-backdoor:no open back-door trail from {candidate} to {outcome} given ({obs})",
        )
    return EliminationVerdict(
        candidate, UNIDENTIFIABLE, "open-backdoor:" + " - ".join(trail)
    )


# -- built-in diagram templates -----------------------------------------
#
# Canonical edge sets for the chain, confounder, mediator and road-risk
# diagrams.  Fig4Chain and Fig6Canonical take a chain depth >= 1.

TEMPLATE_IDS = (
    "Fig1a",
    "Fig1b",
    "Fig1c",
    "Fig1d",
    "Fig2a",
    "Fig2b",
    "Fig2c",
    "Fig3",
    "Fig4Chain",
    "Fig6Canonical",
)

_FIXED_TEMPLATES = {
    "Fig1a": (("Y_h", "Y_f"), [("Y_h", "Y_f")], ()),
    "Fig1b": (("Y_h", "X_c", "Y_f"), [("Y_h", "Y_f"), ("X_c", "Y_f")], ()),
    "Fig1c": (("Y_h", "X_c", "Y_f"), [("X_c", "Y_h"), ("X_c", "Y_f")], ()),
    "Fig1d": (("Y_h", "X_c", "Y_f"), [("Y_h", "X_c"), ("X_c", "Y_f")], ()),
    "Fig2a": (
        ("Y_h", "X_c", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "Y_h"), ("U", "X_c")],
        ("U",),
    ),
    "Fig2b": (
        ("Y_h", "X_c", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "X_c"), ("U", "Y_f")],
        ("U",),
    ),
    "Fig2c": (
        ("Y_h", "X_c", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "Y_h"), ("U", "Y_f")],
        ("U",),
    ),
    "Fig3": (
        ("Y_h", "X_c", "Z", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Z"), ("Z", "Y_f"), ("U", "X_c"), ("U", "Y_f")],
        ("U",),
    ),
}


def _fig4_chain(depth: int) -> Dag:
    states = [f"S_{i}" for i in range(depth + 2)]
    traffic = [f"T_{i}" for i in range(depth + 2)]
    nodes = ["D"] + traffic + states
    edges = []
    for i in range(depth + 2):
        edges.append((traffic[i], states[i]))
    for i in range(depth + 1):
        edges.append((states[i], states[i + 1]))
        edges.append(("D", states[i + 1]))
    return Dag(nodes, edges)


def _fig6_canonical(depth: int) -> Dag:
    states = [f"S_{i}" for i in range(depth + 1)]
    nodes = ["Y_h", "J_o", "U", "D"] + states + ["Y_f"]
    edges = [("Y_h", "J_o"), ("J_o", "D"), ("U", "D"), ("U", "Y_f")]
    for s in states:
        edges.append(("D", s))
    for i in range(depth):
        edges.append((states[i], states[i + 1]))
    edges.append((states[-1], "Y_f"))
    return Dag(nodes, edges, ("U",))


def template(name: str) -> Dag:
    """Return a built-in diagram by id.

    ``Fig4Chain`` and ``Fig6Canonical`` take a depth >= 1 inline, in
    ASCII digits, as in ``"Fig6Canonical(2)"``; no other id takes one.
    """
    if name in _FIXED_TEMPLATES:
        nodes, edges, latent = _FIXED_TEMPLATES[name]
        return Dag(nodes, edges, latent)
    base, paren, arg = name.partition("(")
    if base not in ("Fig4Chain", "Fig6Canonical"):
        raise UnknownTemplate(f"unknown template: {name!r}")
    digits = arg.removesuffix(")")
    if paren and not (arg.endswith(")") and digits.isascii() and digits.isdecimal()):
        raise UnknownTemplate(f"bad template argument: {name!r}")
    if not paren or int(digits) < 1:
        raise UnknownTemplate(f"{base} requires depth >= 1")
    return _fig4_chain(int(digits)) if base == "Fig4Chain" else _fig6_canonical(int(digits))


# -- JSON ---------------------------------------------------------------


def dag_to_json(dag: Dag) -> dict:
    return {
        "nodes": list(dag.nodes),
        "edges": [list(e) for e in sorted(dag.edges)],
        "latent": sorted(dag.latent),
    }


_TYPES = {int: {int}, float: {int, float}, str: {str}, list: {list}, dict: {dict}}
_FINITE = sys.float_info.max.__ge__  # applied to abs(x): false on NaN, infinity and huge ints
_EXPECTED = {int: "an integer", float: "a finite number", str: "a name", list: "an array", dict: "an object"}
_GRAPH_DOC = {"nodes": [str], "edges": [[str, 2]], "latent?": [str]}


def _all_of(values: list, kind) -> bool:
    """Whether every JSON value in ``values`` is of ``kind``, which is not
    an object with fields, checked a level at a time in a few C loops."""
    if type(kind) is type:
        return set(map(type, values)) <= _TYPES[kind] and (
            kind is not float or all(map(_FINITE, map(abs, values)))
        )
    if type(kind) is list:
        return (
            set(map(type, values)) <= _TYPES[list]
            and (len(kind) == 1 or set(map(len, values)) <= {kind[1]})
            and _all_of([v for a in values for v in a], kind[0])
        )
    return set(map(type, values)) <= _TYPES[dict] and _all_of([v for d in values for v in d.values()], kind[str])


def _misread(value, kind) -> str | None:
    """The path below ``value`` of its first part that is not of ``kind``,
    and why, e.g. ``.depth: expected an integer, got 2.0``; None if none."""
    if type(kind) is dict and str not in kind and type(value) is dict:
        for f, v in value.items():
            k = None if f.endswith("?") else kind.get(f) or kind.get(f"{f}?")
            if why := ": unknown field" if k is None else _misread(v, k):
                return f".{f}{why}"
        missing = [f for f in kind if f[-1] != "?" and f not in value]
        return f".{missing[0]}: missing field" if missing else None
    if type(kind) is list and type(value) is list and (len(kind) == 1 or kind[1] == len(value)):
        if _all_of(value, kind[0]):
            return None
        steps = ((f"[{i}]", v, kind[0]) for i, v in enumerate(value))
    elif type(kind) is dict and type(value) is dict:
        if _all_of(list(value.values()), kind[str]):
            return None
        steps = ((f".{f}", v, kind[str]) for f, v in value.items())
    elif _all_of([value], kind):
        return None
    else:
        expected = _EXPECTED[kind if type(kind) is type else type(kind)]
        expected += f" of {kind[1]}" if type(kind) is list and len(kind) > 1 else ""
        return f": expected {expected}, got {reprlib.repr(value)}"
    return next((step + why for step, v, k in steps if (why := _misread(v, k))), None)


def _read_json(doc, kind, what: str, error):
    """``doc`` if it is a JSON document of ``kind``, else raise ``error``
    naming the path of its first misread part.  A kind is ``int`` (a JSON
    integer, not a bool), ``float`` (a finite number, not a bool), ``str``
    (a name), ``[k]`` (an array of k), ``[k, n]`` (an array of n k),
    ``{str: k}`` (an object of k values) or a dict of fields (an object with
    exactly these fields, where a name ending in "?" is optional)."""
    if why := _misread(doc, kind):
        raise error(what + why)
    return doc


def dag_from_json(doc: Mapping) -> Dag:
    return Dag(**_read_json(doc, _GRAPH_DOC, "graph", GraphError))
