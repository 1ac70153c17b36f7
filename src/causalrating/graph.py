"""Causal diagrams: DAGs, d-separation, adjustment criteria, templates.

All graph values are immutable after construction.  Node names are
nonempty ASCII identifiers.
"""

from __future__ import annotations

import reprlib
import sys
from collections import deque
from typing import Mapping

from .errors import (
    CycleError,
    GraphError,
    OverlapError,
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
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node names")
        for n in nodes:
            if not _valid_name(n):
                raise GraphError(f"invalid node name: {n!r}")
        node_set = set(nodes)
        edge_list = [tuple(e) for e in edges]
        if len(set(edge_list)) != len(edge_list):
            raise GraphError("duplicate edges")
        for a, b in edge_list:
            if a not in node_set or b not in node_set:
                raise UnknownNodeError(f"edge ({a}, {b}) references undeclared node")
            if a == b:
                raise CycleError([a, a])
        latent = frozenset(latent)
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

    def _reach(self, v, step):
        self._check(v)
        seen = set()
        stack = list(step[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(step[u])
        return frozenset(seen)

    def ancestors(self, v) -> frozenset:
        """Strict ancestors of ``v`` (``v`` excluded)."""
        return self._reach(v, self._parents)

    def descendants(self, v) -> frozenset:
        """Strict descendants of ``v`` (``v`` excluded)."""
        return self._reach(v, self._children)

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


def _check_sets(dag: Dag, *sets):
    node_set = set(dag.nodes)
    for s in sets:
        for v in s:
            if v not in node_set:
                raise UnknownNodeError(f"unknown node: {v!r}")
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
    X, Y, Z = frozenset(X), frozenset(Y), frozenset(Z)
    if not X or not Y:
        raise OverlapError("X and Y must be nonempty")
    _check_sets(dag, X, Y, Z)
    parents, children = dag._parents, dag._children

    # Z together with its ancestors: colliders are open exactly there.
    anc_z = set(Z)
    stack = list(Z)
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc_z:
                anc_z.add(p)
                stack.append(p)

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
    do_set = frozenset(do_set)
    _check_sets(dag, do_set)
    edges = [(a, b) for (a, b) in dag.edges if b not in do_set]
    return Dag(dag.nodes, edges, dag.latent)


def _drop_out_edges(dag: Dag, sources) -> Dag:
    sources = frozenset(sources)
    edges = [(a, b) for (a, b) in dag.edges if a not in sources]
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
    return open_trail(_drop_out_edges(dag, {x}), {x}, {y}, Z)


def _directed_paths_intercepted(dag: Dag, x: str, y: str, M) -> bool:
    """True iff every directed path x -> ... -> y passes through M."""
    M = frozenset(M)
    seen = set()
    stack = [x]
    while stack:
        v = stack.pop()
        for c in dag.children(v):
            if c == y:
                return False
            if c in M or c in seen:
                continue
            seen.add(c)
            stack.append(c)
    return True


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
    if not _directed_paths_intercepted(dag, x, y, M):
        return f"a directed path from {x} to {y} bypasses the mediators"
    below = strata & (M | dag.descendants(x).union(*(dag.descendants(m) for m in M)))
    if below:
        return f"strata {sorted(below)} are mediators or descend from {x} or the mediators"
    cut_x, cut_m = _drop_out_edges(dag, {x}), _drop_out_edges(dag, M)
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


def template(name: str, depth: int | None = None) -> Dag:
    """Return a built-in diagram by id.

    ``Fig4Chain`` and ``Fig6Canonical`` require ``depth >= 1`` (also
    accepted inline, e.g. ``"Fig6Canonical(2)"``).
    """
    if "(" in name and name.endswith(")"):
        base, arg = name[:-1].split("(", 1)
        try:
            inline = int(arg)
        except ValueError:
            raise UnknownTemplate(f"bad template argument: {name!r}") from None
        if depth is not None and depth != inline:
            raise UnknownTemplate("conflicting depth arguments")
        name, depth = base, inline
    if name in _FIXED_TEMPLATES:
        nodes, edges, latent = _FIXED_TEMPLATES[name]
        return Dag(nodes, edges, latent)
    if name in ("Fig4Chain", "Fig6Canonical"):
        if depth is None or depth < 1:
            raise UnknownTemplate(f"{name} requires depth >= 1")
        return _fig4_chain(depth) if name == "Fig4Chain" else _fig6_canonical(depth)
    raise UnknownTemplate(f"unknown template: {name!r}")


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
