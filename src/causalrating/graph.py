"""Causal diagrams: DAGs, d-separation, adjustment criteria, noise
verdicts, templates.

All graph values are immutable after construction.  Node names are
nonempty ASCII identifiers.  A set of names is never a bare string.
This layer imports no NumPy.
"""

from __future__ import annotations

import contextlib
import numbers
import reprlib
import sys
from collections import deque
from collections.abc import Mapping
from itertools import combinations, islice
from typing import NamedTuple

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
        nodes = _names(nodes, "nodes", kind=tuple)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node names")
        for n in nodes:
            if not (n.isascii() and n.isidentifier()):
                raise GraphError(f"invalid node name: {_shown(n)}")
        node_set = set(nodes)
        if type(edges) not in _NAME_SETS:
            raise ParameterError(f"edges: expected a collection of edges, got {_shown(edges)}")
        ordered = type(edges) not in (set, frozenset)  # a set's order changes from run to run
        edge_list = [tuple(e) if type(e) in (tuple, list) else e for e in edges]
        if not (set(map(type, edge_list)) <= {tuple} and set(map(len, edge_list)) <= {2}):
            bad = [(i, e) for i, (e, p) in enumerate(zip(edges, edge_list)) if type(p) is not tuple or len(p) != 2]
            i, e = bad[0] if ordered else min(bad, key=lambda b: _shown(b[1]))
            at = f"edges[{i}]" if ordered else "edges"
            raise GraphError(f"{at}: expected a pair of node names, got {_shown(e)}")
        ends = [v for e in edge_list for v in e]
        if not (set(map(type, ends)) <= {str} and node_set.issuperset(ends)):
            for i, v in enumerate(ends if ordered else sorted(set(ends), key=_shown)):
                _name(v, f"edges[{i // 2}][{i % 2}]" if ordered else "edges", node_set)
        if len(set(edge_list)) != len(edge_list):
            raise GraphError("duplicate edges")
        for a, b in edge_list:
            if a == b:
                raise CycleError([a, a])
        latent = _names(latent, "latent", node_set)

        children, indeg = {n: [] for n in nodes}, dict.fromkeys(nodes, 0)
        for a, b in edge_list:
            children[a].append(b)
            indeg[b] += 1
        self._fill(nodes, frozenset(edge_list), latent, {n: tuple(cs) for n, cs in children.items()}, indeg)

    def __setattr__(self, name, value):
        raise AttributeError("Dag is immutable")

    def _fill(self, nodes, edges, latent, children, indeg) -> None:
        """Set the fields to checked parts; ``_parents`` and the order
        follow from ``children`` and the in-degrees ``indeg``, which this
        uses up, by Kahn's algorithm."""
        for name, value in (("nodes", nodes), ("edges", edges), ("latent", latent), ("_children", children)):
            object.__setattr__(self, name, value)
        # ``order`` is the queue too: a node is placed once all its parents
        # are.  Appending each placed node to its children's lists in
        # ``parents`` leaves those in this order too.
        parents = {n: [] for n in nodes}
        order = [n for n in nodes if indeg[n] == 0]
        for n in order:
            for c in children[n]:
                parents[c].append(n)
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != len(nodes):
            raise CycleError([n for n in nodes if indeg[n] > 0])
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_parents", {n: tuple(ps) for n, ps in parents.items()})

    # -- basic queries ---------------------------------------------------

    @property
    def topological_order(self) -> tuple:
        return self._order

    def parents(self, v) -> frozenset:
        _name(v, "v", self._parents)
        return frozenset(self._parents[v])

    def children(self, v) -> frozenset:
        _name(v, "v", self._parents)
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
        _name(v, "v", self._parents)
        return self._reach((v,), self._parents)

    def descendants(self, v) -> frozenset:
        """Strict descendants of ``v`` (``v`` excluded)."""
        _name(v, "v", self._parents)
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


_NAME_SETS = (list, tuple, set, frozenset, type({}.keys()))


def _name(value, path: str, known=None, error=UnknownNodeError) -> str:
    """``value`` read as one variable name, else :class:`ParameterError`; a name
    not in ``known``, when it is given, raises ``error``: ``unknown node: 'Q'``."""
    if not isinstance(value, str):
        raise ParameterError(f"{path}: expected a name, got {_shown(value)}")
    if known is not None and value not in known:
        raise error(f"unknown {'node' if error is UnknownNodeError else 'variable'}: {_shown(value)}")
    return value


def _names(value, path: str, known=None, error=UnknownNodeError, kind=frozenset, empty=None):
    """``value``, a list, tuple, set, frozenset or dict keys view of names, as a
    ``kind`` (a set by default).  Anything else, a bare string (its letters), a
    mapping or ``None``, raises :class:`ParameterError`; then, if ``empty`` is given,
    an empty ``value`` raises ``error(empty)``; then a member that is no name (in a
    set, the least shown, without an index) raises ParameterError, and the first name,
    sorted in a set, not in ``known`` raises ``error``: ``unknown node: 'Q'``."""
    if type(value) not in _NAME_SETS:
        raise ParameterError(f"{path}: expected a collection of names, got {_shown(value)}")
    if empty and not value:
        raise error(empty)
    try:  # the all-good case in a few C loops; a member of ``known`` is a name
        names = kind(value)
        if set(map(type, names)) <= {str} if known is None else not frozenset(names).difference(known):
            return names
    except TypeError:  # an unhashable member
        pass
    unordered = type(value) in (set, frozenset)  # a set's order changes from run to run
    for i, v in enumerate(sorted(value, key=_shown) if unordered else value):
        _name(v, path if unordered else f"{path}[{i}]")
    for v in sorted(value) if unordered else value:
        _name(v, path, known, error)
    return kind(value)


def _disjoint(*sets) -> None:
    for a, b in combinations(sets, 2):
        if inter := a & b:
            raise OverlapError(f"sets overlap on {sorted(inter)}")


def _sides(X, Y, *others) -> None:
    if not X or not Y:
        raise OverlapError("X and Y must be nonempty")
    _disjoint(X, Y, *others)


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
    It reads only the adjacency maps, so inside this package ``dag`` may
    also be a :func:`_cut` view.
    """
    X, Y, Z = (_names(s, path, dag._parents) for s, path in ((X, "X"), (Y, "Y"), (Z, "Z")))
    _sides(X, Y, Z)
    parents, children = dag._parents, dag._children

    # Z together with its ancestors: colliders are open exactly there.
    anc_z = Z | Dag._reach(dag, Z, parents)

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
    """Copy of ``dag`` with every edge into a member of ``do_set`` removed.

    The parts of ``dag`` were checked, so the copy is not read again: its
    edges are listed from the :func:`_cut` child lists (the set
    ``dag.edges`` iterates in hash order) and its order and ``_parents``
    are Kahn's on the cut, as a new :class:`Dag` of those edges has them."""
    view = _cut(dag, into=_names(do_set, "do_set", dag._parents))
    edges = frozenset((a, b) for a in dag.nodes for b in view._children[a])
    cut = object.__new__(Dag)
    cut._fill(dag.nodes, edges, dag.latent, view._children, {n: len(ps) for n, ps in view._parents.items()})
    return cut


class _Cut:
    """A :class:`Dag` without some edges, as the graph questions read it:
    the maps ``_parents`` and ``_children``, nothing else.  It is made by
    :func:`_cut` only, and never leaves this package."""

    __slots__ = ("_parents", "_children")

    def __init__(self, parents: dict, children: dict):
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

    def __setattr__(self, name, value):
        raise AttributeError("a cut is read-only")


def _cut(dag: Dag, into=(), out_of=()) -> _Cut:
    """A view of ``dag`` without the edges into ``into`` and out of
    ``out_of``: its adjacency maps, copied, with the entries of the cut
    nodes and of their neighbours replaced.  The copy is linear in the
    node count; nothing is checked again.  A parent list keeps the order
    of ``dag``, which no graph question reads."""
    parents, children = dict(dag._parents), dict(dag._children)
    for a in {a for b in into for a in parents[b]}:
        children[a] = tuple(c for c in children[a] if c not in into)
    for b in {b for a in out_of for b in dag._children[a]}:
        parents[b] = tuple(p for p in parents[b] if p not in out_of)
    parents.update(dict.fromkeys(into, ()))
    children.update(dict.fromkeys(out_of, ()))
    return _Cut(parents, children)


def open_backdoor_trail(dag: Dag, x: str, y: str, Z):
    """Why ``Z`` fails Pearl's back-door criterion for (x, y), or ``None``
    when it holds.

    The witness is the sorted members of ``Z`` that descend from x, when
    there are any, else a shortest back-door trail from x to y that
    ``Z`` leaves open.  Unknown or overlapping sets raise.
    """
    x, y, Z = _name(x, "x", dag._parents), _name(y, "y", dag._parents), _names(Z, "Z", dag._parents)
    _disjoint({x}, {y}, Z)
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
    x, y = _name(x, "x", dag._parents), _name(y, "y", dag._parents)
    M, strata = _names(M, "M", dag._parents), _names(strata, "strata", dag._parents)
    _disjoint({x}, {y}, M)
    _disjoint({x, y}, strata)
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
    outcome, candidate = _name(outcome, "outcome", dag._parents), _name(candidate, "candidate", dag._parents)
    do_set = _names(do_set, "do_set", dag._parents)
    if candidate in do_set or outcome in do_set:
        raise OverlapError("candidate/outcome may not be in the do-set")
    return d_separated(_cut(dag, into=do_set), {outcome}, {candidate}, do_set)


def noise_verdict(dag: Dag, candidate: str, outcome: str, observed) -> EliminationVerdict:
    """Decide whether ``candidate`` is a deprecable noise variable.

    Noise when observational d-separation (checked first) or Rule-1
    deletion under do(observed) eliminates it; Signal when it stays
    relevant but every back-door trail to the outcome is blocked;
    Unidentifiable when an open back-door trail (through a latent
    confounder) remains.
    """
    candidate, outcome = _name(candidate, "candidate", dag._parents), _name(outcome, "outcome", dag._parents)
    observed = _names(observed, "observed", dag._parents)
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
# diagrams.  A Dag is immutable, so each fixed template is built once.

_FIXED_TEMPLATES = {
    "Fig1a": Dag(("Y_h", "Y_f"), [("Y_h", "Y_f")]),
    "Fig1b": Dag(("Y_h", "X_c", "Y_f"), [("Y_h", "Y_f"), ("X_c", "Y_f")]),
    "Fig1c": Dag(("Y_h", "X_c", "Y_f"), [("X_c", "Y_h"), ("X_c", "Y_f")]),
    "Fig1d": Dag(("Y_h", "X_c", "Y_f"), [("Y_h", "X_c"), ("X_c", "Y_f")]),
    "Fig2a": Dag(
        ("Y_h", "X_c", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "Y_h"), ("U", "X_c")],
        ("U",),
    ),
    "Fig2b": Dag(
        ("Y_h", "X_c", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "X_c"), ("U", "Y_f")],
        ("U",),
    ),
    "Fig2c": Dag(
        ("Y_h", "X_c", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "Y_h"), ("U", "Y_f")],
        ("U",),
    ),
    "Fig3": Dag(
        ("Y_h", "X_c", "Z", "Y_f", "U"),
        [("Y_h", "X_c"), ("X_c", "Z"), ("Z", "Y_f"), ("U", "X_c"), ("U", "Y_f")],
        ("U",),
    ),
}
_MAX_DEPTH = 1074  # of a chain template, as of the deepest canonical road-risk scenario


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


_CHAIN_TEMPLATES = {"Fig4Chain": _fig4_chain, "Fig6Canonical": _fig6_canonical}
TEMPLATE_IDS = (*_FIXED_TEMPLATES, *_CHAIN_TEMPLATES)


def template(name: str) -> Dag:
    """Return a built-in diagram by id.

    ``Fig4Chain`` and ``Fig6Canonical`` take a depth of 1 to 1074 inline,
    in ASCII digits, as in ``"Fig6Canonical(2)"``; no other id takes one.
    """
    if _name(name, "name") in _FIXED_TEMPLATES:
        return _FIXED_TEMPLATES[name]
    base, paren, arg = name.partition("(")
    if base not in _CHAIN_TEMPLATES:
        raise UnknownTemplate(f"unknown template: {_shown(name)}")
    digits = arg.removesuffix(")")
    if paren and not (arg.endswith(")") and digits.isascii() and digits.isdecimal()):
        raise UnknownTemplate(f"bad template argument: {_shown(name)}")
    depth = digits.lstrip("0")  # its length is bounded first: int() refuses over 4,300 digits
    if not 0 < len(depth) <= len(str(_MAX_DEPTH)) or int(depth) > _MAX_DEPTH:
        raise UnknownTemplate(f"{base} requires a depth from 1 to {_MAX_DEPTH}")
    return _CHAIN_TEMPLATES[base](int(depth))


# -- JSON ---------------------------------------------------------------


def dag_to_json(dag: Dag) -> dict:
    return {
        "nodes": list(dag.nodes),
        "edges": [list(e) for e in sorted(dag.edges)],
        "latent": sorted(dag.latent),
    }


_FINITE = sys.float_info.max.__ge__  # applied to abs(x) of an int or float: false on NaN, inf, huge ints
_EXPECTED = {int: "an integer", float: "a finite number", list: "an array", dict: "an object"}
_GRAPH_DOC = {"nodes": object, "edges": object, "latent?": object}  # Dag reads the values


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):  # repr refuses more digits than sys.get_int_max_str_digits(), at least 640
        big = x.bit_length() >= 2000
        return f"<{'negative ' * (x < 0)}{x.bit_length()}-bit integer>" if big else super().repr_int(x, level)


_shown = _Shown().repr  # a value as an error message shows it, abbreviated


def _integer(v) -> bool:
    """Whether ``v`` is an ``int`` or a NumPy integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    """Whether ``v`` is an int, float, ``Fraction`` or NumPy number, not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _all_of(values: list, kind) -> list | None:
    """``values`` read as ``kind``, not an object with fields, a level at a time in a few C loops;
    None unless every part is a JSON value (a list or tuple for an array) of its kind, any for ``object``."""
    types = set(map(type, values))
    if kind is float:  # a sum of floats is finite only if every term is; an overflow checks each term
        if types <= {float} and _FINITE(abs(sum(values))):
            return values
        return list(map(float, values)) if types <= {float, int} and all(map(_FINITE, map(abs, values))) else None
    if type(kind) is type:
        return values if kind is object or types <= {kind} else None
    if type(kind) is not list or not types <= {list, tuple} or len(kind) > 1 and set(map(len, values)) - {kind[1]}:
        return None
    read = _all_of(flat := [v for a in values for v in a], kind[0])
    if read is None:
        return None
    if read is flat:
        return list(map(tuple, values))
    parts = iter(read)
    return [tuple(islice(parts, len(a))) for a in values]


def _at(path: str, key) -> str:
    """The path of the part under ``key`` of the object at ``path``."""
    return f"{path}.{key if type(key) is str else _shown(key)}".lstrip(".")


def _read(value, kind, path: str, error, low=None):
    """``value`` read as ``kind``, else raise ``error`` naming the first misread part
    below ``path``: ``scenario.depth: expected an integer, got 2.0``.  A kind is ``int``,
    ``float`` (a finite :func:`_real`), ``[k]`` (a list, tuple or NumPy array of
    k), ``[k, n]`` (of n k), ``object`` (any value, as it is, for a model's constructor to
    read) or a dict of fields (a mapping with exactly these, where a name ending in "?" is
    optional).  Arrays come back as tuples.  A number less than ``low``, when it is given,
    alone or in an array, is misread."""
    if type(kind) is dict:
        if isinstance(value, Mapping):
            fields, read = {f.rstrip("?"): k for f, k in kind.items()}, {}
            for f, v in value.items():
                if f not in fields:
                    raise error(f"{_at(path, f)}: unknown field")
                read[f] = _read(v, fields[f], _at(path, f), error)
            if missing := [f for f in kind if f[-1] != "?" and f not in value]:
                raise error(f"{_at(path, missing[0])}: missing field")
            return read
    elif (read := _all_of([value], kind)) is not None and (low is None or type(kind) is type and read[0] >= low):
        return read[0]
    elif type(kind) is list:
        np = sys.modules.get("numpy")  # loaded, if value is a NumPy array
        if np and isinstance(value, np.ndarray) and value.ndim:
            return _read(value.tolist(), kind, path, error, low)
        if isinstance(value, (list, tuple)) and (len(kind) == 1 or len(value) == kind[1]):
            return tuple(_read(v, kind[0], f"{path}[{i}]", error, low) for i, v in enumerate(value))
    elif _real(value) and type(value) not in (int, float):  # a Fraction or NumPy number, as an int or float
        with contextlib.suppress(OverflowError):  # a Fraction past the float range
            return _read(int(value) if _integer(value) else float(value), kind, path, error, low)
    expected = _EXPECTED[kind if type(kind) is type else type(kind)]
    expected += f" of {_shown(kind[1])}" if type(kind) is list and len(kind) > 1 else ""
    expected += "" if low is None or type(kind) is list else f" >= {low}"
    raise error(f"{path}: expected {expected}, got {_shown(value)}")


def dag_from_json(doc: Mapping) -> Dag:
    return Dag(**_read(doc, _GRAPH_DOC, "graph", GraphError))
