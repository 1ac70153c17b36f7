"""Discrete structural causal models: CPTs, exact joints, surgery, sampling.

Probabilities are 64-bit floats.  CPT rows for a node are indexed by the
parent configuration in mixed-radix order, most-significant parent
first, with parents listed in the graph's topological order by default.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyDataset,
    NormalizationError,
    ParameterError,
    ShapeError,
    StateSpaceTooLarge,
    UnknownNodeError,
    UnknownVariable,
    ValueOutOfRange,
    ZeroProbabilityEvidence,
)
from .graph import (
    _GRAPH_DOC, Dag, _integer, _name, _names, _read, _real, _shown, dag_from_json, dag_to_json, mutilate,
)

__all__ = [
    "JointTable",
    "DiscreteScm",
    "Dataset",
    "exact_joint",
    "infer",
    "marginal",
    "condition",
    "intervene",
    "sample",
    "empirical_joint",
    "random_scm",
    "do_distribution",
    "scm_to_json",
    "scm_from_json",
    "dataset_to_csv",
]

ROW_SUM_TOL = 1e-9
DEFAULT_CELL_CAP = 1 << 24
_SCM_DOC = {"graph": _GRAPH_DOC, "card": object, "cpt": object, "parents?": object}  # DiscreteScm reads the values


def _numeric(a) -> bool:
    """Whether ``a`` is a NumPy array of numbers, not bools, which a table keeps in NumPy."""
    return isinstance(a, np.ndarray) and a.dtype.kind in "fiu"


def _cells(cards: Iterable[int], what: str, cap: int = DEFAULT_CELL_CAP) -> int:
    """The cell count of a table of ``cards``, checked before the table exists: one
    over ``cap`` raises :class:`StateSpaceTooLarge` (``result has 4096 cells, over the cap 1000``)."""
    if (n := math.prod(cards)) > cap:
        raise StateSpaceTooLarge(f"{what} has {_shown(n)} cells, over the cap {_shown(cap)}")
    return n


def _axes(vars, cards) -> tuple:
    """The axes of a table: ``vars``, one or more distinct names, as a
    tuple, and ``cards``, one integer >= 1 per name, as a tuple."""
    vars = _names(vars, "vars", kind=tuple)
    if not vars or len(set(vars)) != len(vars):
        raise ShapeError(f"vars: expected one or more distinct names, got {_shown(vars)}")
    return vars, _read(cards, [int, len(vars)], "cards", ShapeError, low=1)


@dataclass(frozen=True)
class JointTable:
    """Exact probability mass function over an ordered variable subset."""

    vars: tuple
    cards: tuple
    probs: np.ndarray  # shape == cards

    def __post_init__(self):
        names, cards = _axes(self.vars, self.cards)
        try:  # each cell a real number, as in a CPT: no bool, string or bytes
            if not (_numeric(self.probs) or all(map(_real, np.asarray(self.probs, dtype=object).flat))):
                raise ValueError
            probs = np.asarray(self.probs, dtype=np.float64)
        except (OverflowError, ValueError):  # an int past the float range, a string
            raise ShapeError(f"probs: expected finite numbers, got {_shown(self.probs)}") from None
        if probs.shape != cards:
            raise ShapeError(f"probs shape {probs.shape} != cards {cards}")
        total = float(probs.sum())
        # A NaN or infinite cell makes the sum NaN or infinite.
        if not math.isfinite(total):
            raise NormalizationError("non-finite mass")
        if probs.min() < -1e-12:
            raise NormalizationError(f"negative mass: {probs.min()}")
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise NormalizationError(f"mass sums to {total}, not 1")
        probs = np.clip(probs, 0.0, None)
        probs.flags.writeable = False
        object.__setattr__(self, "vars", names)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "probs", probs)

    def axis(self, var: str) -> int:
        return self.vars.index(_name(var, "var", self.vars, UnknownVariable))

    def card(self, var: str) -> int:
        return self.cards[self.axis(var)]


def _sum_to(j: JointTable, keep) -> np.ndarray:
    """The mass of ``j`` on the variables in ``keep``, names of ``j`` read
    already, as a new array with its axes in ``j.vars`` order."""
    return j.probs.sum(axis=tuple(i for i, v in enumerate(j.vars) if v not in keep))


def marginal(j: JointTable, keep: Iterable[str]) -> JointTable:
    """Sum out every variable not in ``keep`` (original order preserved)."""
    keep = _names(keep, "keep", j.vars, UnknownVariable)
    if not keep:
        raise UnknownVariable("keep set must be nonempty")
    probs = _sum_to(j, keep)
    vars_kept = tuple(v for v in j.vars if v in keep)
    cards_kept = tuple(c for v, c in zip(j.vars, j.cards) if v in keep)
    return JointTable(vars_kept, cards_kept, probs)


def _in_range(val, card: int) -> bool:
    """Whether ``val`` is an :func:`_integer` in ``0..card-1``."""
    return _integer(val) and 0 <= val < card


def _value(var: str, val, card: int) -> int:
    """``val`` as a value of ``var``, which has ``card`` values; anything
    else raises :class:`ValueOutOfRange`."""
    if not _in_range(val, card):
        raise ValueOutOfRange(f"{var}={_shown(val)} out of range 0..{card - 1}")
    return int(val)


def _keys(values, path: str, known, error=UnknownNodeError) -> frozenset:
    """The keys of the mapping ``values``, read by :func:`_names`."""
    if not isinstance(values, Mapping):
        raise ParameterError(f"{path}: expected an object, got {_shown(values)}")
    return _names(tuple(values), path, known, error)


def _assignment(values, path: str, card: Mapping[str, int], error=UnknownVariable) -> dict:
    """``values``, a mapping of names in ``card`` to values, as a dict of
    ints: its keys read by :func:`_keys`, each value by :func:`_value`."""
    _keys(values, path, card, error)
    return {v: _value(v, val, card[v]) for v, val in values.items()}


def condition(j: JointTable, evidence: Mapping[str, int]) -> JointTable:
    """Condition on ``evidence`` and drop the evidenced variables."""
    evidence = _assignment(evidence, "evidence", dict(zip(j.vars, j.cards)))
    if not evidence:
        return j
    sliced = j.probs[tuple(evidence.get(v, slice(None)) for v in j.vars)]
    total = float(sliced.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidence(f"P({evidence}) = 0")
    vars_kept = tuple(v for v in j.vars if v not in evidence)
    cards_kept = tuple(c for v, c in zip(j.vars, j.cards) if v not in evidence)
    if not vars_kept:
        raise UnknownVariable("conditioning on every variable leaves nothing")
    return JointTable(vars_kept, cards_kept, sliced / total)


class DiscreteScm:
    """A :class:`Dag` with per-node cardinalities and CPTs.

    Each node's CPT row order is fixed by its parent tuple at
    construction time (the graph's topological order by default) and is
    preserved by surgery, so interventions never reinterpret rows.
    """

    __slots__ = ("dag", "card", "cpt", "parents")

    def __init__(
        self,
        dag: Dag,
        card: Mapping[str, int],
        cpt: Mapping[str, np.ndarray],
        parents: Mapping[str, tuple] | None = None,
    ):
        if not dag.nodes:
            raise ShapeError(f"dag.nodes: expected one or more names, got {_shown(dag.nodes)}")
        for path, table in (("card", card), ("cpt", cpt)):
            if missing := set(dag.nodes) - _keys(table, path, dag._parents):
                raise ShapeError(f"{path} missing nodes: {sorted(missing)}")
        card = {n: _read(card[n], int, f"card.{n}", ShapeError, low=2) for n in dag.nodes}
        parents = {} if parents is None else parents
        _keys(parents, "parents", dag._parents)
        porder = dict(dag._parents)
        for v in dag.nodes:
            if v in parents:
                ps = porder[v] = _names(parents[v], f"parents.{v}", kind=tuple)
                if frozenset(ps) != dag.parents(v) or len(ps) != len(set(ps)):
                    raise ShapeError(f"parent order for {v} does not match the graph: {ps}")
        tables = {v: _checked_cpt(v, cpt[v], card, porder[v]) for v in dag.nodes}
        _fill(self, dag, card, tables, porder)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteScm is immutable")

    def parents_of(self, v: str) -> tuple:
        """Parents of ``v`` in CPT row order."""
        return self.parents[_name(v, "v", self.parents)]


def _checked_cpt(v: str, rows, card: Mapping[str, int], parents: tuple) -> np.ndarray:
    """``rows`` as the CPT of ``v`` under ``parents``: a new read-only
    C-contiguous array of one row per parent configuration, each a
    distribution over the ``card[v]`` values of ``v``.  A numeric NumPy
    array of that shape stays in NumPy; anything else is read by
    :func:`_read`, so a shape misread has one message in every form."""
    n_rows = math.prod(card[p] for p in parents)
    if not (_numeric(rows) and rows.shape == (n_rows, card[v])):
        rows = _read(rows, [[float, card[v]], n_rows], f"cpt.{v}", ShapeError)
    t = np.array(rows, dtype=np.float64, order="C")
    if not (t.min() >= 0.0 and t.max() <= 1.0 + ROW_SUM_TOL):  # false on NaN too
        for r, c in np.argwhere(~np.isfinite(t))[:1]:  # the first non-finite cell, misread as in a list
            _read(float(t[r, c]), float, f"cpt.{v}[{r}][{c}]", ShapeError)
        raise NormalizationError(f"CPT for {v} has entries outside [0, 1]")
    bad = np.abs(t.sum(axis=1) - 1.0) > ROW_SUM_TOL
    if bad.any():
        row = int(np.argmax(bad))
        raise NormalizationError(f"CPT row {row} of {v} sums to {t[row].sum()}, not 1")
    t.flags.writeable = False
    return t


def _fill(scm: DiscreteScm, dag: Dag, card: dict, cpt: dict, parents: dict) -> DiscreteScm:
    """Set the fields of ``scm`` to checked parts, which it takes as they are."""
    for name, value in (("dag", dag), ("card", card), ("cpt", cpt), ("parents", parents)):
        object.__setattr__(scm, name, value)
    return scm


def exact_joint(scm: DiscreteScm, max_cells: int = DEFAULT_CELL_CAP) -> JointTable:
    """Exact joint over all variables, in topological order.

    The dense test oracle: it materialises every cell of the state
    space, so its cost is exponential in the number of nodes.  Queries
    go through :func:`infer`, which never builds this table.
    """
    max_cells = _read(max_cells, int, "max_cells", ParameterError, low=1)
    order = scm.dag.topological_order
    cards = tuple(scm.card[v] for v in order)
    _cells(cards, "joint", max_cells)
    pos = {v: i for i, v in enumerate(order)}
    joint = np.ones(cards, dtype=np.float64)
    for v in order:
        dims = list(scm.parents_of(v)) + [v]
        t = scm.cpt[v].reshape([scm.card[d] for d in dims])
        # Align the CPT's (parents..., v) axes with the global axis order.
        perm = sorted(range(len(dims)), key=lambda i: pos[dims[i]])
        t = t.transpose(perm)
        shape = [1] * len(order)
        for d in dims:
            shape[pos[d]] = scm.card[d]
        joint = joint * t.reshape(shape)
    return JointTable(order, cards, joint)


# numpy.einsum takes at most 31 operands in NumPy 1.x and 63 in 2.x.
_MAX_OPERANDS = 31


def _contract(factors: list, out: tuple) -> np.ndarray:
    """Multiply ``(scope, table)`` factors and sum down to the ``out`` axes.

    Subscripts are numbered per call, so only the variables of these
    factors count toward einsum's 52-subscript limit.
    """
    while len(factors) > _MAX_OPERANDS:
        head, factors = factors[:_MAX_OPERANDS], factors[_MAX_OPERANDS:]
        scope = tuple(dict.fromkeys(u for sc, _ in head for u in sc))
        factors.append((scope, _contract(head, scope)))
    ids = {}
    args = []
    for scope, table in factors:
        args += [table, [ids.setdefault(u, len(ids)) for u in scope]]
    args.append([ids[u] for u in out])
    return np.einsum(*args)


def _plan(
    scopes: list, hidden, card: Mapping[str, int], rank: Mapping[str, int], max_cells: int
) -> list:
    """The elimination of ``hidden`` from the factors of ``scopes``,
    worked out on scopes alone: one ``(inside, out)`` step per variable,
    where ``inside`` lists the indices of the factors the step multiplies
    and ``out`` is the scope of its result, which takes the next index.

    Each hidden variable keeps its bucket, the set of variables it shares
    a factor with, and that set's cell count.  The next variable is the
    one of fewest cells, ties broken by ``rank`` (greedy min-size order).
    Eliminating ``v`` changes only the buckets of the variables of its
    ``out``: each loses ``v`` and gains ``out`` (Koller & Friedman 2009,
    §9.4.3).  ``out`` lists the bucket of ``v``, less ``v``, in factor
    order and then scope order.  A bucket of more than ``max_cells``
    cells raises :class:`StateSpaceTooLarge` before any table exists.
    """
    scopes = list(scopes)
    holds = {v: {} for v in hidden}  # hidden variable -> its factors, in index order
    for i, scope in enumerate(scopes):
        for u in scope:
            if u in holds:
                holds[u][i] = None
    bucket = {v: set().union(*(scopes[i] for i in holds[v])) for v in hidden}
    cells = {v: math.prod(card[u] for u in bucket[v]) for v in hidden}
    steps = []
    while holds:
        v = min(holds, key=lambda u: (cells[u], rank[u]))
        _cells(map(card.__getitem__, bucket[v]), f"factor to eliminate {v}", max_cells)
        inside = list(holds.pop(v))
        out = tuple(u for u in dict.fromkeys(u for i in inside for u in scopes[i]) if u != v)
        for u in out:
            if u in holds:
                for i in inside:
                    holds[u].pop(i, None)
                holds[u][len(scopes)] = None
                bucket[u].discard(v)
                bucket[u].update(out)
                cells[u] = math.prod(card[w] for w in bucket[u])
        steps.append((inside, out))
        scopes.append(out)
    return steps


def infer(
    scm: DiscreteScm,
    keep: Iterable[str],
    evidence: Mapping[str, int] | None = None,
    max_cells: int = DEFAULT_CELL_CAP,
) -> JointTable:
    """Exact P(keep | evidence) by variable elimination over the CPTs.

    Returns what ``marginal(condition(exact_joint(scm), evidence), keep)``
    returns, with ``keep`` in topological order, without building the
    joint.  The model is pruned to the ancestors of ``keep`` and the
    evidence (the other nodes sum to one), and the evidence is sliced into
    each CPT.  :func:`_plan` then orders the remaining variables on the
    factor scopes alone, smallest bucket first, and the plan is run: each
    step multiplies its factors and sums its variable out.  Cost follows
    the largest bucket, the induced width of the order, which is the one
    exponential quantity; the state space is never laid out.  A bucket or
    result of more than ``max_cells`` cells raises
    :class:`StateSpaceTooLarge` before any table is built; ``max_cells``
    is an integer >= 1, else :class:`ParameterError`.
    """
    max_cells = _read(max_cells, int, "max_cells", ParameterError, low=1)
    evidence = _assignment({} if evidence is None else evidence, "evidence", scm.card)
    # A name in both keep and evidence is refused as unknown.
    keep = _names(keep, "keep", scm.card.keys() - evidence.keys() if evidence else scm.card, UnknownVariable)
    if not keep:
        raise UnknownVariable("keep set must be nonempty")

    relevant = {*keep, *evidence}
    relevant |= scm.dag._reach(relevant, scm.dag._parents)
    order = {v: i for i, v in enumerate(scm.dag.topological_order)}

    factors = []
    for v in sorted(relevant, key=order.__getitem__):
        scope = scm.parents[v] + (v,)
        table = scm.cpt[v].reshape([scm.card[u] for u in scope])
        if not evidence.keys().isdisjoint(scope):
            table = table[tuple(evidence[u] if u in evidence else slice(None) for u in scope)]
            scope = tuple(u for u in scope if u not in evidence)
        factors.append((scope, table))

    hidden = relevant - keep - evidence.keys()
    steps = _plan([scope for scope, _ in factors], hidden, scm.card, order, max_cells)
    out = tuple(sorted(keep, key=order.__getitem__))
    _cells([scm.card[u] for u in out], "result", max_cells)
    for inside, scope in steps:
        factors.append((scope, _contract([factors[i] for i in inside], scope)))
        for i in inside:
            factors[i] = None  # a factor is read by one step; free its table
    probs = _contract([f for f in factors if f is not None], out)
    if evidence:
        total = float(probs.sum())
        if total <= 0.0:
            raise ZeroProbabilityEvidence(f"P({evidence}) = 0")
        probs = probs / total
    return JointTable(out, tuple(scm.card[u] for u in out), probs)


def _surgery(scm: DiscreteScm, rows: Mapping[str, np.ndarray]) -> DiscreteScm:
    """Cut the incoming edges of each node in ``rows`` and make it a root
    with that distribution.  The other CPTs are the model's own checked
    tables; only the new root rows are checked."""
    cpt, parents = dict(scm.cpt), dict(scm.parents)
    for v, row in rows.items():
        parents[v] = ()
        cpt[v] = _checked_cpt(v, np.asarray(row, dtype=np.float64).reshape(1, -1), scm.card, ())
    return _fill(object.__new__(DiscreteScm), mutilate(scm.dag, rows.keys()), scm.card, cpt, parents)


def intervene(scm: DiscreteScm, assignment: Mapping[str, int]) -> DiscreteScm:
    """Graph surgery: cut incoming edges and pin each assigned node."""
    assignment = _assignment(assignment, "assignment", scm.card, UnknownNodeError)
    rows = {v: np.eye(scm.card[v])[val] for v, val in assignment.items()}
    return _surgery(scm, rows) if rows else scm


def do_distribution(
    scm: DiscreteScm,
    outcome: str,
    do: Mapping[str, int],
    given: Mapping[str, int] | None = None,
) -> np.ndarray:
    """Surgery oracle: P(outcome | do(do), given) on the mutilated model."""
    return infer(intervene(scm, do), {_name(outcome, "outcome")}, given).probs


# -- sampling ------------------------------------------------------------
#
# RNG: a splitmix64-based counter generator.  The draw for node k of row
# i is hash(seed, i, k) mapped to [0, 1); rows therefore have independent
# derived streams, and any block of rows can be drawn on its own with the
# same values it has in one large draw.

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)


def _mix(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64's output function of ``x + gamma``, in place in the uint64
    array ``x``; ``t`` is scratch space of the same shape."""
    x += _GAMMA
    x ^= np.right_shift(x, _U64(30), out=t)
    x *= _M1
    x ^= np.right_shift(x, _U64(27), out=t)
    x *= _M2
    x ^= np.right_shift(x, _U64(31), out=t)
    return x


def _row_keys(seed: int, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The part of each row's hash that all of its draws share, in place in
    the uint64 row indices ``rows``."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    rows ^= _mix(key, np.empty_like(key))
    return _mix(rows, t)


@dataclass(frozen=True)
class Dataset:
    """Integer sample matrix with its variable order and master seed."""

    vars: tuple
    cards: tuple
    rows: np.ndarray  # shape (n, len(vars)); an integer dtype is kept, others become int64 if exact
    seed: int

    def __post_init__(self):
        vars, cards = _axes(self.vars, self.cards)
        rows = np.asarray(self.rows).view()  # made read-only below; the caller's array is not
        if rows.ndim != 2 or rows.shape[1] != len(vars):
            raise ShapeError("rows must be (n, len(vars))")
        if rows.dtype.kind in "iu":
            _check_range(vars, cards, rows)
        else:
            rows = _exact_int64(vars, cards, rows)
        rows.flags.writeable = False
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return self.rows.shape[0]

    def column(self, var: str) -> np.ndarray:
        return self.rows[:, self.vars.index(_name(var, "var", self.vars, UnknownVariable))]


def _exact_int64(vars: tuple, cards: tuple, rows: np.ndarray) -> np.ndarray:
    """``rows`` as int64, refusing with :class:`ValueOutOfRange` the first
    column that holds anything but an exact integer (a fraction, NaN, an
    infinity, a bool or a string), a value out of :func:`_check_range`, or
    one past int64, which a card over ``2**63`` allows.  The values are
    compared as they are, before the cast."""
    if rows.dtype.kind == "f":
        exact = np.isfinite(rows) & (rows == np.floor(rows))
    else:
        exact = np.vectorize(_integer, otypes=[bool])(rows)
    bad = np.flatnonzero(~exact.all(axis=0))
    if bad.size:
        raise ValueOutOfRange(f"column {vars[bad[0]]} holds a value that is not an integer")
    _check_range(vars, cards, rows)
    if past := [v for v, hi in zip(vars, rows.max(axis=0).tolist() if rows.size else ()) if hi >= 2**63]:
        raise ValueOutOfRange(f"column {past[0]} holds a value past int64")
    return rows.astype(np.int64)


def _check_range(vars: tuple, cards: tuple, rows: np.ndarray) -> None:
    """Refuse the first column of ``rows`` with a value outside ``0..card-1``."""
    if rows.size:
        low = [0] * len(cards) if rows.dtype.kind == "u" else rows.min(axis=0).tolist()
        for k, (lo, hi, c) in enumerate(zip(low, rows.max(axis=0).tolist(), cards)):
            if lo < 0 or hi >= c:
                raise ValueOutOfRange(f"column {vars[k]} exceeds cardinality {_shown(c)}")


# Rows are drawn, masked and written this many at a time, so the sampler's
# scratch (~61 B a row at depth 6: five uint64 or intp arrays, one byte of
# comparison, one of parent code and one per column) fits a 2 MiB L2.
BLOCK_ROWS = 1 << 15


class _Sampler:
    """The ancestral sampler of one model, compiled once: per node its
    column, its parents' (column, cardinality) pairs and its thresholds,
    with the scratch arrays of one block of ``BLOCK_ROWS`` rows."""

    def __init__(self, scm: DiscreteScm):
        self.order = order = scm.dag.topological_order
        self.cards = tuple(scm.card[v] for v in order)
        pos = {v: i for i, v in enumerate(order)}
        codes = {}  # the parent-code scratch of each dtype in use
        self.nodes = []
        for k, v in enumerate(order):
            parents = tuple((pos[p], scm.card[p]) for p in scm.parents_of(v))
            # Two or more parents are coded in the narrowest unsigned dtype that
            # holds the node's count of parent configurations.
            dtype = np.min_scalar_type(len(scm.cpt[v]) - 1)
            code = codes.setdefault(dtype, np.empty(BLOCK_ROWS, dtype)) if len(parents) > 1 else None
            # The value is the number of cumulative thresholds at or below the
            # uniform; h * 2**-53 >= cum exactly when h >= ceil(cum * 2**53).
            # Thresholds never decrease along a row, so the last one (about 1)
            # can only lift a count of card - 1 to card; it is left out, which
            # caps the count at card - 1.
            cum = np.ceil(np.cumsum(scm.cpt[v], axis=1).T[:-1] * 2.0**53).astype(np.uint64, order="C")
            self.nodes.append((k, parents, code, cum))
        narrow = max(self.cards) <= 256
        self.rows = np.empty((BLOCK_ROWS, len(order)), dtype=np.uint8 if narrow else np.int64, order="F")
        self.index = np.arange(BLOCK_ROWS, dtype=np.uint64)
        self.keys, self.h, self.t = (np.empty(BLOCK_ROWS, dtype=np.uint64) for _ in range(3))
        self.ridx, self.hit = np.empty(BLOCK_ROWS, dtype=np.intp), np.empty(BLOCK_ROWS, dtype=bool)

    def dataset(self, seed: int, start: int, n: int) -> Dataset:
        """Rows ``start..start+n-1``, drawn block by block into a new array."""
        seed = _read(seed, int, "seed", ValueOutOfRange)
        start = _read(start, int, "start", ValueOutOfRange, low=0)
        n = _read(n, int, "n", ValueOutOfRange, low=1)
        if n * len(self.order) * self.rows.itemsize > np.iinfo(np.intp).max:
            raise ValueOutOfRange(f"n: {_shown(n)} rows of {len(self.order)} columns are past NumPy's array size")
        if start + n > 2**64:  # the row counter is a uint64
            raise ValueOutOfRange(f"start: expected an integer <= {2**64 - n} (2**64 - n), got {_shown(start)}")
        rows = np.empty((n, len(self.order)), self.rows.dtype, order="F")
        for _ in self.blocks(seed, start, n, rows):
            pass  # each block is drawn in its place in rows
        return Dataset(self.order, self.cards, rows, seed)

    def blocks(self, seed: int, start: int, n: int, rows: np.ndarray):
        """Draw rows ``start..start+n-1`` one block at a time into ``rows``, all
        ``n`` rows or the one block that each block overwrites, and yield each."""
        for a in range(0, n, BLOCK_ROWS):
            yield self.draw(seed, start + a, rows[a % len(rows):][:min(BLOCK_ROWS, n - a)])

    def draw(self, seed: int, start: int, rows: np.ndarray) -> np.ndarray:
        """Fill ``rows``, at most one block, with rows ``start..`` and return it."""
        n = len(rows)
        keys, h, t, ridx, hit = (a[:n] for a in (self.keys, self.h, self.t, self.ridx, self.hit))
        _row_keys(seed, np.add(self.index[:n], _U64(start), out=keys), t)
        # A comparison is written into a uint8 column through its bool view.
        bits = rows.view(bool) if rows.dtype == np.uint8 else rows
        for k, parents, code, cum in self.nodes:
            np.bitwise_xor(keys, _U64(k), out=h)
            _mix(h, t)
            h >>= _U64(11)  # the uniform is exactly h * 2**-53
            if code is not None:
                code = code[:n]
                np.copyto(code, rows[:, parents[0][0]], casting="unsafe")
                for p, c in parents[1:]:
                    code *= c
                    np.add(code, rows[:, p], out=code, casting="unsafe")
            if parents:
                np.copyto(ridx, rows[:, parents[0][0]] if code is None else code)  # np.take reads intp
            for j, row in enumerate(cum):
                # t takes the gathered thresholds; mode="clip" keeps np.take unbuffered.
                cut = np.take(row, ridx, out=t, mode="clip") if parents else row[0]
                if j:
                    rows[:, k] += np.greater_equal(h, cut, out=hit)
                else:
                    np.greater_equal(h, cut, out=bits[:, k])
        return rows


def sample(scm: DiscreteScm, n: int, seed: int, *, start: int = 0) -> Dataset:
    """Ancestral sampling of rows ``start..start+n-1``; bit-reproducible
    for a fixed seed.

    Each row's draws depend only on (seed, row index, node), so
    ``sample(scm, n, seed, start=a)`` holds rows ``a..a+n-1`` of
    ``sample(scm, a + n, seed)``.  The rows are uint8 when every
    cardinality is at most 256 and int64 otherwise, all held at once; an
    ``n`` past NumPy's array size, or a row past ``2**64 - 1``, the last
    index of the 64-bit row counter, raises :class:`ValueOutOfRange`.
    """
    return _Sampler(scm).dataset(seed, start, n)


def empirical_joint(d: Dataset, vars: Iterable[str]) -> JointTable:
    """Normalized frequency table over ``vars``.  Its size is the product
    of their cardinalities: one over ``DEFAULT_CELL_CAP`` raises
    :class:`StateSpaceTooLarge` before any table exists."""
    vars = _names(vars, "vars", d.vars, UnknownVariable, tuple)
    if not vars:
        raise UnknownVariable("variable list must be nonempty")
    if len(d) == 0:
        raise EmptyDataset("dataset has no rows")
    cols = [d.column(v) for v in vars]
    cards = tuple(d.cards[d.vars.index(v)] for v in vars)
    size = _cells(cards, "frequency table")
    codes = np.zeros(len(d), dtype=np.int64)
    for col, card in zip(cols, cards):
        codes = codes * card + col
    counts = np.bincount(codes, minlength=size).astype(np.float64)
    return JointTable(vars, cards, (counts / len(d)).reshape(cards))


def _csv_writer(write, header: tuple, cards: tuple = ()):
    """Write ``header``, whose names need no quoting (see :class:`Dag`), to ``write``
    and return the function that writes each block of rows to it.  When ``cards``
    are given and none is over 10, every value has one digit: each field is a
    little-endian ``<u2`` (digit, separator) pair of one reused buffer whose
    separators are set once, and each block adds ``"0"`` to each column into its
    digit bytes.  Otherwise each block is laid out by :func:`_csv_lines`."""
    write((",".join(header) + "\n").encode())
    if not cards or max(cards) > 10:
        return lambda rows: write(_csv_lines(rows))
    lines = np.full((BLOCK_ROWS, len(header)), ord(",") << 8, dtype="<u2")
    lines[:, -1] = ord("\n") << 8
    digits = lines.view(np.uint8)[:, ::2]

    def write_rows(rows):
        for c in range(rows.shape[1]):
            np.add(rows[:, c], ord("0"), out=digits[:len(rows), c], casting="unsafe")
        write(lines[:len(rows)])
    return write_rows


def _csv_lines(rows: np.ndarray) -> np.ndarray:
    """A C-contiguous array holding the bytes ``csv.writer`` writes for
    ``rows.tolist()``; ``rows`` holds non-negative integers, so no field
    needs quoting.  Each column is laid out in a byte field as wide as its
    largest value, digits right-aligned, followed by its separator, and
    one boolean mask drops the unused leading bytes of shorter values.
    """
    n, k = rows.shape
    widths = [len(str(int(rows[:, c].max()))) if n else 1 for c in range(k)]
    line = np.empty((n, sum(widths) + k), dtype=np.uint8)
    used = np.ones(line.shape, dtype=bool)
    at = 0
    for c, w in enumerate(widths):
        v = rows[:, c]
        for d in range(w):
            # Digit d counted from the right; the leading one needs no % 10.
            digit = v // 10**d if d else v
            if d < w - 1:
                digit = digit % 10
            line[:, at + w - 1 - d] = digit + ord("0")
            if d:
                used[:, at + w - 1 - d] = v >= 10**d
        line[:, at + w] = ord(",")
        at += w + 1
    line[:, -1] = ord("\n")
    return line[used]


def dataset_to_csv(d: Dataset, path_or_buf) -> None:
    """Write the dataset as CSV with a header row, one block at a time."""
    path = isinstance(path_or_buf, str) or hasattr(path_or_buf, "__fspath__")
    with open(path_or_buf, "wb") if path else contextlib.nullcontext(path_or_buf) as fh:
        write = _csv_writer(fh.write if path else lambda b: fh.write(bytes(b).decode("ascii")), d.vars, d.cards)
        for a in range(0, len(d), BLOCK_ROWS):
            write(d.rows[a:a + BLOCK_ROWS])


# -- random models and JSON ----------------------------------------------


def random_scm(dag: Dag, seed: int, card=2, concentration: float = 1.0) -> DiscreteScm:
    """Model on ``dag`` with Dirichlet-distributed CPT rows (strictly positive)."""
    # The card of a name that is no node is read too, and DiscreteScm refuses it.
    cards = dict.fromkeys(dag.nodes, 2)
    cards |= card if isinstance(card, Mapping) else dict.fromkeys(dag.nodes, card)
    cards = {v: _read(c, int, f"card.{v}", ShapeError, low=2) for v, c in cards.items()}
    rng = np.random.default_rng(_read(seed, int, "seed", ValueOutOfRange, low=0))
    concentration = _read(concentration, float, "concentration", ParameterError, low=0)
    cpt = {}
    for v in dag.topological_order:
        n_rows = math.prod(cards[p] for p in dag._parents[v])
        _cells((n_rows, cards[v]), f"CPT of {v}")
        g = rng.gamma(concentration, size=(n_rows, cards[v]))
        g = np.maximum(g, 1e-12)
        cpt[v] = g / g.sum(axis=1, keepdims=True)
    return DiscreteScm(dag, cards, cpt)


def scm_to_json(scm: DiscreteScm) -> dict:
    doc = {
        "graph": dag_to_json(scm.dag),
        "card": dict(scm.card),
        "cpt": {v: scm.cpt[v].tolist() for v in scm.dag.nodes},
    }
    # The reader orders parents by the topological order of the graph it
    # rebuilds from sorted edges, which can break ties otherwise.
    reader = dag_from_json(doc["graph"])
    if any(scm.parents[v] != reader._parents[v] for v in scm.dag.nodes):
        doc["parents"] = {v: list(scm.parents[v]) for v in scm.dag.nodes}
    return doc


def scm_from_json(doc: Mapping) -> DiscreteScm:
    doc = _read(doc, _SCM_DOC, "scm", ShapeError)
    return DiscreteScm(Dag(**doc["graph"]), doc["card"], doc["cpt"], parents=doc.get("parents"))
