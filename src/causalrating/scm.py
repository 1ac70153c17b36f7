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
    ShapeError,
    StateSpaceTooLarge,
    UnknownNodeError,
    UnknownVariable,
    ValueOutOfRange,
    ZeroProbabilityEvidence,
)
from .graph import _GRAPH_DOC, Dag, _names, _read_json, dag_from_json, dag_to_json, mutilate

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
_SCM_DOC = {"graph": _GRAPH_DOC, "card": {str: int}, "cpt": {str: [[float]]}, "parents?": {str: [str]}}


@dataclass(frozen=True)
class JointTable:
    """Exact probability mass function over an ordered variable subset."""

    vars: tuple
    cards: tuple
    probs: np.ndarray  # shape == cards

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != tuple(self.cards):
            raise ShapeError(f"probs shape {probs.shape} != cards {self.cards}")
        if len(self.vars) != len(self.cards):
            raise ShapeError("vars and cards length mismatch")
        if len(set(self.vars)) != len(self.vars):
            raise ShapeError(f"duplicate variable names: {tuple(self.vars)}")
        total = float(probs.sum())
        # A NaN or infinite cell makes the sum NaN or infinite.
        if not math.isfinite(total):
            raise NormalizationError("non-finite mass")
        if probs.size and probs.min() < -1e-12:
            raise NormalizationError(f"negative mass: {probs.min()}")
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise NormalizationError(f"mass sums to {total}, not 1")
        probs = np.clip(probs, 0.0, None)
        probs.flags.writeable = False
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "cards", tuple(self.cards))
        object.__setattr__(self, "probs", probs)

    def axis(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVariable(f"unknown variable: {var!r}") from None

    def card(self, var: str) -> int:
        return self.cards[self.axis(var)]


def _sum_to(j: JointTable, keep) -> np.ndarray:
    """The mass of ``j`` on the variables in ``keep``, as a new array with
    its axes in ``j.vars`` order."""
    for v in keep:
        if v not in j.vars:
            raise UnknownVariable(f"unknown variable: {v!r}")
    return j.probs.sum(axis=tuple(i for i, v in enumerate(j.vars) if v not in keep))


def marginal(j: JointTable, keep: Iterable[str]) -> JointTable:
    """Sum out every variable not in ``keep`` (original order preserved)."""
    keep = _names(keep, "keep")
    if not keep:
        raise UnknownVariable("keep set must be nonempty")
    probs = _sum_to(j, keep)
    vars_kept = tuple(v for v in j.vars if v in keep)
    cards_kept = tuple(c for v, c in zip(j.vars, j.cards) if v in keep)
    return JointTable(vars_kept, cards_kept, probs)


def _integer(val) -> bool:
    """Whether ``val`` is an integer, not a bool, float or string that ``int`` reads as one."""
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def _in_range(val, card: int) -> bool:
    """Whether ``val`` is an :func:`_integer` in ``0..card-1``."""
    return _integer(val) and 0 <= val < card


def _value(var: str, val, card: int) -> int:
    """``val`` as a value of ``var``, which has ``card`` values; anything
    else raises :class:`ValueOutOfRange`."""
    if not _in_range(val, card):
        raise ValueOutOfRange(f"{var}={val} out of range 0..{card - 1}")
    return int(val)


def condition(j: JointTable, evidence: Mapping[str, int]) -> JointTable:
    """Condition on ``evidence`` and drop the evidenced variables."""
    if not evidence:
        return j
    idx = [slice(None)] * len(j.vars)
    for var, val in evidence.items():
        ax = j.axis(var)
        idx[ax] = _value(var, val, j.cards[ax])
    sliced = j.probs[tuple(idx)]
    total = float(sliced.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidence(f"P({dict(evidence)}) = 0")
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
        nodes = set(dag.nodes)
        missing = nodes - set(card)
        if missing:
            raise ShapeError(f"card missing nodes: {sorted(missing)}")
        missing = nodes - set(cpt)
        if missing:
            raise ShapeError(f"cpt missing nodes: {sorted(missing)}")
        for k in set(card) | set(cpt):
            if k not in nodes:
                raise UnknownNodeError(f"unknown node: {k!r}")
        card = {n: _cardinality(n, card[n]) for n in dag.nodes}
        porder = {}
        for v in dag.nodes:
            if parents is not None and v in parents:
                ps = tuple(parents[v])
                if frozenset(ps) != dag.parents(v) or len(ps) != len(set(ps)):
                    raise ShapeError(
                        f"parent order for {v} does not match the graph: {ps}"
                    )
            else:
                ps = dag._parents[v]
            porder[v] = ps
        tables = {v: _checked_cpt(v, cpt[v], card, porder[v]) for v in dag.nodes}
        _fill(self, dag, card, tables, porder)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteScm is immutable")

    def parents_of(self, v: str) -> tuple:
        """Parents of ``v`` in CPT row order."""
        if v not in self.parents:
            raise UnknownNodeError(f"unknown node: {v!r}")
        return self.parents[v]


def _cardinality(v: str, card) -> int:
    """``card`` as the cardinality of ``v``: an :func:`_integer` of at least 2."""
    if not _integer(card) or card < 2:
        raise ShapeError(f"cardinality of {v} must be an integer >= 2, got {card!r}")
    return int(card)


def _checked_cpt(v: str, rows, card: Mapping[str, int], parents: tuple) -> np.ndarray:
    """``rows`` as the CPT of ``v`` under ``parents``: a new read-only
    C-contiguous array of one row per parent configuration, each a
    distribution over the ``card[v]`` values of ``v``."""
    n_rows = math.prod(card[p] for p in parents)
    try:
        t = np.array(rows, dtype=np.float64, order="C")
    except ValueError as exc:  # ragged rows or non-numeric entries
        raise ShapeError(f"CPT for {v}: {exc}") from None
    if t.shape != (n_rows, card[v]):
        raise ShapeError(f"CPT for {v}: shape {t.shape}, expected {(n_rows, card[v])}")
    if not (t.min() >= 0.0 and t.max() <= 1.0 + ROW_SUM_TOL):  # false on NaN too
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
    order = scm.dag.topological_order
    cards = tuple(scm.card[v] for v in order)
    if math.prod(cards) > max_cells:
        raise StateSpaceTooLarge(f"state space {math.prod(cards)} exceeds cap {max_cells}")
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
        n = cells[v]
        if n > max_cells:
            raise StateSpaceTooLarge(
                f"eliminating {v} needs a factor of {n} cells, over the cap {max_cells}"
            )
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
    :class:`StateSpaceTooLarge` before any table is built.
    """
    evidence = dict(evidence or {})
    for var, val in evidence.items():
        if var not in scm.card:
            raise UnknownVariable(f"unknown variable: {var!r}")
        evidence[var] = _value(var, val, scm.card[var])
    keep = _names(keep, "keep")
    if not keep:
        raise UnknownVariable("keep set must be nonempty")
    for v in keep:
        if v not in scm.card or v in evidence:
            raise UnknownVariable(f"unknown variable: {v!r}")

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
    cells = math.prod(scm.card[u] for u in out)
    if cells > max_cells:
        raise StateSpaceTooLarge(f"result of {cells} cells exceeds cap {max_cells}")
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
    rows = {}
    for v, val in assignment.items():
        if v not in scm.card:
            raise UnknownNodeError(f"unknown node: {v!r}")
        rows[v] = np.eye(scm.card[v])[_value(v, val, scm.card[v])]
    return _surgery(scm, rows) if rows else scm


def do_distribution(
    scm: DiscreteScm,
    outcome: str,
    do: Mapping[str, int],
    given: Mapping[str, int] | None = None,
) -> np.ndarray:
    """Surgery oracle: P(outcome | do(do), given) on the mutilated model."""
    return infer(intervene(scm, do), {outcome}, given).probs


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
        rows = np.asarray(self.rows).view()  # made read-only below; the caller's array is not
        if rows.ndim != 2 or rows.shape[1] != len(self.vars):
            raise ShapeError("rows must be (n, len(vars))")
        if len(set(self.vars)) != len(self.vars):
            raise ShapeError(f"duplicate variable names: {tuple(self.vars)}")
        if len(self.cards) != len(self.vars):
            raise ShapeError("vars and cards length mismatch")
        if rows.dtype.kind not in "iu":
            rows = _exact_int64(self.vars, self.cards, rows)
        _check_range(self.vars, self.cards, rows)
        rows.flags.writeable = False
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "cards", tuple(self.cards))
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return self.rows.shape[0]

    def column(self, var: str) -> np.ndarray:
        if var not in self.vars:
            raise UnknownVariable(f"unknown variable: {var!r}")
        return self.rows[:, self.vars.index(var)]


def _exact_int64(vars: tuple, cards: tuple, rows: np.ndarray) -> np.ndarray:
    """``rows`` as int64, refusing with :class:`ValueOutOfRange` the first
    column that holds anything but an exact integer: a fraction, NaN, an
    infinity, a bool or a string.  Values are clipped to ``-1..max(cards)``
    first, so no cast overflows and :func:`_check_range` still refuses
    every value out of range."""
    if rows.dtype.kind == "f":
        exact = np.isfinite(rows) & (rows == np.floor(rows))
    else:
        exact = np.vectorize(_integer, otypes=[bool])(rows)
    bad = np.flatnonzero(~exact.all(axis=0))
    if bad.size:
        raise ValueOutOfRange(f"column {vars[bad[0]]} holds a value that is not an integer")
    return np.clip(rows, -1, max(cards, default=0)).astype(np.int64)


def _check_range(vars: tuple, cards: tuple, rows: np.ndarray) -> None:
    """Refuse the first column of ``rows`` with a value outside ``0..card-1``."""
    if rows.size:
        low = rows.min(axis=0).tolist() if rows.dtype.kind == "i" else [0] * len(cards)
        for k, (lo, hi, c) in enumerate(zip(low, rows.max(axis=0).tolist(), cards)):
            if lo < 0 or hi >= c:
                raise ValueOutOfRange(f"column {vars[k]} exceeds cardinality {c}")


def _check_counts(seed: int, start: int, n: int) -> None:
    """Refuse an ``n``, ``seed`` or ``start`` that is not an :func:`_integer`, ``n < 1`` and ``start < 0``."""
    for name, value in (("n", n), ("seed", seed), ("start", start)):
        if not _integer(value):
            raise ValueOutOfRange(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ValueOutOfRange("n must be >= 1")
    if start < 0:
        raise ValueOutOfRange("start must be >= 0")


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
        """Rows ``start..start+n-1``, drawn block by block into a new array
        once :func:`_check_counts` has passed."""
        _check_counts(seed, start, n)
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
    cardinality is at most 256 and int64 otherwise.
    """
    return _Sampler(scm).dataset(seed, start, n)


def empirical_joint(d: Dataset, vars: Iterable[str]) -> JointTable:
    """Normalized frequency table over ``vars``.  Its size is the product
    of their cardinalities: one over ``DEFAULT_CELL_CAP`` raises
    :class:`StateSpaceTooLarge` before any table exists."""
    vars = _names(vars, "vars", tuple)
    if not vars:
        raise UnknownVariable("variable list must be nonempty")
    if len(d) == 0:
        raise EmptyDataset("dataset has no rows")
    cols = [d.column(v) for v in vars]
    cards = tuple(d.cards[d.vars.index(v)] for v in vars)
    size = math.prod(cards)
    if size > DEFAULT_CELL_CAP:
        raise StateSpaceTooLarge(f"state space {size} exceeds cap {DEFAULT_CELL_CAP}")
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
    for v in card if isinstance(card, Mapping) else ():
        if v not in dag._parents:
            raise UnknownNodeError(f"unknown node: {v!r}")
    cards = {v: _cardinality(v, card.get(v, 2) if isinstance(card, Mapping) else card) for v in dag.nodes}
    rng = np.random.default_rng(seed)
    cpt = {}
    for v in dag.topological_order:
        n_rows = math.prod(cards[p] for p in dag._parents[v])
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
    doc = _read_json(doc, _SCM_DOC, "scm", ShapeError)
    return DiscreteScm(Dag(**doc["graph"]), doc["card"], doc["cpt"], parents=doc.get("parents"))
