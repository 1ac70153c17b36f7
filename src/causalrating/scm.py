"""Discrete structural causal models: CPTs, exact joints, surgery, sampling.

Probabilities are 64-bit floats.  CPT rows for a node are indexed by the
parent configuration in mixed-radix order, most-significant parent
first, with parents listed in the graph's topological order by default.
"""

from __future__ import annotations

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
from .graph import _GRAPH_DOC, Dag, _read_json, dag_from_json, dag_to_json, mutilate

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
    keep = set(keep)
    if not keep:
        raise UnknownVariable("keep set must be nonempty")
    probs = _sum_to(j, keep)
    vars_kept = tuple(v for v in j.vars if v in keep)
    cards_kept = tuple(c for v, c in zip(j.vars, j.cards) if v in keep)
    return JointTable(vars_kept, cards_kept, probs)


def condition(j: JointTable, evidence: Mapping[str, int]) -> JointTable:
    """Condition on ``evidence`` and drop the evidenced variables."""
    if not evidence:
        return j
    idx = [slice(None)] * len(j.vars)
    for var, val in evidence.items():
        ax = j.axis(var)
        if not 0 <= int(val) < j.cards[ax]:
            raise ValueOutOfRange(f"{var}={val} out of range 0..{j.cards[ax] - 1}")
        idx[ax] = int(val)
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
        card = {n: int(card[n]) for n in dag.nodes}
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
        tables = {}
        for v in dag.nodes:
            if card[v] < 2:
                raise ShapeError(f"cardinality of {v} must be >= 2")
            n_rows = math.prod(card[p] for p in porder[v])
            try:
                t = np.array(cpt[v], dtype=np.float64)
            except ValueError as exc:  # ragged rows or non-numeric entries
                raise ShapeError(f"CPT for {v}: {exc}") from None
            if t.shape != (n_rows, card[v]):
                raise ShapeError(
                    f"CPT for {v}: shape {t.shape}, expected {(n_rows, card[v])}"
                )
            if not (t.min() >= 0.0 and t.max() <= 1.0 + ROW_SUM_TOL):  # false on NaN too
                raise NormalizationError(f"CPT for {v} has entries outside [0, 1]")
            bad = np.abs(t.sum(axis=1) - 1.0) > ROW_SUM_TOL
            if bad.any():
                row = int(np.argmax(bad))
                raise NormalizationError(
                    f"CPT row {row} of {v} sums to {t[row].sum()}, not 1"
                )
            t.flags.writeable = False
            tables[v] = t
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "card", card)
        object.__setattr__(self, "cpt", tables)
        object.__setattr__(self, "parents", porder)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteScm is immutable")

    def parents_of(self, v: str) -> tuple:
        """Parents of ``v`` in CPT row order."""
        if v not in self.parents:
            raise UnknownNodeError(f"unknown node: {v!r}")
        return self.parents[v]


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
    evidence (the other nodes sum to one), the evidence is sliced into
    each CPT, and the remaining variables are summed out one at a time,
    smallest bucket first (greedy min-size order).  Cost follows the
    largest bucket, not the state space; a bucket or result of more than
    ``max_cells`` cells raises :class:`StateSpaceTooLarge`.
    """
    evidence = {} if evidence is None else evidence
    for var, val in evidence.items():
        if var not in scm.card:
            raise UnknownVariable(f"unknown variable: {var!r}")
        if not 0 <= int(val) < scm.card[var]:
            raise ValueOutOfRange(f"{var}={val} out of range 0..{scm.card[var] - 1}")
    keep = set(keep)
    if not keep:
        raise UnknownVariable("keep set must be nonempty")
    for v in keep:
        if v not in scm.card or v in evidence:
            raise UnknownVariable(f"unknown variable: {v!r}")

    relevant, stack = set(), [*keep, *evidence]
    while stack:
        v = stack.pop()
        if v not in relevant:
            relevant.add(v)
            stack.extend(scm.parents[v])
    order = {v: i for i, v in enumerate(scm.dag.topological_order)}

    def size(scope) -> int:
        return math.prod(scm.card[u] for u in scope)

    factors = []
    for v in sorted(relevant, key=order.__getitem__):
        scope = scm.parents[v] + (v,)
        table = scm.cpt[v].reshape([scm.card[u] for u in scope])
        if not evidence.keys().isdisjoint(scope):
            table = table[tuple(int(evidence[u]) if u in evidence else slice(None) for u in scope)]
            scope = tuple(u for u in scope if u not in evidence)
        factors.append((scope, table))

    hidden = relevant - keep - evidence.keys()
    while hidden:
        buckets = {v: {} for v in hidden}
        for scope, _ in factors:
            for u in scope:
                if u in buckets:
                    buckets[u].update(dict.fromkeys(scope))
        cells = {u: size(bucket) for u, bucket in buckets.items()}
        v = min(hidden, key=lambda u: (cells[u], order[u]))
        if cells[v] > max_cells:
            raise StateSpaceTooLarge(
                f"eliminating {v} needs a factor of {cells[v]} cells, over the cap {max_cells}"
            )
        inside = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        out = tuple(u for u in buckets[v] if u != v)
        factors.append((out, _contract(inside, out)))
        hidden.discard(v)

    out = tuple(sorted(keep, key=order.__getitem__))
    if size(out) > max_cells:
        raise StateSpaceTooLarge(f"result of {size(out)} cells exceeds cap {max_cells}")
    probs = _contract(factors, out)
    if evidence:
        total = float(probs.sum())
        if total <= 0.0:
            raise ZeroProbabilityEvidence(f"P({dict(evidence)}) = 0")
        probs = probs / total
    return JointTable(out, tuple(scm.card[u] for u in out), probs)


def _surgery(scm: DiscreteScm, rows: Mapping[str, np.ndarray]) -> DiscreteScm:
    """Cut the incoming edges of each node in ``rows`` and make it a root
    with that distribution."""
    cpt, parents = dict(scm.cpt), dict(scm.parents)
    for v, row in rows.items():
        cpt[v] = np.asarray(row, dtype=np.float64).reshape(1, -1)
        parents[v] = ()
    return DiscreteScm(mutilate(scm.dag, rows.keys()), scm.card, cpt, parents=parents)


def intervene(scm: DiscreteScm, assignment: Mapping[str, int]) -> DiscreteScm:
    """Graph surgery: cut incoming edges and pin each assigned node."""
    for v, val in assignment.items():
        if v not in scm.card:
            raise UnknownNodeError(f"unknown node: {v!r}")
        if not 0 <= int(val) < scm.card[v]:
            raise ValueOutOfRange(f"{v}={val} out of range 0..{scm.card[v] - 1}")
    if not assignment:
        return scm
    return _surgery(scm, {v: np.eye(scm.card[v])[int(val)] for v, val in assignment.items()})


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


def _uniforms(seed: int, rows: np.ndarray, draw: int) -> np.ndarray:
    """Vectorized splitmix64 uniforms in [0, 1) for (seed, row, draw)."""
    t = np.empty(len(rows), dtype=np.uint64)
    h = _row_keys(seed, rows.astype(np.uint64), t)
    h ^= _U64(draw % (1 << 64))
    return (_mix(h, t) >> _U64(11)) * 2.0**-53


@dataclass(frozen=True)
class Dataset:
    """Integer sample matrix with its variable order and master seed."""

    vars: tuple
    cards: tuple
    rows: np.ndarray  # shape (n, len(vars)); an integer dtype is kept, others become int64
    seed: int

    def __post_init__(self):
        rows = np.asarray(self.rows).view()  # made read-only below; the caller's array is not
        if rows.dtype.kind not in "iu":
            rows = rows.astype(np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.vars):
            raise ShapeError("rows must be (n, len(vars))")
        if len(set(self.vars)) != len(self.vars):
            raise ShapeError(f"duplicate variable names: {tuple(self.vars)}")
        for k, c in enumerate(self.cards):
            if rows.size and (rows[:, k].min() < 0 or rows[:, k].max() >= c):
                raise ValueOutOfRange(f"column {self.vars[k]} exceeds cardinality {c}")
        rows.flags.writeable = False
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "cards", tuple(self.cards))
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return self.rows.shape[0]

    def column(self, var: str) -> np.ndarray:
        return self.rows[:, self.vars.index(var)]


def _sample_rows(scm: DiscreteScm, n: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows ``start..start+n-1`` of the ancestral sample, columns in
    topological order: a writable, column-major array, uint8 when every
    cardinality is at most 256 and int64 otherwise."""
    if n < 1:
        raise ValueOutOfRange("n must be >= 1")
    if start < 0:
        raise ValueOutOfRange("start must be >= 0")
    order = scm.dag.topological_order
    pos = {v: i for i, v in enumerate(order)}
    narrow = max(scm.card.values()) <= 256
    rows = np.empty((n, len(order)), dtype=np.uint8 if narrow else np.int64, order="F")
    h, t = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    keys = _row_keys(seed, np.arange(start, start + n, dtype=np.uint64), t)
    ridx = np.empty(n, dtype=np.int64)
    for k, v in enumerate(order):
        np.bitwise_xor(keys, _U64(k), out=h)
        _mix(h, t)
        h >>= _U64(11)  # the uniform is exactly h * 2**-53
        ps = scm.parents_of(v)
        ridx.fill(0)
        for p in ps:
            ridx *= scm.card[p]
            ridx += rows[:, pos[p]]
        # The value is the number of cumulative thresholds at or below the
        # uniform; h * 2**-53 >= cum exactly when h >= ceil(cum * 2**53).
        # Thresholds never decrease along a row, so the last one (about 1)
        # can only lift a count of card - 1 to card; it is left out, which
        # caps the count at card - 1.
        cum = np.ceil(np.cumsum(scm.cpt[v], axis=1).T * 2.0**53).astype(np.uint64)
        col = rows[:, k]
        col.fill(0)
        for j in range(scm.card[v] - 1):
            col += h >= (cum[j][ridx] if ps else cum[j, 0])
    return rows


def sample(scm: DiscreteScm, n: int, seed: int, *, start: int = 0) -> Dataset:
    """Ancestral sampling of rows ``start..start+n-1``; bit-reproducible
    for a fixed seed.

    Each row's draws depend only on (seed, row index, node), so
    ``sample(scm, n, seed, start=a)`` holds rows ``a..a+n-1`` of
    ``sample(scm, a + n, seed)``.
    """
    rows = _sample_rows(scm, n, seed, start)
    order = scm.dag.topological_order
    return Dataset(order, tuple(scm.card[v] for v in order), rows, seed)


def empirical_joint(d: Dataset, vars: Iterable[str]) -> JointTable:
    """Normalized frequency table over ``vars``."""
    vars = tuple(vars)
    if len(d) == 0:
        raise EmptyDataset("dataset has no rows")
    for v in vars:
        if v not in d.vars:
            raise UnknownVariable(f"unknown variable: {v!r}")
    cols = [d.vars.index(v) for v in vars]
    cards = tuple(d.cards[c] for c in cols)
    codes = np.zeros(len(d), dtype=np.int64)
    for c, card in zip(cols, cards):
        codes = codes * card + d.rows[:, c]
    size = int(np.prod(cards))
    counts = np.bincount(codes, minlength=size).astype(np.float64)
    return JointTable(vars, cards, (counts / len(d)).reshape(cards))


def _csv_bytes(rows: np.ndarray, header: tuple = ()) -> bytes:
    """The bytes ``csv.writer(fh, lineterminator="\\n")`` writes for the
    ``header`` row, if one is given, and then ``rows.tolist()``.

    ``rows`` holds non-negative integers and the header names are
    identifiers (see :class:`Dag`), so no field needs quoting.  When every
    value has one digit, each field is a little-endian uint16 (digit,
    separator) pair and one addition lays out all rows.  Otherwise each
    column is laid out in a byte field as wide as its largest value,
    digits right-aligned, followed by its separator, and one boolean mask
    drops the unused leading bytes of shorter values.
    """
    n, k = rows.shape
    widths = [len(str(int(rows[:, c].max()))) if n else 1 for c in range(k)]
    head = (",".join(header) + "\n").encode() if header else b""
    if max(widths) == 1:
        pairs = np.full(k, ord("0") | ord(",") << 8, dtype="<u2")
        pairs[-1] = ord("0") | ord("\n") << 8
        return head + np.add(rows, pairs, dtype="<u2", casting="unsafe", order="C").tobytes()
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
    return head + line[used].tobytes()


def dataset_to_csv(d: Dataset, path_or_buf) -> None:
    """Write the dataset as CSV with a header row."""
    data = _csv_bytes(d.rows, d.vars)
    if isinstance(path_or_buf, (str,)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "wb") as fh:
            fh.write(data)
    else:
        path_or_buf.write(data.decode("ascii"))


# -- random models and JSON ----------------------------------------------


def random_scm(dag: Dag, seed: int, card=2, concentration: float = 1.0) -> DiscreteScm:
    """Model on ``dag`` with Dirichlet-distributed CPT rows (strictly positive)."""
    if isinstance(card, Mapping):
        cards = {v: int(card.get(v, 2)) for v in dag.nodes}
    else:
        cards = {v: int(card) for v in dag.nodes}
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
