"""Entropy and mutual-information arithmetic on exact joint tables.

All quantities are in bits (log base 2) and are exact plug-in
computations; estimation from samples happens by composing
``empirical_joint`` with these functions (plug-in bias accepted).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NumericalConsistencyError, UnknownVariable
from .graph import _disjoint, _names, _sides
from .scm import JointTable, _sum_to

__all__ = [
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "chain_decompositions",
    "ChainDecomposition",
]

MI_CLAMP_TOL = 1e-9
AGREEMENT_TOL = 1e-9


def _as_set(X, path: str) -> frozenset:
    """``X`` read by :func:`_names`, where a bare string is one name."""
    return _names((X,) if isinstance(X, str) else X, path, error=UnknownVariable)


def _clamp_mi(value: float, what: str) -> float:
    if value < -MI_CLAMP_TOL:
        raise NumericalConsistencyError(f"{what} = {value} < -{MI_CLAMP_TOL}")
    return max(value, 0.0)


def entropy(j: JointTable, X) -> float:
    """H(X) = -sum p log2 p over the marginal of X, with 0 log 0 := 0."""
    X = _names((X,) if isinstance(X, str) else X, "X", j.vars, UnknownVariable, empty="X must be nonempty")
    # The cells are non-negative already, so this equals marginal(j, X).
    p = _sum_to(j, X).reshape(-1)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def conditional_entropy(j: JointTable, X, Z) -> float:
    """H(X | Z) = H(X, Z) - H(Z); H(X) when Z is empty."""
    X, Z = _as_set(X, "X"), _as_set(Z, "Z")
    _disjoint(X, Z)
    return entropy(j, X | Z) - (entropy(j, Z) if Z else 0.0)


def _mi(h, X, Y) -> float:
    """I(X; Y) = H(Y) - H(Y | X), clamped at zero, from the entropy function ``h``."""
    _sides(X, Y)
    return _clamp_mi(h(Y) - (h(Y | X) - h(X)), "MI")


def _cmi(h, X, Y, Z) -> float:
    """I(X; Y | Z) from the entropy function ``h``, two ways: H(Y|Z) - H(Y|X,Z) and
    H(X|Z) + H(Y|Z) - H(X,Y|Z), which must agree within 1e-9 or a consistency error
    is raised.  Both read H(Z), H(X,Z), H(Y,Z), H(X,Y,Z), each once; H(Z) = 0 for empty Z."""
    _sides(X, Y, Z)
    h_z = h(Z) if Z else 0.0
    h_xz, h_yz, h_xyz = h(X | Z), h(Y | Z), h(X | Y | Z)
    a = (h_yz - h_z) - (h_xyz - h_xz)
    b = (h_xz - h_z) + (h_yz - h_z) - (h_xyz - h_z)
    if abs(a - b) > AGREEMENT_TOL:
        raise NumericalConsistencyError(f"CMI routes disagree: {a} vs {b}")
    return _clamp_mi(a, "CMI")


def mutual_information(j: JointTable, X, Y) -> float:
    """I(X; Y) = H(Y) - H(Y | X), clamped at zero."""
    return _mi(lambda S: entropy(j, S), _as_set(X, "X"), _as_set(Y, "Y"))


def conditional_mutual_information(j: JointTable, X, Y, Z) -> float:
    """I(X; Y | Z), computed two ways and cross-checked (see :func:`_cmi`)."""
    return _cmi(lambda S: entropy(j, S), _as_set(X, "X"), _as_set(Y, "Y"), _as_set(Z, "Z"))


@dataclass(frozen=True)
class ChainDecomposition:
    """Both chain-rule expansions of I(A, B; Y)."""

    i_ab_y: float
    i_a_y: float
    i_b_y_given_a: float
    i_b_y: float
    i_a_y_given_b: float


def chain_decompositions(j: JointTable, A, B, Y) -> ChainDecomposition:
    """I(A,B;Y) split as I(A;Y)+I(B;Y|A) and as I(B;Y)+I(A;Y|B), off the seven
    entropies of unions of A, B and Y, each computed once.  Both decompositions
    are guaranteed to recompose within 1e-9.  The capacities and the
    confounding gap of :mod:`identify` are its views."""
    A, B, Y = _as_set(A, "A"), _as_set(B, "B"), _as_set(Y, "Y")
    _disjoint(A, B, Y)
    h = cache(lambda S: entropy(j, S))  # each subset's entropy computed once
    rec = ChainDecomposition(
        i_ab_y=_mi(h, A | B, Y),
        i_a_y=_mi(h, A, Y),
        i_b_y_given_a=_cmi(h, B, Y, A),
        i_b_y=_mi(h, B, Y),
        i_a_y_given_b=_cmi(h, A, Y, B),
    )
    for total in (rec.i_a_y + rec.i_b_y_given_a, rec.i_b_y + rec.i_a_y_given_b):
        if abs(rec.i_ab_y - total) > AGREEMENT_TOL:
            raise NumericalConsistencyError(f"chain rule violated: {rec.i_ab_y} vs {total}")
    return rec
