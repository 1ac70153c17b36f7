"""Entropy and mutual-information arithmetic on exact joint tables.

All quantities are in bits (log base 2) and are exact plug-in
computations; estimation from samples happens by composing
``empirical_joint`` with these functions (plug-in bias accepted).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalConsistencyError, OverlapError, UnknownVariable
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


def _as_set(X) -> frozenset:
    return frozenset([X]) if isinstance(X, str) else frozenset(X)


def _check_disjoint(*sets):
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            inter = a & b
            if inter:
                raise OverlapError(f"variable sets overlap on {sorted(inter)}")


def _clamp_mi(value: float, what: str) -> float:
    if value < -MI_CLAMP_TOL:
        raise NumericalConsistencyError(f"{what} = {value} < -{MI_CLAMP_TOL}")
    return max(value, 0.0)


def entropy(j: JointTable, X) -> float:
    """H(X) = -sum p log2 p over the marginal of X, with 0 log 0 := 0."""
    X = _as_set(X)
    if not X:
        raise UnknownVariable("X must be nonempty")
    # The cells are non-negative already, so this equals marginal(j, X).
    p = _sum_to(j, X).reshape(-1)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def conditional_entropy(j: JointTable, X, Z) -> float:
    """H(X | Z) = H(X, Z) - H(Z); H(X) when Z is empty."""
    X, Z = _as_set(X), _as_set(Z)
    _check_disjoint(X, Z)
    return entropy(j, X | Z) - (entropy(j, Z) if Z else 0.0)


def mutual_information(j: JointTable, X, Y) -> float:
    """I(X; Y) = H(Y) - H(Y | X), clamped at zero."""
    X, Y = _as_set(X), _as_set(Y)
    if not X or not Y:
        raise OverlapError("X and Y must be nonempty")
    _check_disjoint(X, Y)
    return _clamp_mi(entropy(j, Y) - conditional_entropy(j, Y, X), "MI")


def conditional_mutual_information(j: JointTable, X, Y, Z) -> float:
    """I(X; Y | Z), computed two ways and cross-checked.

    Route one: H(Y|Z) - H(Y|X,Z).  Route two: H(X|Z) + H(Y|Z) - H(X,Y|Z).
    The two must agree within 1e-9 or a consistency error is raised.
    Both read H(Z), H(X,Z), H(Y,Z), H(X,Y,Z), each once; H(Z) = 0 for empty Z.
    """
    X, Y, Z = _as_set(X), _as_set(Y), _as_set(Z)
    if not X or not Y:
        raise OverlapError("X and Y must be nonempty")
    _check_disjoint(X, Y, Z)
    h_z = entropy(j, Z) if Z else 0.0
    h_xz, h_yz, h_xyz = entropy(j, X | Z), entropy(j, Y | Z), entropy(j, X | Y | Z)
    a = (h_yz - h_z) - (h_xyz - h_xz)
    b = (h_xz - h_z) + (h_yz - h_z) - (h_xyz - h_z)
    if abs(a - b) > AGREEMENT_TOL:
        raise NumericalConsistencyError(f"CMI routes disagree: {a} vs {b}")
    return _clamp_mi(a, "CMI")


@dataclass(frozen=True)
class ChainDecomposition:
    """Both chain-rule expansions of I(A, B; Y)."""

    i_ab_y: float
    i_a_y: float
    i_b_y_given_a: float
    i_b_y: float
    i_a_y_given_b: float

    def to_json(self) -> dict:
        return asdict(self)


def chain_decompositions(j: JointTable, A, B, Y) -> ChainDecomposition:
    """I(A,B;Y) split as I(A;Y)+I(B;Y|A) and as I(B;Y)+I(A;Y|B).

    Both decompositions are guaranteed to recompose within 1e-9.  The
    capacities and the confounding gap of :mod:`identify` are its views.
    """
    A, B, Y = _as_set(A), _as_set(B), _as_set(Y)
    _check_disjoint(A, B, Y)
    rec = ChainDecomposition(
        i_ab_y=mutual_information(j, A | B, Y),
        i_a_y=mutual_information(j, A, Y),
        i_b_y_given_a=conditional_mutual_information(j, B, Y, A),
        i_b_y=mutual_information(j, B, Y),
        i_a_y_given_b=conditional_mutual_information(j, A, Y, B),
    )
    for total in (rec.i_a_y + rec.i_b_y_given_a, rec.i_b_y + rec.i_a_y_given_b):
        if abs(rec.i_ab_y - total) > AGREEMENT_TOL:
            raise NumericalConsistencyError(
                f"chain rule violated: {rec.i_ab_y} vs {total}"
            )
    return rec
