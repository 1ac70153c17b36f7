"""Entropy and mutual-information arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrating import (
    Dag,
    JointTable,
    OverlapError,
    UnknownVariable,
    chain_decompositions,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    exact_joint,
    marginal,
    mutual_information,
    random_scm,
    template,
)
from helpers import random_joint


def pair_joint(p):
    return JointTable(("A", "B"), (2, 2), np.asarray(p))


INDEPENDENT = pair_joint([[0.25, 0.25], [0.25, 0.25]])
COPY = pair_joint([[0.5, 0.0], [0.0, 0.5]])


class TestEntropy:
    def test_fair_bit(self):
        assert abs(entropy(INDEPENDENT, {"A"}) - 1.0) < 1e-12

    def test_point_mass(self):
        j = pair_joint([[1.0, 0.0], [0.0, 0.0]])
        assert entropy(j, {"A"}) == 0.0

    def test_uniform_four_states(self):
        assert abs(entropy(INDEPENDENT, {"A", "B"}) - 2.0) < 1e-12

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            entropy(INDEPENDENT, {"Q"})


class TestConditionalEntropy:
    def test_deterministic_copy(self):
        assert abs(conditional_entropy(COPY, {"B"}, {"A"})) < 1e-12

    def test_independent(self):
        got = conditional_entropy(INDEPENDENT, {"B"}, {"A"})
        assert abs(got - entropy(INDEPENDENT, {"B"})) < 1e-12

    def test_agrees_with_double_sum(self):
        j = random_joint(17, cards=(2, 3), names=("A", "B"))
        direct = 0.0
        pa = j.probs.sum(axis=1)
        for a in range(2):
            for b in range(3):
                p = j.probs[a, b]
                if p > 0:
                    direct -= p * np.log2(p / pa[a])
        assert abs(conditional_entropy(j, {"B"}, {"A"}) - direct) < 1e-12

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            conditional_entropy(COPY, {"A"}, {"A"})


class TestMutualInformation:
    def test_independent_bits(self):
        assert mutual_information(INDEPENDENT, {"A"}, {"B"}) == 0.0

    def test_deterministic_copy(self):
        assert abs(mutual_information(COPY, {"A"}, {"B"}) - 1.0) < 1e-12

    def test_skewed_binary_value(self):
        j = pair_joint([[0.4, 0.1], [0.1, 0.4]])
        assert abs(mutual_information(j, {"A"}, {"B"}) - 0.278) < 1e-3

    def test_symmetry(self):
        j = random_joint(23)
        a = mutual_information(j, {"A"}, {"B"})
        b = mutual_information(j, {"B"}, {"A"})
        assert abs(a - b) < 1e-12


class TestConditionalMutualInformation:
    def test_markov_chain_zero(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], [])
        j = exact_joint(random_scm(dag, 31))
        assert conditional_mutual_information(j, {"A"}, {"C"}, {"B"}) < 1e-9

    def test_empty_z_reduces_to_mi(self):
        j = random_joint(5)
        a = conditional_mutual_information(j, {"A"}, {"B"}, set())
        b = mutual_information(j, {"A"}, {"B"})
        assert abs(a - b) < 1e-12

    def test_mediated_history_is_conditionally_independent(self):
        j = exact_joint(random_scm(template("Fig1d"), 8))
        assert conditional_mutual_information(j, {"Y_h"}, {"Y_f"}, {"X_c"}) < 1e-9


class TestChainDecompositions:
    def test_mutually_independent_all_zero(self):
        rng = np.random.default_rng(0)
        a, b, y = (rng.dirichlet([1, 1]) for _ in range(3))
        probs = np.einsum("i,j,k->ijk", a, b, y)
        j = JointTable(("A", "B", "Y"), (2, 2, 2), probs)
        d = chain_decompositions(j, {"A"}, {"B"}, {"Y"})
        for val in (d.i_ab_y, d.i_a_y, d.i_b_y_given_a, d.i_b_y, d.i_a_y_given_b):
            assert abs(val) < 1e-9

    def test_redundant_copies(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        j = JointTable(("A", "B", "Y"), (2, 2, 2), probs)
        d = chain_decompositions(j, {"A"}, {"B"}, {"Y"})
        assert abs(d.i_ab_y - 1.0) < 1e-12
        assert abs(d.i_b_y_given_a) < 1e-12

    def test_each_entropy_computed_once(self, monkeypatch):
        # A decomposition reads the seven nonempty unions of its sets, each
        # once; an MI reads three entropies and a CMI four, as they did alone.
        from causalrating import info

        read, real = [], info.entropy
        monkeypatch.setattr(info, "entropy", lambda j, S: read.append(frozenset(S)) or real(j, S))
        j = exact_joint(random_scm(template("Fig3"), 2))
        A, B, Y = frozenset({"Y_h"}), frozenset({"X_c", "Z"}), frozenset({"Y_f"})
        chain_decompositions(j, A, B, Y)
        assert sorted(read, key=sorted) == sorted({A, B, Y, A | B, A | Y, B | Y, A | B | Y}, key=sorted)
        for call, count in ((lambda: mutual_information(j, A, Y), 3), (lambda: conditional_mutual_information(j, A, Y, B), 4)):
            read.clear()
            call()
            assert len(read) == len(set(read)) == count

    def test_both_expansions_recompose(self):
        j = exact_joint(random_scm(template("Fig2b"), 19))
        d = chain_decompositions(j, {"Y_h"}, {"X_c"}, {"Y_f"})
        assert abs(d.i_ab_y - (d.i_a_y + d.i_b_y_given_a)) < 1e-9
        assert abs(d.i_ab_y - (d.i_b_y + d.i_a_y_given_b)) < 1e-9


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_nonnegativity_on_random_joints(seed):
    j = random_joint(seed)
    assert mutual_information(j, {"A"}, {"B"}) >= 0.0
    assert conditional_mutual_information(j, {"A"}, {"B"}, {"C"}) >= 0.0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_monotonicity_on_random_joints(seed):
    j = random_joint(seed, cards=(2, 2, 2), names=("Y_h", "X_c", "Y_f"))
    joint_mi = mutual_information(j, {"Y_h", "X_c"}, {"Y_f"})
    assert joint_mi >= mutual_information(j, {"Y_h"}, {"Y_f"}) - 1e-9


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_entropy_equals_marginal_route(data):
    # entropy sums the cells directly; the marginal table holds the same
    # sums, so the two agree bit for bit, zero cells included.
    cards = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="cards"))
    names = tuple(f"V{i}" for i in range(len(cards)))
    j = random_joint(data.draw(st.integers(0, 100_000), label="seed"), cards, names)
    zeros = np.asarray(data.draw(st.lists(st.booleans(), min_size=j.probs.size, max_size=j.probs.size)))
    if not zeros.all():
        p = np.where(zeros.reshape(cards), 0.0, j.probs)
        j = JointTable(names, cards, p / p.sum())
    X = data.draw(st.sets(st.sampled_from(names), min_size=1), label="X")
    p = marginal(j, X).probs.reshape(-1)
    p = p[p > 0.0]
    assert entropy(j, X) == float(-(p * np.log2(p)).sum())
    with pytest.raises(UnknownVariable):
        entropy(j, X | {"Nope"})
