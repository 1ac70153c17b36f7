"""Discrete models: joints, surgery, sampling, serialization."""

import io
import json
import math
import types
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalrating import (
    CausalRatingError,
    Dag,
    confounded_mediation_example,
    Dataset,
    DiscreteScm,
    JointTable,
    NormalizationError,
    ParameterError,
    ShapeError,
    StateSpaceTooLarge,
    UnknownNodeError,
    UnknownVariable,
    ValueOutOfRange,
    ZeroProbabilityEvidence,
    condition,
    dataset_to_csv,
    do_distribution,
    empirical_joint,
    exact_joint,
    infer,
    intervene,
    marginal,
    random_scm,
    sample,
    scm_from_json,
    scm_to_json,
    template,
)
from causalrating.graph import _shown, mutilate
from causalrating import scm as scm_module
from causalrating.scm import _check_range, _checked_cpt, _csv_writer, _row_keys, _Sampler, _surgery
from helpers import (
    TEMPLATE_DAGS,
    brute_force_joint,
    csv_writer_bytes,
    mass_of,
    random_dag,
    reference_check_range,
    reference_infer,
    reference_sample_rows,
    sparse_scm,
    uniforms,
)


def copy_chain(p_a=0.5):
    dag = Dag(["A", "B"], [("A", "B")], [])
    return DiscreteScm(
        dag, {"A": 2, "B": 2}, {"A": [[1 - p_a, p_a]], "B": [[1, 0], [0, 1]]}
    )


class TestBuildScm:
    def test_valid_chain(self):
        scm = copy_chain()
        assert scm.parents_of("B") == ("A",)

    def test_bad_row_sum(self):
        dag = Dag(["A"], [], [])
        with pytest.raises(NormalizationError):
            DiscreteScm(dag, {"A": 2}, {"A": [[0.5, 0.4]]})

    def test_bad_shape(self):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(ShapeError):
            DiscreteScm(dag, {"A": 2, "B": 2}, {"A": [[0.5, 0.5]], "B": [[1, 0]]})

    # A NumPy array of the wrong shape was refused as "CPT for B: shape (1, 2), expected (2, 2)".
    @pytest.mark.parametrize(
        "rows,message",
        [([[1, 0]], r"^cpt\.B: expected an array of 2, got \[\[1, 0\]\]$"),
         ([[1, 0, 0], [0, 1, 0]], r"^cpt\.B\[0\]: expected an array of 2, got \[1, 0, 0\]$")],
        ids=["rows", "cells"],
    )
    def test_wrong_shape_has_one_message_in_every_form(self, rows, message):
        dag = Dag(["A", "B"], [("A", "B")], [])
        for given in (rows, np.array(rows)):
            with pytest.raises(ShapeError, match=message):
                DiscreteScm(dag, {"A": 2, "B": 2}, {"A": [[0.5, 0.5]], "B": given})

    def test_non_finite_cpt_rejected(self):
        dag = Dag(["A"], [], [])
        with pytest.raises(ShapeError, match=r"^cpt\.A\[0\]\[0\]: expected a finite number, got nan$"):
            DiscreteScm(dag, {"A": 2}, {"A": [[float("nan"), 1.0]]})

    @pytest.mark.parametrize("row", [[0.0, float("nan")], [float("inf"), 0.0], [float("-inf"), 1.0]])
    def test_nan_or_infinite_cell_rejected(self, row):
        # The reader of a CPT's cells refuses these, as it refuses them in a document.
        dag = Dag(["A"], [], [])
        with pytest.raises(ShapeError, match=r"^cpt\.A\[0\]\[[01]\]: expected a finite number, got -?(nan|inf)$"):
            DiscreteScm(dag, {"A": 2}, {"A": [row]})

    def test_non_finite_cell_of_an_array_named_as_in_a_list(self):
        # A numeric array stays in NumPy; its first non-finite cell gets the list's message.
        dag = Dag(["A", "B"], [("A", "B")], [])
        rows = [[0.5, 0.5], [1.0, math.inf]]
        for given in (rows, np.array(rows), np.array(rows, dtype=np.float32)):
            with pytest.raises(ShapeError, match=r"^cpt\.B\[1\]\[1\]: expected a finite number, got inf$"):
                DiscreteScm(dag, {"A": 2, "B": 2}, {"A": [[0.5, 0.5]], "B": given})

    # Each was accepted as a number, or raised a bare TypeError, or was ignored.
    @pytest.mark.parametrize(
        "cpt_a,parents,error,message",
        [
            ([[True, False]], None, ShapeError, r"^cpt\.A\[0\]\[0\]: expected a finite number, got True$"),
            ([["0.5", "0.5"]], None, ShapeError, r"^cpt\.A\[0\]\[0\]: expected a finite number, got '0\.5'$"),
            ([[0.0, b"1"]], None, ShapeError, r"^cpt\.A\[0\]\[1\]: expected a finite number, got b'1'$"),
            (np.array([[True, False]]), None, ShapeError, r"^cpt\.A\[0\]\[0\]: expected a finite number, got True$"),
            ([[0.5, 0.5]], 5, ParameterError, r"^parents: expected an object, got 5$"),
            ([[0.5, 0.5]], ["B"], ParameterError, r"^parents: expected an object, got \['B'\]$"),
            ([[0.5, 0.5]], {"Z": ["A"]}, UnknownNodeError, r"^unknown node: 'Z'$"),
        ],
        ids=["true", "string", "bytes", "bool-array", "parents-5", "parents-list", "parents-unknown-node"],
    )
    def test_hostile_python_input_refused(self, cpt_a, parents, error, message):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(error, match=message):
            DiscreteScm(dag, {"A": 2, "B": 2}, {"A": cpt_a, "B": [[1, 0], [0, 1]]}, parents=parents)

    def test_ragged_cpt_rejected(self):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(ShapeError):
            DiscreteScm(dag, {"A": 2, "B": 2}, {"A": [[0.5, 0.5]], "B": [[1.0, 0.0], [1.0]]})

    def test_negative_probability(self):
        dag = Dag(["A"], [], [])
        with pytest.raises(NormalizationError):
            DiscreteScm(dag, {"A": 2}, {"A": [[1.2, -0.2]]})

    def test_cardinality_below_two(self):
        dag = Dag(["A"], [], [])
        with pytest.raises(ShapeError):
            DiscreteScm(dag, {"A": 1}, {"A": [[1.0]]})

    # int() read 2.9 and 2.0 as 2, "2" as 2 and True as 1.
    @pytest.mark.parametrize("card", [True, 2.9, 2.0, "2"])
    def test_cardinality_that_is_not_an_integer_refused(self, card):
        dag = Dag(["A", "B"], [("A", "B")], [])
        cpt = {"A": [[0.5, 0.5]], "B": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(ShapeError, match=r"^card\.A: expected an integer >= 2, got "):
            DiscreteScm(dag, {"A": card, "B": 2}, cpt)
        with pytest.raises(ShapeError, match=r"^card\.A: expected an integer >= 2, got "):
            random_scm(dag, 0, card)
        with pytest.raises(ShapeError, match=r"^card\.A: expected an integer >= 2, got "):
            random_scm(dag, 0, {"A": card})

    # NumPy raised ValueError (a negative seed or concentration), TypeError
    # (a fractional seed) or, on a NaN concentration, a RuntimeWarning.
    @pytest.mark.parametrize(
        "args,error,want",
        [
            ((-1,), ValueOutOfRange, "seed: expected an integer >= 0, got -1"),
            ((1.5,), ValueOutOfRange, "seed: expected an integer >= 0, got 1.5"),
            ((0, 2, -1), ParameterError, "concentration: expected a finite number >= 0, got -1"),
            ((0, 2, math.nan), ParameterError, "concentration: expected a finite number >= 0, got nan"),
        ],
        ids=["negative-seed", "fractional-seed", "negative-concentration", "nan-concentration"],
    )
    def test_random_scm_refuses_a_bad_seed_or_concentration(self, args, error, want):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as raised:
                random_scm(dag, *args)
        assert str(raised.value) == want

    def test_random_scm_bounds_each_cpt_before_drawing(self):
        # rng.gamma raised a bare ValueError: Maximum allowed dimension exceeded.
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(StateSpaceTooLarge, match=r"^CPT of A has <\d+-bit integer> cells, over the cap 16777216$"):
            random_scm(dag, 0, 10**5000)
        with pytest.raises(StateSpaceTooLarge, match="^CPT of B has 16777218 cells, over the cap 16777216$"):
            random_scm(dag, 0, {"A": 2, "B": 2**23 + 1})

    def test_random_scm_takes_concentration_zero(self):
        scm = random_scm(Dag(["A"], [], []), 0, 3, 0)
        assert np.allclose(scm.cpt["A"], 1 / 3)

    def test_numpy_integer_cardinality_kept_as_int(self):
        dag = Dag(["A", "B"], [("A", "B")], [])
        scm = DiscreteScm(dag, {"A": np.int64(2), "B": 2}, {"A": [[0.5, 0.5]], "B": [[0.5, 0.5], [0.5, 0.5]]})
        assert type(scm.card["A"]) is int
        assert random_scm(dag, 0, np.int64(3)).card == {"A": 3, "B": 3}

    # The card of a name that is no node was dropped, so a misspelled node
    # silently kept the default of 2.
    @pytest.mark.parametrize("card,name", [({"Z": 3}, "Z"), ({"A": 3, "a": 5}, "a")])
    def test_random_scm_refuses_a_card_of_no_node(self, card, name):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(UnknownNodeError, match=f"^unknown node: '{name}'$"):
            random_scm(dag, 0, card)

    def test_missing_node(self):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(ShapeError):
            DiscreteScm(dag, {"A": 2}, {"A": [[0.5, 0.5]]})

    def test_explicit_parent_order(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")], [])
        base = {"A": [[0.3, 0.7]], "B": [[0.6, 0.4]]}
        rows_ab = [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]]
        rows_ba = [rows_ab[0], rows_ab[2], rows_ab[1], rows_ab[3]]
        m1 = DiscreteScm(dag, {v: 2 for v in "ABC"}, {**base, "C": rows_ab})
        m2 = DiscreteScm(
            dag,
            {v: 2 for v in "ABC"},
            {**base, "C": rows_ba},
            parents={"C": ("B", "A")},
        )
        assert np.allclose(exact_joint(m1).probs, exact_joint(m2).probs)

    def test_transposed_cpt_stored_c_contiguous(self):
        # A plain copy keeps a transposed array's strides, (8, 16) here;
        # each infer that reshapes such a CPT would copy it again.
        rows = np.array([[0.2, 0.3], [0.8, 0.7]]).T
        dag = Dag(["A", "B"], [("A", "B")], [])
        card, cpt_a = {"A": 2, "B": 2}, [[0.4, 0.6]]
        scm = DiscreteScm(dag, card, {"A": cpt_a, "B": rows})
        listed = DiscreteScm(dag, card, {"A": cpt_a, "B": rows.tolist()})
        assert scm.cpt["B"].flags.c_contiguous
        assert np.array_equal(scm.cpt["B"], rows)
        for keep, evidence in (({"B"}, {}), ({"A", "B"}, {}), ({"A"}, {"B": 1})):
            assert np.array_equal(infer(scm, keep, evidence).probs, infer(listed, keep, evidence).probs)

    def test_parent_order_must_match_graph(self):
        dag = Dag(["A", "B"], [("A", "B")], [])
        with pytest.raises(ShapeError):
            DiscreteScm(
                dag,
                {"A": 2, "B": 2},
                {"A": [[0.5, 0.5]], "B": [[1, 0], [0, 1]]},
                parents={"B": ("A", "A")},
            )


class TestExactJoint:
    def test_deterministic_copy(self):
        j = exact_joint(copy_chain())
        assert j.vars == ("A", "B")
        assert np.allclose(j.probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_uniform_chain_quarters(self):
        dag = template("Fig4Chain(1)")
        scm = random_scm(dag, 0)
        cpt = {v: np.full_like(scm.cpt[v], 0.5) for v in dag.nodes}
        uniform = DiscreteScm(dag, {v: 2 for v in dag.nodes}, cpt)
        j = marginal(exact_joint(uniform), {"S_0", "S_1"})
        assert np.allclose(j.probs, 0.25)

    def test_matches_brute_force_on_templates(self):
        for name, dag in TEMPLATE_DAGS.items():
            for seed in range(3):
                scm = random_scm(dag, seed)
                got = exact_joint(scm)
                want = brute_force_joint(scm)
                assert got.vars == want.vars
                assert np.abs(got.probs - want.probs).max() < 1e-12, name

    def test_cpt_recoverable_from_joint(self):
        scm = random_scm(template("Fig2b"), 11)
        j = exact_joint(scm)
        for v in scm.dag.nodes:
            ps = scm.parents_of(v)
            for row, cfg in enumerate(np.ndindex(*(scm.card[p] for p in ps))):
                ev = dict(zip(ps, (int(c) for c in cfg)))
                if ev and mass_of(j, ev) <= 0:
                    continue
                got = marginal(condition(j, ev), {v}).probs if ev else marginal(j, {v}).probs
                assert np.abs(got - scm.cpt[v][row]).max() < 1e-9

    def test_state_space_cap(self):
        dag = Dag([f"N{i}" for i in range(6)], [], [])
        scm = random_scm(dag, 0, card=4)
        with pytest.raises(StateSpaceTooLarge, match="^joint has 4096 cells, over the cap 1000$"):
            exact_joint(scm, max_cells=1000)

    def test_sampling_cross_check(self):
        scm = random_scm(template("Fig2c"), 3)
        j = exact_joint(scm)
        ds = sample(scm, 100_000, seed=5)
        emp = empirical_joint(ds, j.vars)
        tv = 0.5 * float(np.abs(emp.probs - j.probs).sum())
        assert tv < 0.01


class TestJointTable:
    def test_non_finite_mass_rejected(self):
        with pytest.raises(NormalizationError):
            JointTable(("A",), (2,), [float("nan"), 1.0])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ShapeError):
            JointTable(("A", "A"), (2, 2), np.full((2, 2), 0.25))

    # A bare int escaped as TypeError: 'int' object is not iterable; 2.0 was kept as a card.
    @pytest.mark.parametrize(
        "cards,message",
        [(5, r"^cards: expected an array of 1, got 5$"), ((2.0,), r"^cards\[0\]: expected an integer >= 1, got 2\.0$"),
         ((0,), r"^cards\[0\]: expected an integer >= 1, got 0$")],
        ids=["int", "float", "zero"],
    )
    def test_cards_read_as_integers(self, cards, message):
        with pytest.raises(ShapeError, match=message):
            JointTable(("A",), cards, np.array([0.5, 0.5]))

    def test_cards_kept_as_ints(self):
        table = JointTable(("A",), np.array([2]), np.array([0.5, 0.5]))
        assert table.cards == (2,) and type(table.cards[0]) is int

    # Each was accepted as a number; a CPT refuses them too.
    @pytest.mark.parametrize(
        "probs", [[True, False], ["0.5", "0.5"], [b"1", 0], np.array([True, False])],
        ids=["bools", "strings", "bytes", "bool-array"],
    )
    def test_probs_that_are_no_real_numbers_refused(self, probs):
        with pytest.raises(ShapeError, match="^probs: expected finite numbers, got "):
            JointTable(("A",), (2,), probs)

    def test_probs_read_as_numbers_in_any_form(self):
        for probs in ([0.5, 0.5], (Fraction(1, 2), np.float32(0.5)), np.array([1, 1]) / 2):
            assert JointTable(("A",), (2,), probs).probs.tolist() == [0.5, 0.5]
        assert JointTable(("A",), (2,), np.array([0, 1])).probs.tolist() == [0.0, 1.0]

    # NumPy's OverflowError and ValueError escaped from the float cast.
    @pytest.mark.parametrize("probs", [[10**400, 0.5], "ab"])
    def test_probs_that_are_not_numbers_refused(self, probs):
        with pytest.raises(ShapeError, match="^probs: expected finite numbers, got "):
            JointTable(("A",), (2,), probs)

    # Each was accepted; a name set read against such a table then trusted 1 as a name.
    @pytest.mark.parametrize(
        "names,message",
        [([1], r"^vars\[0\]: expected a name, got 1$"), ("A", r"^vars: expected a collection of names, got 'A'$")],
    )
    def test_vars_read_as_names(self, names, message):
        with pytest.raises(ParameterError, match=message):
            JointTable(names, (2,), [0.5, 0.5])

    def test_cpt_entry_past_the_float_range_refused(self):
        with pytest.raises(ShapeError, match=r"^cpt\.A\[0\]\[0\]: expected a finite number, got 10+\.\.\.0+$"):
            DiscreteScm(Dag(["A"], []), {"A": 2}, {"A": [[10**400, 0.5]]})

    def test_empirical_joint_rejects_a_repeated_name(self):
        ds = sample(copy_chain(), 100, seed=1)
        with pytest.raises(ShapeError):
            empirical_joint(ds, ["B", "B"])

    def test_empirical_joint_rejects_no_names(self):
        # It used to fail inside NumPy: "Cannot set flags on array scalars".
        ds = sample(copy_chain(), 100, seed=1)
        with pytest.raises(UnknownVariable):
            empirical_joint(ds, [])

    def test_empirical_joint_rejects_an_unknown_name(self):
        ds = sample(copy_chain(), 100, seed=1)
        with pytest.raises(UnknownVariable, match="'Q'"):
            empirical_joint(ds, ["A", "Q"])

    @pytest.mark.parametrize("width", [25, 64])
    def test_empirical_joint_refuses_a_table_over_the_cap(self, width, monkeypatch):
        # 25 binary columns built 2^25-cell count and probability arrays
        # past the cap of ``infer``; 64 overflowed the int64 codes and
        # raised np.bincount's bare ValueError.  Neither counts now (nor,
        # should the check go, allocates the table in this test).
        names = [f"V{i}" for i in range(width)]
        ds = sample(random_scm(Dag(names, []), 3), 10, seed=1)
        monkeypatch.setattr(scm_module.np, "bincount", None)
        want = f"^frequency table has {2**width} cells, over the cap 16777216$"
        with pytest.raises(StateSpaceTooLarge, match=want):
            empirical_joint(ds, names)

    def test_empirical_joint_shows_a_huge_size_abbreviated(self):
        # Formatting the size raised a bare ValueError past 4,300 digits.
        ds = Dataset(("A",), (10**5000,), [[0]], 0)
        want = r"^frequency table has <16610-bit integer> cells, over the cap 16777216$"
        with pytest.raises(StateSpaceTooLarge, match=want):
            empirical_joint(ds, ["A"])

    def test_dataset_column_rejects_an_unknown_name(self):
        # It used to raise tuple.index's bare ValueError.
        ds = sample(copy_chain(), 10, seed=1)
        assert ds.column("B").tolist() == ds.rows[:, 1].tolist()
        with pytest.raises(UnknownVariable, match="'nope'"):
            ds.column("nope")


class TestInfer:
    def test_intermediate_factor_over_cap(self):
        # X has five root parents: summing any of them out needs a
        # 64-cell factor, although the answer P(X) has two cells.
        parents = [f"P{i}" for i in range(5)]
        dag = Dag([*parents, "X"], [(p, "X") for p in parents], [])
        scm = random_scm(dag, 0)
        assert infer(scm, {"X"}, max_cells=64).cards == (2,)
        with pytest.raises(StateSpaceTooLarge, match="^factor to eliminate P0 has 64 cells, over the cap 63$"):
            infer(scm, {"X"}, max_cells=63)

    def test_result_over_cap(self):
        dag = Dag([f"N{i}" for i in range(6)], [], [])
        scm = random_scm(dag, 0, card=4)
        with pytest.raises(StateSpaceTooLarge, match="^result has 4096 cells, over the cap 1000$"):
            infer(scm, set(dag.nodes), max_cells=1000)

    def test_zero_probability_evidence(self):
        with pytest.raises(ZeroProbabilityEvidence):
            infer(copy_chain(p_a=0.0), {"B"}, {"A": 1})

    def test_bad_queries(self):
        scm = copy_chain()
        for keep, evidence in (((), {}), ({"Z"}, {}), ({"B"}, {"Z": 0}), ({"A"}, {"A": 0})):
            with pytest.raises(UnknownVariable):
                infer(scm, keep, evidence)
        with pytest.raises(ValueOutOfRange):
            infer(scm, {"B"}, {"A": 2})

    def test_more_factors_than_einsum_operands(self):
        # Naive Bayes with 70 observed features: 71 factors over {C} meet
        # in the last product, past einsum's operand limit.
        features = [f"F{i}" for i in range(70)]
        dag = Dag(["C", *features], [("C", f) for f in features], [])
        scm = random_scm(dag, 3)
        evidence = {f: i % 2 for i, f in enumerate(features)}
        got = infer(scm, {"C"}, evidence)
        log_post = np.log(scm.cpt["C"][0])
        for f, val in evidence.items():
            log_post = log_post + np.log(scm.cpt[f][:, val])
        want = np.exp(log_post - log_post.max())
        assert np.abs(got.probs - want / want.sum()).max() < 1e-12


@pytest.fixture(scope="module")
def wide_star():
    """A hidden binary root H with 14,299 binary children: its joint, and
    the bucket of H, have 2**14300 cells, more decimal digits than
    ``str`` of an int writes (4,300)."""
    children = [f"C{i}" for i in range(14_299)]
    dag = Dag(["H", *children], [("H", c) for c in children], ["H"])
    cpt = dict.fromkeys(children, np.full((2, 2), 0.5)) | {"H": np.full((1, 2), 0.5)}
    return DiscreteScm(dag, dict.fromkeys(dag.nodes, 2), cpt)


# Each of the five tables that is checked against the cell cap, and the
# NumPy function that would lay it out, replaced by a stand-in that cannot:
# (call, what, cells, cap, allocator, stand-in).
CAP_REFUSALS = {
    "joint": (lambda star: exact_joint(star), "joint", 2**14300, 1 << 24, "numpy.ones", None),
    "factor": (lambda star: infer(star, set(star.dag.nodes) - {"H"}), "factor to eliminate H", 2**14300, 1 << 24,
               "numpy.einsum", None),
    "result": (lambda star: infer(star, star.dag.nodes, max_cells=10**400), "result", 2**14300, 10**400,
               "numpy.einsum", None),
    "frequency table": (lambda _: empirical_joint(Dataset(("A",), (10**5000,), [[0]], 0), ["A"]),
                        "frequency table", 10**5000, 1 << 24, "numpy.bincount", None),
    "CPT": (lambda _: random_scm(Dag(["A"], []), 0, 10**5000), "CPT of A", 10**5000, 1 << 24,
            "numpy.random.default_rng", lambda seed: types.SimpleNamespace(gamma=None)),
}
# Hostile values of a count parameter: those refused as a cap, then those taken as one.
NOT_CAPS = [True, float("nan"), float("inf"), -10**5000, b"64", "64", [64], None, np.float64(64.0), 1.5, -1, 0]
CAPS = [10**400, np.int64(64), 2**70]
CAP_ENTRIES = [lambda scm, cap: infer(scm, {"Y_f"}, max_cells=cap), lambda scm, cap: exact_joint(scm, max_cells=cap)]


class TestTableRules:
    """One check per table rule: the cell cap and a table's axes."""

    @pytest.mark.parametrize("case", CAP_REFUSALS)
    def test_every_cap_refusal_has_one_shape_before_allocation(self, case, wide_star, monkeypatch):
        # The joint and result sizes raised a bare ValueError past 4,300 digits.
        call, what, cells, cap, allocator, stand_in = CAP_REFUSALS[case]
        monkeypatch.setattr(allocator, stand_in)
        with pytest.raises(StateSpaceTooLarge) as raised:
            call(wide_star)
        assert str(raised.value) == f"{what} has {_shown(cells)} cells, over the cap {_shown(cap)}"
        assert len(str(raised.value)) < 200

    @pytest.mark.parametrize("value", NOT_CAPS, ids=_shown)
    @pytest.mark.parametrize("entry", CAP_ENTRIES, ids=["infer", "exact_joint"])
    def test_max_cells_is_read_as_a_count(self, entry, value):
        # A str, bytes, a list or None escaped as a bare TypeError; a float
        # or a bool was taken as the cap.
        with pytest.raises(ParameterError) as raised:
            entry(confounded_mediation_example(), value)
        shown = _shown(value.item() if isinstance(value, np.generic) else value)  # a NumPy float is read as a float
        assert str(raised.value) == f"max_cells: expected an integer >= 1, got {shown}"
        assert len(str(raised.value)) < 200

    @pytest.mark.parametrize("value", CAPS, ids=_shown)
    @pytest.mark.parametrize("entry", CAP_ENTRIES, ids=["infer", "exact_joint"])
    def test_max_cells_takes_any_count(self, entry, value):
        assert entry(confounded_mediation_example(), value).probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "call,want",
        [
            (lambda: JointTable((), (), np.array(1.0)), "vars: expected one or more distinct names, got ()"),
            (lambda: JointTable(("A", "A"), (2, 2), np.full((2, 2), 0.25)),
             "vars: expected one or more distinct names, got ('A', 'A')"),
            (lambda: JointTable(("A", "B"), (2,), np.full(2, 0.5)), "cards: expected an array of 2, got (2,)"),
            (lambda: Dataset((), (), np.zeros((3, 0), dtype=np.uint8), 0),
             "vars: expected one or more distinct names, got ()"),
            (lambda: Dataset(("A", "A"), (2, 2), [[0, 1]], 0),
             "vars: expected one or more distinct names, got ('A', 'A')"),
            (lambda: DiscreteScm(Dag([], []), {}, {}), "dag.nodes: expected one or more names, got ()"),
            (lambda: random_scm(Dag([], []), 0), "dag.nodes: expected one or more names, got ()"),
        ],
        ids=["table-no-vars", "table-duplicate", "table-cards", "dataset-no-columns", "dataset-duplicate",
             "model-no-nodes", "random-model-no-nodes"],
    )
    def test_a_table_has_one_or_more_distinct_axes(self, call, want):
        # A table or a model with no variables raised a bare ValueError
        # (array scalar flags), and a dataset without columns was kept,
        # so dataset_to_csv raised a bare IndexError and a model without
        # nodes made sample raise a bare ValueError (max() of nothing).
        with pytest.raises(ShapeError) as raised:
            call()
        assert str(raised.value) == want


class TestMarginalCondition:
    def test_marginal_of_independent_pair(self):
        dag = Dag(["A", "B"], [], [])
        scm = DiscreteScm(
            dag, {"A": 2, "B": 2}, {"A": [[0.3, 0.7]], "B": [[0.6, 0.4]]}
        )
        j = exact_joint(scm)
        assert np.allclose(marginal(j, {"A"}).probs, [0.3, 0.7])

    def test_condition_deterministic_copy(self):
        j = exact_joint(copy_chain())
        c = condition(j, {"A": 1})
        assert c.vars == ("B",)
        assert np.allclose(c.probs, [0.0, 1.0])

    def test_zero_probability_evidence(self):
        j = exact_joint(copy_chain(p_a=0.0))
        with pytest.raises(ZeroProbabilityEvidence):
            condition(j, {"A": 1})

    def test_marginal_condition_commute(self):
        scm = random_scm(template("Fig3"), 7)
        j = exact_joint(scm)
        a = marginal(condition(j, {"X_c": 1}), {"Y_f", "Z"})
        b = condition(marginal(j, {"X_c", "Y_f", "Z"}), {"X_c": 1})
        assert np.abs(a.probs - b.probs).max() < 1e-12

    def test_unknown_variable(self):
        j = exact_joint(copy_chain())
        with pytest.raises(UnknownVariable):
            marginal(j, {"Q"})


class TestIntervene:
    def test_truncated_product_formula(self):
        import itertools

        scm = random_scm(template("Fig2c"), 9)
        cut = intervene(scm, {"X_c": 1})
        j = exact_joint(cut)
        pos = {v: i for i, v in enumerate(j.vars)}
        for cfg in itertools.product(*(range(c) for c in j.cards)):
            assign = dict(zip(j.vars, cfg))
            if assign["X_c"] != 1:
                assert j.probs[cfg] == 0.0
                continue
            # drop the intervened factor, clamp its value everywhere
            want = 1.0
            for v in scm.dag.nodes:
                if v == "X_c":
                    continue
                row = 0
                for p in scm.parents_of(v):
                    row = row * scm.card[p] + assign[p]
                want *= scm.cpt[v][row, assign[v]]
            assert abs(j.probs[cfg] - want) < 1e-12

    def test_surgery_differs_from_conditioning_under_confounding(self):
        scm = random_scm(template("Fig2c"), 2, concentration=0.4)
        j = exact_joint(scm)
        do1 = do_distribution(scm, "Y_f", {"X_c": 1})
        cond1 = marginal(condition(j, {"X_c": 1}), {"Y_f"}).probs
        assert np.abs(do1 - cond1).max() > 1e-6

    def test_root_intervention_equals_conditioning(self):
        scm = random_scm(template("Fig1d"), 4)
        do1 = do_distribution(scm, "Y_f", {"Y_h": 1})
        cond1 = marginal(
            condition(exact_joint(scm), {"Y_h": 1}), {"Y_f"}
        ).probs
        assert np.abs(do1 - cond1).max() < 1e-12

    def test_empty_do_unchanged(self):
        scm = copy_chain()
        assert intervene(scm, {}) is scm

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            intervene(copy_chain(), {"A": 2})

    def test_parent_order_preserved_by_surgery(self):
        # Surgery reorders the topological order; CPT rows must keep
        # their original parent interpretation.
        dag = Dag(
            ["A", "B", "C", "Y"],
            [("A", "B"), ("A", "C"), ("B", "Y"), ("C", "Y")],
            [],
        )
        scm = random_scm(dag, 21)
        cut = intervene(scm, {"B": 1})
        assert cut.parents_of("Y") == scm.parents_of("Y")
        j = exact_joint(cut)
        want = brute_force_joint(cut)
        assert np.abs(j.probs - want.probs).max() < 1e-12

    def test_oracle_matches_brute_force_after_surgery(self):
        scm = random_scm(template("Fig6Canonical(2)"), 13)
        cut = intervene(scm, {"D": 1, "J_o": 0})
        got = exact_joint(cut)
        want = brute_force_joint(cut)
        assert np.abs(got.probs - want.probs).max() < 1e-12


def constructed_surgery(scm, rows) -> DiscreteScm:
    """The cut model of ``_surgery(scm, rows)``, built and checked in full
    by the constructor."""
    cpt = {**scm.cpt, **{v: np.reshape(row, (1, -1)) for v, row in rows.items()}}
    parents = {**scm.parents, **dict.fromkeys(rows, ())}
    return DiscreteScm(mutilate(scm.dag, rows.keys()), scm.card, cpt, parents=parents)


def assert_same_model(got: DiscreteScm, want: DiscreteScm) -> None:
    assert (got.dag.nodes, got.dag.edges, got.dag.latent) == (want.dag.nodes, want.dag.edges, want.dag.latent)
    assert got.dag.topological_order == want.dag.topological_order
    assert list(got.card.items()) == list(want.card.items())
    assert list(got.parents.items()) == list(want.parents.items())
    assert list(got.cpt) == list(want.cpt)
    for v, table in want.cpt.items():
        assert got.cpt[v].dtype == table.dtype and np.array_equal(got.cpt[v], table), v
        assert not got.cpt[v].flags.writeable, v


class TestSurgeryChecksOnce:
    """Surgery keeps the model's checked tables and checks only the new
    root rows, yet gives the model, and the errors, of a full
    construction."""

    @pytest.mark.parametrize("name", sorted(TEMPLATE_DAGS))
    def test_intervene_equals_a_constructed_model(self, name):
        dag = TEMPLATE_DAGS[name]
        scm = random_scm(dag, 5, card=3)
        for v in dag.nodes:
            assert_same_model(intervene(scm, {v: 2}), constructed_surgery(scm, {v: np.eye(3)[2]}))
        pinned = dict.fromkeys(dag.nodes, 1)
        rows = dict.fromkeys(dag.nodes, np.eye(3)[1])
        assert_same_model(intervene(scm, pinned), constructed_surgery(scm, rows))

    def test_oracle_cut_equals_a_constructed_model(self, monkeypatch):
        from causalrating import EffectQuery, build_scenario, default_scenario, identify_effect
        from causalrating import identify

        cuts = []

        def spy(scm, rows, real=identify._surgery):
            cuts.append((scm, rows, real(scm, rows)))
            return cuts[-1][2]

        monkeypatch.setattr(identify, "_surgery", spy)
        scm = build_scenario(default_scenario())
        identify_effect(scm, EffectQuery("Y_f", {"J_o", "D"}), "oracle")
        assert len(cuts) == 1
        model, rows, cut = cuts[0]
        assert model is scm and sorted(rows) == ["D", "J_o"]
        assert_same_model(cut, constructed_surgery(scm, rows))
        # The tables the cut keeps are the model's own, shared, not copies.
        assert all(cut.cpt[v] is scm.cpt[v] for v in scm.dag.nodes if v not in rows)

    @pytest.mark.parametrize(
        "row",
        [[1.0, 0.0, 0.0], [0.5], [-0.5, 1.5], [float("nan"), 1.0], [0.3, 0.3], [0.8, 0.3]],
        ids=["too-long", "too-short", "negative", "nan", "sum-below-1", "sum-above-1"],
    )
    def test_bad_root_row_raises_as_the_constructor_does(self, row):
        scm = random_scm(template("Fig2c"), 3)
        with pytest.raises((ShapeError, NormalizationError)) as built:
            constructed_surgery(scm, {"X_c": row})
        with pytest.raises((ShapeError, NormalizationError)) as cut:
            _surgery(scm, {"X_c": row})
        assert (type(cut.value), str(cut.value)) == (type(built.value), str(built.value))


def with_fault(data, t: np.ndarray, kind: str) -> np.ndarray:
    """A copy of the CPT ``t`` with one fault of ``kind`` at a drawn cell or row."""
    t = t.copy()
    r, c = data.draw(st.integers(0, len(t) - 1), label="row"), data.draw(st.integers(0, t.shape[1] - 1), label="cell")
    if kind == "nan":
        t[r, c] = np.nan
    elif kind == "negative":
        t[r, c] = -data.draw(st.sampled_from([1e-300, 1e-9, 0.25]), label="below zero")
    elif kind == "sum":  # off by 2e-9: past ROW_SUM_TOL
        t[r, c] += 2e-9
    elif kind == "rows":
        t = np.vstack([t, t[-1:]]) if len(t) == 1 or data.draw(st.booleans(), label="extra row") else t[:-1]
    else:  # "width"
        t = np.hstack([t, np.zeros((len(t), 1))]) if data.draw(st.booleans(), label="wider") else t[:, :-1]
    return t


def first_fault(dag, card, cpt, parents) -> tuple:
    """The type and message of the first fault that :func:`_checked_cpt`
    finds node by node in ``dag.nodes`` order."""
    for v in dag.nodes:
        try:
            _checked_cpt(v, cpt[v], card, parents[v])
        except (ShapeError, NormalizationError) as e:
            return type(e), str(e)
    raise AssertionError("no node has a fault")


def spy_checked_cpt(monkeypatch) -> list:
    calls, real = [], scm_module._checked_cpt
    monkeypatch.setattr(scm_module, "_checked_cpt", lambda *args: calls.append(args[0]) or real(*args))
    return calls


class TestCptCheckedOncePerCardinality:
    """The constructor checks a model's CPT values once per cardinality, on
    that group's tables joined, and falls back to :func:`_checked_cpt` node
    by node only to name the first fault, which it names as before."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_fault_is_named_as_node_by_node(self, data):
        dag = random_dag(data.draw(st.integers(0, 10_000), label="dag seed"), data.draw(st.integers(2, 6), label="nodes"))
        dag = Dag(data.draw(st.permutations(dag.nodes), label="node order"), dag.edges, [])
        scm = random_scm(dag, 3, card={v: data.draw(st.integers(2, 4), label=f"card {v}") for v in dag.nodes})
        cpt = dict(scm.cpt)
        faulty = data.draw(st.lists(st.sampled_from(dag.nodes), min_size=1, max_size=2, unique=True), label="faulty")
        for v in faulty:
            cpt[v] = with_fault(data, cpt[v], data.draw(st.sampled_from(["nan", "negative", "sum", "rows", "width"]), label=v))
        if data.draw(st.booleans(), label="as lists"):  # read by _read, where a NaN is a misread
            cpt = {v: t.tolist() for v, t in cpt.items()}
        want = first_fault(dag, scm.card, cpt, scm.parents)
        with pytest.raises((ShapeError, NormalizationError)) as got:
            DiscreteScm(dag, scm.card, cpt, scm.parents)
        assert (type(got.value), str(got.value)) == want

    @pytest.mark.parametrize("value", ["nan", "negative", "sum"])
    @pytest.mark.parametrize("shape", ["rows", "width"])
    def test_a_shape_fault_after_a_value_fault(self, value, shape):
        # The last node's shape fault stops the grouped pass as its table is
        # read; node by node, the first node's value fault is found first.
        dag = template("Fig2c")
        scm = random_scm(dag, 4, card=3)
        first, last = dag.nodes[0], dag.nodes[-1]
        cpt = dict(scm.cpt)
        t = cpt[first].copy()
        t[0, 0] = {"nan": np.nan, "negative": -0.25, "sum": t[0, 0] + 2e-9}[value]
        cpt[first] = t
        cpt[last] = np.vstack([cpt[last], cpt[last][:1]]) if shape == "rows" else cpt[last][:, :-1]
        with pytest.raises((ShapeError, NormalizationError)) as got:
            DiscreteScm(dag, scm.card, cpt, scm.parents)
        assert (type(got.value), str(got.value)) == first_fault(dag, scm.card, cpt, scm.parents)
        assert f" {first}" in str(got.value) or f".{first}" in str(got.value)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(1, 6), card=st.integers(2, 4))
    def test_a_valid_model_makes_no_node_by_node_check(self, seed, n_nodes, card):
        # Zero cells sit on the range check's bound: a `>` there sends a
        # valid model down the node-by-node path.
        with pytest.MonkeyPatch.context() as m:
            calls = spy_checked_cpt(m)
            scm = sparse_scm(random_dag(seed, n_nodes), seed, card={f"N{i}": card + i % 2 for i in range(n_nodes)})
            assert calls == []
        for v in scm.dag.nodes:
            want = _checked_cpt(v, scm.cpt[v], scm.card, scm.parents[v])
            assert np.array_equal(scm.cpt[v], want) and scm.cpt[v].flags.c_contiguous
            assert not scm.cpt[v].flags.writeable

    def test_the_scenario_model_makes_no_node_by_node_check(self, monkeypatch):
        from causalrating import build_scenario, canonical_scenario, default_scenario

        calls = spy_checked_cpt(monkeypatch)
        for s in (default_scenario(), canonical_scenario(8)):
            build_scenario(s)
        assert calls == []


# A bool, a non-integer or an out-of-range value: no value of a binary
# variable.  Before one check served every assignment, 1.5 and 0.5 were
# truncated to 1 and 0 and NaN raised a bare ValueError.
NOT_VALUES = [True, False, np.True_, 1.5, 0.5, 1.0, float("nan"), "1", None, -1, 2]


class TestAssignmentValues:
    @pytest.mark.parametrize("val", NOT_VALUES, ids=repr)
    def test_infer_evidence(self, val):
        with pytest.raises(ValueOutOfRange, match=r"^X_c=.* out of range 0\.\.1$"):
            infer(confounded_mediation_example(), {"Y_f"}, {"X_c": val})

    @pytest.mark.parametrize("val", NOT_VALUES, ids=repr)
    def test_condition(self, val):
        j = exact_joint(confounded_mediation_example())
        with pytest.raises(ValueOutOfRange, match=r"^X_c=.* out of range 0\.\.1$"):
            condition(j, {"X_c": val})

    @pytest.mark.parametrize("val", NOT_VALUES, ids=repr)
    def test_intervene(self, val):
        with pytest.raises(ValueOutOfRange, match=r"^X_c=.* out of range 0\.\.1$"):
            intervene(confounded_mediation_example(), {"X_c": val})

    def test_numpy_integers_are_values(self):
        scm = confounded_mediation_example()
        one = np.int64(1)
        assert np.array_equal(infer(scm, {"Y_f"}, {"X_c": one}).probs, infer(scm, {"Y_f"}, {"X_c": 1}).probs)
        j = exact_joint(scm)
        assert np.array_equal(condition(j, {"X_c": np.uint8(1)}).probs, condition(j, {"X_c": 1}).probs)
        assert np.array_equal(intervene(scm, {"X_c": one}).cpt["X_c"], [[0.0, 1.0]])


class TestSampling:
    def test_dataset_rejects_duplicate_names(self):
        with pytest.raises(ShapeError):
            Dataset(("A", "A"), (2, 2), np.zeros((3, 2), dtype=np.int64), 0)

    def test_determinism(self):
        scm = random_scm(template("Fig2c"), 1)
        a = sample(scm, 1000, seed=7)
        b = sample(scm, 1000, seed=7)
        assert np.array_equal(a.rows, b.rows)

    def test_seed_changes_output(self):
        scm = random_scm(template("Fig2c"), 1)
        a = sample(scm, 1000, seed=7)
        b = sample(scm, 1000, seed=8)
        assert not np.array_equal(a.rows, b.rows)

    def test_zero_is_a_valid_seed(self):
        scm = copy_chain()
        ds = sample(scm, 10, seed=0)
        assert len(ds) == 10

    def test_deterministic_copy_rows_equal(self):
        ds = sample(copy_chain(), 500, seed=3)
        assert np.array_equal(ds.column("A"), ds.column("B"))

    def test_known_stream_values(self):
        # Golden values pin the documented counter-based generator so a
        # change in the stream is caught as a cross-platform break.
        got = uniforms(42, np.arange(4, dtype=np.uint64), 0)
        want = [0.38697428, 0.5771258, 0.02546179, 0.17529561]
        assert np.abs(got - want).max() < 1e-8
        got = uniforms(0, np.arange(2, dtype=np.uint64), 3)
        assert np.abs(got - [0.32116735, 0.03890183]).max() < 1e-8

    def test_empirical_convergence(self):
        scm = random_scm(template("Fig1d"), 6)
        j = exact_joint(scm)
        emp = empirical_joint(sample(scm, 100_000, seed=11), j.vars)
        assert 0.5 * np.abs(emp.probs - j.probs).sum() < 0.01

    def test_n_must_be_positive(self):
        with pytest.raises(ValueOutOfRange):
            sample(copy_chain(), 0, seed=1)

    def test_csv_header_and_rows(self):
        ds = sample(copy_chain(), 3, seed=2)
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "A,B"
        assert len(lines) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        dag_seed=st.integers(0, 10_000),
        n_nodes=st.integers(1, 5),
        card=st.integers(2, 12),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 300),
    )
    def test_matches_reference_sampler(self, dag_seed, n_nodes, card, seed, n):
        scm = random_scm(random_dag(dag_seed, n_nodes), dag_seed, card=card, concentration=0.3)
        assert np.array_equal(sample(scm, n, seed).rows, reference_sample_rows(scm, n, seed))

    @settings(max_examples=60, deadline=None)
    @given(
        dag_seed=st.integers(0, 10_000),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 500),
        k=st.integers(1, 300),
    )
    def test_block_equals_slice_of_one_draw(self, dag_seed, seed, start, k):
        scm = random_scm(random_dag(dag_seed, 4), dag_seed, card=3)
        block = sample(scm, k, seed, start=start)
        assert np.array_equal(block.rows, sample(scm, start + k, seed).rows[start:])

    @settings(max_examples=80, deadline=None)
    @given(
        dag_seed=st.integers(0, 10_000),
        cards=st.lists(st.integers(2, 12), min_size=1, max_size=5),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 500),
        n=st.integers(1, 200),
        block=st.sampled_from([1, 1000]) | st.integers(1, 50).map(lambda k: 2 * k + 1),
    )
    def test_csv_written_block_by_block_matches_reference(self, dag_seed, cards, seed, start, n, block):
        # One sampler and one line buffer serve every block, as in simulate;
        # cards of 11 and 12 lay a column out as wide as its block's largest value.
        dag = random_dag(dag_seed, len(cards))
        scm = random_scm(dag, dag_seed, card=dict(zip(dag.nodes, cards)), concentration=0.3)
        order = dag.topological_order
        want = reference_sample_rows(scm, start + n, seed)[start:]
        got, text = io.BytesIO(), io.StringIO()
        with mock.patch.object(scm_module, "BLOCK_ROWS", block):
            kept = sample(scm, n, seed, start=start)
            sampler = _Sampler(scm)
            write = _csv_writer(got.write, order, sampler.cards)
            for rows in sampler.blocks(seed, start, n, sampler.rows):
                write(rows)
            sample(scm, n, seed ^ 1, start=start)
            dataset_to_csv(kept, text)
        assert got.getvalue() == text.getvalue().encode() == csv_writer_bytes(want, order)
        assert np.array_equal(kept.rows, want)  # a later draw leaves a returned sample alone

    def test_numpy_seed_is_read_as_an_int(self):
        # A NumPy seed past int64 once overflowed int64 in the seed's hash.
        top = 2**64 - 1
        assert np.array_equal(sample(copy_chain(), 3, np.uint64(top)).rows, sample(copy_chain(), 3, top).rows)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(0, 2**64 - 1), b=st.integers(0, 2**64 - 1), start=st.integers(0, 2**64 - 8))
    def test_each_seed_is_its_own_stream(self, a, b, start):
        # splitmix64's mix is a bijection of 64-bit words, so at any one row
        # two seeds share a row key only if they are the same seed.
        assume(a != b)
        rows = np.arange(8, dtype=np.uint64) + np.uint64(start)
        keys = [_row_keys(s, rows.copy(), np.empty_like(rows)) for s in (a, b)]
        assert not (keys[0] == keys[1]).any()

    @pytest.mark.parametrize("n,start", [(3, 2**64 - 2), (1, 2**64), (3, 2**70)])
    def test_rows_must_fit_the_row_counter(self, n, start):
        # 2**64 - 2 wrapped: its third row drew row 0's values.  2**64
        # raised a bare OverflowError.
        with pytest.raises(ValueOutOfRange) as raised:
            sample(copy_chain(), n, 1, start=start)
        assert str(raised.value) == f"start: expected an integer <= {2**64 - n} (2**64 - n), got {start}"

    def test_the_last_row_of_the_counter_is_drawn(self):
        top = sample(copy_chain(), 3, 1, start=2**64 - 3)
        assert np.array_equal(top.rows[2:], sample(copy_chain(), 1, 1, start=2**64 - 1).rows)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueOutOfRange):
            sample(copy_chain(), 5, seed=1, start=-1)

    @pytest.mark.parametrize(
        "n,seed,start,name",
        [
            (3, 1, 1.5, "start"),  # read as rows 1..3
            (3, 1, True, "start"),  # read as 1
            (3, True, 0, "seed"),
            (3.0, 1, 0, "n"),
            (3, 1.5, 0, "seed"),
            (True, 1, 0, "n"),
        ],
    )
    def test_counters_must_be_integers(self, n, seed, start, name):
        with pytest.raises(ValueOutOfRange, match=rf"^{name}: expected an integer( >= \d)?, got "):
            sample(copy_chain(), n, seed, start=start)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_threshold_ties_match_reference_sampler(self, step):
        # The sampler compares integer draws with integer thresholds; a
        # threshold at a drawn uniform, or one float step off it, must
        # sample what the float comparison of the reference samples.
        n, seed, row = 50, 17, 7
        u_a, u_b = (uniforms(seed, np.arange(n, dtype=np.uint64), k)[row] for k in (0, 1))
        p_a, p_b = (float(np.nextafter(u, u + step)) if step else float(u) for u in (u_a, u_b))
        dag = Dag(["A", "B"], [("A", "B")], [])
        scm = DiscreteScm(dag, {"A": 2, "B": 2}, {"A": [[p_a, 1 - p_a]], "B": [[p_b, 1 - p_b]] * 2})
        rows = sample(scm, n, seed).rows
        assert np.array_equal(rows, reference_sample_rows(scm, n, seed))
        assert rows[row].tolist() == ([0, 0] if step > 0 else [1, 1])

    @pytest.mark.parametrize("card,dtype", [(2, np.uint8), (256, np.uint8), (257, np.int64)])
    def test_rows_dtype_is_the_narrowest_that_holds_every_card(self, card, dtype):
        dag = Dag(["A", "B"], [("A", "B")], [])
        ds = sample(random_scm(dag, 3, card={"A": card}), 20, seed=4)
        assert ds.rows.dtype == dtype

    def test_dataset_keeps_an_integer_dtype(self):
        given = np.array([[2], [0]], dtype=np.uint8)
        narrow = Dataset(("A",), (3,), given, 0)
        assert narrow.rows.dtype == np.uint8
        assert given.flags.writeable and not narrow.rows.flags.writeable
        for rows in ([[2], [0]], np.array([[2.0], [0.0]])):
            assert Dataset(("A",), (3,), rows, 0).rows.dtype == np.int64
        with pytest.raises(ValueOutOfRange):
            Dataset(("A",), (3,), np.array([[3]], dtype=np.uint8), 0)

    @pytest.mark.parametrize(
        "rows,column",
        [
            ([[0.0, 1.0], [1.0, 1.7]], "B"),
            ([["1", "0"]], "A"),
            ([[0.0, float("nan")]], "B"),
            ([[float("inf"), 0.0]], "A"),
            (np.array([[False, True]]), "A"),
        ],
    )
    def test_dataset_refuses_a_value_that_is_not_an_integer(self, rows, column):
        # 1.7 was stored as 1, "1" as 1, and NaN as an int64 cast's
        # garbage after a RuntimeWarning.
        with pytest.raises(ValueOutOfRange, match=f"^column {column} holds a value that is not an integer$"):
            Dataset(("A", "B"), (2, 3), rows, 0)

    @pytest.mark.parametrize("value", [3.0, -1.0, 1e30, 10**30])
    def test_dataset_refuses_an_integer_value_out_of_range(self, value):
        # An exact integer past int64 is clipped before the cast, so it
        # cannot wrap into range.
        with pytest.raises(ValueOutOfRange, match="^column A exceeds cardinality 3$"):
            Dataset(("A",), (3,), [[value]], 0)

    @pytest.mark.parametrize("cards", [(2,), (2, 2, 2)])
    def test_dataset_refuses_a_card_count_unlike_its_columns(self, cards):
        # One card too few went unchecked; one too many raised IndexError.
        with pytest.raises(ShapeError) as raised:
            Dataset(("A", "B"), cards, np.zeros((3, 2), dtype=np.uint8), 0)
        assert str(raised.value) == f"cards: expected an array of 2, got {cards}"

    @pytest.mark.parametrize(
        "cards,want",
        [((2.5,), "cards[0]: expected an integer >= 1, got 2.5"), ((0,), "cards[0]: expected an integer >= 1, got 0")],
        ids=["fractional", "zero"],
    )
    def test_dataset_reads_its_cards(self, cards, want):
        # Both were accepted: a card was never read as an integer.
        with pytest.raises(ShapeError) as raised:
            Dataset(("A",), cards, [[0]], 0)
        assert str(raised.value) == want

    def test_dataset_takes_a_card_past_int64(self):
        # np.clip to max(cards) raised a bare OverflowError.
        assert Dataset(("A",), (10**5000,), [[0.0]], 0).rows.tolist() == [[0]]
        with pytest.raises(ValueOutOfRange, match="^column A exceeds cardinality 3$"):
            Dataset(("A", "B"), (3, 10**5000), [[1e30, 0.0]], 0)
        with pytest.raises(ValueOutOfRange, match=r"^column A exceeds cardinality <16610-bit integer>$"):
            Dataset(("A",), (10**5000,), [[-1.0]], 0)

    @pytest.mark.parametrize(
        "card,value,want",
        [
            (10**5000, 1e30, "column A holds a value past int64"),
            (2**64, 2.0**63, "column A holds a value past int64"),
            (2**63, 2.0**63 + 4096, "column A exceeds cardinality 9223372036854775808"),
        ],
        ids=["1e30", "2**63", "past the card"],
    )
    def test_dataset_refuses_a_value_int64_cannot_hold(self, card, value, want):
        # Each value was clipped to 2**63 - 1024 before the cast and stored as that.
        with pytest.raises(ValueOutOfRange) as raised:
            Dataset(("A",), (card,), [[value]], 0)
        assert str(raised.value) == want

    def test_dataset_reads_its_vars(self):
        with pytest.raises(ParameterError, match="^vars: expected a collection of names, got 'AB'$"):
            Dataset("AB", (2, 2), [[0, 0]], 0)

    def test_rows_past_the_array_size_refused_before_allocating(self):
        # np.empty raised a bare ValueError: Maximum allowed dimension exceeded.
        with pytest.raises(ValueOutOfRange, match=r"^n: \d+ rows of 2 columns are past NumPy's array size$"):
            sample(copy_chain(), 2**70, 1)

    def test_card_300_takes_the_int64_path(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], [])
        scm = random_scm(dag, 8, card={"B": 300})
        ds = sample(scm, 2000, seed=5)
        assert ds.rows.dtype == np.int64 and ds.column("B").max() >= 100
        assert np.array_equal(ds.rows, reference_sample_rows(scm, 2000, 5))
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        assert buf.getvalue().encode() == csv_writer_bytes(ds.rows, ds.vars)


def parent_code_case(case: str, child_card: int) -> DiscreteScm:
    """A model whose node C (and F) has the parents that ``case`` names."""
    if case == "eight binary parents":
        parents, cards = [f"P{i}" for i in range(8)], {}
    elif case == "nine binary parents":
        parents, cards = [f"P{i}" for i in range(9)], {}
    elif case == "a 16x16 pair":
        parents, cards = ["A", "B"], {"A": 16, "B": 16}
    elif case == "one parent":
        parents, cards = ["A"], {"A": 5}
    else:  # int64 rows: a card-257 parent, and a small pair coded from int64 rows
        parents, cards = ["A", "B"], {"A": 257, "E": 3}
    edges = [(p, "C") for p in parents]
    if case == "a card-257 parent":
        edges += [("B", "F"), ("E", "F")]
        cards["F"] = child_card
    nodes = sorted({u for e in edges for u in e})
    return random_scm(Dag(nodes, edges), 7, card={**cards, "C": child_card}, concentration=0.3)


class TestParentCodes:
    @pytest.mark.parametrize("child_card", [2, 3])
    @pytest.mark.parametrize(
        "case,codes",
        [
            ("eight binary parents", {"C": np.uint8}),  # 256 parent configurations
            ("nine binary parents", {"C": np.uint16}),  # 512
            ("a 16x16 pair", {"C": np.uint8}),  # 256, a radix of 16
            ("one parent", {}),  # the parent's column is widened as it is
            ("a card-257 parent", {"C": np.uint16, "F": np.uint8}),  # 514 and 6, from int64 rows
        ],
    )
    def test_matches_reference_sampler_and_csv_writer(self, case, codes, child_card):
        scm = parent_code_case(case, child_card)
        n, seed = 700, 29
        want = reference_sample_rows(scm, n, seed)
        got, text = io.BytesIO(), io.StringIO()
        with mock.patch.object(scm_module, "BLOCK_ROWS", 64):  # 11 blocks
            sampler = _Sampler(scm)
            ds = sampler.dataset(seed, 0, n)
            dataset_to_csv(ds, text)
            write = _csv_writer(got.write, sampler.order, sampler.cards)
            for rows in sampler.blocks(seed, 0, n, sampler.rows):
                write(rows)
        assert np.array_equal(ds.rows, want)
        assert got.getvalue() == text.getvalue().encode() == csv_writer_bytes(want, sampler.order)
        assert ds.rows.dtype == (np.int64 if case == "a card-257 parent" else np.uint8)
        assert {sampler.order[k]: code.dtype for k, _, code, _ in sampler.nodes if code is not None} == codes


@st.composite
def int_matrices(draw):
    """Non-negative int64 matrices, each column below a cardinality of
    2..1500, or uint8 ones with cardinalities of 2..256; either kind with
    cardinalities of at most 10 half the time, so every value has one digit."""
    dtype, top = draw(st.sampled_from([(np.int64, 1500), (np.uint8, 256)]))
    top = draw(st.sampled_from([10, top]))
    cards = draw(st.lists(st.integers(2, top), min_size=1, max_size=6))
    n = draw(st.integers(0, 40))
    cols = [draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)) for c in cards]
    return np.array(cols, dtype=dtype).T.copy(order=draw(st.sampled_from("CF")))


def csv_bytes(rows: np.ndarray, header: tuple = ()) -> bytes:
    """What the CSV writer writes for ``header`` and ``rows`` (one block), every
    column declared a card over 10; with no header, the lines alone."""
    buf = io.BytesIO()
    _csv_writer(buf.write, header or tuple(f"V{i}" for i in range(rows.shape[1])), (11,) * rows.shape[1])(rows)
    return buf.getvalue() if header else buf.getvalue().partition(b"\n")[2]


class TestCsvFormatter:
    @settings(max_examples=200, deadline=None)
    @given(rows=int_matrices(), with_header=st.booleans())
    def test_matches_csv_writer(self, rows, with_header):
        header = tuple(f"V{i}" for i in range(rows.shape[1])) if with_header else ()
        assert csv_bytes(rows, header) == csv_writer_bytes(rows, header)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_writer_reused_across_blocks_matches_csv_writer(self, data):
        # A card of at most 10 is one digit wide, any card of 11 or more as wide
        # as its block's largest value; the buffer holds 8 rows and each block up to 8.
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.int64]), label="dtype")
        top = data.draw(st.sampled_from([10, 11, 256 if dtype == np.uint8 else 1500]), label="top")
        cards = data.draw(st.lists(st.integers(2, top), min_size=1, max_size=6), label="cards")
        order = data.draw(st.sampled_from("CF"), label="order")
        header = tuple(f"V{i}" for i in range(len(cards)))
        got, blocks = io.BytesIO(), []
        with mock.patch.object(scm_module, "BLOCK_ROWS", 8):
            write = _csv_writer(got.write, header, tuple(cards))
        for size in data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=10), label="sizes"):
            cols = [data.draw(st.lists(st.integers(0, c - 1), min_size=size, max_size=size)) for c in cards]
            blocks.append(np.array(cols, dtype=dtype).reshape(len(cards), size).T.copy(order=order))
            write(blocks[-1])
        assert got.getvalue() == csv_writer_bytes(np.concatenate(blocks), header)

    @pytest.mark.parametrize(
        "dtype,card,blocks",
        [
            # The layout changes with each block's largest value.
            (np.int64, 1500, [[5, 0, 3], [1499, 7, 12], [0, 0], [10, 9, 1]]),
            # Card 11 with one-digit values stays one digit wide, then widens for 10.
            (np.uint8, 11, [[9, 0, 4, 1, 7, 2, 3, 8], [10, 0, 9]]),
            # An empty block writes nothing and leaves the layout alone.
            (np.int64, 1500, [[12, 3], [], [5], [], [999, 1000]]),
            (np.uint64, 2**64, [[2**64 - 1, 0, 10**19], [7], [2**63, 10**19 - 1]]),
        ],
    )
    def test_one_writer_across_block_layouts(self, dtype, card, blocks):
        blocks = [np.array([[v, v % 11] for v in b], dtype=dtype).reshape(len(b), 2) for b in blocks]
        got = io.BytesIO()
        with mock.patch.object(scm_module, "BLOCK_ROWS", 8):
            write = _csv_writer(got.write, ("A", "B"), (card, 11))
        for rows in blocks:
            write(rows)
        assert got.getvalue() == csv_writer_bytes(np.concatenate(blocks), ("A", "B"))

    def test_powers_of_ten(self):
        rows = np.array([[0, 9, 10], [99, 100, 1499], [1000, 1, 0]], dtype=np.int64)
        assert csv_bytes(rows) == b"0,9,10\n99,100,1499\n1000,1,0\n"

    def test_dataset_to_csv_file_matches_text(self, tmp_path):
        ds = sample(random_scm(template("Fig2c"), 4, card=11), 500, seed=9)
        dataset_to_csv(ds, tmp_path / "d.csv")
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        data = (tmp_path / "d.csv").read_bytes()
        assert data == buf.getvalue().encode() == csv_writer_bytes(ds.rows, ds.vars)

    def test_dataset_without_rows_writes_its_header_only(self, tmp_path):
        ds = Dataset(("A", "B"), (2, 3), np.empty((0, 2), dtype=np.uint8), 0)
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        dataset_to_csv(ds, tmp_path / "d.csv")
        assert buf.getvalue() == "A,B\n"
        assert (tmp_path / "d.csv").read_bytes() == b"A,B\n"


class TestRangeCheck:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_names_the_first_bad_column_as_one_column_at_a_time(self, data):
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.int8, np.int64]), label="dtype")
        cards = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=5), label="cards")
        n = data.draw(st.integers(0, 20), label="n")
        cols = [data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)) for c in cards]
        rows = np.array(cols, dtype=dtype).reshape(len(cards), n).T.copy(order=data.draw(st.sampled_from("CF")))
        low = -3 if np.dtype(dtype).kind == "i" else 0
        for _ in range(data.draw(st.integers(0, 3), label="bad cells") if n else 0):
            k = data.draw(st.integers(0, len(cards) - 1))
            bad = st.integers(cards[k], 20) | st.integers(low, -1) if low else st.integers(cards[k], 20)
            rows[data.draw(st.integers(0, n - 1)), k] = data.draw(bad)
        names = tuple(f"V{i}" for i in range(len(cards)))
        want = reference_check_range(names, cards, rows)
        if want is None:
            _check_range(names, cards, rows)
        else:
            with pytest.raises(ValueOutOfRange, match=f"^{want}$"):
                _check_range(names, cards, rows)

    def test_negative_value_of_a_signed_dtype_named_before_a_later_column(self):
        rows = np.array([[0, -1, 5], [1, 0, 0]], dtype=np.int8)
        with pytest.raises(ValueOutOfRange, match="^column B exceeds cardinality 2$"):
            _check_range(("A", "B", "C"), (2, 2, 3), rows)


class TestJson:
    def test_round_trip(self):
        scm = random_scm(template("Fig3"), 14)
        doc = json.loads(json.dumps(scm_to_json(scm)))
        back = scm_from_json(doc)
        assert np.abs(
            exact_joint(back).probs - exact_joint(scm).probs
        ).max() == 0.0

    def test_round_trip_preserves_custom_parent_order(self):
        scm = random_scm(template("Fig6Canonical(1)"), 15)
        cut = intervene(scm, {"D": 1})
        doc = json.loads(json.dumps(scm_to_json(cut)))
        back = scm_from_json(doc)
        assert back.parents_of("Y_f") == cut.parents_of("Y_f")
        assert np.abs(
            exact_joint(back).probs - exact_joint(cut).probs
        ).max() == 0.0

    def test_round_trip_when_sorted_edges_reorder_ties(self):
        # Listed in this order, N3 precedes N2 in the topological order, so
        # N5's CPT rows run over (N3, N2); the graph rebuilt from sorted
        # edges puts N2 first.
        dag = Dag(
            [f"N{i}" for i in range(6)],
            [("N0", "N3"), ("N0", "N2"), ("N0", "N4"), ("N3", "N5"), ("N2", "N5")],
        )
        scm = random_scm(dag, 0)
        assert scm.parents_of("N5") == ("N3", "N2")
        back = scm_from_json(json.loads(json.dumps(scm_to_json(scm))))
        assert back.parents_of("N5") == ("N3", "N2")
        want, got = infer(scm, set(dag.nodes)), infer(back, set(dag.nodes))
        assert np.abs(got.probs.transpose([got.vars.index(v) for v in want.vars]) - want.probs).max() < 1e-15

    def test_malformed_document(self):
        with pytest.raises(ShapeError):
            scm_from_json({"card": {}})

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reader_accepts_what_the_writer_emits(self, data):
        dag = TEMPLATE_DAGS[data.draw(st.sampled_from(sorted(TEMPLATE_DAGS)), label="dag")]
        card = {v: data.draw(st.integers(2, 3), label=f"card {v}") for v in dag.nodes}
        scm = random_scm(dag, data.draw(st.integers(0, 10_000), label="seed"), card=card)
        # Surgery keeps each node's row order, which the rebuilt graph may
        # not share, so the writer emits a custom parent order.
        cut = data.draw(st.lists(st.sampled_from(dag.nodes), unique=True, max_size=2), label="do")
        scm = intervene(scm, {v: card[v] - 1 for v in cut})
        doc = scm_to_json(scm)
        back = scm_from_json(json.loads(json.dumps(doc)))
        assert (back.dag, back.card, back.parents) == (scm.dag, scm.card, scm.parents)
        assert all(np.array_equal(back.cpt[v], scm.cpt[v]) for v in dag.nodes)
        assert scm_to_json(back) == doc


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_joint_normalized_on_random_models(seed):
    scm = random_scm(TEMPLATE_DAGS["Fig3"], seed)
    j = exact_joint(scm)
    assert abs(float(j.probs.sum()) - 1.0) < 1e-9
    assert float(j.probs.min()) >= 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_infer_matches_dense_oracle(data):
    """Variable elimination equals the dense joint on random models, with
    and without surgery, including zero-mass evidence on a pinned node."""
    n = data.draw(st.integers(1, 7))
    dag = random_dag(data.draw(st.integers(0, 10_000)), n)
    cards = {v: data.draw(st.integers(2, 3)) for v in dag.nodes}
    scm = random_scm(dag, data.draw(st.integers(0, 10_000)), card=cards)
    # Each node is kept, observed, intervened on, intervened on and
    # observed, or summed out.
    roles = dict(zip(dag.nodes, data.draw(st.lists(st.sampled_from("keodx"), min_size=n, max_size=n))))
    keep = {v for v, r in roles.items() if r == "k"}
    assume(keep)

    def value(v):
        return data.draw(st.integers(0, cards[v] - 1))

    do = {v: value(v) for v, r in roles.items() if r in "dx"}
    evidence = {v: value(v) for v, r in roles.items() if r in "ox"}
    model = intervene(scm, do)
    try:
        want = marginal(condition(exact_joint(model), evidence), keep)
    except ZeroProbabilityEvidence:
        with pytest.raises(ZeroProbabilityEvidence):
            infer(model, keep, evidence)
        return
    got = infer(model, keep, evidence)
    assert got.vars == want.vars and got.cards == want.cards
    assert np.abs(got.probs - want.probs).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_planned_infer_matches_the_rescanning_oracle(data):
    """The planned elimination gives the oracle's answer bit for bit, and
    its refusals with the same type and message: a bucket or result over
    a small cap, and evidence of zero mass on a pinned node."""
    n = data.draw(st.integers(3, 12), label="nodes")
    dag = random_dag(data.draw(st.integers(0, 10_000), label="dag seed"), n)
    cards = {v: data.draw(st.integers(2, 3), label=f"card {v}") for v in dag.nodes}
    scm = random_scm(dag, data.draw(st.integers(0, 10_000), label="cpt seed"), card=cards)
    picked = data.draw(st.lists(st.sampled_from(dag.nodes), min_size=1, max_size=5, unique=True))
    keep = set(picked[:3])
    evidence = {v: data.draw(st.integers(0, cards[v] - 1), label=f"{v}=") for v in picked[3:5]}
    # Pinning an evidence node to another value makes that evidence impossible.
    pinned = data.draw(st.lists(st.sampled_from(sorted(evidence) or dag.nodes), max_size=1))
    scm = intervene(scm, {v: data.draw(st.integers(0, cards[v] - 1), label=f"do {v}") for v in pinned})
    max_cells = data.draw(st.sampled_from([4, 16, 64, 1 << 24]), label="max_cells")
    try:
        want = reference_infer(scm, keep, evidence, max_cells)
    except (StateSpaceTooLarge, ZeroProbabilityEvidence) as exc:
        with pytest.raises(type(exc)) as got:
            infer(scm, keep, evidence, max_cells)
        assert str(got.value) == str(exc)
        return
    got = infer(scm, keep, evidence, max_cells)
    assert (got.vars, got.cards) == (want.vars, want.cards)
    assert np.array_equal(got.probs, want.probs)
