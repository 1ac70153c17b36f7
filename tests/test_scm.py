"""Discrete models: joints, surgery, sampling, serialization."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalrating import (
    Dag,
    Dataset,
    DiscreteScm,
    JointTable,
    NormalizationError,
    ShapeError,
    StateSpaceTooLarge,
    UnknownVariable,
    ValueOutOfRange,
    ZeroProbabilityEvidence,
    condition,
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
from causalrating.scm import _csv_bytes
from helpers import (
    TEMPLATE_DAGS,
    brute_force_joint,
    csv_writer_bytes,
    mass_of,
    random_dag,
    reference_sample_rows,
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

    def test_non_finite_cpt_rejected(self):
        dag = Dag(["A"], [], [])
        with pytest.raises(NormalizationError):
            DiscreteScm(dag, {"A": 2}, {"A": [[float("nan"), 1.0]]})

    @pytest.mark.parametrize("row", [[0.0, float("nan")], [float("inf"), 0.0], [float("-inf"), 1.0]])
    def test_nan_or_infinite_cell_rejected(self, row):
        # One range check on the table's min and max refuses these too.
        dag = Dag(["A"], [], [])
        with pytest.raises(NormalizationError):
            DiscreteScm(dag, {"A": 2}, {"A": [row]})

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
        dag = template("Fig4Chain", 1)
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
        with pytest.raises(StateSpaceTooLarge):
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

    def test_empirical_joint_rejects_a_repeated_name(self):
        ds = sample(copy_chain(), 100, seed=1)
        with pytest.raises(ShapeError):
            empirical_joint(ds, ["B", "B"])


class TestInfer:
    def test_intermediate_factor_over_cap(self):
        # X has five root parents: summing any of them out needs a
        # 64-cell factor, although the answer P(X) has two cells.
        parents = [f"P{i}" for i in range(5)]
        dag = Dag([*parents, "X"], [(p, "X") for p in parents], [])
        scm = random_scm(dag, 0)
        assert infer(scm, {"X"}, max_cells=64).cards == (2,)
        with pytest.raises(StateSpaceTooLarge):
            infer(scm, {"X"}, max_cells=63)

    def test_result_over_cap(self):
        dag = Dag([f"N{i}" for i in range(6)], [], [])
        scm = random_scm(dag, 0, card=4)
        with pytest.raises(StateSpaceTooLarge):
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
        scm = random_scm(template("Fig6Canonical", 2), 13)
        cut = intervene(scm, {"D": 1, "J_o": 0})
        got = exact_joint(cut)
        want = brute_force_joint(cut)
        assert np.abs(got.probs - want.probs).max() < 1e-12


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
        from causalrating.scm import _uniforms

        got = _uniforms(42, np.arange(4, dtype=np.uint64), 0)
        want = [0.38697428, 0.5771258, 0.02546179, 0.17529561]
        assert np.abs(got - want).max() < 1e-8
        got = _uniforms(0, np.arange(2, dtype=np.uint64), 3)
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
        text = _csv_bytes(ds.rows, ds.vars).decode()
        lines = text.strip().split("\n")
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

    def test_negative_start_rejected(self):
        with pytest.raises(ValueOutOfRange):
            sample(copy_chain(), 5, seed=1, start=-1)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_threshold_ties_match_reference_sampler(self, step):
        # The sampler compares integer draws with integer thresholds; a
        # threshold at a drawn uniform, or one float step off it, must
        # sample what the float comparison of the reference samples.
        from causalrating.scm import _uniforms

        n, seed, row = 50, 17, 7
        u_a, u_b = (_uniforms(seed, np.arange(n, dtype=np.uint64), k)[row] for k in (0, 1))
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

    def test_card_300_takes_the_int64_path(self):
        import io

        from causalrating import dataset_to_csv

        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], [])
        scm = random_scm(dag, 8, card={"B": 300})
        ds = sample(scm, 2000, seed=5)
        assert ds.rows.dtype == np.int64 and ds.column("B").max() >= 100
        assert np.array_equal(ds.rows, reference_sample_rows(scm, 2000, 5))
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        assert buf.getvalue().encode() == csv_writer_bytes(ds.rows, ds.vars)


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


class TestCsvFormatter:
    @settings(max_examples=200, deadline=None)
    @given(rows=int_matrices(), with_header=st.booleans())
    def test_matches_csv_writer(self, rows, with_header):
        header = tuple(f"V{i}" for i in range(rows.shape[1])) if with_header else ()
        assert _csv_bytes(rows, header) == csv_writer_bytes(rows, header)

    def test_powers_of_ten(self):
        rows = np.array([[0, 9, 10], [99, 100, 1499], [1000, 1, 0]], dtype=np.int64)
        assert _csv_bytes(rows) == b"0,9,10\n99,100,1499\n1000,1,0\n"

    def test_dataset_to_csv_file_matches_text(self, tmp_path):
        from causalrating import dataset_to_csv

        ds = sample(random_scm(template("Fig2c"), 4, card=11), 500, seed=9)
        dataset_to_csv(ds, tmp_path / "d.csv")
        data = (tmp_path / "d.csv").read_bytes()
        assert data == _csv_bytes(ds.rows, ds.vars) == csv_writer_bytes(ds.rows, ds.vars)


class TestJson:
    def test_round_trip(self):
        scm = random_scm(template("Fig3"), 14)
        doc = json.loads(json.dumps(scm_to_json(scm)))
        back = scm_from_json(doc)
        assert np.abs(
            exact_joint(back).probs - exact_joint(scm).probs
        ).max() == 0.0

    def test_round_trip_preserves_custom_parent_order(self):
        scm = random_scm(template("Fig6Canonical", 1), 15)
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
