"""Adjustment estimators, verdicts and capacity comparisons."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrating import (
    NOISE,
    SIGNAL,
    UNIDENTIFIABLE,
    CriterionNotMet,
    Dag,
    DiscreteScm,
    EffectQuery,
    EffectTable,
    LatentAdjustmentError,
    NumericalConsistencyError,
    OverlapError,
    PositivityViolation,
    backdoor_adjust,
    build_scenario,
    canonical_scenario,
    condition,
    conditional_mutual_information,
    confounded_direct_example,
    confounded_mediation_example,
    confounding_gap,
    d_separated,
    default_scenario,
    do_distribution,
    empirical_joint,
    exact_joint,
    frontdoor_adjust,
    identify_effect,
    infer,
    marginal,
    mutilate,
    mutual_information,
    noise_verdict,
    open_trail,
    random_scm,
    rating_comparison,
    rule1_deletion_check,
    sample,
    template,
)
from causalrating import identify
from causalrating.errors import ParameterError, UnknownVariable
from causalrating.graph import frontdoor_failure, open_backdoor_trail
from causalrating.identify import IDENTIFY_METHODS, _choose
from helpers import (
    TEMPLATE_DAGS,
    live_cells,
    loop_dict,
    open_trail_problem,
    random_dag,
    reference_backdoor_adjust,
    reference_conditional_mutual_information,
    reference_confounding_gap,
    reference_effect_json,
    reference_frontdoor_adjust,
    reference_open_trail,
    reference_oracle_effect,
    reference_rating_comparison,
    sparse_scm,
)


def observed_joint(scm):
    return marginal(exact_joint(scm), set(scm.dag.nodes) - set(scm.dag.latent))


class TestBackdoorAdjust:
    def test_no_confounding_equals_conditioning(self):
        scm = random_scm(template("Fig1c"), 3)
        j = exact_joint(scm)
        got = backdoor_adjust(j, scm.dag, "X_c", "Y_f", set())
        for x in range(2):
            want = marginal(condition(j, {"X_c": x}), {"Y_f"}).probs
            assert np.abs(got.dist((x,)) - want).max() < 1e-12

    def test_observed_confounder_matches_oracle(self):
        dag = Dag(["W", "X", "Y"], [("W", "X"), ("W", "Y"), ("X", "Y")], [])
        for seed in range(20):
            scm = random_scm(dag, seed)
            j = exact_joint(scm)
            got = backdoor_adjust(j, dag, "X", "Y", {"W"})
            for x in range(2):
                oracle = do_distribution(scm, "Y", {"X": x})
                assert np.abs(got.dist((x,)) - oracle).max() < 1e-9

    def test_unblockable_backdoor_rejected(self):
        scm = random_scm(template("Fig2b"), 0)
        with pytest.raises(CriterionNotMet) as exc:
            backdoor_adjust(observed_joint(scm), scm.dag, "X_c", "Y_f", set())
        assert exc.value.witness is not None

    def test_latent_adjustment_rejected(self):
        scm = random_scm(template("Fig2b"), 0)
        with pytest.raises(LatentAdjustmentError):
            backdoor_adjust(exact_joint(scm), scm.dag, "X_c", "Y_f", {"U"})

    @pytest.mark.parametrize(
        "example,x,y",
        [(confounded_direct_example, "U", "Y_f"), (confounded_mediation_example, "Y_h", "U")],
    )
    def test_latent_treatment_or_outcome_rejected(self, example, x, y):
        # The back-door criterion holds for both, so without this check
        # the joint's latent node would be read as if it were observed.
        scm = example()
        assert open_backdoor_trail(scm.dag, x, y, set()) is None
        with pytest.raises(LatentAdjustmentError, match="'U'"):
            backdoor_adjust(infer(scm, {x, y}), scm.dag, x, y, set())

    def test_adjustment_variable_missing_from_joint_rejected(self):
        # Dropping W from the adjustment would return P(Y | X), 0.088 off
        # the oracle on this model.
        dag = backdoor_dag()
        scm = random_scm(dag, 5)
        with pytest.raises(UnknownVariable, match="'W'"):
            backdoor_adjust(infer(scm, {"X", "Y"}), dag, "X", "Y", {"W"})


class TestFrontdoorAdjust:
    def test_null_confounder_reduces_to_conditioning(self):
        dag = template("Fig3")
        scm = random_scm(dag, 5)
        # U keeps its edges but carries no effect: make Y_f ignore U.
        cpt = {v: np.array(scm.cpt[v]) for v in dag.nodes}
        yf = np.array(cpt["Y_f"])
        half = yf.shape[0] // 2
        yf[half:] = yf[:half]  # rows for U=1 copy rows for U=0
        cpt["Y_f"] = yf
        scm = DiscreteScm(dag, scm.card, cpt)
        j = observed_joint(scm)
        got = frontdoor_adjust(j, dag, "X_c", "Y_f", {"Z"})
        for x in range(2):
            want = marginal(condition(j, {"X_c": x}), {"Y_f"}).probs
            assert np.abs(got.dist((x,)) - want).max() < 1e-9

    def test_matches_oracle_on_mediated_graph(self):
        dag = template("Fig3")
        for seed in range(100):
            scm = random_scm(dag, seed)
            got = frontdoor_adjust(observed_joint(scm), dag, "X_c", "Y_f", {"Z"})
            for x in range(2):
                oracle = do_distribution(scm, "Y_f", {"X_c": x})
                assert np.abs(got.dist((x,)) - oracle).max() < 1e-9

    def test_matches_oracle_on_canonical_graph_with_stratum(self):
        dag = template("Fig6Canonical(2)")
        M = {"S_0", "S_1", "S_2"}
        for seed in range(30):
            scm = random_scm(dag, seed)
            got = frontdoor_adjust(
                observed_joint(scm), dag, "D", "Y_f", M, given={"Y_h"}
            )
            for (x,), g, dist in live_cells(got):
                oracle = do_distribution(scm, "Y_f", {"D": x}, given={"Y_h": g[0]})
                assert np.abs(dist - oracle).max() < 1e-9

    def test_mediator_or_stratum_missing_from_joint_rejected(self):
        dag = template("Fig6Canonical(2)")
        scm = random_scm(dag, 1)
        M, observed = {"S_0", "S_1", "S_2"}, set(dag.nodes) - dag.latent
        with pytest.raises(UnknownVariable, match="'S_2'"):
            frontdoor_adjust(infer(scm, observed - {"S_2"}), dag, "D", "Y_f", M)
        with pytest.raises(UnknownVariable, match="'Y_h'"):
            frontdoor_adjust(infer(scm, observed - {"Y_h"}), dag, "D", "Y_f", M, given={"Y_h"})

    def test_stratum_below_the_mediator_rejected(self):
        # X -> M -> Y meets the criterion, but W descends from M: within
        # the strata of W the formula is off the oracle.
        dag = Dag(
            ["U", "X", "M", "W", "Y"],
            [("U", "X"), ("U", "Y"), ("X", "M"), ("M", "Y"), ("M", "W")],
            ["U"],
        )
        scm = random_scm(dag, 3)
        j = infer(scm, {"X", "M", "W", "Y"})
        with pytest.raises(CriterionNotMet) as exc:
            frontdoor_adjust(j, dag, "X", "Y", {"M"}, given={"W"})
        assert exc.value.witness == "strata ['W'] are mediators or descend from X or the mediators"
        off = reference_frontdoor_adjust(j, "X", "Y", {"M"}, {"W"})
        dev = max(
            float(np.abs(dist - do_distribution(scm, "Y", {"X": x}, given={"W": g[0]})).max())
            for (x, g), dist in off.items()
        )
        assert dev > 1e-4
        with pytest.raises(CriterionNotMet):
            identify_effect(scm, EffectQuery("Y", {"X"}, {"W"}), "auto", {"M"})

    def test_criterion_failure_has_witness(self):
        scm = random_scm(template("Fig2b"), 0)
        with pytest.raises(CriterionNotMet):
            frontdoor_adjust(observed_joint(scm), scm.dag, "X_c", "Y_f", {"Y_h"})

    def test_positivity_violation_names_cell(self):
        dag = template("Fig3")
        cpt = {
            "Y_h": [[0.5, 0.5]],
            "U": [[0.5, 0.5]],
            # X_c deterministic: X_c = 0 always, so P(X_c=1, m) = 0
            "X_c": [[1, 0]] * 4,
            "Z": [[0.5, 0.5], [0.2, 0.8]],
            "Y_f": [[0.5, 0.5]] * 4,
        }
        scm = DiscreteScm(dag, {v: 2 for v in dag.nodes}, cpt)
        with pytest.raises(PositivityViolation) as exc:
            frontdoor_adjust(observed_joint(scm), dag, "X_c", "Y_f", {"Z"})
        assert exc.value.cell is not None

    def test_distributions_normalized(self):
        scm = random_scm(template("Fig3"), 77)
        got = frontdoor_adjust(observed_joint(scm), scm.dag, "X_c", "Y_f", {"Z"})
        for *_, dist in live_cells(got):
            assert abs(float(dist.sum()) - 1.0) < 1e-9

    def test_conditioning_biased_on_shipped_fixture(self):
        scm = confounded_mediation_example()
        j = observed_joint(scm)
        fd = frontdoor_adjust(j, scm.dag, "X_c", "Y_f", {"Z"})
        for x in range(2):
            oracle = do_distribution(scm, "Y_f", {"X_c": x})
            naive = marginal(condition(j, {"X_c": x}), {"Y_f"}).probs
            assert np.abs(fd.dist((x,)) - oracle).max() < 1e-9
            assert 0.5 * np.abs(naive - oracle).sum() > 0.01


class TestRule1:
    def test_canonical_deletion(self):
        for depth in (1, 2, 3):
            dag = template(f"Fig6Canonical({depth})")
            assert rule1_deletion_check(dag, "Y_f", "Y_h", {"J_o", "D"})

    def test_confounded_deletion_fails(self):
        assert not rule1_deletion_check(template("Fig2c"), "Y_f", "Y_h", {"X_c"})

    def test_direct_edge_fails(self):
        assert not rule1_deletion_check(template("Fig1a"), "Y_f", "Y_h", set())

    def test_candidate_in_do_set_rejected(self):
        with pytest.raises(OverlapError):
            rule1_deletion_check(template("Fig1a"), "Y_f", "Y_h", {"Y_h"})

    def test_deletion_soundness_against_oracle(self):
        # Whenever deletion is licensed, the oracle must not depend on
        # the candidate's observed value.
        dag = template("Fig6Canonical(2)")
        assert rule1_deletion_check(dag, "Y_f", "Y_h", {"J_o", "D"})
        for seed in range(10):
            scm = random_scm(dag, seed)
            for jo in range(2):
                for d in range(2):
                    dists = [
                        do_distribution(
                            scm, "Y_f", {"J_o": jo, "D": d}, given={"Y_h": h}
                        )
                        for h in range(2)
                    ]
                    base = do_distribution(scm, "Y_f", {"J_o": jo, "D": d})
                    for dist in dists:
                        assert np.abs(dist - base).max() < 1e-9

    def test_observation_matches_intervention_on_journey_switch(self):
        # On the canonical graph P(D | do(J_o)) equals P(D | J_o): the
        # journey switch has no back-door route into the decision.
        dag = template("Fig6Canonical(2)")
        for seed in range(20):
            scm = random_scm(dag, seed)
            j = exact_joint(scm)
            for jo in range(2):
                a = do_distribution(scm, "D", {"J_o": jo})
                b = marginal(condition(j, {"J_o": jo}), {"D"}).probs
                assert np.abs(a - b).max() < 1e-9


class TestNoiseVerdict:
    def test_mediated_history_observational(self):
        v = noise_verdict(template("Fig1d"), "Y_h", "Y_f", {"X_c"})
        assert v.verdict == NOISE
        assert v.justification.startswith("observational:")

    def test_history_confounder_fork(self):
        v = noise_verdict(template("Fig2a"), "Y_h", "Y_f", {"X_c"})
        assert v.verdict == NOISE

    def test_outcome_confounder_fork_unidentifiable(self):
        v = noise_verdict(template("Fig2c"), "Y_h", "Y_f", {"X_c"})
        assert v.verdict == UNIDENTIFIABLE
        assert v.justification.startswith("open-backdoor:")

    def test_canonical_graph_noise(self):
        for depth in (1, 2, 3):
            v = noise_verdict(
                template(f"Fig6Canonical({depth})"), "Y_h", "Y_f", {"J_o", "D"}
            )
            assert v.verdict == NOISE

    def test_direct_cause_is_signal(self):
        v = noise_verdict(template("Fig1a"), "Y_h", "Y_f", set())
        assert v.verdict == SIGNAL
        assert v.justification.startswith("blocked-backdoor:")

    def test_on_direct_confounder_graph(self):
        # History is deprecable even though the behavior effect itself
        # stays confounded; the two questions are independent.
        scm = confounded_direct_example()
        v = noise_verdict(scm.dag, "Y_h", "Y_f", {"X_c"})
        assert v.verdict == NOISE
        j = observed_joint(scm)
        for x in range(2):
            naive = marginal(condition(j, {"X_c": x}), {"Y_f"}).probs
            oracle = do_distribution(scm, "Y_f", {"X_c": x})
            assert 0.5 * np.abs(naive - oracle).sum() > 0.01
        with pytest.raises(CriterionNotMet):
            backdoor_adjust(j, scm.dag, "X_c", "Y_f", {"Y_h"})

    def test_latent_observed_rejected(self):
        with pytest.raises(LatentAdjustmentError):
            noise_verdict(template("Fig2c"), "Y_h", "Y_f", {"U"})

    def test_candidate_equals_outcome_rejected(self):
        with pytest.raises(OverlapError):
            noise_verdict(template("Fig1a"), "Y_f", "Y_f", set())


class TestConfoundingGap:
    def test_identity_on_confounded_models(self):
        dag = template("Fig2b")
        for seed in range(100):
            scm = random_scm(dag, seed)
            g = confounding_gap(scm, "X_c", "Y_f", "U")
            assert abs(g.i_x_y - (g.i_ux_y - g.i_u_y_given_x)) < 1e-9
            assert g.i_u_y_given_x >= 0.0

    def test_strong_confounder_fixture_gap(self):
        g = confounding_gap(confounded_direct_example(), "X_c", "Y_f", "U")
        assert g.i_u_y_given_x > 0.01

    def test_null_confounder(self):
        dag = template("Fig2b")
        scm = random_scm(dag, 1)
        cpt = {v: np.array(scm.cpt[v]) for v in dag.nodes}
        yf = np.array(cpt["Y_f"])
        half = yf.shape[0] // 2
        yf[half:] = yf[:half]
        cpt["Y_f"] = yf
        scm = DiscreteScm(dag, scm.card, cpt)
        g = confounding_gap(scm, "X_c", "Y_f", "U")
        assert g.i_u_y_given_x < 1e-9
        assert abs(g.i_x_y - g.i_ux_y) < 1e-9

    def test_extreme_confounding(self):
        dag = template("Fig2b")
        cpt = {
            "Y_h": [[0.5, 0.5]],
            "U": [[0.5, 0.5]],
            "X_c": [[0.5, 0.5]] * 4,
            "Y_f": [[1, 0], [1, 0], [0, 1], [0, 1]],  # Y_f = U exactly
        }
        scm = DiscreteScm(dag, {v: 2 for v in dag.nodes}, cpt)
        g = confounding_gap(scm, "X_c", "Y_f", "U")
        assert g.i_x_y < 1e-9
        assert abs(g.i_ux_y - 1.0) < 1e-9

    def test_non_latent_u_rejected(self):
        scm = random_scm(template("Fig1d"), 0)
        with pytest.raises(ParameterError):
            confounding_gap(scm, "X_c", "Y_f", "Y_h")

    def test_non_latent_u_rejected_with_a_joint(self):
        # The latent check comes first, so a joint given by the caller
        # does not get a non-latent u past it.
        scm = random_scm(template("Fig1d"), 0)
        j = infer(scm, {"Y_h", "X_c", "Y_f"})
        with pytest.raises(ParameterError, match="'Y_h' is not flagged latent"):
            confounding_gap(scm, "X_c", "Y_f", "Y_h", joint=j)

    def test_a_wider_joint_gives_the_same_gap(self):
        scm = random_scm(template("Fig2b"), 3)
        want = confounding_gap(scm, "X_c", "Y_f", "U")
        got = confounding_gap(scm, "X_c", "Y_f", "U", joint=exact_joint(scm))
        for k, v in want.to_json().items():
            assert abs(getattr(got, k) - v) <= 1e-12, k


class TestRatingComparison:
    def test_mediated_graph_minor_term_vanishes(self):
        j = exact_joint(random_scm(template("Fig1d"), 41))
        r = rating_comparison(j, "Y_h", "X_c", "Y_f")
        assert r.phyd_minor < 1e-9
        assert abs(r.augmented_bms - r.phyd_major) < 1e-9

    def test_independent_outcome_all_zero(self):
        dag = Dag(["Y_h", "X_c", "Y_f"], [("Y_h", "X_c")], [])
        j = exact_joint(random_scm(dag, 2))
        r = rating_comparison(j, "Y_h", "X_c", "Y_f")
        for val in (r.naive_bms, r.augmented_bms, r.phyd_major, r.phyd_minor):
            assert abs(val) < 1e-9

    def test_history_retains_value_under_outcome_fork(self):
        scm = random_scm(template("Fig2c"), 12, concentration=0.5)
        j = observed_joint(scm)
        r = rating_comparison(j, "Y_h", "X_c", "Y_f")
        assert r.phyd_minor > 1e-6

    def test_internal_identities(self):
        for seed in range(50):
            j = exact_joint(random_scm(template("Fig2b"), seed))
            r = rating_comparison(j, "Y_h", "X_c", "Y_f")
            assert r.augmented_bms >= r.naive_bms - 1e-9
            assert abs(r.augmented_bms - (r.phyd_major + r.phyd_minor)) < 1e-9


class TestEffectTable:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_to_json_matches_cell_dict(self, data):
        n_do, n_given = data.draw(st.integers(0, 2), label="do"), data.draw(st.integers(0, 2), label="given")
        shape = data.draw(st.lists(st.integers(1, 3), min_size=n_do + n_given + 1, max_size=n_do + n_given + 1))
        value = st.sampled_from([0.0, 1e-05, 5e-324, 0.1, 1 / 3, 1.0]) | st.floats(0.0, 1.0)
        size = math.prod(shape)
        probs = np.array(data.draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
        dead = data.draw(st.lists(st.booleans(), min_size=size // shape[-1], max_size=size // shape[-1]))
        probs[np.reshape(dead, shape[:-1])] = 0.0
        names = ["A", "B", "C", "D"]
        t = EffectTable("Y", tuple(names[:n_do]), tuple(names[n_do : n_do + n_given]), probs)
        assert json.dumps(t.to_json()) == json.dumps(reference_effect_json(t))

    def test_dist_of_a_dead_or_missing_cell_raises_key_error(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 1] = [0.25, 0.75]
        t = EffectTable("Y", ("X",), ("G",), probs)
        assert list(t.dist((0,), (1,))) == [0.25, 0.75]
        for do, g in [((0,), (0,)), ((2,), (0,)), ((-1,), (1,)), ((0, 1), ()), ((0,), ())]:
            with pytest.raises(KeyError):
                t.dist(do, g)

    def test_dist_of_a_bool_or_non_integer_raises_key_error(self):
        # True used to index a new axis and return the whole table; 1.5
        # raised NumPy's IndexError.
        t = identify_effect(confounded_mediation_example(), EffectQuery("Y_f", {"X_c"}), "oracle")[1]
        assert list(t.dist((np.int64(1),))) == list(t.probs[1])
        for bad in (True, False, np.True_, 1.5, 1.0, float("nan"), "1", None):
            with pytest.raises(KeyError):
                t.dist((bad,))


class TestEffectQuery:
    def test_disjointness_enforced(self):
        with pytest.raises(OverlapError):
            EffectQuery("Y_f", {"Y_f"})
        with pytest.raises(OverlapError):
            EffectQuery("Y_f", {"D"}, frozenset({"D"}))

    def test_do_takes_names_only(self):
        assert EffectQuery("Y_f", ["D", "J_o"]).do == frozenset({"D", "J_o"})
        for do in ({"D": 1}, "D"):
            with pytest.raises(ParameterError):
                EffectQuery("Y_f", do)

    def test_observed_takes_names_only(self):
        # A mapping used to keep only its keys, so {"Y_h": 1} answered
        # for every stratum of Y_h instead of refusing the value.
        assert EffectQuery("Y_f", {"X_c"}, ["Y_h"]).observed == frozenset({"Y_h"})
        with pytest.raises(ParameterError, match="^EffectQuery.observed: expected a collection of names, got {'Y_h': 1}$"):
            EffectQuery("Y_f", {"X_c"}, {"Y_h": 1})

    # A string is a collection of its letters: "Y_h" would be read as
    # {"Y", "_", "h"}, and a one-letter name would pass unnoticed.  Only
    # the information measures read a bare string, as one name.
    BARE_STRINGS = {
        "observed": lambda scm, j: EffectQuery("Y_f", {"X_c"}, "Y_h"),
        "mediators": lambda scm, j: identify_effect(scm, EffectQuery("Y_f", {"X_c"}), "auto", "Z"),
        "adjust": lambda scm, j: identify_effect(
            scm, EffectQuery("Y_f", {"Y_h"}), "backdoor", adjust="X_c"
        ),
        "frontdoor M": lambda scm, j: frontdoor_adjust(j, scm.dag, "X_c", "Y_f", "Z"),
        "frontdoor given": lambda scm, j: frontdoor_adjust(
            j, scm.dag, "X_c", "Y_f", {"Z"}, given="Y_h"
        ),
        "backdoor Z": lambda scm, j: backdoor_adjust(j, scm.dag, "Y_h", "Y_f", "X_c"),
        "d_separated Z": lambda scm, j: d_separated(scm.dag, {"Y_h"}, {"Y_f"}, "X_c"),
        "open_trail X": lambda scm, j: open_trail(scm.dag, "Z", {"Y_f"}, ()),
        "mutilate": lambda scm, j: mutilate(scm.dag, "Z"),
        "marginal": lambda scm, j: marginal(j, "Z"),
        "infer": lambda scm, j: infer(scm, "Z"),
        "empirical_joint": lambda scm, j: empirical_joint(sample(scm, 10, seed=1), "Z"),
        "rule1 do_set": lambda scm, j: rule1_deletion_check(scm.dag, "Y_f", "Y_h", "Z"),
        "verdict observed": lambda scm, j: noise_verdict(scm.dag, "Y_h", "Y_f", "X_c"),
    }

    @pytest.mark.parametrize("where", sorted(BARE_STRINGS))
    def test_a_bare_string_is_not_a_name_set(self, where):
        scm = confounded_mediation_example()
        j = observed_joint(scm)
        with pytest.raises(ParameterError, match=": expected a collection of names, got '"):
            self.BARE_STRINGS[where](scm, j)


def assert_same_cells(got, want):
    assert (got.do_vars, got.given_vars) == (want.do_vars, want.given_vars)
    assert [c[:2] for c in live_cells(got)] == [c[:2] for c in live_cells(want)]
    for cfg, g, dist in live_cells(want):
        assert np.abs(got.dist(cfg, g) - dist).max() < 1e-9


# Graphs on which X -> M -> Y meets the front-door criterion, but within
# the strata of C (and of W, read by Rule 2) one of its conditions fails:
# (nodes, edges, latent, do, observed).
BROKEN_STRATA = {
    "rule 2 opened by the stratum": (
        ["A", "W", "C", "U", "X", "M", "Y"],
        [("A", "W"), ("A", "C"), ("U", "C"), ("U", "Y"), ("W", "Y"), ("X", "M"), ("M", "Y")],
        ["U"], {"X", "W"}, {"C"},
    ),
    "x-m trail opened by the stratum": (
        ["A", "B", "C", "X", "M", "Y"],
        [("A", "X"), ("A", "C"), ("B", "C"), ("B", "M"), ("X", "M"), ("M", "Y")],
        [], {"X"}, {"C"},
    ),
    "m-y trail opened by the stratum": (
        ["B", "C", "D", "X", "M", "Y"],
        [("B", "M"), ("B", "C"), ("D", "C"), ("D", "Y"), ("X", "M"), ("M", "Y")],
        [], {"X"}, {"C"},
    ),
}


def backdoor_dag():
    """W confounds X and Y; only {W} blocks the back-door trail."""
    return Dag(["W", "X", "Y"], [("W", "X"), ("W", "Y"), ("X", "Y")], [])


class TestIdentifyEffect:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_auto_matches_oracle_or_raises(self, data):
        name = data.draw(st.sampled_from([*sorted(TEMPLATE_DAGS), "random"]), label="dag")
        dag = TEMPLATE_DAGS.get(name)
        if dag is None:
            # A random DAG of 4-6 nodes, one of them latent.
            seed, size = data.draw(st.integers(0, 10_000)), data.draw(st.integers(4, 6))
            base = random_dag(seed, size)
            latent = data.draw(st.sampled_from(base.nodes), label="latent")
            dag = Dag(base.nodes, base.edges, [latent])
        scm = random_scm(
            dag, data.draw(st.integers(0, 10_000), label="seed"),
            card=data.draw(st.sampled_from([2, 3]), label="card"),
        )
        pool = [v for v in dag.topological_order if v not in dag.latent]

        def pick(label, lo, hi):
            if not pool:
                return set()
            chosen = data.draw(
                st.sets(st.sampled_from(pool), min_size=lo, max_size=hi), label=label
            )
            pool[:] = [v for v in pool if v not in chosen]
            return chosen

        # Half the draws take the last observed node as the outcome and,
        # independently, half take every variable between the do-set and
        # the outcome as mediators, so that the front-door branch is reached.
        last = data.draw(st.booleans(), label="last")
        outcome = pool[-1] if last else data.draw(st.sampled_from(pool), label="outcome")
        pool.remove(outcome)
        do = pick("do", 1, 2)
        observed = pick("observed", 0, 2)
        between = {
            v for v in pool
            if v in dag.ancestors(outcome) and any(v in dag.descendants(x) for x in do)
        }
        use_between = data.draw(st.booleans(), label="between")
        mediators = between if use_between else pick("mediators", 0, 3)
        q = EffectQuery(outcome, do, observed)
        try:
            method, got = identify_effect(scm, q, "auto", mediators)
        except CriterionNotMet:
            return
        assert method in ("frontdoor", "backdoor")
        assert_same_cells(got, identify_effect(scm, q, "oracle")[1])

    @pytest.mark.parametrize("role", ["stratum", "mediator"])
    def test_frontdoor_refuses_a_latent_node(self, role):
        # The criterion holds on both graphs: only the latent check stops
        # the estimate from reading U.
        if role == "stratum":
            scm, q, M = confounded_mediation_example(), EffectQuery("Y_f", {"X_c"}, {"U"}), {"Z"}
        else:
            dag = Dag(["X", "U", "Y"], [("X", "U"), ("U", "Y")], ["U"])
            scm, q, M = random_scm(dag, 0), EffectQuery("Y", {"X"}), {"U"}
        assert frontdoor_failure(scm.dag, next(iter(q.do)), q.outcome, M, q.observed) is None
        with pytest.raises(LatentAdjustmentError, match="'U'"):
            identify_effect(scm, q, "auto", M)

    def test_frontdoor_with_rule2_do_variable_and_stratum(self):
        dag = template("Fig6Canonical(2)")
        q = EffectQuery("Y_f", {"D", "J_o"}, {"Y_h"})
        for seed in range(5):
            scm = random_scm(dag, seed, card={"D": 3})
            method, got = identify_effect(scm, q, "auto", {"S_0", "S_1", "S_2"})
            assert method == "frontdoor"
            assert (got.do_vars, got.given_vars) == (("J_o", "D"), ("Y_h",))
            assert len(list(live_cells(got))) == 2 * 3 * 2
            assert_same_cells(got, identify_effect(scm, q, "oracle")[1])

    @pytest.mark.parametrize("case", sorted(BROKEN_STRATA))
    def test_strata_that_break_the_criterion_rejected(self, case):
        nodes, edges, latent, do, observed = BROKEN_STRATA[case]
        dag = Dag(nodes, edges, latent)
        scm = random_scm(dag, 1)
        q = EffectQuery("Y", do, observed)
        with pytest.raises(CriterionNotMet):
            identify_effect(scm, q, "auto", {"M"})
        # The stratified formula is off on these graphs.  Where the
        # stratified criterion fails, frontdoor_adjust refuses it and the
        # reference estimator, which checks no criterion, computes it.
        strata = (do - {"X"}) | observed
        j = infer(scm, set(dag.nodes) - dag.latent)
        if case == "rule 2 opened by the stratum":
            cells = loop_dict(frontdoor_adjust(j, dag, "X", "Y", {"M"}, given=strata))
        else:
            with pytest.raises(CriterionNotMet):
                frontdoor_adjust(j, dag, "X", "Y", {"M"}, given=strata)
            cells = reference_frontdoor_adjust(j, "X", "Y", {"M"}, strata)
        s_vars = tuple(v for v in j.vars if v in strata)
        oracle = identify_effect(scm, q, "oracle")[1]
        dev = 0.0
        for (xv, s_cfg), dist in cells.items():
            value = {"X": xv, **dict(zip(s_vars, s_cfg))}
            key = (
                tuple(value[v] for v in oracle.do_vars),
                tuple(value[v] for v in oracle.given_vars),
            )
            dev = max(dev, float(np.abs(dist - oracle.dist(*key)).max()))
        assert dev > 1e-4

    def test_mediator_as_stratum_rejected(self):
        # K meets the criterion as a mediator but does not descend from X.
        dag = Dag(["X", "Z", "K", "Y"], [("X", "Z"), ("Z", "Y")], [])
        with pytest.raises(CriterionNotMet):
            identify_effect(random_scm(dag, 2), EffectQuery("Y", {"X"}, {"K"}), "auto", {"Z", "K"})

    def test_frontdoor_tried_before_backdoor(self):
        dag = Dag(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")], [])
        scm = random_scm(dag, 3)
        q = EffectQuery("Y", {"X"})
        assert identify_effect(scm, q, "auto", {"Z"})[0] == "frontdoor"
        assert identify_effect(scm, q, "auto")[0] == "backdoor"
        got = identify_effect(scm, q, "auto", {"Z"})[1]
        assert_same_cells(got, identify_effect(scm, q, "oracle")[1])

    def test_backdoor_with_empty_set(self):
        scm = random_scm(template("Fig1c"), 4)
        q = EffectQuery("Y_f", {"X_c"})
        method, got = identify_effect(scm, q)
        assert method == "backdoor"
        assert_same_cells(got, identify_effect(scm, q, "oracle")[1])

    def test_backdoor_with_non_descendants(self):
        scm = random_scm(backdoor_dag(), 5, card=3)
        q = EffectQuery("Y", {"X"})
        method, got = identify_effect(scm, q)
        assert method == "backdoor"
        assert_same_cells(got, identify_effect(scm, q, "oracle")[1])

    def test_backdoor_with_given_adjustment_set(self):
        scm = random_scm(backdoor_dag(), 6)
        q = EffectQuery("Y", {"X"})
        method, got = identify_effect(scm, q, "backdoor", adjust={"W"})
        assert method == "backdoor"
        assert_same_cells(got, identify_effect(scm, q, "oracle")[1])
        # A given set is the only one tried.
        wide = Dag(["W", "V", "X", "Y"], [("W", "X"), ("W", "Y"), ("X", "Y"), ("X", "V")], [])
        with pytest.raises(CriterionNotMet):
            identify_effect(random_scm(wide, 6), q, "auto", adjust={"V"})

    def test_forced_method_failures(self):
        # Each forced refusal carries a witness: the front-door message of
        # the last treatment tried, or the open back-door trail of the
        # first set tried, or why back-door was not tried.
        def backdoor_trail_ok(dag, trail, x, y, Z=()):
            cut = Dag(dag.nodes, [e for e in dag.edges if e[0] != x], dag.latent)
            return open_trail_problem(cut, trail, {x}, {y}, set(Z)) is None

        scm = random_scm(template("Fig2b"), 7)
        q = EffectQuery("Y_f", {"X_c"})
        with pytest.raises(CriterionNotMet, match="front-door") as exc:
            identify_effect(scm, q, "frontdoor", {"Y_h"})
        assert exc.value.witness == frontdoor_failure(scm.dag, "X_c", "Y_f", {"Y_h"})
        assert exc.value.witness == "a directed path from X_c to Y_f bypasses the mediators"
        with pytest.raises(CriterionNotMet, match="back-door adjustment set") as exc:
            identify_effect(scm, q, "backdoor")
        assert exc.value.witness == ["X_c", "U", "Y_f"]
        assert backdoor_trail_ok(scm.dag, exc.value.witness, "X_c", "Y_f")
        with pytest.raises(CriterionNotMet) as exc:
            identify_effect(scm, q, "backdoor", adjust={"Y_h"})
        assert exc.value.witness == open_backdoor_trail(scm.dag, "X_c", "Y_f", {"Y_h"})
        assert backdoor_trail_ok(scm.dag, exc.value.witness, "X_c", "Y_f", {"Y_h"})
        mediated = random_scm(template("Fig3"), 7)
        with pytest.raises(CriterionNotMet) as exc:
            identify_effect(mediated, q, "backdoor", {"Z"})
        assert backdoor_trail_ok(mediated.dag, exc.value.witness, "X_c", "Y_f")
        with pytest.raises(CriterionNotMet) as exc:
            identify_effect(mediated, EffectQuery("Y_f", {"X_c"}, {"Y_h"}), "backdoor")
        assert exc.value.witness == (
            "back-door adjustment needs one do-variable and no observed variables"
        )

    def test_forced_frontdoor_carries_the_rule2_trail(self):
        # The criterion holds for X within the stratum W, but do(W) cannot
        # be read as observing W: the latent L joins W to Y.
        dag = Dag(
            ["L", "W", "X", "M", "Y"],
            [("L", "W"), ("L", "Y"), ("W", "X"), ("X", "M"), ("M", "Y")],
            ["L"],
        )
        assert frontdoor_failure(dag, "X", "Y", {"M"}, {"W"}) is None
        with pytest.raises(CriterionNotMet) as exc:
            identify_effect(random_scm(dag, 3), EffectQuery("Y", {"W", "X"}), "frontdoor", {"M"})
        assert exc.value.witness == ["Y", "L", "W"]
        cut = Dag(dag.nodes, [e for e in dag.edges if e[1] != "X" and e[0] != "W"], dag.latent)
        assert open_trail_problem(cut, exc.value.witness, {"Y"}, {"W"}, {"X"}) is None

    def test_unidentifiable_carries_backdoor_witness(self):
        scm = random_scm(template("Fig2b"), 8)
        with pytest.raises(CriterionNotMet) as exc:
            identify_effect(scm, EffectQuery("Y_f", {"X_c"}))
        assert exc.value.witness == ["X_c", "U", "Y_f"]
        with pytest.raises(CriterionNotMet) as exc:
            identify_effect(scm, EffectQuery("Y_f", {"X_c"}, {"Y_h"}))
        assert exc.value.witness == (
            "back-door adjustment needs one do-variable and no observed variables"
        )

    def test_bad_requests_rejected(self):
        scm = random_scm(template("Fig3"), 9)
        with pytest.raises(UnknownVariable):
            identify_effect(scm, EffectQuery("Y_f", {"Nope"}))
        with pytest.raises(ParameterError):
            identify_effect(scm, EffectQuery("Y_f", {"X_c"}), "magic")


def compare_with_loop(array_form, loop, strata=True) -> str:
    """Assert that an array-form estimator's table holds the cells of its
    loop oracle (see :func:`loop_dict`) within 1e-12, or that it raises
    the same :class:`PositivityViolation`; returns which of the two
    happened."""
    try:
        want = loop()
    except PositivityViolation as exc:
        with pytest.raises(PositivityViolation) as got:
            array_form()
        assert list(got.value.cell.items()) == list(exc.cell.items())
        assert str(got.value) == str(exc)
        return "positivity"
    got = loop_dict(array_form(), strata)
    assert got.keys() == want.keys()
    for key, dist in want.items():
        assert np.abs(got[key] - dist).max() <= 1e-12
    return "cells"


# (graph, treatment, outcome, mediators, stratum candidates) on which the
# front-door criterion holds.
FRONTDOOR_CASES = {
    "Fig3": (template("Fig3"), "X_c", "Y_f", {"Z"}, ["Y_h"]),
    "Fig6Canonical(1)": (template("Fig6Canonical(1)"), "D", "Y_f", {"S_0", "S_1"}, ["Y_h", "J_o"]),
    "Fig6Canonical(2)": (
        template("Fig6Canonical(2)"), "D", "Y_f", {"S_0", "S_1", "S_2"}, ["Y_h", "J_o"],
    ),
}


def draw_scm(data, dag):
    return sparse_scm(
        dag,
        data.draw(st.integers(0, 10_000), label="seed"),
        card=data.draw(st.sampled_from([2, 3]), label="card"),
        zero_share=data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="zero share"),
    )


def random_query_dag(data):
    return random_dag(data.draw(st.integers(0, 10_000), label="dag"), data.draw(st.integers(3, 6)))


class TestArrayEstimators:
    """The array forms against today's cell loops (``tests/helpers.py``)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_frontdoor_matches_cell_loop(self, data):
        name = data.draw(st.sampled_from([*sorted(FRONTDOOR_CASES), "random"]), label="case")
        if name == "random":
            dag = random_query_dag(data)
            x, y = data.draw(st.permutations(dag.nodes), label="x, y")[:2]
            M = {v for v in dag.descendants(x) if v in dag.ancestors(y)}
            strata = [v for v in dag.nodes if v not in M | {x, y} | dag.descendants(x)]
        else:
            dag, x, y, M, strata = FRONTDOOR_CASES[name]
        given = data.draw(st.sets(st.sampled_from(strata)) if strata else st.just(set()))
        if frontdoor_failure(dag, x, y, M, given) is not None:
            return
        j = infer(draw_scm(data, dag), set(dag.nodes) - dag.latent)
        compare_with_loop(
            lambda: frontdoor_adjust(j, dag, x, y, M, given),
            lambda: reference_frontdoor_adjust(j, x, y, M, given),
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_backdoor_matches_cell_loop(self, data):
        dag = data.draw(st.sampled_from([backdoor_dag(), template("Fig1c"), None]), label="dag")
        if dag is None:
            dag = random_query_dag(data)
        x, y = data.draw(st.permutations(dag.nodes), label="x, y")[:2]
        pool = sorted(set(dag.nodes) - {x, y} - dag.descendants(x) - dag.latent)
        Z = data.draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()), label="Z")
        if open_backdoor_trail(dag, x, y, Z) is not None:
            return
        j = infer(draw_scm(data, dag), set(dag.nodes) - dag.latent)
        compare_with_loop(
            lambda: backdoor_adjust(j, dag, x, y, Z),
            lambda: reference_backdoor_adjust(j, x, y, Z),
            strata=False,
        )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_oracle_matches_one_surgery_per_configuration(self, data):
        dag = random_query_dag(data)
        nodes = data.draw(st.permutations(dag.nodes), label="roles")
        n_do = data.draw(st.integers(1, min(2, len(nodes) - 1)), label="do")
        n_given = data.draw(st.integers(0, len(nodes) - 1 - n_do), label="given")
        q = EffectQuery(nodes[0], nodes[1 : 1 + n_do], nodes[1 + n_do : 1 + n_do + n_given])
        scm = draw_scm(data, dag)
        got = identify_effect(scm, q, "oracle")[1]
        want = reference_oracle_effect(scm, q)
        assert (got.do_vars, got.given_vars) == (want.do_vars, want.given_vars)
        assert [c[:2] for c in live_cells(got)] == [c[:2] for c in live_cells(want)]
        for cfg, g, dist in live_cells(want):
            assert np.abs(got.dist(cfg, g) - dist).max() <= 1e-12

    def test_zero_mass_strata_and_positivity_cells_are_reached(self):
        # Sparse models on the canonical graph give all three outcomes:
        # every stratum kept, some strata skipped, and an empty cell.
        dag, x, y, M, _ = FRONTDOOR_CASES["Fig6Canonical(2)"]
        seen = set()
        for seed, sparse in itertools.product(range(10), ({"Y_h", "J_o"}, {"D"}, ())):
            scm = sparse_scm(dag, seed, card=3, zero_share=0.3, nodes=sparse)
            j = infer(scm, set(dag.nodes) - dag.latent)
            outcome = compare_with_loop(
                lambda: frontdoor_adjust(j, dag, x, y, M, {"Y_h", "J_o"}),
                lambda: reference_frontdoor_adjust(j, x, y, M, {"Y_h", "J_o"}),
            )
            if outcome == "cells":
                full = len(loop_dict(frontdoor_adjust(j, dag, x, y, M, {"Y_h", "J_o"}))) == 3 * 9
                outcome = "all strata" if full else "strata skipped"
            seen.add(outcome)
        assert seen == {"all strata", "strata skipped", "positivity"}

    def test_positivity_cell_key_order(self):
        # The exit-3 cell names x first, then the mediators, then the
        # stratum, as the cell loop did.
        dag = template("Fig3")
        cpt = {
            "Y_h": [[0.5, 0.5]],
            "U": [[0.5, 0.5]],
            "X_c": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
            "Z": [[1.0, 0.0], [0.2, 0.8]],
            "Y_f": [[0.5, 0.5]] * 4,
        }
        j = observed_joint(DiscreteScm(dag, {v: 2 for v in dag.nodes}, cpt))
        with pytest.raises(PositivityViolation) as exc:
            frontdoor_adjust(j, dag, "X_c", "Y_f", {"Z"}, given={"Y_h"})
        assert list(exc.value.cell.items()) == [("X_c", 0), ("Z", 1), ("Y_h", 0)]
        assert str(exc.value) == "P{'X_c': 0, 'Z': 1, 'Y_h': 0} = 0"


def assert_same_answer(adjusted, identified):
    """Assert that an adjuster returns, bit for bit, the table of
    :func:`identify_effect`, or raises the same positivity cell."""
    try:
        want = identified()
    except PositivityViolation as exc:
        with pytest.raises(PositivityViolation) as got:
            adjusted()
        assert list(got.value.cell.items()) == list(exc.cell.items())
        assert str(got.value) == str(exc)
        return "positivity"
    got = adjusted()
    assert (got.outcome, got.do_vars, got.given_vars) == (want.outcome, want.do_vars, want.given_vars)
    assert got.probs.shape == want.probs.shape
    assert got.probs.tobytes() == want.probs.tobytes()
    return "table"


class TestOneAnswerType:
    """Each adjuster, on the joint that identify_effect infers, returns
    the EffectTable that identify_effect returns."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_adjusters_return_the_table_of_identify_effect(self, data):
        name = data.draw(st.sampled_from([*sorted(FRONTDOOR_CASES), "random"]), label="case")
        if name == "random":
            dag = random_query_dag(data)
            x, y = data.draw(st.permutations(dag.nodes), label="x, y")[:2]
            M = {v for v in dag.descendants(x) if v in dag.ancestors(y)}
            strata = [v for v in dag.nodes if v not in M | {x, y} | dag.descendants(x)]
        else:
            dag, x, y, M, strata = FRONTDOOR_CASES[name]
        S = data.draw(st.sets(st.sampled_from(strata)) if strata else st.just(set()), label="S")
        scm = draw_scm(data, dag)
        if frontdoor_failure(dag, x, y, M, S) is None:
            assert_same_answer(
                lambda: frontdoor_adjust(infer(scm, {x, y, *M, *S}), dag, x, y, M, S),
                lambda: identify_effect(scm, EffectQuery(y, {x}, S), "frontdoor", M)[1],
            )
        pool = sorted(set(dag.nodes) - {x, y} - dag.descendants(x) - dag.latent)
        Z = data.draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()), label="Z")
        if open_backdoor_trail(dag, x, y, Z) is None:
            assert_same_answer(
                lambda: backdoor_adjust(infer(scm, {x, y, *Z}), dag, x, y, Z),
                lambda: identify_effect(scm, EffectQuery(y, {x}), "backdoor", adjust=Z)[1],
            )

    def test_both_outcomes_are_reached(self):
        dag, x, y, M, _ = FRONTDOOR_CASES["Fig6Canonical(2)"]
        S, seen = {"Y_h", "J_o"}, set()
        for seed in range(10):
            scm = sparse_scm(dag, seed, card=3, zero_share=0.3, nodes={"D"})
            seen.add(assert_same_answer(
                lambda: frontdoor_adjust(infer(scm, {x, y, *M, *S}), dag, x, y, M, S),
                lambda: identify_effect(scm, EffectQuery(y, {x}, S), "frontdoor", M)[1],
            ))
        assert seen == {"table", "positivity"}


def draw_subset(data, pool, label, min_size=0):
    if not pool:
        return set()
    return data.draw(st.sets(st.sampled_from(pool), min_size=min_size), label=label)


def draw_query_model(data):
    """A template graph, a graph of ``BROKEN_STRATA`` or a random DAG of 4-6
    nodes with one latent node, with a strictly positive model, and its
    observed variables in topological order."""
    family = data.draw(st.sampled_from(["template", "broken strata", "random"]), label="family")
    if family == "template":
        dag = TEMPLATE_DAGS[data.draw(st.sampled_from(sorted(TEMPLATE_DAGS)), label="dag")]
    elif family == "broken strata":
        nodes, edges, latent, _, _ = BROKEN_STRATA[
            data.draw(st.sampled_from(sorted(BROKEN_STRATA)), label="dag")
        ]
        dag = Dag(nodes, edges, latent)
    else:
        base = random_dag(data.draw(st.integers(0, 10_000)), data.draw(st.integers(4, 6)))
        dag = Dag(base.nodes, base.edges, [data.draw(st.sampled_from(base.nodes))])
    scm = random_scm(
        dag, data.draw(st.integers(0, 10_000), label="seed"),
        card=data.draw(st.sampled_from([2, 3]), label="card"),
    )
    return scm, [v for v in dag.topological_order if v not in dag.latent]


class TestCriteriaAgainstSurgery:
    """Each adjuster raises exactly when its criterion function returns a
    witness, and otherwise matches graph surgery."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_frontdoor_adjust_raises_exactly_when_criterion_fails(self, data):
        scm, pool = draw_query_model(data)
        dag = scm.dag

        def between(a, b):
            return {v for v in pool if v in dag.descendants(a) and v in dag.ancestors(b)}

        # Half the draws take a pair with variables between them, all of
        # those as mediators and some strata that do not descend from x, so
        # that the criterion holds, with strata, often enough.
        pairs = [(a, b) for a in pool for b in pool if between(a, b)]
        if pairs and data.draw(st.booleans(), label="designed"):
            x, y = data.draw(st.sampled_from(pairs), label="x, y")
            M = between(x, y)
            strata = draw_subset(
                data, [v for v in pool if v != x and v not in dag.descendants(x)], "strata", 1
            )
        else:
            x, y = data.draw(st.permutations(pool), label="x, y")[:2]
            rest = [v for v in pool if v not in (x, y)]
            M, strata = draw_subset(data, rest, "M"), draw_subset(data, rest, "strata")
        j = infer(scm, pool)
        failure = frontdoor_failure(dag, x, y, M, strata)
        if failure is not None:
            with pytest.raises(CriterionNotMet) as exc:
                frontdoor_adjust(j, dag, x, y, M, given=strata)
            assert exc.value.witness == failure
            return
        got = loop_dict(frontdoor_adjust(j, dag, x, y, M, given=strata))
        s_vars = tuple(v for v in j.vars if v in strata)
        assert len(got) == scm.card[x] * np.prod([scm.card[v] for v in s_vars], dtype=int)
        for (xv, s_cfg), dist in got.items():
            want = do_distribution(scm, y, {x: xv}, given=dict(zip(s_vars, s_cfg)))
            assert np.abs(dist - want).max() < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_backdoor_adjust_raises_exactly_when_criterion_fails(self, data):
        scm, pool = draw_query_model(data)
        dag = scm.dag
        x, y = data.draw(st.permutations(pool), label="x, y")[:2]
        Z = draw_subset(data, [v for v in pool if v not in (x, y)], "Z")
        j = infer(scm, pool)
        witness = open_backdoor_trail(dag, x, y, Z)
        if witness is None:
            for xv, dist in loop_dict(backdoor_adjust(j, dag, x, y, Z), strata=False).items():
                assert np.abs(dist - do_distribution(scm, y, {x: xv})).max() < 1e-9
            return
        with pytest.raises(CriterionNotMet) as exc:
            backdoor_adjust(j, dag, x, y, Z)
        assert exc.value.witness == witness
        if witness[0] == x:
            # A trail: open on the graph without x's outgoing edges.
            cut = Dag(dag.nodes, [e for e in dag.edges if e[0] != x], dag.latent)
            assert open_trail_problem(cut, witness, {x}, {y}, Z) is None
        else:
            assert witness == sorted(Z & dag.descendants(x))


def cut_edges(dag: Dag, into=(), out_of=()) -> Dag:
    """``dag`` without the edges into ``into`` and out of ``out_of``."""
    edges = [(a, b) for a, b in dag.edges if b not in into and a not in out_of]
    return Dag(dag.nodes, edges, dag.latent)


class TestChoose:
    """The graph-only decision that identify_effect and both adjusters run."""

    def test_the_decision_makes_no_inference(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return infer(*args, **kwargs)

        monkeypatch.setattr(identify, "infer", counting)
        cases = [
            (build_scenario(s), EffectQuery("Y_f", {"J_o", "D"}), s.states)
            for s in (default_scenario(), *map(canonical_scenario, (1, 4, 7)))
        ] + [
            (confounded_direct_example(), EffectQuery("Y_f", {"X_c"}), ()),
            (confounded_mediation_example(), EffectQuery("Y_f", {"X_c"}), ("Z",)),
            (confounded_mediation_example(), EffectQuery("Y_f", {"Y_h"}), ()),
        ]
        answered = set()
        for scm, q, M in cases:
            do_vars = tuple(v for v in scm.dag.topological_order if v in q.do)
            for method in IDENTIFY_METHODS:
                calls.clear()
                try:
                    chosen = _choose(scm.dag, q.outcome, do_vars, (), method, frozenset(M))[0]
                except CriterionNotMet:
                    chosen = None
                assert calls == []
                if chosen is None:
                    with pytest.raises(CriterionNotMet):
                        identify_effect(scm, q, method, M)
                    assert calls == []
                else:
                    assert identify_effect(scm, q, method, M)[0] == chosen
                    assert len(calls) == 1
                    answered.add(chosen)
        assert answered == {"frontdoor", "backdoor", "oracle"}

    def test_a_refusal_carries_the_trail_of_the_first_set(self):
        # Given the empty set, X - A - Y and X - L - Y are open and the tie
        # goes to A; the next set, {A}, leaves only X - L - Y open.
        dag = Dag(["A", "L", "X", "Y"], [("A", "X"), ("A", "Y"), ("L", "X"), ("L", "Y")], ["L"])
        assert open_backdoor_trail(dag, "X", "Y", {"A"}) == ["X", "L", "Y"]
        with pytest.raises(CriterionNotMet) as exc:
            _choose(dag, "Y", ("X",), (), "auto", frozenset())
        assert exc.value.witness == ["X", "A", "Y"]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_each_method_takes_the_first_criterion_that_holds(self, data):
        base = random_dag(data.draw(st.integers(0, 10_000), label="dag"), data.draw(st.integers(4, 7)))
        latent = data.draw(st.sets(st.sampled_from(base.nodes), max_size=2), label="latent")
        pool = [v for v in base.topological_order if v not in latent]
        # Half the draws take the last observed node as y, no edge from a
        # treatment into y and every variable between them as mediators,
        # so that the front-door criterion holds often enough.
        designed = data.draw(st.booleans(), label="designed")
        y = pool[-1] if designed else data.draw(st.sampled_from(pool), label="y")
        rest = [v for v in pool if v != y]
        do = data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2), label="do")
        rest = [v for v in rest if v not in do]
        edges = [(a, b) for a, b in base.edges if not (designed and a in do and b == y)]
        dag = Dag(base.nodes, edges, latent)
        observed = frozenset(draw_subset(data, rest, "observed") if data.draw(st.booleans()) else ())
        between = {v for v in rest if v in dag.ancestors(y) and dag.ancestors(v) & do}
        M = frozenset(between if designed else draw_subset(data, rest, "M"))
        sets = data.draw(st.sampled_from([None, (frozenset(draw_subset(data, rest, "adjust")),)]))
        method = data.draw(st.sampled_from(["auto", "frontdoor", "backdoor"]), label="method")
        do_vars = tuple(v for v in dag.topological_order if v in do)

        def rule2(x):
            W = frozenset(do_vars) - {x}
            return cut_edges(dag, into={x}, out_of=W), {y}, W, {x} | observed

        def backdoor(x, Z):
            return cut_edges(dag, out_of={x}), {x}, {y}, Z

        def is_open(trail, problem):
            cut, X, Y, Z = problem
            return open_trail_problem(cut, trail, X, Y, Z) is None

        want = None
        if method != "backdoor":
            for x in do_vars:
                W = frozenset(do_vars) - {x}
                if frontdoor_failure(dag, x, y, M, W | observed) is None and (
                    not W or reference_open_trail(*rule2(x)) is None
                ):
                    want = ("frontdoor", x, W | observed)
                    break
        if want is None and method != "frontdoor" and len(do_vars) == 1 and not observed:
            x = do_vars[0]
            below = dag.descendants(x)
            for Z in sets or (frozenset(), frozenset(pool) - {x, y} - below):
                if not Z & below and reference_open_trail(*backdoor(x, Z)) is None:
                    want = ("backdoor", x, Z)
                    break
        try:
            assert _choose(dag, y, do_vars, observed, method, M, sets) == want
            return
        except CriterionNotMet as exc:
            assert want is None
            witness = exc.witness
        # The witness of the last criterion tried.
        if method == "frontdoor":
            x = do_vars[-1]
            failure = frontdoor_failure(dag, x, y, M, (frozenset(do_vars) - {x}) | observed)
            assert witness == failure or failure is None and is_open(witness, rule2(x))
        elif len(do_vars) > 1 or observed:
            assert witness == "back-door adjustment needs one do-variable and no observed variables"
        else:
            x, Z = do_vars[0], sets[0] if sets else frozenset()
            bad = sorted(Z & dag.descendants(x))
            assert witness == bad or not bad and is_open(witness, backdoor(x, Z))


def draw_disjoint(data, pool, count):
    """``count`` disjoint nonempty sets of ``pool`` and one more, possibly
    empty: the first ``count`` members of a random order seed the nonempty
    sets, and every other member joins one of the ``count + 1`` or none."""
    order = data.draw(st.permutations(pool), label="order")
    sets = [{v} for v in order[:count]] + [set(), set()]
    for v in order[count:]:
        sets[data.draw(st.integers(0, count + 1), label=v)].add(v)
    return sets[:-1]


class TestChainRuleViews:
    """The capacities and the confounding gap are views of
    ``chain_decompositions``, and CMI reads each entropy once: every
    number equals the one of the separate computations it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_floats_as_separate_computations(self, data):
        scm, pool = draw_query_model(data)
        j = infer(scm, pool)
        if len(pool) >= 3:
            yh, xc, yf, _ = draw_disjoint(data, pool, 3)
            assert rating_comparison(j, yh, xc, yf) == reference_rating_comparison(j, yh, xc, yf)
        X, Y, Z = draw_disjoint(data, pool, 2)
        assert conditional_mutual_information(j, X, Y, Z) == (
            reference_conditional_mutual_information(j, X, Y, Z)
        )
        u = sorted(scm.dag.latent)
        if u:
            x, y = data.draw(st.permutations(pool), label="x, y")[:2]
            assert confounding_gap(scm, x, y, u[0]) == reference_confounding_gap(scm, x, y, u[0])

    def test_chain_rule_checked_for_both_views(self, monkeypatch):
        # The views hold no check of their own: a CMI that drifts by 1e-6
        # must still be caught, by chain_decompositions.  It reads each CMI
        # through the shared formula, not the public function.
        from causalrating import info

        real = info._cmi
        monkeypatch.setattr(info, "_cmi", lambda *a: real(*a) + 1e-6)
        scm = random_scm(template("Fig2b"), 0)
        with pytest.raises(NumericalConsistencyError, match="chain rule"):
            rating_comparison(observed_joint(scm), "Y_h", "X_c", "Y_f")
        with pytest.raises(NumericalConsistencyError, match="chain rule"):
            confounding_gap(scm, "X_c", "Y_f", "U")
