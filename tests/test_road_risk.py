"""The built-in road-risk scenario and its oracles."""

import dataclasses
import json
import math

import numpy as np
import pytest

from causalrating import (
    Dag,
    DiscreteScm,
    EffectQuery,
    NOISE,
    NegativeTta,
    RoadRiskScenario,
    build_scenario,
    canonical_scenario,
    chain_factorization_residual,
    condition,
    default_scenario,
    do_distribution,
    exact_joint,
    ground_truth_effect,
    marginal,
    markov_consistency,
    mutual_information,
    naive_effect,
    noise_verdict,
    observational_joint,
    phyd_effect,
    scenario_dag,
    scenario_from_json,
    scenario_to_json,
    simulate_journeys,
    tta_discretize,
)
from causalrating.errors import ParameterError, ValueOutOfRange
from causalrating import empirical_joint, frontdoor_adjust, random_scm
from causalrating.graph import frontdoor_failure
from helpers import live_cells, reference_chain_factorization_residual

THRESHOLDS = (4.0, 2.0, 0.5)


def null_confounder(s: RoadRiskScenario) -> RoadRiskScenario:
    cs = dict(s.confounder_strength)
    cs["decision_shift"] = 0.0
    cs["hazard"] = 0.0
    return dataclasses.replace(s, confounder_strength=cs)


def naive_forward(s: RoadRiskScenario) -> np.ndarray:
    """P(Y_f | J_o, D) by a forward pass: the chance of never leaving
    peril level 0 is a product over stages, and U is weighed by Bayes'
    rule on P(U) P(D | J_o, U)."""
    cs = s.confounder_strength
    probs = np.zeros((2, s.decision_card, 2))
    probs[0, :, 0] = 1.0  # no journey, no claim
    for d in range(s.decision_card):
        safe = math.prod(1.0 - np.dot(s.traffic_dist, stage[d]) for stage in s.escalation)
        weights, claims = [], []
        for u, pu in ((0, 1.0 - cs["u_prob"]), (1, cs["u_prob"])):
            pd = s.decision_base[1][d] * (1.0 - cs["decision_shift"] * u)
            pd += cs["decision_shift"] * u * (d == s.decision_card - 1)
            weights.append(pu * pd)
            claims.append(sum(
                mass * min(1.0, s.accident_base[level] + cs["hazard"] * u)
                for level, mass in ((0, safe), (1, 1.0 - safe))
            ))
        p = np.dot(weights, claims) / sum(weights)
        probs[1, d] = (1.0 - p, p)
    return probs


class TestTtaDiscretize:
    def test_above_all_thresholds(self):
        assert tta_discretize(10.0, THRESHOLDS) == 0

    def test_below_last_threshold(self):
        assert tta_discretize(0.4, THRESHOLDS) == 3

    def test_boundary_goes_to_safer_state(self):
        assert tta_discretize(2.0, THRESHOLDS) == 1
        assert tta_discretize(4.0, THRESHOLDS) == 0
        assert tta_discretize(0.5, THRESHOLDS) == 2

    def test_monotone_in_tta(self):
        sweep = np.linspace(0.0, 6.0, 601)
        states = [tta_discretize(float(t), THRESHOLDS) for t in sweep]
        assert all(a >= b for a, b in zip(states, states[1:]))

    def test_negative_tta(self):
        with pytest.raises(NegativeTta):
            tta_discretize(-0.1, THRESHOLDS)

    def test_nan_tta_rejected(self):
        with pytest.raises(ParameterError):
            tta_discretize(float("nan"), THRESHOLDS)

    def test_non_decreasing_thresholds_rejected(self):
        with pytest.raises(ParameterError):
            tta_discretize(1.0, (2.0, 2.0))
        with pytest.raises(ParameterError):
            tta_discretize(1.0, (1.0, 3.0))


class TestScenarioValidation:
    def test_default_is_valid(self):
        s = default_scenario()
        assert s.depth == 2
        assert s.schema_version == 1

    def test_bad_threshold_order(self):
        s = default_scenario()
        with pytest.raises(ParameterError):
            dataclasses.replace(s, tta_thresholds=(0.5, 2.0, 4.0))

    def test_bad_probability(self):
        s = default_scenario()
        with pytest.raises(ParameterError):
            dataclasses.replace(s, traffic_dist=(1.2, -0.2))

    def test_non_finite_field_rejected(self):
        s = default_scenario()
        for field, value in (
            ("traffic_dist", (float("nan"), 0.35)),
            ("y_h_prior", (float("nan"), 0.28, 0.10)),
            ("tta_thresholds", (float("inf"), 2.0, 1.0)),
            ("escalation", ((s.escalation[0][0], s.escalation[0][1], (0.1, float("nan"))),
                            s.escalation[1])),
        ):
            with pytest.raises(ParameterError, match=field):
                dataclasses.replace(s, **{field: value})

    def test_unknown_confounder_key_rejected(self):
        s = default_scenario()
        cs = {**s.confounder_strength, "bogus": 5}
        with pytest.raises(ParameterError, match="bogus"):
            dataclasses.replace(s, confounder_strength=cs)

    def test_hazard_overflow_rejected(self):
        s = default_scenario()
        cs = dict(s.confounder_strength)
        cs["hazard"] = 0.9
        with pytest.raises(ParameterError):
            dataclasses.replace(s, accident_base=(0.2, 0.6), confounder_strength=cs)

    def test_depth_must_be_positive(self):
        with pytest.raises(ParameterError):
            canonical_scenario(0)


class TestScenarioJson:
    def test_round_trip(self):
        s = default_scenario()
        doc = json.loads(json.dumps(scenario_to_json(s)))
        assert scenario_from_json(doc) == s

    def test_schema_version_mandatory(self):
        doc = scenario_to_json(default_scenario())
        del doc["schema_version"]
        with pytest.raises(ParameterError):
            scenario_from_json(doc)

    def test_unknown_schema_version(self):
        doc = scenario_to_json(default_scenario())
        doc["schema_version"] = 2
        with pytest.raises(ParameterError):
            scenario_from_json(doc)

    def test_non_numeric_value_rejected(self):
        doc = scenario_to_json(default_scenario())
        doc["traffic_dist"] = ["a", 0.35]
        with pytest.raises(ParameterError):
            scenario_from_json(doc)

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_reader_accepts_what_the_writer_emits(self, depth):
        s = canonical_scenario(depth)
        doc = scenario_to_json(s)
        back = scenario_from_json(json.loads(json.dumps(doc)))
        assert back == s
        assert scenario_to_json(back) == doc

    def test_unknown_field_rejected(self):
        doc = scenario_to_json(default_scenario())
        doc["surprise"] = 1
        with pytest.raises(ParameterError):
            scenario_from_json(doc)


class TestBuildScenario:
    def test_emits_valid_model(self):
        s = default_scenario()
        scm = build_scenario(s)
        j = exact_joint(scm)
        assert abs(float(j.probs.sum()) - 1.0) < 1e-9

    def test_frontdoor_criterion_holds(self):
        s = default_scenario()
        assert frontdoor_failure(scenario_dag(s), "D", "Y_f", set(s.states)) is None

    def test_flat_escalation_is_decision_independent(self):
        s = canonical_scenario(1)
        esc = tuple(
            tuple(tuple(0.5 for _ in row) for row in stage) for stage in s.escalation
        )
        s = null_confounder(dataclasses.replace(s, escalation=esc))
        scm = build_scenario(s)
        dists = [
            do_distribution(scm, "Y_f", {"J_o": 1, "D": d})
            for d in range(s.decision_card)
        ]
        for d in dists[1:]:
            assert np.abs(d - dists[0]).max() < 1e-12

    def test_no_journeys_no_accidents(self):
        s = dataclasses.replace(default_scenario(), journey_rate=(0.0, 0.0, 0.0))
        j = exact_joint(build_scenario(s))
        assert marginal(j, {"Y_f"}).probs[1] < 1e-15

    def test_null_confounder_naive_equals_oracle(self):
        s = null_confounder(default_scenario())
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        ne = naive_effect(s)
        for cfg, g, dist in live_cells(ne):
            assert np.abs(dist - gt.dist(cfg, g)).max() < 1e-9


class TestMarkovConsistency:
    def test_default_scenario_structural_zero(self):
        scm = build_scenario(default_scenario())
        assert markov_consistency(scm) < 1e-9

    def test_depth_one(self):
        scm = build_scenario(canonical_scenario(1))
        assert markov_consistency(scm) < 1e-9

    def test_leaky_traffic_negative_control(self):
        # A deliberate extra edge from stage-0 traffic into stage-1
        # peril must be flagged, also when it acts under one decision
        # value only.
        dag = Dag(
            ["D", "T_0", "T_1", "S_0", "S_1"],
            [
                ("D", "S_1"),
                ("T_0", "S_0"),
                ("T_0", "S_1"),
                ("T_1", "S_1"),
                ("S_0", "S_1"),
            ],
            [],
        )
        card = {v: 2 for v in dag.nodes}
        for leaks_under in ((0, 1), (1,)):
            # S_1 parents in topological order: (D, T_0, T_1, S_0)
            s1 = []
            for d in range(2):
                for t0 in range(2):
                    for t1 in range(2):
                        for s0 in range(2):
                            p = (0.9 if t0 else 0.1) if d in leaks_under else 0.5
                            s1.append([1 - p, p])
            cpt = {
                "D": [[0.5, 0.5]],
                "T_0": [[0.5, 0.5]],
                "T_1": [[0.5, 0.5]],
                "S_0": [[0.7, 0.3], [0.4, 0.6]],
                "S_1": s1,
            }
            scm = DiscreteScm(dag, card, cpt)
            assert markov_consistency(scm) > 0.01


class TestSimulateJourneys:
    def test_determinism(self):
        s = default_scenario()
        a = simulate_journeys(s, 1000, seed=7)
        b = simulate_journeys(s, 1000, seed=7)
        assert np.array_equal(a.rows, b.rows)

    def test_stay_home_rows_are_safe(self):
        s = default_scenario()
        ds = simulate_journeys(s, 5000, seed=1)
        home = ds.column("J_o") == 0
        assert home.any()
        assert not ds.column("Y_f")[home].any()
        for st in s.states:
            assert not ds.column(st)[home].any()

    def test_absorbing_trajectories(self):
        s = default_scenario()
        ds = simulate_journeys(s, 5000, seed=2)
        out = ds.column("J_o") == 1
        for a, b in zip(s.states, s.states[1:]):
            assert (ds.column(a)[out] <= ds.column(b)[out]).all()

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueOutOfRange):
            simulate_journeys(default_scenario(), 0, seed=1)

    def test_empirical_accident_rate(self):
        s = default_scenario()
        ds = simulate_journeys(s, 100_000, seed=3)
        exact = marginal(exact_joint(build_scenario(s)), {"Y_f"}).probs[1]
        emp = float((ds.column("Y_f") == 1).mean())
        assert abs(emp - exact) < 0.01


class TestGroundTruth:
    def test_zero_mass_strata_skipped(self):
        # S_0 is a point mass at 0, so only its 0 stratum has cells.
        gt = ground_truth_effect(default_scenario(), EffectQuery("Y_f", {"D"}, {"S_0"}))
        assert [(cfg, g) for cfg, g, _ in live_cells(gt)] == [((d,), (0,)) for d in range(3)]

    def test_staying_home_is_safe(self):
        gt = ground_truth_effect(default_scenario(), EffectQuery("Y_f", {"J_o"}))
        assert np.allclose(gt.dist((0,)), [1.0, 0.0])

    def test_aggression_raises_risk(self):
        gt = ground_truth_effect(
            default_scenario(), EffectQuery("Y_f", frozenset({"J_o", "D"}))
        )
        acc = [float(gt.dist((1, d))[1]) for d in range(3)]
        assert acc[0] < acc[1] < acc[2]

    def test_null_confounder_oracle_equals_conditioning(self):
        s = null_confounder(default_scenario())
        j = observational_joint(s)
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        for cfg, _, dist in live_cells(gt):
            want = marginal(
                condition(j, {"J_o": cfg[0], "D": cfg[1]}), {"Y_f"}
            ).probs
            assert np.abs(dist - want).max() < 1e-9


class TestPhydEffect:
    def test_matches_oracle(self):
        s = default_scenario()
        pe = phyd_effect(s)
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        for cfg, g, dist in live_cells(pe):
            assert np.abs(dist - gt.dist(cfg, g)).max() < 1e-9

    def test_naive_estimate_biased(self):
        s = default_scenario()
        ne = naive_effect(s)
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        worst = max(
            0.5 * float(np.abs(dist - gt.dist(cfg, g)).sum()) for cfg, g, dist in live_cells(ne)
        )
        assert worst > 0.005

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_naive_default_matches_observational_joint(self, depth):
        s = canonical_scenario(depth)
        want = naive_effect(s, joint=observational_joint(s)).probs
        assert np.abs(naive_effect(s).probs - want).max() < 1e-12
        assert np.abs(naive_forward(s) - want).max() < 1e-12

    @pytest.mark.parametrize("depth", [21, 40])
    def test_naive_default_past_the_observational_joint(self, depth):
        # observational_joint(canonical_scenario(21)) has 150,994,944 cells.
        s = canonical_scenario(depth)
        assert np.abs(naive_effect(s).probs - naive_forward(s)).max() < 1e-12

    def test_columns_normalized(self):
        pe = phyd_effect(default_scenario())
        for _, _, dist in live_cells(pe):
            assert abs(float(dist.sum()) - 1.0) < 1e-9

    def test_null_confounder_equals_naive(self):
        s = null_confounder(default_scenario())
        pe = phyd_effect(s)
        ne = naive_effect(s)
        for cfg, g, dist in live_cells(pe):
            assert np.abs(dist - ne.dist(cfg, g)).max() < 1e-9

    def test_effect_table_json(self):
        doc = phyd_effect(default_scenario()).to_json()
        assert doc["outcome"] == "Y_f"
        assert doc["do_vars"] == ["J_o", "D"]
        assert len(doc["cells"]) == 6


class TestChainFactorization:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_matches_reference_loop(self, depth):
        s = canonical_scenario(depth)
        scm = build_scenario(s)
        want = max(reference_chain_factorization_residual(s, d, scm) for d in range(s.decision_card))
        assert chain_factorization_residual(scm) == want

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_matches_reference_loop_off_the_chain(self, depth):
        # Skip edges S_0 -> S_2 and S_0 -> Y_f break the product form,
        # so the residual is far from zero.
        s = canonical_scenario(depth)
        states = list(s.states)
        edges = [("D", v) for v in states] + list(zip(states, states[1:]))
        edges += [(states[-1], "Y_f"), ("S_0", "Y_f")] + ([("S_0", "S_2")] if depth >= 2 else [])
        scm = random_scm(Dag(["D", *states, "Y_f"], edges, []), depth, card={"D": 3})
        want = [reference_chain_factorization_residual(s, d, scm) for d in range(3)]
        assert min(want) > 1e-3
        assert chain_factorization_residual(scm) == max(want)

    @pytest.mark.parametrize("d_star", range(3))
    def test_sweeps_every_decision_value(self, d_star):
        # S_0 starts safe under every decision value but d_star, so the
        # skip edge S_0 -> Y_f breaks the product form under D = d_star
        # only, and a sweep that skips any value misses it.
        s = canonical_scenario(2)
        states = list(s.states)
        edges = [("D", v) for v in states] + list(zip(states, states[1:]))
        edges += [(states[-1], "Y_f"), ("S_0", "Y_f")]
        scm = random_scm(Dag(["D", *states, "Y_f"], edges, []), 7, card={"D": 3})
        cpt = {v: np.array(scm.cpt[v]) for v in scm.dag.nodes}
        for d in range(3):
            if d != d_star:
                cpt["S_0"][d] = [1.0, 0.0]
        scm = DiscreteScm(scm.dag, scm.card, cpt)
        per_d = [reference_chain_factorization_residual(s, d, scm) for d in range(3)]
        assert per_d[d_star] > 1e-3
        assert max(r for d, r in enumerate(per_d) if d != d_star) < 1e-12
        assert chain_factorization_residual(scm) == max(per_d)

    def test_residual_negligible_all_depths(self):
        for depth in (1, 2, 3):
            assert chain_factorization_residual(build_scenario(canonical_scenario(depth))) < 1e-12

    def test_plain_chain_with_safe_start(self):
        # The product form also holds on the bare decision chain when
        # the first state is a point mass.
        from causalrating import random_scm, template

        dag = template("Fig4Chain", 2)
        scm = random_scm(dag, 4)
        cpt = {v: np.array(scm.cpt[v]) for v in dag.nodes}
        cpt["S_0"] = np.tile([1.0, 0.0], (cpt["S_0"].shape[0], 1))
        scm = DiscreteScm(dag, scm.card, cpt)
        chain = ["S_0", "S_1", "S_2", "S_3"]
        for d in range(2):
            jd = condition(exact_joint(scm), {"D": d})
            lhs = marginal(jd, set(chain))
            for cfg in np.ndindex(*(2,) * len(chain)):
                prod, defined = 1.0, True
                for a, b, va, vb in zip(chain, chain[1:], cfg, cfg[1:]):
                    m = marginal(jd, {a, b})
                    p = m.probs if m.vars == (a, b) else m.probs.T
                    if p[va].sum() <= 0:
                        defined = False
                        break
                    prod *= p[va, vb] / p[va].sum()
                if not defined:
                    continue
                idx = tuple(cfg[chain.index(v)] for v in lhs.vars)
                assert abs(float(lhs.probs[idx]) - prod) < 1e-12


class TestDeprecationHeadline:
    def test_history_irrelevant_under_intervention_yet_predictive(self):
        s = default_scenario()
        q = EffectQuery("Y_f", frozenset({"J_o", "D"}), frozenset({"Y_h"}))
        strat = ground_truth_effect(s, q)
        plain = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        for cfg, g, dist in live_cells(strat):
            assert np.abs(dist - plain.dist(cfg)).max() < 1e-9
        j = observational_joint(s)
        assert mutual_information(j, {"Y_h"}, {"Y_f"}) > 0.001

    def test_verdict_noise(self):
        s = default_scenario()
        v = noise_verdict(scenario_dag(s), "Y_h", "Y_f", {"J_o", "D"})
        assert v.verdict == NOISE


class TestEmpiricalPlugIn:
    def test_empirical_frontdoor_close_to_oracle(self):
        s = default_scenario()
        ds = simulate_journeys(s, 100_000, seed=17)
        obs = ("Y_h", "J_o", "D", *s.states, "Y_f")
        j = empirical_joint(ds, obs)
        raw = frontdoor_adjust(
            j, scenario_dag(s), "D", "Y_f", set(s.states), given={"J_o"}
        )
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        for (d, g), dist in raw.items():
            oracle = gt.dist((g[0], d))
            assert 0.5 * float(np.abs(dist - oracle).sum()) < 0.02
