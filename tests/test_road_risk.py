"""The built-in road-risk scenario and its oracles."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
    conditional_mutual_information,
    default_scenario,
    do_distribution,
    exact_joint,
    ground_truth_effect,
    infer,
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
    write_journeys,
)
from causalrating.errors import ParameterError, UnknownVariable, ValueOutOfRange
from causalrating import (
    cli, confounded_mediation_example, dataset_to_csv, empirical_joint, frontdoor_adjust, random_scm, sample,
)
from causalrating.graph import d_separated, frontdoor_failure
from causalrating import scm as scm_module
from causalrating.road_risk import _SCENARIO_DOC, _chain, _factorization_residual
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    csv_writer_bytes,
    live_cells,
    reference_build_scenario,
    reference_canonical_escalation,
    reference_chain_factorization_residual,
    reference_markov_consistency,
    reference_sample_rows,
    sparse_scm,
)

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

    def test_integer_past_the_float_range(self):
        # math.isnan raised a bare OverflowError on both; each comparison
        # of an int with a float is exact.
        assert tta_discretize(10**400, (4.0, 2.0, 1.0)) == 0
        with pytest.raises(NegativeTta):
            tta_discretize(-(10**400), (4.0, 2.0, 1.0))

    def test_nan_tta_rejected(self):
        with pytest.raises(ParameterError):
            tta_discretize(float("nan"), THRESHOLDS)

    @pytest.mark.parametrize("tta", [True, False, "3", None, 1 + 0j])
    def test_bool_or_non_real_tta_rejected(self, tta):
        # A bool is not a reading, and no other type may reach the comparisons.
        with pytest.raises(ParameterError, match="TTA must be a number"):
            tta_discretize(tta, (2.0, 1.0))

    @pytest.mark.parametrize(
        "thresholds", [[True], [4.0, np.bool_(True)], ["4", "2", "1"], [b"4"], [4.0, math.inf], [math.nan]]
    )
    def test_threshold_that_is_not_a_finite_number_rejected(self, thresholds):
        # A bool was read as 1.0 and a string or bytes as the number it spells.
        with pytest.raises(ParameterError, match=r"^thresholds\[\d\]: expected a finite number, got "):
            tta_discretize(0.5, thresholds)

    # Bytes were iterated as integers, so b"421" read as (52.0, 50.0, 49.0);
    # a nested or scalar threshold escaped as TypeError.
    @pytest.mark.parametrize("thresholds", [b"421", [[4.0]], 4.0])
    def test_thresholds_that_are_not_an_array_of_numbers_rejected(self, thresholds):
        with pytest.raises(ParameterError, match=r"^thresholds(\[0\])?: expected a"):
            tta_discretize(0.5, thresholds)

    # The scenario's threshold rule; the message named no value.
    @pytest.mark.parametrize("thresholds", [(), (2.0, 2.0), (1.0, 3.0), (2.0, 0.0)])
    def test_thresholds_share_the_scenario_rule(self, thresholds):
        with pytest.raises(ParameterError) as raised:
            tta_discretize(0.5, thresholds)
        assert str(raised.value) == f"thresholds: expected positive, strictly decreasing numbers, got {thresholds}"

    def test_non_decreasing_thresholds_rejected(self):
        with pytest.raises(ParameterError):
            tta_discretize(1.0, (2.0, 2.0))
        with pytest.raises(ParameterError):
            tta_discretize(1.0, (1.0, 3.0))


# One bad value per rule of the shipped depth-2 scenario (3 decisions, 2
# traffic values, 3 claim-history values): the field, the index of the part
# replaced, its new value (or a function of the old) and the start of the
# message.  Each value was refused before too, but no length message named
# the misread part.
SCENARIO_RULES = [
    ("tta_thresholds", (), (4.0, 2.0), "tta_thresholds: expected an array of 3, got (4.0, 2.0)"),
    ("journey_rate", (), (0.9, 0.72), "journey_rate: expected an array of 3, got (0.9, 0.72)"),
    ("decision_base", (), lambda a: a[:1], "decision_base: expected an array of 2, got ((0.45, 0.4, 0.15),)"),
    ("decision_base", (1,), (0.5, 0.5), "decision_base[1]: expected an array of 3, got (0.5, 0.5)"),
    ("traffic_dist", (), (0.5, 0.3, 0.2), "traffic_dist: expected an array of 2, got (0.5, 0.3, 0.2)"),
    ("escalation", (), lambda a: a[:1], "escalation: expected an array of 2, got "),
    ("escalation", (1,), lambda a: a[:2], "escalation[1]: expected an array of 3, got "),
    ("escalation", (1, 2), (0.1,), "escalation[1][2]: expected an array of 2, got (0.1,)"),
    ("accident_base", (), (0.015,), "accident_base: expected an array of 2, got (0.015,)"),
    ("y_h_prior", (), (1.0,), "y_h_prior: expected an array of 2 or more, got (1.0,)"),
    ("y_h_prior", (), (), "y_h_prior: expected an array of 2 or more, got ()"),
    ("y_h_prior", (), (0.62, 0.28, 0.2), "y_h_prior: expected a distribution, got (0.62, 0.28, 0.2)"),
    ("y_h_prior", (), (0.9, 0.2, -0.1), "y_h_prior: expected a distribution, got (0.9, 0.2, -0.1)"),
    ("traffic_dist", (), (0.65, 0.3), "traffic_dist: expected a distribution, got (0.65, 0.3)"),
    ("decision_base", (1,), (0.5, 0.35, 0.1), "decision_base[1]: expected a distribution, got (0.5, 0.35, 0.1)"),
    ("journey_rate", (1,), 1.2, "journey_rate[1]: expected a probability, got 1.2"),
    ("escalation", (0, 2, 1), -0.1, "escalation[0][2][1]: expected a probability, got -0.1"),
    ("accident_base", (0,), -0.5, "accident_base[0]: expected a probability, got -0.5"),
    ("confounder_strength", ("u_prob",), 1.5, "confounder_strength.u_prob: expected a probability, got 1.5"),
    ("confounder_strength", ("decision_shift",), -0.5,
     "confounder_strength.decision_shift: expected a probability, got -0.5"),
    ("confounder_strength", ("hazard",), 0.5,
     "confounder_strength.hazard: expected <= 1 - max(accident_base), got 0.5"),
    ("tta_thresholds", (), (1.0, 2.0, 4.0), "tta_thresholds: expected positive, strictly decreasing numbers, got "),
    ("tta_thresholds", (), (4.0, 2.0, 2.0), "tta_thresholds: expected positive, strictly decreasing numbers, got "),
    ("tta_thresholds", (), (4.0, 2.0, -1.0), "tta_thresholds: expected positive, strictly decreasing numbers, got "),
    ("depth", (), 0, "depth: expected an integer >= 1, got 0"),
    ("decision_card", (), 1, "decision_card: expected an integer >= 2, got 1"),
    ("traffic_card", (), 1, "traffic_card: expected an integer >= 2, got 1"),
    ("schema_version", (), 2, "schema_version: expected 1, got 2"),
]


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

    def test_missing_confounder_key_rejected(self):
        s = default_scenario()
        cs = {k: v for k, v in s.confounder_strength.items() if k != "hazard"}
        with pytest.raises(ParameterError, match=r"^confounder_strength\.hazard: missing field$"):
            dataclasses.replace(s, confounder_strength=cs)

    # Each escaped as TypeError, or (bytes) was read as the numbers of its bytes.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("y_h_prior", 0.5),
            ("y_h_prior", None),
            ("y_h_prior", {"a": 1.0}),
            ("y_h_prior", np.array([[0.62], [0.28], [0.10]])),
            ("escalation", (((0.1, 0.2), 0.3, (0.1, 0.2)), ((0.1, 0.2),) * 3)),
            ("confounder_strength", None),
            ("tta_thresholds", b"\x04\x02\x01"),
        ],
    )
    def test_value_not_of_its_declared_kind_rejected(self, field, value):
        with pytest.raises(ParameterError, match=rf"^{field}(\[\d\])*: expected an? "):
            dataclasses.replace(default_scenario(), **{field: value})

    def test_hazard_overflow_rejected(self):
        s = default_scenario()
        cs = dict(s.confounder_strength)
        cs["hazard"] = 0.9
        with pytest.raises(ParameterError):
            dataclasses.replace(s, accident_base=(0.2, 0.6), confounder_strength=cs)

    @pytest.mark.parametrize(
        "field,index,part,message", SCENARIO_RULES, ids=[m.split(", got")[0] for *_, m in SCENARIO_RULES]
    )
    def test_each_rule_refuses_its_bad_value_by_path(self, field, index, part, message):
        s = default_scenario()
        with pytest.raises(ParameterError) as raised:
            dataclasses.replace(s, **{field: replaced(getattr(s, field), index, part)})
        assert str(raised.value).startswith(message), str(raised.value)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_an_array_of_the_wrong_length_is_named_by_its_path(self, data):
        s = data.draw(scenarios())
        field = data.draw(st.sampled_from(
            ["tta_thresholds", "journey_rate", "decision_base", "traffic_dist", "escalation", "accident_base"]))
        value, index = getattr(s, field), ()
        for _ in range(data.draw(st.integers(0, {"decision_base": 1, "escalation": 2}.get(field, 0)))):
            index += (data.draw(st.integers(0, len(value) - 1)),)
            value = value[index[-1]]
        part = value[:-1] if data.draw(st.booleans(), label="shorten") else value + value[-1:]
        with pytest.raises(ParameterError) as raised:
            dataclasses.replace(s, **{field: replaced(getattr(s, field), index, part)})
        path = field + "".join(f"[{i}]" for i in index)
        assert str(raised.value).startswith(f"{path}: expected an array of {len(value)}, got "), str(raised.value)

    def test_depth_must_be_positive(self):
        with pytest.raises(ParameterError):
            canonical_scenario(0)

    # NumPy raised TypeError on 1.5 and 2.0, and ValueError on NaN and infinity.
    @pytest.mark.parametrize("depth", [1.5, 2.0, math.nan, math.inf])
    def test_canonical_depth_must_be_an_integer(self, depth):
        with pytest.raises(ParameterError, match="^depth: expected an integer, got "):
            canonical_scenario(depth)

    # 10**5000 raised a bare ValueError from NumPy, and 2000 built its
    # escalation before its last threshold, 0.0, was refused.
    @pytest.mark.parametrize("depth", [1075, 2000, 10**9, 10**5000], ids=["1075", "2000", "1e9", "1e5000"])
    def test_canonical_depth_past_the_threshold_underflow_refused_first(self, depth):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="^depth: expected an integer from 1 to 1074, got "):
            canonical_scenario(depth)
        assert time.perf_counter() - start < 0.1

    def test_canonical_deepest_depth_accepted(self):
        assert canonical_scenario(1074).tta_thresholds[-1] > 0.0

    def test_one_claim_history_value_refused(self):
        # Accepted once, then build_scenario raised ShapeError: card.Y_h: ...
        with pytest.raises(ParameterError, match=r"^y_h_prior: expected an array of 2 or more, got \(1\.0,\)$"):
            dataclasses.replace(default_scenario(), y_h_prior=(1.0,), journey_rate=(0.5,))

    def test_python_and_json_misreads_share_one_message(self):
        with pytest.raises(ParameterError) as python:
            dataclasses.replace(default_scenario(), depth=2.0)
        with pytest.raises(ParameterError) as doc:
            scenario_from_json({**scenario_to_json(default_scenario()), "depth": 2.0})
        assert str(python.value) == "depth: expected an integer, got 2.0"
        assert str(doc.value) == str(python.value)

    # Each was accepted, then failed in build_scenario with a TypeError or
    # was written by scenario_to_json as a document its reader refuses.
    @pytest.mark.parametrize(
        "field,value",
        [("depth", True), ("decision_card", 3.0), ("traffic_card", 2.0), ("schema_version", 2)],
    )
    def test_integer_field_refused(self, field, value):
        with pytest.raises(ParameterError, match=field):
            dataclasses.replace(canonical_scenario(2), **{field: value})

    def test_numpy_integer_field_kept_as_int(self):
        s = dataclasses.replace(canonical_scenario(2), decision_card=np.int64(3))
        assert type(s.decision_card) is int
        assert scenario_from_json(scenario_to_json(s)) == s


def replaced(value, index: tuple, part):
    """The nested tuples or object ``value`` with the part at ``index``
    replaced by ``part``, or by ``part(old)`` when it is a function."""
    if not index:
        return part(value) if callable(part) else part
    k, new = index[0], replaced(value[index[0]], index[1:], part)
    return {**value, k: new} if isinstance(value, dict) else (*value[:k], new, *value[k + 1:])


FLOAT_FIELDS = [f for f, kind in _SCENARIO_DOC.items() if type(kind) in (list, dict)]


def map_leaves(value, f):
    """A scenario float field with ``f`` applied to every number."""
    if isinstance(value, dict):
        return {k: f(v) for k, v in value.items()}
    if value and isinstance(value[0], tuple):
        return tuple(map_leaves(v, f) for v in value)
    return tuple(map(f, value))


class TestScenarioJson:
    def test_round_trip(self):
        s = default_scenario()
        doc = json.loads(json.dumps(scenario_to_json(s)))
        assert scenario_from_json(doc) == s

    # Each field given as exact fractions is kept as floats, so the writer
    # emits JSON numbers its reader takes back; confounder_strength kept
    # the fractions, and scenario_to_json raised TypeError.
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_float_field_stored_as_floats_round_trips(self, field):
        s = default_scenario()
        given = dataclasses.replace(s, **{field: map_leaves(getattr(s, field), Fraction)})
        assert given == s
        assert map_leaves(getattr(given, field), type) == map_leaves(getattr(s, field), lambda v: float)
        assert scenario_from_json(json.loads(json.dumps(scenario_to_json(given)))) == s

    # float(True) is 1.0, so a bool was read as a probability or a threshold;
    # scenario_to_json then wrote ``true``, which scenario_from_json refuses.
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_bool_in_float_field_refused(self, field):
        s = default_scenario()
        with pytest.raises(ParameterError, match=rf"^{field}(\[0\])*(\.\w+)?: expected a finite number, got True$"):
            dataclasses.replace(s, **{field: map_leaves(getattr(s, field), lambda v: True)})

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


@st.composite
def scenarios(draw):
    """Valid scenarios of every shape: depths 1-12, 2-4 decisions, 2-3
    traffic values and 2-4 claim-history values, with probabilities that
    take 0 and 1 as well as values between."""
    depth = draw(st.integers(1, 12), label="depth")
    dc, tc, hc = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 4))
    prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

    def probs(*shape):
        if len(shape) == 1:
            return [draw(prob) for _ in range(shape[0])]
        return [probs(*shape[1:]) for _ in range(shape[0])]

    def dist(n):
        w = probs(n)
        return [x / sum(w) for x in w] if sum(w) > 0 else [1.0] + [0.0] * (n - 1)

    hazard = draw(prob, label="hazard")
    return RoadRiskScenario(
        depth=depth,
        decision_card=dc,
        traffic_card=tc,
        tta_thresholds=[4.0 * 0.5**i for i in range(depth + 1)],
        y_h_prior=dist(hc),
        journey_rate=probs(hc),
        decision_base=[dist(dc), dist(dc)],
        traffic_dist=dist(tc),
        escalation=probs(depth, dc, tc),
        accident_base=[draw(st.sampled_from([0.0, 1.0 - hazard]) | st.floats(0.0, 1.0 - hazard))
                       for _ in range(2)],
        confounder_strength={"u_prob": draw(prob), "decision_shift": draw(prob), "hazard": hazard},
    )


class TestBuildScenario:
    @settings(max_examples=150, deadline=None)
    @given(s=scenarios())
    def test_matches_the_row_by_row_oracle(self, s):
        got, want = build_scenario(s), reference_build_scenario(s)
        for v in want.dag.nodes:
            assert got.parents[v] == want.parents[v]
            assert np.array_equal(got.cpt[v], want.cpt[v]), v

    def test_canonical_fixture_matches_the_oracle(self):
        # The escalation is one broadcast product; it must keep the
        # oracle's left-to-right order to the last bit.
        for depth in range(1, 61):
            assert canonical_scenario(depth).escalation == reference_canonical_escalation(depth)

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

    def test_traffic_paired_with_its_state_by_name(self):
        # The chain starts at S_1, so stage k is not at list index k; the
        # leak T_1 -> S_2 must still be measured against S_2.
        dag = Dag(
            ["D", "T_1", "T_2", "S_1", "S_2", "Y_f"],
            [
                ("D", "S_1"), ("T_1", "S_1"), ("D", "S_2"), ("S_1", "S_2"),
                ("T_2", "S_2"), ("T_1", "S_2"), ("S_2", "Y_f"),
            ],
            [],
        )
        scm = random_scm(dag, 3)
        j = infer(scm, {"D", "T_1", "S_1", "S_2"})
        leak = max(
            conditional_mutual_information(condition(j, {"D": d}), {"T_1"}, {"S_2"}, {"S_1"})
            for d in range(2)
        )
        assert leak > 1e-3
        assert markov_consistency(scm) == pytest.approx(leak, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 8, 50])
    def test_the_graph_answers_every_stage_of_the_canonical_chain(self, depth, monkeypatch):
        from causalrating import road_risk

        scm = build_scenario(canonical_scenario(depth))
        calls = []
        monkeypatch.setattr(road_risk, "infer", lambda *args, **kwargs: calls.append(args))
        assert markov_consistency(scm) == 0.0
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_graph_decided_stages_match_the_per_stage_oracle(self, data):
        """On random chain models, with and without traffic edges that
        leak past their own stage, the graph-decided residual is the
        per-stage inference's."""
        depth = data.draw(st.integers(1, 4), label="depth")
        dag = scenario_dag(canonical_scenario(depth))
        # A leak T_k -> S_j or T_k -> Y_f, with j > k; Y_f stands at j = depth + 1.
        later = [*(f"S_{j}" for j in range(depth + 1)), "Y_f"]
        leak = st.integers(0, depth).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 1, depth + 1)))
        leaks = data.draw(st.lists(leak, max_size=3, unique=True), label="leaks")
        dag = Dag(dag.nodes, [*dag.edges, *((f"T_{k}", later[j]) for k, j in leaks)], dag.latent)
        card = {v: data.draw(st.integers(2, 3), label=f"card {v}") if v[0] in "DT" else 2 for v in dag.nodes}
        seed = data.draw(st.integers(0, 10_000), label="seed")
        # Sparse decision rows give decision values of zero mass.
        sparse = data.draw(st.booleans(), label="sparse D")
        scm = sparse_scm(dag, seed, card=card, nodes={"D"}) if sparse else random_scm(dag, seed, card)
        assert markov_consistency(scm) == pytest.approx(reference_markov_consistency(scm), abs=1e-12)


def zero_mass_decision() -> DiscreteScm:
    """The default scenario where decision value 2 never occurs."""
    s = default_scenario()
    cs = {**s.confounder_strength, "u_prob": 0.0}
    return dataclasses.replace(s, decision_base=((0.5, 0.5, 0.0),) * 2, confounder_strength=cs)


class TestChainDiagnosticsZeroMass:
    def test_zero_mass_decision_adds_nothing(self):
        s = zero_mass_decision()
        scm = build_scenario(s)
        assert infer(scm, {"D"}).probs[2] == 0.0
        assert markov_consistency(scm) < 1e-9
        # The graph answers 0.0; on the numeric path each live value's
        # residual is the oracle's, bit for bit.
        assert chain_factorization_residual(scm) == 0.0
        want = max(reference_chain_factorization_residual(s, d, scm) for d in (0, 1))
        assert _factorization_residual(scm, _chain(scm)) == want

    def test_markov_consistency_without_a_decision_raises(self):
        with pytest.raises(UnknownVariable, match="'D'"):
            markov_consistency(confounded_mediation_example())


def written_journeys(seed, path) -> bytes:
    write_journeys(default_scenario(), 3, seed, path)
    return path.read_bytes()


# Each library call that draws, at a seed, as the bytes of what it draws:
# the rows it returns, or the file it writes at ``path``.
DRAWS = {
    "sample": lambda seed, path: sample(build_scenario(default_scenario()), 3, seed).rows.tobytes(),
    "simulate_journeys": lambda seed, path: simulate_journeys(default_scenario(), 3, seed).rows.tobytes(),
    "write_journeys": written_journeys,
}


class TestSimulateJourneys:
    @pytest.mark.parametrize("draw", DRAWS)
    @pytest.mark.parametrize(
        "seed", [-1, np.int64(-1), 2**64, 2**64 + 42, 42 - 2**64], ids=["-1", "int64-1", "2^64", "2^64+42", "42-2^64"]
    )
    def test_a_seed_out_of_range_is_refused_before_any_draw(self, draw, seed, tmp_path, monkeypatch):
        # Each was once read modulo 2**64: 2**64 + 42 drew the rows of 42.
        drawn, real = [], scm_module._Sampler.draw
        monkeypatch.setattr(scm_module._Sampler, "draw", lambda *args: drawn.append(args) or real(*args))
        path = tmp_path / "j.csv"
        with pytest.raises(ValueOutOfRange, match=r"^seed: expected an integer in 0\.\.2\*\*64 - 1, got -?\d+$"):
            DRAWS[draw](seed, path)
        assert drawn == [] and not path.exists()

    @pytest.mark.parametrize("draw", DRAWS)
    def test_every_64_bit_seed_is_accepted(self, draw, tmp_path):
        seeds = [0, 2**64 - 1, np.uint64(2**64 - 1)]
        got = [DRAWS[draw](seed, tmp_path / f"{i}.csv") for i, seed in enumerate(seeds)]
        assert got[0] != got[1] == got[2]

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

    @settings(max_examples=40, deadline=None)
    @given(
        s=scenarios(),
        seed=st.integers(0, 2**63),
        n=st.integers(1, 150),
        block=st.sampled_from([1, 1000]) | st.integers(1, 50).map(lambda k: 2 * k + 1),
    )
    def test_simulate_blocks_match_masked_reference(self, s, seed, n, block):
        with tempfile.TemporaryDirectory() as tmp:
            doc, out = Path(tmp) / "s.json", Path(tmp) / "j.csv"
            doc.write_text(json.dumps(scenario_to_json(s)))
            argv = ["simulate", str(doc), "--n", str(n), "--seed", str(seed), "--out", str(out)]
            with mock.patch.object(scm_module, "BLOCK_ROWS", block):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                kept = simulate_journeys(s, n, seed)
                simulate_journeys(s, n, seed + 1)
            data = out.read_bytes()
        scm = build_scenario(s)
        order = scm.dag.topological_order
        want = reference_sample_rows(scm, n, seed)
        for v in s.states:
            want[:, order.index(v)] *= want[:, order.index("J_o")]
        assert data == csv_writer_bytes(want, order)
        assert np.array_equal(kept.rows, want)  # a later draw leaves returned rows alone

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueOutOfRange):
            simulate_journeys(default_scenario(), 0, seed=1)

    @pytest.mark.parametrize("n,seed,name", [(2.5, 1, "n"), (2, 1.0, "seed"), (2, False, "seed")])
    def test_counters_must_be_integers(self, n, seed, name):
        with pytest.raises(ValueOutOfRange, match=rf"^{name}: expected an integer( >= 1)?, got "):
            simulate_journeys(default_scenario(), n, seed)

    @pytest.mark.parametrize("n,seed,name", [(0, 1, "n"), (2.5, 1, "n"), (2, 1.0, "seed"), (2, False, "seed")])
    def test_write_journeys_refuses_what_simulate_journeys_refuses(self, n, seed, name, tmp_path):
        path = tmp_path / "j.csv"
        with pytest.raises(ValueOutOfRange, match=f"^{name}: expected an integer"):
            write_journeys(default_scenario(), n, seed, path)
        assert not path.exists()

    @pytest.mark.parametrize("n", [2**64 + 1, 2**70], ids=["2^64+1", "2^70"])
    def test_a_row_past_the_counter_is_refused_before_any_draw(self, n, tmp_path, monkeypatch):
        # 2**64 + 1 journeys once streamed, with row 2**64 drawing row 0's
        # values, while sample refused the same count.  A draw fails the test
        # at once, not after a stream without end.
        monkeypatch.setattr(scm_module._Sampler, "draw", lambda *args: pytest.fail("drew a block"))
        path = tmp_path / "j.csv"
        with pytest.raises(ValueOutOfRange, match=rf"^n: expected an integer <= 2\*\*64, got {n}$"):
            write_journeys(default_scenario(), n, 1, path)
        with pytest.raises(ValueOutOfRange, match=rf"^n: {n} rows of \d+ columns are past NumPy's array size$"):
            simulate_journeys(default_scenario(), n, 1)
        assert not path.exists()

    def test_the_whole_row_counter_is_accepted(self, tmp_path, monkeypatch):
        # 2**64 rows end at the counter's last, 2**64 - 1: the request is
        # read, the header written and the first block is where this test stops.
        class Drawn(Exception):
            pass

        def draw(self, seed, start, rows):
            raise Drawn(start)

        monkeypatch.setattr(scm_module._Sampler, "draw", draw)
        path = tmp_path / "j.csv"
        with pytest.raises(Drawn, match="^0$"):
            write_journeys(default_scenario(), 2**64, 1, path)
        assert path.read_bytes().startswith(b"Y_h,") and path.read_bytes().count(b"\n") == 1

    def test_write_journeys_writes_the_csv_of_simulate_journeys(self, tmp_path):
        s, n = canonical_scenario(3), 70_000
        path, buf = tmp_path / "j.csv", io.StringIO()
        columns, claims = write_journeys(s, n, 4, path)
        ds = simulate_journeys(s, n, 4)
        dataset_to_csv(ds, buf)
        assert path.read_bytes() == buf.getvalue().encode()
        assert columns == ds.vars
        assert claims == int(ds.column("Y_f").sum())

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


# Each command's flags as its CLI hands them to RoadRiskScenario.query, all left empty.
_EMPTY_FLAGS = {
    "identify": {"do": None, "outcome": None, "given": (), "mediators": None},
    "report": {"history": None, "behavior": None, "outcome": None, "observed": None},
}


class TestScenarioQuery:
    """``RoadRiskScenario.query``: a flag left ``None`` takes its default only
    where that names nothing given in another flag; a given ``mediators``
    meets no default, and ``behavior`` may meet ``observed``.  Otherwise
    the flag stays ``None``."""

    @pytest.mark.parametrize(
        "command,gave,want",
        [
            ("identify", {}, {"do": ("D", "J_o"), "outcome": "Y_f", "mediators": ("S_2",)}),
            ("identify", {"do": ["S_2"]}, {"do": ("S_2",), "outcome": "Y_f", "mediators": None}),
            ("identify", {"do": ["Y_f"]}, {"do": ("Y_f",), "outcome": None, "mediators": ("S_2",)}),
            ("identify", {"outcome": "D"}, {"do": None, "outcome": "D", "mediators": ("S_2",)}),
            ("identify", {"outcome": "S_2"}, {"do": ("D", "J_o"), "outcome": "S_2", "mediators": None}),
            ("identify", {"given": ["J_o"]}, {"do": None, "outcome": "Y_f", "mediators": ("S_2",)}),
            ("identify", {"given": ["S_2"]}, {"do": ("D", "J_o"), "outcome": "Y_f", "mediators": None}),
            ("identify", {"do": ["S_2"], "mediators": ["S_2"]},
             {"do": ("S_2",), "outcome": "Y_f", "mediators": ("S_2",)}),
            ("identify", {"mediators": ["D"]}, {"do": ("D", "J_o"), "outcome": "Y_f", "mediators": ("D",)}),
            ("report", {}, {"history": "Y_h", "behavior": "D", "outcome": "Y_f", "observed": ("J_o", "D")}),
            ("report", {"history": "D"}, {"history": "D", "behavior": None, "outcome": "Y_f", "observed": None}),
            ("report", {"behavior": "J_o"},
             {"history": "Y_h", "behavior": "J_o", "outcome": "Y_f", "observed": ("J_o", "D")}),
            ("report", {"history": "J_o"},
             {"history": "J_o", "behavior": "D", "outcome": "Y_f", "observed": None}),
            ("report", {"observed": []}, {"history": "Y_h", "behavior": "D", "outcome": "Y_f", "observed": ()}),
        ],
        ids=["bare", "do-mediator", "do-outcome", "outcome-do", "outcome-mediator", "given-do",
             "given-mediator", "mediators-given", "mediators-do", "report-bare", "report-history-behavior",
             "report-behavior-observed", "report-history-observed", "report-observed-empty"],
    )
    def test_default_fills_only_what_meets_nothing_given(self, command, gave, want):
        got = default_scenario().query(**_EMPTY_FLAGS[command] | gave)
        assert {k: got[k] for k in want} == want

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("do", [["D"]], "do[0]: expected a name, got ['D']"),
            ("outcome", ["Y_f"], "outcome: expected a name, got ['Y_f']"),
            ("given", "J_o", "given: expected a collection of names, got 'J_o'"),
            ("mediators", 5, "mediators: expected a collection of names, got 5"),
            ("behavior", {"D"}, "behavior: expected a name, got {'D'}"),
            ("observed", "J_o", "observed: expected a collection of names, got 'J_o'"),
        ],
    )
    def test_a_flag_is_read_as_names_before_it_is_compared(self, flag, value, message):
        # A list as the outcome, or a nested list in --do, raised a bare TypeError;
        # a string as --given was read as its letters, and 5 as --mediators was
        # returned as given.
        with pytest.raises(ParameterError) as raised:
            default_scenario().query(**_EMPTY_FLAGS["identify"] | _EMPTY_FLAGS["report"] | {flag: value})
        assert str(raised.value) == message


class TestNaiveEffect:
    @pytest.mark.parametrize("rate", [1.0, 0.0])
    def test_pair_of_zero_mass_is_a_dead_cell(self, rate):
        # Every driver starts a journey, or none does: one J_o value has
        # zero mass, and its cells are dead (this used to raise
        # ZeroProbabilityEvidence).
        s = dataclasses.replace(default_scenario(), journey_rate=(rate,) * 3)
        live = int(rate)
        for joint in (None, observational_joint(s)):
            ne = naive_effect(s, joint=joint)
            assert ne.probs.shape == (2, s.decision_card, 2)
            assert not ne.probs[1 - live].any()
            for d in range(s.decision_card):
                with pytest.raises(KeyError):
                    ne.dist((1 - live, d))
            assert [cfg for cfg, _, _ in live_cells(ne)] == [(live, d) for d in range(s.decision_card)]
            assert [cfg for cfg, _, _ in live_cells(phyd_effect(s))] == [cfg for cfg, _, _ in live_cells(ne)]

    @pytest.mark.parametrize("depth", [None, *range(1, 9)])
    def test_live_cells_match_conditioning(self, depth):
        s = default_scenario() if depth is None else canonical_scenario(depth)
        j = infer(build_scenario(s), {"J_o", "D", "Y_f"})
        ne = naive_effect(s)
        assert ne.probs.any(axis=-1).all()
        for cfg, _, dist in live_cells(ne):
            want = marginal(condition(j, {"J_o": cfg[0], "D": cfg[1]}), {"Y_f"}).probs
            assert np.abs(dist - want).max() < 1e-12


class TestChainFactorization:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_matches_reference_loop(self, depth):
        # The graph answers 0.0; the numeric path is the oracle's, bit for bit.
        s = canonical_scenario(depth)
        scm = build_scenario(s)
        assert chain_factorization_residual(scm) == 0.0
        want = max(reference_chain_factorization_residual(s, d, scm) for d in range(s.decision_card))
        assert _factorization_residual(scm, _chain(scm)) == want

    def test_scenario_models_infer_nothing(self, monkeypatch):
        # Every scenario chain is Markov given D on its graph, so the
        # residual is exactly 0.0 without any inference.
        from causalrating import road_risk

        def spy(*args, **kwargs):
            raise AssertionError("infer called")

        monkeypatch.setattr(road_risk, "infer", spy)
        for s in (default_scenario(), *map(canonical_scenario, range(1, 65))):
            assert chain_factorization_residual(build_scenario(s)) == 0.0, s.depth

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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_one_joint_matches_reference_over_live_values(self, data):
        # Random CPTs on chain DAGs, with or without skip edges and a
        # parent of D, and with decision values zeroed in every row of D
        # so that they have no mass: the residual read off one joint
        # that keeps D is the oracle's max over the live values.
        depth = data.draw(st.integers(1, 5), label="depth")
        s = canonical_scenario(depth)
        chain = [*s.states, "Y_f"]
        nodes = ["D", *chain]
        edges = [("D", v) for v in s.states] + list(zip(chain, chain[1:]))
        skips = [(a, b) for i, a in enumerate(chain) for b in chain[i + 2 :]]
        edges += data.draw(st.lists(st.sampled_from(skips), unique=True, max_size=3), label="skips")
        if data.draw(st.booleans(), label="parent of D"):
            nodes.insert(0, "P")
            edges += [("P", "D"), ("P", "Y_f")]
        dc = data.draw(st.integers(2, 4), label="decision card")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        scm = random_scm(Dag(nodes, edges, []), seed, card={"D": dc})
        dead = data.draw(st.sets(st.integers(0, dc - 1), max_size=dc - 1), label="dead values")
        cpt = {v: np.array(scm.cpt[v]) for v in scm.dag.nodes}
        cpt["D"][:, sorted(dead)] = 0.0
        cpt["D"] /= cpt["D"].sum(axis=1, keepdims=True)
        scm = DiscreteScm(scm.dag, scm.card, cpt)
        live = np.flatnonzero(infer(scm, {"D"}).probs).tolist()
        assert live == sorted(set(range(dc)) - dead)
        want = max(reference_chain_factorization_residual(s, d, scm) for d in live)
        assert abs(chain_factorization_residual(scm) - want) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_graph_route_matches_numeric_path(self, data):
        # Random CPTs on chain DAGs as above, also with a root whose
        # children are chain nodes.  Where {S_k, D} d-separates the
        # whole past of every link from its whole future (for
        # d-separation the same as separating each next link from the
        # past, which the graph route tests), the residual is 0.0 and the
        # numeric path reads float noise; elsewhere the residual is the
        # numeric path's.
        depth = data.draw(st.integers(0, 5), label="depth")
        chain = [*(f"S_{i}" for i in range(depth + 1)), "Y_f"]
        nodes = ["D", *chain]
        edges = [("D", v) for v in chain[:-1]] + list(zip(chain, chain[1:]))
        skips = [(a, b) for i, a in enumerate(chain) for b in chain[i + 2 :]]
        if skips:
            edges += data.draw(st.lists(st.sampled_from(skips), unique=True, max_size=3), label="skips")
        if data.draw(st.booleans(), label="parent of D"):
            nodes.insert(0, "P")
            edges += [("P", "D"), ("P", "Y_f")]
        root = data.draw(st.lists(st.sampled_from(chain), unique=True, max_size=3), label="root children")
        if root:
            nodes.insert(0, "R")
            edges += [("R", v) for v in root]
        dc = data.draw(st.integers(2, 4), label="decision card")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        scm = random_scm(Dag(nodes, edges, []), seed, card={"D": dc})
        dead = data.draw(st.sets(st.integers(0, dc - 1), max_size=dc - 1), label="dead values")
        cpt = {v: np.array(scm.cpt[v]) for v in scm.dag.nodes}
        cpt["D"][:, sorted(dead)] = 0.0
        cpt["D"] /= cpt["D"].sum(axis=1, keepdims=True)
        scm = DiscreteScm(scm.dag, scm.card, cpt)
        markov = all(
            d_separated(scm.dag, set(chain[k + 1 :]), set(chain[:k]), {chain[k], "D"})
            for k in range(1, len(chain) - 1)
        )
        residual, numeric = chain_factorization_residual(scm), _factorization_residual(scm, chain)
        if markov:
            assert residual == 0.0 and numeric <= 1e-15
        else:
            assert residual == numeric

    def test_a_markov_chain_with_a_random_start_factorizes(self):
        # S_0 is no point mass here, so the product must start from
        # P(S_0 | D) for a first-order Markov chain to read as one.
        edges = [("D", "S_0"), ("D", "S_1"), ("S_0", "S_1"), ("S_1", "Y_f")]
        scm = random_scm(Dag(["D", "S_0", "S_1", "Y_f"], edges, []), 3)
        s = canonical_scenario(1)
        assert chain_factorization_residual(scm) <= 1e-15
        assert max(reference_chain_factorization_residual(s, d, scm) for d in range(2)) <= 1e-15
        skip = random_scm(Dag(["D", "S_0", "S_1", "Y_f"], [*edges, ("S_0", "Y_f")], []), 3)
        assert chain_factorization_residual(skip) > 1e-3

    def test_residual_negligible_all_depths(self):
        for depth in (1, 2, 3):
            assert chain_factorization_residual(build_scenario(canonical_scenario(depth))) < 1e-12

    def test_model_without_a_decision_raises_unknown_variable(self):
        dag = Dag(["S_0", "S_1", "Y_f"], [("S_0", "S_1"), ("S_1", "Y_f")], [])
        with pytest.raises(UnknownVariable, match="'D'"):
            chain_factorization_residual(random_scm(dag, 0))

    @pytest.mark.parametrize("name", ["S_x", "S_", "S_1a"])
    def test_other_s_names_are_not_peril_states(self, name):
        # Only S_<digits> is a peril state; an S_x node used to crash
        # both chain diagnostics in int().
        scm = build_scenario(default_scenario())
        dag = Dag([*scm.dag.nodes, name], [*scm.dag.edges, ("D", name)], scm.dag.latent)
        cpt = {**scm.cpt, name: np.full((scm.card["D"], 2), 0.5)}
        extra = DiscreteScm(dag, {**scm.card, name: 2}, cpt, parents={**scm.parents, name: ("D",)})
        assert chain_factorization_residual(extra) == chain_factorization_residual(scm)
        assert markov_consistency(extra) == markov_consistency(scm)

    def test_plain_chain_with_safe_start(self):
        # The product form also holds on the bare decision chain when
        # the first state is a point mass.
        from causalrating import random_scm, template

        dag = template("Fig4Chain(2)")
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
        for (d,), g, dist in live_cells(raw):
            oracle = gt.dist((g[0], d))
            assert 0.5 * float(np.abs(dist - oracle).sum()) < 0.02
