"""Graph construction, d-separation and criterion checks."""

import json
import math
import pathlib
import time
import types
from fractions import Fraction
from typing import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrating import (
    CausalRatingError,
    CycleError,
    Dag,
    DiscreteScm,
    GraphError,
    OverlapError,
    ParameterError,
    RoadRiskScenario,
    TEMPLATE_IDS,
    UnknownNodeError,
    UnknownTemplate,
    d_separated,
    dag_from_json,
    dag_to_json,
    mutilate,
    noise_verdict,
    open_trail,
    random_scm,
    scenario_from_json,
    scm_from_json,
    scm_to_json,
    template,
)
import causalrating
from causalrating.graph import _cut, _fig4_chain, _fig6_canonical, frontdoor_failure, open_backdoor_trail
from helpers import open_trail_problem, random_dag, reference_open_trail


class TestBuildDag:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 8), data=st.data())
    def test_default_parent_order_is_topological(self, seed, size, data):
        # The default CPT row order of a model: each node's parents sorted
        # by their position in the topological order, whatever the order
        # the nodes and edges were listed in.
        base = random_dag(seed, size)
        nodes = data.draw(st.permutations(base.nodes), label="nodes")
        edges = data.draw(st.permutations(sorted(base.edges)), label="edges")
        dag = Dag(nodes, edges, [])
        scm = random_scm(dag, 0)
        for v in dag.nodes:
            want = tuple(sorted(dag.parents(v), key=dag.topological_order.index))
            assert scm.parents_of(v) == want

    def test_two_node_chain(self):
        dag = Dag(["A", "B"], [("A", "B")], [])
        assert dag.topological_order == ("A", "B")
        assert dag.parents("B") == {"A"}

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(["A", "B"], [("A", "B"), ("B", "A")], [])

    def test_self_loop_rejected(self):
        with pytest.raises((CycleError, UnknownNodeError, ValueError)):
            Dag(["A"], [("A", "A")], [])

    def test_unknown_edge_endpoint(self):
        # Was "edge (A, B) references undeclared node".
        with pytest.raises(UnknownNodeError, match="^unknown node: 'B'$"):
            Dag(["A"], [("A", "B")], [])

    def test_matches_template(self):
        dag = Dag(
            ["Y_h", "X_c", "Y_f"], [("Y_h", "X_c"), ("X_c", "Y_f")], []
        )
        assert dag == template("Fig1d")

    def test_latent_subset_of_nodes(self):
        with pytest.raises(UnknownNodeError):
            Dag(["A", "B"], [("A", "B")], ["C"])

    def test_bare_string_nodes_refused(self):
        # "AB" was read as its letters, the nodes A and B.
        with pytest.raises(ParameterError, match="^nodes: expected a collection of names, got 'AB'$"):
            Dag("AB", [])

    def test_bare_string_latent_refused(self):
        # latent="U1" was read as the letters U and 1 and refused as undeclared.
        with pytest.raises(ParameterError, match="^latent: expected a collection of names, got 'U1'$"):
            Dag(["U1", "Y"], [("U1", "Y")], "U1")

    def test_string_edge_refused(self):
        # The edge "AB" was read as the pair of its letters, A -> B.
        with pytest.raises(GraphError, match=r"^edges\[0\]: expected a pair of node names, got 'AB'$"):
            Dag(["A", "B"], ["AB"])

    # An edge misread named no path and showed the edge as a tuple: ('U',) for ["U"].
    @pytest.mark.parametrize(
        "edges,want",
        [
            ([("A", "B"), ["B"]], "edges[1]: expected a pair of node names, got ['B']"),
            ({("A", "B"), ("B",), ("A", "B", "C")}, "edges: expected a pair of node names, got ('A', 'B', 'C')"),
        ],
        ids=["list", "set"],
    )
    def test_edge_misread_names_its_path(self, edges, want):
        with pytest.raises(GraphError) as raised:
            Dag(["A", "B", "C"], edges)
        assert str(raised.value) == want

    def test_edge_that_is_not_a_pair_refused(self):
        # A 3-tuple escaped as ValueError: too many values to unpack.
        with pytest.raises(GraphError, match=r"^edges\[0\]: expected a pair of node names, got \('A', 'B', 'C'\)$"):
            Dag(["A", "B", "C"], [("A", "B", "C")])

    @pytest.mark.parametrize(
        "edges,want",
        [
            # Each escaped as TypeError, the last as a bare ValueError from
            # formatting a huge integer.
            (None, "edges: expected a collection of edges, got None"),
            ([(["A"], "A")], "edges[0][0]: expected a name, got ['A']"),
            ([("A", "B"), ("B", 1)], "edges[1][1]: expected a name, got 1"),
            ({("A", "B"), ("B", 2.5), ("A", 1)}, "edges: expected a name, got 1"),
            ([(10**5000, "A")], "edges[0][0]: expected a name, got <16610-bit integer>"),
        ],
        ids=["None", "unhashable", "number", "set", "huge"],
    )
    def test_edge_endpoints_read_as_names(self, edges, want):
        with pytest.raises(ParameterError) as raised:
            Dag(["A", "B"], edges)
        assert str(raised.value) == want


class TestTemplates:
    def test_ten_ids(self):
        assert len(TEMPLATE_IDS) == 10

    def test_fig1a(self):
        dag = template("Fig1a")
        assert set(dag.nodes) == {"Y_h", "Y_f"}
        assert set(dag.edges) == {("Y_h", "Y_f")}

    def test_fig2c_edges_and_latent(self):
        dag = template("Fig2c")
        assert set(dag.edges) == {
            ("Y_h", "X_c"),
            ("X_c", "Y_f"),
            ("U", "Y_h"),
            ("U", "Y_f"),
        }
        assert dag.latent == {"U"}

    def test_fig6_depth_one(self):
        dag = template("Fig6Canonical(1)")
        assert set(dag.edges) == {
            ("Y_h", "J_o"),
            ("J_o", "D"),
            ("U", "D"),
            ("U", "Y_f"),
            ("D", "S_0"),
            ("D", "S_1"),
            ("S_0", "S_1"),
            ("S_1", "Y_f"),
        }
        assert dag.latent == {"U"}

    def test_inline_depth_syntax(self):
        assert template("Fig6Canonical(2)") == _fig6_canonical(2)
        assert template("Fig4Chain(3)") == _fig4_chain(3)

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplate):
            template("Fig9")

    def test_depth_required(self):
        with pytest.raises(UnknownTemplate):
            template("Fig4Chain")

    def test_fixed_template_built_once(self):
        assert template("Fig1d") is template("Fig1d")

    @pytest.mark.parametrize(
        "name", ["Fig4Chain(0)", "Fig6Canonical(1075)", f"Fig4Chain({'9' * 5000})", f"Fig6Canonical({'0' * 5000})"],
        ids=["zero", "past-the-bound", "5000-digits", "5000-zeros"],
    )
    def test_chain_depth_is_bounded_before_it_is_parsed(self, name):
        # 1075 was built; 5000 digits raised int()'s bare ValueError.
        with pytest.raises(UnknownTemplate) as raised:
            template(name)
        assert str(raised.value) == f"{name.partition('(')[0]} requires a depth from 1 to 1074"

    def test_deepest_chain_is_built(self):
        assert len(template("Fig6Canonical(1074)").nodes) == 1074 + 6
        assert template(f"Fig4Chain({'0' * 5000}2)") == template("Fig4Chain(2)")


class TestReachability:
    def test_ancestors_chain(self):
        dag = template("Fig1d")
        assert dag.ancestors("Y_f") == {"Y_h", "X_c"}

    def test_parents_common_effect(self):
        dag = template("Fig1b")
        assert dag.parents("Y_f") == {"Y_h", "X_c"}

    def test_leaf_descendants_empty(self):
        dag = template("Fig2a")
        assert dag.descendants("Y_f") == set()

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            template("Fig1a").parents("Q")

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    def test_ancestors_and_descendants_match_transitive_closure(self, seed, n):
        dag = random_dag(seed, n)
        reach = transitive_closure(dag.nodes, dag.edges)
        for i, v in enumerate(dag.nodes):
            assert dag.descendants(v) == {u for k, u in enumerate(dag.nodes) if reach[i, k]}
            assert dag.ancestors(v) == {u for k, u in enumerate(dag.nodes) if reach[k, i]}


def transitive_closure(nodes, edges) -> np.ndarray:
    """``reach[i, k]``: a directed path of one or more edges runs from
    ``nodes[i]`` to ``nodes[k]``; the union of the boolean powers
    A, A^2, ..., A^n of the adjacency matrix."""
    pos = {v: i for i, v in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for a, b in edges:
        adj[pos[a], pos[b]] = 1
    reach, power = adj > 0, adj
    for _ in range(len(nodes)):
        power = np.minimum(power @ adj, 1)
        reach |= power > 0
    return reach


class TestDSeparation:
    def test_chain_blocked_by_mediator(self):
        assert d_separated(template("Fig1d"), {"Y_h"}, {"Y_f"}, {"X_c"})

    def test_collider_opened_by_conditioning(self):
        assert not d_separated(template("Fig1b"), {"Y_h"}, {"X_c"}, {"Y_f"})
        assert d_separated(template("Fig1b"), {"Y_h"}, {"X_c"}, set())

    def test_confounder_trail_stays_open(self):
        assert not d_separated(template("Fig2c"), {"Y_h"}, {"Y_f"}, {"X_c"})

    def test_confounder_screened_by_mediator(self):
        assert d_separated(template("Fig2a"), {"U"}, {"Y_f"}, {"X_c"})

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            d_separated(template("Fig1d"), {"Y_h"}, {"Y_h"}, set())

    def test_witness_on_open_trail(self):
        dag = template("Fig2c")
        trail = open_trail(dag, {"Y_h"}, {"Y_f"}, {"X_c"})
        assert trail == ["Y_h", "U", "Y_f"]
        assert open_trail_problem(dag, trail, {"Y_h"}, {"Y_f"}, {"X_c"}) is None

    @pytest.mark.parametrize(
        "name, X, Y, Z, want",
        [
            # The collider D is open only through its observed descendant.
            ("Fig6Canonical(3)", {"Y_h"}, {"U"}, {"S_2"}, ["Y_h", "J_o", "D", "U"]),
            # D - U - Y_f is as short; the tie goes to sorted names.
            ("Fig6Canonical(2)", {"D"}, {"Y_f"}, set(), ["D", "S_2", "Y_f"]),
        ],
    )
    def test_shortest_witness(self, name, X, Y, Z, want):
        dag = template(name)
        trail = open_trail(dag, X, Y, Z)
        assert trail == want
        assert open_trail_problem(dag, trail, X, Y, Z) is None

    def test_witness_none_when_separated(self):
        assert open_trail(template("Fig1d"), {"Y_h"}, {"Y_f"}, {"X_c"}) is None


class TestMutilate:
    def test_incoming_edges_removed(self):
        cut = mutilate(template("Fig2c"), {"X_c"})
        assert set(cut.edges) == {("X_c", "Y_f"), ("U", "Y_h"), ("U", "Y_f")}

    def test_canonical_surgery_separates_history(self):
        cut = mutilate(template("Fig6Canonical(1)"), {"D"})
        assert d_separated(cut, {"Y_h"}, {"Y_f"}, set())

    def test_empty_do_is_identity(self):
        dag = template("Fig3")
        assert mutilate(dag, set()) == dag

    def test_idempotent(self):
        dag = template("Fig6Canonical(2)")
        once = mutilate(dag, {"D", "J_o"})
        assert mutilate(once, {"D", "J_o"}) == once

    def test_double_surgery_grounds_history(self):
        for depth in (1, 2, 3):
            cut = mutilate(template(f"Fig6Canonical({depth})"), {"D", "J_o"})
            assert d_separated(cut, {"Y_h"}, {"Y_f"}, set())


class TestBackdoor:
    def test_no_parents_trivially_satisfied(self):
        assert open_backdoor_trail(template("Fig1c"), "X_c", "Y_f", set()) is None

    def test_open_confounder_trail_fails(self):
        assert open_backdoor_trail(template("Fig2b"), "X_c", "Y_f", set()) is not None

    def test_descendant_in_z_rejected(self):
        dag = Dag(["X", "M", "Y"], [("X", "M"), ("M", "Y")], [])
        assert open_backdoor_trail(dag, "X", "Y", {"M"}) is not None

    def test_agrees_with_trail_enumeration(self, template_dags):
        import itertools

        for dag in template_dags.values():
            nodes = list(dag.nodes)
            for x, y in itertools.permutations(nodes, 2):
                rest = [v for v in nodes if v not in (x, y)]
                for r in range(min(3, len(rest)) + 1):
                    for z in itertools.combinations(rest, r):
                        got = open_backdoor_trail(dag, x, y, set(z)) is None
                        bad_z = set(z) & dag.descendants(x)
                        cut = Dag(dag.nodes, [e for e in dag.edges if e[0] != x], dag.latent)
                        want = not bad_z and (
                            reference_open_trail(cut, {x}, {y}, set(z)) is None
                        )
                        assert got == want, (x, y, z)


class TestFrontdoor:
    def test_designed_mediator(self):
        assert frontdoor_failure(template("Fig3"), "X_c", "Y_f", {"Z"}) is None

    def test_canonical_graph_all_depths(self):
        for depth in range(1, 5):
            dag = template(f"Fig6Canonical({depth})")
            M = {f"S_{i}" for i in range(depth + 1)}
            assert frontdoor_failure(dag, "D", "Y_f", M) is None

    def test_non_intercepting_mediator_fails(self):
        assert frontdoor_failure(template("Fig2b"), "X_c", "Y_f", {"Y_h"}) is not None

    def test_empty_mediator_rejected(self):
        assert frontdoor_failure(template("Fig2b"), "X_c", "Y_f", set()) is not None

    @pytest.mark.parametrize(
        "dag, x, M, strata, want",
        [
            (template("Fig2b"), "X_c", set(), (), "empty mediator set"),
            (
                template("Fig2b"), "X_c", {"Y_h"}, (),
                "a directed path from X_c to Y_f bypasses the mediators",
            ),
            (
                template("Fig3"), "X_c", {"Z"}, {"Y_h", "Z"},
                "strata ['Z'] are mediators or descend from X_c or the mediators",
            ),
            (
                template("Fig2a"), "Y_h", {"X_c"}, (),
                "open back-door trail from Y_h to mediators: Y_h - U - X_c",
            ),
            (
                template("Fig2b"), "Y_h", {"X_c"}, (),
                "back-door trail from mediators to Y_f not blocked by Y_h: X_c - U - Y_f",
            ),
            (
                Dag(
                    ["A", "B", "C", "X", "M", "Y_f"],
                    [("A", "X"), ("A", "C"), ("B", "C"), ("B", "M"), ("X", "M"), ("M", "Y_f")],
                ),
                "X", {"M"}, {"C"},
                "open back-door trail from X to mediators given ['C']: X - A - C - B - M",
            ),
            (
                Dag(
                    ["B", "C", "D", "X", "M", "Y_f"],
                    [("B", "M"), ("B", "C"), ("D", "C"), ("D", "Y_f"), ("X", "M"), ("M", "Y_f")],
                ),
                "X", {"M"}, {"C"},
                "back-door trail from mediators to Y_f not blocked by X given ['C']: "
                "M - B - C - D - Y_f",
            ),
            (template("Fig3"), "X_c", {"Z"}, {"Y_h"}, None),
        ],
    )
    def test_failure_names_first_failed_condition(self, dag, x, M, strata, want):
        assert frontdoor_failure(dag, x, "Y_f", M, strata) == want

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12), data=st.data())
    def test_bypass_exactly_when_y_reachable_without_mediators(self, seed, n, data):
        dag = random_dag(seed, n)
        x, y = data.draw(st.permutations(dag.nodes), label="x, y")[:2]
        rest = [v for v in dag.nodes if v not in (x, y)]
        M = set(data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True), label="M"))
        kept = [v for v in dag.nodes if v not in M]
        reach = transitive_closure(kept, [e for e in dag.edges if M.isdisjoint(e)])
        bypass = f"a directed path from {x} to {y} bypasses the mediators"
        got = frontdoor_failure(dag, x, y, M) == bypass
        assert got == bool(reach[kept.index(x), kept.index(y)])

    def test_reach_calls_do_not_grow_with_the_mediators(self, monkeypatch):
        # The peril chain's mediator set grows with the depth; the walks
        # of the check must not.
        from causalrating import graph
        from causalrating.road_risk import canonical_scenario, scenario_dag

        calls = []

        def counting(self, *args, real=graph.Dag._reach, **kwargs):
            calls[-1] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(graph.Dag, "_reach", counting)
        for depth in (2, 50):
            dag = scenario_dag(canonical_scenario(depth))
            states = {v for v in dag.nodes if v.startswith("S_")}
            calls.append(0)
            assert frontdoor_failure(dag, "D", "Y_f", states, {"J_o"}) is None
        assert calls[0] == calls[1]


class TestJson:
    def test_round_trip_all_templates(self, template_dags):
        for dag in template_dags.values():
            doc = dag_to_json(dag)
            assert dag_from_json(json.loads(json.dumps(doc))) == dag

    def test_document_shape(self):
        doc = dag_to_json(template("Fig2c"))
        assert set(doc) == {"nodes", "edges", "latent"}
        assert doc["latent"] == ["U"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7), data=st.data())
def test_dsep_symmetry_and_oracle_agreement(seed, n, data):
    # Multi-node X and Y; the enumeration of every simple trail is the oracle.
    dag = random_dag(seed, n)
    nodes = list(dag.nodes)
    X = set(data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=min(2, n - 1), unique=True)))
    rest = [v for v in nodes if v not in X]
    Y = set(data.draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2, unique=True)))
    rest = [v for v in rest if v not in Y]
    Z = set(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else set()
    sep = d_separated(dag, X, Y, Z)
    assert sep == d_separated(dag, Y, X, Z)
    trail, ref = open_trail(dag, X, Y, Z), reference_open_trail(dag, X, Y, Z)
    assert sep == (trail is None) == (ref is None)
    if trail is not None:
        assert open_trail_problem(dag, trail, X, Y, Z) is None
        assert len(trail) <= len(ref)


def _ladder(rungs: int):
    """Candidate C causes Y directly; its back-door trails climb two rails
    A, B joined by rungs and end blocked at the observed fork W, while the
    observed collider Q under the rails keeps every collider open.  The
    number of trails doubles with every rung."""
    a = [f"A{i}" for i in range(rungs + 1)]
    b = [f"B{i}" for i in range(rungs + 1)]
    edges = [("C", "Y"), ("W", "Y"), ("A0", "C"), ("W", a[-1]), ("W", b[-1]), ("A0", "Q"), ("B0", "Q")]
    edges += list(zip(a[1:], a)) + list(zip(b[1:], b)) + list(zip(a, b))
    return Dag(["C", "Y", "W", "Q", *a, *b], edges)


@pytest.mark.parametrize("rungs", [48, 200])
def test_ladder_verdict_and_witness_in_linear_time(rungs):
    dag = _ladder(rungs)
    start = time.perf_counter()
    verdict = noise_verdict(dag, "C", "Y", {"W", "Q"})
    trail = open_trail(dag, {"C"}, {"W"}, {"Q"})
    elapsed = time.perf_counter() - start
    assert verdict.verdict == "Signal"
    assert open_trail_problem(dag, trail, {"C"}, {"W"}, {"Q"}) is None
    assert trail == ["C", *(f"A{i}" for i in range(rungs + 1)), "W"]
    assert elapsed < 1.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6), data=st.data())
def test_mutilation_idempotent_on_random_dags(seed, n, data):
    dag = random_dag(seed, n)
    do = set(data.draw(st.lists(st.sampled_from(list(dag.nodes)), unique=True)))
    once = mutilate(dag, do)
    assert mutilate(once, do) == once


# -- cut views against the validated cuts they replace ---------------------


def _validated_cut(dag, into=(), out_of=()):
    """``dag`` without the edges into ``into`` and out of ``out_of``, read
    again as a new Dag of the kept edges, listed from the child lists."""
    edges = [(a, b) for a in dag.nodes if a not in out_of for b in dag._children[a] if b not in into]
    return Dag(dag.nodes, edges, dag.latent)


@st.composite
def shuffled_dags(draw):
    """A ``random_dag`` with its nodes and edges listed in any order, so the
    node list need not be topological, and any latent set."""
    base = random_dag(draw(st.integers(0, 10_000)), draw(st.integers(2, 7)))
    nodes = draw(st.permutations(base.nodes))
    return Dag(nodes, draw(st.permutations(sorted(base.edges))), draw(st.sets(st.sampled_from(nodes))))


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message of the package error it raises."""
    try:
        return fn(*args)
    except CausalRatingError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(dag=shuffled_dags(), data=st.data())
def test_cut_view_answers_as_the_validated_cut(dag, data):
    names = st.sets(st.sampled_from(dag.nodes))
    into, out_of = data.draw(names), data.draw(names)
    view, cut = _cut(dag, into, out_of), _validated_cut(dag, into, out_of)
    # A view's parent lists keep the parent graph's order, which no question reads.
    assert {v: set(ps) for v, ps in view._parents.items()} == {v: set(ps) for v, ps in cut._parents.items()}
    assert view._children == cut._children
    order = data.draw(st.permutations(dag.nodes))
    i = data.draw(st.integers(1, len(order) - 1))
    j = data.draw(st.integers(i + 1, len(order)))
    X, Y, rest = set(order[:i]), set(order[i:j]), order[j:]
    Z = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
    assert _outcome(open_trail, view, X, Y, Z) == _outcome(open_trail, cut, X, Y, Z)


@settings(max_examples=80, deadline=None)
@given(dag=shuffled_dags(), data=st.data())
def test_graph_questions_answer_as_on_validated_cuts(dag, data):
    x, y, *rest = data.draw(st.permutations(dag.nodes))
    subset = st.sets(st.sampled_from(rest)) if rest else st.just(set())
    M, strata, Z = data.draw(subset), data.draw(subset), data.draw(subset)
    calls = [
        (open_backdoor_trail, dag, x, y, Z),
        (frontdoor_failure, dag, x, y, M, strata - M),
        (noise_verdict, dag, x, y, Z),
    ]
    on_views = [_outcome(*call) for call in calls]
    with mock.patch.object(causalrating.graph, "_cut", _validated_cut):
        assert [_outcome(*call) for call in calls] == on_views


@settings(max_examples=80, deadline=None)
@given(dag=shuffled_dags(), data=st.data())
def test_mutilate_equals_a_new_dag_of_the_kept_edges(dag, data):
    do = data.draw(st.sets(st.sampled_from(dag.nodes)))
    got, want = mutilate(dag, do), _validated_cut(dag, into=do)
    for field in ("nodes", "topological_order", "_parents", "_children", "edges", "latent"):
        assert getattr(got, field) == getattr(want, field), field
    assert list(got.edges) == list(want.edges)  # the set iterates in the same order too


# -- the model readers ---------------------------------------------------

DATA = pathlib.Path(causalrating.__file__).parent / "data"


def _scm(doc):
    return DiscreteScm(Dag(**doc["graph"]), doc["card"], doc["cpt"], parents=doc.get("parents"))


def _scm_fields(scm):
    return {**scm_to_json(scm), "parents": scm.parents, "card types": _types(scm.card)}


# Each shipped document, or the graph of one: its file, the part read,
# its loader, the constructor of its model and the model's fields.
SHIPPED = [
    ("default_scenario.json", (), scenario_from_json, lambda d: RoadRiskScenario(**d),
     lambda s: (s, _types(vars(s)))),
    ("confounded_direct.json", (), scm_from_json, _scm, _scm_fields),
    ("confounded_mediation.json", (), scm_from_json, _scm, _scm_fields),
    ("confounded_mediation.json", ("graph",), dag_from_json, lambda d: Dag(**d), lambda g: (g, g.nodes)),
]
# Values that no leaf of a shipped document may hold, except that an
# integer leaf takes ±10**5000 and a name takes "1.5".
HOSTILE = [True, False, np.bool_(True), math.nan, math.inf, -math.inf, 10**5000, -10**5000, b"1", "1.5", None, [[1.0]]]


def _document(name, part):
    doc = json.loads((DATA / name).read_text())
    for key in part:
        doc = doc[key]
    return doc


def _leaves(value, path=()) -> list:
    """``(path, type)`` of every number and name in the JSON ``value``."""
    if not isinstance(value, (list, dict)):
        return [(path, type(value))]
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [leaf for k, v in items for leaf in _leaves(v, (*path, k))]


def _types(value):
    """The type of ``value`` and of each of its parts."""
    if isinstance(value, Mapping):
        return (type(value), {k: _types(v) for k, v in value.items()})
    return (type(value), tuple(map(_types, value))) if isinstance(value, tuple) else type(value)


def python_form(value, rnd, arrays=True):
    """``value``, a part of a JSON document, in a form a Python caller may
    give, each part drawn with ``rnd``: a mapping proxy for an object, a
    tuple or numeric NumPy array for an array, a NumPy number or
    ``Fraction`` for a number.  An array of names stays a list or tuple:
    a name set is never a NumPy array."""
    if isinstance(value, dict):
        wrap = rnd.choice([dict, types.MappingProxyType])
        return wrap({k: python_form(v, rnd, arrays) for k, v in value.items()})
    if isinstance(value, list):
        if arrays and rnd.random() < 0.3:
            try:
                if (array := np.array(value)).dtype.kind in "fiu":
                    return array
            except ValueError:  # ragged
                pass
        return rnd.choice([list, tuple])(python_form(v, rnd, arrays) for v in value)
    if type(value) is float:  # a float32 holds few of the shipped numbers exactly
        return rnd.choice([float, Fraction, np.float64, np.float32 if value in (0, 1) else float])(value)
    return rnd.choice([int, np.int64, np.int32])(value) if type(value) is int else value


def _replaced(value, path, new):
    if not path:
        return new
    if isinstance(value, Mapping):
        return {**value, path[0]: _replaced(value[path[0]], path[1:], new)}
    items = list(value)
    items[path[0]] = _replaced(items[path[0]], path[1:], new)
    return type(value)(items)


class TestReader:
    """The loaders and the model constructors over the shipped model files, in JSON and Python forms."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_python_forms_read_as_the_json_form(self, data):
        name, part, load, _, fields = data.draw(st.sampled_from(SHIPPED))
        doc = _document(name, part)
        want = fields(load(doc))
        assert fields(load(python_form(doc, data.draw(st.randoms(use_true_random=False))))) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hostile_leaf_is_named_by_its_path(self, data):
        name, part, load, build, _ = data.draw(st.sampled_from(SHIPPED))
        doc = _document(name, part)
        path, leaf = data.draw(st.sampled_from(_leaves(doc)))
        hostile = data.draw(st.sampled_from([
            v for v in HOSTILE if not (leaf is int and type(v) is int or leaf is str and type(v) is str)
        ]))
        rnd = data.draw(st.randoms(use_true_random=False))
        given = _replaced(python_form(doc, rnd, arrays=False), path, hostile)
        with pytest.raises(CausalRatingError) as loaded:
            load(given)
        with pytest.raises(CausalRatingError) as built:
            build(given)
        assert (type(loaded.value), str(loaded.value)) == (type(built.value), str(built.value))
        # Dag reads the fields of an SCM's graph, so their paths start below it.
        path = path[1:] if path[0] == "graph" else path
        at = path[0] + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path[1:])
        assert str(loaded.value).startswith(f"{at}: expected "), str(loaded.value)
        assert len(str(loaded.value)) < 200
