"""The public names of the package: each layer's ``__all__`` and what
``causalrating`` re-exports."""

import ast
import dataclasses
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalrating
from causalrating import (
    CausalRatingError, Dag, DiscreteScm, EffectQuery, Dataset, backdoor_adjust, canonical_scenario,
    chain_decompositions, condition, conditional_entropy, conditional_mutual_information,
    confounded_mediation_example, confounding_gap, d_separated, dag_from_json, default_scenario, do_distribution, empirical_joint, entropy, frontdoor_adjust, identify_effect, infer,
    intervene, marginal, mutilate, mutual_information, noise_verdict, open_trail, rating_comparison, rating_report,
    rule1_deletion_check, sample, template, tta_discretize,
)
from causalrating.graph import frontdoor_failure, open_backdoor_trail

LAYERS = ("graph", "scm", "info", "identify", "road_risk")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_resolve_and_are_reexported(layer):
    module = importlib.import_module(f"causalrating.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), f"{layer}.{name} is in __all__ but not defined"
        assert getattr(causalrating, name, None) is getattr(module, name), f"causalrating.{name}"


def test_other_public_names_are_errors_or_submodules():
    exported = {name for layer in LAYERS for name in importlib.import_module(f"causalrating.{layer}").__all__}
    for name in dir(causalrating):
        if name.startswith("_") or name in exported:
            continue
        value = getattr(causalrating, name)
        if inspect.ismodule(value):
            assert value.__name__ == f"causalrating.{name}", name
        else:
            assert isinstance(value, type) and issubclass(value, Exception), name
            assert value.__module__ == "causalrating.errors", name


ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):]
    code = tour[tour.index("```python\n") + len("```python\n"):tour.index("```\n", tour.index("```python"))]
    exec(compile(code, "README.md library tour", "exec"), {})


def test_names_read_by_the_benchmark_oracle_resolve():
    names = set(re.findall(r"\bcr\.(\w+)", (ROOT / "bench" / "test_oracle.py").read_text()))
    assert {"exact_joint", "observational_joint", "do_distribution"} <= names
    missing = sorted(n for n in names if not hasattr(causalrating, n))
    assert not missing, f"bench/test_oracle.py reads causalrating.{missing}"


# Each raised a bare ValueError ("Exceeds the limit (4300 digits) for integer
# string conversion") from the message that formats the integer.
@pytest.mark.parametrize(
    "call",
    [
        lambda: infer(confounded_mediation_example(), {"Y_f"}, {"Z": -10**5000}),
        lambda: intervene(confounded_mediation_example(), {"Z": -10**5000}),
        lambda: infer(confounded_mediation_example(), {"Y_f"}, max_cells=-10**5000),
        lambda: tta_discretize(-10**5000, (4.0, 2.0)),
        lambda: dag_from_json({"nodes": [10**5000], "edges": []}),
        lambda: DiscreteScm(Dag(["A"], []), {"A": 10**5000}, {"A": [[1.0]]}),
        lambda: dataclasses.replace(default_scenario(), schema_version=10**5000),
        lambda: dataclasses.replace(default_scenario(), depth=10**5000),
        lambda: dataclasses.replace(default_scenario(), decision_card=10**5000),
        lambda: dataclasses.replace(default_scenario(), traffic_card=10**5000),
        lambda: canonical_scenario(10**5000),
    ],
    ids=[
        "evidence", "intervention", "max-cells", "tta", "node-name", "card", "scenario-schema-version",
        "scenario-depth", "scenario-decision-card", "scenario-traffic-card", "canonical-depth",
    ],
)
def test_huge_integer_refused_with_a_short_message(call):
    with pytest.raises(CausalRatingError) as raised:
        call()
    assert len(str(raised.value)) < 200, str(raised.value)


# Each takes the hostile value h in the place of one public name, set of
# names or evidence mapping; the other arguments are valid.
@functools.cache
def name_parameters() -> dict:
    scm = confounded_mediation_example()
    dag, j, d = scm.dag, infer(scm, {"Y_h", "X_c", "Z", "Y_f"}), sample(scm, 10, 1)
    scenario = default_scenario()
    return {
        "Dag nodes": lambda h: Dag(h, []),
        "Dag latent": lambda h: Dag(["A"], [], h),
        "Dag edges": lambda h: Dag(["A"], h),
        "Dag edge endpoint": lambda h: Dag(["A"], [(h, "A")]),
        "Dag.parents": lambda h: dag.parents(h),
        "Dag.children": lambda h: dag.children(h),
        "Dag.ancestors": lambda h: dag.ancestors(h),
        "Dag.descendants": lambda h: dag.descendants(h),
        "template": lambda h: template(h),
        "d_separated X": lambda h: d_separated(dag, h, {"Y_f"}, ()),
        "d_separated Y": lambda h: d_separated(dag, {"Y_h"}, h, ()),
        "d_separated Z": lambda h: d_separated(dag, {"Y_h"}, {"Y_f"}, h),
        "open_trail X": lambda h: open_trail(dag, h, {"Y_f"}, ()),
        "open_trail Y": lambda h: open_trail(dag, {"Y_h"}, h, ()),
        "open_trail Z": lambda h: open_trail(dag, {"Y_h"}, {"Y_f"}, h),
        "mutilate": lambda h: mutilate(dag, h),
        "open_backdoor_trail x": lambda h: open_backdoor_trail(dag, h, "Y_f", ()),
        "open_backdoor_trail y": lambda h: open_backdoor_trail(dag, "X_c", h, ()),
        "open_backdoor_trail Z": lambda h: open_backdoor_trail(dag, "X_c", "Y_f", h),
        "frontdoor_failure x": lambda h: frontdoor_failure(dag, h, "Y_f", {"Z"}),
        "frontdoor_failure y": lambda h: frontdoor_failure(dag, "X_c", h, {"Z"}),
        "frontdoor_failure M": lambda h: frontdoor_failure(dag, "X_c", "Y_f", h),
        "frontdoor_failure strata": lambda h: frontdoor_failure(dag, "X_c", "Y_f", {"Z"}, h),
        "rule1 outcome": lambda h: rule1_deletion_check(dag, h, "Y_h", {"X_c"}),
        "rule1 candidate": lambda h: rule1_deletion_check(dag, "Y_f", h, {"X_c"}),
        "rule1 do_set": lambda h: rule1_deletion_check(dag, "Y_f", "Y_h", h),
        "noise_verdict candidate": lambda h: noise_verdict(dag, h, "Y_f", {"X_c"}),
        "noise_verdict outcome": lambda h: noise_verdict(dag, "Y_h", h, {"X_c"}),
        "noise_verdict observed": lambda h: noise_verdict(dag, "Y_h", "Y_f", h),
        "JointTable.axis": lambda h: j.axis(h),
        "JointTable.card": lambda h: j.card(h),
        "marginal": lambda h: marginal(j, h),
        "condition": lambda h: condition(j, h),
        "infer keep": lambda h: infer(scm, h),
        "infer evidence": lambda h: infer(scm, {"Y_f"}, h),
        "intervene": lambda h: intervene(scm, h),
        "do_distribution outcome": lambda h: do_distribution(scm, h, {"X_c": 1}),
        "do_distribution do": lambda h: do_distribution(scm, "Y_f", h),
        "do_distribution given": lambda h: do_distribution(scm, "Y_f", {"X_c": 1}, h),
        "DiscreteScm card": lambda h: DiscreteScm(dag, h, scm.cpt),
        "DiscreteScm cpt": lambda h: DiscreteScm(dag, scm.card, h),
        "parents_of": lambda h: scm.parents_of(h),
        "Dataset vars": lambda h: Dataset(h, (2,), [[0]], 0),
        "Dataset.column": lambda h: d.column(h),
        "empirical_joint": lambda h: empirical_joint(d, h),
        "EffectQuery outcome": lambda h: EffectQuery(h, {"X_c"}),
        "EffectQuery do": lambda h: EffectQuery("Y_f", h),
        "EffectQuery observed": lambda h: EffectQuery("Y_f", {"X_c"}, h),
        "identify_effect mediators": lambda h: identify_effect(scm, EffectQuery("Y_f", {"X_c"}), "auto", h),
        "identify_effect adjust": lambda h: identify_effect(scm, EffectQuery("Y_f", {"Y_h"}), "backdoor", adjust=h),
        "backdoor_adjust x": lambda h: backdoor_adjust(j, dag, h, "Y_f", ()),
        "backdoor_adjust y": lambda h: backdoor_adjust(j, dag, "Y_h", h, ()),
        "backdoor_adjust Z": lambda h: backdoor_adjust(j, dag, "Y_h", "Y_f", h),
        "frontdoor_adjust x": lambda h: frontdoor_adjust(j, dag, h, "Y_f", {"Z"}),
        "frontdoor_adjust y": lambda h: frontdoor_adjust(j, dag, "X_c", h, {"Z"}),
        "frontdoor_adjust M": lambda h: frontdoor_adjust(j, dag, "X_c", "Y_f", h),
        "frontdoor_adjust given": lambda h: frontdoor_adjust(j, dag, "X_c", "Y_f", {"Z"}, h),
        "confounding_gap x": lambda h: confounding_gap(scm, h, "Y_f", "U"),
        "confounding_gap y": lambda h: confounding_gap(scm, "X_c", h, "U"),
        "confounding_gap u": lambda h: confounding_gap(scm, "X_c", "Y_f", h),
        "rating_comparison yh": lambda h: rating_comparison(j, h, "X_c", "Y_f"),
        "rating_comparison xc": lambda h: rating_comparison(j, "Y_h", h, "Y_f"),
        "rating_comparison yf": lambda h: rating_comparison(j, "Y_h", "X_c", h),
        "rating_report history": lambda h: rating_report(scm, history=h),
        "rating_report behavior": lambda h: rating_report(scm, behavior=h),
        "rating_report outcome": lambda h: rating_report(scm, outcome=h),
        "rating_report observed": lambda h: rating_report(scm, observed=h),
        **{f"RoadRiskScenario.query {flag}": lambda h, flag=flag: scenario.query(**{flag: h})
           for flag in ("do", "outcome", "given", "mediators", "history", "behavior", "observed")},
        "entropy": lambda h: entropy(j, h),
        "conditional_entropy X": lambda h: conditional_entropy(j, h, {"Y_f"}),
        "conditional_entropy Z": lambda h: conditional_entropy(j, {"Y_f"}, h),
        "mutual_information X": lambda h: mutual_information(j, h, {"Y_f"}),
        "mutual_information Y": lambda h: mutual_information(j, {"Y_h"}, h),
        "conditional_mutual_information X": lambda h: conditional_mutual_information(j, h, {"Y_f"}, {"X_c"}),
        "conditional_mutual_information Y": lambda h: conditional_mutual_information(j, {"Y_h"}, h, {"X_c"}),
        "conditional_mutual_information Z": lambda h: conditional_mutual_information(j, {"Y_h"}, {"Y_f"}, h),
        "chain_decompositions A": lambda h: chain_decompositions(j, h, {"X_c"}, {"Y_f"}),
        "chain_decompositions B": lambda h: chain_decompositions(j, {"Y_h"}, h, {"Y_f"}),
        "chain_decompositions Y": lambda h: chain_decompositions(j, {"Y_h"}, {"X_c"}, h),
    }


# A bare string, None, numbers, bytes, a mapping, a list (nested once
# wrapped), a set holding a non-string, an unknown and a 100-character name.
HOSTILE = ("X_c", None, 1, 10**5000, b"X_c", {"X_c": 1}, ["X_c"], {1, "X_c"}, frozenset({1}), "Q", "Q" * 100)
# Each hostile value is passed as it is, in a list, in a set and as the key of a mapping.
SHAPES = {
    "as is": lambda h: h,
    "in a list": lambda h: [h],
    "in a set": lambda h: {h},
    "as a key": lambda h: {h: 0},
}


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(
    where=st.sampled_from(sorted(name_parameters())),
    value=st.sampled_from(HOSTILE),
    shape=st.sampled_from(sorted(SHAPES)),
)
def test_a_hostile_name_raises_only_a_short_package_error(where, value, shape):
    # A hostile value escaped as TypeError, AttributeError or a bare
    # ValueError from a repr of a huge integer, or was read as its keys or letters.
    if shape in ("in a set", "as a key") and not hashable(value):
        shape = "in a list"
    try:
        name_parameters()[where](SHAPES[shape](value))
    except CausalRatingError as error:
        assert len(str(error)) < 200, str(error)


@pytest.mark.parametrize("where", ["Dag nodes", "Dag latent", "d_separated X", "frontdoor_failure M", "EffectQuery do"])
@pytest.mark.parametrize(
    "value,want",
    [
        (None, ": expected a collection of names, got None"),
        ("X_c", ": expected a collection of names, got 'X_c'"),
        ({"X_c": 1}, ": expected a collection of names, got {'X_c': 1}"),
        ([["X_c"]], "[0]: expected a name, got ['X_c']"),
        # A set's order changes from run to run, so its bad member has no index.
        ({1, "X_c"}, ": expected a name, got 1"),
        ({2.5, 1, "X_c", None}, ": expected a name, got 1"),
    ],
    ids=repr,
)
def test_what_is_no_set_of_names_is_refused(where, value, want):
    with pytest.raises(causalrating.ParameterError) as raised:
        name_parameters()[where](value)
    assert re.fullmatch(r"[\w.]+" + re.escape(want), str(raised.value)), str(raised.value)


# cli.py and __init__.py are left out: they format only argv or environment
# strings and attribute names, never a value the library was called with.
@pytest.mark.parametrize("layer", LAYERS)
def test_raise_messages_show_values_with_shown_not_repr(layer):
    tree = ast.parse((ROOT / "src" / "causalrating" / f"{layer}.py").read_text())
    found = [
        node.lineno
        for raised in ast.walk(tree) if isinstance(raised, ast.Raise)
        for node in ast.walk(raised) if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
    ]
    assert not found, f"{layer}.py formats a raise message with !r on lines {found}; use graph._shown"
