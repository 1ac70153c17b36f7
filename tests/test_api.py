"""The public names of the package: each layer's ``__all__`` and what
``causalrating`` re-exports."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import causalrating
from causalrating import (
    CausalRatingError, Dag, DiscreteScm, confounded_mediation_example, dag_from_json, infer, intervene,
    tta_discretize,
)

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
    ],
    ids=["evidence", "intervention", "max-cells", "tta", "node-name", "card"],
)
def test_huge_integer_refused_with_a_short_message(call):
    with pytest.raises(CausalRatingError) as raised:
        call()
    assert len(str(raised.value)) < 200, str(raised.value)
