"""Discrete causal toolkit for rating-variable analysis.

Decides by graph criteria and information measures whether a rating
variable (claim history in particular) is deprecable noise, and
identifies causal effects of driving behavior on future claims via
front-door adjustment, validated against exact graph-surgery oracles.

``import causalrating`` loads only the NumPy-free layers, ``errors`` and
``graph`` (the verdicts included).  The NumPy-backed layers ``scm``,
``info``, ``identify`` and ``road_risk``, and every name they export
here, are imported on first access (PEP 562), so graph-only work never
loads NumPy.  A missing or broken NumPy therefore raises at the first
use of such a name, not at import.
"""

import importlib as _importlib

from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403

# Each NumPy-backed public name, by the layer that defines it.
_LAZY = {
    name: layer
    for layer, names in {
        "scm": "Dataset DiscreteScm JointTable condition dataset_to_csv do_distribution"
        " empirical_joint exact_joint infer intervene marginal random_scm sample"
        " scm_from_json scm_to_json",
        "info": "ChainDecomposition chain_decompositions conditional_entropy"
        " conditional_mutual_information entropy mutual_information",
        "identify": "CapacityReport ConfoundingGap EffectQuery EffectTable backdoor_adjust"
        " confounded_direct_example confounded_mediation_example confounding_gap"
        " frontdoor_adjust identify_effect rating_comparison",
        "road_risk": "RoadRiskScenario build_scenario canonical_scenario default_scenario"
        " chain_factorization_residual ground_truth_effect markov_consistency naive_effect"
        " observational_joint phyd_effect scenario_dag scenario_from_json scenario_to_json"
        " simulate_journeys tta_discretize",
    }.items()
    for name in names.split()
}
_LAYERS = ("scm", "info", "identify", "road_risk")
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAYERS, *_LAZY]


def __getattr__(name):
    """Import a NumPy-backed layer, or one of its names, on first access."""
    layer = name if name in _LAYERS else _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{layer}")  # binds the layer here
    if name != layer:
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
