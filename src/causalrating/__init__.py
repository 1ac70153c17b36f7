"""Discrete causal toolkit for rating-variable analysis.

Decides by graph criteria and information measures whether a rating
variable (claim history in particular) is deprecable noise, and
identifies causal effects of driving behavior on future claims via
front-door adjustment, validated against exact graph-surgery oracles.
"""

from .errors import *  # noqa: F401,F403
from .graph import (
    Dag,
    TEMPLATE_IDS,
    build_dag,
    d_separated,
    dag_from_json,
    dag_to_json,
    mutilate,
    open_trail,
    template,
)
from .scm import (
    Dataset,
    DiscreteScm,
    JointTable,
    build_scm,
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
)
from .info import (
    ChainDecomposition,
    chain_decompositions,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from .identify import (
    NOISE,
    SIGNAL,
    UNIDENTIFIABLE,
    CapacityReport,
    ConfoundingGap,
    EffectQuery,
    EffectTable,
    EliminationVerdict,
    backdoor_adjust,
    confounded_direct_example,
    confounded_mediation_example,
    confounding_gap,
    frontdoor_adjust,
    identify_effect,
    noise_verdict,
    rating_comparison,
    rule1_deletion_check,
)
from .road_risk import (
    RoadRiskScenario,
    build_scenario,
    canonical_scenario,
    default_scenario,
    chain_factorization_residual,
    ground_truth_effect,
    markov_consistency,
    naive_effect,
    observational_joint,
    phyd_effect,
    scenario_dag,
    scenario_from_json,
    scenario_to_json,
    simulate_journeys,
    tta_discretize,
)

__version__ = "0.1.0"
