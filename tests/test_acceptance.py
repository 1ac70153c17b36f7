"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every criterion is checked against an independent oracle (exhaustive
enumeration, graph surgery, or an algebraic identity) at the stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import json

import numpy as np
import pytest

from causalrating import (
    EffectQuery,
    NOISE,
    build_scenario,
    canonical_scenario,
    chain_decompositions,
    chain_factorization_residual,
    condition,
    confounded_direct_example,
    confounded_mediation_example,
    confounding_gap,
    conditional_mutual_information,
    d_separated,
    default_scenario,
    do_distribution,
    empirical_joint,
    exact_joint,
    frontdoor_adjust,
    ground_truth_effect,
    marginal,
    mutual_information,
    naive_effect,
    noise_verdict,
    observational_joint,
    phyd_effect,
    random_scm,
    scenario_dag,
    simulate_journeys,
    template,
)
from causalrating.cli import main as cli_main

from helpers import TEMPLATE_DAGS, live_cells, random_joint, reference_chain_factorization_residual


def _verdict(num: int, title: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:2d}: {title}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _subset_entropies(probs: np.ndarray) -> dict:
    """Entropy in bits of every axis subset of a joint probability array."""
    n = probs.ndim
    out = {}
    for mask in range(1 << n):
        keep = tuple(i for i in range(n) if mask >> i & 1)
        drop = tuple(i for i in range(n) if not mask >> i & 1)
        p = probs.sum(axis=drop) if drop else probs
        p = np.asarray(p).ravel()
        p = p[p > 0]
        out[mask] = float(-(p * np.log2(p)).sum())
    return out


@pytest.fixture(scope="module")
def thousand_joints():
    cards = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (4, 2, 2)]
    return [
        random_joint(seed, cards[seed % 4], ("Y_h", "X_c", "Y_f"))
        for seed in range(1000)
    ]


class TestAcceptance:
    def test_criterion_01_dsep_soundness(self):
        # Every d-separated triple (singleton X, singleton Y, any Z) must
        # have exact conditional mutual information < 1e-9 bits, over all
        # ten templates x 100 random-CPT seeds.
        failures = []
        for name, dag in TEMPLATE_DAGS.items():
            nodes = dag.topological_order
            pos = {v: i for i, v in enumerate(nodes)}
            n = len(nodes)
            separated = []
            for xi, yi in itertools.combinations(range(n), 2):
                rest = [i for i in range(n) if i not in (xi, yi)]
                for r in range(len(rest) + 1):
                    for zs in itertools.combinations(rest, r):
                        if d_separated(
                            dag, {nodes[xi]}, {nodes[yi]}, {nodes[i] for i in zs}
                        ):
                            zmask = sum(1 << i for i in zs)
                            separated.append((xi, yi, zmask))
            for seed in range(100):
                j = exact_joint(random_scm(dag, seed))
                assert j.vars == nodes
                h = _subset_entropies(np.asarray(j.probs))
                for xi, yi, zmask in separated:
                    cmi = (
                        h[zmask | 1 << xi]
                        + h[zmask | 1 << yi]
                        - h[zmask | 1 << xi | 1 << yi]
                        - h[zmask]
                    )
                    if cmi >= 1e-9:
                        failures.append((name, seed, nodes[xi], nodes[yi], zmask, cmi))
        _verdict(1, "d-separation soundness, 10 templates x 100 seeds", failures)

    def test_criterion_02_chain_rule_identities(self, thousand_joints):
        failures = []
        for seed, j in enumerate(thousand_joints):
            d = chain_decompositions(j, {"Y_h"}, {"X_c"}, {"Y_f"})
            r1 = abs(d.i_ab_y - d.i_a_y - d.i_b_y_given_a)
            r2 = abs(d.i_ab_y - d.i_b_y - d.i_a_y_given_b)
            if r1 >= 1e-9 or r2 >= 1e-9:
                failures.append((seed, r1, r2))
        _verdict(2, "chain-rule identities on 1000 random joints", failures)

    def test_criterion_03_monotonicity(self, thousand_joints):
        failures = []
        for seed, j in enumerate(thousand_joints):
            d = chain_decompositions(j, {"Y_h"}, {"X_c"}, {"Y_f"})
            if d.i_ab_y < d.i_a_y - 1e-9:
                failures.append((seed, d.i_ab_y, d.i_a_y))
        _verdict(3, "joint capacity dominates marginal capacity", failures)

    def test_criterion_04_idealized_elimination(self):
        dag = TEMPLATE_DAGS["Fig1d"]
        failures = []
        for seed in range(100):
            j = exact_joint(random_scm(dag, seed))
            cmi = conditional_mutual_information(j, {"Y_h"}, {"Y_f"}, {"X_c"})
            gap = abs(
                mutual_information(j, {"Y_h", "X_c"}, {"Y_f"})
                - mutual_information(j, {"X_c"}, {"Y_f"})
            )
            if cmi >= 1e-9 or gap >= 1e-9:
                failures.append((seed, cmi, gap))
        _verdict(4, "history adds nothing once decisions are observed", failures)

    def test_criterion_05_confounding_gap(self):
        dag = TEMPLATE_DAGS["Fig2b"]
        failures = []
        for seed in range(100):
            scm = random_scm(dag, seed)
            g = confounding_gap(scm, "X_c", "Y_f", "U")
            if abs(g.i_ux_y - g.i_x_y - g.i_u_y_given_x) >= 1e-9:
                failures.append((seed, g))
        fixture = confounding_gap(confounded_direct_example(), "X_c", "Y_f", "U")
        if fixture.i_u_y_given_x <= 0.01:
            failures.append(("fixture", fixture.i_u_y_given_x))
        _verdict(5, "confounding-gap identity + strong-confounder fixture", failures)

    def test_criterion_06_frontdoor_matches_oracle(self):
        failures = []
        dag = TEMPLATE_DAGS["Fig3"]
        latent = dag.latent
        for seed in range(100):
            scm = random_scm(dag, seed)
            j = marginal(exact_joint(scm), set(dag.nodes) - latent)
            got = frontdoor_adjust(j, dag, "X_c", "Y_f", {"Z"})
            for x in range(2):
                dev = np.abs(
                    got[(x, ())] - do_distribution(scm, "Y_f", {"X_c": x})
                ).max()
                if dev >= 1e-9:
                    failures.append(("Fig3", seed, x, dev))
        for depth in (1, 2, 3):
            dag = template("Fig6Canonical", depth)
            mediators = {f"S_{i}" for i in range(depth + 1)}
            for seed in range(100):
                scm = random_scm(dag, seed)
                j = marginal(exact_joint(scm), set(dag.nodes) - dag.latent)
                got = frontdoor_adjust(j, dag, "D", "Y_f", mediators)
                for x in range(2):
                    dev = np.abs(
                        got[(x, ())] - do_distribution(scm, "Y_f", {"D": x})
                    ).max()
                    if dev >= 1e-9:
                        failures.append((f"Fig6Canonical({depth})", seed, x, dev))
        # The bias the adjustment removes is material on the shipped fixtures.
        scm = confounded_mediation_example()
        j = marginal(exact_joint(scm), set(scm.dag.nodes) - scm.dag.latent)
        fd = frontdoor_adjust(j, scm.dag, "X_c", "Y_f", {"Z"})
        worst = max(
            0.5
            * float(
                np.abs(
                    marginal(condition(j, {"X_c": x}), {"Y_f"}).probs - fd[(x, ())]
                ).sum()
            )
            for x in range(2)
        )
        if worst <= 0.005:
            failures.append(("mediation fixture tv", worst))
        s = default_scenario()
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        ne = naive_effect(s)
        worst = max(
            0.5 * float(np.abs(dist - gt.dist(cfg, g)).sum()) for cfg, g, dist in live_cells(ne)
        )
        if worst <= 0.005:
            failures.append(("scenario naive tv", worst))
        _verdict(6, "front-door equals surgery oracle; naive is biased", failures)

    def test_criterion_07_chain_factorization(self):
        failures = []
        for depth in (1, 2, 3):
            s = canonical_scenario(depth)
            scm = build_scenario(s)
            r = chain_factorization_residual(scm)
            want = max(
                reference_chain_factorization_residual(s, d, scm) for d in range(s.decision_card)
            )
            if r != want or r >= 1e-12:
                failures.append((depth, r, want))
        _verdict(7, "trajectory chain factorization residual < 1e-12", failures)

    def test_criterion_08_history_deprecation(self):
        # Both halves of the headline claim in one test: conditioning the
        # intervened effect on claim history changes nothing, yet claim
        # history is observationally predictive of the outcome.
        failures = []
        s = default_scenario()
        strat = ground_truth_effect(
            s, EffectQuery("Y_f", frozenset({"J_o", "D"}), frozenset({"Y_h"}))
        )
        plain = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        for cfg, g, dist in live_cells(strat):
            dev = float(np.abs(dist - plain.dist(cfg)).max())
            if dev >= 1e-9:
                failures.append((cfg, g, dev))
        mi = mutual_information(observational_joint(s), {"Y_h"}, {"Y_f"})
        if mi <= 0.001:
            failures.append(("observational mi", mi))
        v = noise_verdict(scenario_dag(s), "Y_h", "Y_f", {"J_o", "D"})
        if v.verdict != NOISE:
            failures.append(("verdict", v.verdict))
        _verdict(8, "claim history deprecable yet observationally predictive", failures)

    def test_criterion_09_phyd_estimator(self):
        failures = []
        s = default_scenario()
        gt = ground_truth_effect(s, EffectQuery("Y_f", frozenset({"J_o", "D"})))
        pe = phyd_effect(s)
        for cfg, g, dist in live_cells(pe):
            dev = float(np.abs(dist - gt.dist(cfg, g)).max())
            if dev >= 1e-9:
                failures.append(("exact", (cfg, g), dev))
        ds = simulate_journeys(s, 100_000, seed=17)
        j = empirical_joint(ds, ("Y_h", "J_o", "D", *s.states, "Y_f"))
        raw = frontdoor_adjust(
            j, scenario_dag(s), "D", "Y_f", set(s.states), given={"J_o"}
        )
        for (d, g), dist in raw.items():
            tv = 0.5 * float(np.abs(dist - gt.dist((g[0], d))).sum())
            if tv >= 0.02:
                failures.append(("empirical", d, g, tv))
        _verdict(9, "behavior-based effect exact and stable under sampling", failures)

    def test_criterion_10_simulate_determinism(self, tmp_path, capsys):
        failures = []
        scenario = str(
            __import__("pathlib").Path(__file__).resolve().parents[1]
            / "src"
            / "causalrating"
            / "data"
            / "default_scenario.json"
        )
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        outs = []
        for p in paths:
            code = cli_main(
                ["simulate", scenario, "--n", "2000", "--seed", "11", "--out", str(p)]
            )
            outs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(("exit code", code))
        if paths[0].read_bytes() != paths[1].read_bytes():
            failures.append("csv bytes differ between identical runs")
        a = json.loads(outs[0])
        b = json.loads(outs[1])
        a.pop("out"), b.pop("out")
        if a != b:
            failures.append("summaries differ between identical runs")
        with capsys.disabled():
            print()
            _verdict(10, "simulation byte-identical for a fixed seed", failures)
