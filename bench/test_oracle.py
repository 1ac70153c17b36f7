"""Tests of the benchmark's oracle, its checks and its tracer.

Run with ``python3 -m pytest bench``.  The oracle is checked against a
third computation (a forward sum over the road-risk chain), against
the program on small inputs, and against deliberately broken outputs.
"""

import contextlib
import io
import itertools
import json
import random

import pytest

import causalrating as cr
import causalrating.cli as cli
import oracle
import spans
import workloads


def _paths(doc, h, jo, u, d, p, hazard):
    """Exact sum over traffic and peril sequences by recursion."""
    probs = {0: p, 1: 0.0}  # distribution of the current peril level
    for stage in doc["escalation"]:
        nxt = {0: 0.0, 1: probs[1]}
        for t, pt in enumerate(doc["traffic_dist"]):
            e = stage[d][t]
            nxt[0] += probs[0] * pt * (1 - e)
            nxt[1] += probs[0] * pt * e
        probs = nxt
    acc = sum(
        mass * (min(1.0, doc["accident_base"][s] + hazard * u) if jo else 0.0)
        for s, mass in probs.items()
    )
    return {(h, jo, u, d, 0): p - acc, (h, jo, u, d, 1): acc}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_closed_form_matches_path_sum(depth):
    doc = workloads.canonical_scenario_doc(depth)
    table = oracle.small_joint(doc)
    paths = {}
    for h, jo, u, d in itertools.product(range(3), range(2), range(2), range(3)):
        p = doc["y_h_prior"][h] * (doc["journey_rate"][h] if jo else 1 - doc["journey_rate"][h])
        p *= (doc["confounder_strength"]["u_prob"] if u else 1 - doc["confounder_strength"]["u_prob"])
        p *= oracle._decision_dist(doc, jo, u)[d]
        paths.update(_paths(doc, h, jo, u, d, p, doc["confounder_strength"]["hazard"]))
    assert set(paths) == set(table)
    for key in table:
        assert table[key] == pytest.approx(paths[key], abs=1e-15)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_closed_form_matches_program(depth):
    doc = workloads.canonical_scenario_doc(depth)
    s = cr.canonical_scenario(depth)
    assert cr.scenario_to_json(s) == json.loads(json.dumps(doc))
    truth = cr.ground_truth_effect(s, cr.EffectQuery("Y_f", frozenset({"J_o", "D"})))
    phyd, naive = cr.phyd_effect(s), cr.naive_effect(s)
    for key, dist in oracle.do_effect(doc).items():
        assert list(truth.dist(key)) == pytest.approx(dist, abs=1e-12)
        assert list(phyd.dist(key)) == pytest.approx(dist, abs=1e-12)
    for key, dist in oracle.naive_effect(doc).items():
        assert list(naive.dist(key)) == pytest.approx(dist, abs=1e-12)
    mi = cr.mutual_information(cr.observational_joint(s), {"Y_h"}, {"Y_f"})
    table = oracle.history_outcome_table(doc)
    assert oracle.mutual_information(table, ("Y_h", "Y_f"), ["Y_h"], ["Y_f"]) == pytest.approx(mi, abs=1e-12)


def test_report_check_accepts_program_and_rejects_tampering():
    doc = workloads.canonical_scenario_doc(2)
    path = str(workloads.Path(cr.__file__).parent / "data" / "default_scenario.json")
    text = run_cli("evaluate", path)[1]
    assert workloads.check_report(doc, text) is None
    rep = json.loads(text)
    rep["effects"]["frontdoor"]["cells"][3]["distribution"][1] += 1e-6
    assert "effects.frontdoor" in workloads.check_report(doc, json.dumps(rep))


@pytest.mark.parametrize("name", ["confounded_mediation", "confounded_direct"])
def test_enumeration_matches_program(name):
    doc = json.loads((workloads.Path(cr.__file__).parent / "data" / f"{name}.json").read_text())
    scm = cr.scm_from_json(doc)
    nodes, table = oracle.enumerate_joint(doc)
    joint = cr.exact_joint(scm)
    for cfg, p in table.items():
        idx = tuple(cfg[nodes.index(v)] for v in joint.vars)
        assert joint.probs[idx] == pytest.approx(p, abs=1e-15)
    for x in range(2):
        want = cr.do_distribution(scm, "Y_f", {"X_c": x}, given={"Y_h": 1})
        got = oracle.interventional(doc, "Y_f", {"X_c": x}, {"Y_h": 1})
        assert got == pytest.approx(list(want), abs=1e-15)


def test_backdoor_model_parents_order_is_honoured():
    doc = workloads.backdoor_model(random.Random(5))
    scm = cr.scm_from_json(doc)
    for x in range(2):
        want = cr.do_distribution(scm, "Y", {"X": x})
        assert oracle.interventional(doc, "Y", {"X": x}) == pytest.approx(list(want), abs=1e-15)


def random_graph(rng, n, p):
    nodes = [f"N{i}" for i in range(n)]
    edges = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return nodes, edges


def test_kahn_order_matches_program():
    rng = random.Random(1)
    for _ in range(20):
        nodes, edges = random_graph(rng, 8, 0.4)
        rng.shuffle(nodes)
        rng.shuffle(edges)
        acyclic = [(a, b) if int(a[1:]) < int(b[1:]) else (b, a) for a, b in edges]
        assert oracle.kahn_order(nodes, acyclic) == list(cr.Dag(nodes, acyclic).topological_order)


def test_moralised_dsep_agrees_with_program_and_witnesses_are_open():
    rng = random.Random(2)
    checked = 0
    for _ in range(60):
        nodes, edges = random_graph(rng, 7, 0.35)
        dag = cr.Dag(nodes, edges)
        x, y, *z = rng.sample(nodes, 2 + rng.randrange(3))
        sep = oracle.d_separated(nodes, edges, {x}, {y}, z)
        assert sep == cr.d_separated(dag, {x}, {y}, z)
        if not sep:
            trail = cr.open_trail(dag, {x}, {y}, z)
            assert oracle.open_trail_error(nodes, edges, trail, {x}, {y}, z) is None
            checked += 1
    assert checked > 10


def test_textbook_dsep_cases():
    nodes, edges = ["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")]
    assert oracle.d_separated(nodes, edges, {"A"}, {"B"}, [])
    assert not oracle.d_separated(nodes, edges, {"A"}, {"B"}, ["D"])  # collider's descendant
    assert oracle.d_separated(nodes, edges, {"A"}, {"D"}, ["C"])


def test_witness_checker_rejects_bad_trails():
    nodes, edges = ["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")]
    assert oracle.open_trail_error(nodes, edges, ["A", "C", "B"], {"A"}, {"B"}, {"D"}) is None
    assert "collider" in oracle.open_trail_error(nodes, edges, ["A", "C", "B"], {"A"}, {"B"}, set())
    assert "non-collider" in oracle.open_trail_error(nodes, edges, ["A", "C", "D"], {"A"}, {"D"}, {"C"})
    assert "adjacent" in oracle.open_trail_error(nodes, edges, ["A", "B"], {"A"}, {"B"}, set())
    assert "repeats" in oracle.open_trail_error(nodes, edges, ["A", "C", "A", "C"], {"A"}, {"C"}, set())
    assert "not a trail" in oracle.open_trail_error(nodes, edges, None, {"A"}, {"C"}, set())


@pytest.mark.parametrize("name", workloads.TEMPLATE_IDS)
def test_verdict_oracle_agrees_on_templates(name):
    ref = name if name in workloads._FIXED_TEMPLATES else f"{name}(2)"
    nodes, edges, latent = workloads.template_graph(ref)
    dag = cr.template(ref)
    assert set(dag.edges) == set(edges)
    for cand, outcome in itertools.permutations(nodes, 2):
        observed = {v for v in ("X_c", "J_o", "D") if v in nodes and v not in (cand, outcome)}
        want = oracle.verdict(nodes, edges, cand, outcome, observed)
        assert cr.noise_verdict(dag, cand, outcome, observed).verdict == want


def test_ladder_verdict_is_signal():
    nodes, edges = workloads.ladder_dag(4)
    assert oracle.verdict(nodes, edges, "C", "Y", {"W", "Q"}) == "Signal"
    assert cr.noise_verdict(cr.Dag(nodes, edges), "C", "Y", {"W", "Q"}).verdict == "Signal"


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def test_csv_checker(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SIM_ROWS", 4000)
    doc = workloads.canonical_scenario_doc(3)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "j.csv")
    rc, text = run_cli("simulate", str(path), "--n", "4000", "--seed", "7", "--out", out)
    assert rc == 0
    digests = {}
    assert workloads.CsvChecker(doc, out, 7, digests)(text) is None
    data = bytearray(workloads.Path(out).read_bytes())
    cols = data[: data.index(b"\n")].decode().split(",")
    data[data.index(b"\n") + 1 + 2 * cols.index("S_0")] = ord("1")
    workloads.Path(out).write_bytes(bytes(data))
    assert "differs" in workloads.CsvChecker(doc, out, 7, digests)(text)
    assert "S_0" in workloads.CsvChecker(doc, out, 7, {})(text)


def test_not_identifiable_check_notes_a_missing_witness():
    path = workloads.Path(cr.__file__).parent / "data" / "confounded_direct.json"
    doc = json.loads(path.read_text())
    rc, text = run_cli("identify", str(path), "--do", "X_c", "--outcome", "Y_f")
    assert rc == 3
    err = json.loads(text)["error"]
    err.pop("witness", None)
    note = workloads.check_not_identifiable(doc, json.dumps({"error": err}))
    assert isinstance(note, workloads.Note) and "witness" in note
    err["witness"] = ["X_c", "Y_f"]  # the direct edge, not a back-door trail
    assert workloads.check_not_identifiable(doc, json.dumps({"error": err}))
    err["witness"] = ["X_c", "U", "Y_f"]
    assert workloads.check_not_identifiable(doc, json.dumps({"error": err})) is None


def test_tracer_wraps_every_binding_and_keeps_stdout():
    path = str(workloads.Path(cr.__file__).parent / "data" / "default_scenario.json")
    plain = run_cli("evaluate", path)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        import causalrating.road_risk as rr

        assert rr.exact_joint is cr.scm.exact_joint
        assert hasattr(rr.exact_joint, "__wrapped__")
        traced = run_cli("evaluate", path)
    finally:
        restore()
    assert traced == plain
    assert not hasattr(cr.scm.exact_joint, "__wrapped__")
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["scm.exact_joint.calls"] > 1  # reached through road_risk and identify
    assert summary["scm.exact_joint.cells"] > 0
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == 1 and roots[0][0] == "cli.main"
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
