"""Workload inputs and their correctness checks.

Each workload is a fixed list of :class:`Op`, one ``causalrating.cli.main``
call each, made from ``--seed`` alone.  The program sees only the JSON
files written here; every check compares its output with :mod:`oracle`,
never with a saved copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

TOL = 1e-9


@dataclass
class Op:
    """One CLI call: its argv, the exit code a correct program gives, and
    a check of its stdout that returns a problem or None."""

    argv: list
    check: Callable[[str], str | None]
    expect_rc: int = 0
    label: str = ""


class Note(str):
    """A check's finding on an output that is otherwise right: a fault the
    run reports, and records in its results file, without counting the
    output as wrong."""


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return str(path)


def _close(got, want, what: str) -> str | None:
    if got is None or abs(float(got) - float(want)) > TOL:
        return f"{what}: got {got}, closed form {want}"
    return None


def _first(problems) -> str | None:
    return next((p for p in problems if p), None)


# -- road-risk scenarios ----------------------------------------------------


def canonical_scenario_doc(depth: int) -> dict:
    """The canonical parameterisation at any chain depth (repository fixture:
    escalation grows with stage, decision and traffic)."""
    dc, tc = 3, 2
    esc = [
        [
            [
                min(0.9, (0.05 + 0.06 * stage) * (1.0 + 2.2 * d / (dc - 1)) * (1.0 + 0.9 * t / (tc - 1)))
                for t in range(tc)
            ]
            for d in range(dc)
        ]
        for stage in range(depth)
    ]
    return {
        "schema_version": 1,
        "depth": depth,
        "decision_card": dc,
        "traffic_card": tc,
        "tta_thresholds": [4.0 * 0.5**i for i in range(depth + 1)],
        "y_h_prior": [0.62, 0.28, 0.10],
        "journey_rate": [0.90, 0.72, 0.50],
        "decision_base": [[0.45, 0.40, 0.15], [0.50, 0.35, 0.15]],
        "traffic_dist": [0.65, 0.35],
        "escalation": esc,
        "accident_base": [0.015, 0.55],
        "confounder_strength": {"u_prob": 0.30, "decision_shift": 0.55, "hazard": 0.30},
    }


def scenario_graph(doc) -> tuple:
    """(nodes, edges) of the road-risk graph: Fig. 6 with traffic parents
    and the journey gate on the outcome."""
    depth = int(doc["depth"])
    states = [f"S_{i}" for i in range(depth + 1)]
    traffic = [f"T_{i}" for i in range(depth + 1)]
    nodes = ["Y_h", "J_o", "U", "D", *traffic, *states, "Y_f"]
    edges = [("Y_h", "J_o"), ("J_o", "D"), ("U", "D"), ("U", "Y_f"), ("J_o", "Y_f")]
    edges += list(zip(traffic, states)) + [("D", s) for s in states]
    edges += list(zip(states, states[1:])) + [(states[-1], "Y_f")]
    return nodes, edges


def _cell_map(effect: dict) -> dict:
    return {
        (tuple(c["do"]), tuple(c["given"])): c["distribution"] for c in effect["cells"]
    }


def _check_cells(cells: dict, want: dict, what: str) -> str | None:
    if set(cells) != set(want):
        return f"{what}: cells {sorted(cells)} != {sorted(want)}"
    for key, dist in want.items():
        got = cells[key]
        if len(got) != len(dist) or max(abs(a - b) for a, b in zip(got, dist)) > TOL:
            return f"{what} {key}: got {got}, oracle {dist}"
    return None


def capacity_problems(cap: dict, table: dict, axes: tuple, yh, xc, yf) -> list:
    mi = oracle.mutual_information
    return [
        _close(cap.get("naive_bms"), mi(table, axes, [yh], [yf]), "naive_bms"),
        _close(cap.get("augmented_bms"), mi(table, axes, [yh, xc], [yf]), "augmented_bms"),
        _close(cap.get("phyd_major"), mi(table, axes, [xc], [yf]), "phyd_major"),
        _close(
            cap.get("phyd_minor"),
            oracle.conditional_mutual_information(table, axes, [yh], [yf], [xc]),
            "phyd_minor",
        ),
        _close(cap["augmented_bms"], cap["phyd_major"] + cap["phyd_minor"], "capacity chain rule"),
    ]


def check_report(doc, text: str) -> str | None:
    """Every figure of an ``evaluate`` report against the closed form."""
    rep = json.loads(text)
    axes = oracle.SMALL_AXES
    table = oracle.small_joint(doc)
    truth = {(k, ()): v for k, v in oracle.do_effect(doc).items()}
    naive = {(k, ()): v for k, v in oracle.naive_effect(doc).items()}
    nodes, edges = scenario_graph(doc)
    gap = rep["confounding_gap_bits"]
    tv = max(
        0.5 * sum(abs(a - b) for a, b in zip(naive[k], truth[k])) for k in truth
    )
    return _first(
        [
            None if rep["depth"] == doc["depth"] else f"depth {rep['depth']}",
            _check_cells(_cell_map(rep["effects"]["oracle"]), truth, "effects.oracle"),
            _check_cells(_cell_map(rep["effects"]["frontdoor"]), truth, "effects.frontdoor"),
            _check_cells(_cell_map(rep["effects"]["naive"]), naive, "effects.naive"),
            _close(
                rep["history_outcome_mi_bits"],
                oracle.mutual_information(oracle.history_outcome_table(doc), ("Y_h", "Y_f"), ["Y_h"], ["Y_f"]),
                "history_outcome_mi_bits",
            ),
            *capacity_problems(rep["capacity_bits"], table, axes, "Y_h", "D", "Y_f"),
            _close(gap["i_x_y"], oracle.mutual_information(table, axes, ["D"], ["Y_f"]), "gap i_x_y"),
            _close(gap["i_ux_y"], oracle.mutual_information(table, axes, ["U", "D"], ["Y_f"]), "gap i_ux_y"),
            _close(
                gap["i_u_y_given_x"],
                oracle.conditional_mutual_information(table, axes, ["U"], ["Y_f"], ["D"]),
                "gap i_u_y_given_x",
            ),
            None if 0.0 <= rep["chain_factorization_residual"] <= TOL else "chain residual",
            None if 0.0 <= rep["traffic_markov_residual_bits"] <= TOL else "markov residual",
            None if rep["phyd_vs_oracle_max_dev"] <= TOL else "phyd_vs_oracle_max_dev",
            _close(rep["naive_vs_oracle_max_tv"], tv, "naive_vs_oracle_max_tv"),
            None
            if rep["history_verdict"]["verdict"]
            == oracle.verdict(nodes, edges, "Y_h", "Y_f", {"J_o", "D"})
            == "Noise"
            else f"history verdict {rep['history_verdict']}",
        ]
    )


# -- evaluate_depth_sweep ---------------------------------------------------

SWEEP_DEPTHS = range(1, 8)
REFUSED_DEPTH = 8  # 72 * 4**9 cells, above the dense joint's 2**24 cap
DEFAULT_REPEATS = 10  # enough small models that the median op is one of them


def evaluate_depth_sweep(seed: int, work: Path, src: Path) -> list:
    """The seed does not enter: the sweep is the canonical chain at fixed
    depths, so its cost is the same on every run.  A call on the shipped
    default scenario follows each depth, so the small calls that set the
    median are spread over the whole round."""
    shipped = src / "causalrating" / "data" / "default_scenario.json"
    shipped_doc = json.loads(shipped.read_text())

    def default_op():
        return Op(["evaluate", str(shipped)], lambda t: check_report(shipped_doc, t), label="default")

    ops = []
    for depth in (*SWEEP_DEPTHS, REFUSED_DEPTH):
        doc = canonical_scenario_doc(depth)
        path = _write(work / f"canonical_{depth}.json", doc)
        ops.append(Op(["evaluate", path], lambda t, doc=doc: check_report(doc, t), label=f"depth{depth}"))
        ops.append(default_op())
    ops += [default_op() for _ in range(DEFAULT_REPEATS - (len(SWEEP_DEPTHS) + 1))]
    return ops


# -- query_mix --------------------------------------------------------------

_FIXED_TEMPLATES = {
    "Fig1a": (["Y_h", "Y_f"], [("Y_h", "Y_f")], []),
    "Fig1b": (["Y_h", "X_c", "Y_f"], [("Y_h", "Y_f"), ("X_c", "Y_f")], []),
    "Fig1c": (["Y_h", "X_c", "Y_f"], [("X_c", "Y_h"), ("X_c", "Y_f")], []),
    "Fig1d": (["Y_h", "X_c", "Y_f"], [("Y_h", "X_c"), ("X_c", "Y_f")], []),
    "Fig2a": (["Y_h", "X_c", "Y_f", "U"], [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "Y_h"), ("U", "X_c")], ["U"]),
    "Fig2b": (["Y_h", "X_c", "Y_f", "U"], [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "X_c"), ("U", "Y_f")], ["U"]),
    "Fig2c": (["Y_h", "X_c", "Y_f", "U"], [("Y_h", "X_c"), ("X_c", "Y_f"), ("U", "Y_h"), ("U", "Y_f")], ["U"]),
    "Fig3": (
        ["Y_h", "X_c", "Z", "Y_f", "U"],
        [("Y_h", "X_c"), ("X_c", "Z"), ("Z", "Y_f"), ("U", "X_c"), ("U", "Y_f")],
        ["U"],
    ),
}


def template_graph(name: str) -> tuple:
    """(nodes, edges, latent) of a figure, ``Fig4Chain(d)`` and
    ``Fig6Canonical(d)`` included."""
    if name in _FIXED_TEMPLATES:
        return _FIXED_TEMPLATES[name]
    base, depth = name[:-1].split("(")
    depth = int(depth)
    if base == "Fig4Chain":
        states = [f"S_{i}" for i in range(depth + 2)]
        traffic = [f"T_{i}" for i in range(depth + 2)]
        edges = list(zip(traffic, states)) + list(zip(states, states[1:]))
        edges += [("D", s) for s in states[1:]]
        return ["D", *traffic, *states], edges, []
    states = [f"S_{i}" for i in range(depth + 1)]
    edges = [("Y_h", "J_o"), ("J_o", "D"), ("U", "D"), ("U", "Y_f")]
    edges += [("D", s) for s in states] + list(zip(states, states[1:])) + [(states[-1], "Y_f")]
    return ["Y_h", "J_o", "U", "D", *states, "Y_f"], edges, ["U"]


TEMPLATE_IDS = sorted([*_FIXED_TEMPLATES, "Fig4Chain", "Fig6Canonical"])


def random_dag(rng: random.Random, n: int) -> tuple:
    """A random spanning tree over V0..V{n-1} (edges point to the higher
    index) plus n // 20 extra edges, so trails stay few."""
    nodes = [f"V{i}" for i in range(n)]
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + n // 20:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return nodes, sorted((nodes[a], nodes[b]) for a, b in edges)


def ladder_dag(rungs: int) -> tuple:
    """Candidate C causes Y directly; its only back-door trails climb a
    ladder of two rails A, B joined by rungs, and every one of them ends
    blocked at the observed fork W.  The observed collider Q under the
    rails keeps every collider on the ladder open, so a search that
    enumerates trails visits all of them."""
    a = [f"A{i}" for i in range(rungs + 1)]
    b = [f"B{i}" for i in range(rungs + 1)]
    edges = [("C", "Y"), ("W", "Y"), ("A0", "C"), ("W", a[-1]), ("W", b[-1]), ("A0", "Q"), ("B0", "Q")]
    edges += list(zip(a[1:], a)) + list(zip(b[1:], b)) + list(zip(a, b))
    return ["C", "Y", "W", "Q", *a, *b], edges


LADDER_RUNGS = 9  # 24 nodes; the trail count doubles with every rung
RANDOM_DAG_SIZES = (20, 50, 100)
DSEP_PER_DAG = 4
VERDICTS_PER_DAG = 2


def _graph_doc(nodes, edges, latent=()) -> dict:
    return {"nodes": list(nodes), "edges": [list(e) for e in edges], "latent": list(latent)}


def check_dsep(nodes, edges, x, y, z, text: str) -> str | None:
    out = json.loads(text)
    want = oracle.d_separated(nodes, edges, {x}, {y}, z)
    if out["separated"] != want:
        return f"dsep {x},{y}|{sorted(z)}: got {out['separated']}, oracle {want}"
    if not want:
        return oracle.open_trail_error(nodes, edges, out.get("witness"), {x}, {y}, z)
    return None


def check_verdict(nodes, edges, cand, outcome, observed, text: str) -> str | None:
    out = json.loads(text)
    want = oracle.verdict(nodes, edges, cand, outcome, observed)
    if out["verdict"] != want:
        return f"verdict {cand}->{outcome}|{sorted(observed)}: got {out['verdict']}, oracle {want}"
    if want == "Unidentifiable":
        trail = out["justification"].removeprefix("open-backdoor:").split(" - ")
        backdoor = [(a, b) for a, b in edges if a != cand]
        return oracle.open_trail_error(nodes, backdoor, trail, {cand}, {outcome}, observed)
    return None


def _dsep_op(ref, nodes, edges, x, y, z) -> Op:
    argv = ["dsep", ref, "--x", x, "--y", y, "--z", *sorted(z)]
    return Op(argv, lambda t: check_dsep(nodes, edges, x, y, z, t), label="dsep")


def _verdict_op(ref, nodes, edges, cand, outcome, observed, label="verdict") -> Op:
    argv = ["verdict", ref, "--candidate", cand, "--outcome", outcome, "--observed", *sorted(observed)]
    return Op(argv, lambda t: check_verdict(nodes, edges, cand, outcome, observed, t), label=label)


def backdoor_model(rng: random.Random) -> dict:
    """SCM whose X -> Y effect is back-door identifiable through Z, with a
    latent U behind W and Y.  Cards and CPT rows come from the seed; the
    ``parents`` key fixes a shuffled CPT row order."""
    nodes = ["W", "Z", "X", "Y", "U"]
    edges = [("U", "W"), ("U", "Y"), ("W", "Z"), ("Z", "X"), ("Z", "Y"), ("X", "Y")]
    card = {"W": 2, "Z": rng.choice([2, 3]), "X": 2, "Y": rng.choice([2, 3]), "U": 2}
    parents, cpt = {}, {}
    for v in nodes:
        ps = [a for a, b in edges if b == v]
        rng.shuffle(ps)
        parents[v] = ps
        rows = math.prod(card[p] for p in ps)
        cpt[v] = []
        for _ in range(rows):
            g = [0.05 + rng.random() for _ in range(card[v])]
            cpt[v].append([w / sum(g) for w in g])
    return {"graph": _graph_doc(nodes, edges, ["U"]), "card": card, "cpt": cpt, "parents": parents}


def check_identify(text: str, method: str, want: dict) -> str | None:
    out = json.loads(text)
    if out["method"] != method:
        return f"identify method {out['method']}, expected {method}"
    return _check_cells(_cell_map(out), want, f"identify {method}")


def _scm_effect(doc, outcome, x, given=()) -> dict:
    """{((x,), g): P(outcome | do(x), g)} by enumeration, positive strata only."""
    want = {}
    for xv in range(int(doc["card"][x])):
        for g in itertools.product(*(range(int(doc["card"][v])) for v in given)):
            dist = oracle.interventional(doc, outcome, {x: xv}, dict(zip(given, g)))
            if dist is not None:
                want[((xv,), tuple(g))] = dist
    return want


def check_not_identifiable(doc, text: str) -> str | None:
    """Exit 3 on confounded_direct: no observed set is back-door admissible
    (so nothing can be identified by adjustment), and the error's witness
    must be an open back-door trail.  An error without a witness is noted."""
    err = json.loads(text)["error"]
    if err["type"] != "CriterionNotMet":
        return f"identify error type {err['type']}"
    g = doc["graph"]
    backdoor = [tuple(e) for e in g["edges"] if e[0] != "X_c"]
    for z in ([], ["Y_h"]):
        if oracle.d_separated(g["nodes"], backdoor, {"X_c"}, {"Y_f"}, z):
            return f"oracle finds back-door set {z} on confounded_direct"
    if "witness" not in err:
        return Note("the CriterionNotMet error carries no witness trail")
    return oracle.open_trail_error(g["nodes"], backdoor, err["witness"], {"X_c"}, {"Y_f"}, set())


def check_scenario_report(doc, text: str) -> str | None:
    out = json.loads(text)
    nodes, edges = scenario_graph(doc)
    want = oracle.verdict(nodes, edges, "Y_h", "Y_f", {"J_o", "D"})
    if out["verdict"]["verdict"] != want:
        return f"report verdict {out['verdict']}, oracle {want}"
    table = oracle.small_joint(doc)
    return _first(capacity_problems(out["capacity_bits"], table, oracle.SMALL_AXES, "Y_h", "D", "Y_f"))


def check_scm_report(doc, text: str) -> str | None:
    out = json.loads(text)
    g = doc["graph"]
    want = oracle.verdict(g["nodes"], [tuple(e) for e in g["edges"]], "Y_h", "Y_f", set())
    if out["verdict"]["verdict"] != want:
        return f"report verdict {out['verdict']}, oracle {want}"
    nodes, table = oracle.enumerate_joint(doc)
    return _first(capacity_problems(out["capacity_bits"], table, nodes, "Y_h", "X_c", "Y_f"))


def check_template(name: str, text: str) -> str | None:
    out = json.loads(text)
    nodes, edges, latent = template_graph(name)
    got = (set(out["nodes"]), {tuple(e) for e in out["edges"]}, set(out["latent"]))
    if got != (set(nodes), set(edges), set(latent)) or len(out["nodes"]) != len(nodes):
        return f"template {name} differs from the figure"
    return None


def query_mix(seed: int, work: Path, src: Path) -> list:
    rng = random.Random(seed)
    data = src / "causalrating" / "data"
    scenario_path = data / "default_scenario.json"
    scenario = json.loads(scenario_path.read_text())
    mediation_path = data / "confounded_mediation.json"
    mediation = json.loads(mediation_path.read_text())
    direct_path = data / "confounded_direct.json"
    direct = json.loads(direct_path.read_text())
    direct_graph = _write(work / "confounded_direct_graph.json", direct["graph"])
    bd_doc = backdoor_model(rng)
    bd_path = _write(work / "backdoor_model.json", bd_doc)

    ops = [Op(["templates"], lambda t: None if json.loads(t)["templates"] == TEMPLATE_IDS else "template list")]
    for name in [*_FIXED_TEMPLATES, "Fig4Chain(2)", "Fig6Canonical(3)"]:
        ops.append(Op(["templates", name], lambda t, n=name: check_template(n, t), label="templates"))

    template_queries = [
        ("dsep", "Fig1d", "Y_h", "Y_f", {"X_c"}),
        ("dsep", "Fig2b", "X_c", "Y_f", {"Y_h"}),
        ("dsep", "Fig3", "X_c", "Y_f", {"Z"}),
        ("dsep", "Fig6Canonical(3)", "Y_h", "Y_f", {"J_o", "D"}),
        ("dsep", "Fig4Chain(2)", "T_0", "S_3", {"S_1"}),
        ("dsep", "Fig6Canonical(3)", "Y_h", "U", {"S_2"}),  # open only through D's descendant
        ("verdict", "Fig6Canonical(2)", "Y_h", "Y_f", {"J_o", "D"}),
        ("verdict", "Fig2b", "X_c", "Y_f", set()),
        ("verdict", "Fig1b", "Y_h", "Y_f", set()),
        ("verdict", "Fig2c", "Y_h", "Y_f", {"X_c"}),
        ("verdict", "Fig3", "Z", "Y_f", {"X_c"}),
    ]
    for kind, name, a, b, z in template_queries:
        nodes, edges, _ = template_graph(name)
        make = _dsep_op if kind == "dsep" else _verdict_op
        ops.append(make(name, nodes, edges, a, b, z))

    for n in RANDOM_DAG_SIZES:
        nodes, edges = random_dag(rng, n)
        path = _write(work / f"random_{n}.json", _graph_doc(nodes, edges))
        for kind, count in (("dsep", DSEP_PER_DAG), ("verdict", VERDICTS_PER_DAG)):
            for _ in range(count):
                x, y, *z = rng.sample(nodes, 2 + rng.randrange(4))
                make = _dsep_op if kind == "dsep" else _verdict_op
                ops.append(make(path, nodes, edges, x, y, set(z)))

    nodes, edges = ladder_dag(LADDER_RUNGS)
    path = _write(work / "ladder.json", _graph_doc(nodes, edges))
    ops.append(_verdict_op(path, nodes, edges, "C", "Y", {"W", "Q"}, label="ladder"))
    g = direct["graph"]
    ops.append(_verdict_op(direct_graph, g["nodes"], [tuple(e) for e in g["edges"]], "X_c", "Y_f", set()))

    truth = {(k, ()): v for k, v in oracle.do_effect(scenario).items()}
    ops += [
        Op(["identify", str(scenario_path)], lambda t: check_identify(t, "frontdoor", truth), label="identify"),
        Op(
            ["identify", str(mediation_path), "--do", "X_c", "--outcome", "Y_f", "--mediators", "Z", "--method", "frontdoor"],
            lambda t, w=_scm_effect(mediation, "Y_f", "X_c"): check_identify(t, "frontdoor", w),
            label="identify",
        ),
        Op(
            ["identify", str(mediation_path), "--do", "X_c", "--outcome", "Y_f", "--given", "Y_h", "--method", "oracle"],
            lambda t, w=_scm_effect(mediation, "Y_f", "X_c", ("Y_h",)): check_identify(t, "oracle", w),
            label="identify",
        ),
        Op(
            ["identify", bd_path, "--do", "X", "--outcome", "Y", "--adjust", "Z", "--method", "backdoor"],
            lambda t, w=_scm_effect(bd_doc, "Y", "X"): check_identify(t, "backdoor", w),
            label="identify",
        ),
        Op(
            ["identify", bd_path, "--do", "X", "--outcome", "Y"],
            lambda t, w=_scm_effect(bd_doc, "Y", "X"): check_identify(t, "backdoor", w),
            label="identify",
        ),
        Op(
            ["identify", str(direct_path), "--do", "X_c", "--outcome", "Y_f"],
            lambda t: check_not_identifiable(direct, t),
            expect_rc=3,
            label="identify",
        ),
        Op(["report", str(scenario_path)], lambda t: check_scenario_report(scenario, t), label="report"),
        Op(["report", str(mediation_path)], lambda t: check_scm_report(mediation, t), label="report"),
    ]
    return ops


# -- simulate_csv -----------------------------------------------------------

SIM_ROWS = 1_000_000
SIM_DEPTH = 6


@dataclass
class CsvChecker:
    """Checks one ``simulate`` call: its CSV file and its JSON summary.

    ``digests`` is shared by every call of a workload, so two calls with
    one scenario and seed must write byte-identical files."""

    doc: dict
    out: str
    seed: int
    digests: dict = field(default_factory=dict)

    def __call__(self, text: str) -> str | None:
        import numpy as np

        data = Path(self.out).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        key = (json.dumps(self.doc, sort_keys=True), self.seed)
        if self.digests.setdefault(key, digest) != digest:
            return f"seed {self.seed}: CSV differs from an earlier run with the same seed"
        header, _, body = data.partition(b"\n")
        cols = header.decode().split(",")
        nodes, edges = scenario_graph(self.doc)
        pos = {v: i for i, v in enumerate(cols)}
        if sorted(cols) != sorted(nodes) or any(pos[a] > pos[b] for a, b in edges):
            return f"CSV header {cols} is not a topological order of the scenario graph"
        k = len(cols)
        raw = np.frombuffer(body, dtype=np.uint8)
        if raw.size != SIM_ROWS * 2 * k:
            return f"CSV body has {raw.size} bytes, expected {SIM_ROWS} rows of {k} one-digit fields"
        raw = raw.reshape(SIM_ROWS, 2 * k)
        seps = np.full(2 * k, ord(","), dtype=np.uint8)[1::2]
        seps[-1] = ord("\n")
        if not (raw[:, 1::2] == seps).all():
            return "CSV separators are not ',' and newline"
        vals = raw[:, ::2].astype(np.int16) - ord("0")
        col = {v: vals[:, pos[v]] for v in cols}
        cards = {"Y_h": len(self.doc["y_h_prior"]), "D": int(self.doc["decision_card"])}
        for v in cols:
            hi = cards.get(v, int(self.doc["traffic_card"]) if v.startswith("T_") else 2)
            if col[v].min() < 0 or col[v].max() >= hi:
                return f"column {v} outside 0..{hi - 1}"
        states = [f"S_{i}" for i in range(int(self.doc["depth"]) + 1)]
        if col["S_0"].any():
            return "S_0 is not always 0"
        for a, b in zip(states, states[1:]):
            if (col[b] < col[a]).any():
                return f"peril chain steps back from {a} to {b}"
        home = col["J_o"] == 0
        if any(col[s][home].any() for s in states) or col["Y_f"][home].any():
            return "a row with J_o = 0 has a peril state or a claim"
        table = oracle.small_joint(self.doc)
        axes = oracle.SMALL_AXES
        for v in ("Y_f", "J_o"):
            p = oracle.marginalize(table, axes, [v])[(1,)]
            got = float(col[v].mean())
            se = math.sqrt(p * (1.0 - p) / SIM_ROWS)
            if abs(got - p) > 5.0 * se:
                return f"P({v}=1) = {got}, closed form {p} (5 SE = {5 * se})"
        summary = json.loads(text)
        expect = {"n": SIM_ROWS, "seed": self.seed, "columns": cols, "out": self.out}
        if any(summary.get(key) != val for key, val in expect.items()):
            return f"summary {summary} does not match the CSV"
        if abs(summary["empirical_accident_rate"] - float(col["Y_f"].mean())) > 1e-12:
            return "summary accident rate does not match the CSV"
        return None


def simulate_csv(seed: int, work: Path, src: Path) -> list:
    """1M rows on the shipped scenario twice with one seed (the second call
    must reproduce the first byte for byte) and on the depth-6 chain with
    another seed."""
    rng = random.Random(seed)
    s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
    shipped = src / "causalrating" / "data" / "default_scenario.json"
    deep = canonical_scenario_doc(SIM_DEPTH)
    runs = [
        (str(shipped), json.loads(shipped.read_text()), s1, "default"),
        (str(shipped), json.loads(shipped.read_text()), s1, "default"),
        (_write(work / f"canonical_{SIM_DEPTH}.json", deep), deep, s2, f"depth{SIM_DEPTH}"),
    ]
    digests = {}
    ops = []
    for i, (path, doc, s, label) in enumerate(runs):
        out = str(work / f"journeys-{i}.csv")  # kept until the round's checks
        argv = ["simulate", path, "--n", str(SIM_ROWS), "--seed", str(s), "--out", out]
        ops.append(Op(argv, CsvChecker(doc, out, s, digests), label=label))
    return ops


WORKLOADS = {
    "evaluate_depth_sweep": evaluate_depth_sweep,
    "query_mix": query_mix,
    "simulate_csv": simulate_csv,
}
