"""Batch command-line front end.

Loads graphs, discrete SCMs and road-risk scenarios from JSON files,
runs d-separation, identification, verdicts, simulation and the full
evaluation report, and emits JSON (CSV for bulk samples).

Exit codes: 0 success, 2 input or usage error, 3 identification
failure.  The default sampling seed is 42 and can be overridden with
the ``CAUSALRATING_SEED`` environment variable; 0 is a valid seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import CausalRatingError, IdentificationError, UnknownVariable
from .graph import TEMPLATE_IDS, Dag, dag_from_json, dag_to_json, open_trail, template
from .identify import (
    IDENTIFY_METHODS,
    EffectQuery,
    confounding_gap,
    identify_effect,
    noise_verdict,
    rating_comparison,
)
from .road_risk import (
    RoadRiskScenario,
    build_scenario,
    chain_factorization_residual,
    markov_consistency,
    naive_effect,
    scenario_from_json,
    _journey_blocks,
)
from .scm import _csv_bytes, infer, scm_from_json

REPORT_SCHEMA_VERSION = 1
SEED_ENV_VAR = "CAUSALRATING_SEED"
DEFAULT_SEED = 42
# simulate draws, masks and writes this many rows at a time.
SIMULATE_BLOCK_ROWS = 1 << 16


class _UsageError(Exception):
    pass


def _emit(doc, out_path=None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text + "\n")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, or an integer literal too long to read
        raise _UsageError(f"{path} is not valid JSON: {exc}")


def _load_graph(ref: str) -> Dag:
    """A graph argument is a JSON file path or a built-in template id."""
    if os.path.exists(ref):
        return dag_from_json(_load_json(ref))
    return template(ref)


def _load_model(path: str):
    """Sniff a model file: serialized SCM or road-risk scenario.

    Returns (scm, scenario_or_none).  A JSON object with ``cpt`` is read
    as an SCM; any other document, as a scenario.
    """
    doc = _load_json(path)
    if isinstance(doc, dict) and "cpt" in doc:
        return scm_from_json(doc), None
    s = scenario_from_json(doc)
    return build_scenario(s), s


def _parse_do(items):
    """``--do NAME`` sweeps the variable; ``--do NAME=V`` also keeps only
    the cells where it is V.  Returns (names, pinned values)."""
    names, pinned = [], {}
    for item in items:
        name, eq, val = item.partition("=")
        if name in names:
            raise _UsageError(f"--do {name} given more than once")
        names.append(name)
        if eq:
            try:
                pinned[name] = int(val)
            except ValueError:
                raise _UsageError(f"--do {item}: value must be an integer")
    return names, pinned


# -- commands --------------------------------------------------------------


def cmd_templates(args) -> int:
    if args.name is None:
        _emit({"templates": sorted(TEMPLATE_IDS)}, args.out)
        return 0
    dag = template(args.name)
    _emit(dag_to_json(dag), args.out)
    return 0


def cmd_dsep(args) -> int:
    dag = _load_graph(args.graph)
    x, y, z = set(args.x), set(args.y), set(args.z or [])
    trail = open_trail(dag, x, y, z)
    doc = {"separated": trail is None}
    if trail is not None:
        doc["witness"] = trail
    _emit(doc, args.out)
    return 0


def cmd_identify(args) -> int:
    scm, scenario = _load_model(args.model)
    do, outcome, mediators = args.do, args.outcome, args.mediators
    if scenario is not None:
        do, outcome = do or ["J_o", "D"], outcome or "Y_f"
        mediators = mediators or scenario.states
    if outcome is None:
        raise _UsageError("--outcome is required")
    if not do:
        raise _UsageError("--do is required")
    names, pinned = _parse_do(do)
    for v, val in pinned.items():
        if v in scm.card and not 0 <= val < scm.card[v]:
            raise _UsageError(f"--do {v}={val}: value out of range 0..{scm.card[v] - 1}")
    query = EffectQuery(outcome, names, args.given)
    method, table = identify_effect(scm, query, args.method, mediators, args.adjust)
    doc = {"method": method, **table.to_json()}
    for v, val in pinned.items():
        at = table.do_vars.index(v)
        doc["cells"] = [c for c in doc["cells"] if c["do"][at] == val]
    _emit(doc, args.out)
    return 0


def cmd_verdict(args) -> int:
    dag = _load_graph(args.graph)
    v = noise_verdict(dag, args.candidate, args.outcome, set(args.observed or []))
    _emit(v.to_json(), args.out)
    return 0


def cmd_simulate(args) -> int:
    s = scenario_from_json(_load_json(args.scenario))
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    seed = args.seed if args.seed is not None else _default_seed()
    claims = np.zeros(2, dtype=np.int64)
    try:
        with open(args.out, "wb") as fh:
            for i, block in enumerate(_journey_blocks(s, args.n, seed, SIMULATE_BLOCK_ROWS)):
                fh.write(_csv_bytes(block.rows, () if i else block.vars))
                claims += np.bincount(block.column("Y_f"), minlength=2)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc}")
    summary = {
        "n": int(args.n),
        "seed": int(seed),
        "columns": list(block.vars),
        "empirical_accident_rate": float(claims[1] / args.n),
        "out": args.out,
    }
    _emit(summary, args.summary)
    return 0


def _scenario_report(s: RoadRiskScenario) -> dict:
    scm = build_scenario(s)
    j = infer(scm, {"Y_h", "J_o", "D", "Y_f"})
    capacity = rating_comparison(j, "Y_h", "D", "Y_f")
    gap = confounding_gap(scm, "D", "Y_f", "U")
    query = EffectQuery("Y_f", {"J_o", "D"})
    _, pe = identify_effect(scm, query, "frontdoor", s.states)
    _, gt = identify_effect(scm, query, "oracle")
    ne = naive_effect(s, joint=j)
    # Each over the live cells of the estimate.
    phyd_dev = float(np.abs(pe.probs - gt.probs)[pe.probs.any(axis=-1)].max())
    naive_tv = 0.5 * float(np.abs(ne.probs - gt.probs).sum(axis=-1)[ne.probs.any(axis=-1)].max())
    verdict = noise_verdict(scm.dag, "Y_h", "Y_f", {"J_o", "D"})
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "depth": int(s.depth),
        "capacity_bits": capacity.to_json(),
        "confounding_gap_bits": gap.to_json(),
        "chain_factorization_residual": chain_factorization_residual(scm),
        "traffic_markov_residual_bits": markov_consistency(scm),
        "phyd_vs_oracle_max_dev": phyd_dev,
        "naive_vs_oracle_max_tv": naive_tv,
        "history_outcome_mi_bits": capacity.naive_bms,
        "history_verdict": verdict.to_json(),
        "effects": {
            "oracle": gt.to_json(),
            "frontdoor": pe.to_json(),
            "naive": ne.to_json(),
        },
    }


def cmd_evaluate(args) -> int:
    _emit(_scenario_report(scenario_from_json(_load_json(args.scenario))), args.out)
    return 0


def cmd_report(args) -> int:
    scm, scenario = _load_model(args.model)
    history, outcome = args.history or "Y_h", args.outcome or "Y_f"
    behavior = args.behavior or ("D" if scenario is not None else "X_c")
    observed = set(args.observed or (("J_o", "D") if scenario is not None else ()))
    verdict = noise_verdict(scm.dag, history, outcome, observed)
    for v in (history, behavior, outcome):
        if v in scm.dag.latent:
            raise UnknownVariable(f"unknown variable: {v!r}")
    j = infer(scm, {history, behavior, outcome})
    capacity = rating_comparison(j, history, behavior, outcome)
    _emit(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "verdict": verdict.to_json(),
            "capacity_bits": capacity.to_json(),
        },
        args.out,
    )
    return 0


# -- parser ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; list defaults are
    tuples, so no parse can change what the next one starts from."""
    p = argparse.ArgumentParser(
        prog="causalrating",
        description="Causal analysis of rating variables on discrete models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("templates", help="list built-in graphs or print one")
    t.add_argument("name", nargs="?", help="template id, e.g. Fig1d or Fig6Canonical(2)")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_templates)

    d = sub.add_parser("dsep", help="d-separation query against a graph")
    d.add_argument("graph", help="graph JSON file or template id")
    d.add_argument("--x", nargs="+", required=True)
    d.add_argument("--y", nargs="+", required=True)
    d.add_argument("--z", nargs="*", default=())
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_dsep)

    i = sub.add_parser("identify", help="identify an interventional distribution")
    i.add_argument("model", help="SCM or scenario JSON file")
    i.add_argument("--outcome", default=None)
    i.add_argument("--do", nargs="+", default=None, metavar="NAME[=VAL]")
    i.add_argument("--given", nargs="*", default=())
    i.add_argument("--mediators", nargs="*", default=())
    i.add_argument("--adjust", nargs="*", default=())
    i.add_argument("--method", choices=IDENTIFY_METHODS, default="auto")
    i.add_argument("--out", default=None)
    i.set_defaults(fn=cmd_identify)

    v = sub.add_parser("verdict", help="noise/signal verdict for a variable")
    v.add_argument("graph", help="graph JSON file or template id")
    v.add_argument("--candidate", required=True)
    v.add_argument("--outcome", required=True)
    v.add_argument("--observed", nargs="*", default=())
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verdict)

    s = sub.add_parser("simulate", help="sample journey records to CSV")
    s.add_argument("scenario", help="scenario JSON file")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=None,
                   help=f"sampling seed (default {DEFAULT_SEED}, or ${SEED_ENV_VAR})")
    s.add_argument("--out", required=True, help="CSV output path")
    s.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    s.set_defaults(fn=cmd_simulate)

    e = sub.add_parser("evaluate", help="full evaluation report for a scenario")
    e.add_argument("scenario", help="scenario JSON file")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_evaluate)

    r = sub.add_parser("report", help="verdict plus capacity comparison")
    r.add_argument("model", help="SCM or scenario JSON file")
    r.add_argument("--history", default=None)
    r.add_argument("--behavior", default=None)
    r.add_argument("--outcome", default=None)
    r.add_argument("--observed", nargs="*", default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_report)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentificationError as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            doc["error"]["witness"] = list(witness)
        cell = getattr(exc, "cell", None)
        if cell is not None:
            doc["error"]["cell"] = {k: int(v) for k, v in cell.items()}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 3
    except CausalRatingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
