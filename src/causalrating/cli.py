"""Batch command-line front end.

Loads graphs, discrete SCMs and road-risk scenarios from JSON files,
runs d-separation, identification, verdicts, simulation and the full
evaluation report, and emits JSON (CSV for bulk samples).

Exit codes: 0 success, 2 input or usage error, 3 identification
failure.  The default sampling seed is 42 and can be overridden with
the ``CAUSALRATING_SEED`` environment variable; a seed is an integer in 0..2**64 - 1.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

from .errors import CausalRatingError, IdentificationError
from .graph import (
    IDENTIFY_METHODS,
    TEMPLATE_IDS,
    Dag,
    dag_from_json,
    dag_to_json,
    noise_verdict,
    open_trail,
    template,
)

# The NumPy-backed layers are imported inside the commands that use
# them, so ``templates``, ``dsep`` and ``verdict`` never load NumPy.

REPORT_SCHEMA_VERSION = 1
SEED_ENV_VAR = "CAUSALRATING_SEED"
DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


class _Once(argparse.Action):
    """A list flag's action: a second use of the flag is refused, where
    argparse would let its list replace the first."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not self.default:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


@contextlib.contextmanager
def _writing(path):
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _required(roles: dict, *flags) -> None:
    for k in (k for k in flags if roles[k] is None):
        raise _UsageError(f"--{k} is required")


def _emit(doc, out_path=None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with _writing(out_path), open(out_path, "w") as fh:
            fh.write(text + "\n")
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
    except RecursionError:  # RFC 8259 section 9 lets a parser limit the nesting depth
        raise _UsageError(f"{path} nests arrays or objects deeper than the JSON reader allows")


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
    from .road_risk import build_scenario, scenario_from_json
    from .scm import scm_from_json

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
    from .identify import EffectQuery, identify_effect

    scm, scenario = _load_model(args.model)
    names, pinned = _parse_do(args.do or ())
    q = {"do": names or None, "outcome": args.outcome, "given": args.given, "mediators": args.mediators or None}
    q = scenario.query(**q) if scenario is not None else q
    _required(q, "outcome", "do")
    for v, val in pinned.items():
        if v in scm.card and not 0 <= val < scm.card[v]:
            raise _UsageError(f"--do {v}={val}: value out of range 0..{scm.card[v] - 1}")
    query = EffectQuery(q["outcome"], q["do"], args.given)
    method, table = identify_effect(scm, query, args.method, q["mediators"] or (), args.adjust)
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
    from .road_risk import scenario_from_json, write_journeys

    s = scenario_from_json(_load_json(args.scenario))
    seed = args.seed if args.seed is not None else _default_seed()
    with _writing(args.out):
        columns, claims = write_journeys(s, args.n, seed, args.out)
    _emit({"n": args.n, "seed": seed, "columns": list(columns), "out": args.out,
           "empirical_accident_rate": float(claims / args.n)}, args.summary)
    return 0


def cmd_evaluate(args) -> int:
    from .road_risk import evaluate_scenario, scenario_from_json

    s = scenario_from_json(_load_json(args.scenario))
    _emit({"schema_version": REPORT_SCHEMA_VERSION, **evaluate_scenario(s)}, args.out)
    return 0


def cmd_report(args) -> int:
    from .identify import rating_report

    scm, scenario = _load_model(args.model)
    roles = {k: getattr(args, k) for k in ("history", "behavior", "outcome", "observed")}
    if scenario is not None:
        roles = scenario.query(**roles)
        _required(roles, *roles)
    _emit({"schema_version": REPORT_SCHEMA_VERSION, **rating_report(scm, **roles)}, args.out)
    return 0


# -- parser ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; list defaults are
    tuples, so no parse can change what the next one starts from.  Its
    ``commands`` maps each command name to that command's parser."""
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
    d.add_argument("--x", nargs="+", action=_Once, required=True)
    d.add_argument("--y", nargs="+", action=_Once, required=True)
    d.add_argument("--z", nargs="*", action=_Once, default=())
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_dsep)

    i = sub.add_parser("identify", help="identify an interventional distribution")
    i.add_argument("model", help="SCM or scenario JSON file")
    i.add_argument("--outcome", default=None)
    i.add_argument("--do", nargs="+", action=_Once, default=None, metavar="NAME[=VAL]")
    i.add_argument("--given", nargs="*", action=_Once, default=())
    i.add_argument("--mediators", nargs="*", action=_Once, default=())
    i.add_argument("--adjust", nargs="*", action=_Once, default=())
    i.add_argument("--method", choices=IDENTIFY_METHODS, default="auto")
    i.add_argument("--out", default=None)
    i.set_defaults(fn=cmd_identify)

    v = sub.add_parser("verdict", help="noise/signal verdict for a variable")
    v.add_argument("graph", help="graph JSON file or template id")
    v.add_argument("--candidate", required=True)
    v.add_argument("--outcome", required=True)
    v.add_argument("--observed", nargs="*", action=_Once, default=())
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
    r.add_argument("--observed", nargs="*", action=_Once, default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_report)

    p.commands = sub.choices
    return p


def _parse(argv) -> argparse.Namespace:
    """``argv`` read as ``_build_parser().parse_args`` reads it.  A
    command name first is read by that command's parser alone, which
    skips the top-level pass; left-over arguments are refused by the
    top-level parser, with its usage, as that pass would refuse them."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
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
            doc["error"]["witness"] = witness
        cell = getattr(exc, "cell", None)
        if cell is not None:
            doc["error"]["cell"] = {k: int(v) for k, v in cell.items()}
        _emit(doc)
        return 3
    except CausalRatingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
