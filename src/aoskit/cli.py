"""Command-line front end.

Five subcommands cover the workflow: ``solve`` reports one optimal point,
``enumerate`` lists all optimal (or near-optimal) vertices, ``oracle`` does
the same by exhaustive hyperplane intersection, ``verify`` checks the
projection-containment relations between the three power-model relaxations,
and ``rank`` orders an enumerated set by a secondary criterion.

Exit codes:

* 0   success (for ``verify``: all containment checks passed on complete
      vertex sets)
* 1   a containment check failed
* 2   the model (or its sublevel set) is infeasible
* 3   the feasible region is unbounded; re-run with ``--box-bound``
* 4   enumeration was truncated by ``--limit`` or the basis budget, or a
      basis was dropped for numerical trouble (for ``verify``: the checks
      passed, but on a partial vertex set)
* 64  usage error: bad flags, unreadable input, schema violations
* 70  numerical failure inside the solver

Set ``AOS_LOG=debug`` (or ``info``) to see progress on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from .analysis import ContainmentReport, check_containment, rank_alternatives, rank_by_scores
from .model import LP_SCHEMA, ROLES, LpModel, Objective
from .power import (
    NET_SCHEMA,
    NetworkError,
    build_copper_plate,
    build_dcopf,
    build_network_flow,
    network_from_dict,
)
from .projection import ProjectionSpec, project_set, role_projection
from .reporting import REPORT_SCHEMA, make_report, write_report
from .sets import DEDUP_TOL, VertexSet
from .simplex import INFEASIBLE, NUMERIC_FAILURE, OPTIMAL, UNBOUNDED, solve_model
from .sublevel import SublevelSpec, _provably_empty, apply_box_bounds
from .vertices import (
    NumericFailureError,
    OracleGuardError,
    UnboundedRegionError,
    brute_force_vertices,
    enumerate_vertices,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_TRUNCATED = 4
EXIT_USAGE = 64
EXIT_NUMERIC = 70

MODEL_KINDS = ("dcopf", "nf", "cp", "raw-lp")

log = logging.getLogger("aoskit.cli")


class UsageError(Exception):
    """Bad command line or malformed input; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    # argparse calls error() and then sys.exit(2); route through UsageError
    # instead so every usage problem lands on the same exit code.
    def error(self, message):
        raise UsageError(message)


# Every configuration key but the input, with its default. Each subcommand
# gets the whole table, so a flag it lacks still reads its default.
_DEFAULTS = {
    "model": None, "gap": None, "tau": None, "box_bound": 1e4, "limit": 10_000,
    "dedup_tol": DEDUP_TOL, "seed": None, "project": None, "secondary": None,
}
# The report's config block. The output path is left out: the report must
# not depend on where it is written.
_CONFIG_KEYS = ("command", "input", *_DEFAULTS)


def build_parser() -> _Parser:
    parser = _Parser(prog="aoskit", description="enumerate and compare alternative optima of linear programs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help, *adders):
        p = sub.add_parser(name, help=help)
        p.set_defaults(**_DEFAULTS)
        p.add_argument("input", help="path to an aos-net/1 or aos-lp/1 JSON file")
        for add in adders:
            add(p)
        return p

    def add_model(p):
        p.add_argument("--model", choices=MODEL_KINDS, help="model family to build from a network input (default dcopf)")

    def add_output(p):
        p.add_argument("--output", metavar="PATH", help="write the JSON report here instead of stdout")

    def add_common(p, *, limits=True, projection=True):
        add_output(p)
        g = p.add_mutually_exclusive_group()
        g.add_argument("--gap", type=float, help="relative optimality gap (default 0: exact optima only)")
        g.add_argument("--tau", type=float, help="absolute objective threshold, overrides --gap")
        p.add_argument("--box-bound", type=float, metavar="M",
                       help="replace infinite variable bounds with +/- M (default %(default)s)")
        if limits:
            p.add_argument("--limit", type=int, metavar="N", help="stop after N distinct vertices (default %(default)s)")
            p.add_argument("--seed", type=int, metavar="S",
                           help="shuffle exploration order; the result set must not change")
        p.add_argument("--dedup-tol", type=float, metavar="T",
                       help="points closer than T (max-norm) are one vertex (default %(default)s)")
        if projection:
            p.add_argument("--project", metavar="SPEC",
                           help="project results: a role name, a coordinate count, or comma-separated variable names")

    command("solve", "solve the model and report one optimal point", add_model, add_output)
    command("enumerate", "enumerate all vertices of the optimal-or-near-optimal set", add_common, add_model)
    command("oracle", "enumerate vertices by brute-force hyperplane intersection",
            functools.partial(add_common, limits=False), add_model)
    command("verify", "check projection containment across dcopf, network-flow and copper-plate relaxations",
            functools.partial(add_common, projection=False))
    p_rank = command("rank", "order enumerated alternatives by a secondary criterion", add_common, add_model)
    p_rank.add_argument("--secondary", metavar="FILE", required=True,
                        help="JSON file with either a linear objective or an explicit score list")

    return parser


def _check_ranges(ns: argparse.Namespace) -> None:
    if ns.gap is not None and ns.gap < 0:
        raise UsageError("--gap must be nonnegative")
    if ns.limit < 1:
        raise UsageError("--limit must be at least 1")
    if ns.dedup_tol < 0:
        raise UsageError("--dedup-tol must be nonnegative")
    if ns.box_bound <= 0:
        raise UsageError("--box-bound must be positive")


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _schema(doc):
    return doc.get("schema") if isinstance(doc, dict) else None


def _load_model(ns: argparse.Namespace, doc) -> LpModel:
    """The model of an input document; its schema picks the loader."""
    schema = _schema(doc)
    if schema == LP_SCHEMA:
        if ns.model not in (None, "raw-lp"):
            raise UsageError(f"--model {ns.model} needs a network input, got a raw LP")
        try:
            return LpModel.from_json_dict(doc)
        except ValueError as exc:
            raise UsageError(f"bad LP document: {exc}") from exc
    if schema == NET_SCHEMA:
        net = network_from_dict(doc)
        kind = ns.model or "dcopf"
        if kind == "raw-lp":
            raise UsageError("--model raw-lp needs an aos-lp/1 input, got a network")
        return {"dcopf": build_dcopf, "nf": build_network_flow, "cp": build_copper_plate}[kind](net)
    raise UsageError(f"unrecognized input schema {schema!r} in {ns.input}; expected {NET_SCHEMA!r} or {LP_SCHEMA!r}")


def _load_network(ns: argparse.Namespace):
    doc = _read_json(ns.input)
    if _schema(doc) != NET_SCHEMA:
        raise UsageError(f"verify needs an {NET_SCHEMA!r} network input, got schema {_schema(doc)!r}")
    return network_from_dict(doc)


def _projection_from_flag(text: str, model: LpModel) -> ProjectionSpec:
    text = text.strip()
    if not text:
        raise UsageError("--project must not be empty")
    if text in ROLES:
        spec = role_projection(model, text)
        if not spec.names:
            raise UsageError(f"no variables carry the role {text!r}")
        return spec
    try:
        return ProjectionSpec(k=int(text))
    except ValueError:
        pass
    return ProjectionSpec(names=tuple(part.strip() for part in text.split(",")))


_STATUS_EXIT = {
    OPTIMAL: EXIT_OK,
    INFEASIBLE: EXIT_INFEASIBLE,
    UNBOUNDED: EXIT_UNBOUNDED,
    NUMERIC_FAILURE: EXIT_NUMERIC,
}


class _NoOptimum(Exception):
    """Raised with the solve result of a model to enumerate that has no
    optimum: the command reports that result's status instead."""


def cmd_solve(ns: argparse.Namespace) -> tuple[dict, int]:
    model = _load_model(ns, _read_json(ns.input))
    result = solve_model(model)
    log.info("solve: status=%s value=%s", result.status, result.value)
    payload = {
        "status": result.status,
        "value": result.value,
        "variable_names": list(model.variable_names),
        "point": None if result.x is None else result.x.tolist(),
        "iterations": result.iterations,
    }
    if result.ray is not None:
        payload["ray"] = result.ray.tolist()
    if result.message:
        payload["message"] = result.message
    return payload, _STATUS_EXIT[result.status]


def _walk(ns: argparse.Namespace, model: LpModel, spec: SublevelSpec | None = None, oracle: bool = False):
    """Solves ``model`` and lists the vertices of its sublevel set at
    ``spec`` (by default the level the flags give): by the oracle, or by
    the vertex walk from the optimum in the order ``--seed`` shuffles.
    Returns the optimum and the vertex set. A model without an optimum ends
    the command."""
    base = solve_model(model)
    if base.status != OPTIMAL:
        raise _NoOptimum(base)
    if spec is None:
        spec = SublevelSpec(tau=ns.tau) if ns.tau is not None else SublevelSpec(gap=0.0 if ns.gap is None else ns.gap)
    if oracle:
        vs = brute_force_vertices(model, base.value, spec, dedup_tol=ns.dedup_tol)
    else:
        rng = None if ns.seed is None else np.random.default_rng(ns.seed)
        vs = enumerate_vertices(
            model, base.value, spec, limit=ns.limit, dedup_tol=ns.dedup_tol, order_rng=rng, start=base
        )
    log.info("z*=%s tau=%s: %d vertices", base.value, vs.tau, len(vs))
    return base, vs


def _listed(ns: argparse.Namespace, model: LpModel, oracle: bool = False):
    """The optimum of ``model`` within ``--box-bound``, its vertex set, and
    that set as reported: projected when ``--project`` asks."""
    boxed = apply_box_bounds(model, ns.box_bound)
    base, vs = _walk(ns, boxed, oracle=oracle)
    if ns.project is None:
        return base, vs, vs
    return base, vs, project_set(vs, _projection_from_flag(ns.project, boxed), dedup_tol=ns.dedup_tol)


def cmd_enumerate(ns: argparse.Namespace) -> tuple[dict, int]:
    """The enumerate and oracle commands."""
    model = _load_model(ns, _read_json(ns.input))
    base, vs, out = _listed(ns, model, oracle=ns.command == "oracle")
    payload = {
        "status": "ok",
        "z_star": base.value,
        "provably_empty": _provably_empty(base.value, vs.tau, model.objective.sense),
        "result": out.to_json_dict(),
    }
    return payload, EXIT_OK if out.complete else EXIT_TRUNCATED


def cmd_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    net = _load_network(ns)
    dc = build_dcopf(net)
    nf = build_network_flow(net)
    cp = build_copper_plate(net)
    base, dc_vs = _walk(ns, apply_box_bounds(dc, ns.box_bound))
    # One absolute threshold everywhere: relaxations have lower optima, so a
    # relative gap re-resolved per model would move the goal posts.
    abs_spec = SublevelSpec(tau=dc_vs.tau)
    nf_base, nf_vs = _walk(ns, nf, abs_spec)
    onto_nf = ProjectionSpec(names=nf.variable_names)
    onto_cp = ProjectionSpec(names=cp.variable_names)
    report = ContainmentReport.combine([
        check_containment(dc_vs, onto_nf, nf, base.value, abs_spec, dedup_tol=ns.dedup_tol, label="dcopf->nf"),
        check_containment(dc_vs, onto_cp, cp, base.value, abs_spec, dedup_tol=ns.dedup_tol, label="dcopf->cp"),
        check_containment(nf_vs, onto_cp, cp, nf_base.value, abs_spec, dedup_tol=ns.dedup_tol, label="nf->cp"),
    ])
    payload = {
        "status": "ok",
        "z_star": base.value,
        "tau": abs_spec.tau,
        "passed": report.passed,
        "complete": dc_vs.complete and nf_vs.complete,
        "vertex_counts": {"dcopf": len(dc_vs), "nf": len(nf_vs)},
        "result": report.to_json_dict(),
    }
    if not report.passed:
        return payload, EXIT_VERIFY_FAIL
    return payload, EXIT_OK if payload["complete"] else EXIT_TRUNCATED


def _load_secondary(path: str):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: secondary criterion must be a JSON object")
    sense = doc.get("sense", "max")
    if sense not in ("min", "max"):
        raise UsageError(f"{path}: sense must be 'min' or 'max', got {sense!r}")
    if "scores" in doc:
        scores = doc["scores"]
        # JSON true and false are Python ints, but no scores
        if not isinstance(scores, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in scores
        ):
            raise UsageError(f"{path}: 'scores' must be a list of numbers")
        return sense, [float(v) for v in scores]
    if "coeffs" in doc:
        coeffs = doc["coeffs"]
        if not isinstance(coeffs, dict) or any(isinstance(v, bool) for v in coeffs.values()):
            raise UsageError(f"{path}: 'coeffs' must map variable names to numbers")
        try:
            obj = Objective(
                sense=sense,
                coeffs={str(k): float(v) for k, v in coeffs.items()},
                constant=float(doc.get("constant", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{path}: bad secondary objective: {exc}") from exc
        return sense, obj
    raise UsageError(f"{path}: secondary criterion needs either 'coeffs' or 'scores'")


def cmd_rank(ns: argparse.Namespace) -> tuple[dict, int]:
    doc = _read_json(ns.input)
    from_report = (
        isinstance(doc, dict)
        and doc.get("schema_version") == REPORT_SCHEMA
        and isinstance(doc.get("result"), dict)
        and "points" in doc["result"]
    )
    vs = VertexSet.from_json_dict(doc["result"]) if from_report else _listed(ns, _load_model(ns, doc))[2]
    sense, secondary = _load_secondary(ns.secondary)
    try:
        if isinstance(secondary, Objective):
            ranked = rank_alternatives(vs, secondary)
        else:
            ranked = rank_by_scores(vs, secondary, sense=sense)
    except ValueError as exc:
        raise UsageError(f"cannot rank: {exc}") from exc
    payload = {
        "status": "ok",
        "source_count": len(vs),
        "complete": vs.complete,
        "tau": vs.tau,
        "result": ranked.to_json_dict(),
    }
    return payload, EXIT_OK if vs.complete else EXIT_TRUNCATED


_COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "oracle": cmd_enumerate,
    "verify": cmd_verify,
    "rank": cmd_rank,
}

# Errors that end a command without a report, and their exit codes; the
# first class an error is an instance of decides.
_ERROR_EXIT = {
    UsageError: EXIT_USAGE,
    ValueError: EXIT_USAGE,  # NetworkError among them
    OracleGuardError: EXIT_USAGE,
    UnboundedRegionError: EXIT_UNBOUNDED,
    NumericFailureError: EXIT_NUMERIC,
}


def _configure_logging() -> None:
    raw = os.environ.get("AOS_LOG", "")
    level = getattr(logging, raw.upper(), None) if raw else logging.WARNING
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every main() call in this process, built by the first
    one rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    _configure_logging()
    try:
        ns = _shared_parser().parse_args(argv)
        _check_ranges(ns)
        try:
            payload, code = _COMMANDS[ns.command](ns)
        except _NoOptimum as stop:
            (base,) = stop.args
            payload, code = {"status": base.status, "message": base.message}, _STATUS_EXIT[base.status]
        config = {key: getattr(ns, key) for key in _CONFIG_KEYS}
        try:
            text = write_report(make_report(ns.command, config, payload), ns.output)
        except OSError as exc:
            raise UsageError(f"cannot write {ns.output}: {exc.strerror or exc}") from exc
        if ns.output is None:
            sys.stdout.write(text)
        else:
            log.info("report written to %s", ns.output)
        return code
    except tuple(_ERROR_EXIT) as exc:
        tag = f"error[{exc.code}]" if isinstance(exc, NetworkError) else "error"
        print(f"aoskit: {tag}: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXIT.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
