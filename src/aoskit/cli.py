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
from dataclasses import dataclass

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
from .sets import VertexSet
from .simplex import INFEASIBLE, NUMERIC_FAILURE, OPTIMAL, UNBOUNDED, solve_model
from .sublevel import SublevelSpec, apply_box_bounds
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


@dataclass
class RunConfig:
    """Everything one invocation needs, echoed verbatim into the report."""

    command: str
    input_path: str
    model_kind: str | None = None
    gap: float | None = None
    tau: float | None = None
    box_bound: float = 1e4
    limit: int = 10_000
    dedup_tol: float = 1e-6
    seed: int | None = None
    project: str | None = None
    secondary_path: str | None = None
    output: str | None = None

    def __post_init__(self):
        if self.gap is not None and self.tau is not None:
            raise UsageError("--gap and --tau are mutually exclusive")
        if self.gap is not None and self.gap < 0:
            raise UsageError("--gap must be nonnegative")
        if self.limit < 1:
            raise UsageError("--limit must be at least 1")
        if self.dedup_tol < 0:
            raise UsageError("--dedup-tol must be nonnegative")
        if self.box_bound <= 0:
            raise UsageError("--box-bound must be positive")

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        return cls(
            command=ns.command,
            input_path=ns.input,
            model_kind=getattr(ns, "model", None),
            gap=getattr(ns, "gap", None),
            tau=getattr(ns, "tau", None),
            box_bound=getattr(ns, "box_bound", 1e4),
            limit=getattr(ns, "limit", 10_000),
            dedup_tol=getattr(ns, "dedup_tol", 1e-6),
            seed=getattr(ns, "seed", None),
            project=getattr(ns, "project", None),
            secondary_path=getattr(ns, "secondary", None),
            output=getattr(ns, "output", None),
        )

    def sublevel_spec(self) -> SublevelSpec:
        if self.tau is not None:
            return SublevelSpec(tau=self.tau)
        return SublevelSpec(gap=self.gap if self.gap is not None else 0.0)

    def to_json_dict(self) -> dict:
        # Deliberately excludes the output path: the report must not depend
        # on where it is written.
        return {
            "command": self.command,
            "input": self.input_path,
            "model": self.model_kind,
            "gap": self.gap,
            "tau": self.tau,
            "box_bound": self.box_bound,
            "limit": self.limit,
            "dedup_tol": self.dedup_tol,
            "seed": self.seed,
            "project": self.project,
            "secondary": self.secondary_path,
        }


def build_parser() -> _Parser:
    parser = _Parser(prog="aoskit", description="enumerate and compare alternative optima of linear programs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, *, limits=True, projection=True):
        p.add_argument("input", help="path to an aos-net/1 or aos-lp/1 JSON file")
        p.add_argument("--output", metavar="PATH", help="write the JSON report here instead of stdout")
        g = p.add_mutually_exclusive_group()
        g.add_argument("--gap", type=float, help="relative optimality gap (default 0: exact optima only)")
        g.add_argument("--tau", type=float, help="absolute objective threshold, overrides --gap")
        p.add_argument("--box-bound", type=float, default=1e4, metavar="M",
                       help="replace infinite variable bounds with +/- M (default 1e4)")
        if limits:
            p.add_argument("--limit", type=int, default=10_000, metavar="N",
                           help="stop after N distinct vertices (default 10000)")
            p.add_argument("--seed", type=int, metavar="S",
                           help="shuffle exploration order; the result set must not change")
        p.add_argument("--dedup-tol", type=float, default=1e-6, metavar="T",
                       help="points closer than T (max-norm) are one vertex (default 1e-6)")
        if projection:
            p.add_argument("--project", metavar="SPEC",
                           help="project results: a role name, a coordinate count, or comma-separated variable names")

    p_solve = sub.add_parser("solve", help="solve the model and report one optimal point")
    p_solve.add_argument("input", help="path to an aos-net/1 or aos-lp/1 JSON file")
    p_solve.add_argument("--model", choices=MODEL_KINDS, help="model family to build from a network input (default dcopf)")
    p_solve.add_argument("--output", metavar="PATH", help="write the JSON report here instead of stdout")

    p_enum = sub.add_parser("enumerate", help="enumerate all vertices of the optimal-or-near-optimal set")
    add_common(p_enum)
    p_enum.add_argument("--model", choices=MODEL_KINDS, help="model family to build from a network input (default dcopf)")

    p_oracle = sub.add_parser("oracle", help="enumerate vertices by brute-force hyperplane intersection")
    add_common(p_oracle, limits=False)
    p_oracle.add_argument("--model", choices=MODEL_KINDS, help="model family to build from a network input (default dcopf)")

    p_verify = sub.add_parser("verify", help="check projection containment across dcopf, network-flow and copper-plate relaxations")
    add_common(p_verify, projection=False)

    p_rank = sub.add_parser("rank", help="order enumerated alternatives by a secondary criterion")
    add_common(p_rank)
    p_rank.add_argument("--model", choices=MODEL_KINDS, help="model family to build from a network input (default dcopf)")
    p_rank.add_argument("--secondary", metavar="FILE", required=True,
                        help="JSON file with either a linear objective or an explicit score list")

    return parser


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_model(cfg: RunConfig):
    """Returns (kind, model).  Sniffs the input schema to pick a loader."""
    doc = _read_json(cfg.input_path)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == LP_SCHEMA:
        if cfg.model_kind not in (None, "raw-lp"):
            raise UsageError(f"--model {cfg.model_kind} needs a network input, got a raw LP")
        try:
            return "raw-lp", LpModel.from_json_dict(doc)
        except ValueError as exc:
            raise UsageError(f"bad LP document: {exc}") from exc
    if schema == NET_SCHEMA:
        net = network_from_dict(doc)
        kind = cfg.model_kind or "dcopf"
        if kind == "raw-lp":
            raise UsageError("--model raw-lp needs an aos-lp/1 input, got a network")
        builder = {"dcopf": build_dcopf, "nf": build_network_flow, "cp": build_copper_plate}[kind]
        return kind, builder(net)
    raise UsageError(
        f"unrecognized input schema {schema!r} in {cfg.input_path}; expected {NET_SCHEMA!r} or {LP_SCHEMA!r}"
    )


def _load_network(cfg: RunConfig):
    doc = _read_json(cfg.input_path)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != NET_SCHEMA:
        raise UsageError(f"verify needs an {NET_SCHEMA!r} network input, got schema {schema!r}")
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


def _emit(cfg: RunConfig, payload: dict) -> None:
    doc = make_report(cfg.command, cfg.to_json_dict(), payload)
    text = write_report(doc, cfg.output)
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        log.info("report written to %s", cfg.output)


_STATUS_EXIT = {
    OPTIMAL: EXIT_OK,
    INFEASIBLE: EXIT_INFEASIBLE,
    UNBOUNDED: EXIT_UNBOUNDED,
    NUMERIC_FAILURE: EXIT_NUMERIC,
}


def cmd_solve(cfg: RunConfig) -> int:
    kind, model = _load_model(cfg)
    result = solve_model(model)
    log.info("%s solve: status=%s value=%s", kind, result.status, result.value)
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
    _emit(cfg, payload)
    return _STATUS_EXIT[result.status]


def _provably_empty(z_star: float, tau: float, sense: str) -> bool:
    slack = 1e-9 * max(1.0, abs(z_star))
    if sense == "min":
        return tau < z_star - slack
    return tau > z_star + slack


def _enumerate_payload(cfg: RunConfig, use_oracle: bool):
    """Shared body of the enumerate and oracle commands."""
    kind, model = _load_model(cfg)
    boxed = apply_box_bounds(model, cfg.box_bound)
    base = solve_model(boxed)
    if base.status != OPTIMAL:
        payload = {"status": base.status, "message": base.message}
        return payload, _STATUS_EXIT[base.status]
    spec = cfg.sublevel_spec()
    log.info("%s baseline optimum %s", kind, base.value)
    if use_oracle:
        vs = brute_force_vertices(boxed, base.value, spec, dedup_tol=cfg.dedup_tol)
    else:
        rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None
        vs = enumerate_vertices(
            boxed, base.value, spec, limit=cfg.limit, dedup_tol=cfg.dedup_tol, order_rng=rng, start=base
        )
    out = vs
    if cfg.project is not None:
        out = project_set(vs, _projection_from_flag(cfg.project, boxed), dedup_tol=cfg.dedup_tol)
    sense = model.objective.sense
    payload = {
        "status": "ok",
        "z_star": base.value,
        "provably_empty": _provably_empty(base.value, vs.tau, sense) if vs.tau is not None else False,
        "result": out.to_json_dict(),
    }
    return payload, EXIT_OK if out.complete else EXIT_TRUNCATED


def cmd_enumerate(cfg: RunConfig) -> int:
    payload, code = _enumerate_payload(cfg, use_oracle=False)
    _emit(cfg, payload)
    return code


def cmd_oracle(cfg: RunConfig) -> int:
    payload, code = _enumerate_payload(cfg, use_oracle=True)
    _emit(cfg, payload)
    return code


def cmd_verify(cfg: RunConfig) -> int:
    net = _load_network(cfg)
    dc = build_dcopf(net)
    nf = build_network_flow(net)
    cp = build_copper_plate(net)
    dc_boxed = apply_box_bounds(dc, cfg.box_bound)

    base = solve_model(dc_boxed)
    if base.status != OPTIMAL:
        _emit(cfg, {"status": base.status, "message": base.message})
        return _STATUS_EXIT[base.status]
    tau = cfg.sublevel_spec().resolve(base.value, "min")
    # One absolute threshold everywhere: relaxations have lower optima, so a
    # relative gap re-resolved per model would move the goal posts.
    abs_spec = SublevelSpec(tau=tau)
    log.info("verify: z*=%s tau=%s", base.value, tau)

    dc_vs = enumerate_vertices(
        dc_boxed, base.value, abs_spec, limit=cfg.limit, dedup_tol=cfg.dedup_tol, start=base
    )
    nf_base = solve_model(nf)
    if nf_base.status != OPTIMAL:
        _emit(cfg, {"status": nf_base.status, "message": nf_base.message})
        return _STATUS_EXIT[nf_base.status]
    nf_vs = enumerate_vertices(
        nf, nf_base.value, abs_spec, limit=cfg.limit, dedup_tol=cfg.dedup_tol, start=nf_base
    )

    onto_nf = ProjectionSpec(names=nf.variable_names)
    onto_cp = ProjectionSpec(names=cp.variable_names)
    report = ContainmentReport.combine([
        check_containment(dc_vs, onto_nf, nf, base.value, abs_spec, dedup_tol=cfg.dedup_tol, label="dcopf->nf"),
        check_containment(dc_vs, onto_cp, cp, base.value, abs_spec, dedup_tol=cfg.dedup_tol, label="dcopf->cp"),
        check_containment(nf_vs, onto_cp, cp, nf_base.value, abs_spec, dedup_tol=cfg.dedup_tol, label="nf->cp"),
    ])
    payload = {
        "status": "ok",
        "z_star": base.value,
        "tau": tau,
        "passed": report.passed,
        "complete": dc_vs.complete and nf_vs.complete,
        "vertex_counts": {"dcopf": len(dc_vs), "nf": len(nf_vs)},
        "result": report.to_json_dict(),
    }
    _emit(cfg, payload)
    if not report.passed:
        return EXIT_VERIFY_FAIL
    return EXIT_OK if payload["complete"] else EXIT_TRUNCATED


def _load_secondary(path: str):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: secondary criterion must be a JSON object")
    sense = doc.get("sense", "max")
    if sense not in ("min", "max"):
        raise UsageError(f"{path}: sense must be 'min' or 'max', got {sense!r}")
    if "scores" in doc:
        scores = doc["scores"]
        if not isinstance(scores, list) or not all(isinstance(v, (int, float)) for v in scores):
            raise UsageError(f"{path}: 'scores' must be a list of numbers")
        return sense, [float(v) for v in scores]
    if "coeffs" in doc:
        coeffs = doc["coeffs"]
        if not isinstance(coeffs, dict):
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


def cmd_rank(cfg: RunConfig) -> int:
    doc = _read_json(cfg.input_path)
    from_report = (
        isinstance(doc, dict)
        and doc.get("schema_version") == REPORT_SCHEMA
        and isinstance(doc.get("result"), dict)
        and "points" in doc["result"]
    )
    if from_report:
        vs = VertexSet.from_json_dict(doc["result"])
    else:
        payload, code = _enumerate_payload(cfg, use_oracle=False)
        if payload.get("status") != "ok":
            _emit(cfg, payload)
            return code
        vs = VertexSet.from_json_dict(payload["result"])
    exit_code = EXIT_OK if vs.complete else EXIT_TRUNCATED

    sense, secondary = _load_secondary(cfg.secondary_path)
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
    _emit(cfg, payload)
    return exit_code


_COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "rank": cmd_rank,
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
        cfg = RunConfig.from_args(ns)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"aoskit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetworkError as exc:
        print(f"aoskit: error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleGuardError as exc:
        print(f"aoskit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnboundedRegionError as exc:
        print(f"aoskit: error: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except NumericFailureError as exc:
        print(f"aoskit: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"aoskit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
