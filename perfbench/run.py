"""aoskit benchmark: one workload, one client, a closed loop.

    python3 perfbench/run.py --workload opf_enumerate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each operation is sent only after the previous one returns, and the loop
stops at the end of the first round-robin round after the operations'
summed wall time reaches ``--seconds``. Inputs
come from ``--seed`` alone. Every output is checked after its operation,
outside the timed region. The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A readable summary goes to stderr. ``--workload all`` runs every workload,
untraced and traced, each in a fresh process, and prints the tracing
overhead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One client on a 2-core machine: BLAS threads would only add noise to the
# small dense solves aoskit makes. Set before NumPy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 5
PROBE_S = 0.0025
PROBE_EVERY_S = 0.1  # of operation time between two probes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe() -> float:
    """Seconds for a fixed slice of the kind of work aoskit does: interpreter
    loops over ints, dicts and tuples, NumPy scalar reads and small solves.

    The host's speed drifts by a quarter or more over tens of seconds, and
    aoskit's operations slow down with it. Every reported time is scaled by
    PROBE_S over the mean of the probes that bracket it, which cancels most
    of that drift: the times read as seconds on a machine where this probe
    takes PROBE_S. The faster of two repetitions damps one-off preemptions.
    """
    a = np.arange(64.0).reshape(8, 8) + 100 * np.eye(8)
    x = np.linspace(-1.0, 1.0, 40)
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        table, seen, acc = {}, set(), 0.0
        for i in range(20_000):
            table[i & 255] = i * i % 7
        for _ in range(20):
            for i in range(40):
                if x[i] > 1e-9 and np.isfinite(x[i]):
                    acc += x[i] / 3.0
        for i in range(3_000):
            seen.add((i % 97, "L", "U"))
        for _ in range(30):
            np.linalg.solve(a, a[0])
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> float:
    """Median seconds from starting a fresh interpreter until ``import aoskit.cli`` returns."""
    code = "import time, aoskit.cli; print(time.monotonic())"
    samples = []
    before = probe()
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        elapsed = float(out.stdout.strip()) - t0
        after = probe()
        samples.append(elapsed * 2 * PROBE_S / (before + after))
        before = after
    return statistics.median(samples)


def versions() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, {blas}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as W

    setup_s = measure_setup()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(ROOT, ".perfbench-work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    walls, times, results, failed = [], [], 0, 0
    try:
        ops = W.make_ops(name, seed, workdir)
        before, pending, done = probe(), [], False
        while not done:
            op, out = next(ops), None
            t0 = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.span("bench", len(walls), op.run)
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            walls.append(time.perf_counter() - t0)
            pending.append(walls[-1])
            done = sum(walls) >= seconds and len(walls) % W.ROUND_OPS[name] == 0
            if done or sum(pending) >= PROBE_EVERY_S:
                after = probe()
                times.extend(w * 2 * PROBE_S / (before + after) for w in pending)
                before, pending = after, []
            try:
                ok = ok and op.check(out)
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
            results += op.results if ok else 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir)
        if tracer is not None:
            tracer.uninstall()

    n = len(times)
    q = W.TAIL_Q[name]
    summary = {"workload": name, "seed": seed, "ops": n, "failed_frac": failed / n,
               "wall_s_p50": float(np.median(walls)),
               "tail_percentile": 100 * q, "ops_beyond_tail": int(sum(t > np.quantile(times, q) for t in times))}
    if tracer is None:
        metrics = {
            "op_s_p50": (float(np.median(times)), "s"),
            "op_s_tail": (float(np.quantile(times, q)), "s"),
            "results_per_s": (results / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, walls, times)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"))
    return {"summary": summary, "failed": failed, "metrics": metrics}


def layer_metrics(tracer, walls: list[float], times: list[float]) -> dict:
    """Per-layer self times and counts, each per operation, plus ratios.

    Self times are scaled like operation times, by each operation's probes.
    """
    self_s, total_s, root_s = tracer.self_times([t / w for t, w in zip(times, walls)])
    c = tracer.counts
    n = len(times)

    def per_op(v):
        return v / n

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "vertices.walk_s": (per_op(self_s["vertices.walk"]), "s/op"),
        "vertices.unique_s": (per_op(total_s["vertices.unique"]), "s/op"),
        "vertices.bases_feasible": (per_op(c["vertices.bases_feasible"]), "count/op"),
        "vertices.distinct": (per_op(c["vertices.distinct"]), "count/op"),
        "vertices.distinct_per_basis": (ratio(c["vertices.distinct"], c["vertices.bases_feasible"]), "ratio"),
        "sets.dedup_s": (per_op(self_s["sets.dedup"]), "s/op"),
        "sets.points_in": (per_op(c["sets.points_in"]), "count/op"),
        "simplex.solve_s": (per_op(self_s["simplex.solve"]), "s/op"),
        "simplex.model_s": (per_op(self_s["simplex.model"]), "s/op"),
        "simplex.solves": (per_op(c["simplex.solves"]), "count/op"),
        "simplex.iterations": (per_op(c["simplex.iterations"]), "count/op"),
        "standard_form.s": (per_op(self_s["standard_form"]), "s/op"),
        "binary.bnb_s": (per_op(self_s["binary.bnb"]), "s/op"),
        "binary.pool_s": (per_op(self_s["binary.pool"]), "s/op"),
        "binary.lp_solves": (per_op(c["binary.lp_solves"]), "count/op"),
        "binary.entries_per_lp": (ratio(c["binary.entries"], c["binary.lp_solves"]), "ratio"),
        "analysis.containment_s": (per_op(self_s["analysis.containment"]), "s/op"),
        "analysis.points_checked": (per_op(c["analysis.points_checked"]), "count/op"),
        "projection.s": (per_op(self_s["projection"]), "s/op"),
        "reporting.render_s": (per_op(self_s["reporting.render"]), "s/op"),
        "reporting.bytes": (per_op(c["reporting.bytes"]), "bytes/op"),
        "power.s": (per_op(self_s["power"]), "s/op"),
        "model.load_s": (per_op(self_s["model.load"]), "s/op"),
        "sublevel.s": (per_op(self_s["sublevel"]), "s/op"),
        "cli.self_s": (per_op(self_s["cli"]), "s/op"),
        "bench.self_s": (per_op(self_s["bench"]), "s/op"),
        "trace.op_s_p50": (float(np.median(times)), "s"),
        # wall time of an operation not covered by its spans' self times
        "trace.unaccounted_s": (max(t - root_s.get(i, 0.0) for i, t in enumerate(times)), "s"),
    }


def print_summary(res: dict) -> None:
    s = res["summary"]
    print(f"# {s['workload']} seed {s['seed']}: {s['ops']} ops, failed_frac {s['failed_frac']:.4g}, "
          f"unscaled wall p50 {s['wall_s_p50']:.6g} s, "
          f"op_s_tail = p{s['tail_percentile']:g} ({s['ops_beyond_tail']} ops beyond)", file=sys.stderr)
    for key, (value, unit) in res["metrics"].items():
        print(f"#   {key:28s} {value:.6g} {unit}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads as W

    ok = True
    for name in W.WORKLOADS:
        lines = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{name} trace={trace}: exit {out.returncode}", file=sys.stderr)
                ok = False
                continue
            lines[trace] = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and lines[trace]["correct"]
        if len(lines) == 2:
            m0, m1 = lines[0]["metrics"], lines[1]["metrics"]
            overhead = m1["trace.op_s_p50"]["value"] - m0["op_s_p50"]["value"]
            gap = m1["trace.unaccounted_s"]["value"]
            print(f"# {name}: tracing overhead (traced minus untraced op_s_p50) {overhead:.6g} s; "
                  f"largest per-op gap between wall time and summed self times {gap:.3g} s", file=sys.stderr)
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("opf_enumerate", "degenerate_apex", "binary_pool", "verify_sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "aoskit")):
        print(f"aoskit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    print(f"# {versions()}", file=sys.stderr)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["summary"]["ops"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
