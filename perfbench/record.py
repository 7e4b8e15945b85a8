"""Record the instance pools and references of the two network workloads.

    python3 perfbench/record.py

Scans seeded networks in a fixed order, sorts each into the class whose
vertex window it fits, and writes ``perfbench/pool.json``. Each entry stores
the generator key, a hash of the generated network, and the answer of the
program at the time of recording: for ``opf_enumerate`` the level value, the
point count and a fingerprint of the projected points, for ``verify_sweep``
the exit code and both vertex counts. Re-running it replaces the references,
so do so only when the right answers are meant to change.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from aoskit import (  # noqa: E402
    SublevelSpec,
    apply_box_bounds,
    build_dcopf,
    build_network_flow,
    enumerate_vertices,
    solve_model,
)

PER_CLASS = {"opf_enumerate": 24, "verify_sweep": 60}


def opf_pool(workdir: str) -> list[dict]:
    pool = []
    for cls, buses, gap, lo, hi in W.OPF_CLASSES:
        kept = 0
        for draw in itertools.count():
            if kept == PER_CLASS["opf_enumerate"]:
                break
            net = W.network(buses, draw)
            boxed = apply_box_bounds(build_dcopf(net), 1e4)
            base = solve_model(boxed)
            if base.status != "optimal":
                continue
            # limit=hi+1 bounds the cost of screening a very large set
            vs = enumerate_vertices(boxed, base.value, SublevelSpec(gap=gap), limit=hi + 1)
            if not (vs.complete and lo <= len(vs) <= hi):
                continue
            if not all(boxed.is_feasible(p) for p in vs.points):
                raise SystemExit(f"opf {buses}/{draw}: enumerated point is infeasible")
            path = os.path.join(workdir, "net.json")
            with open(path, "w") as fh:
                fh.write(net.to_json())
            code, text = W.call_cli(W.opf_argv(path, gap))
            res = json.loads(text)["result"]
            if code != 0:
                raise SystemExit(f"opf {buses}/{draw}: exit {code}")
            pts = np.array(res["points"], dtype=float)
            pool.append({
                "cls": cls, "buses": buses, "draw": draw, "gap": gap, "net_sha": W.net_sha(net),
                "vertices": len(vs), "count": res["count"], "tau": res["tau"],
                "proj": W.fingerprint(pts),
            })
            kept += 1
            print("opf", cls, buses, draw, len(vs), res["count"], flush=True)
    return pool


def verify_pool(workdir: str) -> list[dict]:
    want = {c[0]: PER_CLASS["verify_sweep"] for c in W.VERIFY_CLASSES}
    top = max(c[2] for c in W.VERIFY_CLASSES)
    pool = []
    for draw in itertools.count():
        for buses, gap in itertools.product(W.VERIFY_BUSES, W.GAPS):
            if not any(want.values()):
                return pool
            net = W.network(buses, draw)
            dc = apply_box_bounds(build_dcopf(net), 1e4)
            base = solve_model(dc)
            total = 0
            if base.status == "optimal":
                spec = SublevelSpec(tau=SublevelSpec(gap=gap).resolve(base.value, "min"))
                nf = build_network_flow(net)
                nf_vs = enumerate_vertices(nf, solve_model(nf).value, spec, limit=top + 1)
                total = len(nf_vs) + len(enumerate_vertices(dc, base.value, spec, limit=top + 1))
                if not nf_vs.complete:
                    continue
            cls = next((c for c, lo, hi in W.VERIFY_CLASSES if lo <= total <= hi), None)
            if cls is None or not want[cls]:
                continue
            path = os.path.join(workdir, "net.json")
            with open(path, "w") as fh:
                fh.write(net.to_json())
            code, text = W.call_cli(["verify", path, "--gap", repr(gap)])
            doc = json.loads(text)
            counts = doc.get("vertex_counts", {"dcopf": 0, "nf": 0})
            if code not in (0, 2) or (code == 0 and not doc["passed"]):
                raise SystemExit(f"verify {buses}/{draw}: exit {code}")
            pool.append({
                "cls": cls, "buses": buses, "draw": draw, "gap": gap, "net_sha": W.net_sha(net),
                "exit": code, "dcopf": counts["dcopf"], "nf": counts["nf"],
            })
            want[cls] -= 1
            print("verify", cls, buses, draw, gap, code, counts, flush=True)


def main() -> None:
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench-work", f"record-{os.getpid()}")
    os.makedirs(workdir)
    try:
        doc = {"verify_sweep": verify_pool(workdir), "opf_enumerate": opf_pool(workdir)}
    finally:
        shutil.rmtree(workdir)
    with open(W.POOL_PATH, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
