"""Benchmark of `rmat generate`: end-to-end runs, or a traced per-layer replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk-var --seed 1 --seconds 35 --trace 0

With --trace 0 the CLI runs again and again in fresh child processes for
--seconds seconds, each output is checked, and the medians of
edges_per_cal (edges per wall second, times the time a calibration kernel
took around that CLI run; see bench.calibrate) and peak_rss_mb are
reported next to setup_s, the median of the table builds (plus plan_tiles
on tiled runs) done between the CLI runs.  The unscaled edges_per_s and
the kernel's median cal_s are printed too.  With
--trace 1 one CLI run is followed by a traced replay of the same workload
and seed (see replay.py), and the per-layer metrics are reported.
--workload all runs every workload in turn.  The last line of stdout is
one JSON object; a results file with the host record, every run and the
spans goes to perfbench/out/.  NOTES.md says why each workload exists and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rmatgen" / "cli.py").is_file():
        print(f"error: no rmatgen source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RMAT_THREADS", None)
    from bench import end_to_end, traced
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    results = []
    try:
        for name in names:
            w = WORKLOADS[name]
            res = (traced(w, args.seed, work) if args.trace
                   else end_to_end(w, args.seed, args.seconds, work))
            if set(res["metrics"]) != set(units):
                raise RuntimeError(f"metrics {sorted(res['metrics'])} do not match "
                                   f"BENCHMARK.json {sorted(units)}")
            for k, unit in units.items():
                print(f"{name}: {k} = {res['metrics'][k]:.6g} {unit}")
            for k, (value, unit) in res.get("unscaled", {}).items():
                print(f"{name}: {k} = {value:.6g} {unit}")
            print(f"{name}: error_rate = {res['failed'] / res['attempted']:.3g} "
                  f"({res['failed']} of {res['attempted']} runs failed)")
            for i, reason in res["failures"]:
                print(f"{name}: run {i} failed: {reason}")
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1, default=str))
            results.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def metric(res, key):
        return {"value": float(res["metrics"][key]), "unit": units[key]}

    if len(results) == 1:
        metrics = {k: metric(results[0], k) for k in units}
    else:
        metrics = {f"{r['workload']}/{k}": metric(r, k) for r in results for k in units}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
