"""Run the benchmark over several seeds and summarise each metric.

    python3 e2ebench/baseline.py --seeds 0-9 --sets 2 --traced-seeds 0-1 \
        --out e2ebench/baseline.json

``--workloads`` defaults to ``all``, the workloads ``BENCHMARK.json``
declares.  For every workload, each seed is one timed run
(``--trace 0``); ``--sets 2`` makes a second pass over the seeds right
after the first, the pair of sets a later change is judged by (every
spread within its bound, the second median within the bound of the
first); with ``--traced-seeds`` some seeds also get a traced run.  The
summary holds, per metric, the ten values, their median, quartiles and
the spread ``(q3 - q1) / median`` (``statistics.quantiles(values,
n=4)``) next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BENCHMARKED, environment, parse_args  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["errors"] = [
        line[len("FAILED: "):] for line in proc.stderr.splitlines() if line.startswith("FAILED: ")
    ]
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--traced-seeds", type=seeds_arg, default=[])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--sets", type=int, default=1,
                    help="timed passes over the seeds, one after the other; "
                         "the first is the baseline, the rest go under 'repeats'")
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to BENCHMARK.json's run_seconds")
    ap.add_argument("--out", default=None, help="write the summary here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(BENCHMARKED) if args.workloads == "all" else args.workloads.split(",")
    env = environment(parse_args(["--workload", names[0]])[0])
    env.update(workload=names, seed=args.seeds, seconds=seconds)
    summary = {"env": env}
    ok = True
    for n in range(args.sets):
        workloads = {}
        for name in names:
            timed = [run(name, s, seconds, 0) for s in args.seeds]
            ok = ok and all(r["correct"] for r in timed)
            workloads[name] = entry = {
                "failed_runs": [
                    {"seed": s, "errors": r["errors"]}
                    for s, r in zip(args.seeds, timed)
                    if not r["correct"]
                ],
                "wall_s": summarise([r["wall_s"] for r in timed], None),
                "end_to_end": {
                    m: summarise([r["metrics"][m]["value"] for r in timed], bounds.get(m))
                    for m in timed[0]["metrics"]
                },
            }
            for m, v in entry["end_to_end"].items():
                flag = ""
                if v.get("spread") is not None and m in bounds and v["spread"] > bounds[m] / 3:
                    flag = "  <-- above a third of the bound"
                print(f"set {n} {name:<13} {m:<14} median {v['median']:>14.6g}  "
                      f"spread {v.get('spread') or 0:7.4f}  bound {bounds.get(m)}{flag}",
                      flush=True)
        if n == 0:
            summary["workloads"] = workloads
        else:
            summary.setdefault("repeats", []).append({"workloads": workloads})
    if args.traced_seeds:
        traced = [run(names[0], s, seconds, 1) for s in args.traced_seeds]
        ok = ok and all(r["correct"] for r in traced)
        summary["traced_seeds"] = args.traced_seeds
        summary["per_layer"] = {
            m: summarise([r["metrics"][m]["value"] for r in traced], None)
            for m in traced[0]["metrics"]
        }
        summary["traced_wall_s"] = [r["wall_s"] for r in traced]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
