"""End-to-end benchmark of the repository, one workload per process.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload window_serve --seed 0 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all            # every workload
    python3 e2ebench/run.py --workload table1,graph_build
    python3 e2ebench/baseline.py --seeds 0-9          # spread over seeds
    python3 -m pytest e2ebench -q                     # self-tests

With one workload, the process sets the workload up, measures it for
``--seconds`` and prints one JSON object as the last line of standard
output: ``{"correct", "attempted", "failed", "metrics"}``.  With several
(or ``all``), it runs each in its own child process and prints every
metric by name with its unit.  Either way the process exits non-zero
when a correctness gate fails.

``--trace 0`` (timed run) reports the end-to-end metrics, the same six
for every workload:

* ``setup_s`` -- from the benchmark's first statement to the first timed
  operation: imports plus the median of :data:`SETUP_REPS` complete
  set-ups (simulation; fitting and warm-up for the serving workloads).
* ``peak_rss_mb`` -- peak resident set of the workload's own process.
* ``ok_frac`` -- operations that passed their correctness check over
  operations attempted (``1 - failed/attempted``: the failure share as
  its complement, so that the metric is never 0).
* ``p50_ms`` / ``p90_ms`` -- median and 90th percentile, over the
  workload's distinct operations, of each operation's best time as the
  caller sees it.
* ``events_per_s`` -- camera events of the distinct operations over the
  sum of their best times.

An operation is one Table-I regeneration (``table1``), one 250 ms
window decided by the SNN, CNN and GNN executors (``window_serve``),
one event including any decision read before it (``event_serve``), or
one dense plus one compact build of the 50k-event stream
(``graph_build``); see ``workloads.py``.  Every timed run repeats its
distinct operations, with the repeats spread over the whole run: the
100 windows in rounds while ``--seconds`` last (about 20 rounds), 2560
events sampled from the gated span in rounds after it until
``--seconds`` are over (at least three serves each), the Table-I
regeneration and the build pair :data:`workloads.MIN_REPEATS` times or
more.  An operation's best time is the sum over its parts (paradigms,
steps, builds) of the fastest repeat of each.  Interference from other
tenants of a shared host only ever adds time, so the fastest repeat is
the least disturbed estimate of the program's own cost; a slow phase of
the host that lasts the whole run still shows.  ``table1``
and ``graph_build`` have one distinct operation, so their p50 and p90
are the same number.  The tail stops at p90 because the distinct
windows (100) are too few for a steady p99.

``BENCHMARK.json`` declares the workloads in :data:`BENCHMARKED`;
``table1`` runs the same way but is not declared (see there).

``--trace 1`` (traced run) reports the per-layer metrics.  Every traced
run reports all of them, whichever workload it names, so it profiles
all four workloads: each is set up once, then serves the same fixed
slice :data:`PROFILE_PAIRS` times untraced and traced in turn (the
untraced twin runs the same code with a no-op tracer).  Layer metrics
come from the traced slices, which record spans with a wall-clock
:class:`repro.observability.Tracer`; ``trace.overhead_frac.<workload>``
is the median over the pairs of traced over untraced wall time, minus
one -- on ``table1`` and ``graph_build``, whose operations open a few
spans per second, it is below the host's run-to-run noise and reads as
that noise; ``trace.attributed_frac.<workload>`` is the spans' summed
self time over the traced wall time.  Spans are written to
``e2ebench/out/`` when the run ends.

Every run checks its outputs.  A digest of the outputs (Table-I text,
decisions, edge sets) is compared, at the reference seed, with
``e2ebench/reference.json``; a mismatch is a failed operation.  The
first baseline, with its spread over ten seeds, is
``e2ebench/baseline.json``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, pinned before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("table1", "window_serve", "event_serve", "graph_build")

#: The workloads ``BENCHMARK.json`` declares.  ``table1`` runs and is
#: profiled like the others but is left out: one regeneration takes
#: about 6 s, 4-5 s of it in a single GNN ``fit`` call, so even the
#: fastest of its repeats follows the host's minute-scale slow-downs
#: (its timings spread 0.17-0.27 over ten seeds, against a bound of
#: 0.25).
BENCHMARKED = ("window_serve", "event_serve", "graph_build")

#: The spans of a traced slice cover its wall time to within this share;
#: the rest is the benchmark's own loop and input handling.
ATTRIBUTION_TOLERANCE = 0.1

#: Complete set-ups of a timed run; ``setup_s`` counts their median.
SETUP_REPS = 3

#: Untraced/traced slice pairs of each workload in the traced run.
PROFILE_PAIRS = 3

#: End-to-end metric -> unit (every workload, timed run).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "events_per_s": "1/s",
}


def _per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit (traced run)."""
    units = {"camera.simulate_s": "s", "camera.events_per_s": "1/s"}
    for p in ("snn", "cnn", "gnn"):
        units[f"core.fit_s.{p}"] = "s"
        units[f"core.measure_s.{p}"] = "s"
    for p in ("snn", "cnn", "gnn"):
        units[f"core.predict_ms.{p}"] = "ms"
        units[f"streaming.self_us_per_window.{p}"] = "us"
        units[f"nn.forward_us.{p}"] = "us"
        units[f"nn.macs_per_window.{p}"] = "count"
    units["streaming.delivered_frac"] = "fraction"
    units["snn.encode_us"] = "us"
    units["cnn.encode_us"] = "us"
    units["gnn.build_us"] = "us"
    units["gnn.edges_per_window"] = "count"
    for layer in ("conv1", "conv2", "pool", "head"):
        units[f"nn.layer_us.gnn.{layer}"] = "us"
    for i in range(8):  # make_small_cnn: (conv, relu, pool) x 2, flatten, linear
        units[f"nn.layer_us.cnn.{i}"] = "us"
    units["core.session.decision_us"] = "us"
    for name in ("macs", "neighbours", "candidates", "expired"):
        units[f"gnn.async.{name}_per_event"] = "count"
    units["gnn.async.hit_ratio"] = "fraction"
    units["gnn.async.state_bytes"] = "B"
    units["hw.gnn.macs_per_event"] = "count"
    units["hw.gnn.model_over_counted"] = "ratio"
    units["gnn.radius_graph_s"] = "s"
    for rep in ("dense", "compact"):
        units[f"gnn.build_events_per_s.{rep}"] = "1/s"
        units[f"gnn.build.peak_alloc_mb.{rep}"] = "MB"
        units[f"gnn.build.bytes_per_event.{rep}"] = "B"
    units["gnn.build.edges"] = "count"
    for w in WORKLOAD_NAMES:
        units[f"trace.overhead_frac.{w}"] = "fraction"
        units[f"trace.attributed_frac.{w}"] = "fraction"
    return units


PER_LAYER = _per_layer_units()


def git_revision() -> str:
    """HEAD commit read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end_metrics(res, setup_s: float) -> dict[str, float]:
    import numpy as np

    best = res.best_s()
    best_ms = np.array(list(best.values())) * 1e3
    attempted = max(len(res.op_s), 1)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - min(res.failed, attempted) / attempted,
        "p50_ms": float(np.median(best_ms)),
        "p90_ms": float(np.quantile(best_ms, 0.9)),
        "events_per_s": sum(res.op_events[op] for op in best) / sum(best.values()),
    }


def check_digest(
    workload: str, seed: int, digest: str, reference: dict, smoke: bool = False
) -> str | None:
    """Error message when ``digest`` differs from the stored reference
    of ``workload`` (only the reference seed has one, for the full and
    for the smoke-size inputs)."""
    if seed != reference.get("seed"):
        return None
    expected = reference.get("smoke_digests" if smoke else "digests", {}).get(workload)
    if expected is None:
        return f"no reference digest for {workload}"
    if digest != expected:
        return f"{workload} output digest {digest[:12]} != reference {expected[:12]}"
    return None


def run_timed(args, wl, import_s: float) -> tuple[dict, object]:
    from workloads import NULL

    setups = []
    state = None
    for _ in range(1 if args.smoke else SETUP_REPS):
        state = None  # release the previous set-up before the next
        t0 = time.perf_counter()
        state = wl.setup(args.seed, args.smoke)
        setups.append(time.perf_counter() - t0)
    res = wl.run(state, NULL, seconds=args.seconds)
    reference = json.loads(Path(args.reference).read_text())
    error = check_digest(wl.name, args.seed, res.digest, reference, args.smoke)
    if error:
        res.fail(error)
    metrics = end_to_end_metrics(res, import_s + statistics.median(setups))
    return metrics, res


def run_profile(args) -> tuple[dict, int, int, list[str], dict]:
    """The traced run: every workload, untraced and traced slices in turn."""
    from repro.observability import Tracer
    from workloads import NULL, WORKLOADS, attributed_s

    metrics: dict[str, float] = {}
    attempted = failed = 0
    errors: list[str] = []
    traces = {}
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name]
        state = wl.setup(args.seed, args.smoke)
        ops = max(1, wl.profile_ops // (8 if args.smoke else 1))
        rewind = wl.rewind(state) if wl.rewind else (lambda: None)
        run = wl.profile_run or wl.run
        tracer = Tracer()
        ratios, traced_wall = [], 0.0
        for _ in range(PROFILE_PAIRS):
            plain = run(state, NULL, ops=ops)
            rewind()
            traced = run(state, tracer, ops=ops)
            rewind()
            ratios.append(traced.wall_s / plain.wall_s)
            traced_wall += traced.wall_s
            if plain.digest != traced.digest:
                traced.fail(f"{name}: traced outputs differ from the untraced slice")
            for res in (plain, traced):
                attempted += len(res.op_s)
                failed += res.failed
                errors += [f"{name}: {e}" for e in res.errors]
        metrics.update(wl.layers(tracer, state, traced))
        metrics[f"trace.overhead_frac.{name}"] = statistics.median(ratios) - 1.0
        metrics[f"trace.attributed_frac.{name}"] = attributed_s(tracer) / traced_wall
        traces[name] = tracer.to_dict()
        state = None
    return metrics, attempted, failed, errors, traces


def run_one(args) -> int:
    try:
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import workloads
    except ImportError as exc:
        print(f"e2ebench: cannot import the repository's code: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    env = environment(args)
    if args.trace:
        metrics, attempted, failed, errors, traces = run_profile(args)
        units = PER_LAYER
    else:
        metrics, res = run_timed(args, workloads.WORKLOADS[args.workload], import_s)
        attempted, failed, errors, traces = len(res.op_s), res.failed, res.errors, None
        units = END_TO_END
        env["digest"] = res.digest
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    bad = sorted(k for k in units if not math.isfinite(metrics[k]))
    if bad:
        raise RuntimeError(f"metrics not finite: {bad}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"env": env, "errors": errors, **result}, indent=1)
    )
    if traces is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(traces))
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 1 if failed else 0


def run_many(args, names: list[str]) -> int:
    """Each workload in its own process; print every metric by name."""
    ok = True
    combined = {}
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--reference", str(args.reference),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exited with code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        combined[name] = result
        ok = ok and result["correct"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"{name:<13} {metric:<36} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": ok, "workloads": combined}))
    return 0 if ok else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload, a comma-separated list, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up, for the self-tests")
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="reference digests (JSON)")
    args = ap.parse_args(argv)
    names = list(WORKLOAD_NAMES) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {WORKLOAD_NAMES}")
    return args, names


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if len(names) > 1:
        return run_many(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
