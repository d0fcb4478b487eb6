"""End-to-end serving benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload tenant_steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json

Each repetition runs in a fresh interpreter (the task counters in
``repro.core.tasks`` are process-global), with BLAS pinned to one
thread. Repetitions continue until ``--seconds`` have passed and at
least :data:`MIN_REPS` have run. Virtual-clock metrics must be
bit-identical across repetitions; wall metrics are the median over
them. ``--trace 1`` adds one traced repetition that attributes wall
time to each layer (see ``tracing.py``) and prints the per-layer
metrics instead of the end-to-end ones.

Human-readable report lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals and span logs, inside the checkout.
WORK = os.path.join(HERE, ".work")

MIN_REPS = 2
MAX_REPS = 9
#: Stop starting repetitions once this much wall time has gone.
BUDGET_S = 120.0
CHILD_TIMEOUT_S = 150.0
#: Within-run spread (max - min over median) above which a wall metric
#: is reported as unsteady.
STEADY_SPREAD = 0.10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = {
    "tenant_steady": (
        "16 Zipf tenants, open-loop Poisson, full gateway+journal+obsloop stack:"
        " orchestration dominates, servable compute and memo do almost nothing"
    ),
    "flash_crowd": (
        "6 bounded tenants, quiet->spike->recovery x4 on a 2->6 worker reactive fleet:"
        " admission denials, fleet actuation and alerts do their work here"
    ),
    "science_session": (
        "closed-loop DLHubClient on the legacy ManagementService path, six servables,"
        " batches, pipeline, memo ~50% hits: real numpy compute and the MS path"
    ),
}

#: (name, unit, better, bound). ``setup_s``, ``wall_us_per_req`` and
#: ``peak_rss_mb`` are wall measurements (medians over repetitions); the
#: rest run on the virtual clock and repeat bit for bit.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_us_per_req", "us", "lower", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
    ("lat_p99_ms", "ms", "lower", 0.25),
    ("goodput_frac", "ratio", "higher", 0.10),
    ("capacity_rps", "req/s", "higher", 0.15),
    ("worker_s", "worker-s", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.15),
)
#: Printed with the end-to-end metrics but not listed in BENCHMARK.json:
#: both are 0 on workloads that deny or fail nothing.
REPORTED_ONLY = (("denied_frac", "ratio"), ("failed_frac", "ratio"))

DENIALS = (
    "rejected_auth",
    "rejected_unknown_tenant",
    "rejected_rate_limit",
    "rejected_max_in_flight",
    "rejected_servable_quota",
    "shed_lane_full",
)
#: (name, unit) of every per-layer metric, from the traced run.
PER_LAYER = (
    ("journal.append_us_per_req", "us"),
    ("journal.records_per_req", "count"),
    ("journal.bytes_per_req", "B"),
    ("journal.snapshots", "count"),
    ("store.write_us_per_req", "us"),
    ("gateway.self_us_per_req", "us"),
    ("gateway.lane_wait_ms_p50", "ms"),
    ("gateway.lane_wait_ms_p99", "ms"),
    ("gateway.reclaimed", "count"),
    ("admission.self_us_per_req", "us"),
    *((f"admission.denials.{o}", "count") for o in DENIALS),
    ("scheduler.self_us_per_req", "us"),
    ("auth.self_us_per_req", "us"),
    ("runtime.self_us_per_req", "us"),
    ("runtime.tick_us_p50", "us"),
    ("runtime.tick_us_p99", "us"),
    ("runtime.mean_batch_size", "count"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.queue_wait_ms_p99", "ms"),
    ("queue.self_us_per_req", "us"),
    ("queue.redeliveries", "count"),
    ("queue.dead_letters", "count"),
    ("tracer.self_us_per_req", "us"),
    ("hub.self_us_per_req", "us"),
    ("hub.snapshot_us_p50", "us"),
    ("obsloop.self_us_per_req", "us"),
    ("obsloop.scrapes", "count"),
    ("obsloop.scrape_growth", "ratio"),
    ("obsloop.alerts_fired", "count"),
    ("fleet.self_us_per_req", "us"),
    ("fleet.actions", "count"),
    ("fleet.peak_workers", "count"),
    ("task_manager.self_us_per_req", "us"),
    ("task_manager.invocation_ms_p50", "ms"),
    ("executor.self_us_per_req", "us"),
    ("executor.inference_ms_p50", "ms"),
    ("memo.self_us_per_req", "us"),
    ("memo.lookups", "count"),
    ("memo.hit_frac", "ratio"),
    ("management.self_us_per_req", "us"),
    ("management.request_ms_p50", "ms"),
    ("repository.self_us_per_req", "us"),
    ("repository.publish_us_p50", "us"),
    ("repository.search_us_p50", "us"),
    ("client.self_us_per_req", "us"),
    ("trace.serve_wall_us_per_req", "us"),
    ("trace.remainder_us_per_req", "us"),
    ("trace.accounted_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_per_req", "count"),
)


# ---------------------------------------------------------------------------
# Child: one repetition in a fresh interpreter
# ---------------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _layer_metrics(recorder, result: dict) -> dict:
    """Per-layer metrics of a traced repetition."""
    from tracing import LAYERS

    offered = result["offered"]
    per_req = lambda ns: ns / 1e3 / offered  # noqa: E731 - ns total -> µs/request
    layers = dict(result["layers"])
    self_ns = recorder.self_ns
    scrapes = recorder.durations_us("ObservabilityLoop.scrape")
    tenth = max(1, len(scrapes) // 10)
    waits = recorder.lane_waits_s()
    ticks = recorder.tick_us()
    accounted = sum(self_ns.values())
    out = {
        "journal.append_us_per_req": per_req(self_ns["journal"]),
        "journal.bytes_per_req": recorder.store_bytes / offered,
        "store.write_us_per_req": per_req(self_ns["store"]),
        "gateway.lane_wait_ms_p50": _pct(waits, 50) * 1e3,
        "gateway.lane_wait_ms_p99": _pct(waits, 99) * 1e3,
        "runtime.tick_us_p50": _pct(ticks, 50),
        "runtime.tick_us_p99": _pct(ticks, 99),
        "hub.snapshot_us_p50": _pct(recorder.durations_us("TelemetryHub.snapshot"), 50),
        "obsloop.scrape_growth": (
            _median(scrapes[-tenth:]) / _median(scrapes[:tenth]) if scrapes else 0.0
        ),
        "repository.publish_us_p50": _pct(recorder.durations_us("ModelRepository.publish"), 50),
        "repository.search_us_p50": _pct(recorder.durations_us("ModelRepository.search"), 50),
        "trace.serve_wall_us_per_req": per_req(recorder.window_ns),
        "trace.remainder_us_per_req": per_req(recorder.window_ns - accounted),
        "trace.accounted_frac": accounted / recorder.window_ns,
        "trace.spans_per_req": len(recorder.spans) / offered,
    }
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_us_per_req", per_req(self_ns[layer]))
    for outcome in DENIALS:
        out[f"admission.denials.{outcome}"] = float(result["info"].get("denials", {}).get(outcome, 0))
    for name, _ in PER_LAYER:
        out.setdefault(name, layers.get(name, 0.0))
    return out


def child_main(workload: str, seed: int, trace: bool, out_path: str) -> None:
    """Run one repetition; write its result as JSON to ``out_path``."""
    import resource

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    recorder = None
    if trace:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    result = workloads.WORKLOADS[workload](seed, WORK, recorder)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    if recorder is not None:
        result["per_layer"] = _layer_metrics(recorder, result)
        result["spans_file"] = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl.gz")
        recorder.write(result["spans_file"])
    result["checks"] = [list(c) for c in result["checks"]]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=lambda o: o.item())  # numpy scalars


# ---------------------------------------------------------------------------
# Parent: repetitions, checks, report
# ---------------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        env[var] = "1"
    return env


def _run_child(workload: str, seed: int, trace: bool, index: int) -> dict:
    out_path = os.path.join(WORK, f"rep-{workload}-{seed}-{index}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload, str(seed),
           "1" if trace else "0", out_path]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(
                f"repetition {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)


def _scaled_us_per_req(rep: dict) -> float:
    """Serving wall µs per request, scaled to the reference speed."""
    return rep["serve_s"] / rep["speed"] / rep["offered"] * 1e6


def _spread(values) -> float:
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    os.makedirs(WORK, exist_ok=True)
    t0 = time.monotonic()
    reps: list[dict] = []
    while len(reps) < MAX_REPS:
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and (elapsed >= seconds or elapsed >= BUDGET_S):
            break
        reps.append(_run_child(workload, seed, False, len(reps)))
    traced = _run_child(workload, seed, True, len(reps)) if trace else None

    first = reps[0]
    checks = [tuple(c) for c in first["checks"]]
    identical = all(rep["virtual"] == first["virtual"] for rep in reps[1:])
    checks.append(("virtual_repeatable", identical,
                   f"virtual metrics bit-identical across {len(reps)} fresh interpreters"))
    if traced is not None:
        checks.append(("traced_virtual_same", traced["virtual"] == first["virtual"],
                       "the traced repetition serves the same virtual schedule"))
    wall = {
        "setup_s": [_median(r["setup_times_s"]) for r in reps],
        "wall_us_per_req": [_scaled_us_per_req(r) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {name: _median(v) for name, v in wall.items()}
    # Set-up: the median over every timed set-up of every repetition.
    values["setup_s"] = _median([t for r in reps for t in r["setup_times_s"]])
    correct = all(ok for _, ok, _ in checks)
    values.update(first["virtual"])

    import numpy

    info = first["info"]
    print(f"perfbench {workload} seed={seed} reps={len(reps)} traced={int(trace)}"
          f" nproc={os.cpu_count()} python={platform.python_version()}"
          f" numpy={numpy.__version__} blas_threads={first['blas_threads']}")
    print(f"  requests: offered {info['offered']} completed {info['completed']}"
          f" denied {info['denied']} failed {info['failed']}"
          f" samples beyond p99 {info['beyond_p99']}; wall divides by {first['offered']}"
          " served in the timed region")
    print("  machine speed vs reference (>1 is slower), per repetition: "
          + " ".join(f"{r['speed']:.3f}" for r in reps)
          + "; raw wall us/req: "
          + " ".join(f"{r['serve_s'] / r['offered'] * 1e6:.4g}" for r in reps))
    for name, unit, *_ in END_TO_END:
        line = f"  {name:<16} {values[name]:>14.6f} {unit}"
        if name in wall:
            spread = _spread(wall[name])
            line += f"   reps {' '.join(f'{v:.4g}' for v in wall[name])}; spread {spread:.3f}"
            if spread > STEADY_SPREAD:
                line += " UNSTEADY"
        print(line)
    for name, unit in REPORTED_ONLY:
        print(f"  {name:<16} {values[name]:>14.6f} {unit}   (reported only)")
    if "ladder" in info:
        print("  ladder: " + " ".join(f"{r:g}{'+' if ok else '-'}" for r, ok in info["ladder"]))
    for name, ok, detail in checks:
        print(f"  check {name:<20} {'ok' if ok else 'FAILED'}  {detail}")

    if traced is not None:
        layers = traced["per_layer"]
        layers["trace.overhead_ratio"] = _scaled_us_per_req(traced) / values["wall_us_per_req"]
        print(f"  spans written to {os.path.relpath(traced['spans_file'], ROOT)}")
        for name, unit in PER_LAYER:
            print(f"  {name:<44} {layers[name]:>14.6f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": info["offered"], "failed": info["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def write_manifest() -> None:
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)} for n, u in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _better(name: str) -> str:
    higher = ("memo.hit_frac", "trace.accounted_frac", "runtime.mean_batch_size")
    return "higher" if name in higher else "lower"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        workload, seed, trace, out_path = argv[1:5]
        child_main(workload, int(seed), trace == "1", out_path)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no serving stack to measure ({os.path.relpath(SRC, ROOT)}/repro missing)",
              file=sys.stderr)
        return 2
    # A terminated run raises here instead of dying, so ``subprocess.run``
    # kills and reaps the repetition in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
