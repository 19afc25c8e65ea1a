"""Run one conelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload registry-check --seed 7 \
        --seconds 10 --trace 0

Run it from the root of a source checkout; the program is imported from
`src/` there.  With `--trace 0` the workload runs back to back for
`--seconds` seconds (at least one whole pass) and the end-to-end metrics are
reported, at reference speed (see yardstick.py).  With `--trace 1` one
untraced and one traced pass run on the same inputs and the per-layer
metrics are reported.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line before
it is a readable summary that also gives the times as measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from yardstick import Yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("registry-check", "bijection-search", "composite-faces",
             "classify-trace")
SETUP_REPEATS = 5
# yardstick sampling interval (s) in the timed run and in a set-up probe
RUN_INTERVAL_S = 0.05
PROBE_INTERVAL_S = 0.005


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    if not (SRC / "conelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no conelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conelab.cli  # noqa: F401  (the whole package, as users load it)
    import conelab
    if Path(conelab.__file__).resolve().parent != SRC / "conelab":
        raise SystemExit(f"error: conelab was imported from "
                         f"{conelab.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int):
    """Child process: time the import plus the workload's registry load and
    system construction, and print it raw and at reference speed."""
    with Yardstick(PROBE_INTERVAL_S) as ys:
        t0 = time.perf_counter()
        import_program()
        t1 = time.perf_counter()
        import workloads
        w = workloads.WORKLOADS[workload]
        inputs = w.make_inputs(seed)
        t2 = time.perf_counter()
        w.construct(inputs)
        t3 = time.perf_counter()
    raw = (t1 - t0) + (t3 - t2)
    scaled = (ys.at_reference_speed(t0, t1 - t0)
              + ys.at_reference_speed(t2, t3 - t2))
    print(repr(raw), repr(scaled))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, raw and at reference
    speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append([float(x) for x in proc.stdout.split()[-2:]])
    return tuple(statistics.median(t[i] for t in times) for i in (0, 1))


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def timed_pass(workload, inputs):
    t0 = time.perf_counter()
    verdicts = workload.run_pass(inputs)
    return t0, time.perf_counter() - t0, verdicts


def mark_differences(reference, verdicts, why: str):
    """Fail every verdict whose outcome differs from the reference pass."""
    ref = {v.key: v.outcome for v in reference}
    for v in verdicts:
        if v.ok and ref.get(v.key) != v.outcome:
            v.ok = False
            v.problem = why


def timed_run(workload, inputs, seconds: float, setup: tuple[float, float]):
    passes = []
    with Yardstick(RUN_INTERVAL_S) as ys:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(timed_pass(workload, inputs))
    for _, _, verdicts in passes[1:]:
        mark_differences(passes[0][2], verdicts,
                         "outcome differs between passes on the same inputs")
    verdicts = [v for _, _, vs in passes for v in vs]
    # Contention only ever adds time, so each verdict's latency is its
    # fastest repeat and the pass time is the fastest pass.
    raw: dict[str, float] = {}
    scaled: dict[str, float] = {}
    for v in verdicts:
        raw[v.key] = min(raw.get(v.key, v.latency_s), v.latency_s)
        t = ys.at_reference_speed(v.start_s, v.latency_s)
        scaled[v.key] = min(scaled.get(v.key, t), t)
    scaled_ms = [t * 1e3 for t in scaled.values()]
    metrics = {
        "wall_ref_s": min(ys.at_reference_speed(t0, d) for t0, d, _ in passes),
        "setup_s": setup[1],
        "verdict_p50_ref_ms": statistics.median(scaled_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    n = len(scaled_ms)
    summary = (f"{workload.name}: {len(verdicts)} verdicts in {len(passes)} "
               f"passes; at reference speed: verdict_p50_ms "
               f"{metrics['verdict_p50_ref_ms']:.3f} (n={n})")
    # the highest percentile with at least ten samples beyond it
    if n >= 100:
        p90 = statistics.quantiles(scaled_ms, n=10)[-1]
        summary += f", verdict_p90_ms {p90:.3f} (n={n})"
    summary += (f"; as measured: wall_s {min(d for _, d, _ in passes):.3f}, "
                f"verdict_p50_ms "
                f"{statistics.median(raw.values()) * 1e3:.3f}, setup_s "
                f"{setup[0]:.4f}; reference task "
                f"{statistics.fmean(ys.durations) * 1e6:.1f} us "
                f"(n={len(ys.durations)})")
    return verdicts, metrics, summary, []


def self_check(workload_name: str, metrics: dict) -> list[str]:
    """Every counter predicted to move this workload must have counted."""
    table = json.loads((BENCH / "predictions.json")
                       .read_text(encoding="utf-8"))
    problems = []
    for row in table["rows"]:
        if workload_name in row["nonzero_on"]:
            for counter in row["counters"]:
                if not metrics[counter] > 0:
                    problems.append(f"{counter} is zero on {workload_name}")
    return problems


def traced_run(workload, inputs, seed: int):
    _, untraced_s, reference = timed_pass(workload, inputs)
    spans = tracer.Tracer()
    with spans:
        _, traced_s, verdicts = timed_pass(workload, inputs)
    mark_differences(reference, verdicts,
                     "traced outcome differs from the untraced one")
    metrics = spans.aggregate()
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{workload.name}-seed{seed}.tsv"
    spans.write_tsv(path)
    summary = (f"{workload.name}: {len(spans.start)} spans written to "
               f"{path.relative_to(ROOT)}, untraced pass {untraced_s:.3f} s, "
               f"traced pass {traced_s:.3f} s")
    return (reference + verdicts, metrics, summary,
            self_check(workload.name, metrics))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import_program()
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)
    if args.trace and tracer.metric_units() != units:
        raise SystemExit("error: per-layer metrics differ from BENCHMARK.json")
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.trace:
        verdicts, metrics, summary, problems = traced_run(workload, inputs,
                                                          args.seed)
    else:
        verdicts, metrics, summary, problems = timed_run(
            workload, inputs, args.seconds, setup)
    if set(metrics) != set(units):
        raise SystemExit("error: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    failed = sum(not v.ok for v in verdicts)
    for v in verdicts:
        if not v.ok:
            problems.append(f"{v.key}: {v.problem}")
    for line in dict.fromkeys(problems):
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{summary}; fail_frac {failed / len(verdicts):.4f} "
          f"({failed}/{len(verdicts)})")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
