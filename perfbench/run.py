"""detideals benchmark: seeded inputs, a timed closed loop, exact output checks.

    python3 perfbench/run.py --workload table1-n7 --seed 1 --seconds 20 --trace 0

Run from any directory; the program under test is imported from the `src`
directory beside `perfbench`.  One caller drives the library in a closed loop:
the next call starts when the previous one returns.  Each of the workload's
batches runs once, then they repeat in turn while the measured time plus one
more batch fits in `--seconds`.  Surveys use min(2, cpu_count) workers, passed
explicitly so that DETIDEALS_WORKERS has no effect.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the workload's
trace batch serially four times, untraced, traced, traced, untraced (so that a
steady drift in machine speed cancels out of the overhead), writes the spans of
the first traced pass to `perfbench/out/` and prints the per-layer metrics and
the tracing overhead.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Assertions must stay on (no -O): the Ideal.equal guard that cross-checks a
reported ideal inequality by mutual membership is an assert-mode check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3  # at least this many set-ups, and
SETUP_MIN_S = 1.0  # at least this much set-up time, before taking the median
IMPORT_REPEATS = 5  # fresh interpreters timed importing detideals

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_detideals():
    """Import detideals from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "detideals" / "__init__.py").is_file():
        raise SystemExit(f"error: no detideals package under {src}")
    sys.path.insert(0, str(src))
    import detideals

    if Path(detideals.__file__).resolve().parent != (src / "detideals").resolve():
        raise SystemExit(f"error: detideals imported from {detideals.__file__}")


def import_seconds() -> float:
    """Median time to import detideals from this checkout's `src`.  A process
    imports a package once, so each repeat runs in a fresh interpreter (the
    interpreter's own start-up is not timed)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import detideals; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, inputs, seconds: float, workers: int):
    """Run every batch once, then repeat them in turn while the measured time
    plus one more batch fits."""
    walls, cpus, latencies, rates = [], [], [], []
    items = failed = 0
    batches = workload.batches(inputs)
    while True:
        batch_inputs = batches[len(walls) % len(batches)]
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        batch = workload.run(batch_inputs, workers)
        walls.append(perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        failed += workload.check(batch_inputs, batch, first=len(walls) == 1)
        items += batch.items
        rates.append(batch.items / walls[-1])
        latencies.extend(batch.latencies_ms)
        if len(walls) >= len(batches) and sum(walls) + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates),
        "item_p50_ms": percentile(latencies, 50),
        "item_p90_ms": percentile(latencies, 90),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"batches": len(walls), "latency_samples": len(latencies)}
    return metrics, items, failed, notes


def trace(workload, inputs, workers: int, header: dict):
    """Serial passes in the order untraced, traced, traced, untraced; the first
    traced pass (with a traced set-up before it) gives the per-layer metrics.
    A workload that uses the pool gets one more pass at the benchmark's worker
    count, which counts pool starts.  Every pass is checked and all must agree."""
    import tracing

    sample = workload.trace_inputs(inputs)
    seconds = {False: [], True: []}  # traced? -> pass times
    batches, failed, first_tracer = [], 0, None
    for traced in (False, True, True, False):
        tracer = tracing.Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            if tracer is not None and first_tracer is None:
                first_tracer = tracer
                with tracer.span("bench.setup"):
                    workload.setup()
            t0 = perf_counter()
            batch = workload.run(sample, 1, tracer)
            seconds[traced].append(perf_counter() - t0)
        failed += workload.check(sample, batch, first=not batches)
        batches.append(batch)

    pool_starts = 0
    if workload.pooled:
        with tracing.counting_pools() as pools:
            batch = workload.run(sample, workers)
        pool_starts = pools.count
        failed += workload.check(sample, batch, first=False)
        batches.append(batch)
    plain = batches[0]
    failed += sum(plain.items for other in batches[1:]
                  if not workload.same_outputs(plain, other))

    untraced = statistics.mean(seconds[False])
    traced_s = statistics.mean(seconds[True])
    metrics = first_tracer.per_layer()
    metrics["survey.pool_starts"] = pool_starts
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0
    path = OUT / f"trace-{workload.name}-seed{header['seed']}.json.gz"
    header = dict(header, per_layer=metrics, trace_items=plain.items,
                  moves={m: {"moves": e2e, "on": list(on)}
                         for m, (e2e, on) in tracing.MOVES.items()})
    first_tracer.write(str(path), header)
    notes = {"trace_items": plain.items, "trace_file": str(path.relative_to(ROOT))}
    return metrics, len(batches) * plain.items, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload on a few graphs (smoke tests)")
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("run without -O: the Ideal.equal guard is an assert-mode check")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_detideals()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
        setups = []
        while not setups or not args.trace and (
                len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
            t0 = perf_counter()
            inputs = workload.setup()
            setups.append(perf_counter() - t0)
        digest = hashlib.sha256("\n".join(workload.graph6_list(inputs)).encode()).hexdigest()
        workers = min(2, os.cpu_count() or 1)
        header = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "inputs_sha256": digest, "workers": workers}
        if args.trace:
            metrics, attempted, failed, notes = trace(workload, inputs, workers, header)
        else:
            metrics, attempted, failed, notes = measure(workload, inputs, args.seconds, workers)
            metrics["setup_s"] = import_seconds() + statistics.median(setups)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
        metrics = {name: metrics[name] for name in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in {**header, **notes}.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
