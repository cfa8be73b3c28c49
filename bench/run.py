"""emphase benchmark: one command for every workload.

    python3 bench/run.py --workload generate-warm --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` a run prints the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a traced run; the last line
of standard output is then one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--trace`` (or with
``--workload all``) each workload runs untraced and traced in processes
of its own and the results are printed as tables.

Run it from anywhere; it works on the checkout it sits in, builds
nothing, imports emphase from ``src`` and the oracles from
``tests/bruteforce.py``, and writes only under ``.bench_build/bench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "bench"
SETUP_LOADS = 101
TRACED_SETUP_LOADS = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Latencies:
    """Operation count, total time and a uniform sample of at most
    ``size`` latencies (reservoir sampling), allocated up front so that
    the harness's memory does not grow with the number of operations."""

    def __init__(self, seed: int, size: int = 100_000):
        self.sample = array("q", bytes(8 * size))
        self.size = size
        self.count = 0
        self.total_ns = 0
        self.rng = random.Random(f"latency-sample:{seed}")

    def add(self, ns: int) -> None:
        self.total_ns += ns
        if self.count < self.size:
            self.sample[self.count] = ns
        else:
            slot = self.rng.randrange(self.count + 1)
            if slot < self.size:
                self.sample[slot] = ns
        self.count += 1

    def values(self) -> list[int]:
        return list(self.sample[:min(self.count, self.size)])

    def p50(self) -> float:
        return statistics.median(self.values())

    def p90(self) -> float:
        values = self.values()
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=10, method="inclusive")[8]

    def per_s(self) -> float:
        return self.count / (self.total_ns / 1e9)


def closed_loop(workload, seconds: float, tracer=None,
                setup=None) -> tuple[Latencies, int, list[int]]:
    """Operations back to back for ``seconds``; latencies and failures.
    With ``setup`` (a config), fresh bundle loads are timed between
    operations, spread evenly over the run, so that their median sees
    the same machine as the operations."""
    from emphase import pipeline

    latencies = Latencies(workload.seed)
    setups: list[int] = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        if tracer is not None:
            tracer.request_id = index
        elapsed, ok = workload.op(index)
        latencies.add(elapsed)
        failed += not ok
        index += 1
        now = time.perf_counter()
        while setup is not None and len(setups) < SETUP_LOADS and (
                now >= start + len(setups) * seconds / SETUP_LOADS or now >= deadline):
            t0 = time.perf_counter_ns()
            pipeline.Bundle(setup).load_all()
            setups.append(time.perf_counter_ns() - t0)
            now = time.perf_counter()
        if now >= deadline or (tracer is not None and tracer.full):
            return latencies, failed, setups


def traced_setup(config, tracer) -> None:
    from emphase import pipeline

    import layers
    from tracer import install

    restore = install(tracer, layers.layer_modules())
    try:
        for _ in range(TRACED_SETUP_LOADS):
            pipeline.Bundle(config).load_all()
    finally:
        restore()


def run_untraced(workload, seconds: float) -> tuple[dict, int, int]:
    latencies, failed, setups = closed_loop(workload, seconds, setup=workload.setup_config())
    rss = workload.peak_rss_mb()
    failed = max(failed, workload.final_checks(latencies.count, thorough=False))
    metrics = {
        "setup_s": statistics.median(setups) / 1e9,
        "op_p50_ms": latencies.p50() / 1e6,
        "op_p90_ms": latencies.p90() / 1e6,
        "peak_rss_mb": rss,
    }
    return metrics, latencies.count, failed


def run_traced(workload, seconds: float, env_record: dict) -> tuple[dict, int, int]:
    """Untraced ops for a third of the time, traced ops for the rest;
    spans are written out when the run ends."""
    import env
    import layers
    from tracer import Tracer

    setup_tracer = Tracer()
    traced_setup(workload.setup_config(), setup_tracer)
    plain, plain_failed, _ = closed_loop(workload, seconds / 3)
    tracer = Tracer()
    with workload.traced(tracer):
        traced, traced_failed, _ = closed_loop(workload, seconds * 2 / 3, tracer)
    ops = plain.count + traced.count
    failed = plain_failed + traced_failed
    failed = max(failed, workload.final_checks(ops, thorough=True))
    if not layers.pairs_identity_holds(tracer):
        workload.fail("pairs visited differ from forms plus rejections")
        failed = ops

    metrics = layers.op_metrics(tracer, traced.count)
    metrics.update(layers.setup_metrics(setup_tracer, TRACED_SETUP_LOADS))
    metrics.update(workload.scaling_metrics())
    metrics["op.per_s"] = plain.per_s()
    metrics["trace.overhead_pct"] = 100 * (traced.p50() - plain.p50()) / plain.p50()
    metrics["import.python_floor_ms"] = env_record["python_floor_ms"]
    metrics["import.emphase_ms"] = env_record["import_emphase_ms"]
    metrics.update(env.importtime(ROOT, env.child_env(ROOT, WORK)))
    metrics["ops_failed_frac"] = failed / ops
    trace_path = WORK / "traces" / f"{workload.name}-seed{workload.seed}.tsv"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    return metrics, ops, failed


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import env
    import workloads

    spec = load_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](ROOT, WORK, seed)
    env_record = env.record(ROOT, WORK)
    workload.prepare()
    gc.collect()
    if trace:
        measured, attempted, failed = run_traced(workload, seconds, env_record)
    else:
        measured, attempted, failed = run_untraced(workload, seconds)
    env_record["loadavg_end"] = list(os.getloadavg())

    missing = [m["name"] for m in listed if m["name"] not in measured]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    correct = failed == 0 and not workload.problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env_record, "problems": workload.problems,
              "not_reached": missing, **result}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("env " + json.dumps(env_record))
    for metric in listed:
        value = metrics[metric["name"]]["value"]
        print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']}")
    status = "ok" if correct else "FAILED"
    print(f"checks: {status}: {attempted} ops attempted, {failed} failed"
          f" (ops_failed_frac {failed / attempted:.4g})")
    for problem in workload.problems:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


def run_report(names: list[str], seed: int, seconds: float) -> int:
    """Each workload untraced and traced, each in a process of its own."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results: dict[tuple[str, int], dict] = {}
    for name in names:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            if not results:
                print(next(line for line in lines if line.startswith("env ")))
            results[name, trace] = json.loads(lines[-1])

    def table(title: str, trace: int) -> None:
        print(title)
        print(f"  {'metric':<36}" + "".join(f"{n:>16}" for n in names))
        for metric in results[names[0], trace]["metrics"]:
            row = "".join(f"{results[n, trace]['metrics'][metric]['value']:>16.6g}"
                          for n in names)
            print(f"  {metric:<36}{row}  {units[metric]}")

    table(f"end-to-end (seed {seed}, {seconds} s per run, tracing off)", 0)
    table("per layer (traced run; times and counts per operation)", 1)
    all_ok = True
    print("output checks")
    for name in names:
        for trace in (0, 1):
            r = results[name, trace]
            all_ok &= r["correct"]
            print(f"  {name:<14} trace {trace}: {'ok' if r['correct'] else 'FAILED'}"
                  f"  attempted {r['attempted']}, failed {r['failed']}")
    print(f"details: {WORK / 'results'}")
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("generate-warm", "atlas-scaling", "cli-cold", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "emphase" / "__init__.py",
              ROOT / "tests" / "bruteforce.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"bench: not an emphase checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all" or args.trace is None:
        names = (["generate-warm", "atlas-scaling", "cli-cold"]
                 if args.workload == "all" else [args.workload])
        return run_report(names, args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
