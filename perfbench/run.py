"""carmlab benchmark: one closed-loop workload per call, checked against
independent oracles.

    python3 perfbench/run.py --workload classify-composite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program under test is imported from
./src. The inputs are built with sympy from --seed; a fresh worker process
runs whole rounds of operations for about --seconds; every output is then
checked. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A traced run times every operation
untraced and traced, and prints the ratio as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from oracles import CHECKERS, check_pass
from workloads import FULL, WORKLOADS, Scale, build, worker_view

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_INTERPRETERS = 7
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import carmlab.cli; print(time.perf_counter() - t)")


def setup_seconds(count: int = SETUP_INTERPRETERS) -> float:
    """Median time to import carmlab.cli, each in a fresh interpreter."""
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(count)]
    return statistics.median(times)


def run_worker(workload: str, pool: list[list[dict]], seconds: float, trace: bool) -> dict:
    job = {"workload": workload, "seconds": seconds, "trace": trace,
           "rounds": [[worker_view(op) for op in ops] for ops in pool]}
    done = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def check(workload: str, pool: list[list[dict]], result: dict, scale: Scale) -> tuple[int, list[str]]:
    """(failed operations, reasons). An operation fails when it raised, when
    its output is wrong, or when its traced output differs from its untraced
    one; a sieve pass with wrong counts fails every tile in it."""
    checker = CHECKERS[workload]
    records = iter(result["records"])
    failed, reasons = 0, []
    for r in range(result["rounds"]):
        ops = pool[0] if "spans" in result else pool[r % len(pool)]
        verdicts, outs = [], []
        for op, record in zip(ops, records):
            if "error" in record:
                reason = record["error"]
            elif "traced_out" in record and record["traced_out"] != record["out"]:
                reason = "traced output differs from untraced output"
            else:
                reason = checker(op, record["out"])
                outs.append(record["out"])
            verdicts.append(reason)
        if workload == "sieve" and not any(verdicts):
            verdicts = [check_pass(outs, scale.sieve_limit)] * len(verdicts)
        bad = [v for v in verdicts if v]
        failed += len(bad)
        reasons.extend(bad)
    return failed, reasons


def tail(latencies: list[float]) -> tuple[str, float] | None:
    """The highest of p90 and p75 that has at least ten samples beyond it."""
    for q, label in ((10, "p90"), (4, "p75")):
        if len(latencies) >= 10 * q:
            return label, statistics.quantiles(latencies, n=q)[-1]
    return None


def layer_metrics(workload: str, pool: list[list[dict]], result: dict,
                  names: list[str]) -> dict[str, float]:
    """Per-operation figures from the traced halves of a traced run; layers
    that the workload does not reach read 0."""
    spans, ops = result["spans"], len(result["records"])
    calls = {(caller, callee): count for caller, callee, count in result["calls"]}
    values = dict.fromkeys(names, 0.0)
    ms = lambda name: spans.get(name, 0.0) * 1e3 / ops  # noqa: E731
    if workload.startswith("classify"):
        self_ms = ms("op") - ms("factoring.prime_check") - ms("arith.log_squared")
        powmods = calls.get(("carmlab.detector", "pow"), 0)
        draws = sum(c for (_, callee), c in calls.items() if callee == "carmlab.randutil.uniform_below")
        values.update({
            "detector.self_ms": self_ms,
            "detector.powmods": powmods / ops,
            "detector.gcds": calls.get(("carmlab.detector", "gcd"), 0) / ops,
            "detector.us_per_powmod": self_ms * 1e3 * ops / powmods if powmods else 0.0,
            "randutil.draws": calls.get(("carmlab.detector", "carmlab.randutil.uniform_below"), 0) / ops,
            "randutil.bits_calls_per_draw": calls.get(("carmlab.randutil", "getrandbits"), 0) / max(draws, 1),
            "arith.log_squared_ms": ms("arith.log_squared"),
            "factoring.prime_check_ms": ms("factoring.prime_check"),
            "factoring.prime_check_powmods": calls.get(("carmlab.factoring", "pow"), 0) / ops})
    elif workload == "sieve":
        candidates = sum(len(range(op["lo"] | 1, op["hi"] + 1, 2)) for op in pool[0])
        rounds = result["rounds"]
        self_ms = ms("op") - ms("factoring.primes_up_to")
        values.update({
            "factoring.primes_up_to_ms": ms("factoring.primes_up_to"),
            "korselt.self_ms": self_ms,
            "korselt.blocks": calls.get(("carmlab.korselt", "carmlab.korselt._scan_block"), 0) / ops,
            "korselt.ns_per_candidate": self_ms * 1e6 * ops / (candidates * rounds)})
    else:
        bases = sum(op["n"] - 1 for op in pool[0]) * result["rounds"]
        values.update({
            "census.self_ms": ms("op"),
            "census.chunks": calls.get(("carmlab.census", "carmlab.census._census_chunk"), 0) / ops,
            "census.ns_per_base": ms("op") * 1e6 * ops / bases})
    return values


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: Scale = FULL) -> tuple[dict, dict, list[float]]:
    """(the result line, reference figures that are not gated, latencies in ms)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pool = build(workload, seed, scale)
    setup = None if trace else setup_seconds()
    result = run_worker(workload, pool, seconds, trace)
    failed, reasons = check(workload, pool, result, scale)
    errors = sum("error" in rec for rec in result["records"])
    done = [rec for rec in result["records"] if "ms" in rec]
    latencies = [rec["ms"] for rec in done]
    reference = {"workload": workload, "seed": seed, "samples": len(done),
                 "rounds": result["rounds"], "wall_s": result["wall_s"], "failures": reasons[:5]}
    if trace:
        values = layer_metrics(workload, pool, result, [m["name"] for m in spec["per_layer"]])
        reference["tracing_overhead"] = (sum(rec["traced_ms"] for rec in done) / sum(latencies)
                                         if done else None)
        if workload.startswith("classify"):
            powmods = sum(c for caller, callee, c in result["calls"]
                          if (caller, callee) == ("carmlab.detector", "pow"))
            reference["powmods_equal_t"] = powmods == sum(rec["out"]["t"] for rec in done)
    else:
        values = {"setup_s": setup, "ops_per_s": len(done) / result["wall_s"],
                  "op_ms_p50": statistics.median(latencies) if latencies else 0.0,
                  "peak_rss_mb": result["peak_rss_kb"] / 1024}
        reference["tail_ms"] = tail(latencies)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"correct": failed == errors, "attempted": len(result["records"]), "failed": failed,
               "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}
    return summary, reference, latencies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "carmlab" / "__init__.py").is_file():
        print(f"perfbench: no carmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    summary, reference, latencies = run_benchmark(args.workload, args.seed, args.seconds,
                                                  bool(args.trace))
    raw = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.parent.mkdir(exist_ok=True)
    raw.write_text(json.dumps({"summary": summary, "reference": reference,
                               "latencies_ms": latencies}, indent=1))
    print(json.dumps(reference))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
