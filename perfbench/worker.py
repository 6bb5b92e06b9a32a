"""Closed-loop worker: runs one workload's operations against carmlab.

Reads its job as one JSON document on stdin and writes one to stdout: the
latency and output of every operation, the loop's wall time, its own peak
RSS and, in a traced run, per-layer spans and call counts. It imports no
sympy, so its resident set is carmlab's own.

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import carmlab.detector  # noqa: E402
import carmlab.korselt  # noqa: E402
from carmlab import (DetectorConfig, census_brute_force, detect_carmichael_general,  # noqa: E402
                     enumerate_carmichael_range)


def classify(op: dict) -> dict:
    verdict = detect_carmichael_general(op["n"], DetectorConfig(rng_seed=op["seed"]))
    return {"label": verdict.label.value, "t": verdict.sample_size,
            "a": verdict.evidence[0] if verdict.evidence else None}


def sieve(op: dict) -> list[int]:
    return enumerate_carmichael_range(op["lo"], op["hi"])


def census(op: dict) -> list[int]:
    result = census_brute_force(op["n"])
    return [result.count_A, result.count_C]


OPERATIONS = {"classify-composite": classify, "classify-carmichael": classify,
              "sieve": sieve, "census": census}

# The names through which one module calls another's public function. A
# traced run replaces them with timed wrappers; src/ itself is not edited.
CHILD_SPANS = (("arith.log_squared", carmlab.detector, "natural_log_squared_floor"),
               ("factoring.prime_check", carmlab.detector, "prime_check"),
               ("factoring.primes_up_to", carmlab.korselt, "primes_up_to"))


class Trace:
    """Spans around the wrapped child calls, and a profile hook that counts
    every builtin and Python call by the module that makes it."""

    def __init__(self):
        self.spans: Counter[str] = Counter()
        self.calls: Counter[tuple[str, str]] = Counter()
        self._originals = [(module, attr, getattr(module, attr)) for _, module, attr in CHILD_SPANS]

    def _timed(self, name, fn):
        spans = self.spans

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[name] += perf_counter() - start
        return wrapper

    def _hook(self):
        calls = self.calls

        def hook(frame, event, arg):
            if event == "c_call":
                calls[frame.f_globals.get("__name__"), arg.__name__] += 1
            elif event == "call" and frame.f_back is not None:
                callee = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
                calls[frame.f_back.f_globals.get("__name__"), callee] += 1
        return hook

    def run(self, fn, op):
        """fn(op) with spans and counts on; returns (seconds, output)."""
        for (name, _, _), (module, attr, original) in zip(CHILD_SPANS, self._originals):
            setattr(module, attr, self._timed(name, original))
        sys.setprofile(self._hook())
        try:
            start = perf_counter()
            out = fn(op)
            elapsed = perf_counter() - start
        finally:
            sys.setprofile(None)
            for module, attr, original in self._originals:
                setattr(module, attr, original)
        self.spans["op"] += elapsed
        return elapsed, out


def run(job: dict) -> dict:
    """Whole rounds until the next one would end past the deadline by more
    than half a round; at least one round."""
    fn = OPERATIONS[job["workload"]]
    rounds = job["rounds"]
    trace = Trace() if job["trace"] else None
    fn(rounds[0][0])  # warm-up, not counted
    records = []
    start = perf_counter()
    done = 0
    while True:
        # a traced run repeats the first round, so its counts do not depend on its length
        for op in rounds[0] if trace else rounds[done % len(rounds)]:
            record = {"round": done}
            try:
                t0 = perf_counter()
                record["out"] = fn(op)
                record["ms"] = (perf_counter() - t0) * 1e3
                if trace:
                    elapsed, record["traced_out"] = trace.run(fn, op)
                    record["traced_ms"] = elapsed * 1e3
            except Exception as exc:  # counted as a failed operation
                record["error"] = repr(exc)
            records.append(record)
        done += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= job["seconds"]:
            break
    result = {"records": records, "wall_s": perf_counter() - start, "rounds": done,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        result["spans"] = dict(trace.spans)
        result["calls"] = [[caller, callee, count] for (caller, callee), count
                           in trace.calls.items() if str(caller).startswith("carmlab")]
    return result


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
