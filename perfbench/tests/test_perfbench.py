"""The benchmark's own tests: every checker rejects a planted wrong output,
and a smoke run covers every workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import PINCH_COUNTS, TINY, WORKLOADS, build, carmichael_in_band  # noqa: E402

SEED = 5


def first(workload, kind):
    return next(op for ops in build(workload, SEED, TINY) for op in ops if op["kind"] == kind)


def witness(n):
    return next(a for a in range(2, n) if math.gcd(a, n) == 1 and pow(a, n - 1, n) != 1)


@pytest.mark.parametrize("kind", ["semiprime", "half-liar"])
def test_composite_checker_rejects_wrong_label_and_liar_evidence(kind):
    op = first("classify-composite", kind)
    n = op["n"]
    good = {"label": "OtherComposite", "t": 1, "a": witness(n)}
    assert oracles.check_composite(op, good) is None
    assert oracles.check_composite(op, {**good, "label": "Carmichael"})
    # n - 1 is a liar of every odd n; half-liar inputs also have small ones
    liar = next((a for a in range(2, 1000) if math.gcd(a, n) == 1 and pow(a, n - 1, n) == 1), n - 1)
    assert oracles.check_composite(op, {**good, "a": liar})
    assert oracles.check_composite(op, {**good, "a": op["factors"][0]})


def test_half_liar_inputs_have_half_liar_units():
    p, q = first("classify-composite", "half-liar")["factors"]
    assert math.prod(math.gcd(p * q - 1, f - 1) for f in (p, q)) * 2 == (p - 1) * (q - 1)


def test_carmichael_checker_rejects_wrong_labels():
    chernick, prime = first("classify-carmichael", "chernick"), first("classify-carmichael", "prime")
    assert oracles.check_carmichael(chernick, {"label": "Carmichael"}) is None
    assert oracles.check_carmichael(prime, {"label": "Prime"}) is None
    assert oracles.check_carmichael(chernick, {"label": "Prime"})
    assert oracles.check_carmichael(prime, {"label": "Carmichael"})


@pytest.mark.parametrize("kind", ["carmichael", "prime", "other"])
def test_census_checker_rejects_counts_off_by_one(kind):
    op = first("census", kind)
    n = op["n"]
    right = [math.prod(math.gcd(n - 1, p - 1) for p in sympy.primefactors(n)),
             n - 1 - int(sympy.totient(n))]
    assert oracles.check_census(op, right) is None
    assert oracles.check_census(op, [right[0] + 1, right[1]])
    assert oracles.check_census(op, [right[0], right[1] - 1])


def test_sieve_checkers_reject_a_missing_or_false_carmichael_number():
    tiles = build("sieve", SEED, TINY)[0]
    known = carmichael_in_band(3, TINY.sieve_limit)
    assert len(known) == PINCH_COUNTS[TINY.sieve_limit]
    outs = [[n for n in known if tile["lo"] <= n <= tile["hi"]] for tile in tiles]
    assert oracles.check_pass(outs, TINY.sieve_limit) is None
    assert all(oracles.check_tile(tile, out) is None for tile, out in zip(tiles, outs))
    missing = [out[1:] if out else out for out in outs]
    assert oracles.check_pass(missing, TINY.sieve_limit)
    tile, out = next((tile, out) for tile, out in zip(tiles, outs) if out)
    impostor = next(n for n in range(tile["lo"] | 1, tile["hi"], 2) if n not in known)
    assert oracles.check_tile(tile, sorted(out + [impostor]))


def benchmark_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload_at_tiny_size(workload):
    end_to_end, per_layer = benchmark_metrics()
    for trace, names in ((False, end_to_end), (True, per_layer)):
        summary, reference, latencies = run.run_benchmark(workload, SEED, 0, trace, TINY)
        assert summary["correct"] and summary["failed"] == 0, reference["failures"]
        assert summary["attempted"] == len(latencies) >= 1
        assert set(summary["metrics"]) == names
    if workload.startswith("classify"):
        assert reference["powmods_equal_t"]
        assert summary["metrics"]["detector.powmods"]["value"] > 0


def test_traced_counts_repeat_for_one_seed():
    counts = ("detector.powmods", "detector.gcds", "randutil.draws",
              "factoring.prime_check_powmods", "korselt.blocks", "census.chunks")
    for workload in WORKLOADS:
        first_run, second_run = (run.run_benchmark(workload, SEED, 0, True, TINY)[0]["metrics"]
                                 for _ in range(2))
        assert [first_run[c] for c in counts] == [second_run[c] for c in counts]
