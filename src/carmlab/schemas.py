"""JSON schemas for every machine-readable CLI output.

`carmlab schema <name>` dumps these; the test suite validates real CLI
output against them.  High-precision quantities travel as decimal strings
(pattern below) because their magnitudes can leave the double range.
"""

from __future__ import annotations

_NUMERIC_STRING = {"type": "string",
                   "pattern": r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|inf|nan)$"}

MANIFEST_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "seed": {"type": "integer"},
        "timestamp": {"type": "string"},
        "tool_version": {"type": "string"},
    },
    "required": ["command", "parameters", "seed", "timestamp", "tool_version"],
}

CENSUS_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 3},
        "count_A": {"type": "integer", "minimum": 1},
        "count_B": {"type": "integer", "minimum": 0},
        "count_C": {"type": "integer", "minimum": 0},
        "proportion_num": {"type": "integer", "minimum": 0},
        "proportion_den": {"type": "integer", "minimum": 1},
        "method": {"enum": ["BruteForce", "TotientExact"]},
        "manifest": MANIFEST_SCHEMA,
    },
    "required": ["n", "count_A", "count_B", "count_C",
                 "proportion_num", "proportion_den", "method"],
}

VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "label": {"enum": ["Carmichael", "OtherComposite", "Prime"]},
        "basis": {"enum": ["ProportionBelowThreshold", "NoNonTrivialWitnessFound",
                           "NonTrivialWitnessFound", "DeterministicPrimality",
                           "ProbablePrime"]},
        "t": {"type": "integer", "minimum": 1},
        "threshold": {"type": "string", "pattern": r"^\d+/\d+$"},
        "witnesses_found": {"type": "integer", "minimum": 0},
        "evidence_a": {"type": ["integer", "null"]},
        "seed": {"type": "integer"},
        "probabilistic": {"type": "boolean"},
        "manifest": MANIFEST_SCHEMA,
    },
    "required": ["n", "label", "basis", "t", "threshold",
                 "witnesses_found", "evidence_a", "seed", "probabilistic"],
}

BOUND_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 3},
        "k": _NUMERIC_STRING,
        "x1": _NUMERIC_STRING,
        "x2": _NUMERIC_STRING,
        "root_lo": _NUMERIC_STRING,
        "root_hi": _NUMERIC_STRING,
        "verdict": {"enum": ["GuaranteedBelowHalf", "Inconclusive", None]},
        "manifest": MANIFEST_SCHEMA,
    },
    "required": ["n", "k", "x1", "x2", "root_lo", "root_hi", "verdict"],
}

MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "bit_length": {"type": "integer", "minimum": 8},
        "t": {"type": "integer", "minimum": 1},
        "threshold_num": {"type": "integer"},
        "threshold_den": {"type": "integer"},
        "fraction_A_num": {"type": "integer"},
        "fraction_A_den": {"type": "integer"},
        "fraction_B_num": {"type": "integer"},
        "fraction_B_den": {"type": "integer"},
        "sigma": _NUMERIC_STRING,
        "z": _NUMERIC_STRING,
        "p": _NUMERIC_STRING,
        "prior_carmichael": _NUMERIC_STRING,
        "prior_prime": _NUMERIC_STRING,
        "likelihood_given_other": _NUMERIC_STRING,
        "posterior": _NUMERIC_STRING,
        "model": {"enum": ["composite-given", "general"]},
        "manifest": MANIFEST_SCHEMA,
    },
    "required": ["bit_length", "t", "threshold_num", "threshold_den", "sigma",
                 "z", "p", "prior_carmichael", "prior_prime", "posterior", "model"],
}

CERTIFICATE_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "factors": {"type": "array",
                    "items": {"type": "array",
                              "prefixItems": [{"type": "integer"}, {"type": "integer"}]}},
        "squarefree": {"type": "boolean"},
        "divisibility_checks": {"type": "array"},
        "is_carmichael": {"type": "boolean"},
    },
    "required": ["n", "factors", "squarefree", "divisibility_checks", "is_carmichael"],
}

BENCH_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array",
                   "items": {"type": "object",
                             "properties": {"bits": {"type": "integer"},
                                            "n": {"type": "string"},
                                            "t": {"type": "integer"},
                                            "calls": {"type": "integer"},
                                            "seconds_per_call": {"type": "number"}},
                             "required": ["bits", "n", "t", "calls", "seconds_per_call"]}},
        "slope": {"type": "number"},
        "slope_limit": {"type": "number"},
        "within_limit": {"type": "boolean"},
        "t": {"type": "integer"},
        "seed": {"type": "integer"},
        "manifest": MANIFEST_SCHEMA,
    },
    "required": ["points", "slope", "slope_limit", "within_limit"],
}

HISTOGRAM_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer"},
        "t": {"type": "integer"},
        "trials": {"type": "integer"},
        "seed": {"type": "integer"},
        "counts": {"type": "array", "items": {"type": "integer"}},
        "mean": {"type": "number"},
        "stddev": {"type": "number"},
        "expected_mean_num": {"type": ["integer", "null"]},
        "expected_mean_den": {"type": ["integer", "null"]},
        "sigma_model": {"type": ["number", "null"]},
        "manifest": MANIFEST_SCHEMA,
    },
    "required": ["n", "t", "trials", "seed", "counts", "mean", "stddev"],
}

SCHEMAS = {
    "manifest": MANIFEST_SCHEMA,
    "census": CENSUS_SCHEMA,
    "verdict": VERDICT_SCHEMA,
    "bound": BOUND_SCHEMA,
    "model": MODEL_SCHEMA,
    "certificate": CERTIFICATE_SCHEMA,
    "bench": BENCH_SCHEMA,
    "histogram": HISTOGRAM_SCHEMA,
}
