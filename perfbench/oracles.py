"""Checks of carmlab's outputs against computations made apart from it.

Each checker returns None when the output is right and a one-line reason
when it is wrong. They run outside the timed region.
"""

from __future__ import annotations

import math
from functools import lru_cache

import sympy

from workloads import PINCH_COUNTS


@lru_cache(maxsize=None)
def korselt(n: int) -> bool:
    """n is Carmichael by Korselt's criterion on a sympy factorization."""
    factors = sympy.factorint(n)
    return (len(factors) >= 2 and all(e == 1 for e in factors.values())
            and all((n - 1) % (p - 1) == 0 for p in factors))


def check_composite(op: dict, out: dict) -> str | None:
    """Label OtherComposite, with evidence a that is a coprime Fermat witness."""
    n = op["n"]
    if out["label"] != "OtherComposite":
        return f"{n}: labelled {out['label']}, expected OtherComposite"
    a = out["a"]
    if a is None or not 1 <= a < n:
        return f"{n}: evidence {a} is not a base in [1, n)"
    if math.gcd(a, n) != 1:
        return f"{n}: evidence {a} shares a factor with n"
    if pow(a, n - 1, n) == 1:
        return f"{n}: evidence {a} is a Fermat liar"
    return None


def check_carmichael(op: dict, out: dict) -> str | None:
    """Chernick inputs labelled Carmichael, prime inputs labelled Prime."""
    n = op["n"]
    if op["kind"] == "chernick":
        expected = "Carmichael"
        sound = (all(sympy.isprime(p) for p in op["factors"]) and math.prod(op["factors"]) == n
                 and all((n - 1) % (p - 1) == 0 for p in op["factors"]))
    else:
        expected, sound = "Prime", sympy.isprime(n)
    if not sound:
        return f"{n}: the input is not a {op['kind']}"
    if out["label"] != expected:
        return f"{n}: labelled {out['label']}, expected {expected}"
    return None


def check_census(op: dict, out: list[int]) -> str | None:
    """count_A = prod gcd(n-1, p-1) and count_C = n - 1 - phi(n)."""
    n = op["n"]
    factors = sympy.factorint(n)
    liars = math.prod(math.gcd(n - 1, p - 1) for p in factors)
    trivial = n - 1 - int(sympy.totient(n))
    count_a, count_c = out
    if (count_a, count_c) != (liars, trivial):
        return f"{n}: counts A={count_a} C={count_c}, expected A={liars} C={trivial}"
    return None


def check_tile(op: dict, out: list[int]) -> str | None:
    """Every output lies in the tile, once, in order, and passes Korselt."""
    if out != sorted(set(out)) or any(not op["lo"] <= n <= op["hi"] for n in out):
        return f"tile [{op['lo']}, {op['hi']}]: outputs out of range or order"
    wrong = [n for n in out if not korselt(n)]
    if wrong:
        return f"tile [{op['lo']}, {op['hi']}]: {wrong[:3]} fail Korselt"
    return None


def check_pass(outs: list[list[int]], limit: int) -> str | None:
    """A whole pass over [3, limit] yields Pinch's counts at each power of ten."""
    found = [n for out in outs for n in out]
    for bound, count in PINCH_COUNTS.items():
        if bound <= limit and sum(n <= bound for n in found) != count:
            return f"pass: {sum(n <= bound for n in found)} found up to {bound}, Pinch has {count}"
    return None


CHECKERS = {"classify-composite": check_composite, "classify-carmichael": check_carmichael,
            "sieve": check_tile, "census": check_census}
