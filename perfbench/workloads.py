"""Seeded CLI inputs for each workload, and the checks their outputs must pass.

A workload is a fixed list of `wph` CLI argument vectors made from the seed
alone; the program sees only the generated arguments.  Checks run in the
harness after a pass, outside the timed region, against literature anchors
and the independent oracles of `wph` (`ambient_canonical_bruteforce`,
`monomial_count_enum`) plus a brute-force Reid-Tai scan written here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# search anchor: Iano-Fletcher's 23 quasi-smooth canonical 3-folds with K = O(1)
SEARCH_RECORDS = 23
SEARCH_FIRST = "(4,5,6,7,23) d=46 vol=1/420"

ENUM_BUDGET = 50_000  # largest exponent-tuple count the enumeration oracle may walk
REID_TAI_ORACLE_MAX_ORDER = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    calls: Callable[[int, bool], list[list[str]]]  # (seed, smoke) -> argument vectors
    check: Callable[[list[str], dict], str | None]  # (argv, JSON output) -> problem


# ---------------------------------------------------------------- search


def _search_calls(jobs: int):
    def make(seed: int, smoke: bool) -> list[list[str]]:
        max_sum = "45" if smoke else "80"
        return [
            ["search", "--dim", "3", "--max-sum", max_sum, "--plurigenera", "3",
             "--jobs", str(jobs), "--json"]
        ]

    return make


def _check_search(argv: list[str], doc: dict) -> str | None:
    records = doc["results"]["records"]
    if doc["results"]["record_count"] != SEARCH_RECORDS or len(records) != SEARCH_RECORDS:
        return f"expected {SEARCH_RECORDS} records, got {len(records)}"
    if not records[0].startswith(SEARCH_FIRST + " "):
        return f"first record {records[0]!r} is not {SEARCH_FIRST}"
    return None


# -------------------------------------------------------------- families


def volume_unit_weights(r: int, s: int) -> int:
    """Unit-weight count m of the default volume-r/s member (smallest b with
    b*r = 1 mod s, then smallest admissible a); used only to pick targets."""
    b = pow(r, -1, s) if s > 1 else 1
    while r * b <= 1:
        b += s
    a = 1
    while True:
        if math.gcd(a, s) == 1 and math.gcd(a, b) == 1:
            m = r * a * b + 1 - a - s - b - 2
            if m >= max(s, 1):
                return m
        a += 1


# (unit-weight count, relative tolerance, targets): the volume members' cost
# and memory grow with m, so every seed draws the same sizes
VOLUME_SIZES = ((300, 0.02, 2), (3_000, 0.02, 2), (30_000, 0.02, 2),
                (300_000, 0.02, 2), (1_000_000, 0.01, 1))
SMOKE_VOLUME_SIZES = ((300, 0.02, 1), (3_000, 0.02, 1))


def volume_targets(rng: random.Random, sizes) -> list[tuple[int, int]]:
    targets: list[tuple[int, int]] = []
    for size, tol, count in sizes:
        while count:
            s = round(math.exp(rng.uniform(math.log(2), math.log(1200))))
            r = round(math.exp(rng.uniform(0, math.log(3000))))
            if math.gcd(r, s) != 1 or (r, s) in targets:
                continue
            if abs(volume_unit_weights(r, s) - size) <= tol * size:
                targets.append((r, s))
                count -= 1
    return targets


def _families_calls(seed: int, smoke: bool) -> list[list[str]]:
    rng = random.Random(seed)
    verify = ["verify", "--json", "--family"]
    if smoke:
        prop = [(2, 0), (3, 1)]
        thm3, thm4, ample = [5, 12], [7, 20], [1, 2, 15]
        sizes = SMOKE_VOLUME_SIZES
    else:
        # the `verify --all` ranges, thm4 extended to n = 60, ample to n = 100
        prop = [(k, l) for k in range(2, 7) for l in range(5)]
        thm3, thm4 = list(range(5, 31)), list(range(7, 61))
        ample = list(range(1, 21)) + [rng.randint(lo, lo + 7) for lo in range(21, 101, 8)]
        sizes = VOLUME_SIZES
    calls = [verify + ["prop", "--k", str(k), "--l", str(l)] for k, l in prop]
    calls += [verify + ["thm3", "--n", str(n)] for n in thm3]
    calls += [verify + ["thm4", "--n", str(n)] for n in thm4]
    calls += [verify + ["ample", "--n", str(n)] for n in ample]
    calls += [verify + ["volume", "--q", f"{r}/{s}"] for r, s in volume_targets(rng, sizes)]
    return calls


def _check_families(argv: list[str], doc: dict) -> str | None:
    results = doc["results"]
    if len(results["reports"]) != 1:
        return f"expected one report, got {len(results['reports'])}"
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    if not results["passed"] or failed or not doc["checks"]:
        return f"checks failed: {failed}"
    return None


# --------------------------------------------------------------- analyze


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


# degrees with many divisors; weights dividing the degree give a quasi-smooth
# (Fermat) member, so `member_canonical` runs, which random tuples rarely reach
FERMAT_DEGREES = (24, 30, 36, 42, 48, 60, 66, 70, 72, 84)


def _fermat_tuple(rng: random.Random, length: int, degree: int) -> tuple[list[int], int]:
    divisors = [a for a in range(1, degree) if degree % a == 0]
    while True:
        weights = sorted(rng.choice(divisors) for _ in range(length))
        if sum(weights) < degree:
            return weights, degree


def _analyze_calls(seed: int, smoke: bool) -> list[list[str]]:
    rng = random.Random(seed)
    n_analyze, n_genera, n_quotients = (4, 3, 6) if smoke else (120, 80, 100)
    calls = []
    for i in range(n_analyze):
        if i % 3 == 2:
            weights, degree = _fermat_tuple(rng, 4 + i % 4, FERMAT_DEGREES[i % len(FERMAT_DEGREES)])
        else:
            weights = sorted(rng.randint(1, 30) for _ in range(4 + i % 4))
            degree = sum(weights) + 1 + i % 3
        calls.append(["analyze", "--weights", ",".join(map(str, weights)),
                      "--degree", str(degree), "--plurigenera", str(3 + i % 3), "--json"])
    for i in range(n_genera):
        weights = sorted(rng.randint(1, 40) for _ in range(4 + i % 4))
        degree = sum(weights) + 1 + i % 3
        up_to = 10 + (190 * i) // n_genera + rng.randint(0, 2)
        calls.append(["plurigenera", "--weights", ",".join(map(str, weights)),
                      "--degree", str(degree), "--up-to", str(up_to), "--json"])
    # prime orders spread geometrically up to ~3e4, each within 5% of a fixed
    # base, so every seed does the same amount of Reid-Tai work
    top = 2_000 if smoke else 28_000
    for i in range(n_quotients):
        base = 3 * (top / 3) ** (i / max(n_quotients - 1, 1))
        r = _next_prime(rng.randint(round(base), round(base * 1.05)))
        c, e = rng.randint(1, r - 1), rng.randint(1, r - 1)
        if i % 3 == 0:
            weights = [1, r - 1, c]  # terminal: j + (r - j) already reaches r
        elif i % 3 == 1:
            weights = [rng.randint(1, r - 1) for _ in range(3 + i % 3)]
        else:
            a = rng.randint(1, r - 1)
            weights = [a, r - a, c, e]
        calls.append(["reid-tai", f"1/{r}({','.join(map(str, weights))})", "--json"])
    return calls


def _enum_cost(weights: list[int], degree: int) -> int:
    cost = 1
    for a in weights[:-1]:
        cost *= degree // a + 1
    return cost


def _check_genera(weights: list[int], degree: int, lines: list[str]) -> str | None:
    from wph import monomial_count_enum

    alpha = degree - sum(weights)
    for m, line in enumerate(lines, start=1):
        top = m * alpha
        if top > 200 or _enum_cost(weights, top) > ENUM_BUDGET:
            break
        expected = monomial_count_enum(weights, top) - monomial_count_enum(weights, top - degree)
        if line != f"P_{m} = {expected}":
            return f"{line!r} disagrees with the enumeration oracle ({expected})"
    return None


def reid_tai_bruteforce(order: int, weights: list[int]) -> tuple[str, str, bool]:
    """(class, "min=q at j=k", quasi-reflection flag) by the plain criterion."""
    best, best_j, reflection = None, 0, False
    for j in range(1, order):
        residues = [(j * b) % order for b in weights]
        total = sum(residues)
        if best is None or total < best:
            best, best_j = total, j
        reflection = reflection or sum(1 for x in residues if x) <= 1
    if best > order:
        cls = "Terminal"
    elif best == order:
        cls = "CanonicalNotTerminal"
    else:
        cls = "NotCanonical"
    return cls, f"min={Fraction(best, order)} at j={best_j}", reflection


def _check_analyze(argv: list[str], doc: dict) -> str | None:
    from wph import ambient_canonical_bruteforce

    results = doc["results"]
    if argv[0] == "reid-tai":
        order, _, body = argv[1][2:].partition("(")
        order = int(order)
        if order > REID_TAI_ORACLE_MAX_ORDER:
            return None
        weights = [int(b) for b in body.rstrip(")").split(",")]
        got = (results["class"], results["minimum"], results["quasi_reflection_pattern"])
        want = reid_tai_bruteforce(order, weights)
        return None if got == want else f"{got} disagrees with the brute-force scan {want}"
    weights = [int(a) for a in argv[argv.index("--weights") + 1].split(",")]
    degree = int(argv[argv.index("--degree") + 1])
    if argv[0] == "plurigenera":
        return _check_genera(weights, degree, results["table"])
    if results["well_formed"]:
        expected = ambient_canonical_bruteforce(weights)
        if results["ambient_canonical"] is not expected:
            return f"ambient_canonical {results['ambient_canonical']} disagrees with the oracle"
    return _check_genera(weights, degree, results["plurigenera"])


# why each workload exists; BENCHMARK.json carries the same lines
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-d3",
            "the paper's headline search, dim 3 to weight sum 80 on one process: core and quasi_smooth over 271,693 tuples",
            1, _search_calls(1), _check_search,
        ),
        Workload(
            "search-d3-jobs2",
            "the same search on 2 workers, so the leading-weight pool partition and its imbalance are measured",
            2, _search_calls(2), _check_search,
        ),
        Workload(
            "families",
            "about 150 single-family verify calls with seeded volume targets: hilbert tables, quasi_smooth at huge d, no search",
            1, _families_calls, _check_families,
        ),
        Workload(
            "analyze",
            "300 seeded one-off analyze, plurigenera and reid-tai calls: full Reid-Tai scans and per-call cli cost",
            1, _analyze_calls, _check_analyze,
        ),
    )
}


def check_call(workload: Workload, argv: list[str], status, out: str) -> str | None:
    """Why one call's result is wrong, or None when it passes."""
    if status != 0:
        return f"exit status {status}"
    try:
        return workload.check(argv, json.loads(out))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
