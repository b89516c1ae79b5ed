"""Mutation check: can the suite see a broken check, oracle or fast path?

Each entry of MUTANTS is one textual change to a file under src/: its exact
old text, which must occur there exactly once, the new text, the test files
that should fail on it, and what is expected of them, `killed` or `survives`
(with the ROADMAP item that is to kill it).  Run from anywhere:

    python tests/mutants.py             # every mutant
    python tests/mutants.py ID [ID ...]  # those only

Each mutant is applied to a fresh copy of the repository in a temporary
directory, and its test files run there under pytest, one mutant at a time.
The kill table has one line per mutant: id, expectation, outcome, seconds
and test files.  The outcome is `killed` when pytest reports failures
(exit 1), `survives` when it passes, and `error` on any other exit (the
mutant broke collection or the run) or when the run takes longer than
TIMEOUT_S seconds: its whole process group is then killed, so that a mutant
that never terminates cannot keep growing.  The exit status is 1 if any
outcome differs from its expectation.  Only the standard library is used.
`tests/test_mutants.py` checks the table against `src/` without running it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# the longest a mutant's test run may take, about 12 times that of the slowest entry (under 10 s)
TIMEOUT_S = 120


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str  # "killed", or "survives (item N)"


FAMILY_TESTS = ("tests/test_families.py", "tests/test_acceptance.py", "tests/test_golden.py")

MUTANTS = (
    Mutant(
        "quasi-smooth-clause-b-always-holds",
        "src/wph/hypersurface.py",
        "if sum(c for gap, c in gaps if reaches(table, gap)) < size:",
        "if False:",
        ("tests/test_hypersurface.py",),
        "killed",
    ),
    Mutant(
        "walk-keeps-the-residue-d-direction",
        "src/wph/singularity.py",
        "                    if left > 1:  # an emptied residue leaves the key\n"
        "                        residues[r] = left - 1\n",
        "                    residues[r] = left\n",
        ("tests/test_hypersurface.py",),
        "killed",
    ),
    Mutant(
        "thm4-absent-check-forced-true",
        "src/wph/families.py",
        'f"weight-{obstruction} variables absent below degree {obstruction}",\n            absent,',
        'f"weight-{obstruction} variables absent below degree {obstruction}",\n            True,',
        FAMILY_TESTS,
        "survives (item 9)",
    ),
    Mutant(
        "ample-top-absent-check-forced-true",
        "src/wph/families.py",
        'f"top-weight variable absent below degree {d}",\n            top_absent,',
        'f"top-weight variable absent below degree {d}",\n            True,',
        FAMILY_TESTS,
        "survives (item 9)",
    ),
    Mutant(
        "volume-member-type-check-forced-true",
        "src/wph/families.py",
        "                member_type == expected,",
        "                True,",
        FAMILY_TESTS,
        "survives (item 4)",
    ),
    Mutant(
        "volume-smoothing-degree-check-forced-true",
        "src/wph/families.py",
        "            t * a * s + a == degree,",
        "            True,",
        FAMILY_TESTS,
        "survives (item 4)",
    ),
    Mutant(
        "prop-closed-form-check-forced-true",
        "src/wph/families.py",
        "            x.volume() == closed_form,",
        "            True,",
        FAMILY_TESTS,
        "survives (item 4)",
    ),
    Mutant(
        "walk-keeps-an-emptied-residue-d-entry",
        "src/wph/singularity.py",
        "                    if left > 1:  # an emptied residue leaves the key\n"
        "                        residues[r] = left - 1\n",
        "                    residues[r] = left - 1\n",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "coprime-test-skipped-where-candidates-remain",
        "src/wph/search.py",
        "coprime_to = found and g",
        "coprime_to = not found and g",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "stripe-takes-every-head",
        "src/wph/search.py",
        "islice(enumerate(_heads(leads, length, max_sum)), k, None, workers)",
        "islice(enumerate(_heads(leads, length, max_sum)), 0, None, 1)",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "pool-raises-the-last-failure-in-serial-order",
        "src/wph/search.py",
        "raise min(failures)[1]",
        "raise max(failures)[1]",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "quasi-smooth-clause-b-dropped",
        "src/wph/hypersurface.py",
        "if sum(c for gap, c in gaps if reaches(table, gap)) < size:",
        "if True:",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "shared-walk-skips-the-tail-orders",
        "src/wph/singularity.py",
        "orders = sorted(grown.difference(low, (1,)))",
        "orders = sorted(set(head).difference(low))",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "shared-walk-leaves-the-tail-out-of-the-germ",
        "src/wph/singularity.py",
        "residues[b % h] = residues.get(b % h, 0) + 1",
        "residues[b % h] = residues.get(b % h, 0)",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "shared-walk-adds-the-tail-to-the-head-residues",
        "src/wph/singularity.py",
        "residues = by_order[h].copy()",
        "residues = by_order[h]",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "shared-walk-reads-head-orders-above-the-cap-first",
        "src/wph/singularity.py",
        "orders = low = head[: bisect_right(head, cap)]",
        "orders = low = head",
        ("tests/test_search.py",),
        "killed",
    ),
    Mutant(
        "walk-checks-the-environment-cap-not-its-own",
        "src/wph/singularity.py",
        'config.require("WPH_ORDER_CAP", h, f"group order {h}", cap)',
        'config.require("WPH_ORDER_CAP", h, f"group order {h}")',
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "scan-block-ends-before-the-bound-k",
        "src/wph/singularity.py",
        "end = (bound - base) // c + 1 if unit else half",
        "end = (bound - base) // c if unit else half",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "sieve-drops-a-k-that-ties-the-least-total",
        "src/wph/singularity.py",
        "keep = [*map((best - pairs).__ge__, low)]",
        "keep = [*map((best - pairs).__gt__, low)]",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "sieve-ignores-the-mirrored-totals",
        "src/wph/singularity.py",
        "and base + c * (r - hi + 1) > best",
        "and True",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "sieve-ignores-periodic-classes",
        "src/wph/singularity.py",
        "sieve = unit and not (stop_below or periodic) and",
        "sieve = unit and not stop_below and",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "classify-quotient-passes-the-order-as-its-cap",
        "src/wph/singularity.py",
        'return _order_class(s.order, _residues(s), config._cap("WPH_ORDER_CAP"))',
        "return _order_class(s.order, _residues(s), s.order)",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "tie-floor-ignores-the-frame",
        "src/wph/singularity.py",
        "floor = 1 if inverse > 1 else lo if sign > 0 else r + 1 - hi",
        "floor = lo if sign > 0 else r + 1 - hi",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "strata-keep-a-set-at-gcd-one",
        "src/wph/core.py",
        "if (g := math.gcd(h, a)) > 1",
        "if (g := math.gcd(h, a)) >= 1",
        ("tests/test_core.py",),
        "killed",
    ),
    Mutant(
        "strata-grow-a-set-by-its-own-last-index",
        "src/wph/core.py",
        "((i,), a, p + 1) for p",
        "((i,), a, p) for p",
        ("tests/test_core.py",),
        "killed",
    ),
    Mutant(
        "strata-grow-a-set-from-the-first-heavy-index",
        "src/wph/core.py",
        "((i,), a, p + 1) for p",
        "((i,), a, 0) for p",
        ("tests/test_core.py",),
        "killed",
    ),
    Mutant(
        "closed-form-terminal-at-l-equal-to-h",
        "src/wph/singularity.py",
        "and _prime_bound(h, runs) > h",
        "and _prime_bound(h, runs) >= h",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "prime-bound-counts-a-residue-its-prime-divides",
        "src/wph/singularity.py",
        "if gcd(g, f) == 1)",
        "if gcd(g, f) >= 1)",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "cap-check-skipped-where-no-closed-form-decides",
        "src/wph/singularity.py",
        "if h > cap and _closed_class(h, runs) is None:",
        "if h > cap and _closed_class(h, runs) is not None:",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "closed-form-not-canonical-at-t1-equal-to-h",
        "src/wph/singularity.py",
        "if total < h or",
        "if total <= h or",
        ("tests/test_singularity.py",),
        "killed",
    ),
    Mutant(
        "validator-accepts-one-below-the-least",
        "src/wph/core.py",
        "if type(a) is not int or a < least:",
        "if type(a) is not int or a < least - 1:",
        ("tests/test_core.py", "tests/test_singularity.py"),
        "killed",
    ),
    Mutant(
        "order-residues-keep-the-left-out-weight",
        "src/wph/core.py",
        "{0: -1}, h)",
        "{0: 0}, h)",
        ("tests/test_core.py",),
        "killed",
    ),
)


def run(mutant: Mutant, timeout: float = TIMEOUT_S) -> tuple[str, float]:
    """(outcome, seconds) of the mutant's test files on a mutated copy; a run
    longer than `timeout` seconds is killed, with its children, as an `error`."""
    with tempfile.TemporaryDirectory(prefix="wph-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        )
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error", 0.0
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group, the search's workers included
        )
        try:
            code = child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):  # the group may have just ended
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            code = None
        seconds = time.perf_counter() - start
    return {0: "survives", 1: "killed"}.get(code, "error"), seconds


def main(ids: list[str]) -> int:
    if unknown := set(ids) - {m.id for m in MUTANTS}:
        print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    wrong = 0
    width = max(len(m.id) for m in chosen)
    print(f"{'mutant':{width}}  {'expected':17}  {'outcome':8}  seconds  tests")
    for mutant in chosen:
        outcome, seconds = run(mutant)
        ok = mutant.expect.split()[0] == outcome
        wrong += not ok
        print(
            f"{mutant.id:{width}}  {mutant.expect:17}  {outcome:8}  {seconds:7.1f}  "
            f"{' '.join(mutant.tests)}{'' if ok else '  <- unexpected'}",
            flush=True,
        )
    print(f"{len(chosen) - wrong} of {len(chosen)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
