"""The acceptance battery at every seed of a range, from one process.

    PYTHONPATH=src python -W error::RuntimeWarning tests/seed_sweep.py

Runs ``laxkit suite`` at seeds 0-49 (SEEDS), prints every failing record and
the five records whose closest pass over the seeds lies nearest their
bounds, and exits 1 when the failures differ from KNOWN_FAILURES: a seed
outside it fails, or a listed seed passes or fails in other records.  Not
collected by pytest (about 14 s on a 2-core host, 24 s on one core).
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from laxkit import cli

SEEDS = range(50)

# the failing records of each seed that fails, with their causes
KNOWN_FAILURES = {
    # the second-order spatial floor of the FD scheme at 64 points
    13: {"liouville-evolve/momentum-drift"},
    # the accepted candidate's drift pair at dt = 5e-3 is pre-asymptotic
    23: {"lattice-sim/bulk-charge-drift-ratio-upper"},
}


def margin(rec: cli.CheckRecord) -> float | None:
    """How far a record is from its bound: value over bound for a "min"
    record, bound over value for a "max" one; None when either is zero."""
    if rec.tolerance == 0.0 or rec.value == 0.0:
        return None
    return rec.value / rec.tolerance if rec.criterion == "min" else rec.tolerance / rec.value


def main() -> int:
    unexpected, closest = [], {}  # record name -> (margin, seed, record)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            with contextlib.redirect_stderr(io.StringIO()):
                report = cli.suite(Path(tmp) / str(seed), seed=seed)
            failed = set()
            for rec in report.records:
                if rec.passed:
                    m = margin(rec)
                    if m is not None and m < closest.get(rec.name, (float("inf"),))[0]:
                        closest[rec.name] = (m, seed, rec)
                    continue
                failed.add(rec.name)
                op = "<=" if rec.criterion == "max" else ">="
                print(f"seed {seed}: FAIL {rec.name}: {rec.value:.4g} {op} {rec.tolerance:g}")
            known = KNOWN_FAILURES.get(seed, set())
            if failed != known:
                unexpected.append(seed)
                print(f"seed {seed}: expected failures {sorted(known)}, got {sorted(failed)}")
    print("closest passes (value over bound, or bound over value for a max record):")
    for m, seed, rec in sorted(closest.values(), key=lambda item: item[0])[:5]:
        print(f"  {m:.3f}  seed {seed}  {rec.name} = {rec.value:.4g} (bound {rec.tolerance:g})")
    if unexpected:
        print(f"unexpected results at seeds {unexpected}")
        return 1
    print(f"seeds 0-{SEEDS[-1]}: only the known failures at seeds {sorted(KNOWN_FAILURES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
