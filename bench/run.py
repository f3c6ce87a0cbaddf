#!/usr/bin/env python3
"""laxkit benchmark: closed-loop passes of one workload, checked against oracles.

Usage, from the repository root:

    python3 bench/run.py --workload suite --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``suite``, ``chain-charges``,
``field-monodromy``.  One caller runs passes back to back for ``--seconds``
after a warm-up pass.  BLAS threads stay at the environment default.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over five
set-ups, each from the first line of this script through the imports and the
warm-up pass, each scaled by the reference loop timed right after it),
``pass_norm_s`` (mean pass wall time, scaled by a reference
loop timed before every pass to the speed of a nominal host) and
``peak_rss_mb``.  The raw mean pass time is printed beside it.
The fail fraction is ``failed / attempted`` in the result line and is also
printed by name.  ``--trace 1`` times half of the run untraced and half
traced, reports the per-layer metrics of ``spans.py`` plus the tracing
overhead, and fails if a span declared for the workload never fired.

The last line of standard output is the JSON result; the full record with
the environment block and the failure records goes to
``.bench_out/BENCH_<workload>[_trace].json`` (spans to ``spans_<workload>.npz``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("suite", "chain-charges", "field-monodromy")
SETUP_SAMPLES = 5  # this process plus four probe processes
SETUP_REF_REPEATS = 20  # reference loops timed after each set-up
PROBE_TIMEOUT_S = 30
REF_LOOPS = 20_000
REF_NOMINAL_S = 2e-3  # the reference loop's time on the nominal host


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_probes(args) -> list[tuple[float, float]]:
    """(set-up, reference loop) times of fresh processes that import and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        setup, ref = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(ref)))
    return samples


def import_laxkit():
    """Import laxkit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import laxkit

    if not Path(laxkit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: laxkit imported from {laxkit.__file__}, not {SRC}")
    return laxkit


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop that runs no laxkit code.

    The benchmark's host is shared, and its speed wanders by tens of percent
    within seconds.  Timed before every pass, this loop slows with the host,
    so dividing by its mean takes most of that drift out of ``pass_norm_s``
    and ``setup_s``.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v, "unset")
                    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """Commit of the checkout read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def timed_passes(workload, seconds: float, begin_item=lambda label: None, on_pass=None,
                 refs=None):
    """Closed loop: passes back to back until ``seconds`` have elapsed (at least one).

    With a ``refs`` list, the reference loop is timed into it before each pass.
    """
    times, checks = [], []
    stop = time.perf_counter() + seconds
    while True:
        if on_pass is not None:
            on_pass(len(times))
        if refs is not None:
            refs.append(reference_loop_s())
        t = time.perf_counter()
        result = workload.run_pass(begin_item)
        times.append(time.perf_counter() - t)
        checks.append(result)
        if time.perf_counter() >= stop:
            return times, checks


def failure_records(checks_by_pass) -> list[dict]:
    """One record per failing check (function, size, quantity, error), first pass seen."""
    seen = {}
    for checks in checks_by_pass:
        for c in checks:
            if not c.ok and c.label not in seen:
                seen[c.label] = {"function": c.function, "size": c.size,
                                 "check": c.name, "error": c.error}
    return list(seen.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "laxkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no laxkit sources at {SRC}; run from a laxkit checkout")
    t_probes = time.perf_counter()
    probe_s = [] if (args.setup_probe or args.trace) else run_probes(args)
    t_probes = time.perf_counter() - t_probes

    import_laxkit()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.run_pass(lambda label: None)  # warm-up, part of set-up
        own_setup = time.perf_counter() - T0 - t_probes
        setup_ref = statistics.fmean(reference_loop_s() for _ in range(SETUP_REF_REPEATS))
        if args.setup_probe:
            print(repr(own_setup), repr(setup_ref))
            return 0
        setups = [(own_setup, setup_ref)] + probe_s
        refs = []
        if args.trace:
            metrics, times, checks = traced_run(workload, args)
        else:
            times, checks = timed_passes(workload, args.seconds, refs=refs)
            scale = REF_NOMINAL_S / statistics.fmean(refs)
            metrics = {
                "setup_s": {
                    "value": statistics.median(t * REF_NOMINAL_S / r for t, r in setups),
                    "unit": "s",
                },
                "pass_norm_s": {"value": statistics.fmean(times) * scale, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(c) for c in checks)
    failed = sum(not x.ok for c in checks for x in c)
    failures = failure_records(checks)
    env = environment(args.seed)
    if refs:
        env["reference_loop_ms"] = 1e3 * statistics.fmean(refs)
    record = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "passes": len(times), "pass_times_s": times,
        "setup_samples_s": None if args.trace else [t for t, _ in setups],
        "setup_reference_ms": None if args.trace else [1e3 * r for _, r in setups],
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": failures, "metrics": metrics,
    }
    suffix = "_trace" if args.trace else ""
    (OUT / f"BENCH_{args.workload}{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for f in failures:
        print(f"FAIL {f['function']} {f['size']} {f['check']}: {f['error']}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(times)}  "
          f"pass mean {statistics.fmean(times):.6g} s  median {statistics.median(times):.6g} s  "
          f"max {max(times):.6g} s")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} failed / {attempted} checks)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(workload, args):
    """Untraced then traced halves in one process; per-layer metrics and overhead."""
    import spans as tr

    half = args.seconds / 2.0
    plain_times, _ = timed_passes(workload, half)
    rec = tr.Recorder()
    tracing = tr.Tracing(rec)
    tracing.install()
    try:
        times, checks = timed_passes(
            workload, half, rec.begin_item, on_pass=lambda k: setattr(rec, "pass_no", k))
    finally:
        tracing.uninstall()
    rec.write(OUT / f"spans_{args.workload}.npz")
    missing = tr.missing_spans(rec, args.workload)
    if missing:
        raise SystemExit(f"bench: declared spans never fired on {args.workload}: "
                         + ", ".join(missing))
    metrics = tr.layer_metrics(tr.pass_stats(rec, dict(enumerate(checks))))
    traced, plain = statistics.fmean(times), statistics.fmean(plain_times)
    metrics["trace.pass_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": plain, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    return metrics, times, checks


if __name__ == "__main__":
    sys.exit(main())
