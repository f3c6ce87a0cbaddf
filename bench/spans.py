"""Outside-in tracing of laxkit for the per-layer metrics.

Spans are recorded around calls into the public functions of every laxkit
module by wrappers defined here; nothing inside ``src/`` changes.  The
modules bind names at import (``from .stepping import rk4_step``), so a
wrapper is installed in every module namespace that holds the original
function, not only in the defining module.  Class-level wrappers count
dataclass validations (``__post_init__``) and closed-form evaluations.

A span holds its name, start, end, parent span and item id.  Spans stay in
memory (flat arrays) and are written out once, when the run ends.  Self time
is a span's duration minus the time its direct child spans cover.

Counts are taken from what the calls return: steps from ``len(times) - 1``
of the returned trajectory, or of the partial trajectory an exception
carries; an abort for each exception raised and each ``aborted`` flag set.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

from workloads import CHAIN_SIZES, FIELD_SIZES, TIME_LAX_SIZES

MODULES = (
    "laurent", "rmatrix", "stepping", "lattice", "lattice_defect", "liouville",
    "continuum_defect", "backlund", "exact", "cli",
)

# class-level wrappers: (module, class, method)
CLASS_METHODS = (
    ("lattice", "LatticeState", "__post_init__"),
    ("liouville", "FieldConfig", "__post_init__"),
    ("exact", "PeriodicSolution", "phi"),
    ("exact", "PeriodicSolution", "phi_t"),
    ("exact", "PeriodicSolution", "phi_x"),
)

INTEGRATORS = (
    "lattice.integrate", "lattice_defect.integrate_with_defect",
    "liouville.evolve", "backlund.bt_evolve",
)

CLI_MODES = (
    "lattice-sim", "lattice-defect-sim", "verify-poisson", "verify-zero-curvature",
    "verify-charges", "liouville-evolve", "monodromy-check", "bt-evolve", "hetero-bt",
    "defect-charges", "determinism",
)

# Spans that must fire on the workload they are mapped to, else the traced
# run fails.  A name ending in "." matches any span of that module.
DECLARED = {
    "suite": tuple(f"cli.mode.{m}" for m in CLI_MODES) + (
        "stepping.rk4_step", "lattice.integrate", "lattice.LatticeState.__post_init__",
        "lattice.bulk_eom", "lattice.monodromy_value", "lattice_defect.integrate_with_defect",
        "liouville.evolve", "liouville.FieldConfig.__post_init__", "liouville.charges",
        "backlund.bt_evolve", "backlund.hetero_bt_generate", "backlund.select_hetero_variant",
        "exact.PeriodicSolution.phi", "rmatrix.", "continuum_defect.",
    ),
    "chain-charges": (
        "lattice.charges_from_trace", "lattice_defect.defect_charges_from_trace",
        "lattice.time_lax_from_rmatrix", "laurent.matrix_product_chain",
        "laurent.log_expand", "laurent.series_inverse",
    ),
    "field-monodromy": ("liouville.fit_first_charge", "liouville.monodromy_ode"),
}


class Recorder:
    """Flat in-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.attrs: dict[int, dict] = {}
        self.items: list[tuple[int, str]] = []  # (pass number, label)
        self.pass_no = 0
        self._stack: list[int] = []

    def begin_item(self, label: str) -> None:
        self.items.append((self.pass_no, label))

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(len(self.items) - 1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def item_of(self, idx: int) -> tuple[int, str]:
        """(pass number, item label) of a span; (-1, "") before the first item."""
        k = self.item[idx]
        return self.items[k] if k >= 0 else (-1, "")

    def write(self, path: Path) -> None:
        """All spans as flat arrays in one .npz file (times in perf_counter seconds)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            item_pass=np.array([p for p, _ in self.items], dtype=np.int32),
            item_label=np.array([label for _, label in self.items]),
        )


def _outcome(result, err) -> dict:
    """Steps and aborts read from a returned or partial trajectory."""
    traj = result if err is None else getattr(err, "trajectory", None)
    steps = len(traj.times) - 1 if traj is not None and hasattr(traj, "times") else 0
    aborted = err is not None or bool(getattr(result, "aborted", False))
    return {"steps": steps, "aborted": aborted}


def _wrap(rec: Recorder, name: str, fn, namer=None, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(namer(args, kwargs) if namer else name)
        result = err = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            err = e
            raise
        finally:
            rec.close(idx)
            if observe is not None:
                rec.attrs[idx] = observe(args, kwargs, result, err)

    return traced


def _integrator_observer(fn):
    sig = inspect.signature(fn)

    def observe(args, kwargs, result, err):
        out = _outcome(result, err)
        out["dt"] = float(sig.bind(*args, **kwargs).arguments["dt"])
        return out

    return observe


def _cli_mode_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    outdir = args[1] if len(args) > 1 else kwargs.get("outdir", ".")
    if Path(outdir).name.startswith("determinism"):
        return "cli.mode.determinism"
    return f"cli.mode.{config.mode}"


def _cli_mode_observe(args, kwargs, result, err):
    return {"aborted": err is not None or bool(result.aborted)}


class Tracing:
    """Installs the wrappers into every namespace and restores them."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.modules = [importlib.import_module(f"laxkit.{m}") for m in MODULES]
        self.namespaces = self.modules + [importlib.import_module("laxkit")]
        self._restore: list[tuple[object, str, object]] = []

    def _public_functions(self, mod):
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            yield f"{short}.{attr}", obj

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in self.modules:
            for name, fn in self._public_functions(mod):
                namer = observe = None
                if name in INTEGRATORS:
                    observe = _integrator_observer(fn)
                elif name == "cli.run":
                    namer, observe = _cli_mode_name, _cli_mode_observe
                wrapped[id(fn)] = (fn, _wrap(self.rec, name, fn, namer, observe))
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for mod_name, cls_name, meth in CLASS_METHODS:
            cls = getattr(importlib.import_module(f"laxkit.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, _wrap(self.rec, f"{mod_name}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def missing_spans(rec: Recorder, workload: str) -> list[str]:
    fired = set(rec.names)
    missing = []
    for want in DECLARED[workload]:
        if want.endswith("."):
            if not any(n.startswith(want) for n in fired):
                missing.append(want + "*")
        elif want not in fired:
            missing.append(want)
    return missing


# -- per-layer metrics ----------------------------------------------------------


class PassStats:
    """Aggregates of the spans of one pass."""

    def __init__(self):
        self.total = defaultdict(float)    # name -> inclusive seconds
        self.self_s = defaultdict(float)   # name -> self seconds
        self.calls = defaultdict(int)
        self.by_item = defaultdict(float)  # (name, item key) -> inclusive seconds
        self.steps = defaultdict(int)
        self.aborts = defaultdict(int)
        self.fails = defaultdict(int)      # (function, size key) -> failed checks
        self.candidates = defaultdict(lambda: [0, 0])  # mode -> [accepted, attempted]

    def total_prefix(self, prefix: str, which="self_s") -> float:
        table = getattr(self, which)
        return sum(v for k, v in table.items() if k.startswith(prefix))


def _item_key(label: str) -> str:
    """"lattice.charges_from_trace/N40" and "liouville.fit_first_charge/n64/3"
    both reduce to "<function>/<size>"."""
    return "/".join(label.split("/")[:2])


def pass_stats(rec: Recorder, checks_by_pass: dict[int, list]) -> dict[int, PassStats]:
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    stats: dict[int, PassStats] = defaultdict(PassStats)
    for i in range(n):
        pass_no, label = rec.item_of(i)
        st = stats[pass_no]
        name = rec.names[rec.name[i]]
        st.total[name] += dur[i]
        st.self_s[name] += dur[i] - child[i]
        st.calls[name] += 1
        st.by_item[(name, _item_key(label))] += dur[i]
        attrs = rec.attrs.get(i)
        if attrs and name in INTEGRATORS:
            st.steps[name] += attrs["steps"]
            st.aborts[name] += attrs["aborted"]
    _candidate_yield(rec, stats)
    for pass_no, checks in checks_by_pass.items():
        st = stats[pass_no]
        for c in checks:
            if not c.ok:
                st.fails[(c.function, c.size.replace("=", ""))] += 1
    return dict(stats)


def _candidate_yield(rec: Recorder, stats) -> None:
    """Accepted / attempted candidates of the two lattice simulation modes.

    A candidate is one fine-step integrate call (the smallest dt the mode
    used); the mode accepted one candidate unless its report aborted.
    """
    targets = {
        "cli.mode.lattice-sim": "lattice.integrate",
        "cli.mode.lattice-defect-sim": "lattice_defect.integrate_with_defect",
    }
    dts: dict[int, list[float]] = defaultdict(list)
    for i in range(len(rec.name)):
        name = rec.names[rec.name[i]]
        if name not in targets.values():
            continue
        p = rec.parent[i]
        while p >= 0 and not rec.names[rec.name[p]].startswith("cli.mode."):
            p = rec.parent[p]
        if p >= 0 and targets.get(rec.names[rec.name[p]]) == name:
            dts[p].append(rec.attrs[i]["dt"])
    for mode_span, calls in dts.items():
        fine = min(calls)
        mode = rec.names[rec.name[mode_span]]
        acc = stats[rec.item_of(mode_span)[0]].candidates[mode]
        acc[0] += 0 if rec.attrs[mode_span]["aborted"] else 1
        acc[1] += sum(1 for dt in calls if dt == fine)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _scaling_exp(st: PassStats) -> float:
    """Log-log slope of trace-charge time from the second to the largest size."""
    lo, hi = CHAIN_SIZES[1], CHAIN_SIZES[-1]
    small = st.by_item[("lattice.charges_from_trace", f"lattice.charges_from_trace/N{lo}")]
    big = st.by_item[("lattice.charges_from_trace", f"lattice.charges_from_trace/N{hi}")]
    return math.log(big / small) / math.log(hi / lo) if small > 0 and big > 0 else 0.0


def _metric_table():
    """name -> (unit, function of PassStats).  Every ``.s`` is seconds per pass."""
    t = {}
    for mode in CLI_MODES:
        t[f"cli.mode.{mode}.s"] = ("s", lambda st, m=mode: st.total[f"cli.mode.{m}"])
    for mode in ("lattice-sim", "lattice-defect-sim"):
        t[f"cli.{mode}.candidate_yield"] = (
            "ratio", lambda st, m=mode: _ratio(*st.candidates[f"cli.mode.{m}"]))
    t["stepping.rk4_step.calls"] = ("count", lambda st: st.calls["stepping.rk4_step"])
    t["stepping.rk4_step.self_s"] = ("s", lambda st: st.self_s["stepping.rk4_step"])
    for name in INTEGRATORS:
        t[f"{name}.s"] = ("s", lambda st, n=name: st.total[n])
        t[f"{name}.steps"] = ("count", lambda st, n=name: st.steps[n])
        t[f"{name}.step_us"] = ("us", lambda st, n=name: 1e6 * _ratio(st.total[n], st.steps[n]))
        if name != "backlund.bt_evolve":
            t[f"{name}.aborts"] = ("count", lambda st, n=name: st.aborts[n])
    init = "lattice.LatticeState.__post_init__"
    t["lattice.LatticeState.inits"] = ("count", lambda st: st.calls[init])
    t["lattice.LatticeState.s"] = ("s", lambda st: st.total[init])
    t["lattice.bulk_eom.s"] = ("s", lambda st: st.total["lattice.bulk_eom"])
    t["lattice.monodromy_value.s"] = ("s", lambda st: st.total["lattice.monodromy_value"])
    sized = [("lattice.charges_from_trace", "N", n) for n in CHAIN_SIZES]
    sized += [("lattice.time_lax_from_rmatrix", "N", n) for n in TIME_LAX_SIZES]
    sized += [("lattice_defect.defect_charges_from_trace", "N", n) for n in CHAIN_SIZES]
    sized += [("liouville.fit_first_charge", "n", n) for n, _ in FIELD_SIZES]
    for fn, letter, n in sized:
        key = f"{letter}{n}"
        t[f"{fn}.{key}.s"] = ("s", lambda st, f=fn, k=key: st.by_item[(f, f"{f}/{k}")])
        t[f"{fn}.{key}.fails"] = ("count", lambda st, f=fn, k=key: st.fails[(f, k)])
    mpc = "laurent.matrix_product_chain"
    t[f"{mpc}.calls"] = ("count", lambda st: st.calls[mpc])
    t[f"{mpc}.self_s"] = ("s", lambda st: st.self_s[mpc])
    t["laurent.log_expand.self_s"] = ("s", lambda st: st.self_s["laurent.log_expand"])
    t["laurent.series_inverse.self_s"] = ("s", lambda st: st.self_s["laurent.series_inverse"])
    t["laurent.chain_scaling_exp"] = ("1", _scaling_exp)
    t["liouville.monodromy_ode.calls"] = ("count", lambda st: st.calls["liouville.monodromy_ode"])
    t["liouville.monodromy_ode.self_s"] = ("s", lambda st: st.self_s["liouville.monodromy_ode"])
    t["liouville.FieldConfig.inits"] = (
        "count", lambda st: st.calls["liouville.FieldConfig.__post_init__"])
    t["liouville.charges.s"] = ("s", lambda st: st.total["liouville.charges"])
    hbg = "backlund.hetero_bt_generate"
    t[f"{hbg}.calls"] = ("count", lambda st: st.calls[hbg])
    t[f"{hbg}.s"] = ("s", lambda st: st.total[hbg])
    t["backlund.select_hetero_variant.s"] = (
        "s", lambda st: st.total["backlund.select_hetero_variant"])
    t["exact.PeriodicSolution.evals"] = (
        "count", lambda st: st.total_prefix("exact.PeriodicSolution.", "calls"))
    t["exact.PeriodicSolution.s"] = (
        "s", lambda st: st.total_prefix("exact.PeriodicSolution.", "total"))
    t["rmatrix.self_s"] = ("s", lambda st: st.total_prefix("rmatrix."))
    t["continuum_defect.self_s"] = ("s", lambda st: st.total_prefix("continuum_defect."))
    return t


METRICS = _metric_table()


def layer_metrics(stats: dict[int, PassStats]) -> dict[str, dict]:
    """Median over traced passes of every per-layer metric."""
    passes = list(stats.values())
    return {
        name: {"value": float(statistics.median(fn(st) for st in passes)), "unit": unit}
        for name, (unit, fn) in METRICS.items()
    }
