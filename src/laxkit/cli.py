"""Command-line verification harness.

Runs seeded check batteries or simulations described by a JSON config and
writes a machine-readable report plus CSV time series.  Reports are
deterministic: identical config and seed give byte-identical JSON; wall clock
timing goes to stderr and to timing.json beside the report, never into it.

Exit codes: 0 all checks passed, 1 at least one check failed or a
trajectory aborted, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import backlund as bt
from . import continuum_defect as cdf
from . import exact
from . import lattice as lat
from . import lattice_defect as ld
from . import liouville as lv
from .rmatrix import r_matrix
from .stepping import Aborted, count_steps, nan_max, step_tally

# the params each mode reads, in battery order; any other key is a config error
PARAMS = {
    "lattice-sim": ("N", "dt", "t_end", "amplitude", "probes"),
    "lattice-defect-sim": ("N", "dt", "t_end", "amplitude", "probes", "defect_site", "theta"),
    "verify-poisson": ("samples", "lambda_probes", "mu_probes"),
    "verify-zero-curvature": ("samples", "mu_probes"),
    "verify-charges": ("samples", "sizes"),
    "liouville-evolve": ("points", "L", "dt", "t_end", "amplitude"),
    "monodromy-check": ("points", "L", "configs", "amplitude"),
    "bt-evolve": ("theta", "dt", "t_end", "points", "seed_offset", "y_seed", "z_seed", "L"),
    "hetero-bt": ("c", "Theta", "nz", "nzbar"),
    "defect-charges": ("samples", "sizes"),
}
MODES = tuple(PARAMS)


class ConfigError(ValueError):
    pass


@dataclass
class CheckRecord:
    name: str
    anchor: str
    value: float
    tolerance: float
    criterion: str  # "max" (value <= tolerance) or "min" (value >= tolerance)
    passed: bool


@dataclass
class Report:
    mode: str
    config: dict
    records: list[CheckRecord] = field(default_factory=list)
    aborted: bool = False
    elapsed: float | None = None  # written to timing.json, never into the report

    @property
    def passed(self) -> bool:
        return not self.aborted and all(r.passed for r in self.records)

    def add(self, name, anchor, value, tolerance, criterion="max"):
        value = float(value)
        ok = value <= tolerance if criterion == "max" else value >= tolerance
        self.records.append(CheckRecord(name, anchor, value, float(tolerance), criterion, ok))

    def add_roundoff(self, name, anchor, value, tolerance):
        """A "max" record of a residual that is rounding error only: passed
        or failed on its value, reported as the value's power-of-ten bound
        (:func:`_decade`), which may lie above a tolerance that is not
        itself a power of ten."""
        value = float(value)
        self.records.append(CheckRecord(name, anchor, _decade(value), float(tolerance), "max",
                                        value <= tolerance))

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "config": self.config,
            "records": [asdict(r) for r in self.records],
            "aborted": self.aborted,
            "passed": self.passed,
        }
        return json.dumps(_strict_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _strict_json(obj):
    """obj with each non-finite float written as the string of its repr
    ("nan", "inf", "-inf"): the bare NaN and Infinity tokens are not JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def _decade(value: float) -> float:
    """A roundoff-level record's value as a bound: the next power of ten at
    or above it.  The last bits of such a value depend on whether numpy
    evaluates an expression as an array (with FMA) or as scalars, and a
    bound does not show them.  No value is lowered; zero, nan and inf are
    returned unchanged."""
    if not (math.isfinite(value) and value > 0):
        return value
    k = math.ceil(math.log10(value))
    while float(f"1e{k - 1}") >= value:
        k -= 1
    while float(f"1e{k}") < value:
        k += 1
    return float(f"1e{k}")


CONFIG_KEYS = ("mode", "seed", "tolerance_scale", "params")


@dataclass
class RunConfig:
    mode: str
    seed: int = 0
    tolerance_scale: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"invalid mode {self.mode!r}; choose one of {', '.join(MODES)}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        # a misspelt or removed key would otherwise run silently on its default
        unknown = [key for key in self.params if key not in PARAMS[self.mode]]
        if unknown:
            raise ConfigError(f"unknown params {', '.join(map(repr, unknown))} for mode "
                              f"{self.mode}; it reads {', '.join(PARAMS[self.mode])}")
        # an infinite scale would pass every check, a negative one fail them all
        scale = self.tolerance_scale
        if not (isinstance(scale, (int, float)) and not isinstance(scale, bool)
                and math.isfinite(scale) and scale > 0):
            raise ConfigError(f"tolerance_scale must be finite and positive (got {scale!r})")
        self.tolerance_scale = float(scale)
        # numpy's generators take only non-negative integer seeds
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer (got {self.seed!r})")

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict) or "mode" not in raw:
            raise ConfigError("config must be an object with a 'mode' key")
        unknown = [key for key in raw if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"unknown config keys {', '.join(map(repr, unknown))}; "
                              f"a config reads {', '.join(CONFIG_KEYS)}")
        return RunConfig(raw["mode"], raw.get("seed", 0), raw.get("tolerance_scale", 1.0),
                         raw.get("params", {}))

    def echo(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "tolerance_scale": self.tolerance_scale,
            "params": self.params,
        }


def _integer(key: str, value, least: int, most: float = math.inf) -> int:
    """A count or index parameter, an integer in [least, most]."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and float(value).is_integer() and least <= value <= most):
        span = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ConfigError(f"{key} must be an integer {span}; got {value!r}")
    return int(value)


def _count(p: dict, key: str, default: int, least: int = 1, most: float = math.inf) -> int:
    return _integer(key, p.get(key, default), least, most)


def _number(key: str, value, kind=float):
    """A finite real parameter, or a complex one with ``kind=complex`` (given
    as a number or a string such as "0.1+0.2j")."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError):
        number = None
    if number is None or not cmath.isfinite(number):
        kind_name = "real" if kind is float else "complex"
        raise ConfigError(f"{key} must be a finite {kind_name} number; got {value!r}")
    return number


def _numbers(p: dict, key: str, default: list, kind=float, least: int = 0) -> list:
    """A list parameter of at least ``least`` numbers, each read by :func:`_number`."""
    value = p.get(key, default)
    if not (isinstance(value, list) and len(value) >= least):
        count = f"at least {least} " if least else ""
        raise ConfigError(f"{key} must be a list of {count}numbers; got {value!r}")
    return [_number(key, x, kind) for x in value]


def _half_length(p: dict) -> float:
    """L, the half-length of a periodic grid: a finite positive number."""
    L = _number("L", p.get("L", 1.0))
    if L <= 0:
        raise ConfigError(f"L must be positive; got {L!r}")
    return L


def _sizes(p: dict, default: list[int], least: int) -> list[int]:
    """The chain sizes of a charge battery: a non-empty list of integers."""
    sizes = p.get("sizes", default)
    if not (isinstance(sizes, list) and sizes):
        raise ConfigError(f"sizes must be a non-empty list of integers; got {sizes!r}")
    return [_integer("sizes", n, least) for n in sizes]


def _complex_columns(label: str) -> list[str]:
    return [f"{label}_re", f"{label}_im"]


def write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV file of plain column names and rows of floats, each written as
    its repr: the bytes of ``csv.writer``, CRLF line ends included, without
    its per-field dispatch."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _time_params(p: dict, dt: float, t_end: float, coarse=lambda dt: dt):
    """(dt, coarse step, t_end) from the params; ``coarse(dt)`` is the
    largest step the mode runs at.  Every step must fit in t_end a whole
    number of times, so that every run of the mode ends at t_end."""
    dt, t_end = _number("dt", p.get("dt", dt)), _number("t_end", p.get("t_end", t_end))
    dt_coarse = coarse(dt)
    for step in (dt, dt_coarse):
        try:
            count_steps(step, t_end)
        except ValueError as err:
            raise ConfigError(f"{err}, in a run of the mode") from err
    return dt, dt_coarse, t_end


def _series_rows(times, columns, drift):
    """Rows of t, then the real and imaginary part of each column, then the
    drift, as Python floats."""
    parts = [times] + [f(col) for col in columns for f in (np.real, np.imag)] + [drift]
    return np.column_stack(parts).tolist()


# -- mode handlers ---------------------------------------------------------------


def _spectral_pair(rng):
    """Random (lambda, mu) kept clear of the r-matrix pole: |sinh(lambda - mu)| > 0.15."""
    while True:
        lam = complex(rng.normal(), rng.normal())
        mu = complex(rng.normal(), rng.normal())
        if abs(np.sinh(lam - mu)) > 0.15:
            return lam, mu


def _mode_verify_charges(cfg: RunConfig, report: Report, outdir: Path):
    rng = np.random.default_rng(cfg.seed)
    samples = _count(cfg.params, "samples", 100)
    # the charge formulas assume N >= 2
    sizes = _sizes(cfg.params, [2, 3, 4, 5, 6], least=2)
    worst_c1 = worst_c2 = worst_c0 = 0.0
    per = max(1, samples // len(sizes))
    for n in sizes:
        for _ in range(per):
            s = lat.random_state(n, rng)
            _, _, c2 = lat.charges_closed_form(s)
            _, cs = lat.charges_from_trace(s)
            prod = np.prod(s.v)
            worst_c0 = nan_max(worst_c0, abs(np.exp(cs[0]) - prod) / abs(prod))
            worst_c1 = nan_max(worst_c1, abs(cs[1]) / max(1.0, abs(cs[0])))
            worst_c2 = nan_max(worst_c2, abs(cs[2] - c2) / max(1.0, abs(c2)))
    tol = 1e-12 * cfg.tolerance_scale
    report.add_roundoff("charge-order1-vanishes", "u^-1 coefficient of log tr T", worst_c1, tol)
    report.add_roundoff("charge-order2-closed-form", "u^-2 coefficient vs hopping sum",
                        worst_c2, tol)
    report.add_roundoff("charge-order0-product", "exp(c0) vs product of v_j", worst_c0, tol)


def _mode_defect_charges(cfg: RunConfig, report: Report, outdir: Path):
    rng = np.random.default_rng(cfg.seed)
    samples = _count(cfg.params, "samples", 100)
    # the deformed closed form needs both neighbours of the defect: N >= 3
    sizes = _sizes(cfg.params, [3, 4, 5, 6], least=3)
    worst_c0 = worst_c1 = worst_c2 = 0.0
    per = max(1, samples // len(sizes))
    for n in sizes:
        for _ in range(per):
            s = lat.random_state(n, rng)
            d = ld.random_defect(int(rng.integers(1, n + 1)), rng)
            c0, c2 = ld.defect_charges(s, d)
            _, cs = ld.defect_charges_from_trace(s, d)
            worst_c0 = nan_max(worst_c0, abs(np.exp(cs[0]) - np.exp(c0)) / abs(np.exp(c0)))
            worst_c1 = nan_max(worst_c1, abs(cs[1]) / max(1.0, abs(cs[0])))
            worst_c2 = nan_max(worst_c2, abs(cs[2] - c2) / max(1.0, abs(c2)))
    tol = 1e-12 * cfg.tolerance_scale
    report.add_roundoff("defect-charge-order1-vanishes",
                        "u^-1 coefficient with defect insertion", worst_c1, tol)
    report.add_roundoff("defect-charge-order2-closed-form",
                        "u^-2 coefficient vs deformed hopping sum", worst_c2, tol)
    report.add_roundoff("defect-charge-order0-product",
                        "exp(c0) vs product with defect factor", worst_c0, tol)

    # continuum defect: sewing discrimination and charge combinations
    glued = cdf.random_split_config(1.0, 0.2, rng, sewing=True)
    report.add_roundoff(
        "sewing-imposed-matching",
        "anti-diagonal first-order match at the defect with S1 = 0",
        cdf.sewing_mismatch(glued, 0.3),
        1e-12 * cfg.tolerance_scale,
    )
    broken = cdf.SplitFieldConfig(glued.left, glued.right, glued.z, glued.z_bar, 2.0 * glued.X)
    report.add(
        "sewing-negative-control",
        "order-one mismatch when the gluing condition is violated",
        cdf.sewing_mismatch(broken, 0.3),
        1e-3,
        criterion="min",
    )
    worst = 0.0
    for _ in range(5):
        c = cdf.random_split_config(1.0, 0.1, rng)
        i1 = cdf.defect_charge_order1(c)
        i1m = cdf.defect_charge_order1_mirror(c)
        p, h = cdf.defect_momentum_hamiltonian(c)
        worst = nan_max(worst, abs(p + 2.0 * (i1m - i1)), abs(h + 2.0 * (i1m + i1)))
    report.add_roundoff(
        "defect-charge-combinations",
        "momentum and energy as -2 times difference/sum of the first charges",
        worst,
        1e-12 * cfg.tolerance_scale,
    )


def _probe_pairs(cfg: RunConfig, rng, samples: int):
    """Random spectral pairs, preceded by any explicitly configured probes."""
    lams = _numbers(cfg.params, "lambda_probes", [], complex)
    mus = _numbers(cfg.params, "mu_probes", [], complex)
    if len(lams) != len(mus):
        raise ConfigError(f"lambda_probes and mu_probes must be of equal length "
                          f"(got {len(lams)} and {len(mus)})")
    for lam, mu in zip(lams, mus):
        try:
            r_matrix(lam - mu)
        except ValueError as err:
            raise ConfigError(f"lambda_probes must be off the r-matrix pole of mu_probes; "
                              f"{err} at (lambda, mu) = ({lam}, {mu})") from err
    yield from zip(lams, mus)
    for _ in range(samples):
        yield _spectral_pair(rng)


def _by_length(states):
    """(indices, stack) of each chain length among the drawn states: the
    draws of that length and their states as one stack, shortest first."""
    # grouped by a dict: np.unique raised a suite process's peak RSS by
    # about 1.3 MB
    groups = {}
    for k, s in enumerate(states):
        groups.setdefault(s.N, []).append(k)
    for n in sorted(groups):
        idx = np.array(groups[n])
        yield idx, lat.LatticeState.stack([states[k] for k in idx])


def _mode_verify_poisson(cfg: RunConfig, report: Report, outdir: Path):
    # the inputs are drawn sample by sample, then each identity is
    # evaluated once over the stack of draws (the bulk one per chain length)
    rng = np.random.default_rng(cfg.seed)
    samples = _count(cfg.params, "samples", 100)
    pairs, states, sites, defects, fields = [], [], [], [], []
    for pair in _probe_pairs(cfg, rng, samples):
        s = lat.random_state(int(rng.integers(2, 6)), rng)
        pairs.append(pair)
        states.append(s)
        sites.append(int(rng.integers(1, s.N + 1)))
        defects.append(ld.random_defect(2, rng))
        fields.append((complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())))
    lam, mu = np.array(pairs).T
    sites = np.array(sites)
    bulk = np.empty(len(states))
    for idx, stack in _by_length(states):
        bulk[idx] = lat.check_quadratic_algebra(stack, lam[idx], mu[idx], sites[idx])
    defect = ld.check_defect_algebra(ld.DefectSite.stack(defects), lam, mu)
    field = lv.check_linear_algebra(*np.array(fields).T, lam, mu)
    tol = 1e-10 * cfg.tolerance_scale
    # np.max of the draws' residuals is nan when one of them is
    report.add_roundoff("quadratic-exchange-bulk", "site-matrix exchange relation",
                        np.max(bulk), tol)
    report.add_roundoff("quadratic-exchange-defect", "defect-matrix exchange relation",
                        np.max(defect), tol)
    report.add_roundoff("linear-exchange-field", "spatial operator exchange relation",
                        np.max(field), tol)


def _mode_verify_zero_curvature(cfg: RunConfig, report: Report, outdir: Path):
    # drawn sample by sample, evaluated once per chain length over the stack
    # of draws; the defect velocities are computed draw by draw
    rng = np.random.default_rng(cfg.seed)
    samples = _count(cfg.params, "samples", 100)
    probes = _numbers(cfg.params, "mu_probes", [], complex) + [None] * samples
    states, mus, sites, chains, defects = [], [], [], [], []
    for mu_probe in probes:
        s = lat.random_state(int(rng.integers(2, 7)), rng)
        mus.append(mu_probe if mu_probe is not None else complex(
            0.5 * rng.normal(), 0.5 * rng.normal()
        ))
        states.append(s)
        sites.append(int(rng.integers(1, s.N + 1)))
        n = int(rng.integers(4, 8))
        chains.append(lat.random_state(n, rng))
        defects.append(ld.random_defect(int(rng.integers(2, n)), rng))
    mus, sites = np.array(mus, dtype=complex), np.array(sites)
    bulk, flow = np.empty(len(mus)), np.empty(len(mus))
    for idx, stack in _by_length(states):
        bulk[idx] = lat.zero_curvature_residual(stack, sites[idx], mus[idx])
        d = lat.bulk_eom(stack)
        bf = lat.bracket_flow(stack)
        flow[idx] = np.max(np.abs([bf.a - d.a, bf.a_bar - d.a_bar, bf.v - d.v]), axis=(0, 2))
    defect = {k: np.empty(len(mus)) for k in ("left", "defect", "right")}
    for idx, stack in _by_length(chains):
        res = ld.defect_zero_curvature_residuals(
            stack, ld.DefectSite.stack([defects[k] for k in idx]), mus[idx])
        for k, v in res.items():
            defect[k][idx] = v
    # np.max of the draws' residuals is nan when one of them is
    report.add_roundoff("zero-curvature-bulk", "site update vs time-Lax commutator",
                        np.max(bulk), 1e-10 * cfg.tolerance_scale)
    for k in ("left", "defect", "right"):
        report.add_roundoff(
            f"zero-curvature-defect-{k}",
            f"deformed stencil at the {k} position",
            np.max(defect[k]),
            1e-10 * cfg.tolerance_scale,
        )
    report.add_roundoff("hamiltonian-flow-consistency", "equations of motion vs bracket flow",
                        np.max(flow), 1e-12 * cfg.tolerance_scale)


# The lattice modes' criteria.  A candidate is usable when its fine and
# coarse (2 dt) runs both complete and the fine drift sits in DRIFT_WINDOW,
# where the step error is both above roundoff accumulation and still in the
# asymptotic regime of the scheme.  Halving the step cuts a fourth-order
# drift by 16; the upper band edge leaves slack for pre-asymptotic
# contamination on livelier seeded configurations, and the acceptance
# battery pins the tight band at the canonical configuration.
DRIFT_WINDOW = (1e-10, 5e-3)
RATIO_BAND = (12.0, 40.0)  # order-2 charge drift, coarse over fine
TRACE_RATIO_MIN = 10.0  # monodromy trace drift, coarse over fine
CANDIDATE_ATTEMPTS = 20


def _mode_lattice_sim(cfg: RunConfig, report: Report, outdir: Path, with_defect=False):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params
    # a defect needs an interior site, 2 <= defect_site <= N - 1
    n = _count(p, "N", 8, least=3 if with_defect else 2)
    dt, _, t_end = _time_params(p, 5e-3, 5.0, lambda dt: 2 * dt)
    # the complex flow is not globally bounded; keep drawing seeded
    # candidates until one stays regular over the full window
    amplitude = _number("amplitude", p.get("amplitude", 0.15 if with_defect else 0.12))
    probes = tuple(_numbers(p, "probes", [2.0, 3.0], least=1))
    site = _count(p, "defect_site", max(2, n // 2), least=2, most=n - 1) if with_defect else None

    def draw():
        """One candidate: its runs at dt and, as ``.coarse``, at 2 dt."""
        s = lat.random_state(n, rng, amplitude=amplitude)
        if not with_defect:
            return lambda: lat.integrate(s, dt, t_end, probes, with_coarse=True)
        d = ld.DefectSite(
            site,
            _number("theta", p.get("theta", 0.1), complex),
            0.1 * amplitude * complex(rng.normal(), rng.normal()),
            0.1 * amplitude * complex(rng.normal(), rng.normal()),
            np.exp(0.2 * complex(rng.normal(), rng.normal())),
        )
        return lambda: ld.integrate_with_defect(s, d, dt, t_end, probes, with_coarse=True)

    low, high = DRIFT_WINDOW
    fine = None
    fates = []  # each candidate's fate, written to candidates.json
    for _ in range(CANDIDATE_ATTEMPTS):
        runner = draw()
        try:
            cand = runner()
        except Aborted as err:
            fates.append({"verdict": "aborted", **asdict(err.record), "record": str(err.record)})
            continue
        d_fine, d_coarse = cand.drift("2"), cand.coarse.drift("2")
        # the coarse bound only rejects runs that left the smooth regime
        # entirely (near-singular excursions), not ordinary step error
        if d_fine < low:
            verdict = "below window"
        elif d_fine <= high and np.isfinite(d_coarse) and d_coarse <= 100.0 * high:
            verdict = "accepted"
        else:
            verdict = "above window"
        fates.append({"verdict": verdict, "fine_drift": d_fine, "coarse_drift": d_coarse})
        if verdict == "accepted":
            fine, coarse = cand, cand.coarse
            break
    (outdir / "candidates.json").write_text(
        json.dumps(_strict_json({"candidates": fates}), indent=2, allow_nan=False) + "\n")
    if fine is None:
        aborted, below, above = (sum(f["verdict"] == v for f in fates)
                                 for v in ("aborted", "below window", "above window"))
        report.aborted = True
        report.add("singular-trajectory",
                   f"no regular configuration found at these parameters: of "
                   f"{CANDIDATE_ATTEMPTS} candidates, {aborted} aborted, {below} had a fine "
                   f"drift below [{low:g}, {high:g}] and {above} one above it or a coarse "
                   f"drift that is not finite or above {100.0 * high:g}", 1.0, 0.0)
        return
    label = "defect" if with_defect else "bulk"
    ratio = d_coarse / max(d_fine, 1e-300)
    report.add(
        f"{label}-charge-drift-ratio",
        "order-2 charge drift ratio under halved step (fourth-order band)",
        ratio,
        RATIO_BAND[0],
        criterion="min",
    )
    report.add(
        f"{label}-charge-drift-ratio-upper",
        "same ratio against the upper band edge",
        RATIO_BAND[1] - ratio,
        0.0,
        criterion="min",
    )
    tr_ratio = coarse.trace_drift(probes[0]) / max(fine.trace_drift(probes[0]), 1e-300)
    report.add(
        f"{label}-trace-drift-ratio",
        "monodromy trace drift tracks the charge drift order",
        tr_ratio,
        TRACE_RATIO_MIN,
        criterion="min",
    )
    header = ["t", "c0_re", "c0_im", "c2_re", "c2_im"]
    cols = [fine.charges0, fine.charges2]
    for u in probes:
        header.extend(_complex_columns(f"trace_u{u:g}"))
        cols.append(fine.traces[u])
    header.append("c2_drift")
    rows = _series_rows(fine.times, cols, np.abs(fine.charges2 - fine.charges2[0]))
    write_csv(outdir / "series.csv", header, rows)


def _mode_liouville_evolve(cfg: RunConfig, report: Report, outdir: Path):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params
    n = _count(p, "points", 64, least=3)
    L = _half_length(p)
    dt, dt_coarse, t_end = _time_params(p, 2e-3, 0.5, lambda dt: 2 * dt)
    amplitude = _number("amplitude", p.get("amplitude", 0.15))
    c = lv.random_config(L, n, rng, amplitude=amplitude)
    fine = lv.evolve(c, dt, t_end)
    coarse = lv.evolve(c, dt_coarse, t_end)
    scale = max(1.0, abs(fine.hamiltonians[0]))
    report.add("energy-drift", "discrete energy conservation along the flow",
               fine.drift("hamiltonian") / scale, 1e-5 * cfg.tolerance_scale)
    ratio = coarse.drift("hamiltonian") / max(fine.drift("hamiltonian"), 1e-300)
    report.add("energy-drift-ratio", "fourth-order step scaling of the energy drift",
               ratio, 10.0, criterion="min")
    # momentum and first-charge drifts carry the spatial-scheme floor, so
    # these are sanity bounds rather than step-scaling checks
    report.add("momentum-drift", "momentum conservation up to the grid floor",
               fine.drift("momentum") / scale, 1e-2 * cfg.tolerance_scale)
    report.add("first-charge-drift", "first charge conservation up to the grid floor",
               fine.drift("order1") / scale, 1e-2 * cfg.tolerance_scale)
    header = ["t", "H_re", "H_im", "P_re", "P_im", "I1_re", "I1_im", "H_drift"]
    cols = [fine.hamiltonians, fine.momenta, fine.first_charges]
    rows = _series_rows(fine.times, cols, np.abs(fine.hamiltonians - fine.hamiltonians[0]))
    write_csv(outdir / "series.csv", header, rows)


def _mode_monodromy_check(cfg: RunConfig, report: Report, outdir: Path):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params
    n = _count(p, "points", 64, least=3)
    L = _half_length(p)
    count = _count(p, "configs", 10)
    amplitude = _number("amplitude", p.get("amplitude", 0.2))
    zero = lv.FieldConfig.zero(L, n)
    ch = lv.charges(zero)
    pt, ht = lv.dual_charges(zero)
    tol = 1e-13 * cfg.tolerance_scale
    report.add("constant-charge1", "first charge of the vacuum equals -L",
               abs(ch.order1 + L) / L, tol)
    report.add("constant-energy", "vacuum energy equals 4L",
               abs(ch.hamiltonian - 4 * L) / (4 * L), tol)
    report.add("constant-momentum", "vacuum momentum vanishes", abs(ch.momentum), tol)
    report.add("constant-dual-energy", "time-like vacuum energy equals -4L",
               abs(ht + 4 * L) / (4 * L), tol)
    report.add("dual-momentum-identity", "time-like momentum equals the space-like one",
               abs(pt - ch.momentum), tol)
    worst = 0.0
    # a config whose densities or monodromy leave double range ends the mode
    # as a blow-up (run's "overflow:" record) that names the config
    for k in range(count):
        c = lv.random_config(L, n, rng, amplitude=amplitude)
        try:
            i1 = lv.charges(c).order1
            fit = lv.fit_first_charge(c)
        except FloatingPointError as err:
            raise OverflowError(f"{err} at config {k + 1} of {count}") from err
        worst = nan_max(worst, abs(fit - i1) / abs(i1))
    report.add("monodromy-fit", "first charge from the small-u trace fit",
               worst, 0.01 * cfg.tolerance_scale)


def _mode_bt_evolve(cfg: RunConfig, report: Report, outdir: Path):
    p = cfg.params
    theta = _number("theta", p.get("theta", 0.2), complex)
    dt, _, t_end = _time_params(p, 2.5e-3, 0.4)
    # with unit characteristic speed and no boundary conditions, the checks
    # read only the causal interior |x| <= half - t, which is gone at t = half
    half = 0.9
    if t_end >= half:
        raise ConfigError(f"need t_end < {half:g}, the causal horizon of the grid "
                          f"x in [-{half:g}, {half:g}] (t_end = {t_end:g})")
    nx = _count(p, "points", 65, least=3)
    offset = _number("seed_offset", p.get("seed_offset", 0.15), complex)
    y_seed = _number("y_seed", p.get("y_seed", 0.02), complex)
    z_seed = _number("z_seed", p.get("z_seed", 0.01), complex)
    sol = exact.periodic_solution_for_length(_half_length(p))

    def run(n, step):
        x = np.linspace(-half, half, n)
        return bt.bt_evolve(
            sol, x, theta, step, t_end,
            phi_tilde_seed=sol.phi(x[0], 0.0) + offset, y_seed=y_seed, z_seed=z_seed,
        )

    t1 = run(nx, dt)
    t2 = run(2 * nx - 1, dt / 2)
    r_ratio = t1.pde_residual() / max(t2.pde_residual(), 1e-300)
    x_ratio = t1.x_relation_error(sol) / max(t2.x_relation_error(sol), 1e-300)
    report.add("transform-image-solves-field-equation",
               "field-equation residual halves at second order", r_ratio, 3.5,
               criterion="min")
    report.add("entry-relation-maintained",
               "X entry tracks the half-difference exponential", x_ratio, 3.5,
               criterion="min")


def _mode_hetero_bt(cfg: RunConfig, report: Report, outdir: Path):
    p = cfg.params
    c = _number("c", p.get("c", 0.35), complex)
    theta = _number("Theta", p.get("Theta", 0.15), complex)
    try:
        params = bt.HeteroParams(c, theta)
    except ValueError as err:
        raise ConfigError(f"c must be nonzero: {err}") from err
    nz, nb = _count(p, "nz", 49, least=3), _count(p, "nzbar", 41, least=3)

    def gen(kz, kb):
        z = np.linspace(0.0, 0.6, kz)
        zbar = np.linspace(0.0, 0.5, kb)
        return bt.hetero_bt_generate(
            lambda w: 0.2 * np.sin(w), lambda w: 0.15 * np.cos(w), params, z, zbar
        )

    pt1, phi1 = gen(nz, nb)
    pt2, phi2 = gen(2 * nz - 1, 2 * nb - 1)
    ratio = bt.modified_equation_residual(pt1, params.c) / max(
        bt.modified_equation_residual(pt2, params.c), 1e-300
    )
    report.add("generated-field-equation", "modified field equation residual refines",
               ratio, 3.5, criterion="min")

    z = np.linspace(0.0, 0.6, 65)
    zbar = np.linspace(0.0, 0.5, 57)
    pt0, _ = bt.hetero_bt_generate(lambda w: 0.0 * w, lambda w: 0.0 * w, params, z, zbar)
    closed = bt.free_field_closed_form(params, z, zbar, z[0], zbar[0])
    report.add("vanishing-free-field-closed-form",
               "generated field matches the separable solution",
               float(np.max(np.abs(pt0.values - closed))), 1e-8 * cfg.tolerance_scale)

    winner, scores = bt.select_hetero_variant(pt1, phi1, params)
    res_pair = scores["difference-imag"]  # interface_residual(phi1, pt1, params, 0.3)
    shuffled = bt.LightConeField(pt1.z, pt1.zbar, pt1.values[::-1].copy())
    res_non = bt.interface_residual(phi1, shuffled, params, 0.3)
    report.add("interface-discrimination",
               "intertwining residual separates pairs from non-pairs",
               res_non / max(res_pair, 1e-300), 100.0, criterion="min")

    runner_up = min(v for k, v in scores.items() if k != winner)
    report.add(
        "darboux-variant-selection",
        f"entry variant scan selects {winner} by residual margin",
        scores[winner] / runner_up,
        0.01,
    )


_HANDLERS = {
    "verify-charges": _mode_verify_charges,
    "defect-charges": _mode_defect_charges,
    "verify-poisson": _mode_verify_poisson,
    "verify-zero-curvature": _mode_verify_zero_curvature,
    "lattice-sim": lambda c, r, o: _mode_lattice_sim(c, r, o, with_defect=False),
    "lattice-defect-sim": lambda c, r, o: _mode_lattice_sim(c, r, o, with_defect=True),
    "liouville-evolve": _mode_liouville_evolve,
    "monodromy-check": _mode_monodromy_check,
    "bt-evolve": _mode_bt_evolve,
    "hetero-bt": _mode_hetero_bt,
}


def run(config: RunConfig, outdir: str | Path = ".") -> Report:
    """Dispatch one mode; writes report.json, timing.json (elapsed_s) and series.csv for sims.

    A trajectory that aborts in any mode ends the mode with an aborted
    report and a failed ``blow-up`` record whose anchor is the abort record,
    e.g. ``non-finite at RK stage 3 of step 1 (t = 0.0025), phi[17]``.  An
    OverflowError (a monodromy or Laurent product leaving double range) ends
    it the same way, with the anchor ``overflow: <message>``.  The mode runs
    with numpy overflow, division by zero and invalid operations raised, so
    one outside a march ends it the same way too, with the anchor
    ``floating-point: <numpy message>``; a march routes its own to its guard.
    Raises ConfigError on invalid mode parameters.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = Report(config.mode, config.echo())
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _HANDLERS[config.mode](config, report, outdir)
    except Aborted as err:
        report.aborted = True
        report.add("blow-up", str(err.record), 1.0, 0.0)
    except OverflowError as err:
        report.aborted = True
        report.add("blow-up", f"overflow: {err}", 1.0, 0.0)
    except FloatingPointError as err:
        report.aborted = True
        report.add("blow-up", f"floating-point: {err}", 1.0, 0.0)
    report.elapsed = time.perf_counter() - start
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "timing.json").write_text(json.dumps({"elapsed_s": report.elapsed}, indent=2) + "\n")
    return report


def suite(outdir: str | Path = ".", seed: int = 0, tolerance_scale: float = 1.0) -> Report:
    """Full acceptance battery with default parameters.

    Aggregates every mode's records, adds the determinism self-check (the
    battery's verify-charges report and one re-run of its config, written to
    determinism/, must serialize identically), and writes suite_report.json,
    timing.json and per-mode artifacts in subdirectories.  timing.json holds
    the elapsed seconds of the battery and of each mode run, and under
    ``"steps"`` the RK4 steps each mode run took (``stepping.step_tally``).
    """
    configs = [RunConfig(mode, seed=seed, tolerance_scale=tolerance_scale) for mode in MODES]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    overall = Report("suite", {"seed": seed, "tolerance_scale": tolerance_scale})
    start, modes, steps, reports = time.perf_counter(), {}, {}, {}
    for cfg in configs:
        with step_tally() as tally:
            sub = reports[cfg.mode] = run(cfg, outdir / cfg.mode)
        modes[cfg.mode], steps[cfg.mode] = sub.elapsed, tally.steps
        for rec in sub.records:
            overall.records.append(
                CheckRecord(f"{cfg.mode}/{rec.name}", rec.anchor, rec.value,
                            rec.tolerance, rec.criterion, rec.passed)
            )
        if sub.aborted:
            overall.aborted = True
        print(f"[{'pass' if sub.passed else 'FAIL'}] {cfg.mode}", file=sys.stderr)

    charges = next(cfg for cfg in configs if cfg.mode == "verify-charges")
    with step_tally() as tally:
        again = run(charges, outdir / "determinism")
    modes["determinism"], steps["determinism"] = again.elapsed, tally.steps
    overall.add(
        "determinism",
        "identical seed gives byte-identical reports",
        0.0 if again.to_json() == reports[charges.mode].to_json() else 1.0,
        0.0,
    )
    overall.elapsed = time.perf_counter() - start
    (outdir / "suite_report.json").write_text(overall.to_json())
    timing = {"elapsed_s": overall.elapsed, "modes": modes, "steps": steps}
    (outdir / "timing.json").write_text(json.dumps(timing, indent=2) + "\n")
    return overall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="laxkit",
        description="verification harness for the deformed-oscillator chain and "
        "the Liouville field with integrable defects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one mode from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--tolerance-scale", type=float, default=None)
    p_run.add_argument("--out", default=".", help="output directory")

    p_suite = sub.add_parser("suite", help="run the full acceptance battery")
    p_suite.add_argument("--out", default="suite-out")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--tolerance-scale", type=float, default=1.0)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            try:
                raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ConfigError(err) from err
            if not isinstance(raw, dict):
                raise ConfigError("config must be an object with a 'mode' key")
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.tolerance_scale is not None:
                raw["tolerance_scale"] = args.tolerance_scale
            report = run(RunConfig.from_dict(raw), args.out)
        else:
            report = suite(args.out, seed=args.seed, tolerance_scale=args.tolerance_scale)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    for rec in report.records:
        status = "pass" if rec.passed else "FAIL"
        op = "<=" if rec.criterion == "max" else ">="
        print(f"[{status}] {rec.name}: {rec.value:.3e} {op} {rec.tolerance:g}")
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    print("overall:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
