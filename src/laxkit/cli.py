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
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
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

# the largest count and the most steps of a march a config may ask for: the
# battery's largest run takes 1000 steps, and count_steps can tell a whole
# number of steps only below 2^53
_MAX_COUNT = 10**7
# the most entries an array of a mode may hold (BOUNDS), which bounds the
# product of its counts as _MAX_COUNT bounds each
_MAX_ENTRIES = 10**7

# the entries a chain of a charge battery takes in the stacks beside its 3 N
# fields: its three charges, and the five fields of its defect
_CHAIN_EXTRA = {"verify-charges": 3, "defect-charges": 8}
# a charge battery draws and traces each size in chunks of at most this many
# stacked entries (3 N + _CHAIN_EXTRA a chain of N sites), one chain at
# least: 1820 chains of 2 sites, 89 of 60.  By peak RSS at 10^5 chains of 2
# or 3 sites on a 2-CPU host, 2^12 to 2^17 entries take 37 to 65 MB in the
# same time, and a run at the default params peaks at 36.5 MB
_CHUNK_ENTRIES = 2**14
# the fewest chains of a chunk traced as one stack: by in-process min-of-k
# timings on a 2-CPU host, a stack of k chains costs more than k single
# traces below k = 3 or 4 at N <= 12, 5 at N = 40 and 6 at N = 100 and 200,
# and from 6 chains on the stack is 1.2-2 times faster at every N measured
_STACK_MIN_DRAWS = 6

# the kinds of param, read by _read_value
COUNT, REAL, COMPLEX, TIME = "count", "real", "complex", "time"
REALS, PROBES, SIZES = "real list", "spectral-probe list", "sizes"


@dataclass(frozen=True)
class Param:
    """A param of a mode: its kind, its default (None: worked out by
    :func:`_read_params`) and the range of a count or of each of the sizes."""
    kind: str
    default: object
    least: int = 1
    most: int = _MAX_COUNT


# the params each mode reads, modes in battery order; any other key is a
# config error.  A chain has at least 2 sites (the charge formulas), 3 with
# a defect, which needs both neighbours: 2 <= defect_site <= N - 1
PARAMS = {
    "lattice-sim": {"N": Param(COUNT, 8, 2), "dt": Param(TIME, 5e-3), "t_end": Param(TIME, 5.0),
                    "amplitude": Param(REAL, 0.12), "probes": Param(REALS, [2.0, 3.0])},
    "lattice-defect-sim": {
        "N": Param(COUNT, 8, 3), "dt": Param(TIME, 5e-3), "t_end": Param(TIME, 5.0),
        "amplitude": Param(REAL, 0.15), "probes": Param(REALS, [2.0, 3.0]),
        "defect_site": Param(COUNT, None, 2, _MAX_COUNT - 1), "theta": Param(COMPLEX, 0.1)},
    "verify-poisson": {"samples": Param(COUNT, 100), "lambda_probes": Param(PROBES, []),
                       "mu_probes": Param(PROBES, [])},
    "verify-zero-curvature": {"samples": Param(COUNT, 100), "mu_probes": Param(PROBES, [])},
    "verify-charges": {"samples": Param(COUNT, 100), "sizes": Param(SIZES, [2, 3, 4, 5, 6], 2)},
    "liouville-evolve": {"points": Param(COUNT, 64, 3), "L": Param(REAL, 1.0),
                         "dt": Param(TIME, 2e-3), "t_end": Param(TIME, 0.5),
                         "amplitude": Param(REAL, 0.15)},
    "monodromy-check": {"points": Param(COUNT, 64, 3), "L": Param(REAL, 1.0),
                        "configs": Param(COUNT, 10), "amplitude": Param(REAL, 0.2)},
    "bt-evolve": {"theta": Param(COMPLEX, 0.2), "dt": Param(TIME, 2.5e-3),
                  "t_end": Param(TIME, 0.4), "points": Param(COUNT, 65, 3),
                  "seed_offset": Param(COMPLEX, 0.15), "y_seed": Param(COMPLEX, 0.02),
                  "z_seed": Param(COMPLEX, 0.01), "L": Param(REAL, 1.0)},
    "hetero-bt": {"c": Param(COMPLEX, 0.35), "Theta": Param(COMPLEX, 0.15),
                  "nz": Param(COUNT, 49, 3), "nzbar": Param(COUNT, 41, 3)},
    "defect-charges": {"samples": Param(COUNT, 100), "sizes": Param(SIZES, [3, 4, 5, 6], 3)},
}
MODES = tuple(PARAMS)


def _kept(p: dict, key: str, width: str, entries: int, finer=False) -> tuple[str, str, int]:
    """A march's bound: the states its finest run keeps, at dt, or at dt / 2
    when ``finer``, each ``entries`` wide (``width`` in words)."""
    kept = count_steps(p["dt"], p["t_end"]) * (2 if finer else 1) + 1
    run = "dt / 2" if finer else "dt"
    return key, f"the {kept} states of width {width} the run at {run} keeps", kept * entries


def _chains(p: dict, mode: str) -> tuple[str, str, int]:
    """A charge battery's bound: for each chain of N sites it draws, the N^2
    coefficient products of its trace and the 3 N + _CHAIN_EXTRA entries it
    and its charges take in the stacks.  It names sizes when one chain of
    each size already passes _MAX_ENTRIES, samples otherwise."""
    extra = _CHAIN_EXTRA[mode]
    per_chain = [n * n + 3 * n + extra for n in p["sizes"]]
    return ("sizes" if sum(per_chain) > _MAX_ENTRIES else "samples",
            f"the chains, N^2 trace products and 3 N + {extra} stacked entries for N sites,",
            sum(k * entries for k, entries in zip(_draws_per_size(p), per_chain)))


# each mode's largest allocation, from the read params p: the count a config
# error names, what the array holds and its entries, at most _MAX_ENTRIES;
# for a charge battery also the work of its traces.  By peak RSS and time at
# 10^5 draws on a 2-CPU host, a verify mode's draw takes 3.3 KB (poisson) or
# 4.0 KB (zero-curvature), so its largest run peaks near 2-2.5 GB; a charge
# battery holds one chunk of chains at a time (_CHUNK_ENTRIES, 40 MB), and a
# chain costs no more in a stack than alone, about 4 us N^2 for N sites, so
# its largest run ends within a minute
BOUNDS = {
    "lattice-sim": lambda p: _kept(p, "N", "3 N", 3 * p["N"]),
    "lattice-defect-sim": lambda p: _kept(p, "N", "3 N + 3", 3 * p["N"] + 3),
    "verify-poisson": lambda p: ("samples", "the 4 x 4 exchange matrices of the draws",
                                 16 * (p["samples"] + len(p["mu_probes"]))),
    "verify-zero-curvature": lambda p: ("samples", "the 2 x 2 bulk residual matrices of the draws",
                                        16 * (p["samples"] + len(p["mu_probes"]))),
    "verify-charges": lambda p: _chains(p, "verify-charges"),
    "liouville-evolve": lambda p: _kept(p, "points", "2 points", 2 * p["points"]),
    "monodromy-check": lambda p: ("points", f"the points x {lv.FIT_POINTS} Magnus cells of one "
                                  f"fit", p["points"] * lv.FIT_POINTS),
    "bt-evolve": lambda p: _kept(p, "points", "4 (2 points - 1)", 4 * (2 * p["points"] - 1), True),
    "hetero-bt": lambda p: (
        "nz" if p["nz"] >= p["nzbar"] else "nzbar",
        f"the finer grid of (2 nz - 1) x (2 nzbar - 1) points, nz = {p['nz']} and nzbar = "
        f"{p['nzbar']},", (2 * p["nz"] - 1) * (2 * p["nzbar"] - 1)),
    "defect-charges": lambda p: _chains(p, "defect-charges"),
}
# |Re p| of a spectral probe p: e^p and e^-p are finite and nonzero
_PROBE_BOUND = math.log(sys.float_info.max)
# bt-evolve marches x in [-_BT_HALF, _BT_HALF]: with unit characteristic speed and
# no boundary conditions, its checks read only the causal interior |x| <= _BT_HALF - t
_BT_HALF = 0.9


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
    # written to timing.json, never into the report: the run's seconds, and
    # the perf_counter reading at its start
    elapsed: float | None = None
    started: float | None = None

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
    """A run's config, checked when made; ``values`` holds its params as read."""
    mode: str
    seed: int = 0
    tolerance_scale: float = 1.0
    params: dict = field(default_factory=dict)
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"invalid mode {self.mode!r}; choose one of {', '.join(MODES)}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        self.values = _read_params(self.mode, self.params)
        # an infinite scale would pass every check, a negative one fail them all
        scale = self.tolerance_scale
        if not (isinstance(scale, (int, float)) and not isinstance(scale, bool)
                and 0 < scale <= sys.float_info.max):
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
        return RunConfig(**raw)  # CONFIG_KEYS are its fields, their defaults its defaults

    def echo(self) -> dict:
        return {key: getattr(self, key) for key in CONFIG_KEYS}


def _read_value(key: str, spec: Param, value):
    """``value`` of the param ``key`` as its kind reads it: a list kind as a
    list, a complex number also from a string such as "0.1+0.2j"."""
    kind = spec.kind
    if kind in (REALS, PROBES, SIZES):
        if not (isinstance(value, list) and (value or kind == PROBES)):
            raise ConfigError(f"{key} must be a {'' if kind == PROBES else 'non-empty '}list of "
                              f"{'integers' if kind == SIZES else 'numbers'}; got {value!r}")
        entry = replace(spec, kind={REALS: REAL, PROBES: COMPLEX, SIZES: COUNT}[kind])
        entries = [_read_value(key, entry, x) for x in value]
        for probe in entries if kind == PROBES else ():
            if abs(probe.real) > _PROBE_BOUND:
                raise ConfigError(f"{key} must be spectral points p with e^p and e^-p finite and "
                                  f"nonzero, |Re p| <= {_PROBE_BOUND:.6g}; got the probe {probe!r}")
        return entries
    if kind == COUNT:
        # an int is compared exactly: float() of one past double range raises
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (isinstance(value, int) or value.is_integer())
                and spec.least <= value <= spec.most):
            raise ConfigError(f"{key} must be an integer in [{spec.least}, {spec.most}]; "
                              f"got {value!r}")
        return int(value)
    try:
        number = None if isinstance(value, bool) else (complex if kind == COMPLEX else float)(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not cmath.isfinite(number):
        raise ConfigError(f"{key} must be a finite {'complex' if kind == COMPLEX else 'real'} "
                          f"number; got {value!r}")
    return number


def _read_params(mode: str, params: dict) -> dict:
    """``params``, defaults filled in, read as :data:`PARAMS` declares and held
    to the rules that tie params together; ConfigError names a param that fails."""
    table = PARAMS[mode]
    # a misspelt or removed key would otherwise run silently on its default
    unknown = [key for key in params if key not in table]
    if unknown:
        raise ConfigError(f"unknown params {', '.join(map(repr, unknown))} for mode "
                          f"{mode}; it reads {', '.join(table)}")
    p = {key: _read_value(key, spec, params[key] if key in params else spec.default)
         for key, spec in table.items() if key in params or spec.default is not None}
    if "defect_site" in table:
        n = p["N"]
        site = p.setdefault("defect_site", max(2, n // 2))
        if site > n - 1:
            raise ConfigError(f"defect_site must be an integer in [2, {n - 1}]; got {site!r}")
    if "sizes" in p and p["samples"] < len(p["sizes"]):
        # fewer chains than sizes would leave a size undrawn
        raise ConfigError(f"samples must be an integer in [{len(p['sizes'])}, {_MAX_COUNT}]; "
                          f"got {p['samples']!r}")
    if "lambda_probes" in p:
        lams, mus = p["lambda_probes"], p["mu_probes"]
        if len(lams) != len(mus):
            raise ConfigError(f"lambda_probes and mu_probes must be of equal length "
                              f"(got {len(lams)} and {len(mus)})")
        for lam, mu in zip(lams, mus):
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    r_matrix(lam - mu)
            except (ValueError, FloatingPointError) as err:
                raise ConfigError(f"lambda_probes must be off the r-matrix pole of mu_probes, "
                                  f"with sinh(lambda - mu) finite; {err} at (lambda, mu) = "
                                  f"({lam}, {mu})") from err
    if 0 in p.get("probes", ()):  # u = 0 is the pole of the site matrix
        raise ConfigError(f"probes must be nonzero numbers; got {p['probes']!r}")
    if p.get("c") == 0:
        raise ConfigError("c must be nonzero: a vanishing coupling makes the interface trivial")
    if p.get("L", 1.0) <= 0:
        raise ConfigError(f"L must be positive; got {p['L']!r}")
    if "dt" in p:
        dt, t_end = p["dt"], p["t_end"]
        if dt > 0 and t_end / dt > _MAX_COUNT:
            raise ConfigError(f"dt must be at least t_end / {_MAX_COUNT}, a march of at most "
                              f"{_MAX_COUNT} steps; got dt = {dt:g} and t_end = {t_end:g}")
        # every run of the mode must end at t_end: the lattice and Liouville
        # modes also run at 2 dt, and bt-evolve's run at dt / 2 fits where dt does
        for step in (dt,) if mode == "bt-evolve" else (dt, 2 * dt):
            try:
                count_steps(step, t_end)
            except ValueError as err:
                raise ConfigError(f"{err}, in a run of the mode") from err
    if mode == "bt-evolve" and p["t_end"] >= _BT_HALF:
        raise ConfigError(f"need t_end < {_BT_HALF:g}, the causal horizon of the grid "
                          f"x in [-{_BT_HALF:g}, {_BT_HALF:g}] (t_end = {p['t_end']:g})")
    key, what, entries = BOUNDS[mode](p)
    if entries > _MAX_ENTRIES:
        raise ConfigError(f"{key} must be small enough for {what} to fit in {_MAX_ENTRIES} "
                          f"entries; got {key} = {p[key]}, {entries} entries")
    return p


def _draws_per_size(p: dict) -> list[int]:
    """Chains drawn per size: ``samples`` in all, the first samples % len(sizes) one more."""
    per, extra = divmod(p["samples"], len(p["sizes"]))
    return [per + (i < extra) for i in range(len(p["sizes"]))]


def _make_outdir(outdir, what: str = "--out must name a directory; cannot make") -> Path:
    """outdir as a Path, made as a directory with its parents; ConfigError
    names it, after ``what``, when it cannot be made."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{what} {str(outdir)!r}: {err.strerror}") from err
    return outdir


def write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV file of plain column names and rows of floats, each written as
    its repr: the bytes of ``csv.writer``, CRLF line ends included, without
    its per-field dispatch."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _write_series(outdir: Path, times, columns: dict, drift_label: str, drift):
    """series.csv in outdir: t, then the real and imaginary part of each
    column (``<label>_re``, ``<label>_im``), then the drift."""
    header = ["t", *(f"{label}_{part}" for label in columns for part in ("re", "im")), drift_label]
    parts = [times] + [f(col) for col in columns.values() for f in (np.real, np.imag)] + [drift]
    write_csv(outdir / "series.csv", header, np.column_stack(parts).tolist())


# -- mode handlers ---------------------------------------------------------------


def _spectral_pair(rng):
    """Random (lambda, mu) kept clear of the r-matrix pole: |sinh(lambda - mu)| > 0.15."""
    while True:
        lam = complex(rng.normal(), rng.normal())
        mu = complex(rng.normal(), rng.normal())
        if abs(np.sinh(lam - mu)) > 0.15:
            return lam, mu


def _charge_battery(cfg: RunConfig, report: Report, rng, draw, trace, closed, records):
    """Record the worst errors of the trace charges of ``samples`` chains,
    nan when one is, under the (name, anchor) ``records`` in the order:
    order 1 against 0, order 2 against the closed form, both relative to
    the larger of 1 and the charge, then e^{c0} against the closed form's.
    ``draw(n, rng)`` draws the args of ``trace``, a chain of n sites first,
    each of a type with a ``stack`` classmethod.  Each size's chains are
    drawn in chunks of at most _CHUNK_ENTRIES stacked entries, one chain at
    least, and each chunk is traced (:func:`_trace_chunk`); ``closed``,
    given a chunk's args each as one stack, returns e^{c0} and c2 of the
    closed form over the chunk."""
    worst = (0.0, 0.0, 0.0)
    for n, count in zip(cfg.values["sizes"], _draws_per_size(cfg.values)):
        chunk = max(1, _CHUNK_ENTRIES // (3 * n + _CHAIN_EXTRA[cfg.mode]))
        for start in range(0, count, chunk):
            draws = [draw(n, rng) for _ in range(min(chunk, count - start))]
            stacks = [type(args[0]).stack(args) for args in zip(*draws)]
            c0, c1, c2 = _trace_chunk(trace, draws, stacks)
            exp_c0, closed_c2 = closed(*stacks)
            errors = (np.max(np.abs(c1) / np.fmax(1.0, np.abs(c0))),
                      np.max(np.abs(c2 - closed_c2) / np.fmax(1.0, np.abs(closed_c2))),
                      np.max(np.abs(np.exp(c0) - exp_c0) / np.abs(exp_c0)))
            worst = tuple(map(nan_max, worst, errors))
    for (name, anchor), value in zip(records, worst):
        report.add_roundoff(name, anchor, value, 1e-12 * cfg.tolerance_scale)


def _trace_chunk(trace, draws, stacks):
    """c0, c1 and c2 of each of the ``draws``, arrays over them: from one
    trace of their ``stacks`` from _STACK_MIN_DRAWS draws on, chain by chain
    below that.  When the stacked trace leaves double range (OverflowError
    or a numpy float error), the chunk is traced chain by chain too, which
    raises what the first such chain's own trace raises."""
    if len(draws) >= _STACK_MIN_DRAWS:
        try:
            return trace(*stacks)[1][:3]
        except (OverflowError, FloatingPointError):
            pass
    return np.array([trace(*args)[1][:3] for args in draws]).T


def _mode_verify_charges(cfg: RunConfig, report: Report, outdir: Path):
    _charge_battery(cfg, report, np.random.default_rng(cfg.seed),
                    lambda n, rng: (lat.random_state(n, rng),), lat.charges_from_trace,
                    lambda stack: (np.prod(stack.v, axis=-1), lat.charges_closed_form(stack)[2]),
                    [("charge-order1-vanishes", "u^-1 coefficient of log tr T"),
                     ("charge-order2-closed-form", "u^-2 coefficient vs hopping sum"),
                     ("charge-order0-product", "exp(c0) vs product of v_j")])


def _mode_defect_charges(cfg: RunConfig, report: Report, outdir: Path):
    def draw(n, rng):
        return lat.random_state(n, rng), ld.random_defect(int(rng.integers(1, n + 1)), rng)

    def closed(stack, defects):
        c0, c2 = ld.defect_charges(stack, defects)
        return np.exp(c0), c2

    rng = np.random.default_rng(cfg.seed)
    _charge_battery(cfg, report, rng, draw, ld.defect_charges_from_trace, closed,
                    [("defect-charge-order1-vanishes", "u^-1 coefficient with defect insertion"),
                     ("defect-charge-order2-closed-form",
                      "u^-2 coefficient vs deformed hopping sum"),
                     ("defect-charge-order0-product", "exp(c0) vs product with defect factor")])

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
    # the inputs are drawn sample by sample, the configured probe pairs
    # first, then each identity is evaluated once over the stack of draws
    # (the bulk one per chain length)
    rng = np.random.default_rng(cfg.seed)
    lams, mus = cfg.values["lambda_probes"], cfg.values["mu_probes"]
    drawn = (_spectral_pair(rng) for _ in range(cfg.values["samples"]))
    pairs, states, sites, defects, fields = [], [], [], [], []
    for pair in itertools.chain(zip(lams, mus), drawn):
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
    states, mus, sites, chains, defects = [], [], [], [], []
    for mu_probe in cfg.values["mu_probes"] + [None] * cfg.values["samples"]:
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
    p = cfg.values
    n, dt, t_end, amplitude = p["N"], p["dt"], p["t_end"], p["amplitude"]
    probes = tuple(p["probes"])

    # the complex flow is not globally bounded; keep drawing seeded
    # candidates until one stays regular over the full window
    def draw():
        """One candidate, marched at dt and, as ``.coarse``, at 2 dt."""
        s = lat.random_state(n, rng, amplitude=amplitude)
        if not with_defect:
            return lat.integrate(s, dt, t_end, probes, with_coarse=True)
        d = ld.DefectSite(
            p["defect_site"],
            p["theta"],
            0.1 * amplitude * complex(rng.normal(), rng.normal()),
            0.1 * amplitude * complex(rng.normal(), rng.normal()),
            np.exp(0.2 * complex(rng.normal(), rng.normal())),
        )
        return ld.integrate_with_defect(s, d, dt, t_end, probes, with_coarse=True)

    low, high = DRIFT_WINDOW
    fine = None
    fates = []  # each candidate's fate, written to candidates.json
    for _ in range(CANDIDATE_ATTEMPTS):
        try:
            cand = draw()
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
    # a probe far from |u| = 1 overflows the product of the site matrices
    # (u^N or u^-N) in the monitor, which runs after the march
    for u in probes:
        for run_name, traj in (("fine", fine), ("coarse", coarse)):
            finite = np.isfinite(traj.traces[u])
            if not finite.all():
                raise OverflowError(
                    f"tr T(u) at probe u = {u:g} is not finite from t = "
                    f"{traj.times[np.argmin(finite)]:g} in the {run_name} run")
    tr_ratio = coarse.trace_drift(probes[0]) / max(fine.trace_drift(probes[0]), 1e-300)
    report.add(
        f"{label}-trace-drift-ratio",
        "monodromy trace drift tracks the charge drift order",
        tr_ratio,
        TRACE_RATIO_MIN,
        criterion="min",
    )
    columns = {"c0": fine.charges0, "c2": fine.charges2,
               **{f"trace_u{u:g}": fine.traces[u] for u in probes}}
    _write_series(outdir, fine.times, columns, "c2_drift", np.abs(fine.charges2 - fine.charges2[0]))


def _mode_liouville_evolve(cfg: RunConfig, report: Report, outdir: Path):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.values
    dt, t_end = p["dt"], p["t_end"]
    c = lv.random_config(p["L"], p["points"], rng, amplitude=p["amplitude"])
    fine = lv.evolve(c, dt, t_end)
    coarse = lv.evolve(c, 2 * dt, t_end)
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
    columns = {"H": fine.hamiltonians, "P": fine.momenta, "I1": fine.first_charges}
    _write_series(outdir, fine.times, columns, "H_drift",
                  np.abs(fine.hamiltonians - fine.hamiltonians[0]))


def _mode_monodromy_check(cfg: RunConfig, report: Report, outdir: Path):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.values
    n, L, count, amplitude = p["points"], p["L"], p["configs"], p["amplitude"]
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
    p = cfg.values
    theta, dt, t_end, nx = p["theta"], p["dt"], p["t_end"], p["points"]
    offset, y_seed, z_seed = p["seed_offset"], p["y_seed"], p["z_seed"]
    sol = exact.periodic_solution_for_length(p["L"])

    def run(n, step):
        x = np.linspace(-_BT_HALF, _BT_HALF, n)
        return bt.bt_evolve(
            sol, x, theta, step, t_end,
            phi_tilde_seed=sol.phi(x[0], 0.0) + offset, y_seed=y_seed, z_seed=z_seed,
        )

    t1 = run(nx, dt)
    t2 = run(2 * nx - 1, dt / 2)
    r_ratio = t1.pde_residual() / max(t2.pde_residual(), 1e-300)
    x_ratio = t1.x_relation_error() / max(t2.x_relation_error(), 1e-300)
    report.add("transform-image-solves-field-equation",
               "field-equation residual halves at second order", r_ratio, 3.5,
               criterion="min")
    report.add("entry-relation-maintained",
               "X entry tracks the half-difference exponential", x_ratio, 3.5,
               criterion="min")


def _mode_hetero_bt(cfg: RunConfig, report: Report, outdir: Path):
    p = cfg.values
    params = bt.HeteroParams(p["c"], p["Theta"])
    nz, nb = p["nz"], p["nzbar"]

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
    report.add_roundoff("vanishing-free-field-closed-form",
                        "generated field matches the separable solution",
                        np.max(np.abs(pt0.values - closed)), 1e-8 * cfg.tolerance_scale)

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
    ``floating-point: <numpy message>``, or ``overflow: <numpy message> at
    mu_probes [...]`` when spectral probes are configured; a march routes its
    own to its guard.  outdir is made first, with its parents; ConfigError
    names it when it cannot be.  :class:`RunConfig` checks the config.
    """
    outdir = _make_outdir(outdir)
    report = Report(config.mode, config.echo())
    start = report.started = time.perf_counter()
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
        # the verify modes evaluate every draw at once; their spectral probes
        # are the draws that can leave double range
        probes = [f"{key} {value}" for key, value in config.values.items()
                  if PARAMS[config.mode][key].kind == PROBES and value]
        report.add("blow-up", f"overflow: {err} at {' and '.join(probes)}" if probes
                   else f"floating-point: {err}", 1.0, 0.0)
    report.elapsed = time.perf_counter() - start
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "timing.json").write_text(json.dumps({"elapsed_s": report.elapsed}, indent=2) + "\n")
    return report


# the order in which suite hands its runs to the worker pool, longest first
# (Graham's LPT rule, SIAM J. Appl. Math. 17 (1969) 416), so that no long run
# starts last on a busy worker: by in-process ms at seed 0 on a 2-CPU host
# (the battery pinned to one CPU, min of 5), bt-evolve 101,
# lattice-defect-sim 94, lattice-sim 83, liouville-evolve 26,
# verify-zero-curvature 12, defect-charges 10, monodromy-check 7, hetero-bt
# and verify-poisson 6.4 each, verify-charges 5.4 and determinism 5.2
POOL_ORDER = ("bt-evolve", "lattice-defect-sim", "lattice-sim", "liouville-evolve",
              "verify-zero-curvature", "defect-charges", "monodromy-check", "hetero-bt",
              "verify-poisson", "verify-charges", "determinism")

# the code of run: the pool runs only this module's own (see _workers)
_RUN_CODE = run.__code__


def _tally_run(config: RunConfig, outdir: Path):
    """:func:`run` in a :func:`~laxkit.stepping.step_tally` block: its
    report, the RK4 steps it took and the peak RSS (MB) of the process that
    ran it."""
    with step_tally() as tally:
        report = run(config, outdir)
    return report, tally.steps, _peak_rss_mb()


def _peak_rss_mb() -> float | None:
    """This process's peak RSS in MB; None without the ``resource`` module
    (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    # ru_maxrss is in bytes on macOS, in kB elsewhere
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 2.0 ** 10)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(runs: int) -> int:
    """Worker processes for ``runs`` suite runs: one per CPU, at most
    ``runs``; 0, to run them in process, on one CPU, without the ``fork``
    start method, or when :func:`run` is not this module's own (a tracer's
    wrapper records only in the process that calls it)."""
    workers = min(runs, _cpus())
    if workers < 2 or getattr(run, "__code__", None) is not _RUN_CODE:
        return 0
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 0


def suite(outdir: str | Path = ".", seed: int = 0, tolerance_scale: float = 1.0) -> Report:
    """Full acceptance battery with default parameters.

    Aggregates every mode's records, adds the determinism self-check (the
    battery's verify-charges report and one re-run of its config, written to
    determinism/, must serialize identically), and writes suite_report.json,
    timing.json and per-mode artifacts in subdirectories.  The runs go to
    one forked worker process per CPU this process may run on, in
    ``POOL_ORDER``, longest first; records, stderr lines and timing.json
    keep the ``MODES`` order.  They run in process on one CPU or without
    ``fork``.  timing.json holds the elapsed seconds of the battery and of
    each mode run (the runs overlap, so these may sum to more than the
    battery's), under ``"started_s"`` each run's start in seconds from the
    battery's, under ``"steps"`` the RK4 steps each mode run took
    (``stepping.step_tally``), under ``"workers"`` the worker processes (0
    in process) and under ``"peak_rss_mb"`` the largest peak RSS of the
    processes that ran modes.  No process is left running when it returns
    or raises.  ``outdir`` and every run's subdirectory are made before the
    first run starts; ConfigError names the one that cannot be made.
    """
    configs = [RunConfig(mode, seed=seed, tolerance_scale=tolerance_scale) for mode in MODES]
    charges = next(cfg for cfg in configs if cfg.mode == "verify-charges")
    runs = [(cfg.mode, cfg) for cfg in configs] + [("determinism", charges)]
    outdir = _make_outdir(outdir)
    for name, _ in runs:  # before any run starts, so that none can fail on its directory
        _make_outdir(outdir / name, "cannot make the run directory")
    overall = Report("suite", {"seed": seed, "tolerance_scale": tolerance_scale})
    start, modes, started, steps, reports, rss = time.perf_counter(), {}, {}, {}, {}, []
    workers, pool = _workers(len(runs)), None
    try:
        if workers:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            pending = {name: pool.submit(_tally_run, cfg, outdir / name)
                       for name, cfg in sorted(runs, key=lambda r: POOL_ORDER.index(r[0]))}
            results = (pending[name].result() for name, _ in runs)
        else:
            results = (_tally_run(cfg, outdir / name) for name, cfg in runs)
        for (name, cfg), (sub, steps[name], peak) in zip(runs, results):
            reports[name], modes[name], started[name] = sub, sub.elapsed, sub.started - start
            rss.append(peak)
            if name == "determinism":
                continue
            overall.records += [replace(rec, name=f"{cfg.mode}/{rec.name}") for rec in sub.records]
            if sub.aborted:
                overall.aborted = True
            print(f"[{'pass' if sub.passed else 'FAIL'}] {cfg.mode}", file=sys.stderr)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    overall.add(
        "determinism",
        "identical seed gives byte-identical reports",
        0.0 if reports["determinism"].to_json() == reports[charges.mode].to_json() else 1.0,
        0.0,
    )
    overall.elapsed = time.perf_counter() - start
    (outdir / "suite_report.json").write_text(overall.to_json())
    timing = {"elapsed_s": overall.elapsed, "modes": modes, "started_s": started, "steps": steps,
              "workers": workers, "peak_rss_mb": None if None in rss else max(rss)}
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
            overrides = {"seed": args.seed, "tolerance_scale": args.tolerance_scale}
            if isinstance(raw, dict):  # RunConfig.from_dict rejects any other JSON
                raw.update((key, value) for key, value in overrides.items() if value is not None)
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
