"""Bulk deformed-oscillator lattice.

Periodic chain of sites carrying complex fields (a_j, abar_j, v_j) with the
2x2 site matrix

    L_j(u) = [[u v_j - u^-1 v_j^-1, abar_j], [a_j, -u^-1 v_j]],    u = e^lambda.

The trace of the ordered product T = L_N ... L_1 generates the conserved
charges through log tr T = N log u + c0 + c1 u^-1 + c2 u^-2 + ..., with

    c0 = sum_j log v_j,    c1 = 0,    c2 = sum_j bbar_{j+1} b_j - sum_j v_j^-2,

where b_j = a_j / v_j and bbar_j = abar_j / v_j.  The module also carries the
site Poisson structure, the time half of the Lax pair, the induced equations
of motion, and a fixed-step integrator with conservation monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .laurent import (
    LaurentMatrix,
    LaurentSeries,
    log_expand,
    matrix_product_chain,
    series_inverse,
)
from .rmatrix import bracket_lhs, quadratic_rhs
from .stepping import count_steps, locate, march

__all__ = [
    "LatticeState",
    "SingularStateError",
    "build_lax",
    "lax_value",
    "monodromy",
    "monodromy_value",
    "charges_closed_form",
    "charges_from_trace",
    "poisson_bracket",
    "BRACKET_TABLE",
    "check_quadratic_algebra",
    "bulk_eom",
    "bracket_flow",
    "flow_sign",
    "time_lax_order0",
    "time_lax_order2",
    "time_lax_from_rmatrix",
    "time_lax_normalization",
    "zero_curvature_residual",
    "integrate",
    "random_state",
]


class SingularStateError(ValueError):
    """A site field v_j (or a defect field X) vanished; v^-1 is undefined."""


@dataclass(frozen=True)
class LatticeState:
    """Immutable snapshot of the periodic chain (site count N >= 1).

    Charge formulas assume N >= 2; a single-site chain is still accepted so
    the monodromy reduces to its one factor.
    """

    a: np.ndarray
    a_bar: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_bar", "v"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.a.shape == self.a_bar.shape == self.v.shape) or self.a.ndim != 1:
            raise ValueError("field arrays must be 1-d and of equal length")
        if self.N < 1:
            raise ValueError("need at least one site")
        if np.any(np.abs(self.v) == 0.0):
            raise SingularStateError("all v_j must be nonzero")

    @property
    def N(self) -> int:
        return self.a.shape[0]

    @property
    def b(self) -> np.ndarray:
        return self.a / self.v

    @property
    def b_bar(self) -> np.ndarray:
        return self.a_bar / self.v

    def site(self, j: int) -> tuple[complex, complex, complex]:
        """Fields at 1-based periodic site index j."""
        i = (j - 1) % self.N
        return complex(self.a[i]), complex(self.a_bar[i]), complex(self.v[i])

    def replace(self, a=None, a_bar=None, v=None) -> "LatticeState":
        return LatticeState(
            self.a if a is None else a,
            self.a_bar if a_bar is None else a_bar,
            self.v if v is None else v,
        )


def random_state(n: int, rng: np.random.Generator, amplitude: float = 1.0) -> LatticeState:
    """Generic sample: |a|, |abar| <= amplitude and v = exp(w) with |w| <= 0.5.

    Keeps v away from zero while exercising fully complex configurations.
    Long time integrations want amplitude well below 1; the complex flow is
    not globally bounded.
    """

    def disk(scale):
        r = np.sqrt(rng.uniform(0, 1, n)) * scale
        th = rng.uniform(0, 2 * np.pi, n)
        return r * np.exp(1j * th)

    return LatticeState(disk(amplitude), disk(amplitude), np.exp(disk(0.5)))


# -- Lax matrix and monodromy ------------------------------------------------


def build_lax(s: LatticeState, j: int) -> LaurentMatrix:
    """Site matrix L_j as an exact Laurent matrix."""
    a, abar, v = s.site(j)
    if v == 0:
        raise SingularStateError("v_j = 0")
    return LaurentMatrix.from_rows(
        [
            [LaurentSeries({1: v, -1: -1.0 / v}), LaurentSeries({0: abar})],
            [LaurentSeries({0: a}), LaurentSeries({-1: -v})],
        ]
    )


def lax_value(s: LatticeState, j: int, u: complex) -> np.ndarray:
    """L_j evaluated numerically at the spectral point u."""
    a, abar, v = s.site(j)
    return np.array([[u * v - 1.0 / (u * v), abar], [a, -v / u]], dtype=complex)


def _lax_partials(s: LatticeState, j: int, u: complex) -> dict[str, np.ndarray]:
    """Derivatives of L_j with respect to its three site fields."""
    _, _, v = s.site(j)
    return {
        "a": np.array([[0, 0], [1, 0]], dtype=complex),
        "a_bar": np.array([[0, 1], [0, 0]], dtype=complex),
        "v": np.array([[u + 1.0 / (u * v * v), 0], [0, -1.0 / u]], dtype=complex),
    }


def monodromy(s: LatticeState) -> LaurentMatrix:
    """Ordered product T = L_N L_{N-1} ... L_1 (highest site leftmost)."""
    return matrix_product_chain([build_lax(s, j) for j in range(s.N, 0, -1)])


def monodromy_value(s: LatticeState, u: complex) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for j in range(s.N, 0, -1):
        out = out @ lax_value(s, j, u)
    return out


# -- charges -----------------------------------------------------------------


def charges_closed_form(s: LatticeState) -> tuple[complex, complex, complex]:
    """(order-0, order-1, order-2) charges in closed form.

    order-0 uses the principal branch of log v_j; comparisons should go
    through exp to stay branch-insensitive.  order-1 vanishes identically.
    """
    b, bbar = s.b, s.b_bar
    c0 = complex(np.sum(np.log(s.v)))
    c2 = complex(np.sum(np.roll(bbar, -1) * b) - np.sum(s.v**-2))
    return c0, 0.0j, c2


def charges_from_trace(s: LatticeState, depth: int = 4) -> tuple[int, list[complex]]:
    """Charges read off the log-trace expansion of the monodromy.

    Returns (leading exponent, [c0, ..., c_depth]); the leading exponent is
    the site count and exp(c0) equals the product of the v_j.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    return log_expand(monodromy(s).trace, depth)


# -- Poisson structure ---------------------------------------------------------

# Same-site elementary brackets; all same-species and cross-site brackets
# vanish (the algebra is ultralocal).  Values are callables of the site
# fields (a, abar, v).
_TABLE_RULES = {
    ("a", "v"): lambda a, abar, v: a * v,
    ("v", "a"): lambda a, abar, v: -a * v,
    ("a_bar", "v"): lambda a, abar, v: -abar * v,
    ("v", "a_bar"): lambda a, abar, v: abar * v,
    ("a", "a_bar"): lambda a, abar, v: -2.0 * v * v,
    ("a_bar", "a"): lambda a, abar, v: 2.0 * v * v,
}

FIELD_NAMES = ("a", "a_bar", "v")


def BRACKET_TABLE(s: LatticeState, j: int) -> dict[tuple[str, str], complex]:
    """Numeric same-site bracket table at site j."""
    a, abar, v = s.site(j)
    return {pair: rule(a, abar, v) for pair, rule in _TABLE_RULES.items()}


def poisson_bracket(f: tuple[str, int], g: tuple[str, int], s: LatticeState) -> complex:
    """Elementary bracket {f, g} of two stored fields.

    Field references are (species, site) pairs with species in
    {"a", "a_bar", "v"}.  Off-site and same-species brackets vanish.
    """
    (fa, fj), (ga, gj) = f, g
    for name in (fa, ga):
        if name not in FIELD_NAMES:
            raise ValueError(f"unknown field reference {name!r}")
    if (fj - gj) % s.N != 0:
        return 0.0j
    rule = _TABLE_RULES.get((fa, ga))
    if rule is None:
        return 0.0j
    a, abar, v = s.site(fj)
    return complex(rule(a, abar, v))


def check_quadratic_algebra(s: LatticeState, lam: complex, mu: complex, j: int) -> float:
    """Max-entry residual of the quadratic exchange relation at one site.

    Left side: entrywise brackets of L_j(lambda) with L_j(mu), expanded
    bilinearly through the elementary table.  Right side: the r-matrix
    commutator with the tensor product.  Both are 4x4 complex matrices.
    """
    table = BRACKET_TABLE(s, j)
    lhs = bracket_lhs(
        _lax_partials(s, j, np.exp(lam)), _lax_partials(s, j, np.exp(mu)), table
    )
    rhs = quadratic_rhs(lam - mu, lax_value(s, j, np.exp(lam)), lax_value(s, j, np.exp(mu)))
    return float(np.max(np.abs(lhs - rhs)))


# -- equations of motion -------------------------------------------------------


@dataclass(frozen=True)
class LatticeDerivative:
    a: np.ndarray
    a_bar: np.ndarray
    v: np.ndarray

    def max_abs(self) -> float:
        return float(
            max(np.max(np.abs(self.a)), np.max(np.abs(self.a_bar)), np.max(np.abs(self.v)))
        )


def _vector_field(a, abar, v):
    # raw arrays, unvalidated: the RK stages of a march are never wrapped in
    # a LatticeState
    b, bbar = a / v, abar / v
    bm = np.roll(b, 1)       # b_{j-1}
    bbp = np.roll(bbar, -1)  # bbar_{j+1}
    da = 2.0 * bm * v - 2.0 * b / v + bbp * b * a + bbar * bm * a
    dabar = -2.0 * bbp * v + 2.0 * bbar / v - bbp * b * abar - bbar * bm * abar
    dv = bbp * a - abar * bm
    return da, dabar, dv


def bulk_eom(s: LatticeState) -> LatticeDerivative:
    """Time derivatives of (a, abar, v) generated by the order-2 charge flow."""
    return LatticeDerivative(*_vector_field(s.a, s.a_bar, s.v))


def charge2_gradient(s: LatticeState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic partials of the order-2 charge with respect to each field."""
    a, abar, v = s.a, s.a_bar, s.v
    ap, vp = np.roll(a, 1), np.roll(v, 1)          # site j-1
    abarn, vn = np.roll(abar, -1), np.roll(v, -1)  # site j+1
    d_a = abarn / (vn * v)
    d_abar = ap / (v * vp)
    d_v = -abarn * a / (vn * v**2) - abar * ap / (v**2 * vp) + 2.0 / v**3
    return d_a, d_abar, d_v


def bracket_flow(s: LatticeState) -> LatticeDerivative:
    """Hamiltonian flow of the order-2 charge through the bracket table.

    The overall orientation (which argument of the bracket carries the
    charge) is fixed once by :func:`flow_sign` so the flow reproduces
    :func:`bulk_eom` exactly.
    """
    sign = flow_sign()
    d_a, d_abar, d_v = charge2_gradient(s)
    a, abar, v = s.a, s.a_bar, s.v
    # {a_j, I} = dI/da_bar {a,a_bar} + dI/dv {a,v}, etc., site-diagonal.
    da = sign * (d_abar * (-2.0 * v * v) + d_v * (a * v))
    dabar = sign * (d_a * (2.0 * v * v) + d_v * (-abar * v))
    dv = sign * (d_a * (-a * v) + d_abar * (abar * v))
    return LatticeDerivative(da, dabar, dv)


_FLOW_SIGN: int | None = None


def _reference_state() -> LatticeState:
    return LatticeState(
        np.array([0.31 + 0.12j, -0.22 + 0.4j, 0.05 - 0.33j]),
        np.array([0.17 - 0.28j, 0.44 + 0.09j, -0.39 + 0.21j]),
        np.exp(np.array([0.11 + 0.23j, -0.19 - 0.07j, 0.31 - 0.14j])),
    )


def flow_sign() -> int:
    """Orientation of the charge flow, calibrated once on a reference state.

    The bracket convention leaves the sign of df/dt = +-{f, charge} open; it
    is fixed by matching dv_j/dt against :func:`bulk_eom` and cached.
    """
    global _FLOW_SIGN
    if _FLOW_SIGN is None:
        s = _reference_state()
        d_a, d_abar, _ = charge2_gradient(s)
        raw_dv = d_a * (-s.a * s.v) + d_abar * (s.a_bar * s.v)
        target = bulk_eom(s).v
        plus = np.max(np.abs(raw_dv - target))
        minus = np.max(np.abs(-raw_dv - target))
        _FLOW_SIGN = 1 if plus < minus else -1
        residual = min(plus, minus)
        if residual > 1e-12 * max(1.0, np.max(np.abs(target))):
            raise AssertionError(f"flow-sign calibration failed, residual {residual:g}")
    return _FLOW_SIGN


# -- time half of the Lax pair -------------------------------------------------


def time_lax_order0() -> np.ndarray:
    """Order-0 coefficient of the time Lax matrix: diag(1, 0), field-free."""
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def time_lax_order2(s: LatticeState, j: int, mu: complex) -> np.ndarray:
    """Order-2 time-Lax matrix at site j and time-spectral point mu.

    [[2 e^{2 mu} - bbar_j b_{j-1}, 2 e^mu bbar_j],
     [2 e^mu b_{j-1},              bbar_j b_{j-1}]]
    """
    b, bbar = s.b, s.b_bar
    i = (j - 1) % s.N
    bj_1 = b[(i - 1) % s.N]
    bbj = bbar[i]
    w = np.exp(mu)
    return np.array(
        [[2.0 * w * w - bbj * bj_1, 2.0 * w * bbj], [2.0 * w * bj_1, bbj * bj_1]],
        dtype=complex,
    )


def _coth_series(w: complex, depth: int) -> LaurentSeries:
    # coth(lambda - mu) = 1 + 2 sum_{k>=1} w^{2k} u^{-2k},  w = e^mu
    coeffs = {0: 1.0 + 0.0j}
    for k in range(1, depth // 2 + 1):
        coeffs[-2 * k] = 2.0 * w ** (2 * k)
    return LaurentSeries(coeffs, -depth)


def _csch_series(w: complex, depth: int) -> LaurentSeries:
    # 1/sinh(lambda - mu) = 2 sum_{k>=0} w^{2k+1} u^{-2k-1}
    coeffs = {}
    for k in range(0, (depth + 1) // 2):
        coeffs[-2 * k - 1] = 2.0 * w ** (2 * k + 1)
    return LaurentSeries(coeffs, -depth)


def time_lax_from_rmatrix(
    s: LatticeState, j: int, mu: complex, depth: int = 2, normalized: bool = True
) -> list[np.ndarray]:
    """Time-Lax coefficient matrices from the r-matrix trace formula.

    Evaluates t(lambda)^-1 tr_a{T_a(N, j) r_ab(lambda - mu) T_a(j-1, 1)} as a
    Laurent series in u = e^lambda.  Tracing out the first space reduces the
    formula to the cyclically shifted monodromy T_j = L_{j-1}..L_1 L_N..L_j:

        diagonal entries:      coth(lambda - mu) * (T_j)_kk / t(lambda)
        off-diagonal entries:  (T_j)_{12 or 21} / (sinh(lambda - mu) t(lambda))

    Returns the coefficient matrices of u^0 .. u^-depth, divided by the
    global normalization constant unless ``normalized`` is False.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    n = s.N
    factors = [build_lax(s, k) for k in range(j - 1, 0, -1)]
    factors += [build_lax(s, k) for k in range(n, j - 1, -1)]
    tj = matrix_product_chain(factors)
    t_inv = series_inverse(tj.trace, depth + 2 * n + 4)
    w = np.exp(mu)
    coth = _coth_series(w, depth + 2)
    csch = _csch_series(w, depth + 2)
    entries = [[None, None], [None, None]]
    for i in range(2):
        for k in range(2):
            ratio = t_inv * tj[i, k]
            entries[i][k] = ratio * (coth if i == k else csch)
    coeff_mats = []
    for m in range(depth + 1):
        mat = np.array(
            [[entries[i][k].coefficient(-m) for k in range(2)] for i in range(2)],
            dtype=complex,
        )
        coeff_mats.append(mat)
    if normalized:
        coeff_mats = [m / time_lax_normalization() for m in coeff_mats]
    return coeff_mats


_TIME_LAX_NORM: complex | None = None


def time_lax_normalization() -> complex:
    """Proportionality between the trace-formula expansion and the printed
    order-2 matrix, measured once on a reference state via the (1,2) entry."""
    global _TIME_LAX_NORM
    if _TIME_LAX_NORM is None:
        s = _reference_state()
        mu = 0.17 - 0.08j
        raw = time_lax_from_rmatrix(s, 2, mu, depth=2, normalized=False)
        printed = time_lax_order2(s, 2, mu)
        _TIME_LAX_NORM = complex(raw[2][0, 1] / printed[0, 1])
    return _TIME_LAX_NORM


def _lax_time_derivative(s: LatticeState, d: LatticeDerivative, j: int, u: complex) -> np.ndarray:
    """d/dt of L_j at fixed u, assembled by the chain rule."""
    i = (j - 1) % s.N
    da, dabar, dv = d.a[i], d.a_bar[i], d.v[i]
    v = s.v[i]
    return np.array(
        [[u * dv + dv / (u * v * v), dabar], [da, -dv / u]],
        dtype=complex,
    )


def zero_curvature_residual(s: LatticeState, j: int, mu: complex) -> float:
    """Max-entry residual of dL_j/dt = A_{j+1} L_j - L_j A_j at u = e^mu."""
    u = np.exp(mu)
    d = bulk_eom(s)
    ldot = _lax_time_derivative(s, d, j, u)
    aj = time_lax_order2(s, j, mu)
    ajp = time_lax_order2(s, j + 1, mu)
    lj = lax_value(s, j, u)
    return float(np.max(np.abs(ldot - (ajp @ lj - lj @ aj))))


# -- time integration ----------------------------------------------------------


@dataclass
class LatticeTrajectory:
    times: np.ndarray
    states: list[LatticeState]
    charges0: np.ndarray
    charges2: np.ndarray
    traces: dict[float, np.ndarray]

    def keep(self, t, st, c0, c2, monodromies):
        """Append one monitored state (the fields are lists while marching)."""
        self.times.append(t)
        self.states.append(st)
        self.charges0.append(c0)
        self.charges2.append(c2)
        for tr, m in zip(self.traces.values(), monodromies):
            tr.append(np.trace(m))

    def finished(self):
        """Copy with the monitored series as arrays."""
        arrays = {k: np.array(getattr(self, k)) for k in ("times", "charges0", "charges2")}
        traces = {u: np.array(tr) for u, tr in self.traces.items()}
        return replace(self, **arrays, traces=traces)

    def drift(self, which: str = "2") -> float:
        series = self.charges2 if which == "2" else self.charges0
        return float(np.max(np.abs(series - series[0])))

    def trace_drift(self, u: float) -> float:
        tr = self.traces[u]
        return float(np.max(np.abs(tr - tr[0])))


V_FLOOR = 1e-8
FIELD_CEILING = 1e8


def _singular(names, y):
    """Guard of the chain integrators: None, or (reason, field, index) of a
    non-finite entry, a field above FIELD_CEILING, or a v_j (or defect X)
    below V_FLOOR in modulus."""
    floored = [(name, np.abs(arr)) for name, arr in zip(names, y) if name in ("v", "X")]
    if (
        all(mag.min() >= V_FLOOR for _, mag in floored)
        and np.abs(np.concatenate(y)).max() <= FIELD_CEILING
    ):
        return None
    fault = locate(names, y, FIELD_CEILING, "field above the ceiling")
    if fault is None:
        name, mag = min(floored, key=lambda p: p[1].min())
        fault = ("field below the floor", name, int(np.argmin(mag)))
    return fault


_FIELDS = ("a", "a_bar", "v")


def integrate(
    s: LatticeState,
    dt: float,
    t_end: float,
    probes: tuple[float, ...] = (2.0, 3.0),
) -> LatticeTrajectory:
    """Classic fourth-order fixed-step integration of the bulk flow.

    Records the order-0/order-2 charges and tr T at the probe spectral points
    every step.  The complex flow has no global bound: when any field stops
    being finite or exceeds FIELD_CEILING, or any |v_j| falls below V_FLOOR,
    at an RK stage or an accepted step, the march raises
    :class:`~laxkit.stepping.Aborted` carrying the partial trajectory.
    """
    traj = LatticeTrajectory([], [], [], [], {u: [] for u in probes})

    def keep(t, st):
        c0, _, c2 = charges_closed_form(st)
        traj.keep(t, st, c0, c2, [monodromy_value(st, u) for u in probes])

    keep(0.0, s)
    return march(lambda t, y: _vector_field(*y), (s.a, s.a_bar, s.v), dt,
                 count_steps(dt, t_end), lambda t, y: _singular(_FIELDS, y),
                 lambda k, t, y: keep(t, LatticeState(*y)), traj.finished)
