"""Bulk continuum Liouville theory.

Complex fields (phi, pi = phi_t) on a periodic grid over [-L, L] obeying

    phi_tt - phi_xx - 4i e^{-2i phi} = 0,

with the spatial/temporal Lax pair

    U = 1/2 [[-i pi, -2 e^{-lambda - i phi}], [4 sinh(lambda - i phi), i pi]],
    V = 1/2 [[-i phi_x, 2 e^{-lambda - i phi}], [4 cosh(lambda - i phi), i phi_x]].

Conjugating the spatial problem by g = exp(-i phi sigma_z / 2) gives the
gauged operator used for the path-ordered monodromy, whose log-trace small-u
expansion carries the conserved charges; the coefficient of u^1 is the first
nontrivial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rmatrix import _matrices, _mul2x2, _residual, bracket_lhs, linear_rhs
from .stepping import bound_guard, count_steps, march, read_only

__all__ = [
    "FieldConfig",
    "LiouvilleCharges",
    "lax_U",
    "lax_V",
    "liouville_rhs",
    "gauge_matrix",
    "gauge_transform",
    "gauged_U",
    "charges",
    "dual_charges",
    "monodromy_ode",
    "trace_log",
    "fit_first_charge",
    "check_linear_algebra",
    "evolve",
    "CANONICAL_BRACKET_SCALE",
    "derivative_x",
    "derivative_closed",
    "second_derivative_x",
    "random_config",
    "config_from_solution",
]

# Normalization of the canonical bracket {phi(x), pi(y)} = scale * delta(x - y)
# required for the linear exchange algebra of U to close with this r-matrix.
# Fixed by the identity itself (both off-diagonal entry classes demand 2).
CANONICAL_BRACKET_SCALE = 2.0


@dataclass(frozen=True)
class FieldConfig:
    """Sampled (phi, pi) on a uniform periodic grid over [-L, L].

    The grid holds n points x_j = -L + j h with h = 2L/n; the point x = L is
    identified with x = -L.  Fields of shape (T, n) make a stack of T
    configurations along a leading time axis, as a trajectory keeps them;
    :func:`charges` broadcasts over it.
    """

    L: float
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        for name in ("phi", "pi"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        if self.phi.shape != self.pi.shape or self.phi.ndim not in (1, 2):
            raise ValueError("phi and pi must be arrays of equal shape (n,) or (T, n)")
        if not np.all(np.isfinite(self.phi)) or not np.all(np.isfinite(self.pi)):
            raise ValueError("fields must be finite")

    @property
    def n(self) -> int:
        return self.phi.shape[-1]

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    @staticmethod
    def zero(L: float, n: int) -> "FieldConfig":
        return FieldConfig(L, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))

    def replace(self, phi=None, pi=None) -> "FieldConfig":
        return FieldConfig(self.L, self.phi if phi is None else phi, self.pi if pi is None else pi)


def random_config(L: float, n: int, rng: np.random.Generator,
                  amplitude: float = 0.2) -> FieldConfig:
    """Smooth periodic sample built from the first three Fourier modes."""
    x = FieldConfig.zero(L, n).x
    phi = np.zeros(n, dtype=complex)
    pi = np.zeros(n, dtype=complex)
    for k in range(1, 4):
        for arr in (phi, pi):
            c = amplitude / k * complex(rng.normal(), rng.normal())
            s = amplitude / k * complex(rng.normal(), rng.normal())
            arr += c * np.cos(np.pi * k * x / L) + s * np.sin(np.pi * k * x / L)
    phi += amplitude * complex(rng.normal(), rng.normal())
    return FieldConfig(L, phi, pi)


def config_from_solution(sol, L: float, n: int, t: float) -> FieldConfig:
    x = FieldConfig.zero(L, n).x
    return FieldConfig(L, sol.phi(x, t), sol.phi_t(x, t))


# -- Lax pair ------------------------------------------------------------------


def lax_U(phi: complex, pi: complex, lam: complex) -> np.ndarray:
    """Spatial Lax operator at a point (accepts arrays, returns ...x2x2)."""
    phi, pi = np.asarray(phi, dtype=complex), np.asarray(pi, dtype=complex)
    return _matrices(-0.5j * pi, -np.exp(-lam - 1j * phi), 2.0 * np.sinh(lam - 1j * phi),
                     0.5j * pi)


def lax_V(phi: complex, phi_x: complex, lam: complex) -> np.ndarray:
    """Temporal Lax operator at a point."""
    phi, phi_x = np.asarray(phi, dtype=complex), np.asarray(phi_x, dtype=complex)
    return _matrices(-0.5j * phi_x, np.exp(-lam - 1j * phi), 2.0 * np.cosh(lam - 1j * phi),
                     0.5j * phi_x)


# -- spatial derivatives ---------------------------------------------------------


def derivative_x(arr: np.ndarray, h: float) -> np.ndarray:
    """Second-order central difference on the periodic grid (the last axis)."""
    fwd = np.concatenate((arr[..., 1:], arr[..., :1]), axis=-1)
    back = np.concatenate((arr[..., -1:], arr[..., :-1]), axis=-1)
    return (fwd - back) / (2.0 * h)


def derivative_closed(arr: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order derivative along ``axis`` of a closed (non-periodic)
    uniform grid: central in the interior, one-sided at both ends."""
    f = arr.swapaxes(0, axis)  # views with the derivative axis first
    out = np.empty_like(arr)
    d = out.swapaxes(0, axis)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def second_derivative_x(arr: np.ndarray, h: float) -> np.ndarray:
    """Composition of the central first derivative with itself, on the
    periodic grid (the last axis).

    The wide five-point stencil keeps the semi-discrete energy functional
    exactly conserved (summation by parts pairs it with the central first
    derivative), at the cost of a larger second-order error constant.
    """
    fwd = np.concatenate((arr[..., 2:], arr[..., :2]), axis=-1)
    back = np.concatenate((arr[..., -2:], arr[..., :-2]), axis=-1)
    return (fwd - 2.0 * arr + back) / (4.0 * h * h)


def _vector_field(phi: np.ndarray, pi: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    # raw arrays, unvalidated: an RK stage past a pole may be non-finite
    return pi.copy(), second_derivative_x(phi, h) + 4j * np.exp(-2j * phi)


def liouville_rhs(c: FieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Method-of-lines vector field: phi_t = pi, pi_t = phi_xx + 4i e^{-2i phi}."""
    return _vector_field(c.phi, c.pi, c.h)


# -- gauge transformation --------------------------------------------------------


def gauge_matrix(phi) -> np.ndarray:
    """g = exp(-i phi sigma_z / 2) pointwise."""
    phi = np.asarray(phi, dtype=complex)
    return _matrices(np.exp(-0.5j * phi), 0.0, 0.0, np.exp(0.5j * phi))


def gauged_U(phi, pi, phi_x, lam: complex) -> np.ndarray:
    """Gauge-transformed spatial operator, written out explicitly:

    1/2 [[i(phi_x - pi), -2 e^-lambda],
         [2 e^{lambda - 2i phi} - 2 e^-lambda, -i(phi_x - pi)]].

    ``lam`` broadcasts against the fields: lam[:, None] with fields of
    shape (n,) gives an (m, n, 2, 2) stack.
    """
    phi = np.asarray(phi, dtype=complex)
    d = 0.5j * (np.asarray(phi_x, dtype=complex) - np.asarray(pi, dtype=complex))
    return _matrices(d, -np.exp(-lam), np.exp(lam - 2j * phi) - np.exp(-lam), -d)


def gauge_transform(c: FieldConfig, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """(gauged U samples, gauge matrices g) along the grid."""
    phi_x = derivative_x(c.phi, c.h)
    return gauged_U(c.phi, c.pi, phi_x, lam), gauge_matrix(c.phi)


# -- charges ---------------------------------------------------------------------


@dataclass(frozen=True)
class LiouvilleCharges:
    order1: complex
    order1_mirror: complex
    momentum: complex
    hamiltonian: complex


def _densities(phi, pi, phi_x, time_like=False):
    """Pointwise densities of (order1, order1_mirror, momentum, hamiltonian):

    order1        = -1/2 (1/4 (phi_x - pi)^2 + e^{-2i phi})
    order1_mirror = -1/2 (1/4 (phi_x + pi)^2 + e^{-2i phi})
    momentum      = phi_x pi
    hamiltonian   = 1/2 (phi_x^2 + pi^2) + 2 e^{-2i phi}

    ``time_like`` flips the sign of the potential e^{-2i phi}, which turns
    the last two into the time-like momentum and hamiltonian.
    """
    pot = -np.exp(-2j * phi) if time_like else np.exp(-2j * phi)
    return (-0.5 * (0.25 * (phi_x - pi) ** 2 + pot),
            -0.5 * (0.25 * (phi_x + pi) ** 2 + pot),
            phi_x * pi,
            0.5 * (phi_x**2 + pi**2) + 2.0 * pot)


def _quad(arr: np.ndarray, h: float) -> complex:
    """Periodic trapezoid rule over the last axis: the plain sum times the
    spacing; a complex number for one configuration, an array for a stack."""
    q = h * np.sum(arr, axis=-1)
    return complex(q) if isinstance(q, np.generic) else q


def charges(c: FieldConfig) -> LiouvilleCharges:
    """First charge, its pi-mirrored partner, and the momentum/Hamiltonian:
    the integrals of the densities of :func:`_densities`; for a stack of
    configurations, each an array over its time axis.

    mirror - order1 and mirror + order1 are proportional to momentum and
    hamiltonian respectively (factor -1/2 in both cases, checked in tests).
    """
    h = c.h
    densities = _densities(c.phi, c.pi, derivative_x(c.phi, h))
    return LiouvilleCharges(*(_quad(d, h) for d in densities))


def dual_charges(c: FieldConfig) -> tuple[complex, complex]:
    """Time-like (momentum, hamiltonian) evaluated on the supplied slice.

    The dual Hamiltonian flips the sign of the potential term; the dual
    momentum coincides with the space-like one.
    """
    h = c.h
    _, _, momentum, hamiltonian = _densities(c.phi, c.pi, derivative_x(c.phi, h), time_like=True)
    return _quad(momentum, h), _quad(hamiltonian, h)


# -- monodromy -------------------------------------------------------------------


_GAUSS_OFFSETS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def _gauss_node_fields(c: FieldConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi, pi, phi_x interpolated at the two Gauss nodes of every cell.

    Each result has shape (2, n); row q holds the trigonometric interpolant
    at x_j + off_q h.  The shift is a spectral phase e^{2 pi i k off / n}
    followed by an inverse FFT; for even n the Nyquist mode is split
    symmetrically between k = +-n/2, which makes its factor cos(pi off).
    """
    n = c.n
    offs = np.array(_GAUSS_OFFSETS)[:, None]
    shift = np.exp(2j * np.pi * offs * np.fft.fftfreq(n))
    if n % 2 == 0:
        shift[:, n // 2] = np.cos(np.pi * offs[:, 0])
    spec = np.fft.fft(np.stack([c.phi, c.pi, derivative_x(c.phi, c.h)]), axis=-1)
    phi, pi, phi_x = np.fft.ifft(spec[:, None, :] * shift, axis=-1)
    return phi, pi, phi_x


def _expm_traceless(m: np.ndarray) -> np.ndarray:
    """Exact exponential of a stack of traceless 2x2 matrices (shape (..., 2, 2))."""
    mu = np.sqrt(-(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]))
    small = np.abs(mu) < 1e-12
    mu_safe = np.where(small, 1.0, mu)
    eye = np.eye(2, dtype=complex)
    out = np.cosh(mu)[..., None, None] * eye + (np.sinh(mu) / mu_safe)[..., None, None] * m
    if np.any(small):
        ms = m[small]
        out[small] = eye + ms + 0.5 * (ms @ ms)
    return out


def _ordered_product(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products e[..., k-1, :, :] ... e[..., 0, :, :], reduced pairwise.

    Every level divides each matrix by its largest entry and accumulates the
    logs of those normalizations; an odd count is padded with the identity.
    Returns (product normalized, log scale) with the trailing product axis
    removed.
    """
    log_scale = np.zeros(e.shape[:-3])
    while True:
        top = np.max(np.abs(e), axis=(-2, -1))
        if not np.all(np.isfinite(top)) or np.any(top == 0.0):
            raise OverflowError("monodromy integration lost normalization")
        e = e / top[..., None, None]
        log_scale += np.sum(np.log(top), axis=-1)
        if e.shape[-3] == 1:
            return e[..., 0, :, :], log_scale
        if e.shape[-3] % 2:
            pad = np.broadcast_to(np.eye(2, dtype=complex), e.shape[:-3] + (1, 2, 2))
            e = np.concatenate([e, pad], axis=-3)
        e = _mul2x2(e[..., 1::2, :, :], e[..., 0::2, :, :])


def monodromy_ode(c: FieldConfig, lam) -> tuple[np.ndarray, np.ndarray]:
    """Path-ordered integration of T_x = U_gauged T across [-L, L].

    Uses the fourth-order two-node Magnus scheme per grid cell with the
    analytic 2x2 exponential, so the stiff constant part of the gauged
    operator at small u is propagated exactly.  ``lam`` is a scalar or a 1-d
    array of spectral points; all cells of all points are exponentiated at
    once and the ordered product of the cells is reduced pairwise, each
    level renormalized by its largest entries with the logs of the
    normalizations accumulated.  Returns (T_normalized, log_scale) with
    T = T_normalized * exp(log_scale): shapes (2, 2) and () for a scalar
    ``lam``, (m, 2, 2) and (m,) for m points.  Raises OverflowError when a
    normalization is not finite or vanishes.
    """
    lam = np.asarray(lam)
    if lam.ndim > 1:
        raise ValueError("lam must be a scalar or a 1-d array")
    phi, pi, phi_x = _gauss_node_fields(c)
    lams = np.atleast_1d(lam)[:, None]
    h = c.h
    c2 = np.sqrt(3.0) * h * h / 12.0
    # an overflow reaches the normalization guard as inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = gauged_U(phi[0], pi[0], phi_x[0], lams)
        a2 = gauged_U(phi[1], pi[1], phi_x[1], lams)
        omega = 0.5 * h * (a1 + a2) + c2 * (_mul2x2(a2, a1) - _mul2x2(a1, a2))
        t, log_scale = _ordered_product(_expm_traceless(omega))
    log_scale = log_scale.astype(complex)
    if lam.ndim == 0:
        return t[0], log_scale[0]
    return t, log_scale


def trace_log(c: FieldConfig, lam):
    """log tr T at the given spectral point(s) (branch of the principal log).

    ``lam`` is a scalar or a 1-d array; one batched ``monodromy_ode`` call
    covers every point.
    """
    t, log_scale = monodromy_ode(c, lam)
    return np.log(np.trace(t, axis1=-2, axis2=-1)) + log_scale


FIT_WINDOW = (0.01, 0.04)
FIT_POINTS = 8


def fit_first_charge(c: FieldConfig) -> complex:
    """First charge extracted from the small-u behaviour of log tr T.

    Samples u at FIT_POINTS points across FIT_WINDOW, evaluates log tr T at
    every sample with one batched ``monodromy_ode`` call (lambda = log u as
    an array, ordered product reduced pairwise), fits it against {u^-1, 1,
    u, u^2, u^3} by least squares and returns the u-coefficient.  The cubic
    term guards the linear coefficient against truncation bias, and the
    window sits deep enough in the small-u regime that the neglected orders
    stay below the percent level for moderate field amplitudes (the Magnus
    propagation is exact on the stiff part, so small u costs nothing in
    accuracy).
    """
    us = np.linspace(FIT_WINDOW[0], FIT_WINDOW[1], FIT_POINTS)
    values = trace_log(c, np.log(us))
    basis = np.stack([1.0 / us, np.ones_like(us), us, us**2, us**3], axis=1)
    coeff, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return complex(coeff[2])


# -- linear exchange algebra -------------------------------------------------------


_PI_PARTIAL = read_only(np.array([[-0.5j, 0.0], [0.0, 0.5j]], dtype=complex))


def _U_partials(phi: complex, pi: complex, lam: complex) -> dict[str, np.ndarray]:
    # pi enters U only linearly on the diagonal, so its partial is constant
    e, c = np.exp(-lam - 1j * phi), np.cosh(lam - 1j * phi)
    return {"phi": _matrices(0.0, 1j * e, -2j * c, 0.0), "pi": _PI_PARTIAL}


def check_linear_algebra(phi: complex, pi: complex, lam: complex, mu: complex) -> float:
    """Residual of the linear algebra of U with the delta factor stripped.

    Left side: (dU_a/dphi x dU_b/dpi - dU_a/dpi x dU_b/dphi) scaled by the
    canonical bracket normalization; right side: [r(lam - mu), U_a + U_b].
    Arrays of T draws of (phi, pi, lam, mu), broadcast together, give the T
    residuals as an array.
    """
    table = {
        ("phi", "pi"): CANONICAL_BRACKET_SCALE,
        ("pi", "phi"): -CANONICAL_BRACKET_SCALE,
    }
    lhs = bracket_lhs(_U_partials(phi, pi, lam), _U_partials(phi, pi, mu), table)
    rhs = linear_rhs(lam - mu, lax_U(phi, pi, lam), lax_U(phi, pi, mu))
    return _residual(lhs, rhs)


# -- evolution ---------------------------------------------------------------------


@dataclass
class LiouvilleTrajectory:
    """The recorded configurations of a march as one stack of shape (T, n),
    and the charges computed from it, each an array over the T times."""

    times: np.ndarray
    stack: FieldConfig
    hamiltonians: np.ndarray
    momenta: np.ndarray
    first_charges: np.ndarray

    @property
    def configs(self) -> list[FieldConfig]:
        """The recorded configurations one by one, built from :attr:`stack` on each read."""
        st = self.stack
        return [FieldConfig(st.L, phi, pi) for phi, pi in zip(st.phi, st.pi)]

    def drift(self, which: str = "hamiltonian") -> float:
        series = {
            "hamiltonian": self.hamiltonians,
            "momentum": self.momenta,
            "order1": self.first_charges,
        }[which]
        return float(np.max(np.abs(series - series[0])))


BLOWUP = 1e6  # |phi| or |pi| above it aborts an evolution


def evolve(c: FieldConfig, dt: float, t_end: float) -> LiouvilleTrajectory:
    """Fourth-order method-of-lines evolution with conservation monitoring.

    Keeps the configuration at every step; the charges of the kept
    configurations are computed after the march, in one call over their
    stack.  t_end must be a whole multiple of dt.  The complex Liouville
    flow has genuine finite-time poles: when phi or pi stops being finite or
    exceeds BLOWUP in modulus, at an RK stage or an accepted step, the
    march raises :class:`~laxkit.stepping.Aborted`, whose record names the
    stage, step, time, field and grid index, and whose trajectory holds the
    steps taken before.  The stages are evaluated on raw arrays, and the
    overflow that leads to an abort raises no numpy warning.
    """
    h, n = c.h, c.n
    guard = bound_guard((("phi", n), ("pi", n)), BLOWUP, "above the blow-up threshold")

    def finish(times, ys):
        stack = FieldConfig(c.L, *ys.reshape(len(times), 2, n).swapaxes(0, 1))
        ch = charges(stack)
        return LiouvilleTrajectory(times, stack, ch.hamiltonian, ch.momentum, ch.order1)

    return march(lambda t, y: np.concatenate(_vector_field(*y.reshape(2, n), h)),
                 np.concatenate((c.phi, c.pi)), dt, count_steps(dt, t_end), guard, finish)
