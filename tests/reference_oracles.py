"""Oracles that only the tests read: the log-linear exact solution, the
elementary brackets of one pair of fields, the inverse of ``log_expand``, the
z half of the hetero generating relations, the hetero image of any free field
by Gauss-Legendre quadrature, the type-II Backlund relations component by
component, and the space-flow residual of an evolved Backlund trajectory.  The library computes none of these; the tests check its
results against them."""

from dataclasses import dataclass

import numpy as np

from laxkit.backlund import bt_residual_x
from laxkit.lattice import _TABLE_RULES, FIELD_NAMES
from laxkit.lattice_defect import DEFECT_BRACKET_RULES
from laxkit.laurent import _powers
from laxkit.liouville import derivative_closed
from laxkit.stepping import nan_max


# -- exact solutions ------------------------------------------------------------


@dataclass(frozen=True)
class LogLinearSolution:
    """phi = -i log(p t + q x + r) with p^2 - q^2 = 4, a solution of
    phi_tt - phi_xx - 4i e^{-2i phi} = 0.

    The simplest exact solution family; not x-periodic.  The argument must
    stay away from zero on the domain of interest.
    """

    p: complex
    q: complex
    r: complex

    def __post_init__(self):
        if abs(self.p**2 - self.q**2 - 4.0) > 1e-12:
            raise ValueError("parameters must satisfy p^2 - q^2 = 4")

    def _w(self, x, t):
        return self.p * t + self.q * np.asarray(x, dtype=complex) + self.r

    def phi(self, x, t):
        return -1j * np.log(self._w(x, t))

    def phi_t(self, x, t):
        return -1j * self.p / self._w(x, t)

    def phi_x(self, x, t):
        return -1j * self.q / self._w(x, t)


# -- brackets -------------------------------------------------------------------


def poisson_bracket(f, g, s):
    """Elementary bracket {f, g} of two stored fields of the lattice state s.

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


def defect_bracket(f, g, d):
    """Elementary bracket {f, g} of two fields of the defect d, each one of
    "z", "z_bar" and "X"."""
    rule = DEFECT_BRACKET_RULES.get((f, g))
    if rule is None:
        if f not in ("z", "z_bar", "X") or g not in ("z", "z_bar", "X"):
            raise ValueError(f"unknown defect field reference {f!r}, {g!r}")
        return 0.0j
    return complex(rule(d.z, d.z_bar, d.X))


# -- truncated series -----------------------------------------------------------


def series_exp(x):
    """exp of the dense series sum_m x[m] u^-m, to len(x) coefficients.

    x[0] must be 0: the series has strictly negative exponents."""
    x = np.asarray(x, dtype=complex)
    if x[0] != 0:
        raise ValueError("series_exp expects strictly negative exponents")
    out = np.zeros_like(x)
    out[0] = 1.0
    fact = 1.0
    for k, power in enumerate(_powers(x), start=1):
        fact *= k
        out += power * (1.0 / fact)
    return out


def log_reconstruct(n, coeffs):
    """Inverse of ``laurent.log_expand`` up to the retained order: the
    truncated series ``(n, c)`` of u^n exp(c0) exp(sum c_m u^-m), with as
    many coefficients as ``coeffs`` has."""
    tail = np.array(coeffs, dtype=complex)
    tail[0] = 0.0
    return n, series_exp(tail) * np.exp(coeffs[0])


# -- Backlund relations ---------------------------------------------------------


def z_equation_residual(phi_tilde, phi, params):
    """Interior residual of the z half of the hetero generating relations,
    i d(phi~ - phi)/dz + 2 c e^Theta e^{i(phi~ + phi)} = 0, on two
    ``LightConeField`` samples, by closed differences of the generated pair
    rather than by the integrals ``hetero_bt_generate`` sums."""
    dpt = phi_tilde.derivative_z()
    dphi = phi.derivative_z()
    res = 1j * (dpt - dphi) + 2.0 * params.c * np.exp(params.Theta) * np.exp(
        1j * (phi_tilde.values + phi.values)
    )
    return float(np.max(np.abs(res[1:-1, 1:-1])))


def _cumulative_gauss(h, axis, nodes=12):
    """The integral of h from axis[0] to each point of the axis, by
    Gauss-Legendre quadrature with this many nodes on every cell."""
    x, weights = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (axis[1:] + axis[:-1]), 0.5 * np.diff(axis)
    cells = half * (h(mid[:, None] + half[:, None] * x) @ weights)
    return np.concatenate(([0.0], np.cumsum(cells)))


def hetero_R(f, g, params, z, zbar):
    """R = e^{-i(phi~ - f + g)} of the hetero image of phi = f(z) + g(zbar)
    with phi~ = 0 at (z[0], zbar[0]), on the grid: its corner value
    e^{i(f(z0) - g(zbar0))} plus 2 c e^Theta times the integral of e^{2if}
    from z0 and 2 c e^-Theta times that of e^{-2ig} from zbar0, each by
    composite Gauss-Legendre quadrature, roundoff on smooth seeds."""
    c, th = params.c, params.Theta
    return (np.exp(1j * (f(z[:1]) - g(zbar[:1])))
            + 2.0 * c * np.exp(th) * _cumulative_gauss(lambda w: np.exp(2j * f(w)), z)[:, None]
            + 2.0 * c * np.exp(-th) * _cumulative_gauss(lambda w: np.exp(-2j * g(w)), zbar))


def hetero_closed_form(f, g, params, z, zbar):
    """e^{i phi~} = e^{i(f - g)} / R (:func:`hetero_R`) on the grid."""
    return np.exp(1j * (f(z)[:, None] - g(zbar))) / hetero_R(f, g, params, z, zbar)


# -- the type-II Backlund relations, component by component ----------------------
#
# Each relation as written, one expression per component with
# em, ep = e^{-+i(phi + phi~)/2} and s = sinh(i(phi~ - phi)); the library
# evaluates them on stacked rows (backlund._exponentials).


def _bt_exponentials(phi, phi_tilde, theta):
    em, ep = np.exp(-0.5j * (phi + phi_tilde)), np.exp(0.5j * (phi + phi_tilde))
    return em, ep, np.exp(theta), np.exp(-theta), np.sinh(1j * (phi_tilde - phi))


def bt_tilde_t(phi, phi_tilde, phi_t, Y, Z, theta):
    """phi~_t from i(phi~_t - phi_t) = -2Y (e^th em + e^-th ep) + 2Z e^-th em."""
    em, ep, et, eti, _ = _bt_exponentials(phi, phi_tilde, theta)
    return phi_t - 1j * (-2.0 * Y * (et * em + eti * ep) + 2.0 * Z * eti * em)


def bt_tilde_x(phi, phi_tilde, phi_x, Y, Z, theta):
    """phi~_x from i(phi~_x - phi_x) = -2Y (e^th em - e^-th ep) - 2Z e^-th em."""
    em, ep, et, eti, _ = _bt_exponentials(phi, phi_tilde, theta)
    return phi_x + (2j * Y * (et * em - eti * ep) + 2j * Z * eti * em)


def bt_time_flow(phi, phi_tilde, phi_x, phi_tilde_x, Y, Z, theta):
    """Y_t = -(i/2)(phi_x + phi~_x) Y - e^-th em s,
    Z_t = (i/2)(phi_x + phi~_x) Z + (e^th em + e^-th ep) s."""
    em, ep, et, eti, s = _bt_exponentials(phi, phi_tilde, theta)
    drag = 0.5j * (phi_x + phi_tilde_x)
    return -drag * Y - eti * em * s, drag * Z + (et * em + eti * ep) * s


def bt_space_flow(phi, phi_tilde, phi_t, phi_tilde_t, Y, Z, theta):
    """Y_x = -(i/2)(phi_t + phi~_t) Y + e^-th em s,
    Z_x = (i/2)(phi_t + phi~_t) Z + (e^th em - e^-th ep) s."""
    em, ep, et, eti, s = _bt_exponentials(phi, phi_tilde, theta)
    drag = 0.5j * (phi_t + phi_tilde_t)
    return -drag * Y + eti * em * s, drag * Z + (et * em - eti * ep) * s


def x_flow_residual(traj, background, theta):
    """Causal-interior residual of the space-flow equations on a
    ``BTTrajectory``, row by row, with (Y_x, Z_x) by closed differences and
    phi~_t from the t half of the diagonal pair."""
    worst = 0.0
    h = traj.x[1] - traj.x[0]
    for k, t in enumerate(traj.times):
        keep = traj._causal(t)
        if not np.any(keep):
            break
        phi, phi_t, _ = background.fields(traj.x, t)
        pt = traj.phi_tilde[k]
        ptt = bt_tilde_t(phi, pt, phi_t, traj.Y[k], traj.Z[k], theta)
        ry, rz = bt_residual_x(
            phi, pt, phi_t, ptt,
            traj.Y[k], traj.Z[k],
            derivative_closed(traj.Y[k], h),
            derivative_closed(traj.Z[k], h),
            theta,
        )
        worst = nan_max(
            worst,
            float(np.max(np.abs(ry[keep]))),
            float(np.max(np.abs(rz[keep]))),
        )
    return worst
