"""Type-II Darboux matrices and Backlund generators for the Liouville model.

Space-like picture: a defect matrix with entries (X, Y, Z) and parameter
theta intertwines two Liouville solutions phi and phi~.  Matching powers of
u in the intertwining relations fixes X = e^{i(phi~ - phi)/2}, a linear
system for (Y, Z) from the diagonal entries, and first-order flow equations
for (Y, Z) from the anti-diagonal entries.  The drag coefficient in those
flow equations is (i/2)(phi_x + phi~_x); the factor 1/2 is forced by the
u-power matching and is what makes the flow compatible with the diagonal
system (tests drive a full evolution through it).

Hetero picture: a triangular-free Darboux matrix interfaces the Liouville
theory (coupling c, modified sign convention with potential +4i c^2 e^{2i
phi~}) with the free massless field.  In half-sum light-cone coordinates
z = (x + t)/2, zbar = (x - t)/2 the intertwining relation is equivalent to

    i d(phi~ - phi)/dz    = -2 c e^{Theta}  e^{i(phi~ + phi)},
    i d(phi~ + phi)/dzbar = -2 c e^{-Theta} e^{i(phi~ - phi)},

whose cross-derivatives reproduce both field equations.  The matrix entries
that realize this are A = X = e^{i(phi~ - phi)/2} and Z = B =
e^{i(phi~ + phi)/2}, paired with the time-Lax of the modified pair whose
upper-right sign is fixed by its own zero-curvature relation; the module
also carries the variants with the entry roles swapped (sum on the
diagonal, difference off it, real or imaginary exponent) so the selection
can be made by measurement, and a scan helper that does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stepping import count_steps, finite_guard, march

__all__ = [
    "DarbouxState",
    "HeteroParams",
    "darboux_matrix_type2",
    "bt_solve_YZ",
    "bt_residual_t",
    "bt_residual_x",
    "bt_initial_data",
    "bt_evolve",
    "BTTrajectory",
    "LightConeField",
    "hetero_darboux",
    "hetero_darboux_matrix",
    "interface_residual",
    "hetero_bt_generate",
    "free_field_closed_form",
    "select_hetero_variant",
    "HETERO_VARIANTS",
]


@dataclass(frozen=True)
class DarbouxState:
    """Entries of the type-II defect matrix with its parameter theta."""

    X: complex
    Y: complex
    Z: complex
    theta: complex

    def __post_init__(self):
        if self.X == 0:
            raise ValueError("entry X must be nonzero")


@dataclass(frozen=True)
class HeteroParams:
    """Coupling of the modified Liouville pair and the interface parameter."""

    c: complex
    Theta: complex

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("a vanishing coupling makes the interface trivial")


def darboux_matrix_type2(d: DarbouxState, u: complex) -> np.ndarray:
    """[[u e^-th X - u^-1 e^th / X, Y], [Z, u e^-th / X - u^-1 e^th X]]."""
    em, ep = np.exp(-d.theta), np.exp(d.theta)
    return np.array(
        [
            [u * em * d.X - ep / (u * d.X), d.Y],
            [d.Z, u * em / d.X - ep * d.X / u],
        ],
        dtype=complex,
    )


# -- auto transformation: algebraic layer ---------------------------------------


def _exponentials(phi, phi_tilde, theta):
    em = np.exp(-0.5j * (phi + phi_tilde))  # e^{-i(phi + phi~)/2}
    ep = np.exp(+0.5j * (phi + phi_tilde))
    et, eti = np.exp(theta), np.exp(-theta)
    return em, ep, et, eti


def bt_solve_YZ(phi, phi_tilde, phi_t, phi_tilde_t, phi_x, phi_tilde_x, theta):
    """Solve the diagonal pair for (Y, Z).

    i(phi~_t - phi_t) = -2Y (e^th em + e^-th ep) + 2Z e^-th em
    i(phi~_x - phi_x) = -2Y (e^th em - e^-th ep) - 2Z e^-th em

    with em/ep the unit exponentials of -+(phi + phi~)/2.  The determinant of
    the system is 8 em^2, which never vanishes for finite fields; the guard
    stays for ill-conditioned extreme inputs.
    """
    em, ep, et, eti = _exponentials(phi, phi_tilde, theta)
    rhs_t = 1j * (np.asarray(phi_tilde_t) - np.asarray(phi_t))
    rhs_x = 1j * (np.asarray(phi_tilde_x) - np.asarray(phi_x))
    det = 8.0 * em * em
    if np.any(np.abs(det) < 1e-300):
        raise ValueError("degenerate configuration: diagonal system is singular")
    # add the equations to eliminate Z, then back-substitute
    y = (rhs_t + rhs_x) / (-4.0 * et * em)
    z = (rhs_t + 2.0 * y * (et * em + eti * ep)) / (2.0 * eti * em)
    return y, z


def _sinh_gap(phi, phi_tilde):
    return np.sinh(1j * (np.asarray(phi_tilde) - np.asarray(phi)))


def bt_residual_t(phi, phi_tilde, phi_x, phi_tilde_x, Y, Z, Y_t, Z_t, theta):
    """Residuals of the time-flow equations for the off-diagonal entries.

    r_Y = Y_t + (i/2)(phi_x + phi~_x) Y + e^-th em sinh(i(phi~ - phi))
    r_Z = Z_t - (i/2)(phi_x + phi~_x) Z - (e^th em + e^-th ep) sinh(i(phi~ - phi))
    """
    em, ep, et, eti = _exponentials(phi, phi_tilde, theta)
    s = _sinh_gap(phi, phi_tilde)
    drag = 0.5j * (np.asarray(phi_x) + np.asarray(phi_tilde_x))
    r_y = np.asarray(Y_t) + drag * Y + eti * em * s
    r_z = np.asarray(Z_t) - drag * Z - (et * em + eti * ep) * s
    return r_y, r_z


def bt_residual_x(phi, phi_tilde, phi_t, phi_tilde_t, Y, Z, Y_x, Z_x, theta):
    """Residuals of the space-flow equations (time-like defect picture).

    Relative to the time flow the source of r_Y flips sign and the drag uses
    time derivatives:

    r_Y = Y_x + (i/2)(phi_t + phi~_t) Y - e^-th em sinh(i(phi~ - phi))
    r_Z = Z_x - (i/2)(phi_t + phi~_t) Z - (e^th em - e^-th ep) sinh(i(phi~ - phi))
    """
    em, ep, et, eti = _exponentials(phi, phi_tilde, theta)
    s = _sinh_gap(phi, phi_tilde)
    drag = 0.5j * (np.asarray(phi_t) + np.asarray(phi_tilde_t))
    r_y = np.asarray(Y_x) + drag * Y - eti * em * s
    r_z = np.asarray(Z_x) - drag * Z - (et * em - eti * ep) * s
    return r_y, r_z


# -- auto transformation: evolution ----------------------------------------------


def _tilde_time_derivative(phi_t, Y, Z, em, ep, et, eti):
    # diagonal equation solved for phi~_t
    rhs = -2.0 * Y * (et * em + eti * ep) + 2.0 * Z * eti * em
    return np.asarray(phi_t) - 1j * rhs


def _one_sided_derivative(arr, h):
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * h)
    out[0] = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * h)
    out[-1] = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * h)
    return out


def bt_initial_data(background, x: np.ndarray, t0: float, theta: complex,
                    phi_tilde_seed: complex, y_seed: complex, z_seed: complex):
    """Integrate the space half of the transformation along the initial slice.

    Starting from seed values at x[0], marches (phi~, Y, Z) across the
    uniform grid x so that the diagonal pair and the space-flow equations
    all hold at t = t0.  The result is admissible Cauchy data for
    :func:`bt_evolve`; arbitrary profiles are not, because the
    transformation determines its image up to constants only.  A non-finite
    stage raises :class:`~laxkit.stepping.Aborted` (its t is the x position).
    """

    def rhs(xv, state):
        pt, yv, zv = state
        phi = background.phi(xv, t0)
        phi_t = background.phi_t(xv, t0)
        phi_x = background.phi_x(xv, t0)
        em, ep, et, eti = _exponentials(phi, pt, theta)
        s = np.sinh(1j * (pt - phi))
        delta_x = 2j * yv * (et * em - eti * ep) + 2j * zv * eti * em
        pt_t = _tilde_time_derivative(phi_t, yv, zv, em, ep, et, eti)
        drag = 0.5j * (phi_t + pt_t)
        dy = -drag * yv + eti * em * s
        dz = drag * zv + (et * em - eti * ep) * s
        return (phi_x + delta_x, dy, dz)

    rows = [(complex(phi_tilde_seed), complex(y_seed), complex(z_seed))]
    return march(
        rhs, rows[0], (x[-1] - x[0]) / (len(x) - 1), len(x) - 1,
        finite_guard(("phi~", "Y", "Z")), lambda k, xv, y: rows.append(y),
        lambda: tuple(np.array(col, dtype=complex) for col in zip(*rows)), t0=x[0],
    )


@dataclass
class BTTrajectory:
    """Evolved transformation data on a closed x-interval.

    No boundary conditions exist for this initial-boundary-value problem, so
    values outside the domain of determinacy of the initial slice (points
    within distance t of an edge, unit characteristic speed) depend on the
    extrapolating edge stencils.  All diagnostics therefore restrict to the
    causal interior.
    """

    times: np.ndarray
    x: np.ndarray
    phi_tilde: np.ndarray      # (nt, nx)
    X: np.ndarray              # (nt, nx)
    Y: np.ndarray
    Z: np.ndarray

    def _causal(self, t: float) -> np.ndarray:
        elapsed = t - self.times[0]
        return (self.x >= self.x[0] + elapsed) & (self.x <= self.x[-1] - elapsed)

    def x_relation_error(self, background) -> float:
        """Max gap between the evolved X and e^{i(phi~ - phi)/2}."""
        worst = 0.0
        for k, t in enumerate(self.times):
            keep = self._causal(t)
            if not np.any(keep):
                break
            phi = background.phi(self.x[keep], t)
            target = np.exp(0.5j * (self.phi_tilde[k][keep] - phi))
            worst = max(worst, float(np.max(np.abs(self.X[k][keep] - target))))
        return worst

    def pde_residual(self) -> float:
        """Causal-interior finite-difference residual of the field equation."""
        pt = self.phi_tilde
        dt = self.times[1] - self.times[0]
        h = self.x[1] - self.x[0]
        inner = pt[1:-1, 1:-1]
        ptt = (pt[2:, 1:-1] - 2 * inner + pt[:-2, 1:-1]) / dt**2
        pxx = (pt[1:-1, 2:] - 2 * inner + pt[1:-1, :-2]) / h**2
        res = np.abs(ptt - pxx - 4j * np.exp(-2j * inner))
        worst = 0.0
        for k, t in enumerate(self.times[1:-1], start=1):
            keep = self._causal(t)[1:-1]
            if np.any(keep):
                worst = max(worst, float(np.max(res[k - 1][keep])))
        return worst

    def x_flow_residual(self, background, theta: complex) -> float:
        """Causal-interior residual of the space-flow equations."""
        worst = 0.0
        h = self.x[1] - self.x[0]
        for k, t in enumerate(self.times):
            keep = self._causal(t)
            if not np.any(keep):
                break
            phi = background.phi(self.x, t)
            phi_t = background.phi_t(self.x, t)
            pt = self.phi_tilde[k]
            em, ep, et, eti = _exponentials(phi, pt, theta)
            ptt = _tilde_time_derivative(phi_t, self.Y[k], self.Z[k], em, ep, et, eti)
            ry, rz = bt_residual_x(
                phi, pt, phi_t, ptt,
                self.Y[k], self.Z[k],
                _one_sided_derivative(self.Y[k], h),
                _one_sided_derivative(self.Z[k], h),
                theta,
            )
            worst = max(
                worst,
                float(np.max(np.abs(ry[keep]))),
                float(np.max(np.abs(rz[keep]))),
            )
        return worst


def bt_evolve(
    background,
    x: np.ndarray,
    theta: complex,
    dt: float,
    t_end: float,
    phi_tilde_seed: complex,
    y_seed: complex = 0.0,
    z_seed: complex = 0.0,
    t0: float = 0.0,
) -> BTTrajectory:
    """Evolve the transformation image of a known solution.

    The state (phi~, X, Y, Z) on the uniform grid x moves by the time half
    of the intertwining relations: the diagonal equation supplies phi~_t and
    dX/dt, the anti-diagonal flow moves (Y, Z).  Initial data comes from
    :func:`bt_initial_data`; the background must solve the field equation.
    A non-finite stage raises :class:`~laxkit.stepping.Aborted` with the
    partial trajectory.
    """
    steps = count_steps(dt, t_end)
    phi_tilde0, y0, z0 = bt_initial_data(
        background, x, t0, theta, phi_tilde_seed, y_seed, z_seed
    )
    x0_rel = np.exp(0.5j * (phi_tilde0 - background.phi(x, t0)))
    h = x[1] - x[0]

    def rhs(t, y_state):
        pt, xx, yv, zv = y_state
        phi = background.phi(x, t)
        phi_t = background.phi_t(x, t)
        phi_x = background.phi_x(x, t)
        em, ep, et, eti = _exponentials(phi, pt, theta)
        s = np.sinh(1j * (pt - phi))
        pt_x = _one_sided_derivative(pt, h)
        pt_t = _tilde_time_derivative(phi_t, yv, zv, em, ep, et, eti)
        drag = 0.5j * (phi_x + pt_x)
        dy = -drag * yv - eti * em * s
        dz = drag * zv + (et * em + eti * ep) * s
        dx_entry = -0.5j * (pt_x - phi_x) * xx - 2.0 * yv * et * np.exp(-1j * phi)
        return (pt_t, dx_entry, dy, dz)

    times, rows = [t0], [(phi_tilde0, x0_rel, y0, z0)]

    def record(k, t, y):
        times.append(t)
        rows.append(y)

    return march(
        rhs, rows[0], dt, steps, finite_guard(("phi~", "X", "Y", "Z")), record,
        lambda: BTTrajectory(np.array(times), x, *(np.array(col) for col in zip(*rows))),
        t0=t0,
    )


# -- hetero transformation --------------------------------------------------------


@dataclass(frozen=True)
class LightConeField:
    """Samples on a rectangle in half-sum light-cone coordinates.

    values[i, j] lives at (z[i], zbar[j]); x = z + zbar, t = z - zbar.
    """

    z: np.ndarray
    zbar: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "zbar", np.asarray(self.zbar, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.shape != (self.z.shape[0], self.zbar.shape[0]):
            raise ValueError("value grid does not match the coordinate axes")

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def dzbar(self) -> float:
        return float(self.zbar[1] - self.zbar[0])

    @staticmethod
    def from_function(fn, z: np.ndarray, zbar: np.ndarray) -> "LightConeField":
        zz, bb = np.meshgrid(z, zbar, indexing="ij")
        return LightConeField(z, zbar, fn(zz, bb))

    def derivative_z(self) -> np.ndarray:
        out = np.empty_like(self.values)
        out[1:-1] = (self.values[2:] - self.values[:-2]) / (2 * self.dz)
        out[0] = (-3 * self.values[0] + 4 * self.values[1] - self.values[2]) / (2 * self.dz)
        out[-1] = (3 * self.values[-1] - 4 * self.values[-2] + self.values[-3]) / (2 * self.dz)
        return out

    def derivative_zbar(self) -> np.ndarray:
        v = self.values.T
        d = self.dzbar
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2 * d)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * d)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * d)
        return out.T

    def derivative_t(self) -> np.ndarray:
        return 0.5 * (self.derivative_z() - self.derivative_zbar())

    def derivative_x(self) -> np.ndarray:
        return 0.5 * (self.derivative_z() + self.derivative_zbar())


HETERO_VARIANTS = ("difference-imag", "printed-imag", "printed-real")


def hetero_darboux(phi, phi_tilde, variant: str = "difference-imag"):
    """Entries (A, B, X, Z) of the interface Darboux matrix.

    difference-imag (selected by the residual scan):
        A = X = e^{i(phi~ - phi)/2},   Z = B = e^{i(phi~ + phi)/2}
    printed-imag:
        A = X = e^{i(phi~ + phi)/2},   Z = B = e^{i(phi~ - phi)/2}
    printed-real:
        A = X = e^{i(phi~ + phi)/2},   Z = B = e^{(phi~ - phi)/2}
    """
    phi = np.asarray(phi, dtype=complex)
    phi_tilde = np.asarray(phi_tilde, dtype=complex)
    if variant == "difference-imag":
        a = np.exp(0.5j * (phi_tilde - phi))
        zb = np.exp(0.5j * (phi_tilde + phi))
    elif variant == "printed-imag":
        a = np.exp(0.5j * (phi_tilde + phi))
        zb = np.exp(0.5j * (phi_tilde - phi))
    elif variant == "printed-real":
        a = np.exp(0.5j * (phi_tilde + phi))
        zb = np.exp(0.5 * (phi_tilde - phi))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return a, zb, a, zb  # (A, B, X, Z) with A = X and Z = B


def hetero_darboux_matrix(phi, phi_tilde, params: HeteroParams, lam: complex,
                          variant: str = "difference-imag") -> np.ndarray:
    a, b, xx, zz = hetero_darboux(phi, phi_tilde, variant)
    shape = np.broadcast(np.asarray(phi), np.asarray(phi_tilde)).shape
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = xx * np.exp(-lam - params.Theta)
    out[..., 1, 0] = zz * np.exp(lam + params.Theta)
    out[..., 1, 1] = b
    return out


def _modified_liouville_V(phi_tilde, phi_tilde_x, c: complex, lam: complex) -> np.ndarray:
    """Time-Lax of the modified Liouville pair, tilded fields throughout.

    The sign of the upper-right entry is opposite to the lower-right one;
    zero curvature against the spatial operator of the modified pair then
    returns the modified field equation with its +4i c^2 e^{2i phi~}
    potential, and no other sign assignment does.
    """
    phi_tilde = np.asarray(phi_tilde, dtype=complex)
    out = np.empty(phi_tilde.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -0.5j * phi_tilde_x
    out[..., 0, 1] = -c * np.exp(-lam + 1j * phi_tilde)
    out[..., 1, 0] = c * np.exp(lam + 1j * phi_tilde)
    out[..., 1, 1] = 0.5j * phi_tilde_x
    return out


def interface_residual(
    phi: LightConeField,
    phi_tilde: LightConeField,
    params: HeteroParams,
    lam: complex,
    variant: str = "difference-imag",
) -> float:
    """Max-norm of d Ltilde/dt - (V+ Ltilde - Ltilde V-) over the interior.

    V+ is the modified Liouville time-Lax built from phi~, V- the scalar
    free-field one from phi; the time derivative of the entries is taken by
    finite differences on the light-cone grid.
    """
    lt = hetero_darboux_matrix(phi.values, phi_tilde.values, params, lam, variant)
    lt_field = [
        [LightConeField(phi.z, phi.zbar, lt[..., i, j]) for j in range(2)] for i in range(2)
    ]
    dlt = np.empty_like(lt)
    for i in range(2):
        for j in range(2):
            dlt[..., i, j] = lt_field[i][j].derivative_t()
    vp = _modified_liouville_V(phi_tilde.values, phi_tilde.derivative_x(), params.c, lam)
    vm = -0.5j * phi.derivative_x()  # scalar multiple of the identity per point
    res = dlt - (vp @ lt - lt * vm[..., None, None])
    return float(np.max(np.abs(res[1:-1, 1:-1])))


def _pole_guard(reason: str, field: str, phi_tilde, blowup: float):
    """Guard for the pole w -> 0 of the generated solution i log w, where
    |e^{i phi~}| = e^{-Im phi~} passes ``blowup`` (or phi~ stops being
    finite when a node lands on the pole); ``phi_tilde(t, y)`` maps the
    march state to phi~."""
    limit = np.log(blowup)

    def guard(t, y):
        pt = np.asarray(phi_tilde(t, y))
        if np.abs(pt.imag).max() <= limit and np.isfinite(pt.real).all():
            return None
        return reason, field, int(np.argmax(np.where(np.isfinite(pt), np.abs(pt.imag), np.inf)))

    return guard


def hetero_bt_generate(
    f,
    g,
    params: HeteroParams,
    z: np.ndarray,
    zbar: np.ndarray,
    phi_tilde_corner: complex = 0.0,
    blowup: float = 1e8,
) -> tuple[LightConeField, LightConeField]:
    """Generate a Liouville solution from a free field phi = f(z) + g(zbar).

    Integrates i d(phi~ - phi)/dz = -2 c e^Theta e^{i(phi~ + phi)} along the
    seed line zbar = zbar[0], then i d(phi~ + phi)/dzbar = -2 c e^-Theta
    e^{i(phi~ - phi)} along every zbar characteristic, fourth order in both
    sweeps over the uniform axes.  Returns (phi~ field, phi field) on the
    rectangle.  A growing |e^{i phi~}| signals the pole of the generated
    solution and raises :class:`~laxkit.stepping.Aborted`, whose t is the
    sweep coordinate and whose index runs over the other axis: the pole is
    near (t, zbar[0]) on the seed line and near (z[index], t) in the fill.
    """
    c, th = params.c, params.Theta
    zb0, g0, fz = zbar[0], g(zbar[0]), f(z)

    # seed sweep in z for psi = phi~ - phi
    def seed_rhs(zv, y):
        phi = f(zv) + g0
        return (2j * c * np.exp(th) * np.exp(1j * (y[0] + 2.0 * phi)),)

    seed = [phi_tilde_corner - (f(z[0]) + g0)]
    psi_line = march(
        seed_rhs, (seed[0],), (z[-1] - z[0]) / (len(z) - 1), len(z) - 1,
        _pole_guard("pole in the z sweep", "phi~ at zbar", lambda t, y: y[0] + (f(t) + g0),
                    blowup),
        lambda k, t, y: seed.append(y[0]), lambda: np.array(seed, dtype=complex), t0=z[0],
    )

    # fill sweep in zbar for chi = phi~ + phi, all z columns at once
    def fill_rhs(bv, y):
        phi = fz + g(bv)
        return (2j * c * np.exp(-th) * np.exp(1j * (y[0] - 2.0 * phi)),)

    columns = [psi_line + (fz + g0)]  # phi~ on the seed line
    phi_tilde = march(
        fill_rhs, (columns[0] + (fz + g0),), (zbar[-1] - zb0) / (len(zbar) - 1), len(zbar) - 1,
        _pole_guard("pole in the zbar sweep", "phi~ at z", lambda t, y: y[0] - (fz + g(t)),
                    blowup),
        lambda k, t, y: columns.append(y[0] - (fz + g(zbar[k]))),
        lambda: LightConeField(z, zbar[: len(columns)], np.stack(columns, axis=1)), t0=zb0,
    )
    return phi_tilde, LightConeField.from_function(lambda zz, bb: f(zz) + g(bb), z, zbar)


def free_field_closed_form(params: HeteroParams, z, zbar, z0: float, zbar0: float,
                           phi_tilde_corner: complex = 0.0):
    """Exact image of the vanishing free field:

    e^{-i phi~} = e^{-i phi~(corner)} + 2 c e^Theta (z - z0)
                  + 2 c e^-Theta (zbar - zbar0).
    """
    zz, bb = np.meshgrid(np.asarray(z, dtype=float), np.asarray(zbar, dtype=float),
                         indexing="ij")
    w = (
        np.exp(-1j * phi_tilde_corner)
        + 2.0 * params.c * np.exp(params.Theta) * (zz - z0)
        + 2.0 * params.c * np.exp(-params.Theta) * (bb - zbar0)
    )
    return 1j * np.log(w)


def modified_equation_residual(phi_tilde: LightConeField, c: complex) -> float:
    """Interior residual of phi~_xx - phi~_tt + 4i c^2 e^{2i phi~} = 0.

    In the half-sum light-cone coordinates the wave operator is the mixed
    second derivative d^2/dz dzbar.
    """
    v = phi_tilde.values
    mixed = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (
        4.0 * phi_tilde.dz * phi_tilde.dzbar
    )
    res = mixed + 4j * c * c * np.exp(2j * v[1:-1, 1:-1])
    return float(np.max(np.abs(res)))


def z_equation_residual(phi_tilde: LightConeField, phi: LightConeField,
                        params: HeteroParams) -> float:
    """Interior residual of the z-half of the generating relations.

    The fill sweep only integrates the zbar-half, so this measures the
    compatibility of the pair on the whole rectangle.
    """
    dpt = phi_tilde.derivative_z()
    dphi = phi.derivative_z()
    res = 1j * (dpt - dphi) + 2.0 * params.c * np.exp(params.Theta) * np.exp(
        1j * (phi_tilde.values + phi.values)
    )
    return float(np.max(np.abs(res[1:-1, 1:-1])))


def select_hetero_variant(params: HeteroParams | None = None) -> tuple[str, dict[str, float]]:
    """Pick the Darboux entry variant by measuring the interface residual.

    Generates a reference transformation pair and evaluates the intertwining
    residual for every known variant.  Returns (winner, per-variant
    residuals); the module default is the winner of this scan, and the tests
    assert that it stays so.
    """
    if params is None:
        params = HeteroParams(0.35, 0.15)
    z = np.linspace(0.0, 0.6, 49)
    zbar = np.linspace(0.0, 0.5, 41)
    pt, phi = hetero_bt_generate(
        lambda zz: 0.2 * np.sin(zz), lambda bb: 0.15 * np.cos(bb), params, z, zbar
    )
    scores = {
        v: interface_residual(phi, pt, params, 0.3, variant=v) for v in HETERO_VARIANTS
    }
    winner = min(scores, key=scores.get)
    return winner, scores
