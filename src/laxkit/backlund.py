"""Type-II Darboux matrices and Backlund generators for the Liouville model.

Space-like picture: a defect matrix with entries (X, Y, Z) and parameter
theta intertwines two Liouville solutions phi and phi~.  Matching powers of
u in the intertwining relations fixes X = e^{i(phi~ - phi)/2}, a linear
system for (Y, Z) from the diagonal entries, and first-order flow equations
for (Y, Z) from the anti-diagonal entries.  The drag coefficient in those
flow equations is (i/2)(phi_x + phi~_x); the factor 1/2 is forced by the
u-power matching and is what makes the flow compatible with the diagonal
system (tests drive a full evolution through it).

Each of these equations is written once: the t and x halves of the diagonal
pair in ``_tilde_t`` and ``_tilde_x``, the (Y, Z) flows in ``_time_flow`` and
``_space_flow``.  The residuals :func:`bt_residual_t` and
:func:`bt_residual_x` are derivative minus flow, and :func:`bt_evolve` and
:func:`bt_initial_data` march the same flows.  The matrix itself is the
lattice defect matrix, :func:`~laxkit.lattice_defect.defect_lax_value`.

Hetero picture: a triangular-free Darboux matrix interfaces the Liouville
theory (coupling c, modified sign convention with potential +4i c^2 e^{2i
phi~}) with the free massless field.  In half-sum light-cone coordinates
z = (x + t)/2, zbar = (x - t)/2 the intertwining relation is equivalent to

    i d(phi~ - phi)/dz    = -2 c e^{Theta}  e^{i(phi~ + phi)},
    i d(phi~ + phi)/dzbar = -2 c e^{-Theta} e^{i(phi~ - phi)},

whose cross-derivatives reproduce both field equations.  For a free field
phi = f(z) + g(zbar) they are linear in R = e^{-i(phi~ - f + g)}:

    dR/dz = 2 c e^{Theta} e^{2i f(z)},   dR/dzbar = 2 c e^{-Theta} e^{-2i g(zbar)},

with right sides free of R (Liouville's own linearisation, J. Math. Pures
Appl. 18 (1853) 71), so :func:`hetero_bt_generate` forms R from two 1-D
integrals.  The matrix entries that realize the relation are A = X =
e^{i(phi~ - phi)/2} and Z = B = e^{i(phi~ + phi)/2}, paired with the
time-Lax of the modified pair whose upper-right sign is fixed by its own
zero-curvature relation.  :func:`select_hetero_variant` measures the
intertwining residual of these entries against two refuted assignments with
the entry roles swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice_defect import _type2_matrix
from .liouville import derivative_closed
from .rmatrix import _matrices
from .stepping import Abort, Aborted, bound_guard, count_steps, march, nan_max

__all__ = [
    "DarbouxState",
    "HeteroParams",
    "darboux_matrix_type2",
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
    """[[u e^-th X - u^-1 e^th / X, Y], [Z, u e^-th / X - u^-1 e^th X]], the
    lattice defect matrix with (Y, Z) in place of (zbar, z)."""
    return _type2_matrix(d.theta, d.X, d.Y, d.Z, u)


# -- auto transformation: algebraic layer ---------------------------------------


def _exponentials(phi, phi_tilde, rapidity):
    """(em, ep, e^theta, e^-theta, e^theta em + e^-theta ep), the last the
    term that both :func:`_tilde_t` and :func:`_time_flow` read; rapidity =
    np.exp((theta, -theta)), once per march.  One np.exp forms em and ep."""
    em, ep = np.exp(np.multiply.outer((-0.5j, 0.5j), phi + phi_tilde))
    et, eti = rapidity
    return em, ep, et, eti, et * em + eti * ep


def _tilde_t(phi_t, Y, Z, e):
    """phi~_t from the t half of the diagonal pair,
    i(phi~_t - phi_t) = -2Y (e^th em + e^-th ep) + 2Z e^-th em,
    with e = (em, ep, e^th, e^-th, e^th em + e^-th ep) from :func:`_exponentials`."""
    em, _, _, eti, sum_t = e
    return np.asarray(phi_t) - 1j * (-2.0 * Y * sum_t + 2.0 * Z * eti * em)


def _tilde_x(phi_x, Y, Z, e):
    """phi~_x from the x half of the diagonal pair,
    i(phi~_x - phi_x) = -2Y (e^th em - e^-th ep) - 2Z e^-th em."""
    em, ep, et, eti, _ = e
    return phi_x + (2j * Y * (et * em - eti * ep) + 2j * Z * eti * em)


def _time_flow(phi, phi_tilde, phi_x, phi_tilde_x, Y, Z, e):
    """(Y_t, Z_t) from the anti-diagonal entries of the time half:

    Y_t = -(i/2)(phi_x + phi~_x) Y - e^-th em sinh(i(phi~ - phi))
    Z_t =  (i/2)(phi_x + phi~_x) Z + (e^th em + e^-th ep) sinh(i(phi~ - phi))
    """
    em, _, _, eti, sum_t = e
    s = np.sinh(1j * (phi_tilde - phi))
    drag = 0.5j * (phi_x + phi_tilde_x)
    return -drag * Y - eti * em * s, drag * Z + sum_t * s


def _space_flow(phi, phi_tilde, phi_t, phi_tilde_t, Y, Z, e):
    """(Y_x, Z_x) from the anti-diagonal entries of the space half, where the
    Y source flips sign and the drag takes time derivatives:

    Y_x = -(i/2)(phi_t + phi~_t) Y + e^-th em sinh(i(phi~ - phi))
    Z_x =  (i/2)(phi_t + phi~_t) Z + (e^th em - e^-th ep) sinh(i(phi~ - phi))
    """
    em, ep, et, eti, _ = e
    s = np.sinh(1j * (phi_tilde - phi))
    drag = 0.5j * (phi_t + phi_tilde_t)
    return -drag * Y + eti * em * s, drag * Z + (et * em - eti * ep) * s


def bt_residual_t(phi, phi_tilde, phi_x, phi_tilde_x, Y, Z, Y_t, Z_t, theta):
    """Residuals (Y_t, Z_t) minus the time flow of the off-diagonal entries
    (:func:`_time_flow`)."""
    f_y, f_z = _time_flow(phi, phi_tilde, phi_x, phi_tilde_x, Y, Z,
                          _exponentials(phi, phi_tilde, np.exp((theta, -theta))))
    return np.asarray(Y_t) - f_y, np.asarray(Z_t) - f_z


def bt_residual_x(phi, phi_tilde, phi_t, phi_tilde_t, Y, Z, Y_x, Z_x, theta):
    """Residuals (Y_x, Z_x) minus the space flow of the off-diagonal entries
    (:func:`_space_flow`, the time-like defect picture)."""
    f_y, f_z = _space_flow(phi, phi_tilde, phi_t, phi_tilde_t, Y, Z,
                           _exponentials(phi, phi_tilde, np.exp((theta, -theta))))
    return np.asarray(Y_x) - f_y, np.asarray(Z_x) - f_z


# -- auto transformation: evolution ----------------------------------------------


# stage times per background evaluation, and interior rows per masked max of
# pde_residual: a block of 64 at 129 grid points keeps each background table
# near 130 KB
STAGE_BLOCK = 64


def bt_initial_data(background, x: np.ndarray, t0: float, theta: complex,
                    phi_tilde_seed: complex, y_seed: complex, z_seed: complex):
    """Integrate the space half of the transformation along the initial slice.

    Starting from seed values at x[0], marches (phi~, Y, Z) across the
    uniform grid x so that the diagonal pair and the space-flow equations
    all hold at t = t0.  The result is admissible Cauchy data for
    :func:`bt_evolve`; arbitrary profiles are not, because the
    transformation determines its image up to constants only.  A non-finite
    stage raises :class:`~laxkit.stepping.Aborted` (its t is the x position).
    The background is evaluated by one scalar ``fields(x, t0)`` call per
    distinct stage position.
    """
    rapidity = np.exp((theta, -theta))
    # stages 2 and 3 share their position, stage 4 at times the next step's first
    fields_at = lru_cache(maxsize=1)(lambda xv: background.fields(xv, t0))

    def rhs(xv, state):
        pt, yv, zv = state
        phi, phi_t, phi_x = fields_at(xv)
        e = _exponentials(phi, pt, rapidity)
        pt_t = _tilde_t(phi_t, yv, zv, e)
        return np.array((_tilde_x(phi_x, yv, zv, e), *_space_flow(phi, pt, phi_t, pt_t, yv, zv, e)))

    return march(rhs, np.array((phi_tilde_seed, y_seed, z_seed), dtype=complex),
                 (x[-1] - x[0]) / (len(x) - 1), len(x) - 1,
                 bound_guard((("phi~", 1), ("Y", 1), ("Z", 1))), lambda xs, ys: ys.T, t0=x[0])


@dataclass
class BTTrajectory:
    """Evolved transformation data on a closed x-interval.

    No boundary conditions exist for this initial-boundary-value problem, so
    values outside the domain of determinacy of the initial slice (points
    within distance t of an edge, unit characteristic speed) depend on the
    extrapolating edge stencils.  All diagnostics therefore restrict to the
    causal interior.  ``phi`` is the background the march read, at every
    kept time.
    """

    times: np.ndarray
    x: np.ndarray
    phi_tilde: np.ndarray      # (nt, nx)
    X: np.ndarray              # (nt, nx)
    Y: np.ndarray
    Z: np.ndarray
    phi: np.ndarray            # (nt, nx)

    def _causal(self, t) -> np.ndarray:
        """Mask of the causal interior at time t, or at a (B, 1) column of times."""
        elapsed = t - self.times[0]
        return (self.x >= self.x[0] + elapsed) & (self.x <= self.x[-1] - elapsed)

    def x_relation_error(self) -> float:
        """Max gap over the causal interior between the evolved X and
        e^{i(phi~ - phi)/2}, phi the background of the march."""
        target = np.exp(0.5j * (self.phi_tilde - self.phi))
        return float(np.max(np.abs(self.X - target)[self._causal(self.times[:, None])]))

    def pde_residual(self) -> float:
        """Causal-interior finite-difference residual of the field equation,
        one masked max per block of STAGE_BLOCK interior rows."""
        pt = self.phi_tilde
        dt = self.times[1] - self.times[0]
        h = self.x[1] - self.x[0]
        worst = 0.0
        for start in range(1, len(self.times) - 1, STAGE_BLOCK):
            stop = min(start + STAGE_BLOCK, len(self.times) - 1)
            keep = self._causal(self.times[start:stop, None])[:, 1:-1]
            if not np.any(keep):
                break
            inner = pt[start:stop, 1:-1]
            ptt = (pt[start + 1:stop + 1, 1:-1] - 2 * inner + pt[start - 1:stop - 1, 1:-1]) / dt**2
            pxx = (pt[start:stop, 2:] - 2 * inner + pt[start:stop, :-2]) / h**2
            res = np.abs(ptt - pxx - 4j * np.exp(-2j * inner))
            worst = nan_max(worst, float(np.max(res[keep])))
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
) -> BTTrajectory:
    """Evolve the transformation image of a known solution from t = 0.

    The state (phi~, X, Y, Z) on the uniform grid x moves by the time half
    of the intertwining relations: the diagonal equation supplies phi~_t and
    dX/dt, the anti-diagonal flow moves (Y, Z).  Initial data comes from
    :func:`bt_initial_data`; the background must solve the field equation
    and give ``fields(x, t) -> (phi, phi_t, phi_x)``, broadcasting a (B, 1)
    column of times t against the row x[None, :] to (B, len(x)) arrays, as
    :class:`~laxkit.exact.PeriodicSolution` does.
    A non-finite stage raises :class:`~laxkit.stepping.Aborted` with the
    partial trajectory.  t_end must be a whole multiple of dt.  The
    background is evaluated once per distinct stage time (stages 2 and 3
    share theirs, and stage 4 usually shares the next step's first), in one
    ``fields`` call per block of STAGE_BLOCK stage times, which also gives
    e^{-i phi} for the X entry and the trajectory's phi at each kept time
    k dt, the first stage time of step k + 1.  Block 0 is evaluated before
    the march, for the initial X entry, and one ``phi`` call gives the last
    kept time where it is not a stage time bit for bit.
    """
    steps = count_steps(dt, t_end)
    phi_tilde0, y0, z0 = bt_initial_data(background, x, 0.0, theta, phi_tilde_seed, y_seed, z_seed)
    h, nx = x[1] - x[0], len(x)
    rapidity = np.exp((theta, -theta))

    # the distinct stage times in the order the march reaches them, formed
    # as rk4_step forms them, so that each rhs call finds its own exactly
    stage_times = []
    for k in range(steps):
        t = k * dt
        for ts in (t, t + 0.5 * dt, t + 1.0 * dt):
            if not stage_times or ts != stage_times[-1]:
                stage_times.append(ts)
    slot = {t: i for i, t in enumerate(stage_times)}
    # the stage slot of each kept time k dt, as march forms it, -1 for none
    kept_slot = np.array([slot.get(k * dt, -1) for k in range(steps + 1)])
    phi_kept = np.empty((steps + 1, nx), complex)

    def evaluate(b):
        """(b, (phi, phi_t, phi_x, e^{-i phi})) of block b; copies the phi
        rows of the kept times among its stage times into phi_kept."""
        ts = np.array(stage_times[b * STAGE_BLOCK:(b + 1) * STAGE_BLOCK])
        phi, phi_t, phi_x = background.fields(x[None, :], ts[:, None])
        mine = kept_slot // STAGE_BLOCK == b
        phi_kept[mine] = phi[kept_slot[mine] % STAGE_BLOCK]
        return b, (phi, phi_t, phi_x, np.exp(-1j * phi))

    block = list(evaluate(0))  # the latest block
    if kept_slot[-1] < 0:
        phi_kept[-1] = background.phi(x, steps * dt)
    x0_rel = np.exp(0.5j * (phi_tilde0 - phi_kept[0]))

    def rhs(t, y):
        pt, xx, yv, zv = y.reshape(4, nx)
        b, row = divmod(slot[t], STAGE_BLOCK)
        if b != block[0]:
            block[:] = evaluate(b)
        phi, phi_t, phi_x, e_phi = (f[row] for f in block[1])
        e = _exponentials(phi, pt, rapidity)
        pt_x = derivative_closed(pt, h)
        dx_entry = -0.5j * (pt_x - phi_x) * xx - 2.0 * yv * rapidity[0] * e_phi
        dy, dz = _time_flow(phi, pt, phi_x, pt_x, yv, zv, e)
        return np.concatenate((_tilde_t(phi_t, yv, zv, e), dx_entry, dy, dz))

    return march(rhs, np.concatenate((phi_tilde0, x0_rel, y0, z0)), dt, steps,
                 bound_guard(tuple((name, nx) for name in ("phi~", "X", "Y", "Z"))),
                 lambda times, ys: BTTrajectory(times, x, *ys.reshape(-1, 4, nx).swapaxes(0, 1),
                                                phi_kept[:len(times)]))


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

    def derivative_z(self) -> np.ndarray:
        return derivative_closed(self.values, self.dz, axis=0)

    def derivative_zbar(self) -> np.ndarray:
        return derivative_closed(self.values, self.dzbar, axis=1)

    def derivative_x(self) -> np.ndarray:
        return 0.5 * (self.derivative_z() + self.derivative_zbar())


def hetero_darboux(phi, phi_tilde):
    """Entries (A, B, X, Z) of the interface Darboux matrix:

        A = X = e^{i(phi~ - phi)/2},   Z = B = e^{i(phi~ + phi)/2}
    """
    phi = np.asarray(phi, dtype=complex)
    phi_tilde = np.asarray(phi_tilde, dtype=complex)
    a = np.exp(0.5j * (phi_tilde - phi))
    zb = np.exp(0.5j * (phi_tilde + phi))
    return a, zb, a, zb


def _interface_matrix(ax, zb, params: HeteroParams, lam: complex) -> np.ndarray:
    """[[A, X e^{-lam - Theta}], [Z e^{lam + Theta}, B]] with A = X = ax and Z = B = zb."""
    return _matrices(ax, ax * np.exp(-lam - params.Theta), zb * np.exp(lam + params.Theta), zb)


def hetero_darboux_matrix(phi, phi_tilde, params: HeteroParams, lam: complex) -> np.ndarray:
    """The interface Darboux matrix at lam, with the entries of :func:`hetero_darboux`."""
    a, b, _, _ = hetero_darboux(phi, phi_tilde)
    return _interface_matrix(a, b, params, lam)


def _modified_liouville_V(phi_tilde, phi_tilde_x, c: complex, lam: complex) -> np.ndarray:
    """Time-Lax of the modified Liouville pair, tilded fields throughout.

    The sign of the upper-right entry is opposite to the lower-right one;
    zero curvature against the spatial operator of the modified pair then
    returns the modified field equation with its +4i c^2 e^{2i phi~}
    potential, and no other sign assignment does.
    """
    phi_tilde = np.asarray(phi_tilde, dtype=complex)
    return _matrices(-0.5j * phi_tilde_x, -c * np.exp(-lam + 1j * phi_tilde),
                     c * np.exp(lam + 1j * phi_tilde), 0.5j * phi_tilde_x)


def interface_residual(phi: LightConeField, phi_tilde: LightConeField, params: HeteroParams,
                       lam: complex) -> float:
    """Max-norm of d Ltilde/dt - (V+ Ltilde - Ltilde V-) over the interior.

    V+ is the modified Liouville time-Lax built from phi~, V- the scalar
    free-field one from phi; the time derivative of the entries is taken by
    finite differences on the light-cone grid.
    """
    lt = hetero_darboux_matrix(phi.values, phi_tilde.values, params, lam)
    return _intertwining_residual(lt, phi, phi_tilde, params, lam)


def _intertwining_residual(lt: np.ndarray, phi: LightConeField, phi_tilde: LightConeField,
                           params: HeteroParams, lam: complex) -> float:
    """:func:`interface_residual` of the (nz, nzbar, 2, 2) matrix stack lt."""
    dlt = 0.5 * (derivative_closed(lt, phi.dz, axis=0) - derivative_closed(lt, phi.dzbar, axis=1))
    vp = _modified_liouville_V(phi_tilde.values, phi_tilde.derivative_x(), params.c, lam)
    vm = -0.5j * phi.derivative_x()  # scalar multiple of the identity per point
    res = dlt - (vp @ lt - lt * vm[..., None, None])
    return float(np.max(np.abs(res[1:-1, 1:-1])))


def hetero_bt_generate(f, g, params: HeteroParams, z: np.ndarray,
                       zbar: np.ndarray) -> tuple[LightConeField, LightConeField]:
    """Generate a Liouville solution from a free field phi = f(z) + g(zbar),
    with phi~ = 0 at the corner (z[0], zbar[0]); returns (phi~ field, phi
    field) on the rectangle.  f and g map a 1-D array of coordinates.

    R = e^{-i(phi~ - f + g)} is e^{i(f(z0) - g(zbar0))} plus 2 c e^Theta and
    2 c e^-Theta times cumulative Simpson sums of e^{2if} along z and of
    e^{-2ig} along zbar (module docstring), the RK4 march of a flow free of
    the state: fourth order.  phi~ = f - g + i log R, log R continued from
    i(f(z0) - g(zbar0)).  A zero of R is a pole of e^{i phi~} that the grid
    lines may miss: a cell is flagged where |e^{i phi~}| leaves [1e-8, 1e8]
    at a corner, or where R winds around it (the argument principle on its
    corners).  The first flagged cell in z-row order, from (z[i], zbar[j]),
    raises :class:`~laxkit.stepping.Aborted` with the record "after step i
    (t = z[i]), cell at z[i], zbar[j]" and phi~ on the rows z[:i].
    """
    def simpson(fn, axis, sign):
        """fn on the axis, and the integral of e^{2i sign fn} from axis[0] on."""
        nodes = fn(axis)
        e, mid = np.exp(2j * sign * nodes), np.exp(2j * sign * fn(0.5 * (axis[:-1] + axis[1:])))
        cells = np.diff(axis) / 6.0 * (e[:-1] + 4.0 * mid + e[1:])
        return nodes, np.concatenate(([0.0], np.cumsum(cells)))

    (fz, iz), (gb, ib) = simpson(f, z, 1.0), simpson(g, zbar, -1.0)
    delta = (fz - fz[0])[:, None] - (gb - gb[0])[None, :]
    # w = R / R(z0, zbar0), so phi~ = delta + i log w with log w continued from 0
    scale = 2.0 * params.c * np.exp(-1j * (fz[0] - gb[0]))
    w = 1.0 + scale * np.exp(params.Theta) * iz[:, None] + scale * np.exp(-params.Theta) * ib
    # continued along row 0, then down each column, arg w turns along a zbar edge
    # by its wrapped step plus 2 pi per winding of the cells between it and row 0
    arg = np.angle(w)
    arg[0] = np.unwrap(arg[0])
    arg = np.unwrap(arg, axis=0)
    turns = np.round(np.diff(arg, axis=1) / (2.0 * np.pi))
    size = np.abs(w) * np.exp(delta.imag)  # e^{Im phi~}, without a log of 0
    off = ~((1e-8 <= size) & (size <= 1e8))
    cells = off[:-1, :-1] | off[1:, :-1] | off[:-1, 1:] | off[1:, 1:] | (turns[1:] != turns[:-1])
    i, j = np.unravel_index(np.argmax(cells), cells.shape) if cells.any() else (len(z), 0)
    phi_tilde = LightConeField(z[:i], zbar, delta[:i] - arg[:i] + 1j * np.log(np.abs(w[:i])))
    if i < len(z):
        raise Aborted(Abort(float(z[i]), int(i), None, "pole of e^{i phi~}",
                            f"cell at z[{i}], zbar", int(j)), phi_tilde)
    return phi_tilde, LightConeField(z, zbar, fz[:, None] + gb[None, :])


def free_field_closed_form(params: HeteroParams, z, zbar, z0: float, zbar0: float):
    """Exact image of the vanishing free field with phi~ = 0 at (z0, zbar0):

    e^{-i phi~} = 1 + 2 c e^Theta (z - z0) + 2 c e^-Theta (zbar - zbar0).
    """
    zz, bb = np.meshgrid(np.asarray(z, dtype=float), np.asarray(zbar, dtype=float),
                         indexing="ij")
    # complex from the start, so that real c and Theta still take the complex log
    w = (
        1.0 + 0.0j
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


def select_hetero_variant(phi_tilde: LightConeField, phi: LightConeField,
                          params: HeteroParams) -> tuple[str, dict[str, float]]:
    """Score the Darboux entries of :func:`hetero_darboux` against the two
    refuted assignments with the entry roles swapped:

        difference-imag:  A = X = e^{i(phi~ - phi)/2},   Z = B = e^{i(phi~ + phi)/2}
        printed-imag:     A = X = e^{i(phi~ + phi)/2},   Z = B = e^{i(phi~ - phi)/2}
        printed-real:     A = X = e^{i(phi~ + phi)/2},   Z = B = e^{(phi~ - phi)/2}

    Evaluates the intertwining residual of each on the transformation pair
    (phi~, phi) of :func:`hetero_bt_generate` at lam = 0.3; the
    difference-imag score is ``interface_residual(phi, phi_tilde, params,
    0.3)``.  Returns (winner, residual per assignment).
    """
    lam, total, diff = 0.3, phi_tilde.values + phi.values, phi_tilde.values - phi.values
    entries = {
        "difference-imag": hetero_darboux(phi.values, phi_tilde.values)[:2],
        "printed-imag": (np.exp(0.5j * total), np.exp(0.5j * diff)),
        "printed-real": (np.exp(0.5j * total), np.exp(0.5 * diff)),
    }
    scores = {name: _intertwining_residual(_interface_matrix(ax, zb, params, lam),
                                           phi, phi_tilde, params, lam)
              for name, (ax, zb) in entries.items()}
    winner = min(scores, key=scores.get)
    return winner, scores
