"""Type-II Darboux matrices and Backlund generators for the Liouville model.

Space-like picture: a defect matrix with entries (X, Y, Z) and parameter
theta intertwines two Liouville solutions phi and phi~.  Matching powers of
u in the intertwining relations fixes X = e^{i(phi~ - phi)/2}, a linear
system for (Y, Z) from the diagonal entries, and first-order flow equations
for (Y, Z) from the anti-diagonal entries.  The drag coefficient in those
flow equations is (i/2)(phi_x + phi~_x); the factor 1/2 is forced by the
u-power matching and is what makes the flow compatible with the diagonal
system (tests drive a full evolution through it).

The t and x halves share one form and differ in a source pair of
exponentials, (-e^-th em, e^th em + e^-th ep) in time and (e^-th em, e^th em -
e^-th ep) in space, em, ep = e^{-+i(phi + phi~)/2}: ``_exponentials`` forms
the pairs, ``_tilde`` the diagonal pair and ``_flow`` the (Y, Z) flows, each
written once and evaluated on stacked rows, (Y, Z) as one (2, n) array.  The
residuals :func:`bt_residual_t` and :func:`bt_residual_x` are derivative
minus flow, and :func:`bt_evolve` and :func:`bt_initial_data` march the same
flows.  The matrix itself is the lattice defect matrix,
:func:`~laxkit.lattice_defect.defect_lax_value`.

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


# the exponents of (e^{-i phi~/2}, e^{i phi~/2}), and the drag's factors on (Y, Z)
_HALF = np.array((-0.5j, 0.5j))


def _background_rows(phi, rapidity, signs):
    """The rows of the background phi that :func:`_exponentials` reads, on
    new leading axes: per half, sign 1 the time half and -1 the space half,
    its two pair rows [-sign e^-th h, 0] and [e^th h, sign e^-th / h], then
    the row [1/h, h], with h = e^{-i phi/2} and rapidity = np.exp((theta,
    -theta)).  A stage times them by (e^{-i phi~/2}, e^{i phi~/2}), so that
    it takes no transcendental of phi."""
    h, h_inv = np.exp(np.multiply.outer(_HALF, phi))
    et, eti = rapidity
    rows = []
    for sign in signs:
        rows += [(-sign * eti * h, np.zeros_like(h)), (et * h, sign * eti * h_inv)]
    return np.array(rows + [(h_inv, h)])


def _exponentials(rows, phi_tilde):
    """(pairs, s) of the halves whose rows (:func:`_background_rows`) hold
    the background: each half's source pair
    (-sign e^-th em, e^th em + sign e^-th ep), with em, ep =
    e^{-+i(phi + phi~)/2}, the pairs one after the other on the first axis,
    and s = sinh(i(phi~ - phi)) = (a^2 - a^-2) / 2, a = e^{i(phi~ - phi)/2}."""
    p = rows * np.exp(np.multiply.outer(_HALF, phi_tilde))
    a = p[-1] * p[-1]
    return p[:-1, 0] + p[:-1, 1], 0.5 * (a[1] - a[0])


def _tilde(phi_d, yz, pair):
    """phi~ differentiated along a half of the diagonal pair, from the
    half's source pair (:func:`_exponentials`),
    phi~_d = phi_d + 2i (Y pair_1 + Z pair_0); that is

        i(phi~_t - phi_t) = -2Y (e^th em + e^-th ep) + 2Z e^-th em,
        i(phi~_x - phi_x) = -2Y (e^th em - e^-th ep) - 2Z e^-th em,

    with yz = (Y, Z) stacked on the first axis."""
    w = yz * pair[::-1]
    return phi_d + 2j * (w[0] + w[1])


def _flow(phi_o, phi_tilde_o, yz, pair, s):
    """(Y, Z) differentiated along a half, from the anti-diagonal entries:
    the drag (i/2)(phi_o + phi~_o) (-Y, Z), its derivatives taken along the
    other half, plus the half's source pair times s (:func:`_exponentials`);
    that is

        Y_t = -(i/2)(phi_x + phi~_x) Y - e^-th em sinh(i(phi~ - phi))
        Z_t =  (i/2)(phi_x + phi~_x) Z + (e^th em + e^-th ep) sinh(i(phi~ - phi))
        Y_x = -(i/2)(phi_t + phi~_t) Y + e^-th em sinh(i(phi~ - phi))
        Z_x =  (i/2)(phi_t + phi~_t) Z + (e^th em - e^-th ep) sinh(i(phi~ - phi))
    """
    return np.multiply.outer(_HALF, phi_o + phi_tilde_o) * yz + pair * s


def _residual(sign, phi, phi_tilde, phi_o, phi_tilde_o, Y, Z, Y_d, Z_d, theta):
    """(Y_d, Z_d) minus the flow of the half of this sign (:func:`_flow`)."""
    phi, phi_tilde, phi_o, phi_tilde_o, Y, Z = np.broadcast_arrays(
        phi, phi_tilde, phi_o, phi_tilde_o, Y, Z)
    pair, s = _exponentials(_background_rows(phi, np.exp((theta, -theta)), (sign,)), phi_tilde)
    f_y, f_z = _flow(phi_o, phi_tilde_o, np.array((Y, Z), dtype=complex), pair, s)
    return np.asarray(Y_d) - f_y, np.asarray(Z_d) - f_z


def bt_residual_t(phi, phi_tilde, phi_x, phi_tilde_x, Y, Z, Y_t, Z_t, theta):
    """Residuals (Y_t, Z_t) minus the time flow of the off-diagonal entries
    (:func:`_flow`)."""
    return _residual(1, phi, phi_tilde, phi_x, phi_tilde_x, Y, Z, Y_t, Z_t, theta)


def bt_residual_x(phi, phi_tilde, phi_t, phi_tilde_t, Y, Z, Y_x, Z_x, theta):
    """Residuals (Y_x, Z_x) minus the space flow of the off-diagonal entries
    (:func:`_flow`, the time-like defect picture)."""
    return _residual(-1, phi, phi_tilde, phi_t, phi_tilde_t, Y, Z, Y_x, Z_x, theta)


# -- auto transformation: evolution ----------------------------------------------


# stage times per background evaluation, and interior rows per masked max of
# pde_residual: a block of 64 at 129 grid points keeps each background table
# near 130 KB
STAGE_BLOCK = 64


def _stage_slots(t0: float, dt: float, steps: int):
    """(slot, times) of a march of ``steps`` steps of dt from t0: its
    distinct stage times in the order it reaches them, formed as
    :func:`~laxkit.stepping.march` and ``rk4_step`` form them, so that each
    rhs call finds its own exactly (stages 2 and 3 share their time, and
    stage 4 usually shares the next step's first), and the index of each."""
    times = []
    for k in range(steps):
        t = t0 + k * dt if k else t0
        for ts in (t, t + 0.5 * dt, t + dt):
            if not times or ts != times[-1]:
                times.append(ts)
    return {t: i for i, t in enumerate(times)}, np.array(times)


def bt_initial_data(background, x: np.ndarray, t0: float, theta: complex,
                    phi_tilde_seed: complex, y_seed: complex, z_seed: complex):
    """Integrate the space half of the transformation along the initial slice.

    Starting from seed values at x[0], marches (phi~, Y, Z) across the
    uniform grid x so that the diagonal pair and the space-flow equations
    all hold at t = t0.  The result is admissible Cauchy data for
    :func:`bt_evolve`; arbitrary profiles are not, because the
    transformation determines its image up to constants only.  A non-finite
    stage raises :class:`~laxkit.stepping.Aborted` (its t is the x position).
    The background is evaluated by one ``fields(positions, t0)`` call on the
    1-D array of the march's distinct stage positions, with floating-point
    errors ignored, so that a non-finite background reaches the guard.
    """
    h = (x[-1] - x[0]) / (len(x) - 1)
    slot, positions = _stage_slots(x[0], h, len(x) - 1)
    rapidity = np.exp((theta, -theta))
    with np.errstate(all="ignore"):
        phi, phi_t, phi_x = background.fields(positions, t0)
        # the space half's rows, then the time half's, for the drag's phi~_t
        rows = np.moveaxis(_background_rows(phi, rapidity, (-1, 1)), -1, 0)

    def rhs(xv, state):
        i = slot[xv]
        yz = state[1:]
        pairs, s = _exponentials(rows[i], state[0])
        out = np.empty(3, complex)
        out[0] = _tilde(phi_x[i], yz, pairs[:2])
        out[1:] = _flow(phi_t[i], _tilde(phi_t[i], yz, pairs[2:]), yz, pairs[:2], s)
        return out

    return march(rhs, np.array((phi_tilde_seed, y_seed, z_seed), dtype=complex), h,
                 len(x) - 1, bound_guard((("phi~", 1), ("Y", 1), ("Z", 1))),
                 lambda xs, ys: ys.T, t0=x[0])


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
    the trajectory's phi at each kept time k dt, the first stage time of
    step k + 1.  Each block holds the rows its stages read, e^{-i phi/2},
    its inverse and 2 e^th e^{-i phi} for the X entry, so that a stage takes
    one exponential, of phi~, and none of phi.  Block 0 is evaluated before
    the march, for the initial X entry, and one ``phi`` call gives the last
    kept time where it is not a stage time bit for bit.
    """
    steps = count_steps(dt, t_end)
    phi_tilde0, y0, z0 = bt_initial_data(background, x, 0.0, theta, phi_tilde_seed, y_seed, z_seed)
    h, nx = x[1] - x[0], len(x)
    rapidity = np.exp((theta, -theta))
    slot, stage_times = _stage_slots(0.0, dt, steps)
    # the stage slot of each kept time k dt, as march forms it, -1 for none
    kept_slot = np.array([slot.get(k * dt, -1) for k in range(steps + 1)])
    phi_kept = np.empty((steps + 1, nx), complex)

    def evaluate(b):
        """(b, (phi_t, phi_x, 2 e^th e^{-i phi}), the rows of the time half)
        of block b, each indexed by stage first; copies the phi rows of the
        kept times among its stage times into phi_kept."""
        ts = stage_times[b * STAGE_BLOCK:(b + 1) * STAGE_BLOCK]
        phi, phi_t, phi_x = background.fields(x[None, :], ts[:, None])
        mine = kept_slot // STAGE_BLOCK == b
        phi_kept[mine] = phi[kept_slot[mine] % STAGE_BLOCK]
        rows = _background_rows(phi, rapidity, (1,))
        e_phi = rows[-1, 1] * rows[-1, 1]
        return b, (phi_t, phi_x, 2.0 * rapidity[0] * e_phi), np.moveaxis(rows, 2, 0)

    block = list(evaluate(0))  # the latest block
    if kept_slot[-1] < 0:
        phi_kept[-1] = background.phi(x, steps * dt)
    x0_rel = np.exp(0.5j * (phi_tilde0 - phi_kept[0]))

    def rhs(t, y):
        state = y.reshape(4, nx)
        pt, yz = state[0], state[2:]
        b, row = divmod(slot[t], STAGE_BLOCK)
        if b != block[0]:
            block[:] = evaluate(b)
        phi_t, phi_x, source_x = (f[row] for f in block[1])
        pair, s = _exponentials(block[2][row], pt)
        pt_x = derivative_closed(pt, h)
        out = np.empty((4, nx), complex)
        out[0] = _tilde(phi_t, yz, pair)
        out[1] = -0.5j * (pt_x - phi_x) * state[1] - yz[0] * source_x
        out[2:] = _flow(phi_x, pt_x, yz, pair, s)
        return out.ravel()

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
    at a corner, where R winds around it (the argument principle on its
    corners), or where arg R turns by pi to roundoff along one of its edges,
    as a real R does where it changes sign through 0.  The first flagged
    cell in z-row order, from (z[i], zbar[j]), raises
    :class:`~laxkit.stepping.Aborted` with the record "after step i (t =
    z[i]), cell at z[i], zbar[j]" and phi~ on the rows z[:i].
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
    arg = np.angle(w)
    # the edges along z and along zbar across which arg w turns by pi to
    # roundoff: w changes sign through 0 there, as a real w does on a line of
    # zeros that may pass between the grid points
    flip_z, flip_b = (np.abs(np.abs(np.diff(arg, axis=k)) - np.pi) <= 1e-12 for k in (0, 1))
    # continued along row 0, then down each column, arg w turns along a zbar edge
    # by its wrapped step plus 2 pi per winding of the cells between it and row 0
    arg[0] = np.unwrap(arg[0])
    arg = np.unwrap(arg, axis=0)
    turns = np.round(np.diff(arg, axis=1) / (2.0 * np.pi))
    size = np.abs(w) * np.exp(delta.imag)  # e^{Im phi~}, without a log of 0
    off = ~((1e-8 <= size) & (size <= 1e8))
    cells = (off[:-1, :-1] | off[1:, :-1] | off[:-1, 1:] | off[1:, 1:] | (turns[1:] != turns[:-1])
             | flip_z[:, :-1] | flip_z[:, 1:] | flip_b[:-1] | flip_b[1:])
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
