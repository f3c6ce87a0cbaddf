"""Discrete chain with one local type-II defect.

The defect occupies site n and replaces that site's matrix by

    Ltilde(u) = [[u e^-theta X - u^-1 e^theta X^-1, zbar],
                 [z, u e^-theta X^-1 - u^-1 e^theta X]],

carrying its own fields (z, zbar, X) and rapidity theta (the shift
lambda - theta is stored as e^-+theta coefficients so all series stay in u).
The bulk fields stored at slot n are inert placeholders: charges skip them,
the monodromy uses Ltilde there, and the defect equations of motion hold
their derivatives at zero.

Around the defect the time-Lax matrices deform through the combinations

    btilde   = e^theta z X^-1 + b_{n-1} X^-2     (replaces b_n),
    bbartilde = e^theta zbar X^-1 + bbar_{n+1} X^-2   (replaces bbar_n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import LaurentMatrix, LaurentSeries, log_expand, matrix_product_chain
from .lattice import (
    FIELD_NAMES,
    LatticeDerivative,
    LatticeState,
    LatticeTrajectory,
    SingularStateError,
    _ChainField,
    _checked_trace,
    _chain_guard,
    _lax_partials,
    _probe_traces,
    _rate,
    _site_stack,
    _stack_product,
    _time_lax_matrix,
    _value,
    build_lax,
    lax_value,
    time_lax_order2,
)
from .rmatrix import _matrices, bracket_lhs, quadratic_rhs
from .stepping import count_steps, march

__all__ = [
    "DefectSite",
    "build_defect_lax",
    "defect_lax_value",
    "tilde_b",
    "tilde_b_bar",
    "DEFECT_BRACKET_RULES",
    "check_defect_algebra",
    "defect_monodromy",
    "defect_charges",
    "defect_charges_from_trace",
    "defect_time_lax",
    "defect_eom",
    "defect_zero_curvature_residuals",
    "integrate_with_defect",
    "random_defect",
]


@dataclass(frozen=True)
class DefectSite:
    """Defect degrees of freedom at 1-based site n with rapidity theta.

    z, z_bar and X may be arrays of shape (T,): a stack of T defect states
    along a leading time axis, as a trajectory keeps them, which
    :func:`defect_charges` and :func:`defect_monodromy_value` take together
    with a stack of bulk states.
    """

    n: int
    theta: complex
    z: complex
    z_bar: complex
    X: complex

    def __post_init__(self):
        if np.any(np.asarray(self.X) == 0):
            raise SingularStateError("defect field X must be nonzero")
        if self.n < 1:
            raise ValueError("defect site index must be positive")

    @property
    def y(self) -> complex:
        return self.z / self.X

    @property
    def y_bar(self) -> complex:
        return self.z_bar / self.X

    def replace(self, z=None, z_bar=None, X=None) -> "DefectSite":
        return DefectSite(
            self.n,
            self.theta,
            self.z if z is None else z,
            self.z_bar if z_bar is None else z_bar,
            self.X if X is None else X,
        )


def random_defect(n: int, rng: np.random.Generator) -> DefectSite:
    def disk(scale):
        r = np.sqrt(rng.uniform()) * scale
        return r * np.exp(2j * np.pi * rng.uniform())

    return DefectSite(n, 0.5 * disk(1.0), disk(1.0), disk(1.0), np.exp(disk(0.5)))


def _require_on_chain(s: LatticeState, d: DefectSite):
    if not (1 <= d.n <= s.N):
        raise ValueError("defect site outside the chain")


def _neighbours(b, bbar, n0):
    """(b_{n-1}, bbar_{n+1}) of the defect at 0-based slot n0, from raw arrays
    with the sites on the last axis: numpy scalars for one state (b.T[j] is
    site j), arrays over the time axis for a stack."""
    return b.T[n0 - 1], bbar.T[(n0 + 1) % b.shape[-1]]


def _tilde(bm, bbp, et, z, zbar, X):
    """(btilde, bbartilde) from the neighbours b_{n-1}, bbar_{n+1} and the raw
    defect fields, et = e^theta:

        btilde    = e^theta z X^-1 + b_{n-1} X^-2,
        bbartilde = e^theta zbar X^-1 + bbar_{n+1} X^-2.
    """
    return et * (z / X) + bm / X**2, et * (zbar / X) + bbp / X**2


def _tilde_of(s: LatticeState, d: DefectSite):
    """(b_{n-1}, bbar_{n+1}, btilde, bbartilde) of a state and a defect on it."""
    _require_on_chain(s, d)
    bm, bbp = _neighbours(s.b, s.b_bar, d.n - 1)
    return bm, bbp, *_tilde(bm, bbp, np.exp(d.theta), d.z, d.z_bar, d.X)


def tilde_b(s: LatticeState, d: DefectSite) -> complex:
    """btilde_{n,n-1} = e^theta y + b_{n-1} X^-2 (needs the left neighbour)."""
    return _tilde_of(s, d)[2]


def tilde_b_bar(s: LatticeState, d: DefectSite) -> complex:
    """bbartilde_{n,n+1} = e^theta ybar + bbar_{n+1} X^-2 (right neighbour)."""
    return _tilde_of(s, d)[3]


def build_defect_lax(d: DefectSite) -> LaurentMatrix:
    """Defect site matrix as an exact Laurent matrix in u."""
    em, ep = np.exp(-d.theta), np.exp(d.theta)
    return LaurentMatrix.from_rows(
        [
            [LaurentSeries({1: em * d.X, -1: -ep / d.X}), LaurentSeries({0: d.z_bar})],
            [LaurentSeries({0: d.z}), LaurentSeries({1: em / d.X, -1: -ep * d.X})],
        ]
    )


def defect_lax_value(d: DefectSite, u) -> np.ndarray:
    """Ltilde at the spectral point u; an array u gives shape u.shape + (2, 2)."""
    return _type2_matrix(d.theta, d.X, d.z_bar, d.z, u)


def _type2_matrix(theta, X, upper, lower, u) -> np.ndarray:
    """Type-II matrix [[u e^-theta X - u^-1 e^theta X^-1, upper], [lower, u e^-theta
    X^-1 - u^-1 e^theta X]] at u: the defect site matrix and the Darboux matrix."""
    em, ep = np.exp(-theta), np.exp(theta)
    return _matrices(u * em * X - ep / (u * X), upper, lower, u * em / X - ep * X / u)


# Elementary brackets among the defect fields; ultralocality makes every
# bulk-defect bracket vanish.
DEFECT_BRACKET_RULES = {
    ("z", "X"): lambda z, zbar, X: z * X,
    ("X", "z"): lambda z, zbar, X: -z * X,
    ("z_bar", "X"): lambda z, zbar, X: -zbar * X,
    ("X", "z_bar"): lambda z, zbar, X: zbar * X,
    ("z", "z_bar"): lambda z, zbar, X: 2.0 * (X**-2 - X**2),
    ("z_bar", "z"): lambda z, zbar, X: -2.0 * (X**-2 - X**2),
}


def defect_bracket(f: str, g: str, d: DefectSite) -> complex:
    rule = DEFECT_BRACKET_RULES.get((f, g))
    if rule is None:
        if f not in ("z", "z_bar", "X") or g not in ("z", "z_bar", "X"):
            raise ValueError(f"unknown defect field reference {f!r}, {g!r}")
        return 0.0j
    return complex(rule(d.z, d.z_bar, d.X))


def _defect_partials(d: DefectSite, u: complex) -> dict[str, np.ndarray]:
    em, ep = np.exp(-d.theta), np.exp(d.theta)
    return {
        "z": np.array([[0, 0], [1, 0]], dtype=complex),
        "z_bar": np.array([[0, 1], [0, 0]], dtype=complex),
        "X": np.array(
            [
                [u * em + ep / (u * d.X**2), 0],
                [0, -u * em / d.X**2 - ep / u],
            ],
            dtype=complex,
        ),
    }


def check_defect_algebra(d: DefectSite, lam: complex, mu: complex) -> float:
    """Residual of the quadratic exchange relation for the defect matrix."""
    table = {
        pair: rule(d.z, d.z_bar, d.X) for pair, rule in DEFECT_BRACKET_RULES.items()
    }
    lhs = bracket_lhs(_defect_partials(d, np.exp(lam)), _defect_partials(d, np.exp(mu)), table)
    rhs = quadratic_rhs(lam - mu, defect_lax_value(d, np.exp(lam)), defect_lax_value(d, np.exp(mu)))
    return float(np.max(np.abs(lhs - rhs)))


def defect_monodromy(s: LatticeState, d: DefectSite) -> LaurentMatrix:
    """Ordered product with Ltilde in place of L at the defect site."""
    _require_on_chain(s, d)
    factors = []
    for j in range(s.N, 0, -1):
        factors.append(build_defect_lax(d) if j == d.n else build_lax(s, j))
    return matrix_product_chain(factors)


def defect_monodromy_value(s: LatticeState, d: DefectSite, u) -> np.ndarray:
    """Like :func:`~laxkit.lattice.monodromy_value`, with Ltilde in place of L
    at the defect site: (2, 2) at a scalar u, u.shape + (2, 2) at an array,
    and (T,) + u.shape + (2, 2) for stacks of T bulk and defect states."""
    _require_on_chain(s, d)
    w = np.asarray(u, dtype=complex).ravel()
    stack = _site_stack(s, w)
    z, z_bar, X = d.z, d.z_bar, d.X
    if np.ndim(X):  # a stack's defect fields run along the time axis, across the points
        z, z_bar, X = z[:, None], z_bar[:, None], X[:, None]
    stack[d.n - 1] = _type2_matrix(d.theta, X, z_bar, z, w)
    return _stack_product(stack, s.a.shape[:-1] + np.shape(u))


def defect_charges(s: LatticeState, d: DefectSite) -> tuple[complex, complex]:
    """Closed-form order-0 and order-2 charges of the chain with defect; stacks
    of bulk and defect states give two arrays over their time axis.

    order0 = sum_{j != n} log v_j + log X - theta
    order2 = sum_{j != n, n-1} bbar_{j+1} b_j - sum_{j != n} v_j^-2
             + e^theta (ybar b_{n-1} + bbar_{n+1} y)
             + bbar_{n+1} b_{n-1} X^-2 - e^{2 theta} X^-2

    Raises ValueError for N < 3, where the neighbours n-1 and n+1 coincide.
    """
    if s.N < 3:
        raise ValueError(f"the closed-form defect charges need N >= 3 sites, got N = {s.N}")
    _require_on_chain(s, d)
    n0 = d.n - 1
    b, bbar, v = s.b, s.b_bar, s.v
    bm, bbp = _neighbours(b, bbar, n0)
    sites = np.arange(s.N)
    keep = sites != n0
    v_kept = v[..., keep]
    c0 = np.sum(np.log(v_kept), axis=-1) + np.log(d.X) - d.theta
    hop = np.concatenate((bbar[..., 1:], bbar[..., :1]), axis=-1) * b
    keep_hop = keep & (sites != (n0 - 1) % s.N)
    et = np.exp(d.theta)
    c2 = (np.sum(hop[..., keep_hop], axis=-1) - np.sum(v_kept**-2, axis=-1)
          + et * (d.y_bar * bm + bbp * d.y) + bbp * bm / d.X**2 - et**2 / d.X**2)
    return _value(c0), _value(c2)


def defect_charges_from_trace(
    s: LatticeState, d: DefectSite, depth: int = 4
) -> tuple[int, list[complex]]:
    if depth < 2:
        raise ValueError("depth must be at least 2")
    return log_expand(_checked_trace(defect_monodromy(s, d), s.N), depth)


def defect_time_lax(s: LatticeState, d: DefectSite, mu: complex) -> tuple[np.ndarray, np.ndarray]:
    """Deformed order-2 time-Lax matrices at the defect site and just right of it.

    The matrix at n carries bbartilde in place of bbar_n; the matrix at n+1
    carries btilde in place of b_n.  All other sites keep the bulk form.
    """
    bm, bbp, bt, bbt = _tilde_of(s, d)
    w = np.exp(mu)
    return _time_lax_matrix(w, bbt, bm), _time_lax_matrix(w, bbp, bt)


def _require_interior(s: LatticeState, d: DefectSite):
    if not (2 <= d.n <= s.N - 1):
        raise ValueError(
            "defect equations of motion need an interior site (2 <= n <= N-1)"
        )


def _defect_vector_field(field, y, n, et, z, zbar, X):
    """Flat (da, dabar, dv, dz, dzbar, dX) of a defect at site n with fields
    (z, zbar, X) on ``field``'s chain, whose flat state (a, abar, v) leads y."""
    # raw arrays and scalars, unvalidated: the RK stages of a march are never
    # wrapped in a LatticeState or DefectSite; 2 <= n <= N-1 and et = e^theta
    n0, N = n - 1, field.n
    vv, q = field.hopping(y)
    # the neighbours n-1 and n+1 move by the bulk flow with btilde and
    # bbartilde at slot n; slot n's b and bbar reach no other site
    bm, bbp = q[n0 - 1], q[N + n0 + 1]
    bt, bbt = _tilde(bm, bbp, et, z, zbar, X)
    q[n0], q[N + n0] = bt, bbt
    dz = 2.0 * et * bm * X - 2.0 * et * bt / X + bbp * bt * z + bbt * bm * z
    dzbar = -2.0 * et * bbp * X + 2.0 * et * bbt / X - bbp * bt * zbar - bbt * bm * zbar
    dX = et * (bbp * z - zbar * bm)
    out = field.velocities(y, vv, q, (dz, dzbar, dX))
    out[n0:3 * N:N] = 0.0  # defect site: frozen bulk slot, its own fields move instead
    return out


def defect_eom(
    s: LatticeState, d: DefectSite
) -> tuple[LatticeDerivative, complex, complex, complex]:
    """Coupled equations of motion: bulk fields plus (dz, dzbar, dX).

    Sites away from n, n-1, n+1 follow the bulk flow; the neighbours use the
    deformed combinations; slot n's bulk derivatives are zero (the defect
    replaces that site).  Returns (bulk derivative, dz, dzbar, dX).
    """
    _require_interior(s, d)
    out = _defect_vector_field(_ChainField(s.N), np.concatenate((s.a, s.a_bar, s.v)), d.n,
                               np.exp(d.theta), d.z, d.z_bar, d.X)
    return LatticeDerivative(*out[:3 * s.N].reshape(3, s.N)), *out[3 * s.N:]


def defect_zero_curvature_residuals(
    s: LatticeState, d: DefectSite, mu: complex
) -> dict[str, float]:
    """Zero-curvature residuals at the three stencils touching the defect.

    left:   dL_{n-1}/dt = Atilde_n L_{n-1} - L_{n-1} A_{n-1}
    defect: dLtilde/dt  = Atilde_{n+1} Ltilde - Ltilde Atilde_n
    right:  dL_{n+1}/dt = A_{n+2} L_{n+1} - L_{n+1} Atilde_{n+1}
    """
    _require_interior(s, d)
    u = np.exp(mu)
    bulk, dz, dzbar, dX = defect_eom(s, d)
    at_n, at_np1 = defect_time_lax(s, d, mu)

    def residual(ldot, a_next, lj, a_here):
        return float(np.max(np.abs(ldot - (a_next @ lj - lj @ a_here))))

    def bulk_stencil(j, a_next, a_here):
        ldot = _rate(_lax_partials(s, j, u), bulk.site(j))
        return residual(ldot, a_next, lax_value(s, j, u), a_here)

    ltdot = _rate(_defect_partials(d, u), (dz, dzbar, dX))
    return {
        "left": bulk_stencil(d.n - 1, at_n, time_lax_order2(s, d.n - 1, mu)),
        "defect": residual(ltdot, at_np1, defect_lax_value(d, u), at_n),
        "right": bulk_stencil(d.n + 1, time_lax_order2(s, d.n + 2, mu), at_np1),
    }


@dataclass
class DefectTrajectory(LatticeTrajectory):
    """A :class:`~laxkit.lattice.LatticeTrajectory` whose charges and traces
    are those of the chain with defect, plus the recorded defect states as
    one stack of shape (T,)."""

    defect_stack: DefectSite

    @property
    def defects(self) -> list[DefectSite]:
        """The recorded defect states one by one, built from :attr:`defect_stack`."""
        d = self.defect_stack
        return [DefectSite(d.n, d.theta, complex(z), complex(z_bar), complex(X))
                for z, z_bar, X in zip(d.z, d.z_bar, d.X)]


def integrate_with_defect(
    s: LatticeState,
    d: DefectSite,
    dt: float,
    t_end: float,
    probes: tuple[float, ...] = (2.0, 3.0),
) -> DefectTrajectory:
    """Fourth-order integration of the coupled bulk + defect flow.

    Keeps the bulk and defect states at every step; after the march, one
    call each computes the modified charges and the defect monodromy trace
    at the probe points over the kept stack.  Aborts like
    :func:`~laxkit.lattice.integrate`; the guard covers all six fields
    (|X| has the floor of |v_j|).
    """
    _require_interior(s, d)
    bulk, et, field = 3 * s.N, np.exp(d.theta), _ChainField(s.N)

    def rhs(t, y):
        # z, z_bar and X as numpy scalars: these keep inf semantics on
        # overflow, so a diverging stage reaches the guard
        return _defect_vector_field(field, y, d.n, et, *y[bulk:])

    def finish(times, ys):
        stack = LatticeState(*ys[:, :bulk].reshape(len(times), 3, s.N).swapaxes(0, 1))
        ds = d.replace(*ys[:, bulk:].T.copy())  # a copy, so ys can go
        c0, c2 = defect_charges(stack, ds)
        traces = _probe_traces(defect_monodromy_value(stack, ds, probes), probes)
        return DefectTrajectory(times, stack, c0, c2, traces, ds)

    y0 = np.concatenate((s.a, s.a_bar, s.v, (d.z, d.z_bar, d.X)))
    layout = tuple((name, s.N) for name in FIELD_NAMES) + (("z", 1), ("z_bar", 1), ("X", 1))
    return march(rhs, y0, dt, count_steps(dt, t_end), _chain_guard(layout), finish)
