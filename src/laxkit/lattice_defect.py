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

from dataclasses import dataclass, field

import numpy as np

from .laurent import LaurentMatrix, LaurentSeries, log_expand, matrix_product_chain
from .lattice import (
    LatticeDerivative,
    LatticeState,
    LatticeTrajectory,
    SingularStateError,
    _lax_time_derivative,
    _singular,
    _vector_field,
    build_lax,
    lax_value,
    time_lax_order2,
)
from .rmatrix import bracket_lhs, quadratic_rhs
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
    """Defect degrees of freedom at 1-based site n with rapidity theta."""

    n: int
    theta: complex
    z: complex
    z_bar: complex
    X: complex

    def __post_init__(self):
        if self.X == 0:
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


def tilde_b(s: LatticeState, d: DefectSite) -> complex:
    """btilde_{n,n-1} = e^theta y + b_{n-1} X^-2 (needs the left neighbour)."""
    bm = s.b[(d.n - 2) % s.N]
    return np.exp(d.theta) * d.y + bm / d.X**2


def tilde_b_bar(s: LatticeState, d: DefectSite) -> complex:
    """bbartilde_{n,n+1} = e^theta ybar + bbar_{n+1} X^-2 (right neighbour)."""
    bbp = s.b_bar[d.n % s.N]
    return np.exp(d.theta) * d.y_bar + bbp / d.X**2


def build_defect_lax(d: DefectSite) -> LaurentMatrix:
    """Defect site matrix as an exact Laurent matrix in u."""
    em, ep = np.exp(-d.theta), np.exp(d.theta)
    return LaurentMatrix.from_rows(
        [
            [LaurentSeries({1: em * d.X, -1: -ep / d.X}), LaurentSeries({0: d.z_bar})],
            [LaurentSeries({0: d.z}), LaurentSeries({1: em / d.X, -1: -ep * d.X})],
        ]
    )


def defect_lax_value(d: DefectSite, u: complex) -> np.ndarray:
    em, ep = np.exp(-d.theta), np.exp(d.theta)
    return np.array(
        [
            [u * em * d.X - ep / (u * d.X), d.z_bar],
            [d.z, u * em / d.X - ep * d.X / u],
        ],
        dtype=complex,
    )


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
    if not (1 <= d.n <= s.N):
        raise ValueError("defect site outside the chain")
    factors = []
    for j in range(s.N, 0, -1):
        factors.append(build_defect_lax(d) if j == d.n else build_lax(s, j))
    return matrix_product_chain(factors)


def defect_monodromy_value(s: LatticeState, d: DefectSite, u: complex) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for j in range(s.N, 0, -1):
        out = out @ (defect_lax_value(d, u) if j == d.n else lax_value(s, j, u))
    return out


def defect_charges(s: LatticeState, d: DefectSite) -> tuple[complex, complex]:
    """Closed-form order-0 and order-2 charges of the chain with defect.

    order0 = sum_{j != n} log v_j + log X - theta
    order2 = sum_{j != n, n-1} bbar_{j+1} b_j - sum_{j != n} v_j^-2
             + e^theta (ybar b_{n-1} + bbar_{n+1} y)
             + bbar_{n+1} b_{n-1} X^-2 - e^{2 theta} X^-2
    """
    n0 = (d.n - 1) % s.N
    b, bbar, v = s.b, s.b_bar, s.v
    keep = np.ones(s.N, dtype=bool)
    keep[n0] = False
    c0 = complex(np.sum(np.log(v[keep])) + np.log(d.X) - d.theta)

    hop = np.roll(bbar, -1) * b
    keep_hop = np.ones(s.N, dtype=bool)
    keep_hop[n0] = False
    keep_hop[(n0 - 1) % s.N] = False
    bm = b[(n0 - 1) % s.N]
    bbp = bbar[(n0 + 1) % s.N]
    et = np.exp(d.theta)
    c2 = complex(
        np.sum(hop[keep_hop])
        - np.sum(v[keep] ** -2)
        + et * (d.y_bar * bm + bbp * d.y)
        + bbp * bm / d.X**2
        - et**2 / d.X**2
    )
    return c0, c2


def defect_charges_from_trace(
    s: LatticeState, d: DefectSite, depth: int = 4
) -> tuple[int, list[complex]]:
    if depth < 2:
        raise ValueError("depth must be at least 2")
    return log_expand(defect_monodromy(s, d).trace, depth)


def defect_time_lax(s: LatticeState, d: DefectSite, mu: complex) -> tuple[np.ndarray, np.ndarray]:
    """Deformed order-2 time-Lax matrices at the defect site and just right of it.

    The matrix at n carries bbartilde in place of bbar_n; the matrix at n+1
    carries btilde in place of b_n.  All other sites keep the bulk form.
    """
    bt = tilde_b(s, d)
    bbt = tilde_b_bar(s, d)
    bm = s.b[(d.n - 2) % s.N]
    bbp = s.b_bar[d.n % s.N]
    w = np.exp(mu)
    a_n = np.array(
        [[2.0 * w * w - bbt * bm, 2.0 * w * bbt], [2.0 * w * bm, bbt * bm]], dtype=complex
    )
    a_np1 = np.array(
        [[2.0 * w * w - bbp * bt, 2.0 * w * bbp], [2.0 * w * bt, bbp * bt]], dtype=complex
    )
    return a_n, a_np1


def _require_interior(s: LatticeState, d: DefectSite):
    if not (2 <= d.n <= s.N - 1):
        raise ValueError(
            "defect equations of motion need an interior site (2 <= n <= N-1)"
        )


def _defect_vector_field(a, abar, v, n, theta, z, zbar, X):
    # raw arrays and scalars, unvalidated: the RK stages of a march are never
    # wrapped in a LatticeState or DefectSite
    da, dabar, dv = _vector_field(a, abar, v)
    N = a.shape[0]
    n0 = (n - 1) % N
    b, bbar = a / v, abar / v
    et = np.exp(theta)
    bt = et * (z / X) + b[(n - 2) % N] / X**2      # tilde_b
    bbt = et * (zbar / X) + bbar[n % N] / X**2     # tilde_b_bar

    # site n-1: bbar_n -> bbartilde
    i = n0 - 1
    bm2, bm1 = b[i - 1], b[i]
    bb1 = bbar[i]
    da[i] = 2.0 * bm2 * v[i] - 2.0 * bm1 / v[i] + bbt * bm1 * a[i] + bb1 * bm2 * a[i]
    dabar[i] = -2.0 * bbt * v[i] + 2.0 * bb1 / v[i] - bbt * bm1 * abar[i] - bb1 * bm2 * abar[i]
    dv[i] = bbt * a[i] - abar[i] * bm2

    # site n+1: b_n -> btilde
    i = (n0 + 1) % N
    bp1 = b[i]
    bb2 = bbar[(i + 1) % N]
    bb1 = bbar[i]
    da[i] = 2.0 * bt * v[i] - 2.0 * bp1 / v[i] + bb2 * bp1 * a[i] + bb1 * bt * a[i]
    dabar[i] = -2.0 * bb2 * v[i] + 2.0 * bb1 / v[i] - bb2 * bp1 * abar[i] - bb1 * bt * abar[i]
    dv[i] = bb2 * a[i] - abar[i] * bt

    # defect site: frozen bulk slot, its own fields move instead
    da[n0] = dabar[n0] = dv[n0] = 0.0
    bm = b[n0 - 1]
    bbp = bbar[(n0 + 1) % N]
    dz = 2.0 * et * bm * X - 2.0 * et * bt / X + bbp * bt * z + bbt * bm * z
    dzbar = -2.0 * et * bbp * X + 2.0 * et * bbt / X - bbp * bt * zbar - bbt * bm * zbar
    dX = et * (bbp * z - zbar * bm)
    return da, dabar, dv, dz, dzbar, dX


def defect_eom(
    s: LatticeState, d: DefectSite
) -> tuple[LatticeDerivative, complex, complex, complex]:
    """Coupled equations of motion: bulk fields plus (dz, dzbar, dX).

    Sites away from n, n-1, n+1 follow the bulk flow; the neighbours use the
    deformed combinations; slot n's bulk derivatives are zero (the defect
    replaces that site).  Returns (bulk derivative, dz, dzbar, dX).
    """
    _require_interior(s, d)
    da, dabar, dv, dz, dzbar, dX = _defect_vector_field(
        s.a, s.a_bar, s.v, d.n, d.theta, d.z, d.z_bar, d.X
    )
    return LatticeDerivative(da, dabar, dv), dz, dzbar, dX


def _defect_lax_time_derivative(d: DefectSite, dz, dzbar, dX, u: complex) -> np.ndarray:
    em, ep = np.exp(-d.theta), np.exp(d.theta)
    return np.array(
        [
            [u * em * dX + ep * dX / (u * d.X**2), dzbar],
            [dz, -u * em * dX / d.X**2 - ep * dX / u],
        ],
        dtype=complex,
    )


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

    out = {}
    j = d.n - 1
    ldot = _lax_time_derivative(s, bulk, j, u)
    lj = lax_value(s, j, u)
    out["left"] = float(np.max(np.abs(ldot - (at_n @ lj - lj @ time_lax_order2(s, j, mu)))))

    ltdot = _defect_lax_time_derivative(d, dz, dzbar, dX, u)
    lt = defect_lax_value(d, u)
    out["defect"] = float(np.max(np.abs(ltdot - (at_np1 @ lt - lt @ at_n))))

    j = d.n + 1
    ldot = _lax_time_derivative(s, bulk, j, u)
    lj = lax_value(s, j, u)
    out["right"] = float(
        np.max(np.abs(ldot - (time_lax_order2(s, j + 1, mu) @ lj - lj @ at_np1)))
    )
    return out


@dataclass
class DefectTrajectory(LatticeTrajectory):
    defects: list[DefectSite] = field(default_factory=list)


_FIELDS = ("a", "a_bar", "v", "z", "z_bar", "X")


def integrate_with_defect(
    s: LatticeState,
    d: DefectSite,
    dt: float,
    t_end: float,
    probes: tuple[float, ...] = (2.0, 3.0),
) -> DefectTrajectory:
    """Fourth-order integration of the coupled bulk + defect flow.

    Monitors the modified charges and the defect monodromy trace at the
    probe points, and aborts like :func:`~laxkit.lattice.integrate`; the
    guard covers all six components (|X| has the floor of |v_j|).
    """
    _require_interior(s, d)
    traj = DefectTrajectory([], [], [], [], {u: [] for u in probes})

    def rhs(t, y):
        a, abar, v, zf, zbf, xf = y
        # numpy scalars keep inf semantics on overflow, so a diverging stage
        # reaches the guard instead of raising
        da, dabar, dv, dz, dzbar, dX = _defect_vector_field(
            a, abar, v, d.n, d.theta, zf[0], zbf[0], np.complex128(xf[0])
        )
        return da, dabar, dv, np.array([dz]), np.array([dzbar]), np.array([dX])

    def keep(t, st, df):
        traj.defects.append(df)
        traj.keep(t, st, *defect_charges(st, df),
                  [defect_monodromy_value(st, df, u) for u in probes])

    def record(k, t, y):
        df = d.replace(z=complex(y[3][0]), z_bar=complex(y[4][0]), X=complex(y[5][0]))
        keep(t, LatticeState(y[0], y[1], y[2]), df)

    keep(0.0, s, d)
    y0 = (s.a, s.a_bar, s.v, np.array([d.z]), np.array([d.z_bar]), np.array([d.X]))
    return march(rhs, y0, dt, count_steps(dt, t_end), lambda t, y: _singular(_FIELDS, y),
                 record, traj.finished)
