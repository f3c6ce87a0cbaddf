"""Continuum Liouville theory with a local type-II defect at x0.

The line splits into [-L, x0] and [x0, L] carrying independent smooth fields
(phi-, pi-) and (phi+, pi+), glued by defect data (z, zbar, X).  All defect
formulas are driven by the boundary combinations

    D = X e^{-i(phi+ - phi-)/2} + X^-1 e^{i(phi+ - phi-)/2},
    A = X e^{-i(phi+ - phi-)/2},

evaluated at the defect flanks (note A + A^-1 = D).  The sewing condition
S1 = X - e^{i(phi+ - phi-)/2} controls whether the first-order time-Lax
matrices on both sides of the defect match the bulk ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liouville import LiouvilleCharges, _densities, derivative_closed
from .stepping import nan_max

__all__ = [
    "IntervalField",
    "SplitFieldConfig",
    "DegenerateDefectError",
    "defect_charge_order1",
    "defect_charge_order1_mirror",
    "defect_momentum_hamiltonian",
    "v_matrices_near_defect",
    "sewing_residual",
    "sewing_mismatch",
    "random_split_config",
]


class DegenerateDefectError(ValueError):
    """The boundary combination D vanished; the defect formulas degenerate."""


@dataclass(frozen=True)
class IntervalField:
    """(phi, pi) sampled on a closed uniform grid over [x0, x1]."""

    x0: float
    x1: float
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        for name in ("phi", "pi"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.phi.shape != self.pi.shape or self.phi.ndim != 1 or self.n < 3:
            raise ValueError("need 1-d arrays with at least 3 samples")
        if not self.x1 > self.x0:
            raise ValueError("empty interval")

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def h(self) -> float:
        return (self.x1 - self.x0) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.n)

    def quad(self, values: np.ndarray) -> complex:
        """Closed trapezoid rule."""
        return complex(self.h * (np.sum(values) - 0.5 * (values[0] + values[-1])))

    def phi_x(self) -> np.ndarray:
        return derivative_closed(self.phi, self.h)

    def boundary(self, side: str) -> tuple[complex, complex, complex]:
        """(phi, pi, phi_x) at the left or right end, one-sided second order."""
        px = self.phi_x()
        idx = 0 if side == "left" else -1
        return complex(self.phi[idx]), complex(self.pi[idx]), complex(px[idx])


@dataclass(frozen=True)
class SplitFieldConfig:
    """Fields on both sides of the defect plus the defect data itself."""

    left: IntervalField
    right: IntervalField
    z: complex
    z_bar: complex
    X: complex

    def __post_init__(self):
        if abs(self.left.x1 - self.right.x0) > 1e-12:
            raise ValueError("sub-domains must abut the defect point")
        if self.X == 0:
            raise ValueError("defect field X must be nonzero")

    @property
    def x0(self) -> float:
        return self.left.x1

    def boundary_data(self):
        """(phi-, pi-, phi_x-) and (phi+, pi+, phi_x+) at the defect flanks."""
        minus = self.left.boundary("right")
        plus = self.right.boundary("left")
        return minus, plus

    def defect_combinations(self) -> tuple[complex, complex]:
        """(D, A) from the boundary values; raises when D degenerates."""
        (phim, _, _), (phip, _, _) = self.boundary_data()
        half = 0.5j * (phip - phim)
        a = self.X * np.exp(-half)
        dd = a + np.exp(half) / self.X
        if abs(dd) < 1e-12:
            raise DegenerateDefectError("boundary combination D vanished")
        return dd, a


def random_split_config(
    L: float,
    x0: float,
    rng: np.random.Generator,
    sewing: bool = False,
) -> SplitFieldConfig:
    """Random smooth fields of amplitude 0.4 on both halves, sampled at 41
    points on the left and 49 on the right; ``sewing`` imposes S1 = 0."""
    amplitude = 0.4

    def smooth(x, lo, hi):
        s = np.zeros_like(x, dtype=complex)
        for k in range(1, 4):
            c = amplitude / k * complex(rng.normal(), rng.normal())
            s = s + c * np.sin(np.pi * k * (x - lo) / (hi - lo) + rng.uniform(0, 2 * np.pi))
        return s + amplitude * complex(rng.normal(), rng.normal())

    xl = np.linspace(-L, x0, 41)
    xr = np.linspace(x0, L, 49)
    left = IntervalField(-L, x0, smooth(xl, -L, x0), smooth(xl, -L, x0))
    right = IntervalField(x0, L, smooth(xr, x0, L), smooth(xr, x0, L))
    if sewing:
        x_val = np.exp(0.5j * (right.phi[0] - left.phi[-1]))
    else:
        x_val = np.exp(complex(rng.normal(), rng.normal()) * 0.4)
    z = amplitude * complex(rng.normal(), rng.normal())
    zbar = amplitude * complex(rng.normal(), rng.normal())
    return SplitFieldConfig(left, right, z, zbar, x_val)


def _bulk_charges(c: SplitFieldConfig) -> LiouvilleCharges:
    """Bulk Liouville charges of both half-lines, each density integrated by
    the closed trapezoid rule, the plus side first."""
    integrals = [[part.quad(d) for d in _densities(part.phi, part.pi, part.phi_x())]
                 for part in (c.right, c.left)]
    return LiouvilleCharges(*(plus + minus for plus, minus in zip(*integrals)))


def _defect_exponentials(c: SplitFieldConfig):
    (phim, pim, pxm), (phip, pip, pxp) = c.boundary_data()
    sig = 0.5j * (phip + phim)
    zterm = c.z * np.exp(-sig) + c.z_bar * np.exp(sig)
    return (phim, pim, pxm), (phip, pip, pxp), zterm


def defect_charge_order1(c: SplitFieldConfig) -> complex:
    """First charge of the split system including the printed defect terms."""
    dd, a = c.defect_combinations()
    (phim, pim, pxm), (phip, pip, pxp), zterm = _defect_exponentials(c)
    return (
        _bulk_charges(c).order1
        + zterm / dd
        - 0.5j * a / dd * (pxp - pip + pxm - pim)
        + 0.5j * (pxp - pip)
    )


def defect_charge_order1_mirror(c: SplitFieldConfig) -> complex:
    """The pi-reflected partner charge (gradient and pi enter with + signs)."""
    dd, a = c.defect_combinations()
    (phim, pim, pxm), (phip, pip, pxp), zterm = _defect_exponentials(c)
    return (
        _bulk_charges(c).order1_mirror
        + zterm / dd
        - 0.5j / (a * dd) * (pxp + pip + pxm + pim)
        + 0.5j * (pxp + pip)
    )


def defect_momentum_hamiltonian(c: SplitFieldConfig) -> tuple[complex, complex]:
    """Momentum and Hamiltonian of the split system with defect couplings.

    Both equal -2 times the difference/sum of the two first charges; the
    closed forms below are the printed displays with every boundary coupling
    written through D and A.
    """
    dd, a = c.defect_combinations()
    (phim, pim, pxm), (phip, pip, pxp), zterm = _defect_exponentials(c)
    bulk = _bulk_charges(c)
    coupling = 1j * (a - 1.0 / a) / dd
    momentum = bulk.momentum - 1j * (pip - pim) - coupling * (pxp + pxm)
    hamiltonian = (
        bulk.hamiltonian - 4.0 * zterm / dd - 1j * (pxp - pxm) - coupling * (pip + pim)
    )
    return momentum, hamiltonian


_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def v_matrices_near_defect(
    c: SplitFieldConfig, mu: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V+, V-, Vtilde+, Vtilde-): first-order time-Lax matrices.

    V+- are the bulk forms evaluated at the defect flanks; the tilded pair
    carries the defect fields.  With the sewing condition satisfied the
    anti-diagonal parts of the tilded matrices equal the bulk ones divided
    by their relative normalization of 4 (the bulk forms carry coefficient
    4 e^-mu against 2 e^-mu / D with D = 2).
    """
    dd, a = c.defect_combinations()
    (phim, pim, pxm), (phip, pip, pxp), _ = _defect_exponentials(c)
    em = np.exp(-mu)
    sig = 0.5j * (phip + phim)

    def bulk(phi, pi, px):
        return -1j * _SZ * (px - pi) + 4.0 * em * (
            _SP * np.exp(-1j * phi) + _SM * np.exp(1j * phi)
        )

    vp = bulk(phip, pip, pxp)
    vm = bulk(phim, pim, pxm)

    grad_sum = pxp - pip + pxm - pim
    vtp = (1.0 / dd**2) * _SZ * (
        c.z * np.exp(-sig) / a - a * c.z_bar * np.exp(sig) - 0.5j * grad_sum
    ) + (2.0 * em / dd) * (_SP * np.exp(-sig) / c.X + _SM * c.X * np.exp(sig))
    vtm = (1.0 / dd**2) * _SZ * (
        c.z_bar * np.exp(sig) / a - a * c.z * np.exp(-sig) - 0.5j * grad_sum
    ) + (2.0 * em / dd) * (_SP * c.X * np.exp(-sig) + _SM * np.exp(sig) / c.X)
    return vp, vm, vtp, vtm


def sewing_residual(c: SplitFieldConfig) -> complex:
    """S1 = X - exp(i (phi+ - phi-) / 2) from the boundary values."""
    (phim, _, _), (phip, _, _) = c.boundary_data()
    return c.X - np.exp(0.5j * (phip - phim))


def sewing_mismatch(c: SplitFieldConfig, mu: complex) -> float:
    """Largest off-diagonal gap between the tilded matrices and bulk/4."""
    vp, vm, vtp, vtm = v_matrices_near_defect(c, mu)
    worst = 0.0
    for bulk, tilde in ((vp, vtp), (vm, vtm)):
        for i, j in ((0, 1), (1, 0)):
            worst = nan_max(worst, abs(tilde[i, j] - bulk[i, j] / 4.0))
    return worst
