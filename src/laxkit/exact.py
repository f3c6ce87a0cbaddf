"""Closed-form solutions of the complex Liouville equation.

Both families solve phi_tt - phi_xx - 4i e^{-2i phi} = 0 and expose analytic
first derivatives, which makes them independent references for the solvers
and the transformation generators.  The general construction behind them:
phi = -i log(F + G) + (i/2) log(-F' G' / 4) for any chiral pair F(z), G(zbar)
in the half-sum light-cone coordinates z = (x + t)/2, zbar = (x - t)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogLinearSolution:
    """phi = -i log(p t + q x + r) with p^2 - q^2 = 4.

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


@dataclass(frozen=True)
class PeriodicSolution:
    """Smooth x-periodic solution built from single-mode chiral factors.

    W(x, t) = c0 + A e^{i kappa z} + B e^{-i kappa zbar},
    phi = -i log W + (i/2) log(-kappa^2 A B / 4) - kappa t / 2,

    with z = (x + t)/2, zbar = (x - t)/2.  Requires |c0| > |A| + |B| so W
    never winds around zero (the log stays on one branch) and gives period
    4 pi / kappa in x.
    """

    c0: complex
    A: complex
    B: complex
    kappa: float

    def __post_init__(self):
        if abs(self.c0) <= abs(self.A) + abs(self.B):
            raise ValueError("need |c0| > |A| + |B| for a branch-safe solution")

    @property
    def period(self) -> float:
        return 4.0 * np.pi / self.kappa

    def _parts(self, x, t):
        x = np.asarray(x, dtype=complex)
        z = 0.5 * (x + t)
        zb = 0.5 * (x - t)
        # named, so numpy cannot reuse a large exponential in place as
        # ``exp *= A``, which swaps the operands and changes the last bits
        ea = np.exp(1j * self.kappa * z)
        eb = np.exp(-1j * self.kappa * zb)
        return self.A * ea, self.B * eb

    def fields(self, x, t):
        """(phi, phi_t, phi_x) at (x, t) from one evaluation of the chiral parts."""
        fa, gb = self._parts(x, t)
        w = self.c0 + fa + gb
        const = 0.5j * np.log(-self.kappa**2 * self.A * self.B / 4.0)
        phi = -1j * np.log(w / self.c0) - 1j * np.log(self.c0) + const - 0.5 * self.kappa * t
        wt = 0.5j * self.kappa * (fa + gb)
        wx = 0.5j * self.kappa * (fa - gb)
        return phi, -1j * wt / w - 0.5 * self.kappa, -1j * wx / w

    def phi(self, x, t):
        return self.fields(x, t)[0]

    def phi_t(self, x, t):
        return self.fields(x, t)[1]

    def phi_x(self, x, t):
        return self.fields(x, t)[2]


def periodic_solution_for_length(L: float) -> PeriodicSolution:
    """The periodic solution with c0 = 4, A = 0.9 + 0.3i, B = 0.7 - 0.2i whose
    x-period equals 2 L."""
    return PeriodicSolution(4.0, 0.9 + 0.3j, 0.7 - 0.2j, kappa=2.0 * np.pi / L)
