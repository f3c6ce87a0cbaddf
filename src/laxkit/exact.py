"""Closed-form solutions of the complex Liouville equation.

The periodic family solves phi_tt - phi_xx - 4i e^{-2i phi} = 0 and exposes
analytic first derivatives, which makes it an independent reference for the
solvers and the transformation generators.  The general construction behind
it: phi = -i log(F + G) + (i/2) log(-F' G' / 4) for any chiral pair F(z), G(zbar)
in the half-sum light-cone coordinates z = (x + t)/2, zbar = (x - t)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


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
        # phi's constant is the log of -kappa**2 A B / 4, whose overflow, or
        # underflow to 0, would name no cause
        kappa = float(self.kappa)
        arg = -kappa * kappa * complex(self.A) * complex(self.B) / 4.0
        if not (cmath.isfinite(arg) and arg != 0):
            raise OverflowError(f"kappa**2 is out of double range at kappa = {kappa:g} "
                                f"(L = 2 pi / kappa = {2.0 * math.pi / kappa:g})")

    @property
    def period(self) -> float:
        return 4.0 * np.pi / self.kappa

    def _parts(self, x, t):
        """(A e^{i kappa z}, B e^{-i kappa zbar}), each exponential the product
        of an x factor and a t factor: on a (B, 1) column of times against an
        x row, B + 2 len(x) exponentials instead of 2 B len(x)."""
        x, half = np.asarray(x), 0.5j * self.kappa
        et = np.exp(half * t)
        # named, so numpy cannot reuse a large exponential in place as
        # ``exp *= A``, which swaps the operands and changes the last bits
        ea = np.exp(half * x) * et
        eb = np.exp(-half * x) * et
        return self.A * ea, self.B * eb

    def _phi(self, w, t):
        """phi from W = c0 + F + G at time t, the log of W / c0 taken as
        log |W / c0| + i arg(W / c0), the principal branch: numpy's complex
        log takes about ten times as long on a block of stage times."""
        const = 0.5j * np.log(-self.kappa**2 * self.A * self.B / 4.0)
        q = w / self.c0
        return (np.angle(q) - 1j * np.log(np.abs(q)) - 1j * np.log(self.c0) + const
                - 0.5 * self.kappa * t)

    def fields(self, x, t):
        """(phi, phi_t, phi_x) at (x, t) from one evaluation of the chiral parts."""
        fa, gb = self._parts(x, t)
        w = self.c0 + fa + gb
        wt = 0.5j * self.kappa * (fa + gb)
        wx = 0.5j * self.kappa * (fa - gb)
        return self._phi(w, t), -1j * wt / w - 0.5 * self.kappa, -1j * wx / w

    def phi(self, x, t):
        """phi alone, without the derivatives of :meth:`fields`."""
        fa, gb = self._parts(x, t)
        return self._phi(self.c0 + fa + gb, t)

    def phi_t(self, x, t):
        return self.fields(x, t)[1]

    def phi_x(self, x, t):
        return self.fields(x, t)[2]


def periodic_solution_for_length(L: float) -> PeriodicSolution:
    """The periodic solution with c0 = 4, A = 0.9 + 0.3i, B = 0.7 - 0.2i whose
    x-period equals 2 L."""
    return PeriodicSolution(4.0, 0.9 + 0.3j, 0.7 - 0.2j, kappa=2.0 * np.pi / L)
