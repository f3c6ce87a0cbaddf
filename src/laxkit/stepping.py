"""The one fixed-step RK4 driver and the one abort contract.

Every integrator marches through :func:`march` with a guard on every RK
stage input and every accepted step.  A guard that fires raises
:class:`Aborted`, carrying an :class:`Abort` record and the partial run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Abort:
    """Where and why a march stopped: the 1-based step being taken, the RK
    stage (2-4) whose input tripped the guard or None for the accepted step,
    the time of that input, and the offending entry of the state."""

    t: float
    step: int
    stage: int | None
    reason: str
    field: str
    index: int

    def __str__(self) -> str:
        where = "after" if self.stage is None else f"at RK stage {self.stage} of"
        return (
            f"{self.reason} {where} step {self.step} (t = {self.t:g}), "
            f"{self.field}[{self.index}]"
        )


class Aborted(RuntimeError):
    """A march stopped on its guard; ``.record`` says where, ``.trajectory``
    holds everything recorded before."""

    def __init__(self, record: Abort, trajectory):
        super().__init__(str(record))
        self.record = record
        self.trajectory = trajectory


def count_steps(dt: float, t_end: float) -> int:
    if not 0 < dt <= t_end:
        raise ValueError("require 0 < dt <= t_end")
    return int(round(t_end / dt))


def locate(names, y, limit=np.inf, above="above the limit"):
    """(reason, field, index) of the first non-finite entry of the named
    state, else of the entry of largest modulus if that exceeds ``limit``;
    None when there is neither."""
    for name, arr in zip(names, y):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            return "non-finite", name, int(bad[0])
    name, mag = max(((n, np.abs(arr)) for n, arr in zip(names, y)), key=lambda p: p[1].max())
    return (above, name, int(np.argmax(mag))) if mag.max() > limit else None


def finite_guard(names):
    """Guard firing on a non-finite entry; the components share one shape."""
    return lambda t, y: None if np.isfinite(np.array(y)).all() else locate(names, y)


def rk4_step(rhs, t, y, dt, guard):
    """One classic fourth-order step of y' = rhs(t, y), y a tuple of arrays.

    ``guard(t, y)`` sees the inputs of stages 2-4.  Returns (new state, None),
    or (None, (stage, stage time, guard verdict)) when the guard fires.
    """
    ks = [rhs(t, y)]
    for stage, c in ((2, 0.5), (3, 0.5), (4, 1.0)):
        ts, ys = t + c * dt, tuple(a + c * dt * b for a, b in zip(y, ks[-1]))
        if (verdict := guard(ts, ys)) is not None:
            return None, (stage, ts, verdict)
        ks.append(rhs(ts, ys))
    return tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, *ks)
    ), None


def march(rhs, y0, dt, steps, guard, record, finish, t0=0.0):
    """Take ``steps`` RK4 steps of y' = rhs(t, y) from y(t0) = y0; step k
    ends at t0 + k dt.  ``guard(t, y)`` returns None or (reason, field,
    index) and runs on every RK stage input and accepted step;
    ``record(k, t, y)`` runs after each accepted step.  Returns
    ``finish()``, or raises :class:`Aborted` with ``finish()`` of the steps
    recorded so far.  Overflow and invalid-value warnings are off: a
    blow-up reaches the guard as inf or nan.
    """
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            y, fault = rk4_step(rhs, t0 + (k - 1) * dt, y, dt, guard)
            t = t0 + k * dt
            if fault is None and (verdict := guard(t, y)) is not None:
                fault = (None, t, verdict)
            if fault is not None:
                stage, ts, verdict = fault
                raise Aborted(Abort(float(ts), k, stage, *verdict), finish())
            record(k, t, y)
        return finish()
