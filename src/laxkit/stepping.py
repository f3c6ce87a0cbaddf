"""The one fixed-step RK4 driver and the one abort contract.

Every integrator marches one flat state vector, laid out as ((name, length),
...), through :func:`march`, which hands the (T, L) stack of accepted states to
the caller's ``finish``.  A guard runs on every RK stage input and accepted
step; if it fires, :class:`Aborted` carries an :class:`Abort` and the partial run.
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
    holds ``finish`` of the states kept before."""

    def __init__(self, record: Abort, trajectory):
        super().__init__(str(record))
        self.record = record
        self.trajectory = trajectory


def count_steps(dt: float, t_end: float) -> int:
    """Number of steps of size dt in a march of length t_end.  Raises
    ValueError unless 0 < dt <= t_end and t_end is a whole multiple of dt to
    1e-9 relative, so that the last step ends where it was asked to."""
    if not 0 < dt <= t_end:
        raise ValueError(f"need 0 < dt <= t_end, got dt = {dt:g} and t_end = {t_end:g}")
    steps = t_end / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"t_end must be a whole multiple of every step, "
                         f"got dt = {dt:g} and t_end = {t_end:g}")
    return round(steps)


def _field_at(layout, i):
    """(field, index within the field) of flat index i of a layout."""
    for name, length in layout:
        if i < length:
            return name, i
        i -= length


def locate(layout, y, limit=np.inf, above="above the limit"):
    """(reason, field, index) of the first non-finite entry of the flat state y,
    else of its first entry of largest modulus if above ``limit``, else None.
    ``layout`` is ((name, length), ...) in the order of y."""
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        return ("non-finite", *_field_at(layout, int(bad[0])))
    mag = np.abs(y)
    worst = int(np.argmax(mag))
    return (above, *_field_at(layout, worst)) if mag[worst] > limit else None


def finite_guard(layout):
    """Guard firing on a non-finite entry of a flat state of this layout."""
    return lambda t, y: None if np.isfinite(y).all() else locate(layout, y)


def rk4_step(rhs, t, y, dt, guard):
    """One classic fourth-order step of y' = rhs(t, y), y a flat vector.

    ``guard(t, y)`` sees the inputs of stages 2-4.  Returns (new state, None),
    or (None, (stage, stage time, guard verdict)) when the guard fires.
    """
    ks = [rhs(t, y)]
    for stage, c in ((2, 0.5), (3, 0.5), (4, 1.0)):
        ts, ys = t + c * dt, y + c * dt * ks[-1]
        if (verdict := guard(ts, ys)) is not None:
            return None, (stage, ts, verdict)
        ks.append(rhs(ts, ys))
    return y + (dt / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3]), None


def march(rhs, y0, dt, steps, guard, finish, t0=0.0):
    """Take ``steps`` RK4 steps of y' = rhs(t, y) from y(t0) = y0; step k
    ends at t0 + k dt.  ``guard(t, y)`` returns None or (reason, field,
    index) and runs on every RK stage input and accepted step.  The march
    keeps y0 and every accepted state and returns ``finish(times, ys)``:
    ``times`` of shape (T,) and ``ys`` their stack of shape (T, L), where y0
    and every ``rhs`` output are flat vectors of length L.  A guard that
    fires raises :class:`Aborted` with ``finish`` of the states kept before
    the fault.  Overflow and invalid-value warnings are off: a blow-up
    reaches the guard as inf or nan.
    """
    times, rows = [t0], [y0]

    def done():
        ys = np.array(rows)
        rows.clear()  # drop the per-step arrays before finish copies the stack again
        return finish(np.array(times), ys)

    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            y, fault = rk4_step(rhs, t0 + (k - 1) * dt, y, dt, guard)
            t = t0 + k * dt
            if fault is None and (verdict := guard(t, y)) is not None:
                fault = (None, t, verdict)
            if fault is not None:
                stage, ts, verdict = fault
                raise Aborted(Abort(float(ts), k, stage, *verdict), done())
            times.append(t)
            rows.append(y)
        return done()
