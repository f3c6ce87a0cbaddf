"""The one fixed-step RK4 driver and the one abort contract.

Every integrator marches one flat state vector, laid out as ((name, length),
...), through :func:`march`, which hands the read-only (T, L) stack of
accepted states to the caller's ``finish``.  A guard sees every RK stage input
and accepted step, once per step as one stack; if it fires, :class:`Aborted`
carries an :class:`Abort` and the partial run.
"""

from __future__ import annotations

import math
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


def nan_max(*values):
    """The largest of the values, or nan if any of them is nan: the worst case
    of a check, which a nan must fail rather than drop, as ``max(0.0, nan)``
    does."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def rowwise(check):
    """The guard ``guard(ts, ys)`` of a per-state ``check(t, y)``: the (row,
    verdict) of the first row of the stack ys, at its time in ts, for which
    the check returns a verdict, else None.  A guard with a whole-stack fast
    test calls it only on a stack that fails the test."""

    def guard(ts, ys):
        for row, (t, y) in enumerate(zip(ts, ys)):
            if (verdict := check(t, y)) is not None:
                return row, verdict
        return None

    return guard


def bound_guard(layout, ceiling=math.inf, above=None, floor=0.0, floored=()):
    """The guard on a stack of flat states of this layout: None, or the (row,
    verdict) of the first row with a non-finite entry, an entry above
    ``ceiling`` in modulus (the largest, reason ``above``), or an entry of a
    field named in ``floored`` below ``floor`` in modulus (the smallest,
    reason "field below the floor"), checked in that order.  One whole-stack
    test passes a regular step: finiteness alone when there is neither a
    ceiling nor a floor, else the largest and smallest moduli, so a floor
    needs a finite ceiling for an inf entry to fail the test.  Only a stack
    that fails it is searched row by row, with :func:`locate` and the floor
    check, for the offending entry."""
    low = np.flatnonzero([name in floored for name, length in layout for _ in range(length)])

    def check(t, y):
        verdict = locate(layout, y, ceiling, above)
        if verdict is None and low.size:
            mag = np.abs(y[low])
            i = int(np.argmin(mag))
            if mag[i] < floor:
                verdict = ("field below the floor", *_field_at(layout, int(low[i])))
        return verdict

    slow = rowwise(check)
    if ceiling == math.inf:
        if low.size:
            raise ValueError("a floor needs a finite ceiling")
        return lambda ts, ys: None if np.isfinite(ys).all() else slow(ts, ys)

    def guard(ts, ys):
        mag = np.abs(ys)
        if mag.max() <= ceiling and (not low.size or mag.take(low, axis=1).min() >= floor):
            return None
        return slow(ts, ys)

    return guard


def read_only(x):
    """x as a read-only complex array: x itself when it already is one and
    every array in its ``base`` chain is read-only too, so that no holder of
    a view can change it (the stacks :func:`march` hands to ``finish``), else
    a read-only copy."""
    if isinstance(x, np.ndarray) and x.dtype == complex and not x.flags.writeable:
        base = x.base
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return x
    arr = np.array(x, dtype=complex)
    arr.setflags(write=False)
    return arr


def rk4_step(rhs, t, y, dt, guard, t_next):
    """One classic fourth-order step of y' = rhs(t, y), y a flat vector.

    The inputs of stages 2-4 and the new state, at time ``t_next``, are the
    rows of one (4, L) stack that ``guard(ts, ys)`` sees once, after every
    stage has run.  Returns (new state, None), or (None, (stage, time, guard
    verdict)) for the first row the guard names, where the stage is None for
    the new state.
    """
    k1 = rhs(t, y)
    t2, t4 = t + 0.5 * dt, t + 1.0 * dt
    y2 = y + 0.5 * dt * k1
    k2 = rhs(t2, y2)
    y3 = y + 0.5 * dt * k2
    k3 = rhs(t2, y3)
    y4 = y + 1.0 * dt * k3
    k4 = rhs(t4, y4)
    y_new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ts = (t2, t2, t4, t_next)
    if (fault := guard(ts, np.array((y2, y3, y4, y_new)))) is not None:
        row, verdict = fault
        return None, (row + 2 if row < 3 else None, ts[row], verdict)
    return y_new, None


def march(rhs, y0, dt, steps, guard, finish, t0=0.0):
    """Take ``steps`` RK4 steps of y' = rhs(t, y) from y(t0) = y0; step k
    ends at t0 + k dt.  Every step makes one ``guard(ts, ys)`` call on the
    (4, L) stack of its stage 2-4 inputs and its new state, at their times
    ts; the guard returns None or (row, (reason, field, index)) of the first
    row that trips; :func:`bound_guard` builds one from bounds on the state,
    :func:`rowwise` from a per-state check.
    The march keeps y0 and every accepted state and returns ``finish(times,
    ys)``: ``times`` of shape (T,) and ``ys`` their read-only stack of shape
    (T, L), where y0 and every ``rhs`` output are flat vectors of length L.
    A guard that fires raises :class:`Aborted` with ``finish`` of the states
    kept before the fault.  Floating-point warnings are off: ``rhs`` runs on
    every stage input before the guard sees it, and a blow-up reaches the
    guard as inf or nan.
    """
    times = [t0] + [t0 + k * dt for k in range(1, steps + 1)]
    kept = np.empty((steps + 1,) + y0.shape, y0.dtype)
    kept[0] = y = y0

    def done(count):
        kept.setflags(write=False)
        return finish(np.array(times[:count]), kept[:count])

    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            y, fault = rk4_step(rhs, times[k - 1], y, dt, guard, times[k])
            if fault is not None:
                stage, ts, verdict = fault
                raise Aborted(Abort(float(ts), k, stage, *verdict), done(k))
            if y.dtype != kept.dtype:  # a real start whose flow is complex
                kept = kept.astype(np.result_type(kept, y))
            kept[k] = y
        return done(steps + 1)
