"""The one fixed-step RK4 driver and the one abort contract.

Every integrator marches one flat state vector, laid out as ((name, length),
...), through :func:`march`, which hands the read-only (T, L) stack of
accepted states to the caller's ``finish``; :func:`march_pair` gives the runs
at dt and at 2 dt of one start together.  A guard sees every RK stage input
and accepted step, once per step as one stack; if it fires, :class:`Aborted`
carries an :class:`Abort` and the partial run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
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


@dataclass
class StepTally:
    """RK4 steps taken by :func:`march` and :func:`march_pair` inside a
    :func:`step_tally` block: one per step whose stages ran, the step that
    tripped a guard included, counted per run, so a pair step counts two."""

    steps: int = 0


_tally: ContextVar[StepTally | None] = ContextVar("laxkit_step_tally", default=None)


@contextmanager
def step_tally():
    """A fresh :class:`StepTally` that counts the steps of the marches run
    in the block, in this thread or task; an inner block counts its own."""
    tally = StepTally()
    token = _tally.set(tally)
    try:
        yield tally
    finally:
        _tally.reset(token)


def _count(steps: int) -> None:
    if (tally := _tally.get()) is not None:
        tally.steps += steps


def rk4_step(rhs, t, y, dt, guard, t_next):
    """One classic fourth-order step of y' = rhs(t, y), y a flat vector.

    The step dt may be an array of per-entry steps, the shape of y, for
    several runs marched as one state; the stage times t + dt/2 and t + dt
    are then per-entry arrays too, and ``t_next`` should be one.  The inputs
    of stages 2-4 and the new state, at time ``t_next``, are the rows of one
    (4, L) stack that ``guard(ts, ys)`` sees once, after every stage has
    run.  Returns (new state, None), or (None, (stage, time, guard verdict))
    for the first row the guard names, where the stage is None for the new
    state.
    """
    k1 = rhs(t, y)
    half = 0.5 * dt
    t2, t4 = t + half, t + dt
    y2 = y + half * k1
    k2 = rhs(t2, y2)
    y3 = y + half * k2
    k3 = rhs(t2, y3)
    y4 = y + dt * k3
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
                _count(k)
                stage, ts, verdict = fault
                raise Aborted(Abort(float(ts), k, stage, *verdict), done(k))
            if y.dtype != kept.dtype:  # a real start whose flow is complex
                kept = kept.astype(np.result_type(kept, y))
            kept[k] = y
        _count(steps)
        return done(steps + 1)


def march_pair(rhs, pair_rhs, y0, dt, pairs, guard, finish, t0=0.0):
    """``march`` at dt over 2 ``pairs`` steps and at 2 dt over ``pairs``
    steps from the same complex y0, as (fine, coarse) ``finish`` results
    equal bit for bit to those of the two calls.

    The two runs share one flat state, the fine copy then the coarse one,
    and ``pair_rhs`` is ``rhs`` on both copies at once.  One
    :func:`rk4_step` with the per-entry step (dt, ..., 2 dt, ...) takes each
    coarse step and the first of the two fine steps it spans; the second
    fine step runs alone on ``rhs``.  The guard must judge each row of its
    stack on its own, as :func:`bound_guard` and :func:`rowwise` guards do:
    one call sees the eight rows of a pair step, the two copies' rows
    alternating, and only a coarse fault makes a second call on the fine
    rows alone.  Raises what the two calls in sequence would raise: the fine
    run's :class:`Aborted` if its guard fires, else the coarse run's once
    the fine run has ended; the fine run is not finished in that case.
    """
    L, dt2 = y0.shape[0], 2 * dt
    fine_t = [t0] + [t0 + k * dt for k in range(1, 2 * pairs + 1)]
    coarse_t = [t0] + [t0 + k * dt2 for k in range(1, pairs + 1)]
    fine = np.empty((2 * pairs + 1, L), complex)
    coarse = np.empty((pairs + 1, L), complex)
    fine[0] = coarse[0] = y0
    dts = np.repeat((dt, dt2), L)  # the per-entry step of the pair state
    # the per-entry time at the end of each pair step
    ends = np.repeat(np.column_stack((fine_t[1::2], coarse_t[1:])), L, axis=1)

    def done(times, kept, count):
        kept.setflags(write=False)
        return finish(np.array(times[:count]), kept[:count])

    def both(ts, ys):
        """The guard of a pair step: (stage row, (copy, verdict)), copy 0
        the fine run, whose fault comes first."""
        t2, _, t4, t_new = ts
        times = (t2[0], t2[L], t2[0], t2[L], t4[0], t4[L], t_new[0], t_new[L])
        rows = ys.reshape(8, L)
        if (fault := guard(times, rows)) is None:
            return None
        row, verdict = fault
        if row % 2 and (fine_fault := guard(times[::2], rows[::2])) is not None:
            row, verdict = 2 * fine_fault[0], fine_fault[1]
        return row // 2, (row % 2, verdict)

    def fine_step(k, y):
        y, fault = rk4_step(rhs, fine_t[k - 1], y, dt, guard, fine_t[k])
        if fault is not None:
            stage, t, verdict = fault
            raise Aborted(Abort(float(t), k, stage, *verdict), done(fine_t, fine, k))
        fine[k] = y
        return y

    y = np.concatenate((y0, y0))
    ran_fine = ran_coarse = 0  # steps whose stages ran
    try:
        with np.errstate(all="ignore"):
            for k in range(1, pairs + 1):
                ran_fine, ran_coarse = 2 * k - 1, k
                y, fault = rk4_step(pair_rhs, coarse_t[k - 1], y, dts, both, ends[k - 1])
                if fault is not None:
                    stage, ts, (copy, verdict) = fault
                    if not copy:
                        raise Aborted(Abort(float(ts[0]), 2 * k - 1, stage, *verdict),
                                      done(fine_t, fine, 2 * k - 1))
                    y = fine[2 * k - 2]
                    for j in range(2 * k - 1, 2 * pairs + 1):
                        ran_fine = j
                        y = fine_step(j, y)
                    raise Aborted(Abort(float(ts[L]), k, stage, *verdict),
                                  done(coarse_t, coarse, k))
                fine[2 * k - 1], coarse[k] = y[:L], y[L:]
                ran_fine = 2 * k
                y = np.concatenate((fine_step(2 * k, y[:L]), coarse[k]))
            return done(fine_t, fine, 2 * pairs + 1), done(coarse_t, coarse, pairs + 1)
    finally:
        _count(ran_fine + ran_coarse)
