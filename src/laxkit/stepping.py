"""The one fixed-step RK4 driver and the one abort contract.

Every integrator marches one flat state vector, laid out as ((name, length),
...), through :func:`march`, which hands the read-only (T, L) stack of
accepted states to the caller's ``finish``; given one step and one step
count per run, it marches several runs of one start, the runs at dt and at
2 dt say, as one state.  The RK stages of a block of steps write their
inputs and the accepted states in place into one stack, which a guard
judges in one call; if it fires, :class:`Aborted` carries an
:class:`Abort`, at the same step and stage as a guard judging each step
alone would name, and the partial run; the steps of the block computed
past the fault are discarded.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

# A march's guard judges up to BLOCK_STEPS steps in one call, fewer where
# their stage inputs and new states would pass BLOCK_ENTRIES entries, and
# one step at least.
BLOCK_STEPS = 32
BLOCK_ENTRIES = 2**13


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
    """RK4 steps taken by :func:`march` inside a :func:`step_tally` block:
    one per step whose stages ran, the step that tripped a guard included,
    counted per run, so a step shared by two runs counts two."""

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


def rk4_step(rhs, t, y, dt, out):
    """One classic fourth-order step of y' = rhs(t, y), y a flat vector,
    written in place: the inputs of stages 2-4 and the new state go to the
    four rows of ``out``, a (4, L) array of y's dtype or the sequence of its
    rows, and the new state, the last row, is returned.  ``rhs`` must not
    keep its input: a march reuses the rows for later steps.

    The step dt may be an array of per-entry steps, the shape of y, for
    several runs marched as one state; ``t`` is then a per-entry array too,
    and so are the stage times t + dt/2 and t + dt.
    """
    k1 = rhs(t, y)
    half = 0.5 * dt
    t2 = t + half
    y2, y3, y4, y_new = out
    np.add(y, half * k1, out=y2)
    k2 = rhs(t2, y2)
    np.add(y, half * k2, out=y3)
    k3 = rhs(t2, y3)
    np.add(y, dt * k3, out=y4)
    k4 = rhs(t + dt, y4)
    return np.add(y, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=y_new)


def march(rhs, y0, dt, steps, guard, finish, t0=0.0):
    """Take ``steps`` RK4 steps of y' = rhs(t, y) from y(t0) = y0; step k
    ends at t0 + k dt.  The guard judges the steps in blocks of up to
    BLOCK_STEPS, fewer where a block would pass BLOCK_ENTRIES entries: one
    ``guard(ts, ys)`` call on the (4B, L) stack of the block's B steps, each
    step's stage 2-4 inputs and then its new state, at their times ts, the
    stage times formed as :func:`rk4_step` forms them.  The guard returns
    None or (row, (reason, field, index)) of the first row that trips;
    :func:`bound_guard` builds one from bounds on the state, :func:`rowwise`
    from a per-state check.  A fault is reported at the same step and stage
    as a guard called after every step would report it; the up to B - 1
    steps computed past it are discarded.
    The march keeps y0 and every accepted state and returns ``finish(times,
    ys)``: ``times`` of shape (T,) and ``ys`` their read-only stack of shape
    (T, L), where y0 and every ``rhs`` output are flat vectors of length L,
    and the flow keeps y0's dtype (a complex flow needs a complex y0).
    A guard that fires raises :class:`Aborted` with ``finish`` of the states
    kept before the fault.  Floating-point warnings are off: ``rhs`` runs on
    every stage input before the guard sees it, and a blow-up reaches the
    guard as inf or nan.

    With ``dt`` and ``steps`` tuples, one step and one step count per run,
    the runs of the same y0 march together and the march returns the list
    of their ``finish`` results.  The runs still going are one flat state,
    their copies one after the other in run order, so step k of each is one
    :func:`rk4_step` with per-entry steps and times; ``rhs`` gets as many
    copies as runs are going and must treat each on its own, as the guard
    must judge each row of its stack.  Each run then gets bit for bit the
    states and times of its own march.  A run whose guard fires stops, and
    so do the runs after it; the march raises what the runs marched one by
    one would, the abort of the first run that trips, with ``finish`` of its
    kept states only.  The guard gets a block's rows of all copies in step,
    copy, stage order, each copy's rows at its own times, so its first row
    that trips is in the first faulting step, of the first copy in run
    order that trips there.
    """
    if not isinstance(steps, tuple):
        return march(rhs, y0, (dt,), (steps,), guard, finish, t0)[0]
    L = y0.shape[0]
    times = [[t0] + [t0 + k * h for k in range(1, n + 1)] for h, n in zip(dt, steps)]
    kept = [np.empty((n + 1, L), y0.dtype) for n in steps]
    for buf in kept:
        buf[0] = y0
    going, fault, k = range(len(steps)), None, 0

    def done(i, count):
        kept[i].setflags(write=False)
        return finish(np.array(times[i][:count]), kept[i][:count])

    with np.errstate(all="ignore"):
        while going := [i for i in going if steps[i] > k]:
            runs, start, end = len(going), k, min(steps[i] for i in going)
            width = runs * L
            block = max(1, min(BLOCK_STEPS, BLOCK_ENTRIES // (4 * width)))
            rows = np.empty((block, 4, width), y0.dtype)
            outs = [tuple(r) for r in rows]  # each step's four rows, split once
            t = np.array([times[i][start:end + 1] for i in going]).T
            hs = np.array([dt[i] for i in going])
            # the guard's times of each step and copy: its stage 2-4 times,
            # formed as rk4_step forms them, then its end
            stage_t = np.empty((end - start, runs, 4))
            stage_t[..., 0] = stage_t[..., 1] = t[:-1] + 0.5 * hs
            stage_t[..., 2] = t[:-1] + hs
            stage_t[..., 3] = t[1:]
            y = np.concatenate([kept[i][k] for i in going])
            if runs == 1:
                ts, h = times[going[0]][start:], dt[going[0]]
            else:  # per-entry times and steps of the shared state
                ts, h = np.repeat(t, L, axis=1), np.repeat(hs, L)
            for b in range(0, end - start, block):
                n = min(block, end - start - b)
                for j in range(n):
                    y = rk4_step(rhs, ts[b + j], y, h, outs[j])
                trip = guard(stage_t[b:b + n].ravel(),
                             rows[:n].reshape(n, 4, runs, L).swapaxes(1, 2).reshape(-1, L))
                if trip is not None:  # keep the states up to the faulting step
                    row, verdict = trip
                    n, c, stage = row // (4 * runs) + 1, row // 4 % runs, row % 4
                k = start + b + n
                for copy, i in enumerate(going):
                    kept[i][k - n + 1:k + 1] = rows[:n, 3, copy * L:(copy + 1) * L]
                if trip is not None:
                    fault = going[c], Abort(float(stage_t[b + n - 1, c, stage]), k,
                                            stage + 2 if stage < 3 else None, *verdict)
                    going = going[:c]
                    break
            _count(runs * (k - start))
        if fault is not None:
            raise Aborted(fault[1], done(fault[0], fault[1].step))
        return [done(i, n + 1) for i, n in enumerate(steps)]
