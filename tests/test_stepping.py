"""The shared RK4 driver: order, recording cadence and the abort contract."""

import numpy as np
import pytest

from laxkit import stepping


def _march_scalar(rhs, y0, dt, steps, guard=None, t0=0.0):
    """March a scalar ODE; returns (times, values) of the accepted steps."""
    times, values = [t0], [y0]

    def record(k, t, y):
        times.append(t)
        values.append(y[0][0])

    return stepping.march(
        lambda t, y: (rhs(t, y[0]),),
        (np.array([y0]),),
        dt,
        steps,
        guard or stepping.finite_guard(("y",)),
        record,
        lambda: (np.array(times), np.array(values)),
        t0=t0,
    )


class TestOrder:
    def test_fourth_order_on_time_dependent_ode(self):
        # y' = -2 t y has y = y(t0) exp(t0^2 - t^2); every stage has to see
        # its own time for the observed order to come out as 4
        t0, t1 = 0.5, 2.5
        exact = np.exp(t0**2 - t1**2)
        errs = []
        for steps in (40, 80, 160):
            _, ys = _march_scalar(lambda t, y: -2.0 * t * y, 1.0, (t1 - t0) / steps, steps,
                                  t0=t0)
            errs.append(abs(ys[-1] - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.8 <= np.log2(coarse / fine) <= 4.2

    def test_rk4_step_is_exact_on_cubics(self):
        # y' = 3 t^2 + 1: RK4 integrates polynomials of degree <= 3 exactly
        y, fault = stepping.rk4_step(
            lambda t, y: (3 * t**2 + 1.0,), 0.3, (2.0,), 0.7, lambda t, y: None
        )
        assert fault is None
        assert y[0] == pytest.approx(2.0 + (1.0**3 - 0.3**3) + 0.7, abs=1e-14)


class TestRecord:
    def test_record_fires_on_every_accepted_step(self):
        calls = []
        out = stepping.march(
            lambda t, y: (np.ones(2),),
            (np.zeros(2),),
            0.25,
            7,
            stepping.finite_guard(("y",)),
            lambda k, t, y: calls.append((k, t, y[0].copy())),
            lambda: "done",
            t0=1.0,
        )
        assert out == "done"
        assert [k for k, _, _ in calls] == list(range(1, 8))
        assert [t for _, t, _ in calls] == [1.0 + k * 0.25 for k in range(1, 8)]
        assert np.allclose(calls[-1][2], 7 * 0.25)

    def test_count_steps(self):
        assert stepping.count_steps(0.1, 1.0) == 10
        for dt, t_end in ((0.0, 1.0), (-0.1, 1.0), (1.0, 0.5)):
            with pytest.raises(ValueError, match="0 < dt <= t_end"):
                stepping.count_steps(dt, t_end)
        # the last step must end at t_end: 0.3 steps would stop at 0.9
        assert stepping.count_steps(0.003, 0.999) == 333
        for dt, t_end in ((0.3, 1.0), (0.4, 1.0), (0.003, 1.0)):
            with pytest.raises(ValueError, match="whole multiple"):
                stepping.count_steps(dt, t_end)


class TestAbort:
    def test_pole_of_riccati_equation(self):
        # y' = y^2, y(0) = 1 has y = 1 / (1 - t), a pole at t* = 1; with no
        # size limit the march runs until a stage overflows, and the abort
        # time converges to t* as dt halves
        gaps = []
        for dt in (0.02, 0.01, 0.005):
            with pytest.raises(stepping.Aborted) as err:
                _march_scalar(lambda t, y: y * y, 1.0, dt, int(round(2.0 / dt)))
            rec = err.value.record
            assert rec.reason == "non-finite" and rec.field == "y" and rec.index == 0
            assert rec.stage in (2, 3, 4, None)
            assert rec.step >= 1
            assert rec.t == pytest.approx((rec.step - 1) * dt, abs=dt)
            times, values = err.value.trajectory
            assert len(times) == rec.step  # t = 0 and the steps before the abort
            assert np.all(np.isfinite(values))
            gaps.append(abs(rec.t - 1.0))
        assert gaps[0] <= 0.1
        assert gaps[2] < gaps[1] < gaps[0]

    def test_size_limit_fires_at_a_stage(self):
        # the guard limit 1e3 is passed by the stage input of the step that
        # reaches t = 1 - 1e-3, before any accepted step exceeds it
        limit = 1e3

        def guard(t, y):
            return stepping.locate(("y",), y, limit, "above the limit")

        with pytest.raises(stepping.Aborted) as err:
            _march_scalar(lambda t, y: y * y, 1.0, 1e-3, 2000, guard=guard)
        rec = err.value.record
        assert rec.reason == "above the limit"
        assert abs(rec.t - 1.0) <= 2e-3
        times, values = err.value.trajectory
        assert np.max(np.abs(values)) <= limit

    def test_stage_and_step_are_reported(self):
        # a guard that fires on the input of the first stage at t = 0.25
        # (stage 2 of step 3 with dt = 0.1 from t0 = 0)
        def guard(t, y):
            return ("late", "y", 0) if t > 0.24 else None

        with pytest.raises(stepping.Aborted) as err:
            _march_scalar(lambda t, y: -y, 1.0, 0.1, 10, guard=guard)
        rec = err.value.record
        assert (rec.step, rec.stage) == (3, 2)
        assert rec.t == pytest.approx(0.25)
        assert str(rec) == "late at RK stage 2 of step 3 (t = 0.25), y[0]"
        times, _ = err.value.trajectory
        assert list(times) == pytest.approx([0.0, 0.1, 0.2])

    def test_accepted_step_abort_has_no_stage(self):
        # y' = 3 t^2 from y(0) = 0 with dt = 1: the stage inputs are 0, 0.375
        # and 0.75, the accepted step is exactly 1
        def guard(t, y):
            return ("past 0.9", "y", 0) if y[0][0] > 0.9 else None

        with pytest.raises(stepping.Aborted) as err:
            _march_scalar(lambda t, y: 3.0 * t**2 + 0.0 * y, 0.0, 1.0, 3, guard=guard)
        rec = err.value.record
        assert (rec.step, rec.stage, rec.t) == (1, None, 1.0)
        assert str(rec) == "past 0.9 after step 1 (t = 1), y[0]"

    def test_locate_names_the_worst_entry(self):
        y = (np.array([1.0, 2.0]), np.array([3.0, -7.0, 5.0]))
        assert stepping.locate(("a", "b"), y) is None
        assert stepping.locate(("a", "b"), y, 6.0, "big") == ("big", "b", 1)
        y = (np.array([1.0, np.inf]), np.array([np.nan, 1e9]))
        assert stepping.locate(("a", "b"), y, 6.0, "big") == ("non-finite", "a", 1)
