"""The shared RK4 driver: order, the kept trajectory and the abort contract."""

import numpy as np
import pytest

from laxkit import stepping


def _march_scalar(rhs, y0, dt, steps, guard=None, t0=0.0):
    """March a scalar ODE; returns (times, values) of y0 and the accepted steps."""
    return stepping.march(
        lambda t, y: (rhs(t, y[0]),),
        (np.array([y0]),),
        dt,
        steps,
        guard or stepping.finite_guard(("y",)),
        lambda times, ys: (times, ys[0][:, 0]),
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


class TestTrajectory:
    def test_finish_sees_every_accepted_step(self):
        times, ys = stepping.march(
            lambda t, y: (np.ones(2),),
            (np.zeros(2),),
            0.25,
            7,
            stepping.finite_guard(("y",)),
            lambda times, ys: (times, ys),
            t0=1.0,
        )
        assert times.shape == (8,)
        assert list(times) == [1.0 + k * 0.25 for k in range(8)]
        assert len(ys) == 1 and ys[0].shape == (8, 2)
        assert np.allclose(ys[0], 0.25 * np.arange(8)[:, None], rtol=0, atol=1e-15)

    def test_finish_stacks_scalar_and_array_components(self):
        # state (s, a) with s' = 1 and a' = -a: a scalar and a 3-vector
        # component stack to (T,) and (T, 3), on success and on abort alike
        def rhs(t, y):
            return 1.0, -y[1]

        def finish(times, ys):
            s, a = ys
            assert times.shape == s.shape == (len(times),)
            assert a.shape == (len(times), 3)
            return times, s, a

        times, s, a = stepping.march(rhs, (0.0, np.ones(3)), 0.5, 4, lambda t, y: None, finish)
        assert list(times) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert np.allclose(s, times, rtol=0, atol=1e-15)
        assert np.array_equal(a[0], np.ones(3))
        assert np.allclose(a[-1], np.exp(-2.0), rtol=5e-3, atol=0)

        with pytest.raises(stepping.Aborted) as err:
            stepping.march(rhs, (0.0, np.ones(3)), 0.5, 4,
                           lambda t, y: ("late", "a", 0) if t > 1.2 else None, finish)
        assert (err.value.record.step, err.value.record.stage) == (3, 2)
        ab_times, ab_s, ab_a = err.value.trajectory
        assert list(ab_times) == [0.0, 0.5, 1.0]
        assert np.array_equal(ab_s, s[:3]) and np.array_equal(ab_a, a[:3])

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
