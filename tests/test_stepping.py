"""The shared RK4 driver: order, the kept trajectory, the abort contract,
bit identity of the flat chain kernels with the per-component ones, and of
every integrator's flat march with the tuple-state RK4."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxkit import backlund as bt
from laxkit import exact
from laxkit import lattice as lat
from laxkit import lattice_defect as ld
from laxkit import liouville as lv
from laxkit import stepping


def _march_scalar(rhs, y0, dt, steps, guard=None, t0=0.0):
    """March a scalar ODE as a flat state of one slot; returns (times, values)
    of y0 and the accepted steps."""
    return stepping.march(
        rhs,
        np.array([y0]),
        dt,
        steps,
        guard or stepping.bound_guard((("y", 1),)),
        lambda times, ys: (times, ys[:, 0]),
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
        out = np.empty((4, 1))
        y = stepping.rk4_step(lambda t, y: np.array([3 * t**2 + 1.0]), 0.3, np.array([2.0]),
                              0.7, out)
        assert np.shares_memory(y, out[3])
        assert y[0] == pytest.approx(2.0 + (1.0**3 - 0.3**3) + 0.7, abs=1e-14)


class TestTrajectory:
    def test_finish_sees_every_accepted_step(self):
        times, ys = stepping.march(
            lambda t, y: np.ones(2),
            np.zeros(2),
            0.25,
            7,
            stepping.bound_guard((("y", 2),)),
            lambda times, ys: (times, ys),
            t0=1.0,
        )
        assert times.shape == (8,)
        assert list(times) == [1.0 + k * 0.25 for k in range(8)]
        assert ys.shape == (8, 2)
        assert np.allclose(ys, 0.25 * np.arange(8)[:, None], rtol=0, atol=1e-15)

    def test_finish_gets_one_stack_of_the_flat_states(self):
        # flat state (s, a_0, a_1, a_2) with s' = 1 and a' = -a: finish gets
        # one (T, 4) stack, on success and on abort alike
        def rhs(t, y):
            return np.concatenate(([1.0], -y[1:]))

        def finish(times, ys):
            assert ys.shape == (len(times), 4)
            return times, ys

        y0 = np.array([0.0, 1.0, 1.0, 1.0])
        times, ys = stepping.march(rhs, y0, 0.5, 4, lambda ts, ys: None, finish)
        assert list(times) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert np.allclose(ys[:, 0], times, rtol=0, atol=1e-15)
        assert np.array_equal(ys[0], y0)
        assert np.allclose(ys[-1, 1:], np.exp(-2.0), rtol=5e-3, atol=0)

        with pytest.raises(stepping.Aborted) as err:
            stepping.march(rhs, y0, 0.5, 4,
                           stepping.rowwise(lambda t, y: ("late", "a", 0) if t > 1.2 else None),
                           finish)
        assert (err.value.record.step, err.value.record.stage) == (3, 2)
        ab_times, ab_ys = err.value.trajectory
        assert list(ab_times) == [0.0, 0.5, 1.0]
        assert np.array_equal(ab_ys, ys[:3])

    def test_a_complex_flow_needs_a_complex_start(self):
        # the stage rows take y0's dtype: a real start cannot hold a complex
        # stage, and the march says so rather than drop the imaginary part
        with pytest.raises(TypeError):
            _march_scalar(lambda t, y: 1j * y, 1.0, 0.1, 3)
        _, ys = _march_scalar(lambda t, y: 1j * y, 1.0 + 0j, 0.1, 3)
        assert ys[-1] == pytest.approx(np.exp(0.3j), abs=1e-6)

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
            return stepping.locate((("y", 1),), y, limit, "above the limit")

        with pytest.raises(stepping.Aborted) as err:
            _march_scalar(lambda t, y: y * y, 1.0, 1e-3, 2000, guard=stepping.rowwise(guard))
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
            _march_scalar(lambda t, y: -y, 1.0, 0.1, 10, guard=stepping.rowwise(guard))
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
            return ("past 0.9", "y", 0) if y[0] > 0.9 else None

        with pytest.raises(stepping.Aborted) as err:
            _march_scalar(lambda t, y: 3.0 * t**2 + 0.0 * y, 0.0, 1.0, 3,
                          guard=stepping.rowwise(guard))
        rec = err.value.record
        assert (rec.step, rec.stage, rec.t) == (1, None, 1.0)
        assert str(rec) == "past 0.9 after step 1 (t = 1), y[0]"

    def test_locate_names_the_worst_entry(self):
        layout = (("a", 2), ("b", 3))
        y = np.array([1.0, 2.0, 3.0, -7.0, 5.0])
        assert stepping.locate(layout, y) is None
        assert stepping.locate(layout, y, 6.0, "big") == ("big", "b", 1)
        y = np.array([1.0, np.inf, np.nan, 1e9, 0.0])
        assert stepping.locate(layout, y, 6.0, "big") == ("non-finite", "a", 1)
        # a tie goes to the first entry, in field order
        y = np.array([1.0, -7.0, 3.0, 7.0, 5.0])
        assert stepping.locate(layout, y, 6.0, "big") == ("big", "a", 1)

    def test_a_floor_needs_a_finite_ceiling(self):
        # the whole-stack test would pass an inf entry under an infinite ceiling
        with pytest.raises(ValueError, match="finite ceiling"):
            stepping.bound_guard((("v", 2),), floor=1e-8, floored=("v",))

    def test_finite_guard_names_the_first_tripping_row(self):
        guard = stepping.bound_guard((("a", 2), ("b", 1)))
        ys = np.ones((4, 3))
        assert guard((0.5, 0.5, 1.0, 1.0), ys) is None
        ys[3, 0], ys[2, 2] = np.nan, np.inf
        assert guard((0.5, 0.5, 1.0, 1.0), ys) == (2, ("non-finite", "b", 0))

    def test_locate_names_a_defect_slot(self):
        # the defect chain's layout ends in three one-slot fields; the worst
        # entry in the last slot is X[0]
        layout = tuple((name, 4) for name in ("a", "a_bar", "v")) + (
            ("z", 1), ("z_bar", 1), ("X", 1))
        y = np.full(15, 0.5 + 0j)
        y[-1] = 3e8j
        assert stepping.locate(layout, y, 1e8, "big") == ("big", "X", 0)
        assert stepping.bound_guard(layout, **lat.CHAIN_BOUNDS)((0.0,), y[None]) == (
            0, ("field above the ceiling", "X", 0))


def _chain_check(layout):
    """The chain integrators' per-state check as it stood before the one
    guard builder: the reference for the chain layouts."""
    floored = np.flatnonzero([name in ("v", "X") for name, length in layout for _ in range(length)])

    def check(t, y):
        mag = np.abs(y)
        if mag.max() <= lat.FIELD_CEILING and mag[floored].min() >= lat.V_FLOOR:
            return None
        lowest = int(floored[np.argmin(mag[floored])])
        return (stepping.locate(layout, y, lat.FIELD_CEILING, "field above the ceiling")
                or ("field below the floor", *stepping._field_at(layout, lowest)))

    return check


# layout of n sites or grid points -> (guard under test, per-state reference)
GUARD_CASES = {
    "bulk chain": lambda n: (
        layout := tuple((name, n) for name in lat.FIELD_NAMES),
        stepping.bound_guard(layout, **lat.CHAIN_BOUNDS), _chain_check(layout)),
    "defect chain": lambda n: (
        layout := tuple((name, n) for name in lat.FIELD_NAMES) + (
            ("z", 1), ("z_bar", 1), ("X", 1)),
        stepping.bound_guard(layout, **lat.CHAIN_BOUNDS), _chain_check(layout)),
    "liouville": lambda n: (
        layout := (("phi", n), ("pi", n)),
        stepping.bound_guard(layout, lv.BLOWUP, "above the blow-up threshold"),
        lambda t, y: stepping.locate(layout, y, lv.BLOWUP, "above the blow-up threshold")),
    # bt_evolve's layout: its X has no floor
    "finite only": lambda n: (
        layout := tuple((name, n) for name in ("phi~", "X", "Y", "Z")),
        stepping.bound_guard(layout), lambda t, y: stepping.locate(layout, y)),
}

# moduli on both sides of, and exactly at, every bound: the chain floor 1e-8
# and ceiling 1e8, the Liouville threshold 1e6; then overflow and nan
INJECTED = st.tuples(
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 1e-12, 9.9e-9, 1e-8, 1.01e-8, 1e6, 1.01e6, 1e8, 1.01e8, 1e300,
                     np.inf, np.nan]),
    st.sampled_from([1, -1, 1j, -1j, np.exp(0.7j)]),
)


class TestBoundGuard:
    """bound_guard against the per-state checks of the guards it replaced,
    run row by row: the same (row, verdict) on every stack."""

    @pytest.mark.parametrize("case", GUARD_CASES)
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           injected=st.lists(INJECTED, max_size=5))
    def test_matches_the_rowwise_reference(self, case, n, seed, injected):
        layout, guard, reference = GUARD_CASES[case](n)
        width = sum(length for _, length in layout)
        rng = np.random.default_rng(seed)
        ys = rng.uniform(0.5, 2.0, (4, width)) * np.exp(2j * np.pi * rng.uniform(size=(4, width)))
        for row, slot, modulus, phase in injected:
            ys[row, slot % width] = modulus * phase
        ts = (0.5, 0.5, 1.0, 1.0)
        assert guard(ts, ys) == stepping.rowwise(reference)(ts, ys)


class TestReadOnly:
    def test_frozen_arrays_are_kept(self):
        # read-only complex, and read-only down its base chain: no copy
        owner = np.arange(6, dtype=complex)
        owner.setflags(write=False)
        for x in (owner, owner[::2], owner.reshape(2, 3).T):
            assert stepping.read_only(x) is x

    def test_anything_else_is_copied(self):
        owner = np.arange(6, dtype=complex)
        view = owner[1:]
        view.setflags(write=False)  # read-only, but its base is not
        real = np.arange(6.0)
        real.setflags(write=False)
        for x in (owner, view, real, [1.0, 2.0], np.frombuffer(owner.tobytes(), complex)):
            got = stepping.read_only(x)
            assert got is not x and not got.flags.writeable and got.dtype == complex
            assert not np.shares_memory(got, owner)
        got = stepping.read_only(view)
        owner[1] = 99.0
        assert got[0] == 1.0


class TestNanMax:
    def test_is_max_without_nan(self):
        assert stepping.nan_max(0.0, 3.0, 2.0) == 3.0
        assert stepping.nan_max(1.5) == 1.5

    def test_nan_anywhere_gives_nan(self):
        # max(0.0, nan) is 0.0: a running max would drop it
        for values in ((0.0, np.nan), (np.nan, 1.0), (0.0, 1.0, np.float64(np.nan))):
            assert np.isnan(stepping.nan_max(*values))


def _tuple_rk4(rhs, y0, dt, steps, t0=0.0):
    """The tuple-state RK4 the flat march replaced, kept as its reference:
    y0 and every rhs output are tuples of components, each combination runs
    component by component in the same operand order.  Returns one (T, ...)
    stack per component."""
    rows, y = [y0], y0
    for k in range(1, steps + 1):
        t = t0 + (k - 1) * dt
        ks = [rhs(t, y)]
        for c in (0.5, 0.5, 1.0):
            ks.append(rhs(t + c * dt, tuple(a + c * dt * b for a, b in zip(y, ks[-1]))))
        y = tuple(a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, *ks))
        rows.append(y)
    return [np.array(col) for col in zip(*rows)]


def _component_chain_field(a, abar, v, b, bbar):
    """The per-component chain kernel the flat one replaced, kept as its
    reference: velocities of (a, abar, v) with b = a / v and bbar = abar / v
    passed in, each row its own expression."""
    bm = np.concatenate((b[-1:], b[:-1]))        # b_{j-1}
    bbp = np.concatenate((bbar[1:], bbar[:1]))   # bbar_{j+1}
    da = 2.0 * bm * v - 2.0 * b / v + bbp * b * a + bbar * bm * a
    dabar = -2.0 * bbp * v + 2.0 * bbar / v - bbp * b * abar - bbar * bm * abar
    dv = bbp * a - abar * bm
    return da, dabar, dv


def _component_defect_field(a, abar, v, n, et, z, zbar, X):
    """The per-component defect kernel the flat one replaced, kept as its
    reference: (da, dabar, dv, dz, dzbar, dX) of a defect at site n."""
    n0 = n - 1
    b, bbar = a / v, abar / v
    bm, bbp = b[n0 - 1], bbar[n0 + 1]
    bt, bbt = et * (z / X) + bm / X**2, et * (zbar / X) + bbp / X**2
    b[n0], bbar[n0] = bt, bbt
    da, dabar, dv = _component_chain_field(a, abar, v, b, bbar)
    da[n0] = dabar[n0] = dv[n0] = 0.0
    dz = 2.0 * et * bm * X - 2.0 * et * bt / X + bbp * bt * z + bbt * bm * z
    dzbar = -2.0 * et * bbp * X + 2.0 * et * bbt / X - bbp * bt * zbar - bbt * bm * zbar
    dX = et * (bbp * z - zbar * bm)
    return da, dabar, dv, dz, dzbar, dX


class TestFlatKernelMatchesComponents:
    """The flat chain kernels give bit for bit the per-component velocities."""

    @pytest.mark.parametrize("N", [2, 3, 8, 64])
    def test_bulk(self, N):
        field = lat._ChainField(N)
        for seed in range(10):
            s = lat.random_state(N, np.random.default_rng(seed), 0.3)
            want = np.concatenate(_component_chain_field(s.a, s.a_bar, s.v, s.b, s.b_bar))
            assert np.array_equal(field(0.0, np.concatenate((s.a, s.a_bar, s.v))), want)
            d = lat.bulk_eom(s)
            assert np.array_equal(np.concatenate((d.a, d.a_bar, d.v)), want)

    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_defect_at_every_interior_site(self, N):
        # the march passes the defect fields as numpy scalars, defect_eom as
        # the Python complex values of the DefectSite
        field = lat._ChainField(N)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s = lat.random_state(N, rng, 0.3)
            for n in range(2, N):
                d = ld.random_defect(n, rng)
                et = np.exp(d.theta)
                y = np.concatenate((s.a, s.a_bar, s.v, (d.z, d.z_bar, d.X)))
                want = _component_defect_field(s.a, s.a_bar, s.v, n, et, *y[3 * N:])
                got = ld._defect_vector_field(field, y, n, et)
                assert np.array_equal(got, np.concatenate((*want[:3], want[3:])))
                want = _component_defect_field(s.a, s.a_bar, s.v, n, et, d.z, d.z_bar, d.X)
                bulk, *moves = ld.defect_eom(s, d)
                _assert_same((bulk.a, bulk.a_bar, bulk.v, *moves), want)


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class TestFlatMatchesTuples:
    """Each integrator's flat march gives bit for bit the states of the tuple
    RK4 on the per-component vector field, over 100 steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bulk_chain(self, seed):
        s = lat.random_state(8, np.random.default_rng(seed), 0.3)
        traj = lat.integrate(s, 0.01, 1.0)
        want = _tuple_rk4(lambda t, y: _component_chain_field(*y, y[0] / y[2], y[1] / y[2]),
                          (s.a, s.a_bar, s.v), 0.01, 100)
        _assert_same((traj.stack.a, traj.stack.a_bar, traj.stack.v), want)

    @pytest.mark.parametrize("seed", range(10))
    def test_defect_chain_at_every_interior_site(self, seed):
        rng = np.random.default_rng(seed)
        s = lat.random_state(8, rng, 0.3)
        for n in range(2, 8):
            d = ld.random_defect(n, rng)

            def rhs(t, y):
                a, abar, v, z, zbar, X = y
                da, dabar, dv, dz, dzbar, dX = _component_defect_field(
                    a, abar, v, d.n, np.exp(d.theta), z[0], zbar[0], X[0])
                return da, dabar, dv, np.array([dz]), np.array([dzbar]), np.array([dX])

            traj = ld.integrate_with_defect(s, d, 0.005, 0.5)
            want = _tuple_rk4(rhs, (s.a, s.a_bar, s.v, np.array([d.z]), np.array([d.z_bar]),
                                    np.array([d.X])), 0.005, 100)
            ds = traj.defect_stack
            _assert_same((traj.stack.a, traj.stack.a_bar, traj.stack.v, ds.z, ds.z_bar, ds.X),
                         want[:3] + [col[:, 0] for col in want[3:]])

    @pytest.mark.parametrize("seed", range(10))
    def test_liouville(self, seed):
        c = lv.random_config(1.0, 32, np.random.default_rng(seed))
        traj = lv.evolve(c, 2e-3, 0.2)
        want = _tuple_rk4(lambda t, y: lv._vector_field(*y, c.h), (c.phi, c.pi), 2e-3, 100)
        _assert_same((traj.stack.phi, traj.stack.pi), want)

    @pytest.mark.parametrize("seed", range(10))
    def test_backlund_image(self, seed):
        # bt_initial_data marches Python complex seeds, bt_evolve its image
        rng = np.random.default_rng(seed)
        sol, theta = exact.periodic_solution_for_length(1.0), 0.2
        x = np.linspace(-0.9, 0.9, 33)
        h = x[1] - x[0]
        seeds = (sol.phi(x[0], 0.0) + 0.2 * rng.normal(), 0.02 * rng.normal(),
                 0.02 * rng.normal())

        def space_rhs(xv, y):
            pt, yv, zv = y
            phi, phi_t, phi_x = sol.fields(xv, 0.0)
            e = bt._exponentials(phi, pt, np.exp((theta, -theta)))
            pt_t = bt._tilde_t(phi_t, yv, zv, e)
            return (bt._tilde_x(phi_x, yv, zv, e), *bt._space_flow(phi, pt, phi_t, pt_t, yv, zv, e))

        def time_rhs(t, y):
            pt, xx, yv, zv = y
            phi, phi_t, phi_x = sol.fields(x, t)
            e = bt._exponentials(phi, pt, np.exp((theta, -theta)))
            pt_x = lv.derivative_closed(pt, h)
            dx = -0.5j * (pt_x - phi_x) * xx - 2.0 * yv * np.exp(theta) * np.exp(-1j * phi)
            dy, dz = bt._time_flow(phi, pt, phi_x, pt_x, yv, zv, e)
            return bt._tilde_t(phi_t, yv, zv, e), dx, dy, dz

        initial = _tuple_rk4(space_rhs, tuple(complex(v) for v in seeds), (x[-1] - x[0]) / 32,
                             32, t0=x[0])
        _assert_same(bt.bt_initial_data(sol, x, 0.0, theta, *seeds), initial)
        pt0, y0, z0 = initial
        traj = bt.bt_evolve(sol, x, theta, 2.5e-3, 0.25, *seeds)
        want = _tuple_rk4(time_rhs, (pt0, np.exp(0.5j * (pt0 - sol.phi(x, 0.0))), y0, z0),
                          2.5e-3, 100)
        _assert_same((traj.phi_tilde, traj.X, traj.Y, traj.Z), want)


def _same_trajectory(got, want):
    """Bit identity of two chain trajectories: times, stacks, monitors and,
    with a defect, the defect stack."""
    assert np.array_equal(got.times, want.times)
    for name in ("a", "a_bar", "v"):
        assert np.array_equal(getattr(got.stack, name), getattr(want.stack, name))
    assert np.array_equal(got.charges0, want.charges0)
    assert np.array_equal(got.charges2, want.charges2)
    assert list(got.traces) == list(want.traces)
    for u in want.traces:
        assert np.array_equal(got.traces[u], want.traces[u])
    if hasattr(want, "defect_stack"):
        for name in ("z", "z_bar", "X"):
            assert np.array_equal(getattr(got.defect_stack, name),
                                  getattr(want.defect_stack, name))


def _chain_runs(N, seed, amplitude, site=None):
    """The integrate call of a random chain, or of that chain with a random
    defect at ``site``, as a function of (dt, t_end, **flags)."""
    rng = np.random.default_rng(seed)
    s = lat.random_state(N, rng, amplitude)
    if site is None:
        return lambda dt, t_end, **kw: lat.integrate(s, dt, t_end, **kw)
    d = ld.random_defect(site, rng)
    return lambda dt, t_end, **kw: ld.integrate_with_defect(s, d, dt, t_end, **kw)


class TestMarchPair:
    """The runs at dt and 2 dt marched as one two-copy state (``march`` with
    tuple steps) give bit for bit the two marches, results and aborts
    alike."""

    def test_per_entry_times_reach_a_time_dependent_rhs(self):
        # y' = -2 t y on three slots: every stage of each copy sees its own time
        def rhs(t, y):
            return -2.0 * t * y

        y0 = np.array([1.0, 0.5j, -2.0 + 1.0j])
        guard = stepping.bound_guard((("y", 3),))
        finish = lambda times, ys: (times, ys)  # noqa: E731
        fine, coarse = stepping.march(rhs, y0, (0.05, 0.1), (20, 10), guard, finish, t0=0.3)
        for (times, ys), (want_t, want_ys) in zip(
                (fine, coarse), (stepping.march(rhs, y0, 0.05, 20, guard, finish, t0=0.3),
                                 stepping.march(rhs, y0, 0.1, 10, guard, finish, t0=0.3))):
            assert np.array_equal(times, want_t) and np.array_equal(ys, want_ys)
            assert not ys.flags.writeable

    @pytest.mark.parametrize("limit, step, stage, t", [
        # y' = 1 from 0 with dt = 1: the coarse stage 2 input (1.0) trips
        # in the first shared step, the fine stage 4 input of that step too
        (0.9, 1, 4, 1.0),
        # the coarse stage 4 input (2.0) trips in the first shared step and
        # stops the coarse run; the fine run trips at stage 4 of its second
        # step, which runs alone
        (1.5, 2, 4, 2.0),
    ])
    def test_fine_fault_wins_over_an_earlier_coarse_one(self, limit, step, stage, t):
        def rhs(t, y):
            return np.ones_like(y)

        guard = stepping.rowwise(lambda t, y: ("over", "y", 0) if y[0] > limit else None)
        finish = lambda times, ys: (times, ys)  # noqa: E731
        y0 = np.zeros(1, complex)
        with pytest.raises(stepping.Aborted) as want:
            stepping.march(rhs, y0, 1.0, 4, guard, finish)
        with pytest.raises(stepping.Aborted) as got:
            stepping.march(rhs, y0, (1.0, 2.0), (4, 2), guard, finish)
        rec = got.value.record
        assert rec == want.value.record
        assert (rec.step, rec.stage, rec.t) == (step, stage, t)
        for g, w in zip(got.value.trajectory, want.value.trajectory):
            assert np.array_equal(g, w)

    def test_a_tripping_block_goes_to_the_guard_once(self):
        # y' = 1 from 0 at dt, 2 dt and 4 dt with dt = 1: the first block
        # holds the two steps all three runs share; the fine stage 4 input
        # (1.0) and the coarser runs' stage 2 inputs trip in its first step
        check = stepping.rowwise(lambda t, y: ("over", "y", 0) if abs(y[0]) > 0.9 else None)
        judged = []

        def guard(ts, ys):
            judged.append(len(ys))
            return check(ts, ys)

        with pytest.raises(stepping.Aborted) as err:
            stepping.march(lambda t, y: np.ones_like(y), np.zeros(1, complex), (1.0, 2.0, 4.0),
                           (8, 4, 2), guard, lambda times, ys: None)
        assert (err.value.record.step, err.value.record.stage, err.value.record.t) == (1, 4, 1.0)
        assert judged == [2 * 3 * 4]

    def test_step_tally_counts_each_run(self):
        rhs = lambda t, y: -y  # noqa: E731
        y0, guard = np.ones(2, complex), stepping.bound_guard((("y", 2),))
        with stepping.step_tally() as tally:
            stepping.march(rhs, y0, (0.1, 0.2), (10, 5), guard, lambda times, ys: None)
            assert tally.steps == 15
            with stepping.step_tally() as inner:
                stepping.march(rhs, y0, 0.1, 4, guard, lambda times, ys: None)
            with pytest.raises(stepping.Aborted):
                # |y| falls below 0.9 at the stage 2 input of step 2: two steps ran
                stepping.march(rhs, y0, 0.1, 4, stepping.rowwise(
                    lambda t, y: ("low", "y", 0) if abs(y[0]) < 0.9 else None),
                    lambda times, ys: None)
        assert (tally.steps, inner.steps) == (17, 4)

    @pytest.mark.parametrize("N", [3, 4, 8, 12])
    def test_chain_runs_match_two_calls(self, N):
        for seed in range(20):
            for site in (None, *range(2, N)):
                run = _chain_runs(N, seed, 0.3, site)
                pair = run(0.01, 0.1, with_coarse=True)
                assert pair.coarse.coarse is None
                _same_trajectory(pair, run(0.01, 0.1))
                _same_trajectory(pair.coarse, run(0.02, 0.1))

    def test_aborts_match_two_calls(self):
        # large fields blow up within t = 2 at one or both steps; the paired
        # march raises the fine run's abort if it has one, else the coarse's
        seen = set()
        for seed in range(40):
            for site in (None, 3):
                run = _chain_runs(6, seed, 1.0 + 0.05 * seed, site)
                faults = []
                for dt in (0.02, 0.04):
                    try:
                        run(dt, 2.0)
                        faults.append(None)
                    except stepping.Aborted as err:
                        faults.append(err)
                fine, coarse = faults
                if fine is None and coarse is None:
                    continue
                with pytest.raises(stepping.Aborted) as got:
                    run(0.02, 2.0, with_coarse=True)
                want = fine or coarse
                assert str(got.value.record) == str(want.record)
                assert got.value.record == want.record
                _same_trajectory(got.value.trajectory, want.trajectory)
                if fine and coarse:
                    seen.add("both, coarse first" if coarse.record.t < fine.record.t
                             else "both, fine first")
                else:
                    seen.add("fine only" if fine else "coarse only")
        assert seen == {"fine only", "coarse only", "both, fine first", "both, coarse first"}


class TestMarchRuns:
    """Three runs of one start, steps (dt, 2 dt, 4 dt) over (4P, 2P, P)
    steps, marched as one state: each run is bit for bit its own march, up
    to the abort of the first run that trips."""

    Y0 = np.array([1.0, 0.5 + 0.5j, 1.0j])

    @staticmethod
    def _rhs(stiffness, dt, calls):
        # slots 0 and 1 blow up near t = 0.73, (1 + t) y^2; slot 2 decays
        # at a rate that leaves RK4 unstable at the larger steps, so any run
        # may trip first; ``calls`` records a copy of every (t, y) the rhs
        # sees, as the march reuses its stage rows
        grow, decay = np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, stiffness / dt])

        def rhs(t, y):
            calls.append((t, y.copy()))
            copies = y.size // 3
            return (1.0 + t) * (np.tile(grow, copies) * y * y - np.tile(decay, copies) * y)

        return rhs

    @staticmethod
    def _alone(run, joint):
        """(t, y) of the copy of ``run`` in every joint rhs call that had it:
        the runs still going are a prefix, as the step counts fall."""
        return [(t if np.ndim(t) == 0 else t[3 * run], y[3 * run:3 * run + 3])
                for t, y in joint if y.size > 3 * run]

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.integers(1, 4), stiffness=st.floats(0.0, 2.0),
           limit=st.floats(0.1, 4.0).map(lambda e: 10.0 ** e))
    # no run trips; the run at dt only; the run at dt, after one at 4 dt
    # tripped earlier; the run at 4 dt only; the run at 2 dt, after the one
    # at 4 dt tripped earlier
    @example(pairs=2, stiffness=0.5, limit=30.0)
    @example(pairs=2, stiffness=0.5, limit=10.0)
    @example(pairs=2, stiffness=1.0, limit=10.0)
    @example(pairs=2, stiffness=1.0, limit=100.0)
    @example(pairs=2, stiffness=1.5, limit=30.0)
    def test_runs_match_their_own_marches(self, pairs, stiffness, limit):
        dt = 0.7 / (4 * pairs)
        steps, counts = (dt, 2 * dt, 4 * dt), (4 * pairs, 2 * pairs, pairs)
        guard = stepping.rowwise(
            lambda t, y: ("over", "y", int(np.argmax(np.abs(y)))) if np.abs(y).max() > limit
            else None)
        finish = lambda times, ys: (times, ys)  # noqa: E731
        alone, solo_calls = [], []
        for h, n in zip(steps, counts):
            solo_calls.append([])
            try:
                alone.append(stepping.march(self._rhs(stiffness, dt, solo_calls[-1]), self.Y0,
                                            h, n, guard, finish))
            except stepping.Aborted as err:
                alone.append(err)
        joint_calls = []
        first = next((i for i, out in enumerate(alone) if isinstance(out, stepping.Aborted)),
                     None)
        with stepping.step_tally() as tally:
            if first is None:
                got = stepping.march(self._rhs(stiffness, dt, joint_calls), self.Y0, steps,
                                     counts, guard, finish)
                for (times, ys), (want_t, want_ys) in zip(got, alone):
                    assert np.array_equal(times, want_t) and np.array_equal(ys, want_ys)
            else:
                with pytest.raises(stepping.Aborted) as got:
                    stepping.march(self._rhs(stiffness, dt, joint_calls), self.Y0, steps,
                                   counts, guard, finish)
                want = alone[first]
                assert got.value.record == want.record
                for g, w in zip(got.value.trajectory, want.trajectory):
                    assert np.array_equal(g, w)
        # each run stops at its end, at its own fault or at the fault of a
        # run before it: the steps whose stages ran, one tally count each
        taken, stop = [], math.inf
        for n, out in zip(counts, alone):
            if isinstance(out, stepping.Aborted):
                stop = min(stop, out.record.step)
            taken.append(min(n, stop))
        assert tally.steps == sum(taken)
        # up to there every stage of each run sees its own state and time;
        # a step computed past a fault is discarded, and a run that goes on
        # takes it again from its kept state, with the same calls
        for run, n in enumerate(taken):
            steps_seen = {}
            seen = self._alone(run, joint_calls)
            for k in range(0, len(seen), 4):
                step = steps_seen.setdefault(seen[k][0], seen[k:k + 4])
                _same_calls(seen[k:k + 4], step)
            assert n <= len(steps_seen) < n + stepping.BLOCK_STEPS
            _same_calls([call for step in list(steps_seen.values())[:n] for call in step],
                        solo_calls[run][:4 * n])


def _same_calls(got, want):
    """The same rhs calls, (t, y) for (t, y), bit for bit."""
    assert len(got) == len(want)
    for (t, y), (want_t, want_y) in zip(got, want):
        assert t == want_t and np.array_equal(y, want_y)


def _per_step_rk4(rhs, t, y, dt, guard, t_next):
    """The RK4 step that called the guard after every step, kept as the
    reference of the block march: (new state, None or (stage, time, verdict))."""
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
        return y_new, (row + 2 if row < 3 else None, ts[row], verdict)
    return y_new, None


def _per_step_runs_guard(guard, runs, L):
    def check(ts, ys):
        if guard([t[c * L] for t in ts for c in range(runs)], ys.reshape(4 * runs, L)) is None:
            return None
        for c in range(runs):
            if (fault := guard([t[c * L] for t in ts], ys[:, c * L:(c + 1) * L])) is not None:
                row, verdict = fault
                return row, (c, verdict)
        return None

    return check


def _per_step_march(rhs, y0, dt, steps, guard, finish, t0=0.0):
    """The march that judged every step on its own, kept as the reference of
    the block march: the same arguments, results, aborts and step tally."""
    if not isinstance(steps, tuple):
        return _per_step_march(rhs, y0, (dt,), (steps,), guard, finish, t0)[0]
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
            y = np.concatenate([kept[i][k] for i in going])
            if runs == 1:
                ts, h, check = times[going[0]][k:], dt[going[0]], guard
            else:
                ts = np.repeat(np.array([times[i][k:end + 1] for i in going]).T, L, axis=1)
                h = np.repeat([dt[i] for i in going], L)
                check = _per_step_runs_guard(guard, runs, L)
            for k in range(start + 1, end + 1):
                y, trip = _per_step_rk4(rhs, ts[k - 1 - start], y, h, check, ts[k - start])
                for c, i in enumerate(going):
                    kept[i][k] = y[c * L:(c + 1) * L]
                if trip is not None:
                    stage, t, verdict = trip
                    c = 0
                    if runs > 1:
                        (c, verdict), t = verdict, t[verdict[0] * L]
                    fault = going[c], stepping.Abort(float(t), k, stage, *verdict)
                    going = going[:c]
                    break
            stepping._count(runs * (k - start))
        if fault is not None:
            raise stepping.Aborted(fault[1], done(fault[0], fault[1].step))
        return [done(i, n + 1) for i, n in enumerate(steps)]


class TestBlockBoundaries:
    """The march that judges blocks of steps against the per-step reference,
    on a fault placed at one row: the first, a middle or the last step of a
    block, or in a short final block; at each stage or after the step; of
    one run, or of one of several marched as one state.  The same Abort,
    partial trajectory and step tally, and the same rhs calls up to the
    fault."""

    Y0 = np.array([0.3, 0.2j, -0.1 + 0.1j])
    DT = 0.01
    COUNTS = (68, 34, 17)  # 68 steps at dt: blocks of 32, 32 and 4

    @staticmethod
    def _rhs(calls):
        def rhs(t, y):
            calls.append((np.copy(t), y.copy()))
            return (1.0 + t) * (0.5j * y + 0.2 * y * y)

        return rhs

    def _target(self, runs, run, step, stage):
        """(t, y) of the row of ``run`` at ``step`` and ``stage``, from each
        run's own per-step march; no other row of any run equals it."""
        rows = []  # per run and step, the (t, y) of its four rows
        for i in range(runs):
            rows.append([])
            _per_step_march(self._rhs([]), self.Y0, self.DT * 2**i, self.COUNTS[i],
                            lambda ts, ys: rows[-1].append(list(zip(ts, ys.copy()))),
                            lambda times, ys: None)
        t, y = rows[run][step - 1][3 if stage is None else stage - 2]
        assert sum(t == u and np.array_equal(y, v)
                   for run_rows in rows for step_rows in run_rows for u, v in step_rows) == 1
        return t, y

    @pytest.mark.parametrize("runs, run, step", [
        # one run: the first, a middle and the last step of a block, the
        # first of the next, and a step of the short final block; the
        # middle steps are ones whose stage 4 time, t + dt, is not the
        # step's end time k dt
        (1, 0, 1), (1, 0, 15), (1, 0, 32), (1, 0, 33), (1, 0, 66),
        # dt and 2 dt: steps 1-34 shared (a block of 32, then 2), then
        # steps 35-68 of the fine run alone (32, then 4)
        (2, 0, 1), (2, 0, 32), (2, 0, 33), (2, 0, 35), (2, 0, 48), (2, 0, 66), (2, 0, 68),
        (2, 1, 1), (2, 1, 15), (2, 1, 32), (2, 1, 34),
        # dt, 2 dt and 4 dt: segments of 17, 17 and 34 steps
        (3, 2, 10), (3, 1, 17), (3, 1, 21), (3, 0, 42),
    ])
    @pytest.mark.parametrize("stage", [2, 3, 4, None])
    def test_matches_the_per_step_march(self, runs, run, step, stage):
        t_hit, y_hit = self._target(runs, run, step, stage)
        guard = stepping.rowwise(
            lambda t, y: ("hit", "y", 0) if t == t_hit and np.array_equal(y, y_hit) else None)
        finish = lambda times, ys: (times, ys)  # noqa: E731
        dts = tuple(self.DT * 2**i for i in range(runs))
        outcome = []
        for march in (_per_step_march, stepping.march):
            calls, trips = [], []

            def judged(ts, ys):
                # the rhs calls made before the first guard call that fires
                if (fault := guard(ts, ys)) is not None and not trips:
                    trips.append(len(calls))
                return fault

            with stepping.step_tally() as tally, pytest.raises(stepping.Aborted) as err:
                march(self._rhs(calls), self.Y0, dts, self.COUNTS[:runs], judged, finish)
            outcome.append((err.value, tally.steps, calls, trips[0]))
        (want, want_steps, want_calls, upto), (got, got_steps, got_calls, _) = outcome
        assert (want.record.step, want.record.stage) == (step, stage)
        assert got.record == want.record
        for g, w in zip(got.trajectory, want.trajectory):
            assert np.array_equal(g, w)
        assert got_steps == want_steps
        assert len(got_calls) >= upto
        for (t, y), (want_t, want_y) in zip(got_calls[:upto], want_calls[:upto]):
            assert np.array_equal(t, want_t) and np.array_equal(y, want_y)
