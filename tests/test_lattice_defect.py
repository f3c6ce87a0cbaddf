import numpy as np
import pytest

from laxkit import lattice as lat
from laxkit import lattice_defect as ld
from laxkit import stepping
from laxkit.laurent import LaurentSeries, matrix_product_chain
from reference_oracles import defect_bracket


def random_spectral_pair(rng, min_sep=0.1):
    while True:
        lam = complex(rng.normal(), rng.normal())
        mu = complex(rng.normal(), rng.normal())
        if abs(np.sinh(lam - mu)) > min_sep:
            return lam, mu


def transparent_defect(n=2):
    return ld.DefectSite(n, 0.0, 0.0, 0.0, 1.0)


def _disk_draw_defect(n, rng):
    """random_defect as it drew its fields, two scalar uniform calls per
    disk; kept as the reference for the one-call draw."""

    def disk(scale):
        r = np.sqrt(rng.uniform()) * scale
        return r * np.exp(2j * np.pi * rng.uniform())

    return ld.DefectSite(n, 0.5 * disk(1.0), disk(1.0), disk(1.0), np.exp(disk(0.5)))


class TestRandomDefect:
    def test_one_call_draw_matches_disk_draws(self):
        for seed in range(300):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = ld.random_defect(3, got_rng), _disk_draw_defect(3, want_rng)
            for name in ("theta", "z", "z_bar", "X"):
                g, w = getattr(got, name), getattr(want, name)
                assert np.array_equal(g, w) and type(g) is type(w)
            assert got.n == 3 and got_rng.random() == want_rng.random()


class TestDefectLax:
    def test_transparent_is_scalar_identity(self):
        m = ld.build_defect_lax(transparent_defect())
        assert m[0, 0].coeffs == {1: 1.0, -1: -1.0}
        assert m[1, 1].coeffs == {1: 1.0, -1: -1.0}
        assert m[0, 1].is_zero() and m[1, 0].is_zero()

    def test_offdiagonals_u_independent(self):
        rng = np.random.default_rng(40)
        d = ld.random_defect(2, rng)
        m = ld.build_defect_lax(d)
        assert set(m[0, 1].coeffs) <= {0}
        assert set(m[1, 0].coeffs) <= {0}

    def test_determinant_matches_hand_expansion(self):
        rng = np.random.default_rng(41)
        d = ld.random_defect(3, rng)
        det = ld.build_defect_lax(d).det
        em2, ep2 = np.exp(-2 * d.theta), np.exp(2 * d.theta)
        # (u e^-t X - u^-1 e^t/X)(u e^-t/X - u^-1 e^t X) - z zbar
        hand = LaurentSeries(
            {2: em2, 0: -d.X**2 - d.X**-2 - d.z * d.z_bar, -2: ep2}
        )
        for e in set(det.coeffs) | set(hand.coeffs):
            assert abs(det.coefficient(e) - hand.coefficient(e)) < 1e-13

    def test_zero_X_rejected(self):
        with pytest.raises(lat.SingularStateError):
            ld.DefectSite(2, 0.0, 0.1, 0.1, 0.0)


class TestDefectAlgebra:
    def test_residual_small_on_random_samples(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            d = ld.random_defect(2, rng)
            lam, mu = random_spectral_pair(rng)
            worst = max(worst, ld.check_defect_algebra(d, lam, mu))
        assert worst <= 1e-10

    def test_same_species_brackets_vanish(self):
        rng = np.random.default_rng(43)
        d = ld.random_defect(2, rng)
        assert defect_bracket("z", "z", d) == 0
        assert defect_bracket("z_bar", "z_bar", d) == 0
        assert defect_bracket("X", "X", d) == 0

    def test_z_zbar_bracket_vanishes_at_unit_X(self):
        d = ld.DefectSite(2, 0.3, 0.5 + 0.1j, -0.2j, 1.0)
        assert abs(defect_bracket("z", "z_bar", d)) < 1e-15

    def test_unknown_reference_rejected(self):
        d = transparent_defect()
        with pytest.raises(ValueError):
            defect_bracket("w", "X", d)


class TestDefectMonodromy:
    def test_transparent_defect_trace(self):
        # zero-amplitude bulk, v_n = 1: site n contributes (u - u^-1) Identity
        n = 4
        z = np.zeros(n, dtype=complex)
        s = lat.LatticeState(z, z.copy(), np.ones(n, dtype=complex))
        d = transparent_defect(2)
        tr = ld.defect_monodromy(s, d).trace
        factors = [lat.build_lax(s, j) for j in (4, 3, 1)]
        manual = matrix_product_chain(factors).scale(LaurentSeries({1: 1.0, -1: -1.0}))
        expect = manual.trace
        for e in set(tr.coeffs) | set(expect.coeffs):
            assert abs(tr.coefficient(e) - expect.coefficient(e)) < 1e-13

    def test_two_site_hand_product(self):
        rng = np.random.default_rng(44)
        s = lat.random_state(2, rng)
        d = ld.random_defect(1, rng)
        got = ld.defect_monodromy(s, d)
        expect = matrix_product_chain([lat.build_lax(s, 2), ld.build_defect_lax(d)])
        for i in range(2):
            for j in range(2):
                for e in set(got[i, j].coeffs) | set(expect[i, j].coeffs):
                    assert abs(got[i, j].coefficient(e) - expect[i, j].coefficient(e)) < 1e-13

    def test_degree_span(self):
        rng = np.random.default_rng(45)
        s = lat.random_state(5, rng)
        d = ld.random_defect(3, rng)
        t = ld.defect_monodromy(s, d)
        exps = [e for i in range(2) for j in range(2) for e in t[i, j].coeffs]
        assert max(exps) == 5 and min(exps) == -5

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_probe_array_matches_scalar_calls(self, n):
        probes = np.array([2.0, 3.0, 0.7 + 0.3j, -1.1j, 0.5])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = lat.random_state(n, rng)
            d = ld.random_defect(int(rng.integers(1, n + 1)), rng)
            batched = ld.defect_monodromy_value(s, d, probes)
            single = np.array([ld.defect_monodromy_value(s, d, u) for u in probes])
            # reference: the ordered product of the site matrices, one by one
            loop = []
            for u in probes:
                m = np.eye(2, dtype=complex)
                for j in range(n, 0, -1):
                    m = m @ (ld.defect_lax_value(d, u) if j == d.n else lat.lax_value(s, j, u))
                loop.append(m)
            scale = np.max(np.abs(single), axis=(-2, -1))
            assert np.all(np.max(np.abs(batched - single), axis=(-2, -1)) <= 1e-14 * scale)
            assert np.all(np.max(np.abs(batched - np.array(loop)), axis=(-2, -1)) <= 1e-13 * scale)


class TestDefectCharges:
    def test_closed_form_matches_trace(self):
        rng = np.random.default_rng(46)
        for n in (3, 4, 5, 6, 64, 96):
            for _ in range(10):
                s = lat.random_state(n, rng)
                d = ld.random_defect(int(rng.integers(1, n + 1)), rng)
                c0, c2 = ld.defect_charges(s, d)
                lead, cs = ld.defect_charges_from_trace(s, d)
                assert lead == n
                assert abs(np.exp(cs[0]) - np.exp(c0)) <= 1e-12 * abs(np.exp(c0))
                assert abs(cs[2] - c2) <= 1e-12 * max(1.0, abs(c2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_rejects_fewer_than_three_sites(self, n):
        # below N = 3 the defect's neighbours n-1 and n+1 coincide (or are the
        # defect itself) and the deformed hopping sum misses the trace
        s = lat.random_state(n, np.random.default_rng(3), 0.3)
        with pytest.raises(ValueError, match="N >= 3"):
            ld.defect_charges(s, ld.DefectSite(1, 0.1, 0.2 - 0.1j, 0.3j, 1.1))

    @pytest.mark.parametrize("scale", [1e10, 1e-10])
    def test_out_of_range_fields_raise(self, scale):
        # N = 40: the product of the v_j (about scale^39) leaves double range
        s = lat.random_state(40, np.random.default_rng(0))
        s = lat.LatticeState(s.a, s.a_bar, s.v * scale)
        d = ld.DefectSite(2, 0.1, 0.2 - 0.1j, 0.3j, 1.1)
        with pytest.raises(OverflowError):
            ld.defect_charges_from_trace(s, d)

    def test_order1_vanishes(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            s = lat.random_state(n, rng)
            d = ld.random_defect(int(rng.integers(1, n + 1)), rng)
            _, cs = ld.defect_charges_from_trace(s, d)
            assert abs(cs[1]) <= 1e-12 * max(1.0, abs(cs[0]))

    def test_transparent_defect_order0(self):
        n = 5
        z = np.zeros(n, dtype=complex)
        v = np.ones(n, dtype=complex) * np.exp(0.2 + 0.1j)
        v[2] = 1.0
        s = lat.LatticeState(z, z.copy(), v)
        d = transparent_defect(3)
        c0, _ = ld.defect_charges(s, d)
        bulk0, _, _ = lat.charges_closed_form(s)
        assert abs(c0 - (bulk0 - np.log(v[2]))) < 1e-14


class TestDefectTimeLax:
    def test_transparent_reduction(self):
        rng = np.random.default_rng(48)
        s = lat.random_state(5, rng)
        d = transparent_defect(3)
        mu = 0.2 - 0.4j
        a_n, a_np1 = ld.defect_time_lax(s, d, mu)
        # with X = 1, z = zbar = 0 the tilde combinations collapse onto the
        # neighbour fields: btilde = b_{n-1}, bbartilde = bbar_{n+1}
        bt, bbt = s.b[d.n - 2], s.b_bar[d.n % s.N]
        w = np.exp(mu)
        expect_n = np.array(
            [[2 * w * w - bbt * s.b[d.n - 2], 2 * w * bbt],
             [2 * w * s.b[d.n - 2], bbt * s.b[d.n - 2]]]
        )
        assert np.max(np.abs(a_n - expect_n)) < 1e-14
        expect_np1 = np.array(
            [[2 * w * w - s.b_bar[d.n % s.N] * bt, 2 * w * s.b_bar[d.n % s.N]],
             [2 * w * bt, s.b_bar[d.n % s.N] * bt]]
        )
        assert np.max(np.abs(a_np1 - expect_np1)) < 1e-14

    def test_trace_field_independent(self):
        rng = np.random.default_rng(49)
        s = lat.random_state(6, rng)
        d = ld.random_defect(3, rng)
        mu = 0.15 + 0.3j
        a_n, a_np1 = ld.defect_time_lax(s, d, mu)
        for m in (a_n, a_np1):
            assert abs(np.trace(m) - 2.0 * np.exp(2 * mu)) < 1e-12

    def test_zero_amplitude_diagonal(self):
        n = 5
        z = np.zeros(n, dtype=complex)
        s = lat.LatticeState(z, z.copy(), np.ones(n, dtype=complex))
        d = ld.DefectSite(3, 0.1, 0.0, 0.0, np.exp(0.2))
        a_n, a_np1 = ld.defect_time_lax(s, d, 0.3)
        assert abs(a_n[0, 1]) < 1e-15 and abs(a_n[1, 0]) < 1e-15
        assert abs(a_np1[0, 1]) < 1e-15 and abs(a_np1[1, 0]) < 1e-15


class TestDefectEom:
    def test_fixed_point(self):
        n = 5
        z = np.zeros(n, dtype=complex)
        s = lat.LatticeState(z, z.copy(), np.ones(n, dtype=complex))
        d = ld.DefectSite(3, 0.2, 0.0, 0.0, 1.0)
        bulk, dz, dzbar, dX = ld.defect_eom(s, d)
        assert bulk.max_abs() == 0.0
        assert dz == 0 and dzbar == 0 and dX == 0

    def test_charge_conserved_along_flow(self):
        rng = np.random.default_rng(50)
        worst = 0.0
        for _ in range(20):
            s = lat.random_state(6, rng)
            d = ld.random_defect(3, rng)
            bulk, dz, dzb, dX = ld.defect_eom(s, d)
            eps = 1e-4

            def shifted(e):
                st = lat.LatticeState(
                    s.a + e * bulk.a, s.a_bar + e * bulk.a_bar, s.v + e * bulk.v
                )
                df = d.replace(z=d.z + e * dz, z_bar=d.z_bar + e * dzb, X=d.X + e * dX)
                return ld.defect_charges(st, df)[1]

            der = (-shifted(2 * eps) + 8 * shifted(eps) - 8 * shifted(-eps) + shifted(-2 * eps)) / (
                12 * eps
            )
            worst = max(worst, abs(der))
        assert worst <= 1e-10

    def test_zero_curvature_all_three_stencils(self):
        rng = np.random.default_rng(51)
        worst = {"left": 0.0, "defect": 0.0, "right": 0.0}
        for _ in range(50):
            n = int(rng.integers(4, 8))
            s = lat.random_state(n, rng)
            d = ld.random_defect(int(rng.integers(2, n)), rng)
            mu = complex(0.4 * rng.normal(), 0.4 * rng.normal())
            res = ld.defect_zero_curvature_residuals(s, d, mu)
            for k, val in res.items():
                worst[k] = max(worst[k], val)
        assert all(v <= 1e-10 for v in worst.values())

    def test_transparent_reduction_at_neighbours(self):
        rng = np.random.default_rng(52)
        s = lat.random_state(6, rng)
        d = transparent_defect(3)
        bulk, *_ = ld.defect_eom(s, d)
        ref = lat.bulk_eom(s)
        n0 = d.n - 1
        # site n-1 matches the bulk flow with bbar_n replaced by bbar_{n+1}
        b, bbar, v, a, abar = s.b, s.b_bar, s.v, s.a, s.a_bar
        i = n0 - 1
        bbt = bbar[(n0 + 1) % s.N]
        expect_da = (
            2 * b[i - 1] * v[i] - 2 * b[i] / v[i] + bbt * b[i] * a[i] + bbar[i] * b[i - 1] * a[i]
        )
        assert abs(bulk.a[i] - expect_da) < 1e-14
        # far sites keep the bulk flow exactly
        far = (n0 + 3) % s.N
        assert abs(bulk.a[far] - ref.a[far]) < 1e-14
        assert abs(bulk.v[far] - ref.v[far]) < 1e-14

    @pytest.mark.parametrize("N", [4, 8, 40])
    def test_neighbours_move_like_bulk_sites_carrying_tilde_fields(self, N):
        # the defect acts on sites n-1 and n+1 like a bulk site n whose
        # hopping fields are b_n = btilde and bbar_n = bbartilde
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = lat.random_state(N, rng)
            sites = range(2, N) if N <= 8 else [int(rng.integers(2, N))]
            for n in sites:
                d = ld.random_defect(n, rng)
                a, abar = s.a.copy(), s.a_bar.copy()
                a[n - 1] = ld.tilde_b(s, d) * s.v[n - 1]
                abar[n - 1] = ld.tilde_b_bar(s, d) * s.v[n - 1]
                want = lat.bulk_eom(s.replace(a=a, a_bar=abar))
                got, *_ = ld.defect_eom(s, d)
                for j in (n - 1, n + 1):
                    w, g = np.array(want.site(j)), np.array(got.site(j))
                    assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_boundary_adjacent_defect_rejected(self):
        rng = np.random.default_rng(53)
        s = lat.random_state(4, rng)
        for n in (1, 4):
            d = ld.DefectSite(n, 0.1, 0.1, 0.1, 1.0)
            with pytest.raises(ValueError, match="interior"):
                ld.defect_eom(s, d)


class TestIntegrateWithDefect:
    def test_fixed_point_stays_constant(self):
        n = 5
        z = np.zeros(n, dtype=complex)
        s = lat.LatticeState(z, z.copy(), np.ones(n, dtype=complex))
        d = ld.DefectSite(3, 0.2, 0.0, 0.0, 1.0)
        traj = ld.integrate_with_defect(s, d, dt=0.05, t_end=1.0)
        assert traj.drift("2") < 1e-14
        assert abs(traj.defects[-1].X - 1.0) < 1e-14

    def test_fourth_order_charge_drift(self):
        rng = np.random.default_rng(54)
        s = lat.random_state(6, rng, amplitude=0.3)
        d = ld.DefectSite(3, 0.1, 0.05 + 0.02j, 0.04 - 0.01j, np.exp(0.1))
        d1 = ld.integrate_with_defect(s, d, dt=2e-2, t_end=2.0).drift("2")
        d2 = ld.integrate_with_defect(s, d, dt=1e-2, t_end=2.0).drift("2")
        assert 12.0 <= d1 / d2 <= 20.0

    def test_trace_invariance_tracks_charge_drift(self):
        rng = np.random.default_rng(54)
        s = lat.random_state(6, rng, amplitude=0.3)
        d = ld.DefectSite(3, 0.1, 0.05 + 0.02j, 0.04 - 0.01j, np.exp(0.1))
        t1 = ld.integrate_with_defect(s, d, dt=2e-2, t_end=2.0)
        t2 = ld.integrate_with_defect(s, d, dt=1e-2, t_end=2.0)
        assert 10.0 <= t1.trace_drift(2.0) / t2.trace_drift(2.0) <= 24.0

    def test_diverging_trajectory_aborts(self):
        rng = np.random.default_rng(55)
        s = lat.random_state(6, rng, amplitude=3.0)
        d = ld.DefectSite(3, 0.1, 1.5, 1.2, np.exp(0.4))
        with pytest.raises(stepping.Aborted) as err:
            ld.integrate_with_defect(s, d, dt=2e-2, t_end=5.0)
        traj = err.value.trajectory
        assert traj is not None
        rec = err.value.record
        assert rec.field in ("a", "a_bar", "v", "z", "z_bar", "X")
        assert len(traj.times) == len(traj.states) == len(traj.defects) == rec.step
        # the monitors were computed over the partial stack, one per row
        for series in (traj.charges0, traj.charges2, *traj.traces.values()):
            assert len(series) == rec.step and np.all(np.isfinite(series))

    def test_monitors_equal_the_single_state_functions(self):
        # the batched monitors agree with the one-state functions applied to
        # traj.states[k] and traj.defects[k], up to the last bits that array
        # arithmetic on the stack may round differently
        rng = np.random.default_rng(54)
        s = lat.random_state(6, rng, amplitude=0.3)
        d = ld.DefectSite(3, 0.1, 0.05 + 0.02j, 0.04 - 0.01j, np.exp(0.1))
        probes = (2.0, 3.0)
        traj = ld.integrate_with_defect(s, d, 2e-2, 0.4, probes)
        assert len(traj.states) == len(traj.defects) == len(traj.times) == 21
        assert (traj.defects[0].z, traj.defects[0].X) == (d.z, d.X)
        for k, (st, dk) in enumerate(zip(traj.states, traj.defects)):
            want = [*ld.defect_charges(st, dk),
                    *np.trace(ld.defect_monodromy_value(st, dk, probes), axis1=1, axis2=2)]
            got = [traj.charges0[k], traj.charges2[k], *(traj.traces[u][k] for u in probes)]
            assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_t_end_off_the_step_grid_rejected(self):
        s = lat.random_state(4, np.random.default_rng(0), 0.1)
        with pytest.raises(ValueError, match="whole multiple"):
            ld.integrate_with_defect(s, transparent_defect(), 0.3, 1.0)


class TestHigherCharges:
    """The trace charges above c2 are conserved too, with and without the
    defect: c3 vanishes identically, and the c4 drift along a run falls at
    fourth order in dt, like that of c2."""

    @staticmethod
    def trace_charges(with_defect, dt):
        s = lat.random_state(6, np.random.default_rng(3), amplitude=0.5)
        if with_defect:
            d = ld.random_defect(3, np.random.default_rng(4))
            traj = ld.integrate_with_defect(s, d, dt, 1.0)
            rows = [ld.defect_charges_from_trace(st, dk, 4)[1]
                    for st, dk in zip(traj.states, traj.defects)]
        else:
            traj = lat.integrate(s, dt, 1.0)
            rows = [lat.charges_from_trace(st, 4)[1] for st in traj.states]
        return np.array(rows)

    @pytest.mark.parametrize("with_defect", [False, True], ids=["bulk", "defect"])
    def test_c3_vanishes_and_c4_drift_is_fourth_order(self, with_defect):
        drift = []
        for dt in (0.01, 0.005):
            cs = self.trace_charges(with_defect, dt)
            assert np.all(cs[:, 3] == 0)
            drift.append(np.max(np.abs(cs[:, 4] - cs[0, 4])))
        assert 12.0 <= drift[0] / drift[1] <= 20.0


class TestValidation:
    def test_defect_site_index_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ld.DefectSite(0, 0.0, 0.0, 0.0, 1.0)

    def test_defect_outside_chain_rejected(self):
        rng = np.random.default_rng(56)
        s = lat.random_state(3, rng)
        d = ld.DefectSite(7, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            ld.defect_monodromy(s, d)

    @pytest.mark.parametrize("call", [
        ld.defect_charges_from_trace,
        ld.defect_charges,
        ld.tilde_b,
        ld.tilde_b_bar,
        lambda s, d: ld.defect_time_lax(s, d, 0.2 + 0.1j),
        lambda s, d: ld.defect_monodromy_value(s, d, 1.7),
    ])
    def test_every_defect_reader_rejects_a_site_outside_the_chain(self, call):
        # site 6 on a 5-site chain would wrap to site 1 in the index arithmetic
        s = lat.random_state(5, np.random.default_rng(59))
        d = ld.DefectSite(6, 0.1, 0.2, 0.3, 1.1)
        with pytest.raises(ValueError, match="defect site outside the chain"):
            call(s, d)

    def test_trace_depth_validation(self):
        rng = np.random.default_rng(57)
        s = lat.random_state(3, rng)
        d = ld.DefectSite(2, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ld.defect_charges_from_trace(s, d, depth=1)

    def test_integration_dt_validation(self):
        rng = np.random.default_rng(58)
        s = lat.random_state(4, rng)
        d = ld.DefectSite(2, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ld.integrate_with_defect(s, d, dt=1.0, t_end=0.5)
