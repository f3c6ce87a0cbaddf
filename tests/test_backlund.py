import numpy as np
import pytest

from laxkit import backlund as bt
from laxkit import exact
from laxkit import lattice_defect as ld
from laxkit import stepping
from reference_oracles import (hetero_closed_form, hetero_R, x_flow_residual,
                               z_equation_residual)


L = 1.0
THETA = 0.2


class TestDarbouxMatrix:
    def test_transparent(self):
        d = bt.DarbouxState(1.0, 0.0, 0.0, 0.0)
        u = 1.7 + 0.3j
        m = bt.darboux_matrix_type2(d, u)
        expect = (u - 1.0 / u) * np.eye(2)
        assert np.max(np.abs(m - expect)) < 1e-14

    def test_structurally_identical_to_lattice_defect_matrix(self):
        rng = np.random.default_rng(80)
        for _ in range(5):
            xv = np.exp(complex(rng.normal(), rng.normal()) * 0.3)
            y, z = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            th = complex(rng.normal(), rng.normal()) * 0.3
            u = np.exp(complex(rng.normal(), rng.normal()) * 0.4)
            m = bt.darboux_matrix_type2(bt.DarbouxState(xv, y, z, th), u)
            site = ld.DefectSite(2, th, z, y, xv)
            m2 = ld.defect_lax_value(site, u)
            assert np.max(np.abs(m - m2)) < 1e-13

    def test_determinant_hand_expansion(self):
        d = bt.DarbouxState(1.3 - 0.2j, 0.4j, -0.7, 0.15)
        u = 0.8 + 0.5j
        m = bt.darboux_matrix_type2(d, u)
        em2, ep2 = np.exp(-2 * d.theta), np.exp(2 * d.theta)
        det_hand = (
            u * u * em2 + ep2 / (u * u) - d.X**2 - d.X**-2 - d.Y * d.Z
        )
        assert abs(np.linalg.det(m) - det_hand) < 1e-12

    def test_zero_X_rejected(self):
        with pytest.raises(ValueError):
            bt.DarbouxState(0.0, 1.0, 1.0, 0.0)


class TestResiduals:
    def test_identity_pair_zero_residual(self):
        r_y, r_z = bt.bt_residual_t(0.4, 0.4, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, THETA)
        assert abs(r_y) < 1e-15 and abs(r_z) < 1e-15

    def test_source_sign_flip_between_t_and_x_parts(self):
        # with zero derivatives and zero entries the residuals reduce to the
        # sources; the Y-source flips sign between the two pictures
        phi, pht = 0.2, 0.7 - 0.3j
        ry_t, _ = bt.bt_residual_t(phi, pht, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, THETA)
        ry_x, _ = bt.bt_residual_x(phi, pht, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, THETA)
        assert abs(ry_t + ry_x) < 1e-14
        assert abs(ry_t) > 0.01

    def test_residuals_converge_on_evolved_trajectory(self):
        sol = exact.periodic_solution_for_length(L)

        def worst(nx, dt):
            x = np.linspace(-0.9, 0.9, nx)
            traj = bt.bt_evolve(
                sol, x, THETA, dt, 0.3,
                phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15,
                y_seed=0.02, z_seed=0.01,
            )
            return x_flow_residual(traj, sol, THETA)

        r1, r2 = worst(65, 2.5e-3), worst(129, 1.25e-3)
        assert 3.5 <= r1 / r2 <= 4.6

    def test_time_flow_residuals_converge_on_trajectory(self):
        # reconstruct dY/dt and dZ/dt from the stored slices by central
        # differences and feed them through the time-flow residuals
        sol = exact.periodic_solution_for_length(L)

        def worst(nx, dt):
            x = np.linspace(-0.9, 0.9, nx)
            traj = bt.bt_evolve(
                sol, x, THETA, dt, 0.3,
                phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15,
                y_seed=0.02, z_seed=0.01,
            )
            h = x[1] - x[0]
            out = 0.0
            for k in range(1, len(traj.times) - 1, 8):
                t = traj.times[k]
                keep = (x >= x[0] + t) & (x <= x[-1] - t)
                if not np.any(keep):
                    break
                pt = traj.phi_tilde[k]
                pt_x = np.gradient(pt, h)
                y_t = (traj.Y[k + 1] - traj.Y[k - 1]) / (2 * dt)
                z_t = (traj.Z[k + 1] - traj.Z[k - 1]) / (2 * dt)
                ry, rz = bt.bt_residual_t(
                    sol.phi(x, t), pt, sol.phi_x(x, t), pt_x,
                    traj.Y[k], traj.Z[k], y_t, z_t, THETA,
                )
                out = max(out, float(np.max(np.abs(ry[keep]))),
                          float(np.max(np.abs(rz[keep]))))
            return out

        r1, r2 = worst(65, 2.5e-3), worst(129, 1.25e-3)
        assert r1 / r2 >= 3.5


class TestEvolve:
    def test_pde_residual_second_order(self):
        sol = exact.periodic_solution_for_length(L)

        def resid(nx, dt):
            x = np.linspace(-0.9, 0.9, nx)
            traj = bt.bt_evolve(
                sol, x, THETA, dt, 0.4,
                phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15,
                y_seed=0.02, z_seed=0.01,
            )
            return traj.pde_residual()

        r1, r2 = resid(65, 2.5e-3), resid(129, 1.25e-3)
        assert 3.5 <= r1 / r2 <= 4.6

    def test_entry_relation_maintained(self):
        sol = exact.periodic_solution_for_length(L)

        def err(nx, dt):
            x = np.linspace(-0.9, 0.9, nx)
            traj = bt.bt_evolve(
                sol, x, THETA, dt, 0.4,
                phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15,
                y_seed=0.02, z_seed=0.01,
            )
            return traj.x_relation_error()

        e1, e2 = err(65, 2.5e-3), err(129, 1.25e-3)
        assert 3.5 <= e1 / e2 <= 4.6

    def test_lax_pair_zero_curvature_on_image(self):
        # the generated solution must satisfy the bulk zero-curvature
        # condition, with all fields reconstructed from the grid alone
        sol = exact.periodic_solution_for_length(L)
        lam = 0.3 - 0.1j

        def residual(nx, dt):
            from laxkit import liouville as lv

            x = np.linspace(-0.9, 0.9, nx)
            traj = bt.bt_evolve(
                sol, x, THETA, dt, 0.3,
                phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15,
                y_seed=0.02, z_seed=0.01,
            )
            pt = traj.phi_tilde
            h = x[1] - x[0]
            gt = np.gradient(pt, dt, axis=0)
            gx = np.gradient(pt, h, axis=1)
            u = lv.lax_U(pt, gt, lam)
            v = lv.lax_V(pt, gx, lam)
            ut = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * dt)
            vx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h)
            ui, vi = u[1:-1, 1:-1], v[1:-1, 1:-1]
            res = np.abs(ut - vx + ui @ vi - vi @ ui)
            worst = 0.0
            # causal interior with a margin; skip the one-sided edge slices
            for k in range(2, pt.shape[0] - 4):
                t = traj.times[k + 1]
                mask = (x[1:-1] >= x[0] + t + 0.05) & (x[1:-1] <= x[-1] - t - 0.05)
                if np.any(mask):
                    worst = max(worst, float(np.max(res[k][mask])))
            return worst

        r1, r2 = residual(65, 2.5e-3), residual(129, 1.25e-3)
        assert 3.5 <= r1 / r2 <= 4.6

    def test_trivial_seed_reproduces_background(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 65)
        traj = bt.bt_evolve(
            sol, x, THETA, 5e-3, 0.2, phi_tilde_seed=sol.phi(x[0], 0.0),
            y_seed=0.0, z_seed=0.0,
        )
        worst = 0.0
        for k, t in enumerate(traj.times):
            worst = max(worst, float(np.max(np.abs(traj.phi_tilde[k] - sol.phi(x, t)))))
        assert worst < 1e-6

    def test_background_evaluated_once_per_stage_time(self):
        # stages 2 and 3 share their time, and stage 4 mostly shares the
        # next step's first: every distinct stage time the march forms is
        # evaluated exactly once, in blocks of STAGE_BLOCK times per call
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 33)
        dt, steps = 2.5e-3, 120
        seen = []

        class Counting:
            phi = staticmethod(sol.phi)

            @staticmethod
            def fields(xv, t):
                seen.append((xv, t))
                return sol.fields(xv, t)

        traj = bt.bt_evolve(Counting, x, THETA, dt, steps * dt,
                            phi_tilde_seed=sol.phi(x[0], 0.0))
        assert len(traj.times) == steps + 1
        # the march of the initial slice calls first, once, at its positions
        assert np.ndim(seen[0][0]) == 1 and np.ndim(seen[0][1]) == 0
        calls = seen[1:]
        assert all(np.array_equal(xv, x[None, :]) for xv, _ in calls)
        assert all(t.shape == (bt.STAGE_BLOCK, 1) for _, t in calls[:-1])
        times = [float(v) for _, t in calls for v in t[:, 0]]
        assert times[0] == 0.0 and len(set(times)) == len(times)
        assert len(calls) == -(-len(times) // bt.STAGE_BLOCK)
        # the stage times as rk4_step forms them, each exactly
        assert set(times) == {k * dt + c * dt for k in range(steps) for c in (0.0, 0.5, 1.0)}
        assert 2 * steps < len(times) <= 3 * steps + 1  # 4 * steps without sharing

    def test_initial_data_evaluates_each_stage_position_once(self):
        # stages 2 and 3 share their position and stage 4 at times the next
        # step's first: one vector fields call covers each distinct position
        # once, each formed as the march forms it
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 33)
        seen = []

        class Counting:
            @staticmethod
            def fields(xv, t):
                seen.append((xv, t))
                return sol.fields(xv, t)

        got = bt.bt_initial_data(Counting, x, 0.0, THETA, sol.phi(x[0], 0.0) + 0.15, 0.02, 0.01)
        assert len(seen) == 1
        positions, t = seen[0]
        assert t == 0.0 and np.ndim(positions) == 1
        assert len(set(positions)) == len(positions)
        h, x0 = (x[-1] - x[0]) / (len(x) - 1), x[0]
        formed = {t + c * h for t in [x0] + [x0 + k * h for k in range(1, len(x) - 1)]
                  for c in (0.0, 0.5, 1.0)}
        assert set(positions) == formed
        assert 2 * (len(x) - 1) < len(positions) < 4 * (len(x) - 1)
        # and the image is the one of the background itself
        want = bt.bt_initial_data(sol, x, 0.0, THETA, sol.phi(x[0], 0.0) + 0.15, 0.02, 0.01)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_pde_residual_blocks_match_rows(self):
        # pde_residual takes one masked max per block of STAGE_BLOCK rows;
        # the per-row loop it replaced gives the same float, also when the
        # causal interior of the last rows is empty (t_end past 0.9)
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 17)
        traj = bt.bt_evolve(sol, x, THETA, 5e-3, 1.0,
                            phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15, y_seed=0.02, z_seed=0.01)
        assert len(traj.times) > 2 * bt.STAGE_BLOCK
        assert not np.any(traj._causal(traj.times[-2])[1:-1])
        pt, dt, h = traj.phi_tilde, traj.times[1] - traj.times[0], x[1] - x[0]
        inner = pt[1:-1, 1:-1]
        ptt = (pt[2:, 1:-1] - 2 * inner + pt[:-2, 1:-1]) / dt**2
        pxx = (pt[1:-1, 2:] - 2 * inner + pt[1:-1, :-2]) / h**2
        res = np.abs(ptt - pxx - 4j * np.exp(-2j * inner))
        worst = 0.0
        for k, t in enumerate(traj.times[1:-1], start=1):
            keep = traj._causal(t)[1:-1]
            if np.any(keep):
                worst = max(worst, float(np.max(res[k - 1][keep])))
        assert traj.pde_residual() == worst

    def test_nan_fails_the_residuals(self):
        # a nan in the causal interior of the first row must not be dropped
        # by the running max
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 33)
        traj = bt.bt_evolve(sol, x, THETA, 2.5e-3, 0.1,
                            phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15, y_seed=0.02, z_seed=0.01)
        assert np.isfinite(traj.pde_residual()) and np.isfinite(traj.x_relation_error())
        pt, xx = traj.phi_tilde.copy(), traj.X.copy()
        pt[1, 16] = xx[0, 16] = np.nan
        broken = bt.BTTrajectory(traj.times, x, pt, xx, traj.Y, traj.Z, traj.phi)
        assert np.isnan(broken.pde_residual())
        assert np.isnan(broken.x_relation_error())

    def test_entry_relation_blocks_match_rows(self):
        # x_relation_error reads the phi that bt_evolve kept from its stage
        # tables; the per-row loop over sol.phi gives the same float
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 65)
        traj = bt.bt_evolve(sol, x, THETA, 2.5e-3, 0.4,
                            phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15, y_seed=0.02, z_seed=0.01)
        assert len(traj.times) > 2 * bt.STAGE_BLOCK
        worst = 0.0
        for k, t in enumerate(traj.times):
            keep = traj._causal(t)
            if not np.any(keep):
                break
            target = np.exp(0.5j * (traj.phi_tilde[k][keep] - sol.phi(x[keep], t)))
            worst = max(worst, float(np.max(np.abs(traj.X[k][keep] - target))))
        assert traj.x_relation_error() == worst

    def test_t_end_off_the_step_grid_rejected(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 33)
        with pytest.raises(ValueError, match="whole multiple"):
            bt.bt_evolve(sol, x, THETA, 0.003, 0.4, phi_tilde_seed=sol.phi(x[0], 0.0))

    def test_non_finite_stage_aborts_with_record(self):
        # the refined run of the bt-evolve config {t_end: 3, seed_offset: 2},
        # which the CLI now rejects as past the causal horizon: the edge
        # stencils lose finiteness near t = 2.8175 and the guard stops the
        # march at the RK stage, with the partial trajectory attached
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 129)
        with pytest.raises(stepping.Aborted) as err:
            bt.bt_evolve(sol, x, THETA, 1.25e-3, 3.0,
                         phi_tilde_seed=sol.phi(x[0], 0.0) + 2.0, y_seed=0.02, z_seed=0.01)
        assert str(err.value.record) == (
            "non-finite at RK stage 3 of step 2254 (t = 2.81688), phi~[6]"
        )
        assert len(err.value.trajectory.times) == 2254

    def test_aborted_initial_data_carries_its_rows(self):
        # a background whose phi_x turns nan from x = 0.1 on stops the space
        # march there; the abort carries the rows of the clean run before it
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 33)
        seeds = (sol.phi(x[0], 0.0), 0.02, 0.01)
        clean = bt.bt_initial_data(sol, x, 0.0, THETA, *seeds)

        class Poisoned:
            def fields(self, xv, t):
                phi, phi_t, phi_x = sol.fields(xv, t)
                return phi, phi_t, np.where(xv < 0.1, phi_x, np.nan)

        with pytest.raises(stepping.Aborted) as err:
            bt.bt_initial_data(Poisoned(), x, 0.0, THETA, *seeds)
        rec = err.value.record
        assert rec.reason == "non-finite" and rec.field == "phi~"
        assert x[rec.step - 1] < 0.1 <= x[rec.step]
        rows = err.value.trajectory
        assert len(rows) == 3
        for got, want in zip(rows, clean):
            assert got.shape == (rec.step,)
            assert np.array_equal(got, want[: rec.step])


class TestPeriodicSolution:
    def test_phi_alone_is_the_phi_of_fields(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 33)
        for xv, t in ((x[0], 0.0), (0.37, 0.21), (x, 0.0), (x, 0.3),
                      (x[None, :], np.linspace(0.0, 0.4, 7)[:, None])):
            assert np.array_equal(sol.phi(xv, t), sol.fields(xv, t)[0])


class TestHeteroDarboux:
    def test_zero_fields(self):
        a, b, xv, zv = bt.hetero_darboux(0.0, 0.0)
        assert abs(a - 1.0) < 1e-15 and abs(xv - 1.0) < 1e-15
        assert abs(b - 1.0) < 1e-15 and abs(zv - 1.0) < 1e-15

    def test_unit_modulus_for_real_difference(self):
        a, _, _, _ = bt.hetero_darboux(0.3, 0.8)
        assert abs(abs(a) - 1.0) < 1e-14

    def test_variant_scan_selects_difference_imag(self):
        pt, phi = generate_pair(49, 41)
        winner, scores = bt.select_hetero_variant(pt, phi, PARAMS)
        assert winner == "difference-imag"
        others = [v for v in scores if v != winner]
        assert all(scores[winner] < 1e-2 * scores[v] for v in others)

    def test_variant_scan_scores_the_given_pair(self):
        # the difference-imag score is the interface residual of the pair
        # at lam = 0.3, on whatever grid the pair was generated
        for nz, nb in ((49, 41), (25, 21)):
            pt, phi = generate_pair(nz, nb)
            _, scores = bt.select_hetero_variant(pt, phi, PARAMS)
            assert scores["difference-imag"] == bt.interface_residual(phi, pt, PARAMS, 0.3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="coupling"):
            bt.HeteroParams(0.0, 0.1)
        with pytest.raises(ValueError, match="coordinate axes"):
            bt.LightConeField(np.linspace(0, 1, 5), np.linspace(0, 1, 4),
                              np.zeros((5, 5)))


PARAMS = bt.HeteroParams(0.35, 0.15)
# the free field of the hetero-bt mode, phi = f(z) + g(zbar)
SEED_F, SEED_G = (lambda w: 0.2 * np.sin(w)), (lambda w: 0.15 * np.cos(w))


def generate_pair(nz=49, nb=41):
    z = np.linspace(0.0, 0.6, nz)
    zbar = np.linspace(0.0, 0.5, nb)
    return bt.hetero_bt_generate(SEED_F, SEED_G, PARAMS, z, zbar)


class TestHeteroGenerate:
    def test_zero_free_field_matches_closed_form(self):
        z = np.linspace(0.0, 0.6, 65)
        zbar = np.linspace(0.0, 0.5, 57)
        pt, _ = bt.hetero_bt_generate(
            lambda w: 0.0 * w, lambda w: 0.0 * w, PARAMS, z, zbar
        )
        expect = bt.free_field_closed_form(PARAMS, z, zbar, z[0], zbar[0])
        assert np.max(np.abs(pt.values - expect)) <= 1e-8

    def test_modified_equation_residual_refines(self):
        pt1, _ = generate_pair(49, 41)
        pt2, _ = generate_pair(97, 81)
        r1 = bt.modified_equation_residual(pt1, PARAMS.c)
        r2 = bt.modified_equation_residual(pt2, PARAMS.c)
        assert r1 / r2 >= 3.5

    def test_z_equation_holds_on_whole_rectangle(self):
        pt1, phi1 = generate_pair(49, 41)
        pt2, phi2 = generate_pair(97, 81)
        r1 = z_equation_residual(pt1, phi1, PARAMS)
        r2 = z_equation_residual(pt2, phi2, PARAMS)
        assert r1 / r2 >= 3.5

    def test_generated_solution_maps_to_bulk_convention(self):
        # the modified equation and the bulk one differ by phi = -phi~ +
        # i log c - pi/2; the mapped field must satisfy the bulk equation
        def mapped_residual(nz, nb):
            z = np.linspace(0.0, 0.6, nz)
            zbar = np.linspace(0.0, 0.5, nb)
            pt, _ = bt.hetero_bt_generate(
                lambda w: 0.2 * np.sin(w), lambda w: 0.15 * np.cos(w), PARAMS, z, zbar
            )
            v = -pt.values + 1j * np.log(PARAMS.c) - np.pi / 2
            field = bt.LightConeField(pt.z, pt.zbar, v)
            mixed = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (
                4.0 * field.dz * field.dzbar
            )
            # bulk equation in these coordinates: dz dzbar phi + 4i e^{-2i phi} = 0
            res = mixed + 4j * np.exp(-2j * v[1:-1, 1:-1])
            return float(np.max(np.abs(res)))

        r1, r2 = mapped_residual(49, 41), mapped_residual(97, 81)
        assert r1 / r2 >= 3.5

    def test_blowup_detection(self):
        # e^{-i phi~} = 1 + 2c(z + zbar) with c = -2 vanishes on z + zbar =
        # 1/4, which the grid meets at its points; the first row z = 0 meets
        # it at zbar = 1/4, so the first flagged cell lies there
        strong = bt.HeteroParams(-2.0, 0.0)
        z = np.linspace(0.0, 1.0, 129)
        zbar = np.linspace(0.0, 0.5, 65)
        with pytest.raises(stepping.Aborted) as err:
            bt.hetero_bt_generate(
                lambda w: 0.0 * w, lambda w: 0.0 * w, strong, z, zbar
            )
        i, j = assert_cell_record(err.value, z, zbar)
        # the flagged cell is within one cell of the pole line
        assert abs(z[i] + zbar[j] - 0.25) <= (z[1] - z[0]) + (zbar[1] - zbar[0])

    def test_blowup_detection_in_fill_sweep(self):
        # a short z range: the pole line crosses every row, near zbar = 1/4
        strong = bt.HeteroParams(-2.0, 0.0)
        z = np.linspace(0.0, 0.05, 3)
        zbar = np.linspace(0.0, 0.5, 21)
        with pytest.raises(stepping.Aborted) as err:
            bt.hetero_bt_generate(
                lambda w: 0.0 * w, lambda w: 0.0 * w, strong, z, zbar
            )
        i, j = assert_cell_record(err.value, z, zbar)
        assert abs(z[i] + zbar[j] - 0.25) <= (z[1] - z[0]) + (zbar[1] - zbar[0])

    def test_line_of_zeros_between_grid_points(self):
        # the vanishing seed at c = -2 makes R real, e^{-i phi~} = 1 -
        # 4 (z + zbar - zbar[0]), zero on z + zbar = 1/4 + zbar[0], a line
        # that passes between the points of this grid: R changes sign
        # across an edge, where its argument turns by pi
        strong = bt.HeteroParams(-2.0, 0.0)
        z = np.linspace(0.0, 0.6, 50)
        zbar = np.linspace(0.0013, 0.5, 41)
        line = 0.25 + zbar[0]
        values = 1.0 - 4.0 * (z[:, None] + zbar[None, :] - zbar[0])
        assert np.min(np.abs(values)) > 1e-3
        with pytest.raises(stepping.Aborted) as err:
            bt.hetero_bt_generate(lambda w: 0.0 * w, lambda w: 0.0 * w, strong, z, zbar)
        i, j = assert_cell_record(err.value, z, zbar)
        assert z[i] + zbar[j] < line < z[i + 1] + zbar[j + 1]

    def test_matches_the_closed_form_at_fourth_order(self):
        # the mode's seeds and defaults against composite Gauss-Legendre
        def error(nz, nb):
            z, zbar = np.linspace(0.0, 0.6, nz), np.linspace(0.0, 0.5, nb)
            pt, _ = bt.hetero_bt_generate(SEED_F, SEED_G, PARAMS, z, zbar)
            return relative_error(pt.values, SEED_F, SEED_G, PARAMS, z, zbar)

        coarse, fine = error(49, 41), error(97, 81)
        assert coarse <= 1e-10 and coarse / fine >= 12.0

    @pytest.mark.parametrize("c", [-4.0, -2.0, -1.5, -0.8])
    @pytest.mark.parametrize("theta", [0.0, 0.15])
    def test_point_pole_aborts_or_the_field_is_exact(self, c, theta):
        # for c < 0 R has real zeros inside the rectangle, point poles that
        # the grid lines miss: each grid either returns the exact field or
        # aborts at a cell within one cell of a zero, never a wrong field
        params = bt.HeteroParams(c, theta)
        zeros = real_zeros(SEED_F, SEED_G, params)
        for nz, nb in ((49, 41), (97, 81), (193, 161), (385, 321)):
            z, zbar = np.linspace(0.0, 0.6, nz), np.linspace(0.0, 0.5, nb)
            try:
                pt, _ = bt.hetero_bt_generate(SEED_F, SEED_G, params, z, zbar)
            except stepping.Aborted as err:
                i, j = assert_cell_record(err, z, zbar)
                dz, db = z[1] - z[0], zbar[1] - zbar[0]
                assert any(z[i] - dz <= zs <= z[i] + 2 * dz
                           and zbar[j] - db <= bs <= zbar[j] + 2 * db for zs, bs in zeros)
                kept = err.trajectory.values
                assert relative_error(kept, SEED_F, SEED_G, params, z[:i], zbar) <= 1e-6
            else:
                assert relative_error(pt.values, SEED_F, SEED_G, params, z, zbar) <= 1e-6
                # and phi~ itself is continuous: no branch cut runs from a zero
                for axis in (0, 1):
                    assert np.max(np.abs(np.diff(pt.values, axis=axis))) < np.pi


def relative_error(values, f, g, params, z, zbar):
    """max |e^{i phi~} - closed form| / |closed form| over the grid."""
    if not len(z):
        return 0.0
    exact_image = hetero_closed_form(f, g, params, z, zbar)
    return float(np.max(np.abs(np.exp(1j * values) - exact_image) / np.abs(exact_image)))


def real_zeros(f, g, params, z_end=0.6, zbar_end=0.5):
    """The real zeros of R (reference_oracles.hetero_R) in [0, z_end] x
    [0, zbar_end], by Newton's method on (Re R, Im R) from a lattice of starts."""
    dz = 2.0 * params.c * np.exp(params.Theta)
    db = 2.0 * params.c * np.exp(-params.Theta)
    found = []
    for p in np.stack(np.meshgrid(np.linspace(0, z_end, 5), np.linspace(0, zbar_end, 5)),
                      -1).reshape(-1, 2):
        for _ in range(30):
            r = hetero_R(f, g, params, np.array([0.0, p[0]]), np.array([0.0, p[1]]))[-1, -1]
            if abs(r) < 1e-13:
                break
            jac = np.array([dz * np.exp(2j * f(p[0])), db * np.exp(-2j * g(p[1]))])
            p = p - np.linalg.solve(np.array([jac.real, jac.imag]), [r.real, r.imag])
        inside = 0 <= p[0] <= z_end and 0 <= p[1] <= zbar_end
        if inside and abs(r) < 1e-13 and not any(np.hypot(*(p - q)) < 1e-8 for q in found):
            found.append(p)
    return found


def assert_cell_record(err, z, zbar):
    """The (i, j) of the cell an abort names, after checking its record and
    that its trajectory holds the rows z[:i]."""
    rec = err.record
    i, j = rec.step, rec.index
    assert (rec.reason, rec.field, rec.stage, rec.t) == (
        "pole of e^{i phi~}", f"cell at z[{i}], zbar", None, z[i])
    assert str(rec) == (f"pole of e^{{i phi~}} after step {i} (t = {z[i]:g}), "
                        f"cell at z[{i}], zbar[{j}]")
    assert 0 <= j < len(zbar) - 1
    assert err.trajectory.values.shape == (i, len(zbar))
    return i, j


class TestInterfaceResidual:
    def test_pair_beats_non_pair(self):
        pt, phi = generate_pair(49, 41)
        res_pair = bt.interface_residual(phi, pt, PARAMS, 0.3)
        shuffled = bt.LightConeField(pt.z, pt.zbar, pt.values[::-1].copy())
        res_non = bt.interface_residual(phi, shuffled, PARAMS, 0.3)
        assert res_non >= 100.0 * res_pair

    def test_residual_refines_for_all_lambdas(self):
        pt1, phi1 = generate_pair(49, 41)
        pt2, phi2 = generate_pair(97, 81)
        for lam in (0.0, 1.0, -1.0):
            r1 = bt.interface_residual(phi1, pt1, PARAMS, lam)
            r2 = bt.interface_residual(phi2, pt2, PARAMS, lam)
            assert r1 / r2 >= 3.5

    def test_constant_shift_consistency(self):
        # the relations depend on the free field through e^{i(phi~ +- phi)};
        # a constant shift phi -> phi + s is undone by Theta -> Theta - i s,
        # leaving the generated solution untouched
        z = np.linspace(0.0, 0.5, 41)
        zbar = np.linspace(0.0, 0.4, 33)
        shift = 0.2 - 0.1j
        pt_a, _ = bt.hetero_bt_generate(
            lambda w: 0.1 * np.sin(w), lambda w: 0.0 * w, PARAMS, z, zbar
        )
        compensated = bt.HeteroParams(PARAMS.c, PARAMS.Theta - 1j * shift)
        pt_b, _ = bt.hetero_bt_generate(
            lambda w: 0.1 * np.sin(w) + shift, lambda w: 0.0 * w, compensated, z, zbar
        )
        assert np.max(np.abs(pt_b.values - pt_a.values)) < 1e-10
