import numpy as np
import pytest

from laxkit import backlund as bt
from laxkit import exact
from laxkit import lattice_defect as ld
from laxkit import stepping


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


class TestSolveYZ:
    def test_identity_configuration_gives_zero(self):
        y, z = bt.bt_solve_YZ(0.3, 0.3, 0.1, 0.1, -0.2, -0.2, THETA)
        assert abs(y) < 1e-15 and abs(z) < 1e-15

    def test_elimination_oracle_for_Y(self):
        # adding the equations eliminates Z: Y = -i (sum of gaps) e^-th E+ / 4
        rng = np.random.default_rng(81)
        for _ in range(20):
            vals = [complex(rng.normal(), rng.normal()) for _ in range(6)]
            phi, pht, phit, phtt, phix, phtx = vals
            y, _ = bt.bt_solve_YZ(phi, pht, phit, phtt, phix, phtx, THETA)
            ep = np.exp(0.5j * (phi + pht))
            hand = -1j * ((phtt - phit) + (phtx - phix)) * np.exp(-THETA) * ep / 4.0
            assert abs(y - hand) < 1e-13

    def test_back_substitution(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            vals = [complex(rng.normal(), rng.normal()) for _ in range(6)]
            phi, pht, phit, phtt, phix, phtx = vals
            y, z = bt.bt_solve_YZ(phi, pht, phit, phtt, phix, phtx, THETA)
            em = np.exp(-0.5j * (phi + pht))
            ep = np.exp(0.5j * (phi + pht))
            et, eti = np.exp(THETA), np.exp(-THETA)
            r1 = 1j * (phtt - phit) - (-2 * y * (et * em + eti * ep) + 2 * z * eti * em)
            r2 = 1j * (phtx - phix) - (-2 * y * (et * em - eti * ep) - 2 * z * eti * em)
            assert abs(r1) < 1e-12 and abs(r2) < 1e-12


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
            return traj.x_flow_residual(sol, THETA)

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
            return traj.x_relation_error(sol)

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
        calls = seen[len(x) * 4 - 4:]  # after the RK4 march of the initial slice
        assert all(np.array_equal(xv, x[None, :]) for xv, _ in calls)
        assert all(t.shape == (bt.STAGE_BLOCK, 1) for _, t in calls[:-1])
        times = [float(v) for _, t in calls for v in t[:, 0]]
        assert times[0] == 0.0 and len(set(times)) == len(times)
        assert len(calls) == -(-len(times) // bt.STAGE_BLOCK)
        # the stage times as rk4_step forms them, each exactly
        assert set(times) == {k * dt + c * dt for k in range(steps) for c in (0.0, 0.5, 1.0)}
        assert 2 * steps < len(times) <= 3 * steps + 1  # 4 * steps without sharing

    def test_entry_relation_blocks_match_rows(self):
        # x_relation_error reads phi in blocks of rows; the per-row loop it
        # replaced gives the same float
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
        assert traj.x_relation_error(sol) == worst

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
                return phi, phi_t, phi_x if xv < 0.1 else np.nan

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


class TestHeteroDarboux:
    def test_zero_fields(self):
        a, b, xv, zv = bt.hetero_darboux(0.0, 0.0)
        assert abs(a - 1.0) < 1e-15 and abs(xv - 1.0) < 1e-15
        assert abs(b - 1.0) < 1e-15 and abs(zv - 1.0) < 1e-15

    def test_unit_modulus_for_real_difference(self):
        a, _, _, _ = bt.hetero_darboux(0.3, 0.8)
        assert abs(abs(a) - 1.0) < 1e-14

    def test_variant_scan_selects_difference_imag(self):
        winner, scores = bt.select_hetero_variant(PARAMS)
        assert winner == "difference-imag"
        others = [v for v in scores if v != winner]
        assert all(scores[winner] < 1e-2 * scores[v] for v in others)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="coupling"):
            bt.HeteroParams(0.0, 0.1)
        with pytest.raises(ValueError, match="coordinate axes"):
            bt.LightConeField(np.linspace(0, 1, 5), np.linspace(0, 1, 4),
                              np.zeros((5, 5)))


PARAMS = bt.HeteroParams(0.35, 0.15)


def generate_pair(nz=49, nb=41):
    z = np.linspace(0.0, 0.6, nz)
    zbar = np.linspace(0.0, 0.5, nb)
    return bt.hetero_bt_generate(
        lambda w: 0.2 * np.sin(w), lambda w: 0.15 * np.cos(w), PARAMS, z, zbar
    )


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
        r1 = bt.z_equation_residual(pt1, phi1, PARAMS)
        r2 = bt.z_equation_residual(pt2, phi2, PARAMS)
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
        # e^{-i phi~} = 1 + 2c(z + zbar) with c = -2 crosses zero at
        # z + zbar = 1/4, which the grid hits exactly; on the seed line
        # zbar = 0 the pole sits at z = 1/4
        strong = bt.HeteroParams(-2.0, 0.0)
        z = np.linspace(0.0, 1.0, 129)
        zbar = np.linspace(0.0, 0.5, 65)
        with pytest.raises(stepping.Aborted) as err:
            bt.hetero_bt_generate(
                lambda w: 0.0 * w, lambda w: 0.0 * w, strong, z, zbar
            )
        rec = err.value.record
        assert rec.field == "phi~ at zbar" and rec.index == 0
        assert abs(rec.t - 0.25) <= z[1] - z[0]
        # the abort carries psi = phi~ - phi at z[0] .. z[rec.step - 1]; away
        # from the pole it is the closed-form image (phi vanishes here)
        psi = err.value.trajectory
        assert psi.shape == (rec.step,) and np.all(np.isfinite(psi))
        exact_psi = bt.free_field_closed_form(strong, z[:16], zbar[:1], 0.0, 0.0)[:, 0]
        assert np.max(np.abs(psi[:16] - exact_psi)) <= 1e-7

    def test_blowup_detection_in_fill_sweep(self):
        # short seed line stays regular; the pole is reached while filling
        strong = bt.HeteroParams(-2.0, 0.0)
        z = np.linspace(0.0, 0.05, 3)
        zbar = np.linspace(0.0, 0.5, 21)
        with pytest.raises(stepping.Aborted) as err:
            bt.hetero_bt_generate(
                lambda w: 0.0 * w, lambda w: 0.0 * w, strong, z, zbar
            )
        rec = err.value.record
        assert rec.t > 0.0
        # the light-cone point (z[index], zbar = t) lies on z + zbar = 1/4
        assert rec.field == "phi~ at z"
        assert abs(z[rec.index] + rec.t - 0.25) <= zbar[1] - zbar[0]
        assert err.value.trajectory.values.shape[1] == rec.step


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
