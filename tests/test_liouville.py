import numpy as np
import pytest
from scipy.linalg import expm

from laxkit import exact
from laxkit import liouville as lv
from laxkit import stepping
from reference_oracles import LogLinearSolution


L = 1.0


def pde_residual(sol, x, t, eps=1e-5):
    """Finite-difference residual of the field equation on a callable solution."""
    ptt = (sol.phi(x, t + eps) - 2 * sol.phi(x, t) + sol.phi(x, t - eps)) / eps**2
    pxx = (sol.phi(x + eps, t) - 2 * sol.phi(x, t) + sol.phi(x - eps, t)) / eps**2
    return ptt - pxx - 4j * np.exp(-2j * sol.phi(x, t))


class TestExactSolutions:
    def test_log_linear_solves_equation(self):
        sol = LogLinearSolution(2.0, 0.0, 3.0 + 1.0j)
        x = np.linspace(-0.8, 0.8, 17)
        assert np.max(np.abs(pde_residual(sol, x, 0.3))) < 1e-5

    def test_periodic_solves_equation(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-L, L, 33)
        assert np.max(np.abs(pde_residual(sol, x, 0.17))) < 1e-5

    def test_periodicity(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-L, L, 9)
        assert np.max(np.abs(sol.phi(x + 2 * L, 0.4) - sol.phi(x, 0.4))) < 1e-13

    def test_derivatives_match_finite_differences(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-L, L, 9)
        e = 1e-6
        dt = (sol.phi(x, 0.2 + e) - sol.phi(x, 0.2 - e)) / (2 * e)
        dx = (sol.phi(x + e, 0.2) - sol.phi(x - e, 0.2)) / (2 * e)
        assert np.max(np.abs(dt - sol.phi_t(x, 0.2))) < 1e-8
        assert np.max(np.abs(dx - sol.phi_x(x, 0.2))) < 1e-8

    def test_fields_bundle_the_three_evaluations(self):
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-L, L, 9)
        phi, phi_t, phi_x = sol.fields(x, 0.2)
        assert np.array_equal(phi, sol.phi(x, 0.2))
        assert np.array_equal(phi_t, sol.phi_t(x, 0.2))
        assert np.array_equal(phi_x, sol.phi_x(x, 0.2))

    def test_grid_matches_row_by_row(self):
        # a (641, 129) (t, x) grid is large enough for numpy to reuse
        # temporaries in place; every row must still equal the 1-D evaluation
        sol = exact.periodic_solution_for_length(L)
        x = np.linspace(-0.9, 0.9, 129)
        ts = np.arange(641) * 2.5e-3
        grid = sol.fields(x[None, :], ts[:, None])
        for k, t in enumerate(ts):
            for got, want in zip(grid, sol.fields(x, t)):
                assert np.array_equal(got[k], want)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogLinearSolution(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            exact.PeriodicSolution(1.0, 0.9, 0.9, 2.0)


class TestClosedDerivative:
    def test_exact_on_quadratics_up_to_the_edges(self):
        x = np.linspace(-0.7, 1.1, 10)
        f = (0.3 - 1.2j) * x**2 + 2.0 * x - 0.5j
        d = lv.derivative_closed(f, x[1] - x[0])
        assert np.max(np.abs(d - ((0.6 - 2.4j) * x + 2.0))) < 1e-13

    def test_axis_matches_transpose_bit_for_bit(self):
        rng = np.random.default_rng(61)
        v = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        assert np.array_equal(lv.derivative_closed(v, 0.1, axis=1),
                              lv.derivative_closed(v.T, 0.1).T)
        assert np.array_equal(lv.derivative_closed(v, 0.1, axis=0)[:, 2],
                              lv.derivative_closed(v[:, 2], 0.1))


class TestLaxPair:
    def test_zero_field_U_at_origin(self):
        u = lv.lax_U(0.0, 0.0, 0.0)
        assert np.max(np.abs(u - np.array([[0.0, -1.0], [0.0, 0.0]]))) < 1e-15

    def test_U_and_V_traceless(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            phi, pi = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            lam = complex(rng.normal(), rng.normal())
            assert abs(np.trace(lv.lax_U(phi, pi, lam))) < 1e-15
            assert abs(np.trace(lv.lax_V(phi, pi, lam))) < 1e-15

    def test_zero_curvature_on_exact_solution(self):
        sol = exact.periodic_solution_for_length(L)
        lam = 0.3 - 0.1j
        t0 = 0.25

        def residual(n):
            x = np.linspace(-L, L, n, endpoint=False)
            e = 2 * L / n
            ut = (
                lv.lax_U(sol.phi(x, t0 + e), sol.phi_t(x, t0 + e), lam)
                - lv.lax_U(sol.phi(x, t0 - e), sol.phi_t(x, t0 - e), lam)
            ) / (2 * e)
            vx = (
                lv.lax_V(sol.phi(x + e, t0), sol.phi_x(x + e, t0), lam)
                - lv.lax_V(sol.phi(x - e, t0), sol.phi_x(x - e, t0), lam)
            ) / (2 * e)
            u = lv.lax_U(sol.phi(x, t0), sol.phi_t(x, t0), lam)
            v = lv.lax_V(sol.phi(x, t0), sol.phi_x(x, t0), lam)
            comm = u @ v - v @ u
            return np.max(np.abs(ut - vx + comm))

        r1, r2 = residual(64), residual(128)
        assert 3.5 <= r1 / r2 <= 4.5  # second-order stencils


class TestRhs:
    def test_constant_field(self):
        n = 32
        phi0 = 0.3 - 0.2j
        c = lv.FieldConfig(L, np.full(n, phi0), np.zeros(n, dtype=complex))
        dphi, dpi = lv.liouville_rhs(c)
        assert np.max(np.abs(dphi)) == 0.0
        assert np.max(np.abs(dpi - 4j * np.exp(-2j * phi0))) < 1e-14

    def test_semidiscrete_residual_second_order(self):
        sol = exact.periodic_solution_for_length(L)

        def resid(n):
            c = lv.config_from_solution(sol, L, n, 0.1)
            _, dpi = lv.liouville_rhs(c)
            # pi_t of the exact solution by finite differences in t
            e = 1e-6
            x = c.x
            pit = (sol.phi_t(x, 0.1 + e) - sol.phi_t(x, 0.1 - e)) / (2 * e)
            return np.max(np.abs(dpi - pit))

        r1, r2 = resid(32), resid(64)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_stack_is_differentiated_row_by_row(self):
        # a (T, n) stack is T configurations: each row's derivatives and
        # vector field are bit for bit those of the row alone
        rng = np.random.default_rng(3)
        configs = [lv.random_config(L, 64, rng, amplitude=0.3) for _ in range(3)]
        stack = lv.FieldConfig(L, np.stack([c.phi for c in configs]),
                               np.stack([c.pi for c in configs]))
        d2 = lv.second_derivative_x(stack.phi, stack.h)
        d1 = lv.derivative_x(stack.phi, stack.h)
        dphi, dpi = lv.liouville_rhs(stack)
        for row, c in enumerate(configs):
            assert np.array_equal(d2[row], lv.second_derivative_x(c.phi, c.h))
            assert np.array_equal(d1[row], lv.derivative_x(c.phi, c.h))
            want_phi, want_pi = lv.liouville_rhs(c)
            assert np.array_equal(dphi[row], want_phi) and np.array_equal(dpi[row], want_pi)


class TestGauge:
    def test_zero_field_gauge_is_identity(self):
        c = lv.FieldConfig.zero(L, 16)
        gu, g = lv.gauge_transform(c, 0.4)
        assert np.max(np.abs(g - np.eye(2))) < 1e-15
        assert abs(gu[0, 0, 1] + np.exp(-0.4)) < 1e-15

    def test_traceless(self):
        rng = np.random.default_rng(61)
        c = lv.random_config(L, 32, rng)
        gu, _ = lv.gauge_transform(c, 0.2 - 0.6j)
        assert np.max(np.abs(gu[..., 0, 0] + gu[..., 1, 1])) < 1e-14

    def test_matches_conjugation_formula(self):
        # gauged U = g^-1 U g - g^-1 g_x with g_x by central differences
        def mismatch(n):
            c = lv.random_config(L, n, np.random.default_rng(62), amplitude=0.3)
            lam = 0.37 - 0.21j
            gu, g = lv.gauge_transform(c, lam)
            u = lv.lax_U(c.phi, c.pi, lam)
            ginv = np.linalg.inv(g)
            gx = (np.roll(g, -1, axis=0) - np.roll(g, 1, axis=0)) / (2 * c.h)
            return np.max(np.abs(gu - (ginv @ u @ g - ginv @ gx)))

        m1, m2 = mismatch(64), mismatch(128)
        assert 3.5 <= m1 / m2 <= 4.5


class TestCharges:
    def test_zero_field_values(self):
        c = lv.FieldConfig.zero(L, 64)
        ch = lv.charges(c)
        assert abs(ch.order1 + L) <= 1e-13 * L
        assert abs(ch.hamiltonian - 4 * L) <= 1e-13 * L
        assert abs(ch.momentum) <= 1e-13

    def test_combination_constants(self):
        # mirror - order1 = -momentum/2 and mirror + order1 = -hamiltonian/2
        rng = np.random.default_rng(63)
        for _ in range(10):
            c = lv.random_config(L, 64, rng, amplitude=0.4)
            ch = lv.charges(c)
            assert abs((ch.order1_mirror - ch.order1) + 0.5 * ch.momentum) < 1e-12
            assert abs((ch.order1_mirror + ch.order1) + 0.5 * ch.hamiltonian) < 1e-12

    def test_mirror_is_pi_reflection(self):
        rng = np.random.default_rng(64)
        c = lv.random_config(L, 48, rng, amplitude=0.5)
        flipped = c.replace(pi=-c.pi)
        assert abs(lv.charges(c).order1_mirror - lv.charges(flipped).order1) < 1e-13

    def test_hamiltonian_conserved_under_evolution(self):
        rng = np.random.default_rng(65)
        c = lv.random_config(L, 64, rng, amplitude=0.15)
        traj = lv.evolve(c, dt=2e-3, t_end=0.5)
        assert traj.drift("hamiltonian") < 1e-5 * abs(traj.hamiltonians[0])

    def test_quadrature_exact_on_constants(self):
        n = 50
        c = lv.FieldConfig(L, np.full(n, 0.21 + 0.1j), np.full(n, -0.4j))
        ch = lv.charges(c)
        expect_h = 2 * L * (0.5 * (-0.4j) ** 2 + 2 * np.exp(-2j * (0.21 + 0.1j)))
        assert abs(ch.hamiltonian - expect_h) <= 1e-13 * abs(expect_h)


class TestDualCharges:
    def test_zero_field_dual_hamiltonian(self):
        c = lv.FieldConfig.zero(L, 64)
        p_t, h_t = lv.dual_charges(c)
        assert abs(h_t + 4 * L) <= 1e-13 * L
        assert abs(p_t) <= 1e-13

    def test_sum_rule(self):
        rng = np.random.default_rng(66)
        c = lv.random_config(L, 64, rng, amplitude=0.4)
        _, h_t = lv.dual_charges(c)
        ch = lv.charges(c)
        grad = lv.derivative_x(c.phi, c.h) ** 2 + c.pi**2
        expect = complex(c.h * np.sum(grad))
        assert abs((ch.hamiltonian + h_t) - expect) < 1e-12

    def test_dual_momentum_identical(self):
        rng = np.random.default_rng(67)
        c = lv.random_config(L, 64, rng, amplitude=0.4)
        p_t, _ = lv.dual_charges(c)
        assert abs(p_t - lv.charges(c).momentum) < 1e-14


def direct_gauss_node_fields(c):
    """Oracle: the O(n^2) trigonometric interpolant evaluated term by term at
    the Gauss nodes, Nyquist mode split symmetrically for even n; rows as in
    lv._gauss_node_fields."""
    n = c.n
    k = np.fft.fftfreq(n, d=1.0 / n)
    out = []
    for arr in (c.phi, c.pi, lv.derivative_x(c.phi, c.h)):
        spec = np.fft.fft(arr) / n
        kk, ss = k, spec
        if n % 2 == 0:
            ss = np.concatenate([spec, [0.5 * spec[n // 2]]])
            ss[n // 2] *= 0.5
            kk = np.concatenate([k, [n / 2.0]])
            kk[n // 2] = -n / 2.0
        frac = (np.arange(n)[None, :] + np.array(lv._GAUSS_OFFSETS)[:, None]) / n
        out.append(np.exp(2j * np.pi * frac[..., None] * kk) @ ss)
    return tuple(out)


def sequential_trace_log(c, lam):
    """Oracle: log tr T from the per-cell Magnus loop, one cell at a time,
    renormalized after every cell."""
    phi, pi, phi_x = direct_gauss_node_fields(c)
    a1 = lv.gauged_U(phi[0], pi[0], phi_x[0], lam)
    a2 = lv.gauged_U(phi[1], pi[1], phi_x[1], lam)
    h = c.h
    c2 = np.sqrt(3.0) * h * h / 12.0
    t = np.eye(2, dtype=complex)
    log_scale = 0.0
    for j in range(c.n):
        omega = 0.5 * h * (a1[j] + a2[j]) + c2 * (a2[j] @ a1[j] - a1[j] @ a2[j])
        mu = np.sqrt(-np.linalg.det(omega))
        if abs(mu) < 1e-12:
            step = np.eye(2) + omega + 0.5 * (omega @ omega)
        else:
            step = np.cosh(mu) * np.eye(2) + (np.sinh(mu) / mu) * omega
        t = step @ t
        top = np.max(np.abs(t))
        t = t / top
        log_scale += np.log(top)
    return np.log(np.trace(t)) + log_scale


class TestMonodromy:
    @pytest.mark.parametrize("n", [64, 65])
    def test_fft_gauss_nodes_match_direct_interpolant(self, n):
        c = lv.random_config(L, n, np.random.default_rng(74), amplitude=0.3)
        for got, want in zip(lv._gauss_node_fields(c), direct_gauss_node_fields(c)):
            assert got.shape == (2, n)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [64, 65, 256])
    def test_batched_matches_sequential_oracle(self, n):
        # the fit window, u = 1, a complex point, and u far to both sides,
        # where |log tr T| reaches 2000 (u = 1e-3)
        c = lv.random_config(L, n, np.random.default_rng(75), amplitude=0.2)
        lams = np.concatenate([np.log(np.linspace(*lv.FIT_WINDOW, lv.FIT_POINTS)),
                               [0.0, 0.3 - 0.2j], np.log([1e-3, 3e-3, 50.0, 200.0])])
        batched = lv.trace_log(c, lams)
        for lam, value in zip(lams, batched):
            bound = 1e-12 * max(1.0, abs(value))
            assert abs(value - sequential_trace_log(c, lam)) <= bound
            assert abs(value - lv.trace_log(c, lam)) <= bound

    @pytest.mark.parametrize("u", [1e-3, 0.01, 1.0, 200.0, 0.5 + 0.5j])
    def test_cell_exponentials_match_expm_of_magnus_generator(self, u):
        # each cell against scipy's expm of the generator built by matrix
        # products of gauged_U at the Gauss nodes; the vacuum at u = 1 has
        # the nilpotent generator [[0, -h], [0, 0]] in every cell
        lam = np.log(complex(u))
        for c in (lv.random_config(L, 65, np.random.default_rng(78), amplitude=0.3),
                  lv.FieldConfig.zero(L, 64)):
            h, k = c.h, np.sqrt(3.0) * c.h * c.h / 12.0
            phi, pi, phi_x = direct_gauss_node_fields(c)
            a1 = lv.gauged_U(phi[0], pi[0], phi_x[0], lam)
            a2 = lv.gauged_U(phi[1], pi[1], phi_x[1], lam)
            cells = lv._cell_exponentials(lv._gauss_node_fields(c), h, np.array([lam]))
            assert cells.shape == (2, 2, 1, c.n)
            for j in range(c.n):
                omega = 0.5 * h * (a1[j] + a2[j]) + k * (a2[j] @ a1[j] - a1[j] @ a2[j])
                want = expm(omega)
                # expm's own error grows with the generator's norm (30 at u = 1e-3)
                bound = 1e-14 * max(1.0, np.max(np.abs(omega))) * np.max(np.abs(want))
                assert np.max(np.abs(cells[:, :, 0, j] - want)) <= bound

    def test_scalar_and_array_shapes(self):
        c = lv.random_config(L, 33, np.random.default_rng(76))
        t, ls = lv.monodromy_ode(c, 0.2)
        assert t.shape == (2, 2) and np.ndim(ls) == 0
        assert np.ndim(lv.trace_log(c, 0.2)) == 0
        t, ls = lv.monodromy_ode(c, [0.2, -0.1, 0.4j])
        assert t.shape == (3, 2, 2) and ls.shape == (3,)
        assert lv.trace_log(c, np.array([0.2, -0.1])).shape == (2,)
        t1, ls1 = lv.monodromy_ode(c, [-0.1])
        assert t1.shape == (1, 2, 2) and ls1.shape == (1,)
        with pytest.raises(ValueError):
            lv.monodromy_ode(c, np.zeros((2, 2)))

    def test_overflow_raises(self):
        # e^{800} overflows float64; the guard reports it without numpy warnings
        c = lv.random_config(L, 32, np.random.default_rng(77))
        with pytest.raises(OverflowError):
            lv.monodromy_ode(c, -800.0)
        with pytest.raises(OverflowError):
            lv.monodromy_ode(c, np.array([0.0, -800.0]))

    def test_constant_field_matches_matrix_exponential(self):
        c = lv.FieldConfig.zero(L, 64)
        for u in (0.05, 0.12, 1.0):
            lam = np.log(u)
            t, ls = lv.monodromy_ode(c, lam)
            expect = expm(2 * L * lv.gauged_U(0.0, 0.0, 0.0, lam))
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(t * np.exp(ls) - expect)) / scale < 1e-11

    def test_determinant_one(self):
        # at moderate u the scale factor is O(1) and the determinant is clean
        rng = np.random.default_rng(68)
        c = lv.random_config(L, 64, rng, amplitude=0.3)
        t, ls = lv.monodromy_ode(c, 0.0)
        assert abs(np.linalg.det(t) * np.exp(2 * ls) - 1.0) < 1e-10

    def test_fit_recovers_first_charge(self):
        for n in (64, 65):
            rng = np.random.default_rng(69)
            for k in range(10):
                c = lv.random_config(L, n, rng, amplitude=0.2)
                i1 = lv.charges(c).order1
                fit = lv.fit_first_charge(c)
                assert abs(fit - i1) <= 0.01 * abs(i1)

    def test_trace_conserved_along_evolution(self):
        # the monodromy trace at fixed spectral point is a conserved
        # functional; its drift under evolution shrinks with the grid
        lam = 0.2

        def drift(n, dt):
            c = lv.random_config(L, n, np.random.default_rng(73), amplitude=0.15)
            traj = lv.evolve(c, dt=dt, t_end=0.4)
            values = [lv.trace_log(cfg, lam) for cfg in traj.configs[:: len(traj.configs) // 4]]
            return max(abs(v - values[0]) for v in values)

        d1, d2 = drift(32, 1e-3), drift(64, 1e-3)
        assert d1 < 1e-2
        assert d1 / d2 >= 3.0


class TestLinearAlgebra:
    def test_residual_small_on_random_samples(self):
        rng = np.random.default_rng(70)
        worst = 0.0
        count = 0
        while count < 100:
            phi = complex(rng.normal(), rng.normal())
            pi = complex(rng.normal(), rng.normal())
            lam = complex(rng.normal(), rng.normal())
            mu = complex(rng.normal(), rng.normal())
            if abs(np.sinh(lam - mu)) < 0.1:
                continue
            worst = max(worst, lv.check_linear_algebra(phi, pi, lam, mu))
            count += 1
        assert worst <= 1e-10

    def test_structural_zeros(self):
        # {U_12(lam), U_12(mu)} pairs a phi-derivative with a pi-derivative of
        # the same off-diagonal entry, which vanishes; its row/col slot in
        # both sides is zero
        phi, pi = 0.4 - 0.2j, 0.7 + 0.1j
        lam, mu = 0.8, -0.3
        from laxkit.rmatrix import bracket_lhs, linear_rhs

        table = {("phi", "pi"): 2.0, ("pi", "phi"): -2.0}
        lhs = bracket_lhs(
            lv._U_partials(phi, pi, lam), lv._U_partials(phi, pi, mu), table
        )
        rhs = linear_rhs(lam - mu, lv.lax_U(phi, pi, lam), lv.lax_U(phi, pi, mu))
        assert abs(lhs[0, 3]) < 1e-15  # row (1,1), col (2,2): {U_12, U_12}
        assert abs(rhs[0, 3]) < 1e-15

    def test_left_side_antisymmetry(self):
        from laxkit.rmatrix import bracket_lhs

        phi, pi = 0.3 + 0.6j, -0.2 + 0.9j
        lam, mu = 0.5 - 0.2j, -0.4 + 0.3j
        table = {("phi", "pi"): 2.0, ("pi", "phi"): -2.0}
        lhs = bracket_lhs(lv._U_partials(phi, pi, lam), lv._U_partials(phi, pi, mu), table)
        swapped = bracket_lhs(lv._U_partials(phi, pi, mu), lv._U_partials(phi, pi, lam), table)
        # swap the tensor factors of the swapped bracket and compare
        perm = np.zeros((4, 4))
        for i in range(2):
            for k in range(2):
                perm[2 * i + k, 2 * k + i] = 1.0
        assert np.max(np.abs(lhs + perm @ swapped @ perm)) < 1e-13


class TestEvolve:
    def test_drift_of_an_unknown_monitor_raises(self):
        c = lv.random_config(L, 16, np.random.default_rng(70), amplitude=0.1)
        traj = lv.evolve(c, dt=2e-3, t_end=4e-3)
        assert traj.drift("momentum") >= 0.0
        with pytest.raises(ValueError, match="'hamiltonian', 'momentum', 'order1'"):
            traj.drift("energy")

    def test_hamiltonian_drift_fourth_order_in_dt(self):
        rng = np.random.default_rng(71)
        c = lv.random_config(L, 64, rng, amplitude=0.15)
        d1 = lv.evolve(c, dt=4e-3, t_end=0.5).drift("hamiltonian")
        d2 = lv.evolve(c, dt=2e-3, t_end=0.5).drift("hamiltonian")
        assert 12.0 <= d1 / d2 <= 20.0

    def test_momentum_drift_second_order_in_grid(self):
        # the spatial scheme conserves the discrete Hamiltonian exactly but
        # the momentum only up to the O(h^2) mismatch of the stencils, so
        # its drift is grid-dominated and halves by ~4 per refinement
        d = {}
        for n in (32, 64):
            c = lv.random_config(L, n, np.random.default_rng(72), amplitude=0.15)
            d[n] = lv.evolve(c, dt=1e-3, t_end=0.5).drift("momentum")
        assert 3.0 <= d[32] / d[64] <= 5.0

    def test_tracks_exact_solution(self):
        sol = exact.periodic_solution_for_length(L)

        def err(n, dt):
            c = lv.config_from_solution(sol, L, n, 0.0)
            traj = lv.evolve(c, dt=dt, t_end=0.5)
            final, tf = traj.configs[-1], traj.times[-1]
            return np.max(np.abs(final.phi - sol.phi(final.x, tf)))

        e1 = err(64, 2e-3)
        e2 = err(128, 1e-3)
        assert 3.5 <= e1 / e2 <= 4.8

    def test_blowup_detection(self):
        # phi = i b, pi = 0 is annihilated by the wide Laplacian, so the grid
        # follows psi'' = 8 e^psi with psi = -2i phi exactly: psi = 2b - 2 log
        # cos(2 e^b t), a pole at t* = pi e^{-b} / 4 = 9.568 for b = -2.5;
        # the run must abort cleanly there instead of overflowing
        n = 32
        b = -2.5
        t_star = np.pi * np.exp(-b) / 4.0
        c = lv.FieldConfig(L, 1j * b * np.ones(n), np.zeros(n))
        for dt in (5e-3, 2.5e-3):
            with pytest.raises(stepping.Aborted) as err:
                lv.evolve(c, dt=dt, t_end=40.0)
            rec = err.value.record
            assert rec.reason in ("non-finite", "above the blow-up threshold")
            assert rec.field in ("phi", "pi") and 0 <= rec.index < n
            assert abs(rec.t - t_star) <= 2.0 * dt
            traj = err.value.trajectory
            assert len(traj.times) >= 1
            assert abs(traj.times[-1] - t_star) <= 2.0 * dt

    def test_invalid_dt(self):
        c = lv.FieldConfig.zero(L, 16)
        with pytest.raises(ValueError):
            lv.evolve(c, dt=1.0, t_end=0.5)
        with pytest.raises(ValueError, match="whole multiple"):
            lv.evolve(c, dt=0.3, t_end=1.0)

    def test_stack_is_the_march_buffer(self):
        # the kept configurations reach the trajectory without a copy
        c = lv.random_config(L, 16, np.random.default_rng(70))
        st = lv.evolve(c, dt=5e-3, t_end=0.02).stack
        assert st.phi.shape == (5, 16) and not st.phi.flags.writeable
        assert st.phi.base is not None and st.phi.base is st.pi.base

    def test_monitors_equal_the_single_state_charges(self):
        rng = np.random.default_rng(69)
        c = lv.random_config(L, 32, rng, amplitude=0.3)
        traj = lv.evolve(c, dt=5e-3, t_end=0.1)
        configs = traj.configs
        assert len(configs) == len(traj.times) == 21  # t = 0 and each of the 20 steps
        assert np.array_equal(configs[0].phi, c.phi)
        for k, cfg in enumerate(configs):
            ch = lv.charges(cfg)
            want = [ch.hamiltonian, ch.momentum, ch.order1]
            got = [traj.hamiltonians[k], traj.momenta[k], traj.first_charges[k]]
            assert np.allclose(got, want, rtol=1e-14, atol=0)
