import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp

from laxkit import lattice as lat
from laxkit import lattice_defect as ld
from laxkit import liouville as lv
from laxkit import stepping
from laxkit.laurent import LaurentSeries
from laxkit.rmatrix import _kron, r_matrix
from reference_oracles import poisson_bracket


def random_spectral_pair(rng, min_sep=0.1):
    while True:
        lam = complex(rng.normal(), rng.normal())
        mu = complex(rng.normal(), rng.normal())
        if abs(np.sinh(lam - mu)) > min_sep:
            return lam, mu


def reference_state():
    """Fixed three-site state on which the flow orientation and the
    time-Lax normalization are checked."""
    return lat.LatticeState(
        np.array([0.31 + 0.12j, -0.22 + 0.4j, 0.05 - 0.33j]),
        np.array([0.17 - 0.28j, 0.44 + 0.09j, -0.39 + 0.21j]),
        np.exp(np.array([0.11 + 0.23j, -0.19 - 0.07j, 0.31 - 0.14j])),
    )


def out_of_range_state(scale):
    """N = 40 sample whose product of v_j (about scale^40) leaves double range."""
    s = lat.random_state(40, np.random.default_rng(0))
    return lat.LatticeState(s.a, s.a_bar, s.v * scale)


def mp_log_trace(factors, depth, dps=60):
    """[c0, ..., c_depth] of log tr(F_1 F_2 ...) in ``dps``-digit arithmetic.

    An oracle independent of laxkit.laurent: the factors' coefficients go to
    mpmath, the product is a plain polynomial convolution, and log(1 + x)
    comes from the recurrence m c_m = m x_m - sum_{k<m} k c_k x_{m-k}."""

    def mul(p, q):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return out

    def add(p, q):
        return {e: p.get(e, 0) + q.get(e, 0) for e in set(p) | set(q)}

    with mpmath.workdps(dps):
        t = [[{0: mpmath.mpc(1)}, {}], [{}, {0: mpmath.mpc(1)}]]
        for f in factors:
            m = [[{e: mpmath.mpc(c) for e, c in f[i, k].coeffs.items()} for k in range(2)]
                 for i in range(2)]
            t = [[add(mul(t[i][0], m[0][k]), mul(t[i][1], m[1][k])) for k in range(2)]
                 for i in range(2)]
        tr = add(t[0][0], t[1][1])
        n = max(e for e, c in tr.items() if c != 0)
        x = [tr.get(n - m, 0) / tr[n] for m in range(depth + 1)]
        cs = [mpmath.log(tr[n])]
        for m in range(1, depth + 1):
            cs.append(x[m] - sum(k * cs[k] * x[m - k] for k in range(1, m)) / m)
        return [complex(c) for c in cs]


def zero_amplitude_state(n, v=None):
    z = np.zeros(n, dtype=complex)
    vv = np.ones(n, dtype=complex) if v is None else np.asarray(v, dtype=complex)
    return lat.LatticeState(z, z.copy(), vv)


def _disk_draw_state(n, rng, amplitude=1.0):
    """The fields of random_state as it drew them, one disk at a time with
    two uniform calls each; kept as the reference for the one-call draw."""

    def disk(scale):
        r = np.sqrt(rng.uniform(0, 1, n)) * scale
        th = rng.uniform(0, 2 * np.pi, n)
        return r * np.exp(1j * th)

    return disk(amplitude), disk(amplitude), np.exp(disk(0.5))


class TestRandomState:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 40])
    def test_one_call_draw_matches_disk_draws(self, n):
        for seed in range(50):
            for amplitude in (1.0, 0.12, 0.15):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                s = lat.random_state(n, got_rng, amplitude)
                for got, want in zip((s.a, s.a_bar, s.v), _disk_draw_state(n, want_rng, amplitude)):
                    assert np.array_equal(got, want)
                # the generator is left where the disk draws left it
                assert got_rng.random() == want_rng.random()

    def test_fields_are_kept_without_copies(self):
        s = lat.random_state(5, np.random.default_rng(0))
        assert s.a.base is s.a_bar.base is s.v.base
        assert not any(f.flags.writeable for f in (s.a, s.a_bar, s.v, s.a.base))


class TestBuildLax:
    def test_zero_amplitude_site(self):
        s = zero_amplitude_state(3)
        m = lat.build_lax(s, 2)
        assert m[0, 0].coeffs == {1: 1.0, -1: -1.0}
        assert m[0, 1].is_zero()
        assert m[1, 0].is_zero()
        assert m[1, 1].coeffs == {-1: -1.0}

    def test_offdiagonal_entries_u_independent(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            s = lat.random_state(4, rng)
            m = lat.build_lax(s, 3)
            assert set(m[0, 1].coeffs) <= {0}
            assert set(m[1, 0].coeffs) <= {0}

    def test_determinant_matches_hand_expansion(self):
        rng = np.random.default_rng(11)
        s = lat.random_state(4, rng)
        j = 2
        a, abar, v = s.site(j)
        det = lat.build_lax(s, j).det
        # (u v - u^-1 v^-1)(-u^-1 v) - abar a = -v^2 - abar a + u^-2
        hand = LaurentSeries({0: -v * v - abar * a, -2: 1.0})
        for e in set(det.coeffs) | set(hand.coeffs):
            assert abs(det.coefficient(e) - hand.coefficient(e)) < 1e-14

    def test_singular_state_rejected(self):
        with pytest.raises(lat.SingularStateError):
            lat.LatticeState(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
LAMS = (0.3, -0.7 + 0.4j, 1.1j, 0.5 - 1.3j)


def continuum_site(a, abar, v, lam):
    """sigma_x (lax_U(phi, pi, lam) + s 1) with phi = i log v, pi = i(a - abar)
    and s = (a + abar) / 2, over any stack of sites and points."""
    s = np.asarray(0.5 * (a + abar))[..., None, None]
    return SIGMA_X @ (lv.lax_U(1j * np.log(v), 1j * (a - abar), lam) + s * np.eye(2))


class TestSiteMatrixIsTheContinuumLax:
    # the site matrix at u = e^lam is the continuum spatial Lax operator at a
    # point, times sigma_x, plus a trace term that goes at abar = -a
    def test_each_site_of_each_seed(self):
        for seed in range(50):
            s = lat.random_state(5, np.random.default_rng(seed))
            for j in range(1, 6):
                for lam in LAMS:
                    got = lat.lax_value(s, j, np.exp(lam))
                    assert normwise_gap(got, continuum_site(*s.site(j), lam)) <= 1e-14

    def test_stack_of_states(self):
        states = lat.LatticeState.stack(
            [lat.random_state(5, np.random.default_rng(seed)) for seed in range(50)])
        j = np.arange(50) % 5 + 1  # one site per state
        sites = states.site(j)
        per_state = np.array(LAMS)[np.arange(50) % len(LAMS)]
        for lam in (*LAMS, per_state):
            got = lat.lax_value(states, j, np.exp(lam))
            assert got.shape == (50, 2, 2)
            assert normwise_gap(got, continuum_site(*sites, lam)) <= 1e-14


A, ABAR, V = sp.symbols("a abar v")
# the continuum variables of one site, as in continuum_site
PHI, PI, S = sp.I * sp.log(V), sp.I * (A - ABAR), (A + ABAR) / 2


def site_bracket(f, g):
    """{f, g} of two functions of one site's (a, abar, v), by the chain rule
    through the elementary table lattice._TABLE_RULES."""
    fields = dict(zip(lat.FIELD_NAMES, (A, ABAR, V)))
    return sp.simplify(sum(sp.diff(f, fields[x]) * sp.diff(g, fields[y])
                           * sp.nsimplify(rule(A, ABAR, V))
                           for (x, y), rule in lat._TABLE_RULES.items()))


class TestBracketsInContinuumVariables:
    # the site algebra in (phi, pi, s): at s = 1, {phi, pi} = 2 is the
    # continuum's CANONICAL_BRACKET_SCALE, and the Liouville potential
    # e^{-2i phi} appears as the bracket {pi, s}
    @pytest.mark.parametrize("f, g, want", [
        (PHI, PI, 2 * S),
        (PHI, S, -PI / 2),
        (PI, S, -2 * sp.I * sp.exp(-2 * sp.I * PHI)),
    ])
    def test_bracket_table(self, f, g, want):
        assert sp.simplify(site_bracket(f, g) - want) == 0
        assert sp.simplify(site_bracket(g, f) + want) == 0
        assert site_bracket(f, f) == 0

    def test_casimir(self):
        casimir = V**2 + A * ABAR
        assert sp.simplify(casimir - (sp.exp(-2 * sp.I * PHI) + S**2 + PI**2 / 4)) == 0
        for x in (PHI, PI, S):
            assert site_bracket(casimir, x) == 0


PROBES = np.array([2.0, 3.0, 0.7 + 0.3j, -1.1j, 0.5])


def normwise_gap(got, want):
    """Largest entry gap of each matrix over its largest entry, maximized over the stack."""
    return float(np.max(np.max(np.abs(got - want), axis=(-2, -1))
                        / np.max(np.abs(want), axis=(-2, -1))))


class TestMonodromy:
    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_probe_array_matches_scalar_calls(self, n):
        for seed in range(50):
            s = lat.random_state(n, np.random.default_rng(seed))
            batched = lat.monodromy_value(s, PROBES)
            assert batched.shape == (len(PROBES), 2, 2)
            single = np.array([lat.monodromy_value(s, u) for u in PROBES])
            assert single.shape == batched.shape
            assert normwise_gap(batched, single) <= 1e-14
            # reference: the ordered product of the site matrices, one by one
            loop = []
            for u in PROBES:
                m = np.eye(2, dtype=complex)
                for j in range(n, 0, -1):
                    m = m @ lat.lax_value(s, j, u)
                loop.append(m)
            assert normwise_gap(batched, np.array(loop)) <= 1e-13

    def test_probe_array_keeps_its_shape(self):
        s = lat.random_state(4, np.random.default_rng(5))
        grid = PROBES[:4].reshape(2, 2)
        assert lat.monodromy_value(s, grid).shape == (2, 2, 2, 2)
        np.testing.assert_array_equal(lat.monodromy_value(s, grid)[1, 0],
                                      lat.monodromy_value(s, grid[1, 0]))

    def test_single_site(self):
        rng = np.random.default_rng(12)
        s = lat.random_state(1, rng)
        t = lat.monodromy(s)
        m = lat.build_lax(s, 1)
        for i in range(2):
            for j in range(2):
                assert t[i, j].coeffs == m[i, j].coeffs

    def test_zero_amplitude_closed_form(self):
        # all v = 1, a = abar = 0: tr T = (u - u^-1)^N + (-1)^N u^-N
        for n in (2, 3, 5):
            s = zero_amplitude_state(n)
            tr = lat.monodromy(s).trace
            expect = LaurentSeries({1: 1.0, -1: -1.0})
            acc = LaurentSeries.one()
            for _ in range(n):
                acc = acc * expect
            acc = acc + LaurentSeries({-n: (-1.0) ** n})
            for e in set(tr.coeffs) | set(acc.coeffs):
                assert abs(tr.coefficient(e) - acc.coefficient(e)) < 1e-13

    def test_leading_coefficient_is_product_of_v(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 6):
            s = lat.random_state(n, rng)
            tr = lat.monodromy(s).trace
            assert tr.degree == n
            assert abs(tr.coefficient(n) - np.prod(s.v)) < 1e-12 * abs(np.prod(s.v))

    def test_degree_span(self):
        rng = np.random.default_rng(14)
        s = lat.random_state(5, rng)
        t = lat.monodromy(s)
        exps = [e for i in range(2) for j in range(2) for e in t[i, j].coeffs]
        assert max(exps) == 5 and min(exps) == -5


class TestCharges:
    def test_zero_amplitude_values(self):
        for n in (2, 4):
            s = zero_amplitude_state(n)
            c0, c1, c2 = lat.charges_closed_form(s)
            assert abs(c0) < 1e-14
            assert c1 == 0
            assert abs(c2 + n) < 1e-14

    def test_order1_vanishes_on_trace(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            s = lat.random_state(n, rng)
            _, cs = lat.charges_from_trace(s)
            c0 = cs[0]
            assert abs(cs[1]) <= 1e-12 * max(1.0, abs(c0))

    def test_order2_matches_closed_form(self):
        rng = np.random.default_rng(16)
        for n in (2, 3, 4, 5, 6, 64, 96):
            for _ in range(10):
                s = lat.random_state(n, rng)
                _, _, c2 = lat.charges_closed_form(s)
                lead, cs = lat.charges_from_trace(s)
                assert lead == n
                assert abs(cs[2] - c2) <= 1e-12 * max(1.0, abs(c2))

    def test_closed_form_rejects_one_site(self):
        # at N = 1 the hopping sum has no second site: c2 misses the trace by
        # about 1, so the closed form refuses; the trace itself still works
        s = lat.random_state(1, np.random.default_rng(3), 0.3)
        with pytest.raises(ValueError, match="N >= 2"):
            lat.charges_closed_form(s)
        assert lat.charges_from_trace(s)[0] == 1

    @pytest.mark.parametrize("scale", [1e10, 1e-10])
    def test_out_of_range_fields_raise(self, scale):
        with pytest.raises(OverflowError):
            lat.charges_from_trace(out_of_range_state(scale))

    @pytest.mark.parametrize("with_defect", [False, True])
    def test_deep_charges_match_mpmath_oracle(self, with_defect):
        # c3..c6 at N = 40 (c2 is checked against the closed form above);
        # the worst error on this draw is 5e-13 (c6), so 1e-11 has a margin
        # of 20 while a wrong order, or a dropped term, is off by O(1)
        s = lat.random_state(40, np.random.default_rng(1))
        d = ld.random_defect(3, np.random.default_rng(2))
        factors = [ld.build_defect_lax(d) if with_defect and j == d.n else lat.build_lax(s, j)
                   for j in range(s.N, 0, -1)]
        want = mp_log_trace(factors, 6)
        got = (ld.defect_charges_from_trace(s, d, depth=6) if with_defect
               else lat.charges_from_trace(s, depth=6))[1]
        for m in range(3, 7):
            assert abs(got[m] - want[m]) <= 1e-11 * max(1.0, abs(want[m])), f"c{m}"

    def test_order0_matches_product_through_exp(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = lat.random_state(4, rng)
            _, cs = lat.charges_from_trace(s)
            prod = np.prod(s.v)
            assert abs(np.exp(cs[0]) - prod) <= 1e-12 * abs(prod)

    def test_depth_validation(self):
        s = zero_amplitude_state(2)
        with pytest.raises(ValueError):
            lat.charges_from_trace(s, depth=1)


class TestPoissonBracket:
    def test_cross_site_vanishes(self):
        rng = np.random.default_rng(18)
        s = lat.random_state(4, rng)
        assert poisson_bracket(("a", 1), ("a", 2), s) == 0
        assert poisson_bracket(("a", 1), ("v", 3), s) == 0

    def test_table_value(self):
        s = zero_amplitude_state(3, v=[1.0, 1.0, 2.0])
        s = s.replace(a=np.array([0, 0, 0.7j]), a_bar=np.array([0, 0, 0.2]))
        assert abs(poisson_bracket(("a", 3), ("a_bar", 3), s) - (-8.0)) < 1e-14

    def test_antisymmetry(self):
        rng = np.random.default_rng(19)
        s = lat.random_state(3, rng)
        for f in lat.FIELD_NAMES:
            for g in lat.FIELD_NAMES:
                lhs = poisson_bracket((f, 1), (g, 1), s)
                rhs = poisson_bracket((g, 1), (f, 1), s)
                assert abs(lhs + rhs) < 1e-14

    def test_unknown_field_rejected(self):
        s = zero_amplitude_state(2)
        with pytest.raises(ValueError):
            poisson_bracket(("q", 1), ("v", 1), s)

    def test_jacobi_identity(self):
        # Composite brackets evaluated via the Leibniz rule on the table.
        rng = np.random.default_rng(20)

        def grad(name, a, abar, v):
            return {
                "a": {"a": 1.0},
                "a_bar": {"a_bar": 1.0},
                "v": {"v": 1.0},
                "av": {"a": v, "v": a},
                "abar_v": {"a_bar": v, "v": abar},
                "v2": {"v": 2.0 * v},
            }[name]

        def value(name, a, abar, v):
            return {
                "a": a, "a_bar": abar, "v": v,
                "av": a * v, "abar_v": abar * v, "v2": v * v,
            }[name]

        def bracket(fname, gname, a, abar, v):
            table = {k: r(a, abar, v) for k, r in lat._TABLE_RULES.items()}
            out = 0.0j
            for fa, fc in grad(fname, a, abar, v).items():
                for ga, gc in grad(gname, a, abar, v).items():
                    out += fc * gc * table.get((fa, ga), 0.0)
            return out

        # {f, {g, h}} with inner brackets given by the table composites
        inner = {("a", "v"): ("av", 1.0), ("v", "a"): ("av", -1.0),
                 ("a_bar", "v"): ("abar_v", -1.0), ("v", "a_bar"): ("abar_v", 1.0),
                 ("a", "a_bar"): ("v2", -2.0), ("a_bar", "a"): ("v2", 2.0)}

        for _ in range(20):
            s = lat.random_state(2, rng)
            a, abar, v = s.site(1)
            for f in ("a", "a_bar", "v"):
                for g in ("a", "a_bar", "v"):
                    for h in ("a", "a_bar", "v"):
                        total = 0.0j
                        for x, y, zz in ((f, g, h), (g, h, f), (h, f, g)):
                            comp = inner.get((y, zz))
                            if comp is not None:
                                name, scale = comp
                                total += scale * bracket(x, name, a, abar, v)
                        assert abs(total) < 1e-12


class TestQuadraticAlgebra:
    def test_residual_small_on_random_samples(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            s = lat.random_state(int(rng.integers(2, 6)), rng)
            lam, mu = random_spectral_pair(rng)
            j = int(rng.integers(1, s.N + 1))
            worst = max(worst, lat.check_quadratic_algebra(s, lam, mu, j))
        assert worst <= 1e-10

    def test_ultralocality(self):
        rng = np.random.default_rng(22)
        s = lat.random_state(4, rng)
        # cross-site elementary brackets all vanish, so the bracket side is
        # identically zero off-site
        for f in lat.FIELD_NAMES:
            for g in lat.FIELD_NAMES:
                assert poisson_bracket((f, 2), (g, 3), s) == 0

    def test_exchange_relation_reads_only_its_site(self):
        # at every site j of chains of 2-6 sites, alone and stacked, the
        # residual equals that of the one-site state of site j's fields bit
        # for bit: a relation that read a neighbour would differ on the chain.
        # verify-poisson keeps only the drawn site's fields on this ground
        rng = np.random.default_rng(24)
        for n in range(2, 7):
            states = [lat.random_state(n, rng) for _ in range(8)]
            stack = lat.LatticeState.stack(states)
            lam, mu = np.array([random_spectral_pair(rng) for _ in states]).T
            for j in range(1, n + 1):
                one_site = lat.LatticeState(*(f[:, None] for f in np.array(
                    [s.site(j) for s in states]).T))
                for k, s in enumerate(states):
                    alone = lat.LatticeState(*(np.array([f]) for f in s.site(j)))
                    assert (lat.check_quadratic_algebra(s, lam[k], mu[k], j).hex()
                            == lat.check_quadratic_algebra(alone, lam[k], mu[k], 1).hex())
                assert (lat.check_quadratic_algebra(stack, lam, mu, j).tobytes()
                        == lat.check_quadratic_algebra(one_site, lam, mu, 1).tobytes())

    def test_r_matrix_structure(self):
        d = 0.7 - 0.4j
        r = r_matrix(d)
        s, c = np.sinh(d), np.cosh(d)
        expect = np.array(
            [[c, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, c]], dtype=complex
        ) / s
        assert np.max(np.abs(r - expect)) < 1e-14

    def test_r_matrix_pole_rejected(self):
        with pytest.raises(ValueError):
            r_matrix(0.0)

    def test_kron_is_numpys_bit_for_bit(self):
        # signed zeros included: the bytes match, on random complex pairs and
        # on the pairs with the real identity that linear_rhs forms
        rng = np.random.default_rng(23)
        eye = np.eye(2)
        for _ in range(50):
            a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            for x, y in ((a, b), (b, a), (a, eye), (eye, b)):
                got, want = _kron(x, y), np.kron(x, y)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBulkEom:
    def test_zero_amplitude_fixed_point(self):
        s = zero_amplitude_state(4)
        d = lat.bulk_eom(s)
        assert d.max_abs() == 0.0

    def test_charge_conserved_along_flow(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = lat.random_state(5, rng)
            d = lat.bulk_eom(s)
            g = lat.charge2_gradient(s)
            der = np.sum(g[0] * d.a) + np.sum(g[1] * d.a_bar) + np.sum(g[2] * d.v)
            assert abs(der) <= 1e-10

    def test_matches_bracket_flow(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            s = lat.random_state(4, rng)
            d = lat.bulk_eom(s)
            bf = lat.bracket_flow(s)
            for got, want in ((bf.a, d.a), (bf.a_bar, d.a_bar), (bf.v, d.v)):
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_flow_sign_is_calibrated(self):
        # the bracket convention leaves the orientation open: FLOW_SIGN = -1
        # reproduces bulk_eom on the reference state, the other sign does not
        s = reference_state()
        d_a, d_abar, _ = lat.charge2_gradient(s)
        raw_dv = d_a * (-s.a * s.v) + d_abar * (s.a_bar * s.v)
        target = lat.bulk_eom(s).v
        scale = max(1.0, float(np.max(np.abs(target))))
        assert lat.FLOW_SIGN == -1
        assert np.max(np.abs(lat.FLOW_SIGN * raw_dv - target)) <= 1e-12 * scale
        assert np.max(np.abs(-lat.FLOW_SIGN * raw_dv - target)) >= 0.1 * scale


class TestTimeLax:
    def test_order0_field_free(self):
        assert np.array_equal(lat.time_lax_order0(), np.diag([1.0 + 0j, 0.0]))

    def test_zero_amplitude_order2(self):
        s = zero_amplitude_state(3)
        mu = 0.4 + 0.2j
        m = lat.time_lax_order2(s, 2, mu)
        expect = np.diag([2.0 * np.exp(2 * mu), 0.0])
        assert np.max(np.abs(m - expect)) < 1e-14

    def test_trace_is_field_independent(self):
        rng = np.random.default_rng(25)
        mu = -0.3 + 0.65j
        for _ in range(10):
            s = lat.random_state(4, rng)
            m = lat.time_lax_order2(s, 3, mu)
            assert abs(np.trace(m) - 2.0 * np.exp(2 * mu)) < 1e-12


class TestTimeLaxFromRMatrix:
    def test_order0_proportional_to_projector(self):
        rng = np.random.default_rng(26)
        s = lat.random_state(4, rng)
        mats = lat.time_lax_from_rmatrix(s, 2, 0.3 - 0.2j, depth=2)
        expect = np.diag([1.0 + 0j, 0.0])
        assert np.max(np.abs(mats[0] - expect)) < 1e-11

    def test_order1_vanishes(self):
        rng = np.random.default_rng(27)
        s = lat.random_state(3, rng)
        mats = lat.time_lax_from_rmatrix(s, 1, 0.1 + 0.4j, depth=2)
        assert np.max(np.abs(mats[1])) < 1e-11

    def test_order2_matches_printed_form(self):
        rng = np.random.default_rng(28)
        # ten draws of a random size 2-5 (None), then fixed sizes from N = 10 up
        for n in [None] * 10 + [10, 12, 24]:
            n = n or int(rng.integers(2, 6))
            s = lat.random_state(n, rng)
            j = int(rng.integers(1, n + 1))
            mu = complex(0.5 * rng.normal(), 0.5 * rng.normal())
            mats = lat.time_lax_from_rmatrix(s, j, mu, depth=2)
            printed = lat.time_lax_order2(s, j, mu)
            assert np.max(np.abs(mats[2] - printed)) <= 1e-10 * max(1.0, np.max(np.abs(printed)))

    def test_trace_formula_is_normalized(self):
        # the (1,2) entry of the order-2 matrix equals the printed one on the
        # reference state: the trace formula needs no normalization constant
        s = reference_state()
        mu = 0.17 - 0.08j
        raw = lat.time_lax_from_rmatrix(s, 2, mu, depth=2)
        ratio = raw[2][0, 1] / lat.time_lax_order2(s, 2, mu)[0, 1]
        assert abs(ratio - 1.0) <= 1e-12

    def test_deeper_expansion_keeps_low_orders(self):
        rng = np.random.default_rng(34)
        s = lat.random_state(4, rng)
        mu = 0.2 + 0.3j
        shallow = lat.time_lax_from_rmatrix(s, 2, mu, depth=2)
        deep = lat.time_lax_from_rmatrix(s, 2, mu, depth=4)
        for m in range(3):
            assert np.max(np.abs(shallow[m] - deep[m])) < 1e-12
        assert len(deep) == 5

    def test_depth4_matches_trace_formula_at_large_u(self):
        # independent of the series code: evaluate the trace formula
        # coth or 1/sinh(lambda - mu) (T_j)_ik / t at u = e^lambda on a ray and
        # subtract sum_m C_m u^-m.  The remainder must fall at least as
        # |u|^-5; C_5 vanishes like every odd order, so it falls as |u|^-6
        # (a ratio of 64 per doubling; a wrong C_4 would give 16)
        s = lat.random_state(6, np.random.default_rng(36))
        j, mu = 3, 0.2 - 0.3j
        mats = lat.time_lax_from_rmatrix(s, j, mu, depth=4)
        order = list(range(j - 1, 0, -1)) + list(range(s.N, j - 1, -1))

        def remainder(u):
            tj = np.linalg.multi_dot([lat.lax_value(s, k, u) for k in order])
            x = np.log(u) - mu
            exact = np.array([[np.cosh(x), 1.0], [1.0, np.cosh(x)]]) / np.sinh(x) * tj
            exact /= np.trace(tj)
            return np.max(np.abs(exact - sum(c * u**-m for m, c in enumerate(mats))))

        rs = [remainder(r * np.exp(0.7j)) for r in (8.0, 16.0, 32.0, 64.0)]
        for coarse, fine in zip(rs, rs[1:]):
            assert 48.0 <= coarse / fine <= 80.0, rs

    def test_depth_validation(self):
        rng = np.random.default_rng(35)
        s = lat.random_state(3, rng)
        with pytest.raises(ValueError):
            lat.time_lax_from_rmatrix(s, 1, 0.2, depth=1)

    @pytest.mark.parametrize("scale", [1e10, 1e-10])
    def test_out_of_range_fields_raise(self, scale):
        with pytest.raises(OverflowError):
            lat.time_lax_from_rmatrix(out_of_range_state(scale), 2, 0.2 + 0.1j)

    def test_site_index_is_periodic(self):
        # like LatticeState.site and time_lax_order2: j = 0 is site N, j = N + 1 is site 1
        s = lat.random_state(5, np.random.default_rng(0))
        mu = 0.3 - 0.1j
        for j, same in ((0, 5), (6, 1), (-4, 1)):
            got = lat.time_lax_from_rmatrix(s, j, mu, depth=3)
            want = lat.time_lax_from_rmatrix(s, same, mu, depth=3)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


BULK_FIELDS = ("a", "a_bar", "v")
DEFECT_FIELDS = BULK_FIELDS + ("z", "z_bar", "X")


def crafted_fields(names, **entries):
    """A regular flat chain state (5 bulk sites, one slot per defect field)
    with the given (index, value) entries written in, and its layout."""
    y = {"a": np.full(5, 0.1 + 0.2j), "a_bar": np.full(5, -0.3j), "v": np.full(5, 1.0 + 0j),
         "z": np.array([0.2 + 0j]), "z_bar": np.array([0.1j]), "X": np.array([1.5 + 0j])}
    for name, (i, value) in entries.items():
        y[name][i] = value
    layout = tuple((name, len(y[name])) for name in names)
    return np.concatenate([y[name] for name in names]), layout


class TestGuard:
    """The chain integrators' guard: None on a regular state, else the
    (reason, field, index) of the first non-finite entry, of the largest entry
    above FIELD_CEILING, or of the smallest |v_j| or |X| below V_FLOOR."""

    @pytest.mark.parametrize("names, entries, verdict", [
        (BULK_FIELDS, {}, None),
        (BULK_FIELDS, {"v": (3, 1e-9j)}, ("field below the floor", "v", 3)),
        (BULK_FIELDS, {"a_bar": (2, np.nan)}, ("non-finite", "a_bar", 2)),
        (BULK_FIELDS, {"a": (4, -2e8)}, ("field above the ceiling", "a", 4)),
        (BULK_FIELDS, {"v": (1, 1e-9), "a_bar": (2, np.nan)}, ("non-finite", "a_bar", 2)),
        (BULK_FIELDS, {"v": (1, 1e-9), "a": (0, 1e9)}, ("field above the ceiling", "a", 0)),
        (DEFECT_FIELDS, {}, None),
        (DEFECT_FIELDS, {"v": (3, 1e-9j)}, ("field below the floor", "v", 3)),
        (DEFECT_FIELDS, {"X": (0, 2e-9)}, ("field below the floor", "X", 0)),
        (DEFECT_FIELDS, {"v": (0, 5e-9), "X": (0, 2e-9)}, ("field below the floor", "X", 0)),
        (DEFECT_FIELDS, {"a_bar": (2, np.nan)}, ("non-finite", "a_bar", 2)),
        (DEFECT_FIELDS, {"X": (0, np.inf)}, ("non-finite", "X", 0)),
        (DEFECT_FIELDS, {"z_bar": (0, 3e8j)}, ("field above the ceiling", "z_bar", 0)),
        # only v and X have a floor
        (DEFECT_FIELDS, {"z": (0, 1e-12), "z_bar": (0, 1e-12j)}, None),
        (BULK_FIELDS, {"a": (0, 1e-12), "a_bar": (1, 0.0)}, None),
    ])
    def test_verdict(self, names, entries, verdict):
        y, layout = crafted_fields(names, **entries)
        assert stepping.bound_guard(layout, **lat.CHAIN_BOUNDS)((0.0,), y[None]) == (
            None if verdict is None else (0, verdict))

    def test_stack_names_its_first_tripping_row(self):
        # rows 1 and 3 of a stack trip, for different reasons: the guard names
        # row 1, and the reversed stack row 0
        regular, layout = crafted_fields(DEFECT_FIELDS)
        low, _ = crafted_fields(DEFECT_FIELDS, X=(0, 2e-9))
        high, _ = crafted_fields(DEFECT_FIELDS, a=(4, -2e8))
        guard = stepping.bound_guard(layout, **lat.CHAIN_BOUNDS)
        ts = (0.5, 0.5, 1.0, 1.0)
        ys = np.stack((regular, low, regular, high))
        assert guard(ts, ys) == (1, ("field below the floor", "X", 0))
        assert guard(ts, ys[::-1]) == (0, ("field above the ceiling", "a", 4))
        assert guard(ts, np.stack((regular,) * 4)) is None


class TestOrderZeroFlow:
    def test_projector_generates_order0_charge_flow(self):
        # the order-0 time-Lax is the constant projector; its commutator
        # with L matches the flow generated by the order-0 charge
        rng = np.random.default_rng(33)
        s = lat.random_state(5, rng)
        sign = lat.FLOW_SIGN
        proj = lat.time_lax_order0()
        u = 1.3 - 0.4j
        for j in range(1, s.N + 1):
            lj = lat.lax_value(s, j, u)
            comm = proj @ lj - lj @ proj
            # bracket flow of sum_j log v_j: only a and abar move
            i = j - 1
            da = sign * s.a[i]          # {a_j, log v_j} = a_j
            dabar = sign * (-s.a_bar[i])
            expect = np.array([[0.0, dabar], [da, 0.0]], dtype=complex)
            assert np.max(np.abs(comm - expect)) < 1e-14


class TestZeroCurvature:
    def test_residual_small_on_random_samples(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(100):
            s = lat.random_state(int(rng.integers(2, 7)), rng)
            mu = complex(0.5 * rng.normal(), 0.5 * rng.normal())
            j = int(rng.integers(1, s.N + 1))
            worst = max(worst, lat.zero_curvature_residual(s, j, mu))
        assert worst <= 1e-10

    def test_exact_zero_at_fixed_point(self):
        s = zero_amplitude_state(4)
        assert lat.zero_curvature_residual(s, 2, 0.3) == 0.0

    def test_mu_sweep(self):
        rng = np.random.default_rng(30)
        s = lat.random_state(5, rng)
        for mu in (0.0, 1.0, -1.0, 0.5j, -0.5j):
            assert lat.zero_curvature_residual(s, 3, mu) <= 1e-10


class TestIntegrate:
    def test_one_site_chain_rejected_before_the_march(self, monkeypatch):
        monkeypatch.setattr(lat, "march", lambda *args, **kw: pytest.fail("marched"))
        s = lat.random_state(1, np.random.default_rng(3), 0.3)
        with pytest.raises(ValueError, match="N >= 2"):
            lat.integrate(s, dt=0.1, t_end=1.0)

    def test_zero_probe_rejected_before_the_march(self, monkeypatch):
        # u = 0 is the pole of the site matrix: its trace would read nan
        monkeypatch.setattr(lat, "march", lambda *args, **kw: pytest.fail("marched"))
        s = lat.random_state(4, np.random.default_rng(3), 0.1)
        d = ld.random_defect(2, np.random.default_rng(4))
        for integrate in (lambda: lat.integrate(s, 0.1, 1.0, (0.0,)),
                          lambda: ld.integrate_with_defect(s, d, 0.1, 1.0, (2.0, 0.0))):
            with pytest.raises(ValueError, match="probe u = 0"):
                integrate()

    def test_repeated_probe_rejected_before_the_march(self, monkeypatch):
        # the traces are keyed by probe: a repeated one would keep one trace
        monkeypatch.setattr(lat, "march", lambda *args, **kw: pytest.fail("marched"))
        s = lat.random_state(4, np.random.default_rng(3), 0.1)
        d = ld.random_defect(2, np.random.default_rng(4))
        for integrate in (lambda: lat.integrate(s, 0.1, 1.0, (2.0, 2.0)),
                          lambda: ld.integrate_with_defect(s, d, 0.1, 1.0, (2.0, 3.0, 2.0))):
            with pytest.raises(ValueError, match="probes must be distinct"):
                integrate()

    def test_fixed_point_stays_constant(self):
        s = zero_amplitude_state(4)
        traj = lat.integrate(s, dt=0.05, t_end=1.0)
        assert traj.drift("2") < 1e-14
        assert traj.drift("0") < 1e-14
        final = traj.states[-1]
        assert np.max(np.abs(final.a)) < 1e-14

    @pytest.mark.parametrize("which", ["c2", "c0", "1", 2, ""])
    def test_drift_of_an_unknown_order_raises(self, which):
        # "c2" used to read the order-0 drift silently
        traj = lat.integrate(zero_amplitude_state(3), dt=0.05, t_end=0.1)
        with pytest.raises(ValueError, match="'0' or '2'"):
            traj.drift(which)

    def test_fourth_order_charge_drift(self):
        rng = np.random.default_rng(31)
        s = lat.random_state(6, rng, amplitude=0.3)
        d1 = lat.integrate(s, dt=2e-2, t_end=2.0).drift("2")
        d2 = lat.integrate(s, dt=1e-2, t_end=2.0).drift("2")
        ratio = d1 / d2
        assert 12.0 <= ratio <= 20.0

    def test_trace_drift_tracks_charge_drift(self):
        rng = np.random.default_rng(31)
        s = lat.random_state(6, rng, amplitude=0.3)
        t1 = lat.integrate(s, dt=2e-2, t_end=2.0)
        t2 = lat.integrate(s, dt=1e-2, t_end=2.0)
        ratio = t1.trace_drift(2.0) / t2.trace_drift(2.0)
        assert 10.0 <= ratio <= 24.0

    def test_both_charges_conserved_in_involution(self):
        # the order-0 and order-2 charges are simultaneously conserved along
        # the same flow, both at integrator order
        rng = np.random.default_rng(31)
        s = lat.random_state(6, rng, amplitude=0.3)
        traj = lat.integrate(s, dt=1e-2, t_end=2.0)
        assert traj.drift("0") < 1e-6
        assert traj.drift("2") < 1e-4
        r0 = lat.integrate(s, dt=2e-2, t_end=2.0).drift("0") / traj.drift("0")
        assert 10.0 <= r0 <= 24.0

    def test_invalid_dt_rejected(self):
        s = zero_amplitude_state(3)
        with pytest.raises(ValueError):
            lat.integrate(s, dt=0.5, t_end=0.1)

    def test_t_end_off_the_step_grid_rejected(self):
        # 0.3 fits three times into 1.0, so the march would end at 0.9
        s = lat.random_state(4, np.random.default_rng(0), 0.1)
        with pytest.raises(ValueError, match="whole multiple"):
            lat.integrate(s, 0.3, 1.0)

    def test_monitors_equal_the_single_state_functions(self):
        # the monitors come from one call over the stacked states after the
        # march; row by row they are the functions of traj.states[k], exactly
        s = lat.random_state(6, np.random.default_rng(32), amplitude=0.3)
        probes = (2.0, 3.0, 0.7)
        traj = lat.integrate(s, 2e-2, 0.4, probes)
        states = traj.states
        assert len(states) == len(traj.times) == 21
        assert np.array_equal(states[0].a, s.a)
        for k, st in enumerate(states):
            c0, _, c2 = lat.charges_closed_form(st)
            assert (traj.charges0[k], traj.charges2[k]) == (c0, c2)
            tr = np.trace(lat.monodromy_value(st, probes), axis1=1, axis2=2)
            assert [traj.traces[u][k] for u in probes] == list(tr)

    def test_vanishing_v_at_a_stage_aborts_without_warnings(self):
        # dv_0 = abar_1 a_0 - abar_0 a_2 = -4, so with dt = 0.5 the input of
        # stage 2 holds v_0 = 1 + 0.25 (-4) = 0 exactly; the rhs runs on it,
        # dividing by zero, before the guard names it
        s = lat.LatticeState(np.array([2.0, 0, 0]), np.array([0, -2.0, 0]), np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(stepping.Aborted) as err:
                lat.integrate(s, 0.5, 0.5)
        rec = err.value.record
        assert (rec.step, rec.stage, rec.t) == (1, 2, 0.25)
        assert (rec.reason, rec.field, rec.index) == ("field below the floor", "v", 0)

    def test_stack_is_the_march_buffer(self):
        # the kept states reach the trajectory without a copy: all three
        # fields are read-only views of the one buffer the march filled
        traj = lat.integrate(lat.random_state(4, np.random.default_rng(34), 0.1), 0.1, 0.5)
        st = traj.stack
        assert st.a.shape == (6, 4) and not st.a.flags.writeable
        assert st.a.base is not None and st.a.base is st.a_bar.base is st.v.base

    def test_aborted_march_carries_monitored_rows(self):
        rng = np.random.default_rng(33)
        s = lat.random_state(6, rng, amplitude=3.0)
        with pytest.raises(stepping.Aborted) as err:
            lat.integrate(s, dt=2e-2, t_end=5.0)
        traj, rec = err.value.trajectory, err.value.record
        assert len(traj.times) == len(traj.states) == rec.step
        for series in (traj.charges0, traj.charges2, *traj.traces.values()):
            assert len(series) == rec.step and np.all(np.isfinite(series))
        assert traj.charges2[-1] == lat.charges_closed_form(traj.states[-1])[2]
