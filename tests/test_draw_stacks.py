"""The identity checks on a stack of draws: each row of the stack gives the
sides of its draw checked alone, to 1e-13 relative, and the velocities the
checks read give the draw's own bit for bit.  The trace charges of a stack
give each draw's own to 1e-13 of the size of the log series' terms."""

import numpy as np
import pytest

from laxkit import lattice as lat
from laxkit import lattice_defect as ld
from laxkit import liouville as lv
from laxkit.laurent import _leading, _powers
from laxkit.rmatrix import _residual

DRAWS = 24


@pytest.fixture
def sides(monkeypatch):
    """The (lhs, rhs) of every residual the identity checks take, in call order."""
    seen = []

    def capture(lhs, rhs):
        seen.append((np.array(lhs), np.array(rhs)))
        return _residual(lhs, rhs)

    for module in (lat, ld, lv):
        monkeypatch.setattr(module, "_residual", capture)
    return seen


def spectral_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        lam, mu = (complex(rng.normal(), rng.normal()) for _ in range(2))
        if abs(np.sinh(lam - mu)) > 0.15:
            pairs.append((lam, mu))
    return np.array(pairs).T


def state_stack(n, rng, count):
    states = [lat.random_state(n, rng) for _ in range(count)]
    return states, lat.LatticeState.stack(states)


def assert_rows_are_the_draws(sides, batched, check_alone):
    """Each row of the batched residuals and of their sides equals the draw
    checked alone; ``check_alone(k)`` runs draw k's check, whose sides follow."""
    calls = len(sides)
    assert calls > 0 and all(lhs.shape[0] == DRAWS for lhs, _ in sides)
    stacked = list(sides)
    for k in range(DRAWS):
        del sides[:]
        alone = check_alone(k)
        assert len(sides) == calls
        for (lhs, rhs), (one_lhs, one_rhs) in zip(stacked, sides):
            for got, want in ((lhs[k], one_lhs), (rhs[k], one_rhs)):
                assert got.shape == want.shape == (lhs.shape[-1],) * 2
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # a stack gives an array of residuals, one draw a float
        for got, want in zip(*(list(r.values()) if isinstance(r, dict) else [r]
                               for r in (batched, alone))):
            assert got.shape == (DRAWS,) and isinstance(want, float)
            assert got[k] <= 1e-10 and want <= 1e-10 and abs(got[k] - want) <= 1e-13


@pytest.mark.parametrize("seed", range(3))
class TestIdentities:
    def test_quadratic_algebra(self, sides, seed):
        rng = np.random.default_rng(seed)
        states, stack = state_stack(4, rng, DRAWS)
        lam, mu = spectral_pairs(rng, DRAWS)
        sites = rng.integers(1, 5, DRAWS)
        batched = lat.check_quadratic_algebra(stack, lam, mu, sites)
        assert_rows_are_the_draws(sides, batched, lambda k: lat.check_quadratic_algebra(
            states[k], lam[k], mu[k], int(sites[k])))

    def test_quadratic_algebra_at_one_shared_site(self, sides, seed):
        rng = np.random.default_rng(seed)
        states, stack = state_stack(3, rng, DRAWS)
        lam, mu = spectral_pairs(rng, DRAWS)
        batched = lat.check_quadratic_algebra(stack, lam, mu, 2)
        assert_rows_are_the_draws(sides, batched, lambda k: lat.check_quadratic_algebra(
            states[k], lam[k], mu[k], 2))

    def test_defect_algebra(self, sides, seed):
        rng = np.random.default_rng(seed)
        defects = [ld.random_defect(2, rng) for _ in range(DRAWS)]
        lam, mu = spectral_pairs(rng, DRAWS)
        batched = ld.check_defect_algebra(ld.DefectSite.stack(defects), lam, mu)
        assert_rows_are_the_draws(sides, batched, lambda k: ld.check_defect_algebra(
            defects[k], lam[k], mu[k]))

    def test_linear_algebra(self, sides, seed):
        rng = np.random.default_rng(seed)
        phi, pi = (rng.normal(size=DRAWS) + 1j * rng.normal(size=DRAWS) for _ in range(2))
        lam, mu = spectral_pairs(rng, DRAWS)
        batched = lv.check_linear_algebra(phi, pi, lam, mu)
        assert_rows_are_the_draws(sides, batched, lambda k: lv.check_linear_algebra(
            phi[k], pi[k], lam[k], mu[k]))

    def test_zero_curvature(self, sides, seed):
        rng = np.random.default_rng(seed)
        states, stack = state_stack(5, rng, DRAWS)
        mu = 0.5 * (rng.normal(size=DRAWS) + 1j * rng.normal(size=DRAWS))
        sites = rng.integers(1, 6, DRAWS)
        batched = lat.zero_curvature_residual(stack, sites, mu)
        assert_rows_are_the_draws(sides, batched, lambda k: lat.zero_curvature_residual(
            states[k], int(sites[k]), mu[k]))

    def test_defect_zero_curvature(self, sides, seed):
        rng = np.random.default_rng(seed)
        states, stack = state_stack(6, rng, DRAWS)
        defects = [ld.random_defect(int(rng.integers(2, 6)), rng) for _ in range(DRAWS)]
        mu = 0.5 * (rng.normal(size=DRAWS) + 1j * rng.normal(size=DRAWS))
        batched = ld.defect_zero_curvature_residuals(stack, ld.DefectSite.stack(defects), mu)
        assert list(batched) == ["left", "defect", "right"]
        assert_rows_are_the_draws(sides, batched, lambda k: ld.defect_zero_curvature_residuals(
            states[k], defects[k], mu[k]))


class TestVelocities:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_bulk_eom_and_bracket_flow_of_a_stack(self, n):
        rng = np.random.default_rng(n)
        states, stack = state_stack(n, rng, DRAWS)
        eom, flow = lat.bulk_eom(stack), lat.bracket_flow(stack)
        for k, s in enumerate(states):
            for got, want in ((eom, lat.bulk_eom(s)), (flow, lat.bracket_flow(s))):
                for f in lat.FIELD_NAMES:
                    assert np.array_equal(getattr(got, f)[k], getattr(want, f))

    def test_defect_eom_of_a_stack(self):
        rng = np.random.default_rng(5)
        states, stack = state_stack(6, rng, DRAWS)
        defects = [ld.random_defect(int(rng.integers(2, 6)), rng) for _ in range(DRAWS)]
        bulk, *moves = ld.defect_eom(stack, ld.DefectSite.stack(defects))
        for k, (s, d) in enumerate(zip(states, defects)):
            one, *one_moves = ld.defect_eom(s, d)
            for f in lat.FIELD_NAMES:
                assert np.array_equal(getattr(bulk, f)[k], getattr(one, f))
            assert [m[k] for m in moves] == one_moves

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_charges_of_a_stack(self, n):
        # the closed forms of a stack of draws, each with its own site and
        # rapidity, at every site of the chain: each row is its draw's own
        rng = np.random.default_rng(n)
        states, stack = state_stack(n, rng, DRAWS)
        defects = [ld.random_defect(int(rng.integers(1, n + 1)), rng) for _ in range(DRAWS)]
        assert {d.n for d in defects} == set(range(1, n + 1))
        c0, c2 = ld.defect_charges(stack, ld.DefectSite.stack(defects))
        for k, (s, d) in enumerate(zip(states, defects)):
            for got, want in zip((c0[k], c2[k]), ld.defect_charges(s, d)):
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_stacked_defects_are_validated(self):
        s = lat.random_state(5, np.random.default_rng(1))
        stack = lat.LatticeState.stack([s, s])
        with pytest.raises(ValueError, match="interior"):
            ld.defect_eom(stack, ld.DefectSite(np.array([2, 5]), 0.1, 0.1, 0.1, 1.0))
        with pytest.raises(ValueError, match="positive"):
            ld.DefectSite(np.array([2, 0]), 0.1, 0.1, 0.1, 1.0)
        with pytest.raises(lat.SingularStateError):
            ld.DefectSite(np.array([2, 3]), 0.1, 0.1, 0.1, np.array([1.0, 0.0]))

    def test_functions_indexing_by_n_take_one_site(self):
        # the monodromy and the march index by n: a stack of draws with one
        # n each must raise there, not write the defect matrix into every
        # listed slot
        rng = np.random.default_rng(2)
        _, stack = state_stack(4, rng, 4)
        defects = ld.DefectSite.stack([ld.random_defect(n, rng) for n in (2, 3, 2, 3)])
        one = lat.random_state(4, rng)
        calls = [lambda: ld.defect_monodromy_value(stack, defects, 1.5),
                 lambda: ld.defect_monodromy(one, defects),
                 lambda: ld.integrate_with_defect(one, defects, 0.01, 0.02)]
        for call in calls:
            with pytest.raises(ValueError, match="one index"):
                call()


class TestStack:
    def test_stack_keeps_the_order_and_fields(self):
        rng = np.random.default_rng(3)
        states = [lat.random_state(3, rng) for _ in range(4)]
        defects = [ld.random_defect(int(n), rng) for n in (2, 3, 2, 4)]
        stack, dstack = lat.LatticeState.stack(states), ld.DefectSite.stack(defects)
        assert stack.a.shape == (4, 3) and dstack.n.tolist() == [2, 3, 2, 4]
        for k, (s, d) in enumerate(zip(states, defects)):
            for f in lat.FIELD_NAMES:
                assert np.array_equal(getattr(stack, f)[k], getattr(s, f))
            for f in ("n", "theta", "z", "z_bar", "X"):
                assert getattr(dstack, f)[k] == getattr(d, f)


def log_term_scales(trace, depth):
    """The largest modulus of a term of log(1 + x) = -sum_k (-x)^k / k at each
    order u^-m of the log-trace expansion, m = 0..depth, from one chain's
    trace: the size that rounding in the expansion is relative to."""
    _, _, x = _leading(trace, depth)
    return np.max([np.abs(power) / k for k, power in enumerate(_powers(-x), start=1)], axis=0)


class TestTraces:
    @pytest.mark.parametrize("n", [2, 3, 6, 12, 24])
    def test_stack_gives_each_draws_charges(self, n):
        # bulk and with a defect at every site, 1 and N included, each draw
        # with its own rapidity: c0..c4 of each draw against its own trace,
        # relative to the larger of 1, the charge and the largest term of
        # the log series at its order.  The stack's numpy products round
        # differently from a chain's Python complex ones, and at N = 24 c4
        # sums terms typically 20 and up to 140 times itself
        rng = np.random.default_rng(n)
        draws = max(DRAWS, n)
        states, stack = state_stack(n, rng, draws)
        defects = [ld.random_defect(k % n + 1, rng) for k in range(draws)]
        assert len({d.theta for d in defects}) == draws
        dstack = ld.DefectSite.stack(defects)
        lead, cs = lat.charges_from_trace(stack)
        dlead, dcs = ld.defect_charges_from_trace(stack, dstack)
        assert lead == dlead == n
        for got, alone, trace in (
                (cs, lambda k: lat.charges_from_trace(states[k]),
                 lambda k: lat.monodromy(states[k]).trace),
                (dcs, lambda k: ld.defect_charges_from_trace(states[k], defects[k]),
                 lambda k: ld.defect_monodromy(states[k], defects[k]).trace)):
            assert len(got) == 5 and all(c.shape == (draws,) for c in got)
            for k in range(draws):
                one_lead, want = alone(k)
                scale = np.fmax(np.fmax(1.0, np.abs(want)), log_term_scales(trace(k), 4))
                assert one_lead == n
                assert np.all(np.abs([c[k] for c in got] - np.array(want)) <= 1e-13 * scale)

    def test_one_chain_keeps_python_complex_arithmetic(self):
        # a single chain's product and charges stay on Python complex numbers,
        # the path whose results do not move; a stack carries arrays
        rng = np.random.default_rng(8)
        s, d = lat.random_state(5, rng), ld.random_defect(3, rng)
        for t in (lat.monodromy(s), ld.defect_monodromy(s, d)):
            coeffs = [c for row in t.entries for entry in row for c in entry.coeffs.values()]
            assert coeffs and all(type(c) is complex for c in coeffs)
        for _, cs in (lat.charges_from_trace(s), ld.defect_charges_from_trace(s, d)):
            assert all(type(c) is complex for c in cs)
        _, stack = state_stack(5, rng, 3)
        t = lat.monodromy(stack)
        assert all(c.shape == (3,) for c in t[0, 0].coeffs.values())

    def test_defect_at_one_site_of_a_stack(self):
        # one n and theta for every draw of a stack, the trajectory layout
        rng = np.random.default_rng(9)
        states, stack = state_stack(4, rng, 6)
        d = ld.random_defect(2, rng)
        _, cs = ld.defect_charges_from_trace(stack, d)
        for k, s in enumerate(states):
            _, want = ld.defect_charges_from_trace(s, d)
            assert np.allclose([c[k] for c in cs], want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("scale", [1e80, 1e-80])
    def test_out_of_range_draw_is_named(self, scale):
        # inf, or a leading power lost to underflow, in one draw of a stack
        rng = np.random.default_rng(10)
        states = [lat.random_state(6, rng) for _ in range(4)]
        states[2] = states[2].replace(v=states[2].v * scale)
        with pytest.raises(OverflowError, match="in draw 2$"):
            lat.charges_from_trace(lat.LatticeState.stack(states))
