import numpy as np
import pytest

from laxkit.laurent import (
    LaurentMatrix,
    LaurentSeries,
    log_expand,
    matrix_product_chain,
    series_inverse,
)
from reference_oracles import log_reconstruct, series_exp


def brute_force_mul(a: dict, b: dict) -> dict:
    """Independent double-loop convolution oracle."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0.0) + ca * cb
    return {e: c for e, c in out.items() if abs(c) > 1e-14}


def random_poly(rng, max_deg=4):
    exps = rng.integers(-max_deg, max_deg + 1, size=rng.integers(1, 6))
    return LaurentSeries({int(e): complex(rng.normal(), rng.normal()) for e in exps})


def assert_series_close(p, q, tol=1e-14):
    exps = set(p.coeffs) | set(q.coeffs)
    scale = max([abs(c) for c in list(p.coeffs.values()) + list(q.coeffs.values())] + [1.0])
    for e in exps:
        assert abs(p.coefficient(e) - q.coefficient(e)) <= tol * scale, f"mismatch at u^{e}"


class TestSeriesMul:
    def test_difference_of_squares(self):
        a = LaurentSeries({1: 1.0, -1: -1.0})
        b = LaurentSeries({1: 1.0, -1: 1.0})
        assert (a * b).coeffs == {2: 1.0, -2: -1.0}

    def test_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_poly(rng)
            assert_series_close(LaurentSeries.one() * p, p)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_poly(rng), random_poly(rng)
            expect = brute_force_mul(dict(a.coeffs), dict(b.coeffs))
            got = a * b
            assert_series_close(got, LaurentSeries(expect))

    def test_zero_is_absorbing(self):
        p = LaurentSeries({3: 2.0, -1: 1.0})
        assert (p * LaurentSeries.zero()).is_zero()

    def test_associativity_distributivity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert_series_close((a * b) * c, a * (b * c))
            assert_series_close(a * (b + c), a * b + a * c)


class TestMatrixChain:
    def test_single_matrix(self):
        m = LaurentMatrix.from_rows([[LaurentSeries({1: 1.0}), 2.0], [0.0, LaurentSeries({-1: 1.0})]])
        p = matrix_product_chain([m])
        for i in range(2):
            for j in range(2):
                assert_series_close(p[i, j], m[i, j])

    def test_two_random_vs_hand_product(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = [[random_poly(rng, 2) for _ in range(2)] for _ in range(2)]
            b = [[random_poly(rng, 2) for _ in range(2)] for _ in range(2)]
            am, bm = LaurentMatrix.from_rows(a), LaurentMatrix.from_rows(b)
            got = matrix_product_chain([am, bm])
            for i in range(2):
                for j in range(2):
                    hand = a[i][0] * b[0][j] + a[i][1] * b[1][j]
                    assert_series_close(got[i, j], hand)

    def test_diagonal_power(self):
        d = LaurentMatrix.from_rows(
            [[LaurentSeries({1: 1.0}), 0.0], [0.0, LaurentSeries({-1: -1.0})]]
        )
        for n in (1, 2, 5):
            p = matrix_product_chain([d] * n)
            assert p[0, 0].coeffs == {n: 1.0}
            assert p[1, 1].coeffs == {-n: (-1.0) ** n}
            assert p[0, 1].is_zero() and p[1, 0].is_zero()

    def test_associativity(self):
        rng = np.random.default_rng(5)
        ms = [
            LaurentMatrix.from_rows([[random_poly(rng, 2) for _ in range(2)] for _ in range(2)])
            for _ in range(3)
        ]
        left = (ms[0] @ ms[1]) @ ms[2]
        right = ms[0] @ (ms[1] @ ms[2])
        for i in range(2):
            for j in range(2):
                assert_series_close(left[i, j], right[i, j])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            matrix_product_chain([])


class TestLogExpand:
    def test_single_monomial(self):
        v = 1.7 - 0.3j
        n, cs = log_expand(LaurentSeries({1: v}), depth=4)
        assert n == 1
        assert abs(cs[0] - np.log(v)) < 1e-15
        assert all(abs(c) < 1e-15 for c in cs[1:])

    def test_squared_difference(self):
        # (u - u^-1)^2: log = 2 log u + 2 log(1 - u^-2) = 2 log u - 2u^-2 - u^-4 - ...
        p = LaurentSeries({1: 1.0, -1: -1.0})
        n, cs = log_expand(p * p, depth=4)
        assert n == 2
        assert abs(cs[0]) < 1e-15
        assert abs(cs[1]) < 1e-15
        assert abs(cs[2] + 2.0) < 1e-14
        assert abs(cs[3]) < 1e-15
        assert abs(cs[4] + 1.0) < 1e-14

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="empty generating functional"):
            log_expand(LaurentSeries.zero())

    def test_leading_term_dropped_exactly(self):
        # lead * (1/lead) != 1 in doubles for this lead: the remainder drops the
        # leading term instead of subtracting 1, so no rounding residue reaches c0
        lead = 3.0000000000000004
        n, cs = log_expand(LaurentSeries({2: lead, 1: 1e-3}), depth=2)
        assert n == 2 and cs[0] == complex(np.log(lead))

    def test_out_of_range_coefficients_raise(self):
        # the leading coefficient and the depth below it must be finite and
        # the leading one normal (1e-308 is subnormal, its reciprocal is not)
        for bad in ({3: np.inf, 2: 1.0}, {3: 1.0, 1: np.nan}, {3: 1e-308, 2: 1e-309}):
            with pytest.raises(OverflowError):
                log_expand(LaurentSeries(bad), depth=2)
            with pytest.raises(OverflowError):
                series_inverse(LaurentSeries(bad), depth=2)

    def test_lower_coefficients_not_read(self):
        p = LaurentSeries({3: 2.0, 2: 1.0, -5: np.inf})
        n, cs = log_expand(p, depth=2)
        assert n == 3 and np.all(np.isfinite(cs))
        assert np.all(np.isfinite(series_inverse(p, depth=2)[1]))

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = LaurentSeries(
                {3: 1.0 + 0.1 * complex(rng.normal(), rng.normal())}
            ) + LaurentSeries(
                {int(e): 0.3 * complex(rng.normal(), rng.normal()) for e in range(-2, 3)}
            )
            n, cs = log_expand(p, depth=5)
            top, dense = log_reconstruct(n, cs)
            assert top == n and len(dense) == 6
            rebuilt = LaurentSeries({top - m: c for m, c in enumerate(dense)})
            n2, cs2 = log_expand(rebuilt, depth=5)
            assert n2 == n
            for c, c2 in zip(cs, cs2):
                assert abs(c - c2) < 1e-12


class TestSeriesInverse:
    def test_monomial(self):
        top, q = series_inverse(LaurentSeries({1: 2.0}), depth=4)
        assert top == -1
        assert np.array_equal(q, [0.5, 0, 0, 0, 0])

    def test_geometric(self):
        # u(1 - u^-2) inverts to u^-1 (1 + u^-2 + u^-4) at depth 4
        p = LaurentSeries({1: 1.0, -1: -1.0})
        top, q = series_inverse(p, depth=4)
        assert top == -1
        assert np.max(np.abs(q - [1, 0, 1, 0, 1])) < 1e-14

    def test_self_consistency(self):
        # p times its truncated reciprocal is 1 down to u^-depth
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_poly(rng)
            top, q = series_inverse(p, depth=6)
            prod = p * LaurentSeries({top - m: c for m, c in enumerate(q)})
            one = np.eye(1, 7)[0]
            assert np.max(np.abs(prod.dense(0, 7) - one)) < 1e-13

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            series_inverse(LaurentSeries.zero())


def test_normal_form_drops_only_exact_zeros():
    # a coefficient 1e-17 times the largest may be the one that carries a
    # charge, so only an exact zero leaves the normal form
    p = LaurentSeries({5: 1.0, -3: 1e-17, 0: 0.0})
    assert p.coeffs == {5: 1.0, -3: 1e-17}
    assert (p - p).is_zero()


def test_series_exp_rejects_nonnegative_exponents():
    with pytest.raises(ValueError):
        series_exp(np.array([1.0, 0.5, 0.0, 0.0]))


def test_series_exp_matches_taylor():
    # exp(a u^-1) = sum_m a^m u^-m / m!, and exp(a u^-2) keeps the odd orders 0
    a = 0.7 - 0.2j
    got = series_exp(np.array([0, a, 0, 0, 0]))
    assert np.max(np.abs(got - [1, a, a**2 / 2, a**3 / 6, a**4 / 24])) < 1e-15
    got = series_exp(np.array([0, 0, a, 0, 0]))
    assert np.max(np.abs(got - [1, 0, a, 0, a**2 / 2])) < 1e-15


def test_reconstruct_matches_exact_polynomial():
    # log_expand then log_reconstruct gives back the top coefficients of p
    p = LaurentSeries({3: 1.5 - 0.5j, 2: 0.3, 0: -0.2j, -4: 0.9})
    n, cs = log_expand(p, depth=6)
    top, dense = log_reconstruct(n, cs)
    assert top == 3
    assert np.max(np.abs(dense - p.dense(3, 7))) < 1e-14


def test_algebra_surface():
    # constructors, scalar mixing, matrix sums, and inspection helpers
    m = LaurentSeries.monomial(2, 3.0)
    assert m.coeffs == {2: 3.0}
    assert (1.0 - m).coefficient(0) == 1.0
    assert "u^2" in repr(m)
    assert repr(LaurentSeries.zero()) == "LaurentSeries(0)"
    assert np.array_equal(m.dense(3, 3), [0, 3, 0])
    with pytest.raises(ValueError):
        LaurentSeries.zero().degree
    with pytest.raises(TypeError):
        m + "nope"

    eye = LaurentMatrix.identity()
    a = LaurentMatrix.from_rows([[m, 1.0], [0.0, m]])
    total = a + eye
    diff = total - eye
    assert total[0, 0].coefficient(0) == 1.0
    for i in range(2):
        for j in range(2):
            assert_series_close(diff[i, j], a[i, j])
    assert a[0, 0].coefficient(2) == 3.0 and a[0, 1].coefficient(2) == 0.0
    scaled = a.scale(2.0)
    assert scaled[0, 0].coefficient(2) == 6.0


def test_matrix_det_and_trace():
    rng = np.random.default_rng(8)
    m = LaurentMatrix.from_rows([[random_poly(rng, 2) for _ in range(2)] for _ in range(2)])
    u = 1.3 + 0.2j
    num = m.evaluate(u)
    assert abs(m.trace.evaluate(u) - np.trace(num)) < 1e-12
    assert abs(m.det.evaluate(u) - np.linalg.det(num)) < 1e-12


class TestDrawStacks:
    """Array coefficients, one per draw: every operation acts draw by draw."""

    def draws(self, seed, count=5):
        rng = np.random.default_rng(seed)
        return [random_poly(rng) + LaurentSeries({5: 1.0 + complex(rng.normal(), rng.normal())})
                for _ in range(count)]

    def stack(self, polys):
        exponents = set().union(*(p.coeffs for p in polys))
        return LaurentSeries({e: np.array([p.coefficient(e) for p in polys]) for e in exponents})

    def test_normal_form_drops_an_array_only_when_zero_in_every_draw(self):
        p = LaurentSeries({2: np.array([0.0, 1.0]), 1: np.zeros(2), 0: 0j, -1: 2})
        assert sorted(p.coeffs) == [-1, 2]
        assert p.coeffs[2].dtype == complex and type(p.coeffs[-1]) is complex
        assert p.degree == 2 and (p - p).is_zero()
        assert "u^2: [0.+0.j 1.+0.j]" in repr(p)

    def test_arithmetic_acts_draw_by_draw(self):
        left, right = self.draws(1), self.draws(2)
        a, b = self.stack(left), self.stack(right)
        mixed = LaurentSeries({1: 0.5j, -2: 3.0})
        for k, (p, q) in enumerate(zip(left, right)):
            for got, want in ((a * b, p * q), (a + b, p + q), (a - b, p - q),
                              (a * mixed, p * mixed), (mixed - a, mixed - p), (2.0 * a, 2.0 * p)):
                row = LaurentSeries({e: c if np.ndim(c) == 0 else c[k]
                                     for e, c in got.coeffs.items()})
                assert_series_close(row, want)

    def test_log_expand_and_inverse_act_draw_by_draw(self):
        polys = self.draws(3)
        stack = self.stack(polys)
        n, cs = log_expand(stack, depth=4)
        top, q = series_inverse(stack, depth=4)
        assert n == 5 and top == -5 and q.shape == (5, 5)
        for k, p in enumerate(polys):
            assert np.max(np.abs([c[k] for c in cs] - np.array(log_expand(p, 4)[1]))) < 1e-14
            assert np.max(np.abs(q[k] - series_inverse(p, 4)[1])) < 1e-14

    def test_out_of_range_draw_is_named(self):
        # the first draw whose leading or lower coefficients are not finite,
        # or whose leading one is subnormal
        for bad in ({5: np.array([1.0, np.inf, 1.0])}, {5: np.ones(3), 4: np.array([1, 1, np.nan])},
                    {5: np.array([1.0, 1.0, 1e-308])}):
            with pytest.raises(OverflowError, match=r"out of double range in draw [12]$"):
                log_expand(LaurentSeries(bad), depth=2)

    def test_where_picks_each_draw(self):
        a = LaurentMatrix.from_rows([[LaurentSeries({1: 2.0}), 1.0], [0.0, 3.0]])
        b = LaurentMatrix.from_rows([[LaurentSeries({-1: 5.0}), 0.0], [4.0, 3.0]])
        m = a.where(np.array([True, False]), b)
        for entry, exponent, want in ((m[0, 0], 1, [2, 0]), (m[0, 0], -1, [0, 5]),
                                      (m[0, 1], 0, [1, 0]), (m[1, 0], 0, [0, 4]),
                                      (m[1, 1], 0, [3, 3])):
            assert np.array_equal(entry.coeffs[exponent], want)
