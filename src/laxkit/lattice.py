"""Bulk deformed-oscillator lattice.

Periodic chain of sites carrying complex fields (a_j, abar_j, v_j) with the
2x2 site matrix

    L_j(u) = [[u v_j - u^-1 v_j^-1, abar_j], [a_j, -u^-1 v_j]],    u = e^lambda.

The trace of the ordered product T = L_N ... L_1 generates the conserved
charges through log tr T = N log u + c0 + c1 u^-1 + c2 u^-2 + ..., with

    c0 = sum_j log v_j,    c1 = 0,    c2 = sum_j bbar_{j+1} b_j - sum_j v_j^-2,

where b_j = a_j / v_j and bbar_j = abar_j / v_j.  The module also carries the
site Poisson structure, the time half of the Lax pair, the induced equations
of motion, and a fixed-step integrator with conservation monitoring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .laurent import (
    LaurentMatrix,
    LaurentSeries,
    _require_in_range,
    _tconv,
    log_expand,
    matrix_product_chain,
    series_inverse,
)
from .rmatrix import _matrices, _mul2x2, _residual, bracket_lhs, quadratic_rhs
from .stepping import bound_guard, count_steps, march, read_only

__all__ = [
    "LatticeState",
    "SingularStateError",
    "build_lax",
    "lax_value",
    "monodromy",
    "monodromy_value",
    "charges_closed_form",
    "charges_from_trace",
    "BRACKET_TABLE",
    "check_quadratic_algebra",
    "bulk_eom",
    "bracket_flow",
    "FLOW_SIGN",
    "time_lax_order0",
    "time_lax_order2",
    "time_lax_from_rmatrix",
    "zero_curvature_residual",
    "integrate",
    "random_state",
]


class SingularStateError(ValueError):
    """A site field v_j (or a defect field X) vanished; v^-1 is undefined."""


@dataclass(frozen=True)
class LatticeState:
    """Immutable snapshot of the periodic chain (site count N >= 1).

    A single site is accepted so the monodromy reduces to its one factor;
    the closed-form charges raise ValueError below N = 2 (N = 3 with a
    defect).  Fields of shape (T, N) make a stack of T snapshots along a
    leading axis, the times of a trajectory or the draws of an identity
    check: :func:`monodromy_value`, :func:`charges_closed_form`,
    :func:`bulk_eom`, :func:`bracket_flow` and the site-by-site identity
    checks broadcast over it, and the Laurent functions (:func:`build_lax`,
    :func:`monodromy`, :func:`charges_from_trace`) carry one coefficient
    per snapshot, an array over the stack.  :func:`time_lax_from_rmatrix`
    takes single snapshots.
    """

    a: np.ndarray
    a_bar: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_bar", "v"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        if not (self.a.shape == self.a_bar.shape == self.v.shape) or self.a.ndim not in (1, 2):
            raise ValueError("field arrays must be of equal shape (N,) or (T, N)")
        if self.N < 1:
            raise ValueError("need at least one site")
        if np.equal(self.v, 0).any():
            raise SingularStateError("all v_j must be nonzero")

    @property
    def N(self) -> int:
        return self.a.shape[-1]

    @property
    def b(self) -> np.ndarray:
        return self.a / self.v

    @property
    def b_bar(self) -> np.ndarray:
        return self.a_bar / self.v

    def site(self, j: int) -> tuple[complex, complex, complex]:
        """Fields at 1-based periodic site index j; along a stack, arrays over
        its leading axis, with j one site or one per state."""
        i = (j - 1) % self.N
        if self.a.ndim == 1:  # Python complex: the Laurent arithmetic runs on it
            return complex(self.a[i]), complex(self.a_bar[i]), complex(self.v[i])
        return _at(self.a, i), _at(self.a_bar, i), _at(self.v, i)

    @classmethod
    def stack(cls, states) -> "LatticeState":
        """Single states of one chain length as one stack, in their order."""
        return cls(*(np.stack([getattr(s, name) for s in states]) for name in FIELD_NAMES))

    def replace(self, a=None, a_bar=None, v=None) -> "LatticeState":
        return LatticeState(
            self.a if a is None else a,
            self.a_bar if a_bar is None else a_bar,
            self.v if v is None else v,
        )


def _at(x: np.ndarray, i):
    """x at 0-based site i, the sites on the last axis: a numpy scalar for one
    state, an array over a stack, with i one site or one per state."""
    return x.T[i] if isinstance(i, (int, np.integer)) else x[np.arange(len(x)), i]


def random_state(n: int, rng: np.random.Generator, amplitude: float = 1.0) -> LatticeState:
    """Generic sample: |a|, |abar| <= amplitude and v = exp(w) with |w| <= 0.5.

    Keeps v away from zero while exercising fully complex configurations.
    Long time integrations want amplitude well below 1; the complex flow is
    not globally bounded.
    """

    # one draw of 6n uniforms: radius then angle for a, abar and w, each n
    # long, the order of one disk at a time; uniform(0, 2 pi) is 2 pi u
    u = rng.random((3, 2, n))
    th = (2 * np.pi) * u[:, 1]
    fields = np.sqrt(u[:, 0]) * np.array([[amplitude], [amplitude], [0.5]]) * np.exp(1j * th)
    fields[2] = np.exp(fields[2])
    fields.setflags(write=False)  # kept by LatticeState without a copy
    return LatticeState(*fields)


# -- Lax matrix and monodromy ------------------------------------------------


def build_lax(s: LatticeState, j: int) -> LaurentMatrix:
    """Site matrix L_j as an exact Laurent matrix; for a stack of states,
    each coefficient an array over the stack.  v_j != 0 holds, since
    :class:`LatticeState` rejects a zero v."""
    a, abar, v = s.site(j)
    return LaurentMatrix.from_rows(
        [
            [LaurentSeries({1: v, -1: -1.0 / v}), LaurentSeries({0: abar})],
            [LaurentSeries({0: a}), LaurentSeries({-1: -v})],
        ]
    )


def lax_value(s: LatticeState, j: int, u: complex) -> np.ndarray:
    """L_j evaluated numerically at the spectral point u; along a stack of
    states, with j and u shared or one per state, shape (T, 2, 2)."""
    return _lax_values(*s.site(j), u)


def _lax_values(a, abar, v, u) -> np.ndarray:
    """Site matrices [[u v - 1/(u v), abar], [a, -v/u]], broadcast over the
    fields and the spectral points: shape + (2, 2)."""
    return _matrices(u * v - 1.0 / (u * v), abar, a, -v / u)


# the unit matrices of the lower-left and upper-right slots: the partials of
# a site or defect matrix with respect to its off-diagonal fields
_UNIT_LOWER = read_only(np.array([[0, 0], [1, 0]], dtype=complex))
_UNIT_UPPER = read_only(np.array([[0, 1], [0, 0]], dtype=complex))


def _lax_partials(v, u) -> dict[str, np.ndarray]:
    """Derivatives of a site matrix with respect to its three fields, from
    its v and the spectral point u (both broadcast over a stack)."""
    return {"a": _UNIT_LOWER, "a_bar": _UNIT_UPPER,
            "v": _matrices(u + 1.0 / (u * v * v), 0.0, 0.0, -1.0 / u)}


# the numpy error state of a Laurent product: a stack's array arithmetic
# overflows to inf and nan silently, as one chain's Python complex arithmetic
# does, for _checked_trace and log_expand to report
_SILENT_OVERFLOW = dict(over="ignore", invalid="ignore")


def monodromy(s: LatticeState) -> LaurentMatrix:
    """Ordered product T = L_N L_{N-1} ... L_1 (highest site leftmost); for a
    stack of states, each coefficient an array over the stack."""
    with np.errstate(**_SILENT_OVERFLOW):
        return matrix_product_chain([build_lax(s, j) for j in range(s.N, 0, -1)])


def monodromy_value(s: LatticeState, u) -> np.ndarray:
    """T = L_N ... L_1 at the spectral point u, shape (2, 2).  An array of P
    points gives shape u.shape + (2, 2), from one (N, P, 2, 2) stack of site
    matrices and one entrywise 2x2 product per site; a stack of T states
    puts its time axis first, (T,) + u.shape + (2, 2)."""
    w = np.asarray(u, dtype=complex).ravel()
    return _stack_product(_site_stack(s, w), s.a.shape[:-1] + np.shape(u))


def _site_stack(s: LatticeState, w: np.ndarray) -> np.ndarray:
    """Site matrices at the P points w, site-major: (N, P, 2, 2) for one
    state, (N, T, P, 2, 2) for a stack of T."""
    return _lax_values(s.a.T[..., None], s.a_bar.T[..., None], s.v.T[..., None], w)


def _stack_product(stack: np.ndarray, shape: tuple) -> np.ndarray:
    """L_N ... L_1 of a site-major stack (N, ..., 2, 2), as shape + (2, 2)."""
    out = stack[-1]
    for j in range(stack.shape[0] - 2, -1, -1):
        out = _mul2x2(out, stack[j])
    return out.reshape(shape + (2, 2))


# -- charges -----------------------------------------------------------------


def charges_closed_form(s: LatticeState) -> tuple[complex, complex, complex]:
    """(order-0, order-1, order-2) charges in closed form; a stack of states
    gives three arrays over its time axis.

    order-0 uses the principal branch of log v_j; comparisons should go
    through exp to stay branch-insensitive.  order-1 vanishes identically
    and is 0j for a stack too.  Raises ValueError for N < 2.
    """
    _require_charges(s.N)
    b, bbar = s.b, s.b_bar
    c0 = np.sum(np.log(s.v), axis=-1)
    c2 = (np.sum(np.concatenate((bbar[..., 1:], bbar[..., :1]), axis=-1) * b, axis=-1)
          - np.sum(s.v**-2, axis=-1))
    return _value(c0), 0.0j, _value(c2)


def _require_charges(n: int):
    if n < 2:
        raise ValueError(f"the closed-form charges need N >= 2 sites, got N = {n}")


def _value(x):
    """A complex number for a single state (a numpy scalar), the array over
    the time axis of a stack."""
    return complex(x) if isinstance(x, np.generic) else x


def charges_from_trace(s: LatticeState, depth: int = 4) -> tuple[int, list[complex]]:
    """Charges read off the log-trace expansion of the monodromy.

    Returns (leading exponent, [c0, ..., c_depth]); the leading exponent is
    the site count and exp(c0) equals the product of the v_j.  A stack of
    states gives each c_m as an array over the stack, from one product of
    array coefficients.  Raises OverflowError when that product or the
    coefficients read leave double range, in any state of a stack.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    return log_expand(_checked_trace(monodromy(s), s.N), depth)


def _checked_trace(t: LaurentMatrix, n: int) -> LaurentSeries:
    """tr t of an n-site monodromy, which must lead with u^n times a product
    of site fields, in each draw of a stack."""
    tr = t.trace
    message = f"tr T does not lead with u^{n}: site fields out of double range"
    if tr.is_zero() or tr.degree != n:
        raise OverflowError(message)
    _require_in_range(tr.coeffs[n] != 0, message)
    return tr


# -- Poisson structure ---------------------------------------------------------

# Same-site elementary brackets; all same-species and cross-site brackets
# vanish (the algebra is ultralocal).  Values are callables of the site
# fields (a, abar, v).
_TABLE_RULES = {
    ("a", "v"): lambda a, abar, v: a * v,
    ("v", "a"): lambda a, abar, v: -a * v,
    ("a_bar", "v"): lambda a, abar, v: -abar * v,
    ("v", "a_bar"): lambda a, abar, v: abar * v,
    ("a", "a_bar"): lambda a, abar, v: -2.0 * v * v,
    ("a_bar", "a"): lambda a, abar, v: 2.0 * v * v,
}

FIELD_NAMES = ("a", "a_bar", "v")


def BRACKET_TABLE(s: LatticeState, j: int) -> dict[tuple[str, str], complex]:
    """Numeric same-site bracket table at site j; along a stack of states,
    each value an array over it."""
    a, abar, v = s.site(j)
    return {pair: rule(a, abar, v) for pair, rule in _TABLE_RULES.items()}


def check_quadratic_algebra(s: LatticeState, lam: complex, mu: complex, j: int) -> float:
    """Max-entry residual of the quadratic exchange relation at one site.

    Left side: entrywise brackets of L_j(lambda) with L_j(mu), expanded
    bilinearly through the elementary table.  Right side: the r-matrix
    commutator with the tensor product.  Both are 4x4 complex matrices.
    A stack of T states, with lam, mu and j each shared or one per state,
    gives the T residuals as an array.
    """
    a, abar, v = s.site(j)
    ul, um = np.exp(lam), np.exp(mu)
    lhs = bracket_lhs(_lax_partials(v, ul), _lax_partials(v, um), BRACKET_TABLE(s, j))
    rhs = quadratic_rhs(lam - mu, _lax_values(a, abar, v, ul), _lax_values(a, abar, v, um))
    return _residual(lhs, rhs)


# -- equations of motion -------------------------------------------------------


@dataclass(frozen=True)
class LatticeDerivative:
    a: np.ndarray
    a_bar: np.ndarray
    v: np.ndarray

    def site(self, j: int) -> tuple[complex, complex, complex]:
        """Velocities at 1-based periodic site index j; along a stack, arrays
        over its leading axis, with j one site or one per state."""
        i = (j - 1) % self.a.shape[-1]
        return _at(self.a, i), _at(self.a_bar, i), _at(self.v, i)

    def max_abs(self) -> float:
        return float(
            max(np.max(np.abs(self.a)), np.max(np.abs(self.a_bar)), np.max(np.abs(self.v)))
        )


class _ChainField:
    """The bulk flow of ``copies`` n-site chains side by side on one flat
    state, each copy (a, abar, v) followed by ``tail`` slots of its own, with
    the gather indices built once: ``field(t, y)`` is the flat velocity, each
    copy (da, dabar, dv), the rhs of a march (two copies for the runs at dt
    and 2 dt marched as one state).  Inside, the copies' fields are stacked field by field,
    as one chain of copies * n sites whose neighbours wrap within each copy,
    so every copy costs the same numpy calls as one.  Raw arrays,
    unvalidated: the RK stages of a march are never wrapped in a
    LatticeState."""

    def __init__(self, n: int, copies: int = 1, tail: int = 0):
        cn = copies * n
        k, i = np.divmod(np.arange(cn), n)
        base = k * n
        site = base + i  # b_j of each copy in q, bbar_j at cn + site
        at = k * (3 * n + tail) + i  # a_j of each copy in y
        bm, bbp = base + (i - 1) % n, cn + base + (i + 1) % n
        self.n, self.copies, self._cn = n, copies, cn
        # (a, abar) and (v, v) of every copy, the numerator and denominator
        # of the hopping fields q = (b, bbar)
        self._ab = np.concatenate((at, at + n))
        self._vv = np.concatenate((at, at)) + 2 * n
        # from (q, 2q, y): the left, then the right factors of
        # (2 b_{j-1}, 2 bbar_{j+1}) (v, v), of (bbar_{j+1} b_j, twice) and
        # (bbar_j b_{j-1}, twice), of bbar_{j+1} a_j and of abar_j b_{j-1}
        q2, y = 2 * cn, 4 * cn
        self._gather = np.concatenate((q2 + bm, q2 + bbp, bbp, bbp, cn + site, cn + site, bbp,
                                       y + at + n, y + at + 2 * n, y + at + 2 * n, site, site,
                                       bm, bm, y + at, bm))
        for index in (self._ab, self._vv, self._gather):
            index.setflags(write=False)
        # from (da, dabar, dv) field by field over the copies, then the
        # copies' tails, to one copy after the other
        self._order = None
        if copies > 1:
            f, j = np.divmod(np.arange(3 * n), n)
            self._order = np.concatenate([
                np.concatenate((f * cn + c * n + j, 3 * cn + c * tail + np.arange(tail)))
                for c in range(copies)])
            self._order.setflags(write=False)

    def hopping(self, y):
        """(a, abar), (v, v) and the hopping fields q = (b, bbar) = (a, abar) / v
        of y, each field by field over the copies."""
        ab = y[:2 * self.n] if self.copies == 1 else y.take(self._ab)  # one copy's lead y
        vv = y.take(self._vv)
        return ab, vv, ab / vv

    def velocities(self, y, ab, vv, q, tail=()):
        """Flat (da, dabar, dv, *tail) of each copy of y with the hopping
        fields q passed in, ``tail`` the copies' tails one after the other:
        site j reads b_{j-1}, b_j, bbar_j and bbar_{j+1}.

        One gather and one multiply form every product of two fields, and
        one broadcast multiply both hopping products times (a, abar).  The
        a and abar rows are one expression over 2 copies * n sites; the abar
        row comes out as the exact negative of dabar (up to the sign of an
        exact zero) and is negated once.  Every product keeps its operand
        order, so the result matches the per-component formulas, and one
        copy the same chain alone, bit for bit."""
        cn = self._cn
        two = 2 * cn
        q2 = 2.0 * q
        g = np.concatenate((q, q2, y)).take(self._gather)
        prod = g[:4 * two] * g[4 * two:]   # (2p vv, bbp b, bbp b, bbar bm, bbar bm, bbp a, abar bm)
        hop = prod[two:3 * two].reshape(2, two) * ab
        row = prod[:two] - q2 / vv + hop[0] + hop[1]
        out = np.concatenate((row[:cn], -row[cn:], prod[3 * two:7 * cn] - prod[7 * cn:], tail))
        return out if self._order is None else out.take(self._order)

    def __call__(self, t, y):
        return self.velocities(y, *self.hopping(y))


@functools.lru_cache(maxsize=32)
def _chain_field(n: int, copies: int = 1, tail: int = 0) -> _ChainField:
    """The :class:`_ChainField` of ``copies`` n-site chains with ``tail``
    slots each, shared by every caller: its index arrays are read-only."""
    return _ChainField(n, copies, tail)


def bulk_eom(s: LatticeState) -> LatticeDerivative:
    """Time derivatives of (a, abar, v) generated by the order-2 charge flow;
    a stack of T states gives fields of shape (T, N), from one call of the
    T-copy chain field, each state bit for bit its own call."""
    copies = len(s.a) if s.a.ndim == 2 else 1
    y = np.concatenate((s.a, s.a_bar, s.v), axis=-1).ravel()
    out = _chain_field(s.N, copies)(0.0, y).reshape(s.a.shape[:-1] + (3, s.N))
    return LatticeDerivative(*np.moveaxis(out, -2, 0))


def charge2_gradient(s: LatticeState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic partials of the order-2 charge with respect to each field (of
    each state of a stack)."""
    a, abar, v = s.a, s.a_bar, s.v
    ap, vp = (np.concatenate((x[..., -1:], x[..., :-1]), axis=-1) for x in (a, v))  # site j-1
    abarn, vn = (np.concatenate((x[..., 1:], x[..., :1]), axis=-1) for x in (abar, v))  # j+1
    d_a = abarn / (vn * v)
    d_abar = ap / (v * vp)
    d_v = -abarn * a / (vn * v**2) - abar * ap / (v**2 * vp) + 2.0 / v**3
    return d_a, d_abar, d_v


# Orientation of the order-2 charge flow, df/dt = FLOW_SIGN * {f, charge}:
# the bracket convention leaves the sign open, and -1 is the one for which
# bracket_flow reproduces bulk_eom (the tests check that it still does).
FLOW_SIGN = -1


def bracket_flow(s: LatticeState) -> LatticeDerivative:
    """Hamiltonian flow of the order-2 charge through the bracket table,
    {f_j, I} = sum over the site's fields g of dI/dg_j {f_j, g_j} in
    :data:`FIELD_NAMES` order, oriented by :data:`FLOW_SIGN` so it
    reproduces :func:`bulk_eom`."""
    grad = dict(zip(FIELD_NAMES, charge2_gradient(s)))
    fields = (s.a, s.a_bar, s.v)

    def flow(f):
        terms = [grad[g] * rule(*fields) for g in FIELD_NAMES
                 if (rule := _TABLE_RULES.get((f, g))) is not None]
        return FLOW_SIGN * functools.reduce(np.add, terms)

    return LatticeDerivative(*map(flow, FIELD_NAMES))


# -- time half of the Lax pair -------------------------------------------------


def time_lax_order0() -> np.ndarray:
    """Order-0 coefficient of the time Lax matrix: diag(1, 0), field-free."""
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def time_lax_order2(s: LatticeState, j: int, mu: complex) -> np.ndarray:
    """Order-2 time-Lax matrix at site j and time-spectral point mu.

    [[2 e^{2 mu} - bbar_j b_{j-1}, 2 e^mu bbar_j],
     [2 e^mu b_{j-1},              bbar_j b_{j-1}]]

    Along a stack of states, with j and mu shared or one per state, the
    matrices have shape (T, 2, 2).
    """
    i = (j - 1) % s.N
    return _time_lax_matrix(np.exp(mu), _at(s.b_bar, i), _at(s.b, (i - 1) % s.N))


def _time_lax_matrix(w: complex, bbar: complex, b: complex) -> np.ndarray:
    """Order-2 time-Lax matrix [[2 w^2 - bbar b, 2 w bbar], [2 w b, bbar b]],
    w = e^mu, from the one bbar and the one b it couples; arrays of equal
    shape S give shape S + (2, 2)."""
    # built transposed: .T turns it back and puts a stack's axis first
    return np.array(
        [[2.0 * w * w - bbar * b, 2.0 * w * b], [2.0 * w * bbar, bbar * b]], dtype=complex
    ).T


def time_lax_from_rmatrix(
    s: LatticeState, j: int, mu: complex, depth: int = 2
) -> list[np.ndarray]:
    """Time-Lax coefficient matrices from the r-matrix trace formula.

    Evaluates t(lambda)^-1 tr_a{T_a(N, j) r_ab(lambda - mu) T_a(j-1, 1)} as a
    Laurent series in u = e^lambda.  Tracing out the first space reduces the
    formula to the cyclically shifted monodromy T_j = L_{j-1}..L_1 L_N..L_j:

        diagonal entries:      coth(lambda - mu) * (T_j)_kk / t(lambda)
        off-diagonal entries:  (T_j)_{12 or 21} / (sinh(lambda - mu) t(lambda))

    Returns the coefficient matrices of u^0 .. u^-depth.  The formula needs
    no normalization constant: its order-2 matrix is
    :func:`time_lax_order2` itself (the tests check the ratio is 1).
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    n = s.N
    j = (j - 1) % n + 1  # periodic, like LatticeState.site
    factors = [build_lax(s, k) for k in range(j - 1, 0, -1)]
    factors += [build_lax(s, k) for k in range(n, j - 1, -1)]
    tj = matrix_product_chain(factors)
    # each series is dense from its top exponent down: t^-1 from u^-n, the
    # entries of T_j (degree <= n) from u^n, coth and 1/sinh from u^0, so
    # depth + 1 coefficients of each factor fix those of every product
    _, t_inv = series_inverse(_checked_trace(tj, n), depth)
    m = np.arange(depth + 1)
    w_pow = 2.0 * np.exp(mu) ** m
    coth = np.where(m % 2 == 0, w_pow, 0.0)  # 1 + 2 sum_k w^2k u^-2k,  w = e^mu
    coth[0] = 1.0
    csch = np.where(m % 2 == 1, w_pow, 0.0)  # 2 sum_k w^(2k+1) u^-(2k+1)
    ratios = np.array(
        [[_tconv(_tconv(tj[i, k].dense(n, depth + 1), t_inv), coth if i == k else csch)
          for k in range(2)] for i in range(2)]
    )
    return list(np.moveaxis(ratios, -1, 0))


def _rate(partials: dict[str, np.ndarray], velocities) -> np.ndarray:
    """d/dt of a site matrix at fixed u: its field partials contracted with
    the field velocities, given in the order of the partials (each velocity
    a scalar or an array over a stack)."""
    return sum(dm * np.asarray(vel)[..., None, None]
               for dm, vel in zip(partials.values(), velocities))


def zero_curvature_residual(s: LatticeState, j: int, mu: complex) -> float:
    """Max-entry residual of dL_j/dt = A_{j+1} L_j - L_j A_j at u = e^mu.

    A stack of T states, with j and mu each shared or one per state, gives
    the T residuals as an array; the velocities come from one
    :func:`bulk_eom` call on the stack.
    """
    u = np.exp(mu)
    a, abar, v = s.site(j)
    ldot = _rate(_lax_partials(v, u), bulk_eom(s).site(j))
    aj = time_lax_order2(s, j, mu)
    ajp = time_lax_order2(s, j + 1, mu)
    lj = _lax_values(a, abar, v, u)
    return _residual(ldot, ajp @ lj - lj @ aj)


# -- time integration ----------------------------------------------------------


@dataclass
class LatticeTrajectory:
    """The recorded states of a march as one stack of shape (T, N), and the
    monitors computed from it: the charges and tr T at each probe point,
    each an array over the T recorded times.  ``coarse`` is the run of the
    same start at twice the step, when the integrator was asked for it."""

    times: np.ndarray
    stack: LatticeState
    charges0: np.ndarray
    charges2: np.ndarray
    traces: dict[float, np.ndarray]
    coarse: "LatticeTrajectory | None" = field(default=None, kw_only=True)

    @property
    def states(self) -> list[LatticeState]:
        """The recorded states one by one, built from :attr:`stack` on each read."""
        st = self.stack
        return [LatticeState(*row) for row in zip(st.a, st.a_bar, st.v)]

    def drift(self, which: str = "2") -> float:
        """The largest move of the order-``which`` charge, "0" or "2", from
        its first value."""
        if which not in ("0", "2"):
            raise ValueError(f"which must be '0' or '2' (the charge order); got {which!r}")
        series = self.charges2 if which == "2" else self.charges0
        return float(np.max(np.abs(series - series[0])))

    def trace_drift(self, u: float) -> float:
        tr = self.traces[u]
        return float(np.max(np.abs(tr - tr[0])))


V_FLOOR = 1e-8
FIELD_CEILING = 1e8
# the chain integrators' guard: no field above FIELD_CEILING, no v_j (or
# defect X) below V_FLOOR in modulus
CHAIN_BOUNDS = dict(ceiling=FIELD_CEILING, above="field above the ceiling",
                    floor=V_FLOOR, floored=("v", "X"))


def _probe_traces(monodromies: np.ndarray, probes) -> dict[float, np.ndarray]:
    """{u: tr T(u) over time} from monodromies of shape (T, len(probes), 2, 2)."""
    return dict(zip(probes, np.trace(monodromies, axis1=-2, axis2=-1).T))


def integrate(
    s: LatticeState,
    dt: float,
    t_end: float,
    probes: tuple[float, ...] = (2.0, 3.0),
    *,
    with_coarse: bool = False,
) -> LatticeTrajectory:
    """Classic fourth-order fixed-step integration of the bulk flow.

    Keeps the state at every step.  The monitors, the order-0/order-2
    charges and tr T at the probe spectral points, are computed after the
    march, each in one call over the stack of kept states.  The complex
    flow has no global bound: when any field stops being finite or exceeds
    FIELD_CEILING, or any |v_j| falls below V_FLOOR, at an RK stage or an
    accepted step, the march raises :class:`~laxkit.stepping.Aborted`
    carrying the partial trajectory, monitors included.  t_end must be a
    whole multiple of dt, N >= 2 as for :func:`charges_closed_form`, and no
    probe u = 0, the pole of the site matrix, or ValueError is raised.

    ``with_coarse=True`` also runs the step 2 dt, in one
    :func:`~laxkit.stepping.march` with the run at dt, and returns it as
    ``.coarse`` of the trajectory: both equal bit for bit the results of
    the calls at dt and at 2 dt, and the march raises what those two calls
    in sequence would, the abort of the run at dt first.  t_end must then be
    a whole multiple of 2 dt.
    """
    _require_charges(s.N)
    if 0 in probes:
        raise ValueError("a probe u = 0 is the pole of the site matrix (its u^-1 terms)")

    def finish(times, ys):
        stack = LatticeState(*ys.reshape(len(times), 3, s.N).swapaxes(0, 1))
        c0, _, c2 = charges_closed_form(stack)
        return LatticeTrajectory(times, stack, c0, c2,
                                 _probe_traces(monodromy_value(stack, probes), probes))

    fields = {3 * s.N: _chain_field(s.N), 6 * s.N: _chain_field(s.N, 2)}
    layout = tuple((name, s.N) for name in FIELD_NAMES)
    return _march(lambda t, y: fields[y.size](t, y), np.concatenate((s.a, s.a_bar, s.v)), dt,
                  t_end, bound_guard(layout, **CHAIN_BOUNDS), finish, with_coarse)


def _march(rhs, y0, dt, t_end, guard, finish, with_coarse):
    """The chain integrators' march at dt, with the run at 2 dt as
    ``.coarse`` when ``with_coarse`` is set, the two runs marched as one
    state while both go; ``rhs`` takes the state of one copy or of two."""
    steps = count_steps(dt, t_end)
    if not with_coarse:
        return march(rhs, y0, dt, steps, guard, finish)
    fine, coarse = march(rhs, y0, (dt, 2 * dt), (steps, count_steps(2 * dt, t_end)), guard,
                         finish)
    fine.coarse = coarse
    return fine
