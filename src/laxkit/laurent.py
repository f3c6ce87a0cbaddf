"""Exact Laurent-polynomial arithmetic in the spectral variable u.

Values are either exact Laurent polynomials (finitely many terms, no
truncation) or truncated Laurent series that are reliable down to a lowest
retained exponent.  Coefficients are double-precision complex numbers;
"exact" means the algebra introduces no truncation and the normal form
drops only exact zeros, however small a coefficient is next to the others.
:func:`log_expand` and :func:`series_inverse` read only the leading
coefficient and the ``depth`` below it, and raise ``OverflowError`` when one
of those is not finite or the leading one is subnormal.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "LaurentSeries", "LaurentMatrix", "matrix_product_chain",
    "log_expand", "log_reconstruct", "series_exp", "series_inverse",
]


def _normalize(coeffs: dict[int, complex], truncation_order: int | None) -> dict[int, complex]:
    lowest = -np.inf if truncation_order is None else truncation_order
    return {e: complex(c) for e, c in coeffs.items() if e >= lowest and c != 0}


@dataclass(frozen=True)
class LaurentSeries:
    """A Laurent polynomial or truncated Laurent series in u.

    ``coeffs`` maps integer exponents to complex coefficients and is kept in
    normal form (no stored zeros).  ``truncation_order`` is the lowest
    exponent whose coefficient is still reliable; ``None`` marks an exact
    polynomial.  Instances are immutable; all operations return new values.
    """

    coeffs: dict[int, complex] = field(default_factory=dict)
    truncation_order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(dict(self.coeffs), self.truncation_order))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries({})

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries({0: 1.0})

    @staticmethod
    def monomial(exponent: int, coefficient: complex = 1.0) -> "LaurentSeries":
        return LaurentSeries({exponent: coefficient})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Highest exponent; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def min_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def coefficient(self, exponent: int) -> complex:
        return self.coeffs.get(exponent, 0.0 + 0.0j)

    def evaluate(self, u: complex) -> complex:
        return sum(c * u**e for e, c in self.coeffs.items())

    # -- arithmetic --------------------------------------------------------

    def _add_trunc(self, other: "LaurentSeries") -> int | None:
        orders = [t for t in (self.truncation_order, other.truncation_order) if t is not None]
        return max(orders) if orders else None

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return LaurentSeries(out, self._add_trunc(other))

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({e: -c for e, c in self.coeffs.items()}, self.truncation_order)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentSeries(
                {e: c * other for e, c in self.coeffs.items()}, self.truncation_order
            )
        other = _coerce(other)
        trunc = _mul_trunc(self, other)
        out: dict[int, complex] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if trunc is not None and e < trunc:
                    continue
                out[e] = out.get(e, 0.0) + ca * cb
        return LaurentSeries(out, trunc)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiply by u**k."""
        t = None if self.truncation_order is None else self.truncation_order + k
        return LaurentSeries({e + k: c for e, c in self.coeffs.items()}, t)

    def truncated(self, order: int) -> "LaurentSeries":
        """Drop all exponents below ``order`` and record the truncation."""
        t = order if self.truncation_order is None else max(order, self.truncation_order)
        return LaurentSeries({e: c for e, c in self.coeffs.items() if e >= t}, t)

    def __repr__(self):
        if not self.coeffs:
            return "LaurentSeries(0)"
        terms = ", ".join(f"u^{e}: {c:.6g}" for e, c in sorted(self.coeffs.items(), reverse=True))
        tail = "" if self.truncation_order is None else f" + O(u^{self.truncation_order - 1})"
        return f"LaurentSeries({terms}{tail})"


def _coerce(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, float, complex)):
        return LaurentSeries({0: complex(x)})
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent series")


def _mul_trunc(a: LaurentSeries, b: LaurentSeries) -> int | None:
    """Reliable lowest exponent of a product.

    Unknown terms of a truncated factor (below its truncation order) multiply
    the other factor's top content, so the product is reliable only down to
    truncation + top of the partner.  An exact zero annihilates; a truncated
    zero (no retained terms) still carries unknown content strictly below its
    truncation order.
    """
    if (a.is_zero() and a.truncation_order is None) or (
        b.is_zero() and b.truncation_order is None
    ):
        return None

    def top(p: LaurentSeries) -> int:
        return p.degree if p.coeffs else p.truncation_order - 1

    cands = []
    if a.truncation_order is not None:
        cands.append(a.truncation_order + top(b))
    if b.truncation_order is not None:
        cands.append(b.truncation_order + top(a))
    return max(cands) if cands else None


def _powers(x: LaurentSeries, depth: int) -> list[LaurentSeries]:
    """x, x^2, ..., x^depth truncated at u^-depth, up to the first that vanishes."""
    out, power = [], LaurentSeries.one()
    for _ in range(depth):
        power = (power * x).truncated(-depth)
        if power.is_zero():
            break
        out.append(power)
    return out


def _remainder_powers(p: LaurentSeries, depth: int) -> tuple[int, complex, list[LaurentSeries]]:
    """n, lead and the powers of x, where p = lead u^n (1 + x) + O(u^(n-depth-1)).

    x is read off the ``depth`` coefficients below the leading one, which is
    dropped rather than 1 subtracted (no rounding residue at u^0); no lower,
    possibly overflowed, coefficient of p is read."""
    if p.is_zero():
        raise ValueError("empty generating functional")
    n = p.degree
    lead = p.coeffs[n]
    if not (cmath.isfinite(lead) and abs(lead) >= np.finfo(float).tiny):
        raise OverflowError(f"leading coefficient {lead} of u^{n} is out of double range")
    inv = 1.0 / lead
    x = LaurentSeries({-m: p.coefficient(n - m) * inv for m in range(1, depth + 1)}, -depth)
    if not all(cmath.isfinite(c) for c in x.coeffs.values()):
        raise OverflowError(f"coefficients below u^{n} are out of double range")
    return n, lead, _powers(x, depth)


def log_expand(p: LaurentSeries, depth: int = 4) -> tuple[int, list[complex]]:
    """Expand log p(u) about the leading power of u.

    Returns ``(n, [c0, c1, ..., c_depth])`` such that

        log p(u) = n log u + c0 + sum_{m=1..depth} c_m u^{-m} + O(u^{-depth-1}).

    The leading monomial is factored out and log(1 + x) is expanded as a
    truncated series in the remainder x, which contains only negative powers.
    ``c0`` uses the principal branch of the complex logarithm.
    """
    n, lead, powers = _remainder_powers(p, depth)
    coeffs = [complex(np.log(lead))] + [0.0j] * depth
    for k, power in enumerate(powers, start=1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for e, c in power.coeffs.items():
            coeffs[-e] += sign * c / k
    return n, coeffs


def log_reconstruct(n: int, coeffs: list[complex], depth: int | None = None) -> LaurentSeries:
    """Inverse of :func:`log_expand` up to the retained order.

    Rebuilds u^n exp(c0) exp(sum c_m u^-m) as a truncated series.
    """
    if depth is None:
        depth = len(coeffs) - 1
    tail = LaurentSeries({-m: c for m, c in enumerate(coeffs) if m >= 1})
    return (series_exp(tail, depth) * np.exp(coeffs[0])).shifted(n)


def series_exp(p: LaurentSeries, depth: int) -> LaurentSeries:
    """exp of a series with strictly negative exponents, truncated at u^-depth."""
    if not p.is_zero() and p.degree >= 0:
        raise ValueError("series_exp expects strictly negative exponents")
    out = LaurentSeries.one()
    fact = 1.0
    for k, power in enumerate(_powers(p, depth), start=1):
        fact *= k
        out = out + power * (1.0 / fact)
    return out.truncated(-depth)


def series_inverse(p: LaurentSeries, depth: int = 4) -> LaurentSeries:
    """Truncated reciprocal: p * series_inverse(p) = 1 + O(u^{-depth-1}).

    Requires a finite, normal leading coefficient.  The result is a truncated
    series whose lowest reliable exponent is -(degree of p) - depth.
    """
    n, lead, powers = _remainder_powers(p, depth)
    geom = LaurentSeries.one()
    for k, power in enumerate(powers, start=1):
        geom = geom + power * ((-1.0) ** k)
    return (geom * (1.0 / lead)).shifted(-n).truncated(-n - depth)


@dataclass(frozen=True)
class LaurentMatrix:
    """A 2x2 matrix over Laurent series."""

    entries: tuple[tuple[LaurentSeries, LaurentSeries], tuple[LaurentSeries, LaurentSeries]]

    @staticmethod
    def from_rows(rows) -> "LaurentMatrix":
        (a, b), (c, d) = rows
        coerced = ((_coerce(a), _coerce(b)), (_coerce(c), _coerce(d)))
        return LaurentMatrix(coerced)

    @staticmethod
    def identity() -> "LaurentMatrix":
        one, zero = LaurentSeries.one(), LaurentSeries.zero()
        return LaurentMatrix(((one, zero), (zero, one)))

    def __getitem__(self, idx: tuple[int, int]) -> LaurentSeries:
        i, j = idx
        return self.entries[i][j]

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
        )
        return LaurentMatrix(rows)

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        a, b = self.entries, other.entries
        return LaurentMatrix(tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2)))

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        a, b = self.entries, other.entries
        return LaurentMatrix(tuple(tuple(a[i][j] - b[i][j] for j in range(2)) for i in range(2)))

    def scale(self, s: complex | LaurentSeries) -> "LaurentMatrix":
        return LaurentMatrix(
            tuple(tuple(self.entries[i][j] * s for j in range(2)) for i in range(2))
        )

    @property
    def trace(self) -> LaurentSeries:
        return self.entries[0][0] + self.entries[1][1]

    @property
    def det(self) -> LaurentSeries:
        a = self.entries
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def evaluate(self, u: complex) -> np.ndarray:
        return np.array(
            [[self.entries[i][j].evaluate(u) for j in range(2)] for i in range(2)],
            dtype=complex,
        )

    def coefficient_matrix(self, exponent: int) -> np.ndarray:
        return np.array(
            [[self.entries[i][j].coefficient(exponent) for j in range(2)] for i in range(2)],
            dtype=complex,
        )


def matrix_product_chain(ms: list[LaurentMatrix]) -> LaurentMatrix:
    """Left-to-right product of the given matrices (first element leftmost)."""
    if not ms:
        raise ValueError("matrix_product_chain needs at least one factor")
    return reduce(lambda x, y: x @ y, ms)
