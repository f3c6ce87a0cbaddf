"""Exact Laurent-polynomial arithmetic in the spectral variable u.

A :class:`LaurentSeries` is an exact Laurent polynomial: finitely many
terms with double-precision complex coefficients, on which the algebra
introduces no truncation.  Its normal form drops only exact zeros, however
small a coefficient is next to the others.

A coefficient is either one complex number or a 1-D complex array with one
coefficient per draw: a series whose coefficients are arrays is a stack of
draws of one polynomial shape, on which every operation acts draw by draw,
one numpy operation per coefficient operation.  The normal form drops an
array term only when it is zero in every draw, so the degree of a stack is
the highest degree of its draws.  A series of complex numbers alone, one
chain, takes Python complex arithmetic throughout.

A truncated series is a pair ``(n, c)``: a top exponent n and a dense complex
array c, meaning sum_m c[m] u^(n-m) + O(u^(n-len(c))); a stack of draws
carries c of shape (draws, len).  Truncated products are one truncated
convolution.  :func:`log_expand` and :func:`series_inverse` read only the
leading coefficient of a polynomial and the ``depth`` below it, and raise
``OverflowError`` when one of those is not finite or the leading one is
subnormal, in any draw of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "LaurentSeries", "LaurentMatrix", "matrix_product_chain",
    "log_expand", "series_inverse",
]


@dataclass(frozen=True)
class LaurentSeries:
    """An exact Laurent polynomial in u, or a stack of draws of one.

    ``coeffs`` maps integer exponents to coefficients, each a complex number
    or a 1-D complex array with one coefficient per draw, and is kept in
    normal form: no stored zero, and no array that is zero in every draw.
    Instances are immutable; all operations return new values.
    """

    coeffs: dict[int, complex | np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normal_form(self.coeffs))

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

    def coefficient(self, exponent: int) -> complex:
        return self.coeffs.get(exponent, 0.0 + 0.0j)

    def dense(self, top: int, count: int) -> np.ndarray:
        """Coefficients of u^top, u^(top-1), ..., u^(top-count+1) as an array."""
        return np.array([self.coefficient(top - m) for m in range(count)], dtype=complex)

    def evaluate(self, u: complex) -> complex:
        return sum(c * u**e for e, c in self.coeffs.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return LaurentSeries(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentSeries({e: c * other for e, c in self.coeffs.items()})
        other = _coerce(other)
        out: dict[int, complex] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                out[e] = out.get(e, 0.0) + ca * cb
        return LaurentSeries(out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return "LaurentSeries(0)"
        terms = ", ".join(f"u^{e}: {_format(c)}"
                          for e, c in sorted(self.coeffs.items(), reverse=True))
        return f"LaurentSeries({terms})"


def _normal_form(coeffs: dict) -> dict:
    """coeffs without zero terms, each a complex number or a complex array of
    draws.  A Python complex is kept as it is, the path of one chain's
    arithmetic; an array is dropped only when it is zero in every draw."""
    out = {}
    for e, c in coeffs.items():
        if type(c) is not complex:
            if isinstance(c, np.ndarray) and c.ndim:
                if np.count_nonzero(c):  # a few times faster than c.any() on a short array
                    out[e] = c.astype(complex, copy=False)
                continue
            c = complex(c)
        if c != 0:
            out[e] = c
    return out


def _format(c) -> str:
    return f"{c:.6g}" if np.ndim(c) == 0 else np.array2string(c, precision=6)


def _coerce(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, float, complex)):
        return LaurentSeries({0: complex(x)})
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent series")


# -- truncated series: dense arrays ------------------------------------------


def _tconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first len(a) coefficients of the product of two dense series; two
    stacks of shape (draws, len) draw by draw."""
    if a.ndim == 1:
        return np.convolve(a, b)[: len(a)]
    k = a.shape[-1]
    return np.stack([np.sum(a[:, :m + 1] * b[:, m::-1], axis=-1) for m in range(k)], axis=-1)


def _powers(x: np.ndarray):
    """x, x^2, ..., x^(len(x)-1), each truncated to len(x) coefficients, the
    coefficients on the last axis.

    x[..., 0] must be 0, so every higher power vanishes at this length."""
    power = x
    for _ in range(x.shape[-1] - 1):
        yield power
        power = _tconv(power, x)


def _leading(p: LaurentSeries, depth: int) -> tuple[int, complex, np.ndarray]:
    """n, lead and x, where p = lead u^n (1 + sum_m x[m] u^-m) + O(u^(n-depth-1)).

    x[0] = 0 and x[1..depth] are the ``depth`` coefficients below the leading
    one, over it.  The leading term is dropped rather than 1 subtracted (no
    rounding residue at u^0), and no lower, possibly overflowed, coefficient
    of p is read.  For a stack of draws, lead is an array over them and x has
    shape (draws, depth + 1); each draw is checked, and an error names the
    first that fails."""
    if p.is_zero():
        raise ValueError("empty generating functional")
    n = p.degree
    lead = p.coeffs[n]
    _require_in_range(np.isfinite(lead) & (np.abs(lead) >= np.finfo(float).tiny),
                      f"leading coefficient {{}} of u^{n} is out of double range", lead)
    inv = 1.0 / lead
    x = np.zeros(np.shape(lead) + (depth + 1,), dtype=complex)
    for m in range(1, depth + 1):
        x[..., m] = p.coefficient(n - m) * inv
    _require_in_range(np.isfinite(x).all(axis=-1),
                      f"coefficients below u^{n} are out of double range")
    return n, lead, x


def _require_in_range(ok, message: str, value=None):
    """Raise OverflowError(message) unless ok holds, one bool or one per draw;
    for a stack of draws the message names the first draw that fails.  A
    ``{}`` in the message takes value, of that draw."""
    if np.ndim(ok) == 0:
        if not ok:
            raise OverflowError(message.format(value))
    elif not ok.all():
        k = int(np.argmin(ok))
        raise OverflowError(f"{message.format(None if value is None else value[k])} in draw {k}")


def log_expand(p: LaurentSeries, depth: int = 4) -> tuple[int, list[complex]]:
    """Expand log p(u) about the leading power of u.

    Returns ``(n, [c0, c1, ..., c_depth])`` such that

        log p(u) = n log u + c0 + sum_{m=1..depth} c_m u^{-m} + O(u^{-depth-1}).

    The leading monomial is factored out and log(1 + x) = -sum_k (-x)^k / k
    is summed as a truncated series in the remainder x, which contains only
    negative powers.  ``c0`` uses the principal branch of the complex
    logarithm.  For a stack of draws each c_m is an array over the draws.
    """
    n, lead, x = _leading(p, depth)
    log1p = np.zeros_like(x)
    for k, power in enumerate(_powers(-x), start=1):
        # divide both parts by k: numpy's complex division multiplies by 1/k,
        # which rounds twice
        log1p -= (power.view(float) / k).view(complex)
    if x.ndim == 2:
        return n, [np.log(lead), *log1p.T[1:]]
    return n, [complex(np.log(lead))] + [complex(c) for c in log1p[1:]]


def series_inverse(p: LaurentSeries, depth: int = 4) -> tuple[int, np.ndarray]:
    """Truncated reciprocal of a polynomial of degree n.

    Returns ``(-n, c)`` with p(u) * sum_m c[m] u^(-n-m) = 1 + O(u^{-depth-1}),
    c of length depth + 1, or of shape (draws, depth + 1) for a stack.
    Requires a finite, normal leading coefficient.
    """
    n, lead, x = _leading(p, depth)
    geom = np.zeros_like(x)
    geom[..., 0] = 1.0
    for power in _powers(-x):
        geom += power
    inv = 1.0 / lead
    return -n, geom * (inv[:, None] if x.ndim == 2 else inv)


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

    def where(self, mask, other: "LaurentMatrix") -> "LaurentMatrix":
        """Draw by draw, this matrix where ``mask`` holds and ``other``
        elsewhere: each coefficient an array over the draws of the mask."""
        a, b = self.entries, other.entries
        return LaurentMatrix(tuple(tuple(_where(mask, a[i][j], b[i][j]) for j in range(2))
                                   for i in range(2)))

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


def _where(mask, p: LaurentSeries, q: LaurentSeries) -> LaurentSeries:
    exponents = sorted(p.coeffs.keys() | q.coeffs.keys(), reverse=True)
    return LaurentSeries({e: np.where(mask, p.coefficient(e), q.coefficient(e)) for e in exponents})


def matrix_product_chain(ms: list[LaurentMatrix]) -> LaurentMatrix:
    """Left-to-right product of the given matrices (first element leftmost)."""
    if not ms:
        raise ValueError("matrix_product_chain needs at least one factor")
    return reduce(lambda x, y: x @ y, ms)
