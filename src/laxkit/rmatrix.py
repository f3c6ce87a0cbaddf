"""The trigonometric classical r-matrix, bracket-identity assemblers, the
2x2 assembler behind every Lax, gauge and Darboux matrix and the entrywise
product of stacks of them.

The same 4x4 r-matrix governs the quadratic exchange algebra of the lattice
site matrices and the linear algebra of the continuum spatial Lax operator.
Rows and columns are indexed by pairs (i, k) -> 2*i + k of the two tensor
factors ("a" first, "b" second).
"""

from __future__ import annotations

import numpy as np


def _matrices(m00, m01, m10, m11) -> np.ndarray:
    """Complex 2x2 matrices from their entries, broadcast together: shape + (2, 2)."""
    out = np.empty(np.broadcast(m00, m01, m10, m11).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def _mul2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, entry by entry: ten times faster
    than np.matmul, which loops over the stack one tiny product at a time."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(2):
        for k in range(2):
            out[..., i, k] = a[..., i, 0] * b[..., 0, k] + a[..., i, 1] * b[..., 1, k]
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks of 2x2 matrices, broadcast over their
    leading axes, bit for bit numpy's kron of each pair at an eighth of its
    cost: out[..., 2i + k, 2j + l] = a[..., i, j] b[..., k, l]."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def r_matrix(separation) -> np.ndarray:
    """4x4 r-matrix at spectral separation d = lambda - mu; an array of
    separations gives shape d.shape + (4, 4).

    Entries: cosh(d)/sinh(d) on the (11,11) and (22,22) diagonal slots and
    1/sinh(d) on the (12,21)/(21,12) exchange slots.  Singular when
    sinh(d) = 0, i.e. d = 0 mod i*pi.
    """
    s = np.sinh(separation)
    if np.any(np.abs(s) < 1e-12):
        raise ValueError("r-matrix pole: sinh(lambda - mu) vanishes")
    c = np.cosh(separation)
    r = np.zeros(np.shape(s) + (4, 4), dtype=complex)
    r[..., 0, 0] = r[..., 3, 3] = c / s
    r[..., 1, 2] = r[..., 2, 1] = 1.0 / s
    return r


def bracket_lhs(
    partials_a: dict[str, np.ndarray],
    partials_b: dict[str, np.ndarray],
    table: dict[tuple[str, str], complex],
) -> np.ndarray:
    """Bilinear expansion of the entrywise Poisson bracket {M_a, M_b}.

    ``partials_a[name]`` is the 2x2 derivative of the first-factor matrix with
    respect to the named field (at its own spectral point); likewise for b.
    ``table`` holds the elementary brackets {alpha, beta} as ordered pairs.
    The result B[(i,k),(j,l)] = {A_ij, B_kl} is returned as a 4x4 array.
    Partials may be stacks (..., 2, 2) and table values arrays over the same
    leading axes: a stack of draws gives a stack of 4x4 brackets.
    """
    out = np.zeros((4, 4), dtype=complex)
    for (alpha, beta), value in table.items():
        da = partials_a.get(alpha)
        db = partials_b.get(beta)
        if da is None or db is None:
            continue
        out = out + np.asarray(value)[..., None, None] * _kron(da, db)
    return out


def quadratic_rhs(separation, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """[r(d), L_a L_b] for the quadratic (lattice) exchange relation; stacks
    of separations and matrices give a stack."""
    r = r_matrix(separation)
    p = _kron(la, lb)
    return r @ p - p @ r


def linear_rhs(separation, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """[r(d), U_a + U_b] for the linear (continuum) algebra; stacks of
    separations and matrices give a stack."""
    r = r_matrix(separation)
    m = _kron(ua, np.eye(2)) + _kron(np.eye(2), ub)
    return r @ m - m @ r


def _residual(lhs: np.ndarray, rhs: np.ndarray):
    """Max-entry modulus of lhs - rhs: a float for one pair of matrices, an
    array over the leading axes of a stack (a nan entry gives nan)."""
    r = np.max(np.abs(lhs - rhs), axis=(-2, -1))
    return float(r) if r.ndim == 0 else r
