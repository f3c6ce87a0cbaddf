"""The trigonometric classical r-matrix, bracket-identity assemblers and the
2x2 assembler behind every Lax, gauge and Darboux matrix.

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


def r_matrix(separation: complex) -> np.ndarray:
    """4x4 r-matrix at spectral separation d = lambda - mu.

    Entries: cosh(d)/sinh(d) on the (11,11) and (22,22) diagonal slots and
    1/sinh(d) on the (12,21)/(21,12) exchange slots.  Singular when
    sinh(d) = 0, i.e. d = 0 mod i*pi.
    """
    s = np.sinh(separation)
    if abs(s) < 1e-12:
        raise ValueError("r-matrix pole: sinh(lambda - mu) vanishes")
    c = np.cosh(separation)
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = c / s
    r[3, 3] = c / s
    r[1, 2] = 1.0 / s
    r[2, 1] = 1.0 / s
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
    """
    out = np.zeros((4, 4), dtype=complex)
    for (alpha, beta), value in table.items():
        da = partials_a.get(alpha)
        db = partials_b.get(beta)
        if da is None or db is None:
            continue
        out += value * np.kron(da, db)
    return out


def quadratic_rhs(separation: complex, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """[r(d), L_a L_b] for the quadratic (lattice) exchange relation."""
    r = r_matrix(separation)
    p = np.kron(la, lb)
    return r @ p - p @ r


def linear_rhs(separation: complex, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """[r(d), U_a + U_b] for the linear (continuum) algebra."""
    r = r_matrix(separation)
    m = np.kron(ua, np.eye(2)) + np.kron(np.eye(2), ub)
    return r @ m - m @ r
