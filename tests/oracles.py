"""Independent oracles that the tests compare the package against.

- Finite-difference field derivatives: 4th-order central stencils applied to
  order-0 field samples, so they never touch the jet derivative data.
- Wigner d/D matrices from the explicit factorial sum and a zyz Euler
  decomposition, checked against closed forms and group identities and
  used to confirm how the Cartesian coupling tables rotate.

Only tests import this module; the package itself has a single analytic
field path and no Wigner-matrix code.
"""

import math

import numpy as np

from vectorlight.beams import field_sample_upto
from vectorlight.special import HalfInt, halfint, rotation_matrix

# ---------------------------------------------------------------------------
# finite-difference field derivatives

_FD_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD_WEIGHTS = (1.0, -8.0, 8.0, -1.0)


def _fd_shifted(points: np.ndarray, h: float) -> np.ndarray:
    """Stencil points, shape (4, 3, N, 3): offset s along coordinate axis i."""
    eye = np.eye(3)
    shifts = np.asarray(_FD_OFFSETS)[:, None, None] * h * eye[None, :, :]
    return points[None, None, :, :] + shifts[:, :, None, :]


def _fd_jac(spec, points: np.ndarray, h: float) -> np.ndarray:
    big = _fd_shifted(points, h)
    e = field_sample_upto(spec, big.reshape(-1, 3), 0).electric.reshape(big.shape)
    w = np.asarray(_FD_WEIGHTS) / (12.0 * h)
    return np.einsum("s,si...j->...ij", w, e)


def fd_jacobian(spec, points, h: float = None) -> np.ndarray:
    """d_i E_j as (N, 3, 3) from field values; step defaults to 1e-4 wavelengths."""
    return _fd_jac(spec, np.asarray(points, dtype=float),
                   h or 1e-4 * spec.wavelength)


def fd_hessian(spec, points, h: float = None) -> np.ndarray:
    """d_p d_i E_j as (N, 3, 3, 3) by nesting the jacobian stencil."""
    h = h or 1e-4 * spec.wavelength
    big = _fd_shifted(np.asarray(points, dtype=float), h)
    jac = _fd_jac(spec, big.reshape(-1, 3), h).reshape(big.shape + (3,))
    w = np.asarray(_FD_WEIGHTS) / (12.0 * h)
    hess = np.einsum("s,sp...ij->...pij", w, jac)
    # enforce the symmetry the analytic path has by construction
    return 0.5 * (hess + np.swapaxes(hess, -3, -2))


# ---------------------------------------------------------------------------
# Wigner rotation matrices (Condon-Shortley phases)


def wigner_small_d(j, m_out, m_in, theta: float) -> float:
    """Wigner small-d matrix element d^j_{m_out, m_in}(theta).

    Convention d^j_{m', m}(theta) = <j m'| exp(-i theta J_y) |j m>, evaluated
    from the explicit factorial sum.
    """
    tj = halfint(j).twice
    tmo = halfint(m_out).twice
    tmi = halfint(m_in).twice
    fact = math.factorial
    pref = math.sqrt(fact((tj + tmo) // 2) * fact((tj - tmo) // 2)
                     * fact((tj + tmi) // 2) * fact((tj - tmi) // 2))
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    dm = (tmo - tmi) // 2  # m_out - m_in, always an integer
    total = 0.0
    for k in range(max(0, -dm), min((tj + tmi) // 2, (tj - tmo) // 2) + 1):
        den = (fact((tj + tmi) // 2 - k) * fact(k) * fact(dm + k)
               * fact((tj - tmo) // 2 - k))
        sign = -1.0 if (dm + k) % 2 else 1.0
        total += sign * c ** (tj - dm - 2 * k) * s ** (dm + 2 * k) / den
    return pref * total


def _m_values(tj: int):
    """Magnetic quantum numbers for total j, ordered m = +j ... -j (twice-values)."""
    return list(range(tj, -tj - 1, -2))


def wigner_d_matrix(j, theta: float) -> np.ndarray:
    """Real (2j+1)x(2j+1) matrix of d^j_{m', m}(theta), rows/cols ordered +j..-j."""
    tj = halfint(j).twice
    ms = _m_values(tj)
    out = np.empty((len(ms), len(ms)))
    for i, tmo in enumerate(ms):
        for k, tmi in enumerate(ms):
            out[i, k] = wigner_small_d(HalfInt(tj), HalfInt(tmo), HalfInt(tmi), theta)
    return out


def euler_zyz(rot: np.ndarray):
    """Decompose an active rotation matrix as Rz(alpha) @ Ry(beta) @ Rz(gamma)."""
    rot = np.asarray(rot, dtype=float)
    sin_beta = math.hypot(rot[0, 2], rot[1, 2])
    beta = math.atan2(sin_beta, rot[2, 2])
    if sin_beta > 1e-12:
        alpha = math.atan2(rot[1, 2], rot[0, 2])
        gamma = math.atan2(rot[2, 1], -rot[2, 0])
    elif rot[2, 2] > 0.0:  # beta ~ 0: only alpha + gamma is determined
        alpha = math.atan2(rot[1, 0], rot[0, 0])
        gamma = 0.0
    else:  # beta ~ pi: only alpha - gamma is determined
        alpha = math.atan2(-rot[1, 0], -rot[0, 0])
        gamma = 0.0
    return alpha, beta, gamma


def wigner_D_matrix(j, theta: float, axis) -> np.ndarray:
    """Complex Wigner D^j for an active rotation by theta about axis.

    Element [i, k] = D^j_{m_i, m_k} = exp(-i m_i alpha) d^j_{m_i m_k}(beta)
    exp(-i m_k gamma) with zyz Euler angles of the rotation; m ordered +j..-j.
    A set of spherical components A_m transforms as A'_m = sum_m' D_{m m'} A_m'.
    """
    tj = halfint(j).twice
    alpha, beta, gamma = euler_zyz(rotation_matrix(theta, axis))
    ms = np.array(_m_values(tj)) / 2.0
    small = wigner_d_matrix(HalfInt(tj), beta)
    return (
        np.exp(-1j * ms[:, None] * alpha) * small * np.exp(-1j * ms[None, :] * gamma)
    )
