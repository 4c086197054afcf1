"""Independent oracles that the tests compare the package against.

- Finite-difference field derivatives: 4th-order central stencils applied to
  order-0 field samples, so they never touch the jet derivative data.
- Wigner d/D matrices from the explicit factorial sum and a zyz Euler
  decomposition, checked against closed forms and group identities and
  used to confirm how the Cartesian coupling tables rotate.
- Full-tensor third-order jet kernels: the Leibniz and Faa di Bruno rules
  on batch-first (..., 3), (..., 3, 3), (..., 3, 3, 3) blocks, written with
  broadcast outer products over every index instead of the package's
  unique-component gathers.
- Full-factor scalar profiles: the LG and HG profile formulas with every
  factor multiplied in: the constant-1 Laguerre and H_0 jets, powers raised
  from a constant-1 jet, rho^2 as x*x + y*y and constants added as constant
  jets.  The package skips those factors and must still match byte for
  byte.
- Unfused field assembly: the field built from profiles without the plane
  wave, which multiplies every term's value and gradient afterwards, on the
  flat batch of the points.  The package carries exp(ikz) inside each
  profile and must agree to rounding.
- Frame rotation of sampled fields: vector components and derivative
  indices re-expressed in the atom frame, for the rotated-table path to
  agree with.

Only tests import this module; the package itself has a single analytic
field path and no Wigner-matrix code.
"""

import math

import numpy as np

from vectorlight.beams import (
    FieldSample,
    HGMode,
    LGMode,
    _hermite_jet,
    _laguerre_jet,
    field_sample_upto,
)
from vectorlight.jets import Jet
from vectorlight.special import HalfInt, halfint, rotation_matrix

# ---------------------------------------------------------------------------
# full-tensor jet kernels
#
# A jet here is a tuple (val, g, h, t) with the batch axes first:
# g[..., i] = d_i f, h[..., i, j] = d_i d_j f, t[..., i, j, k] = d_i d_j d_k f.


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _sym_hg(h, g):
    """Symmetrized h_{ij} g_k over the three index slots."""
    return (
        h[..., :, :, None] * g[..., None, None, :]
        + h[..., :, None, :] * g[..., None, :, None]
        + h[..., None, :, :] * g[..., :, None, None]
    )


def jet_mul(a, b):
    """Leibniz rule up to third order for batch-first jets a * b."""
    av, ag, ah, at = a
    bv, bg, bh, bt = b
    return (
        av * bv,
        ag * bv[..., None] + bg * av[..., None],
        ah * bv[..., None, None] + bh * av[..., None, None]
        + _outer(ag, bg) + _outer(bg, ag),
        at * bv[..., None, None, None] + bt * av[..., None, None, None]
        + _sym_hg(ah, bg) + _sym_hg(bh, ag),
    )


def jet_compose(a, f0, f1, f2, f3):
    """Faa di Bruno up to third order: f(a) from the f^(k) at a's value."""
    _, g, h, t = a
    ggg = g[..., :, None, None] * g[..., None, :, None] * g[..., None, None, :]
    return (
        f0,
        f1[..., None] * g,
        f2[..., None, None] * _outer(g, g) + f1[..., None, None] * h,
        f3[..., None, None, None] * ggg
        + f2[..., None, None, None] * _sym_hg(h, g)
        + f1[..., None, None, None] * t,
    )


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
# frame rotation of sampled fields


def rotated_sample(fs: FieldSample, rot: np.ndarray) -> FieldSample:
    """Field arrays re-expressed in the atom frame: every vector component
    and derivative index rotated by `rot`."""
    e = np.einsum("ij,...i->...j", rot, fs.electric)
    jac = np.einsum("ai,bj,...ab->...ij", rot, rot, fs.jacobian)
    hes = np.einsum("ap,bi,cj,...abc->...pij", rot, rot, rot, fs.hessian)
    return FieldSample(e, jac, hes)


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


# ---------------------------------------------------------------------------
# full-factor scalar profiles


def _one(like):
    return Jet.constant(1.0, like.order, like.val.shape)


def _shift(jet, c):
    """jet + c with c added as a constant jet (zero derivative blocks)."""
    return jet + Jet.constant(c, jet.order, jet.val.shape)


def ipow_from_one(jet, n):
    """jet**n by squaring, starting from a constant-1 jet."""
    out, base = _one(jet), jet
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


def profile_full(mode, waist, k, coords, carrier=True):
    """Travelling scalar profile f exp(ikz) of one LG or HG mode, every
    factor multiplied in, in the package's order: the factors of z alone
    first, then H_m, H_n, the envelope and the vortex.  Without `carrier`
    the plane wave is a constant-1 jet, which leaves the profile f."""
    x, y, z = coords
    zr = 0.5 * k * waist**2
    zeta = z * (1.0 / zr)
    u = _shift(zeta * 1.0j, 1.0).reciprocal()
    plane = (z * (1.0j * k)).exp() if carrier else _one(z)
    rho2 = x * x + y * y
    envelope = (rho2 * (u * (-1.0 / waist**2))).exp()
    if isinstance(mode, LGMode):
        al, p = abs(mode.l), mode.p
        ubar = _shift(zeta * (-1.0j), 1.0).reciprocal()
        arg = rho2 * (u * ubar * (2.0 / waist**2))
        lag = _laguerre_jet(p, al, arg)
        norm = math.sqrt(2.0 * math.factorial(p)
                         / (math.pi * math.factorial(p + al)))
        axial = ipow_from_one(u, al + 1 + p) * plane * norm
        if p:
            axial = axial * ipow_from_one(_shift(zeta * (-1.0j), 1.0), p)
        radial = lag * axial * envelope
        s = math.sqrt(2.0) / waist
        base = x * s + y * ((1.0j if mode.l >= 0 else -1.0j) * s)
        return ipow_from_one(base, al) * radial
    assert isinstance(mode, HGMode)
    m, n = mode.m, mode.n
    norm = math.sqrt(2.0 / math.pi) / math.sqrt(
        2.0 ** (m + n) * math.factorial(m) * math.factorial(n))
    f = u * plane * norm
    if m + n:
        f = f * (zeta.arctan() * (-1.0j * (m + n))).exp()
    s = _shift(zeta * zeta, 1.0).sqrt().reciprocal() * (math.sqrt(2.0) / waist)
    hm = _hermite_jet(m, x * s)
    hn = _hermite_jet(n, y * s)
    return hm * f * hn * envelope


# ---------------------------------------------------------------------------
# field assembly with the plane wave applied after the gradient


def field_blocks_unfused(spec, points, order):
    """Field blocks of `field_sample_upto(spec, points, order)` assembled the
    way the package did before its profiles carried exp(ikz): every term's
    profile f without the plane wave, on the flat batch of the points, then
    E_t = amp f exp(ikz) and E_z = (amp i/k)(f_x + i sigma f_y) exp(ikz)."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 3)
    k = spec.wavenumber
    coords = [Jet.coordinate(flat, i, order + 1) for i in range(3)]
    plane = (coords[2].truncate(order) * (1.0j * k)).exp()
    ex = ey = ez = None
    for weight, term in spec.terms:
        f = profile_full(term.mode, spec.waist, k, coords, carrier=False)
        sig = term.sigma
        amp = weight / math.sqrt(2.0)
        wave = f.truncate(order) * plane
        tx = wave * amp
        ty = wave * (amp * 1.0j * sig)
        tz = (f.partial(0) + f.partial(1) * (1.0j * sig)) * plane * (
            amp * 1.0j / k)
        ex = tx if ex is None else ex + tx
        ey = ty if ey is None else ey + ty
        ez = tz if ez is None else ez + tz
    blocks = []
    for nd, comps in enumerate(zip(ex.blocks, ey.blocks, ez.blocks)):
        # derivative axes first in a jet, last but one in a sample
        block = np.stack([np.moveaxis(c, range(nd), range(-nd, 0))
                          for c in comps], axis=-1)
        blocks.append(block.reshape(pts.shape[:-1] + block.shape[1:]))
    return blocks
