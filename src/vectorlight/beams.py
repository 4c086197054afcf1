"""Non-paraxial monochromatic vector beams built from focused scalar modes.

A beam is a weighted sum of (scalar mode, circular polarization) terms.  Each
term contributes a transverse field proportional to the scalar profile and a
longitudinal component obtained from the transverse gradient of that profile,
so the total field is divergence-free to the order kept here (first order in
the focusing parameter 1/(k w0)).

Scalar profiles are evaluated as truncated Taylor jets (see `jets`), which
makes analytic spatial derivatives of the full vector field available up to
the second order needed by gradient-coupled transitions and sidebands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from .errors import ConfigurationError
from .jets import Jet
from .special import hermite, laguerre

__all__ = [
    "LGMode",
    "HGMode",
    "ModeTerm",
    "BeamSpec",
    "FieldSample",
    "field_components",
    "field_sample_upto",
    "make_radial_azimuthal",
]


# ---------------------------------------------------------------------------
# beam description


@dataclass(frozen=True)
class LGMode:
    """Laguerre-Gaussian profile with azimuthal index l and radial index p."""

    l: int
    p: int = 0

    def __post_init__(self):
        if self.l != int(self.l) or self.p != int(self.p):
            raise ValueError("mode indices must be integers")
        if self.p < 0:
            raise ValueError("radial index p must be >= 0")


@dataclass(frozen=True)
class HGMode:
    """Hermite-Gaussian profile with transverse orders (m, n)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m != int(self.m) or self.n != int(self.n):
            raise ValueError("mode indices must be integers")
        if self.m < 0 or self.n < 0:
            raise ValueError("mode orders must be >= 0")


Mode = Union[LGMode, HGMode]


@dataclass(frozen=True)
class ModeTerm:
    """One scalar mode carrying a single circular polarization sigma."""

    mode: Mode
    sigma: int

    def __post_init__(self):
        if not isinstance(self.mode, (LGMode, HGMode)):
            raise ValueError("mode must be an LGMode or HGMode")
        if self.sigma not in (-1, 0, 1):
            raise ValueError("sigma must be -1, 0, or +1")


@dataclass(frozen=True)
class BeamSpec:
    """Weighted superposition of mode terms sharing one waist and wavelength.

    Lengths are in meters.  `terms` is a sequence of (complex weight,
    ModeTerm) pairs; at least one weight must be nonzero.
    """

    terms: Tuple[Tuple[complex, ModeTerm], ...]
    wavelength: float
    waist: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.waist <= 0.0:
            raise ValueError("waist must be positive")
        terms = tuple((complex(w), t) for (w, t) in self.terms)
        if not terms:
            raise ValueError("beam needs at least one mode term")
        for _, term in terms:
            if not isinstance(term, ModeTerm):
                raise ValueError("terms must be (weight, ModeTerm) pairs")
        if not any(abs(w) > 0.0 for w, _ in terms):
            raise ValueError("all mode weights are zero")
        object.__setattr__(self, "terms", terms)

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_length(self) -> float:
        return 0.5 * self.wavenumber * self.waist**2

    @staticmethod
    def lg(l: int, p: int = 0, sigma: int = 1, *, waist: float,
           wavelength: float, amplitude: float = 1.0) -> "BeamSpec":
        term = ModeTerm(LGMode(l, p), sigma)
        return BeamSpec(((1.0 + 0.0j, term),), wavelength, waist, amplitude)

    @staticmethod
    def hg(m: int, n: int, sigma: int = 1, *, waist: float,
           wavelength: float, amplitude: float = 1.0) -> "BeamSpec":
        term = ModeTerm(HGMode(m, n), sigma)
        return BeamSpec(((1.0 + 0.0j, term),), wavelength, waist, amplitude)


@dataclass(frozen=True)
class FieldSample:
    """Field and its spatial derivatives at a set of points.

    electric : (..., 3) complex          E_j
    jacobian : (..., 3, 3) complex       d_i E_j
    hessian  : (..., 3, 3, 3) complex    d_p d_i E_j  (symmetric in p, i)
    """

    electric: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray

    def block(self, order: int) -> np.ndarray:
        """Derivative block of the given order: 0 electric, 1 jacobian, 2 hessian."""
        return (self.electric, self.jacobian, self.hessian)[order]


def _radial_term(sign: float) -> Tuple[Tuple[complex, ModeTerm], ...]:
    # Opposite-handed circular polarization on each vortex arm: the vortex
    # phase then cancels the polarization phase in the longitudinal term, so
    # the difference combination has E_z identically zero everywhere while
    # the sum piles E_z up on the beam axis.
    w = 1.0 / math.sqrt(2.0)
    plus = ModeTerm(LGMode(1, 0), sigma=-1)
    minus = ModeTerm(LGMode(-1, 0), sigma=+1)
    return ((w + 0.0j, plus), (sign * w + 0.0j, minus))


def make_radial_azimuthal(kind: str, waist: float, wavelength: float,
                          amplitude: float = 1.0) -> BeamSpec:
    """Cylindrical vector beam: 'radial' or 'azimuthal' polarization."""
    if kind == "radial":
        terms = _radial_term(+1.0)
    elif kind == "azimuthal":
        terms = _radial_term(-1.0)
    else:
        raise ValueError(f"kind must be 'radial' or 'azimuthal', got {kind!r}")
    return BeamSpec(terms, wavelength, waist, amplitude)


# ---------------------------------------------------------------------------
# scalar mode jets


def _coords(points: np.ndarray, order: int) -> Tuple[Jet, Jet, Jet]:
    return (Jet.coordinate(points, 0, order),
            Jet.coordinate(points, 1, order),
            Jet.coordinate(points, 2, order))


def _laguerre_jet(p: int, alpha: int, arg: Jet) -> Jet:
    # dL_p^a/dx = -L_{p-1}^{a+1}; out-of-range degree contributes zero.
    def dk(pp, aa, sign):
        if pp < 0:
            return np.zeros_like(arg.val)
        return sign * laguerre(pp, aa, arg.val)

    return arg.compose(dk(p, alpha, 1.0),
                       dk(p - 1, alpha + 1, -1.0),
                       dk(p - 2, alpha + 2, 1.0),
                       dk(p - 3, alpha + 3, -1.0))


def _hermite_jet(n: int, arg: Jet) -> Jet:
    # H_n' = 2 n H_{n-1}
    def dk(nn, scale):
        if nn < 0:
            return np.zeros_like(arg.val)
        return scale * hermite(nn, arg.val)

    return arg.compose(dk(n, 1.0),
                       dk(n - 1, 2.0 * n),
                       dk(n - 2, 4.0 * n * (n - 1)),
                       dk(n - 3, 8.0 * n * (n - 1) * (n - 2)))


def _lg_jet(mode: LGMode, waist: float, k: float, points: np.ndarray,
            order: int) -> Jet:
    """Focused Laguerre-Gaussian profile (no plane-wave factor) as a jet.

    Written via the complex parameter u = 1/(1 + i z/zR): |u| carries the
    w0/w(z) amplitude decay, arg(u) one unit of axial phase slippage, and
    Re(u/w0^2) the Gaussian envelope with Im supplying wavefront curvature.
    Every factor is an entire function of the coordinates, so the Taylor
    jet needs no branch handling.
    """
    l, p = mode.l, mode.p
    al = abs(l)
    zr = 0.5 * k * waist**2

    x, y, z = _coords(points, order)
    zeta = z * (1.0 / zr)
    u = (zeta * 1.0j + 1.0).reciprocal()
    ubar = (zeta * (-1.0j) + 1.0).reciprocal()
    rho2 = x * x + y * y

    # real-valued Laguerre argument 2 rho^2 / w(z)^2, kept as a complex jet
    arg = rho2 * (u * ubar) * (2.0 / waist**2)
    lag = _laguerre_jet(p, al, arg)

    envelope = (rho2 * u * (-1.0 / waist**2)).exp()
    vortex = (x + (1.0j if l >= 0 else -1.0j) * y).ipow(al)
    # u^(|l|+1+p) * (1 - i zeta)^p  ==  (w0/w)^(|l|+1) e^{-i(|l|+2p+1) atan}
    axial = u.ipow(al + 1 + p)
    if p:
        axial = axial * (zeta * (-1.0j) + 1.0).ipow(p)

    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + al)))
    pref = norm * (math.sqrt(2.0) / waist) ** al
    return vortex * lag * axial * envelope * pref


def _hg_jet(mode: HGMode, waist: float, k: float, points: np.ndarray,
            order: int) -> Jet:
    """Focused Hermite-Gaussian profile (no plane-wave factor) as a jet."""
    m, n = mode.m, mode.n
    zr = 0.5 * k * waist**2

    x, y, z = _coords(points, order)
    zeta = z * (1.0 / zr)
    u = (zeta * 1.0j + 1.0).reciprocal()
    rho2 = x * x + y * y

    # Hermite arguments sqrt(2) x / w(z); w(z)/w0 is a real sqrt jet
    winv = (zeta * zeta + 1.0).sqrt().reciprocal()
    scale = math.sqrt(2.0) / waist
    hm = _hermite_jet(m, x * winv * scale)
    hn = _hermite_jet(n, y * winv * scale)

    envelope = (rho2 * u * (-1.0 / waist**2)).exp()
    # u covers w0/w and one unit of axial phase; the remaining m+n units
    # are a pure phase built from arctan(zeta).
    f = hm * hn * u * envelope
    if m + n:
        f = f * (zeta.arctan() * (-1.0j * (m + n))).exp()

    norm = math.sqrt(2.0 / math.pi) / math.sqrt(
        2.0 ** (m + n) * math.factorial(m) * math.factorial(n))
    return f * norm


def _mode_jet(mode: Mode, waist: float, k: float, points: np.ndarray,
              order: int) -> Jet:
    if isinstance(mode, LGMode):
        return _lg_jet(mode, waist, k, points, order)
    if isinstance(mode, HGMode):
        return _hg_jet(mode, waist, k, points, order)
    raise ConfigurationError(f"unsupported mode type {type(mode).__name__}")


def _as_points(point) -> Tuple[np.ndarray, bool]:
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1:] != (3,):
        raise ValueError("points must have trailing length-3 axis")
    single = pts.ndim == 1
    return (pts[None, :] if single else pts), single


# ---------------------------------------------------------------------------
# vector field assembly


def _field_jets(spec: BeamSpec, points: np.ndarray, order: int) -> Tuple[Jet, Jet, Jet]:
    """Jets of (E_x, E_y, E_z) at the requested derivative order.

    The longitudinal part consumes one derivative of the scalar profile, so
    profiles are expanded one order deeper than the field jets returned.
    """
    k = spec.wavenumber
    # the traveling-wave factor enters here, once per term, never inside
    # the scalar profiles
    z = Jet.coordinate(points, 2, order)
    plane = (z * (1.0j * k)).exp()

    ex = ey = ez = None
    for weight, term in spec.terms:
        f = _mode_jet(term.mode, spec.waist, k, points, order + 1)
        sig = term.sigma
        amp = weight * spec.amplitude / math.sqrt(2.0)

        fx = f.partial(0)
        fy = f.partial(1)
        f_low = f.truncate(order)

        tx = f_low * plane * amp
        ty = f_low * plane * (amp * 1.0j * sig)
        tz = (fx + fy * (1.0j * sig)) * plane * (amp * 1.0j / k)

        ex = tx if ex is None else ex + tx
        ey = ty if ey is None else ey + ty
        ez = tz if ez is None else ez + tz
    return ex, ey, ez


def _circular(e: np.ndarray) -> Dict[str, np.ndarray]:
    """Circular projections E_x -/+ i E_y and the longitudinal E_z of E (..., 3)."""
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    return {
        "sigma_plus": ex - 1.0j * ey,
        "sigma_minus": ex + 1.0j * ey,
        "z": ez,
    }


def field_components(spec: BeamSpec, point) -> Dict[str, np.ndarray]:
    """Longitudinal and circular field components.

    The circular components are projections onto the rotating unit vectors,
    E_sigma = E_x - i sigma E_y, so a pure sigma=+1 transverse field shows
    up only in 'sigma_plus'.
    """
    return _circular(field_sample_upto(spec, point, 0).electric)


def field_sample_upto(spec: BeamSpec, point, order: int) -> FieldSample:
    """Field plus derivatives up to `order` (0..2); deeper blocks are None.

    Evaluating only the depth actually consumed keeps large scans cheap:
    each extra derivative order roughly doubles the work per point.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    pts, single = _as_points(point)
    jets = _field_jets(spec, pts, order)
    # component j varies along the last axis, derivative indices before it
    e = np.stack([j.val for j in jets], axis=-1)
    jac = np.stack([j.g for j in jets], axis=-1) if order >= 1 else None
    hess = np.stack([j.h for j in jets], axis=-1) if order >= 2 else None
    if single:
        return FieldSample(e[0], None if jac is None else jac[0],
                           None if hess is None else hess[0])
    return FieldSample(e, jac, hess)
