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

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError
from .jets import Jet
from .special import hermite, laguerre

__all__ = [
    "LENGTH_RANGE",
    "LGMode",
    "HGMode",
    "ModeTerm",
    "BeamSpec",
    "FieldSample",
    "ProfileMemo",
    "field_components",
    "field_sample_upto",
    "make_radial_azimuthal",
]


# ---------------------------------------------------------------------------
# beam description

# Valid mode orders; the tests check profiles at these limits against
# arbitrary-precision values.  LG p is capped by the normalization:
# (p + |l|)! must stay below the largest double, i.e. p + |l| <= 170.
_LG_MAX_L = 80
_LG_MAX_P = 90
_HG_MAX_ORDER = 30

# Valid lengths in meters: waist and wavelength lie in this range, and grid
# coordinates within +/- its upper end.  Inside it w0^2 and the Rayleigh
# length k w0^2 / 2, which the profiles divide by, are normal floats and
# squared coordinates cannot overflow.  The ends are 1e-12 and 1e12 um, as
# the micrometer values convert.
LENGTH_RANGE = (1e-12 * 1e-6, 1e12 * 1e-6)


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
        if abs(self.l) > _LG_MAX_L or self.p > _LG_MAX_P:
            raise ValueError(f"LG mode orders must satisfy |l| <= {_LG_MAX_L}"
                             f" and p <= {_LG_MAX_P}, got l={self.l}, p={self.p}")


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
        if self.m + self.n > _HG_MAX_ORDER:
            raise ValueError(f"HG mode orders must satisfy m + n <= "
                             f"{_HG_MAX_ORDER}, got m={self.m}, n={self.n}")


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

    def __post_init__(self):
        lo, hi = LENGTH_RANGE
        for name in ("wavelength", "waist"):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}] m, "
                                 f"got {value!r}")
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
           wavelength: float) -> "BeamSpec":
        term = ModeTerm(LGMode(l, p), sigma)
        return BeamSpec(((1.0 + 0.0j, term),), wavelength, waist)

    @staticmethod
    def hg(m: int, n: int, sigma: int = 1, *, waist: float,
           wavelength: float) -> "BeamSpec":
        term = ModeTerm(HGMode(m, n), sigma)
        return BeamSpec(((1.0 + 0.0j, term),), wavelength, waist)


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


def make_radial_azimuthal(kind: str, waist: float,
                          wavelength: float) -> BeamSpec:
    """Cylindrical vector beam: 'radial' or 'azimuthal' polarization."""
    if kind == "radial":
        terms = _radial_term(+1.0)
    elif kind == "azimuthal":
        terms = _radial_term(-1.0)
    else:
        raise ValueError(f"kind must be 'radial' or 'azimuthal', got {kind!r}")
    return BeamSpec(terms, wavelength, waist)


# ---------------------------------------------------------------------------
# scalar mode jets


def _coords(points: np.ndarray, order: int) -> Tuple[Jet, Jet, Jet]:
    """Jets of x, y and z over the float points (..., 3).

    A coordinate whose bits are equal at every point, such as z on a focal
    plane, gets its jet on the first point alone, of batch shape (1, ...,
    1).  Every jet built from it alone (the Gouy and curvature parameter,
    w0/w(z), the HG phase, the plane wave) then stays that small and is
    computed once; it broadcasts against the full-batch jets of the other
    coordinates (see `jets`), bit for bit as if copied out.  Bits, not ==,
    decide: a batch mixing +0.0 and -0.0, or NaN and numbers, keeps its
    full jet.
    """
    bits = points.reshape(-1, 3).view(np.uint64)
    same = (bits == bits[:1]).all(axis=0)
    first = points[(slice(0, 1),) * (points.ndim - 1)]
    return tuple(Jet.coordinate(first if same[i] else points, i, order)
                 for i in range(3))


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


def _rho2(x: Jet, y: Jet) -> Jet:
    """x^2 + y^2 of the coordinate jets x and y in closed form:
    g = (2x, 2y, 0), h = diag(2, 2, 0), t = 0."""
    val = x.val * x.val + y.val * y.val
    g = h = None
    if x.order >= 1:
        g = np.zeros((3,) + val.shape, dtype=complex)
        g[0] = x.val + x.val
        g[1] = y.val + y.val
    if x.order >= 2:
        h = np.zeros((3, 3) + val.shape, dtype=complex)
        h[0, 0] = h[1, 1] = 2.0
    return Jet(x.order, val, g, h)


def _lg_radial(al: int, p: int, waist: float, k: float, x: Jet, y: Jet,
               z: Jet) -> Jet:
    """Focused Laguerre-Gaussian profile without its vortex factor.

    LG(l, p) is this radial part times ((x +/- i y) sqrt(2)/w0)^|l|, so the
    terms LG(+l, p) and LG(-l, p) share it.  Written via the complex
    parameter u = 1/(1 + i z/zR): |u| carries the w0/w(z) amplitude decay,
    arg(u) one unit of axial phase slippage, and Re(u/w0^2) the Gaussian
    envelope with Im supplying wavefront curvature.  Every factor is an
    entire function of the coordinates, so the Taylor jet needs no branch
    handling.  For p = 0 the Laguerre factor is 1 and is left out.
    """
    zr = 0.5 * k * waist**2
    zeta = z * (1.0 / zr)
    u = (zeta * 1.0j + 1.0).reciprocal()
    rho2 = _rho2(x, y)

    # u^(|l|+1+p) * (1 - i zeta)^p  ==  (w0/w)^(|l|+1) e^{-i(|l|+2p+1) atan}
    f = u.ipow(al + 1 + p)
    if p:
        conj = zeta * (-1.0j) + 1.0
        # real-valued Laguerre argument 2 rho^2 / w(z)^2, kept as a complex jet
        arg = rho2 * (u * conj.reciprocal()) * (2.0 / waist**2)
        f = _laguerre_jet(p, al, arg) * (f * conj.ipow(p))
    envelope = (rho2 * u * (-1.0 / waist**2)).exp()

    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + al)))
    return f * envelope * norm


def _vortex(l: int, waist: float, x: Jet, y: Jet) -> Jet:
    # sqrt(2)/w0 goes into the base: its |l|-th power alone overflows a
    # double for large |l| when lengths are in meters
    base = (x + (1.0j if l >= 0 else -1.0j) * y) * (math.sqrt(2.0) / waist)
    return base.ipow(abs(l))


def _hg_jet(mode: HGMode, waist: float, k: float, x: Jet, y: Jet,
            z: Jet) -> Jet:
    """Focused Hermite-Gaussian profile (no plane-wave factor) as a jet.

    A zero order contributes H_0 = 1, which is left out.
    """
    m, n = mode.m, mode.n
    zr = 0.5 * k * waist**2

    zeta = z * (1.0 / zr)
    u = (zeta * 1.0j + 1.0).reciprocal()
    rho2 = _rho2(x, y)

    # u covers w0/w and one unit of axial phase; the remaining m+n units
    # are a pure phase built from arctan(zeta).
    factors = [u, (rho2 * u * (-1.0 / waist**2)).exp()]
    if m + n:
        # Hermite arguments sqrt(2) x / w(z); w(z)/w0 is a real sqrt jet
        winv = (zeta * zeta + 1.0).sqrt().reciprocal()
        scale = math.sqrt(2.0) / waist
        factors[:0] = [_hermite_jet(order, c * winv * scale)
                       for order, c in ((m, x), (n, y)) if order]
    # left to right: H_m H_n u envelope
    f = functools.reduce(operator.mul, factors)
    if m + n:
        f = f * (zeta.arctan() * (-1.0j * (m + n))).exp()

    norm = math.sqrt(2.0 / math.pi) / math.sqrt(
        2.0 ** (m + n) * math.factorial(m) * math.factorial(n))
    return f * norm


class ProfileMemo:
    """Scalar-profile jets and plane-wave factors built on one point set.

    Beams of a figure share modes: radial, azimuthal and lg:+/-1 beams are
    all made of LG(+/-1, 0) terms.  Passed to every `field_sample_upto` call
    on the same points, a memo builds each profile, LG radial part and
    plane-wave factor once, keyed by mode, waist and wavenumber, and serves
    it to every later term and beam; jets are never mutated, so sharing one
    leaves every result bitwise the same.  A radial part is dropped once
    both LG(+l, p) and LG(-l, p) are built.  It holds the jets of one points
    object (by identity; the points must not change while it serves them)
    and one field order: a call with other points or another order drops
    them, so it never keeps more than one order's jets.  A memo serves one
    thread at a time; a scan gives each chunk its own.  `built` and
    `reused` count the scalar profiles it built and served again.
    """

    def __init__(self):
        self.built = 0
        self.reused = 0
        self._on = None
        self.jets: Dict[tuple, Jet] = {}

    def use(self, points: np.ndarray, order: int) -> None:
        """Serve field order `order` on `points`, dropping any other jets."""
        if (self._on is None or self._on[0] is not points
                or self._on[1] != order):
            self._on = (points, order)
            self.jets = {}


def _profile(mode: Mode, waist: float, k: float,
             coords: Callable[[], Tuple[Jet, Jet, Jet]],
             memo: ProfileMemo) -> Jet:
    """Scalar profile (no plane-wave factor) of one mode as a jet.

    `memo` holds the profiles and LG radial parts already built on these
    points, keyed by (mode, waist, k) and ((|l|, p), waist, k): LG(+l, p)
    and LG(-l, p) share one radial part, which it holds only while one of
    the two is still to be built.  A missing jet is built from `coords()`
    and added to it.
    """
    key = (mode, waist, k)
    f = memo.jets.get(key)
    if f is not None:
        memo.reused += 1
        return f
    memo.built += 1
    x, y, z = coords()
    if isinstance(mode, LGMode):
        al, p = abs(mode.l), mode.p
        radial = memo.jets.pop(((al, p), waist, k), None)
        if radial is None:
            radial = _lg_radial(al, p, waist, k, x, y, z)
            if mode.l:
                memo.jets[(al, p), waist, k] = radial
        f = _vortex(mode.l, waist, x, y) * radial if mode.l else radial
    elif isinstance(mode, HGMode):
        f = _hg_jet(mode, waist, k, x, y, z)
    else:
        raise ConfigurationError(
            f"unsupported mode type {type(mode).__name__}")
    memo.jets[key] = f
    return f


def _as_points(point) -> Tuple[np.ndarray, bool]:
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1:] != (3,):
        raise ValueError("points must have trailing length-3 axis")
    single = pts.ndim == 1
    return (pts[None, :] if single else pts), single


# ---------------------------------------------------------------------------
# vector field assembly


def _field_jets(spec: BeamSpec, points: np.ndarray, order: int,
                memo: ProfileMemo) -> Tuple[Jet, Jet, Jet]:
    """Jets of (E_x, E_y, E_z) at the requested derivative order.

    The longitudinal part consumes one derivative of the scalar profile, so
    profiles are expanded one order deeper than the field jets returned.
    Profiles and the plane-wave factor come from `memo`, which a scan
    shares across the beams of one grid chunk: a term or beam with equal
    mode, waist and wavelength reuses what an earlier one built on these
    points, and every map is unchanged bit for bit.  The coordinate jets
    are built only if one of those jets is missing.
    """
    k = spec.wavenumber
    memo.use(points, order)
    coords = functools.cache(functools.partial(_coords, points, order + 1))
    # the traveling-wave factor enters here, once per term, never inside
    # the scalar profiles
    plane = memo.jets.get(("plane", k))
    if plane is None:
        plane = memo.jets["plane", k] = \
            (coords()[2].truncate(order) * (1.0j * k)).exp()

    ex = ey = ez = None
    for weight, term in spec.terms:
        f = _profile(term.mode, spec.waist, k, coords, memo)
        sig = term.sigma
        amp = weight / math.sqrt(2.0)

        fx = f.partial(0)
        fy = f.partial(1)
        wave = f.truncate(order) * plane

        tx = wave * amp
        ty = wave * (amp * 1.0j * sig)
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


def _batch_first(blocks, nderiv: int, batch: Tuple[int, ...]) -> np.ndarray:
    """Stack E_j derivative blocks (derivative axes first, as jets keep them)
    into one C-contiguous array: batch axes, derivative indices, then j.
    Blocks of batch 1 (all three coordinates constant) are copied out to
    `batch`."""
    arr = np.stack(blocks, axis=-1)
    if arr.shape[nderiv:-1] != batch:
        arr = np.broadcast_to(arr, arr.shape[:nderiv] + batch + (3,))
    return np.ascontiguousarray(arr.transpose(
        *range(nderiv, arr.ndim - 1), *range(nderiv), arr.ndim - 1))


def field_sample_upto(spec: BeamSpec, point, order: int,
                      profiles: Optional[ProfileMemo] = None) -> FieldSample:
    """Field plus derivatives up to `order` (0..2); deeper blocks are None.

    Evaluating only the depth actually consumed keeps large scans cheap:
    each extra derivative order roughly doubles the work per point.
    `profiles` lets calls on the same points array share scalar-profile
    jets (see ProfileMemo); without it the call builds its own.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    pts, single = _as_points(point)
    jets = _field_jets(spec, pts, order,
                       ProfileMemo() if profiles is None else profiles)
    batch = pts.shape[:-1]
    e = _batch_first([j.val for j in jets], 0, batch)
    jac = _batch_first([j.g for j in jets], 1, batch) if order >= 1 else None
    hess = _batch_first([j.h for j in jets], 2, batch) if order >= 2 else None
    if single:
        return FieldSample(e[0], None if jac is None else jac[0],
                           None if hess is None else hess[0])
    return FieldSample(e, jac, hess)
