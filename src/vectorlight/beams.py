"""Non-paraxial monochromatic vector beams built from focused scalar modes.

A beam is a weighted sum of (scalar mode, circular polarization) terms.  Each
term contributes a transverse field proportional to the scalar profile and a
longitudinal component obtained from the transverse gradient of that profile,
so the total field is divergence-free to the order kept here (first order in
the focusing parameter 1/(k w0)).

Scalar profiles are evaluated as truncated Taylor jets (see `jets`), which
makes analytic spatial derivatives of the full vector field available up to
the second order needed by gradient-coupled transitions and sidebands.
Each profile jet is the travelling profile f exp(ikz): on a focal-plane
batch the factors of z alone, the plane wave among them, are multiplied
together on one point before any factor of x and y, so no field sample
multiplies the full batch by the plane wave.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

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

    The blocks of a `field_sample_upto` sample are read-only, so one sample
    can be handed to several consumers.
    """

    electric: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray
    _peaks: Dict[int, float] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def block(self, order: int) -> np.ndarray:
        """Derivative block of the given order: 0 electric, 1 jacobian, 2 hessian."""
        return (self.electric, self.jacobian, self.hessian)[order]

    def peak(self, order: int) -> float:
        """Largest modulus in block(order), 0.0 for an empty block, computed
        once per sample."""
        peak = self._peaks.get(order)
        if peak is None:
            peak = float(np.max(np.abs(self.block(order)), initial=0.0))
            self._peaks[order] = peak
        return peak


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


def _grid_axes(points: np.ndarray):
    """The points (..., 3) as a tensor grid, or None if they are not one.

    Returns points of shapes (r, 1, 1, 3), (1, c, 1, 3) and (1, 1, d, 3)
    whose x, y and z, combined in C order, are the flattened points bit for
    bit: x is equal over runs of c d points, y over runs of d.  Points that
    repeat are a grid too (N identical points are 1 x 1 x N), as bits
    decide; a single point is not looked at.
    """
    pts = points.reshape(-1, 3)
    n = pts.shape[0]
    if n < 2:
        return None
    bits = pts.view(np.uint64)
    new_x = bits[:, 0] != bits[0, 0]
    # the first point with another x, and with another x or y (0: none)
    cd = int(new_x.argmax()) or n
    d = int((new_x | (bits[:, 1] != bits[0, 1])).argmax()) or n
    if n % cd or cd % d:
        return None
    g = bits.reshape(n // cd, cd // d, d, 3)
    grid = ((g[..., 0] == g[:, :1, :1, 0]).all()
            and (g[..., 1] == g[:1, :, :1, 1]).all()
            and (g[..., 2] == g[:1, :1, :, 2]).all())
    if not grid:
        return None
    p = pts.reshape(g.shape)
    return p[:, :1, :1], p[:1, :, :1], p[:1, :1, :]


def _coords(points: np.ndarray, order: int) -> Tuple[Jet, Jet, Jet]:
    """Jets of x, y and z over the float points (..., 3), each on as few
    points as the batch allows.

    Points that form a tensor grid in C order (see `_grid_axes`: whole rows
    of a focal-plane scan, a Gauss-Hermite cloud, repeated points) give x
    on batch shape (r, 1, 1), y on (1, c, 1) and z on (1, 1, d); other
    points keep x, y and z on their own batch.  A jet built from one
    coordinate alone (the Gouy and curvature parameter, w0/w(z), the HG
    phase, the plane wave, an HG profile's H_m(sqrt(2) x / w)) then stays
    that small and is computed once per value of its coordinate, not once
    per point; it broadcasts against the jets of the other coordinates (see
    `jets`), bit for bit as if copied out.  Bits, not ==, decide: +0.0 and
    -0.0, or NaN and numbers, are two values.
    """
    axes = _grid_axes(points) or (points,) * 3
    return tuple(Jet.coordinate(axes[i], i, order) for i in range(3))


def _laguerre_jet(p: int, alpha: int, arg: Jet) -> Jet:
    # d^k L_p^a/dx^k = (-1)^k L_{p-k}^{a+k}; a degree below zero contributes
    # zeros (not a sign times zeros, which could be -0.0)
    return arg.compose(*(
        (-1.0) ** k * laguerre(p - k, alpha + k, arg.val) if k <= p
        else np.zeros_like(arg.val) for k in range(arg.order + 1)))


def _hermite_jet(n: int, arg: Jet) -> Jet:
    # d^k H_n/dx^k = 2^k n!/(n-k)! H_{n-k}, the factor exact for n <= 30; a
    # degree below zero contributes zeros
    return arg.compose(*(
        2.0 ** k * math.perm(n, k) * hermite(n - k, arg.val) if k <= n
        else np.zeros_like(arg.val) for k in range(arg.order + 1)))


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


def _gaussian(waist: float, k: float, order: int, x: Jet, y: Jet, z: Jet,
              memo: "ProfileMemo") -> Tuple[Jet, Jet, Jet, Jet]:
    """zeta = z/zR, u = 1/(1 + i zeta), the plane wave exp(ikz) and the
    envelope exp(-rho^2 u / w0^2).

    |u| carries the w0/w(z) amplitude decay, arg(u) one unit of axial phase
    slippage, and Re(u/w0^2) the Gaussian envelope with Im supplying
    wavefront curvature.  All but the envelope depend on z alone.  LG and
    HG profiles of one waist and wavenumber share the envelope, and those
    of one wavenumber the plane wave, which `memo` holds.
    """
    zr = 0.5 * k * waist**2
    zeta = z * (1.0 / zr)
    u = (zeta * 1.0j + 1.0).reciprocal()
    plane = memo.jet(("plane", k), order, lambda: (z * (1.0j * k)).exp())
    envelope = memo.jet(("envelope", waist, k), order,
                        lambda: (_rho2(x, y) * (u * (-1.0 / waist**2))).exp())
    return zeta, u, plane, envelope


def _lg_radial(al: int, p: int, waist: float, x: Jet, y: Jet, zeta: Jet,
               u: Jet, plane: Jet, envelope: Jet) -> Jet:
    """Focused Laguerre-Gaussian profile, plane wave included, without its
    vortex factor.

    LG(l, p) is this radial part times ((x +/- i y) sqrt(2)/w0)^|l|, so the
    terms LG(+l, p) and LG(-l, p) share it.  Every factor is an entire
    function of the coordinates, so the Taylor jet needs no branch
    handling.  The factors of z alone multiply before the envelope; for
    p = 0 the Laguerre factor is 1 and is left out.
    """
    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + al)))
    # u^(|l|+1+p) * (1 - i zeta)^p  ==  (w0/w)^(|l|+1) e^{-i(|l|+2p+1) atan}
    f = u.ipow(al + 1 + p) * plane * norm
    if p:
        conj = zeta * (-1.0j) + 1.0
        # real-valued Laguerre argument 2 rho^2 / w(z)^2, kept as a complex jet
        arg = _rho2(x, y) * (u * conj.reciprocal() * (2.0 / waist**2))
        f = _laguerre_jet(p, al, arg) * (f * conj.ipow(p))
    return f * envelope


def _vortex(l: int, waist: float, x: Jet, y: Jet) -> Jet:
    # sqrt(2)/w0 goes into the base: its |l|-th power alone overflows a
    # double for large |l| when lengths are in meters
    s = math.sqrt(2.0) / waist
    return (x * s + y * ((1.0j if l >= 0 else -1.0j) * s)).ipow(abs(l))


def _hg_jet(mode: HGMode, waist: float, x: Jet, y: Jet, zeta: Jet, u: Jet,
            plane: Jet, envelope: Jet) -> Jet:
    """Focused Hermite-Gaussian profile, plane wave included, as a jet.

    The factors of z alone multiply first, then H_m of x, H_n of y and the
    envelope; a zero order contributes H_0 = 1, which is left out.
    """
    m, n = mode.m, mode.n
    norm = math.sqrt(2.0 / math.pi) / math.sqrt(
        2.0 ** (m + n) * math.factorial(m) * math.factorial(n))
    # u covers w0/w and one unit of axial phase; the remaining m+n units
    # are a pure phase built from arctan(zeta).
    f = u * plane * norm
    if m + n:
        f = f * (zeta.arctan() * (-1.0j * (m + n))).exp()
        # s = sqrt(2)/w(z), a real jet: Hermite arguments are sqrt(2) x / w(z)
        s = (zeta * zeta + 1.0).sqrt().reciprocal() * (math.sqrt(2.0) / waist)
        # left to right: H_m f H_n
        if m:
            f = _hermite_jet(m, x * s) * f
        if n:
            f = f * _hermite_jet(n, y * s)
    return f * envelope


class ProfileMemo:
    """Travelling scalar-profile jets f exp(ikz) built on one point set.

    Beams of a figure share modes: radial, azimuthal and lg:+/-1 beams are
    all made of LG(+/-1, 0) terms, and LG and HG profiles of one waist and
    wavelength share the Gaussian envelope.  Passed to every
    `field_sample_upto` call on the same points, a memo builds each
    profile (plane wave included), LG radial part, envelope and plane-wave
    factor once, keyed by mode, waist and wavenumber, and serves it to
    every later term and beam;
    jets are never mutated, so sharing one leaves every result bitwise the
    same.  A radial part is dropped once both LG(+l, p) and LG(-l, p) are
    built.

    Each jet is kept at the deepest order built, and a lower field order is
    served its `truncate`: a jet's lower blocks never depend on its higher
    ones, so that is bitwise the jet a direct call builds.  A call needing
    a deeper jet than the memo holds builds it and replaces the shallower
    one, so callers that ask for their deepest order first (as a scan
    chunk does) build each jet once.  The memo holds the jets of one points
    object (by identity; the points must not change while it serves them):
    a call with other points drops them.  A memo serves one thread at a
    time; a scan gives each chunk its own.  `built` and `reused` count the
    scalar profiles it built and served again.
    """

    def __init__(self):
        self.built = 0
        self.reused = 0
        self._points = None
        self.jets: Dict[tuple, Jet] = {}

    def use(self, points: np.ndarray) -> None:
        """Serve `points`, dropping the jets of any other points."""
        if self._points is not points:
            self._points = points
            self.jets = {}

    def get(self, key, order: int, pop: bool = False) -> Optional[Jet]:
        """The jet held under `key` truncated to `order`, or None if none
        that deep is held; `pop` also removes it."""
        jet = (self.jets.pop if pop else self.jets.get)(key, None)
        if jet is None or jet.order < order:
            return None
        return jet if jet.order == order else jet.truncate(order)

    def jet(self, key, order: int, build: Callable[[], Jet]) -> Jet:
        """The jet under `key` at `order`, from `build()` if none that deep
        is held."""
        jet = self.get(key, order)
        if jet is None:
            jet = self.jets[key] = build()
        return jet


def _profile(mode: Mode, waist: float, k: float, order: int,
             coords: Callable[[], Tuple[Jet, Jet, Jet]],
             memo: ProfileMemo) -> Jet:
    """Travelling scalar profile f exp(ikz) of one mode as an `order` jet.

    The factors of one coordinate multiply together before the full batch
    does: the plane wave, the normalisation and the axial and Gouy phases
    of z alone (one value per focal plane), an HG profile's Hermite
    factors of x alone and of y alone, and only then the envelope and the
    vortex of x and y together.  `memo` holds the jets already built on
    these points, keyed by (mode, waist, k), ((|l|, p), waist, k),
    ("envelope", waist, k) and ("plane", k): LG(+l, p) and LG(-l, p) share
    one radial part, which it holds only while one of the two is still to
    be built, and every profile of one waist and wavenumber shares the
    envelope.  A missing jet is built from `coords()`, jets of this order,
    and added to it.
    """
    key = (mode, waist, k)
    f = memo.get(key, order)
    if f is not None:
        memo.reused += 1
        return f
    memo.built += 1
    x, y, z = coords()
    if isinstance(mode, LGMode):
        al, p = abs(mode.l), mode.p
        radial = memo.get(((al, p), waist, k), order, pop=True)
        if radial is None:
            radial = _lg_radial(al, p, waist, x, y,
                                *_gaussian(waist, k, order, x, y, z, memo))
            if mode.l:
                memo.jets[(al, p), waist, k] = radial
        f = _vortex(mode.l, waist, x, y) * radial if mode.l else radial
    else:
        f = _hg_jet(mode, waist, x, y,
                    *_gaussian(waist, k, order, x, y, z, memo))
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
    Each profile F = f exp(ikz) already carries the plane wave, which has no
    x or y dependence, so d_x F = (d_x f) exp(ikz): the field is F and its
    transverse gradient times constants, with no product of jets.
    Profiles come from `memo`, which a scan shares across the beams of one
    grid chunk: a term or beam with equal mode, waist and wavelength reuses
    what an earlier one built on these points, and every map is unchanged
    bit for bit.  The coordinate jets are built only if a profile is
    missing.
    """
    k = spec.wavenumber
    memo.use(points)
    coords = functools.cache(functools.partial(_coords, points, order + 1))

    ex = ey = ez = None
    for weight, term in spec.terms:
        f = _profile(term.mode, spec.waist, k, order + 1, coords, memo)
        sig = term.sigma
        amp = weight / math.sqrt(2.0)

        wave = f.truncate(order)
        tx = wave * amp
        ty = wave * (amp * 1.0j * sig)
        tz = (f.partial(0) + f.partial(1) * (1.0j * sig)) * (amp * 1.0j / k)

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


def _batch_first(blocks, nderiv: int, batch: Tuple[int, ...],
                 grid: Tuple[int, ...]) -> np.ndarray:
    """Write E_j derivative blocks (derivative axes first, as jets keep them)
    into one C-contiguous array, in one copy: batch axes, derivative
    indices, then j.  `grid` is the blocks' batch shape, the points' grid
    shape (see `_coords`) or their batch: a view of that shape fills the
    points in C order, and a block smaller than it broadcasts."""
    tail = (3,) * nderiv
    out = np.empty(batch + tail + (3,), dtype=complex)
    # derivative axes first, as the blocks have them
    n = len(grid)
    view = out.reshape(grid + tail + (3,)).transpose(
        *range(n, n + nderiv), *range(n), n + nderiv)
    for j, b in enumerate(blocks):
        view[..., j] = b
    return out


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
    grid = np.broadcast_shapes(*(j.val.shape for j in jets))
    blocks = [_batch_first(b, k, batch, grid)
              for k, b in enumerate(zip(*(j.blocks for j in jets)))]
    if single:
        blocks = [b[0] for b in blocks]
    for b in blocks:
        b.flags.writeable = False
    return FieldSample(*blocks, *(None,) * (2 - order))
