"""First-order motional sidebands of a harmonically trapped atom.

The transition strength is Taylor-expanded to first order around the trap
center: the carrier keeps the zeroth-order term, the first-order term splits
into blue/raising and red/lowering sidebands with the familiar sqrt(n+1) and
sqrt(n) matrix elements of the mode's ladder operators scaled by the
zero-point length of that mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beams import BeamSpec, FieldSample, field_sample_upto
from .constants import ATOMIC_MASS, HBAR
from .coupling import Geometry, TransitionSpec, relative_strength, strength_gradient

__all__ = [
    "TrapSpec",
    "SidebandRequest",
    "zero_point_length",
    "lamb_dicke",
    "mu_derivative",
    "sideband_strength",
    "sideband_strength_at",
]

_MODES = ("X", "Y", "Z")
_BRANCHES = ("carrier", "bsb", "rsb")


@dataclass(frozen=True, eq=False)
class TrapSpec:
    """Harmonic trap: mass, per-mode angular frequencies, axes, and center.

    `axes` rows are the orthonormal principal directions of modes X, Y, Z in
    the beam frame (identity by default: trap axes aligned with the beam).
    """

    mass: float
    frequencies: np.ndarray
    axes: np.ndarray = None
    center: np.ndarray = None

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.shape != (3,) or not np.all(freqs > 0.0):
            raise ValueError("frequencies must be three positive values")
        for omega in freqs:  # it raises unless z0 is finite and positive
            zero_point_length(self.mass, omega)
        axes = np.eye(3) if self.axes is None else np.asarray(self.axes, dtype=float)
        if axes.shape != (3, 3):
            raise ValueError("axes must be a 3x3 matrix of row vectors")
        if np.max(np.abs(axes @ axes.T - np.eye(3))) > 1e-12:
            raise ValueError("axes rows must be orthonormal to 1e-12")
        center = np.zeros(3) if self.center is None else np.asarray(self.center,
                                                                    dtype=float)
        if center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        for name, val in (("frequencies", freqs), ("axes", axes),
                          ("center", center)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "mass", float(self.mass))

    @staticmethod
    def from_lab_units(mass_amu: float, frequencies_mhz: Sequence[float],
                       axes=None, center=None) -> "TrapSpec":
        """Trap from atomic mass units and mode frequencies in MHz (omega/2pi).
        A frequency that overflows in SI units is infinite, which TrapSpec
        rejects: its zero-point length is 0.  A positive mass below about
        1.5e-297 amu underflows to 0 kg and is rejected here."""
        with np.errstate(over="ignore"):
            freqs = 2.0 * math.pi * 1e6 * np.asarray(frequencies_mhz,
                                                     dtype=float)
        mass = mass_amu * ATOMIC_MASS
        if mass_amu > 0.0 and mass == 0.0:
            raise ValueError(f"mass {mass_amu!r} amu underflows to 0 kg")
        return TrapSpec(mass, freqs, axes, center)

    def mode_index(self, mode: str) -> int:
        key = str(mode).upper()
        if key not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        return _MODES.index(key)


@dataclass(frozen=True)
class SidebandRequest:
    """One spectral line: trap mode, initial quantum number, branch."""

    mode: str
    n: int = 0
    branch: str = "carrier"

    def __post_init__(self):
        if str(self.mode).upper() not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "mode", str(self.mode).upper())
        if int(self.n) != self.n or self.n < 0:
            raise ValueError("n must be a non-negative integer")
        object.__setattr__(self, "n", int(self.n))
        if self.branch not in _BRANCHES:
            raise ValueError(f"branch must be one of {_BRANCHES}, got {self.branch!r}")


def zero_point_length(mass: float, omega: float) -> float:
    """Ground-state zero-point extent sqrt(hbar / 2 m omega), which must be a
    finite positive double: an infinite omega or mass gives 0, and a product
    2 m omega that underflows to 0 an infinite extent."""
    if not (mass > 0.0 and omega > 0.0):
        raise ValueError("mass and omega must be positive")
    product = 2.0 * float(mass) * float(omega)
    z0 = math.sqrt(HBAR / product) if product else math.inf
    if not 0.0 < z0 < math.inf:
        raise ValueError(f"zero-point length sqrt(hbar / 2 m omega) is {z0!r} "
                         f"m for m = {mass:g} kg, omega = {omega:g} rad/s; "
                         "it must be finite and positive")
    return z0


def lamb_dicke(kind: str, scale: float, mass: float, omega: float) -> float:
    """Lamb-Dicke parameter of a trap mode against a field length scale.

    kind 'longitudinal': `scale` is the wavenumber k, eta = k * z0.
    kind 'transverse':  `scale` is the beam waist w0, eta = sqrt(2)/w0 * z0.
    """
    if not scale > 0.0:
        raise ValueError("length scale must be positive")
    z0 = zero_point_length(mass, omega)
    if kind == "longitudinal":
        return scale * z0
    if kind == "transverse":
        return math.sqrt(2.0) / scale * z0
    raise ValueError(f"kind must be 'longitudinal' or 'transverse', got {kind!r}")


def _along(grad: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Directional derivative grad . direction over the trailing axis.

    einsum, not `@`: a complex-by-real matmul goes to BLAS, whose worker
    threads keep spinning after the call and take CPU from the scan's own
    chunk threads.
    """
    return np.einsum("...p,p->...", grad, direction)


def mu_derivative(spec: BeamSpec, center, direction, trans: TransitionSpec,
                  geom: Geometry = None) -> complex:
    """Directional derivative of the transition strength at a point."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
        raise ValueError("direction must be a unit vector")
    fs = field_sample_upto(spec, center, trans.multipole.field_order + 1)
    return _along(strength_gradient(fs, trans, geom), d)


def _ladder_factor(req: SidebandRequest) -> float:
    if req.branch == "bsb":
        return math.sqrt(req.n + 1.0)
    return math.sqrt(float(req.n))


def _line_order(req: SidebandRequest, trans: TransitionSpec) -> int:
    """Field order a line samples: its transition's for the carrier, one
    more for a sideband, whose first-order term is the strength's gradient."""
    return trans.multipole.field_order + (req.branch != "carrier")


def _line_strength(sample: Callable[[np.ndarray, int], FieldSample],
                   points: np.ndarray, trap: TrapSpec, req: SidebandRequest,
                   trans: TransitionSpec, geom: Geometry):
    """Carrier or sideband strength at `points`, plus its reference scale.

    `sample(points, order)` supplies the field samples, so the point and map
    paths share this one formula.  The reference is the peak modulus of the
    field block contracted, carried through the same factors as the values;
    a strength far below it is cancellation residue.
    """
    order = _line_order(req, trans)
    if req.branch == "carrier":
        fs = sample(points, order)
        vals = relative_strength(fs, trans, geom)
        return vals, fs.peak(order)
    factor = _ladder_factor(req)
    if factor == 0.0:
        # red sideband from the motional ground state: no lower state
        return np.zeros(points.shape[:-1], dtype=complex), 1.0
    idx = trap.mode_index(req.mode)
    z0 = zero_point_length(trap.mass, trap.frequencies[idx])
    fs = sample(points, order)
    grad = strength_gradient(fs, trans, geom)
    vals = _along(grad, trap.axes[idx]) * (z0 * factor)
    return vals, fs.peak(order) * z0 * factor


def sideband_strength_at(spec: BeamSpec, trap: TrapSpec, req: SidebandRequest,
                         trans: TransitionSpec, centers,
                         geom: Geometry = None) -> np.ndarray:
    """Carrier or sideband strength with the trap centered at each point."""
    pts = np.asarray(centers, dtype=float)
    sample = functools.partial(field_sample_upto, spec)
    return _line_strength(sample, pts, trap, req, trans, geom)[0]


def sideband_strength(spec: BeamSpec, trap: TrapSpec, req: SidebandRequest,
                      trans: TransitionSpec, geom: Geometry = None) -> complex:
    """Strength of the requested line with the trap at its own center."""
    return complex(sideband_strength_at(spec, trap, req, trans, trap.center, geom))
