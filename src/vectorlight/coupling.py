"""Relative electronic transition strengths from field values and gradients.

A transition of multipole order E1 couples to the field components, E2 to the
nine gradients d_i E_j.  Each allowed projection change dm has a fixed table
of complex slot coefficients; the relative strength is the Clebsch-Gordan
weighted contraction of the dm = m2 - m1 table with the sampled field.

Rotating the quantization axis away from the beam axis is implemented by
conjugating each coefficient table with the Cartesian rotation that carries
the beam frame onto the atom frame.  That is algebraically identical to
evaluating the unrotated tables against the field expressed in the atom
frame, which is also the independent oracle used in the tests.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .beams import BeamSpec, FieldSample, field_sample_upto
from .special import HalfInt, clebsch_gordan, halfint, rotation_matrix

__all__ = [
    "MAX_J",
    "Multipole",
    "TransitionSpec",
    "Geometry",
    "CouplingCoefficients",
    "coefficients_for",
    "rotate_coefficients",
    "relative_strength",
    "strength_gradient",
    "averaged_strength",
    "averaged_strength_rms",
]

MAX_J = 200  # Clebsch-Gordan sums are exact, and their cost grows with J


class Multipole(enum.Enum):
    """Multipole order and total-angular-momentum change of a transition."""

    E1 = "E1"
    E2_DJ1 = "E2_dJ1"
    E2_DJ2 = "E2_dJ2"

    @property
    def delta_j(self) -> int:
        return 2 if self is Multipole.E2_DJ2 else 1

    @property
    def field_order(self) -> int:
        """Derivative order of the field block the tables contract: E for E1,
        the jacobian d_i E_j for E2.  The strength's gradient needs one more."""
        return 0 if self is Multipole.E1 else 1

    @classmethod
    def parse(cls, text: str) -> "Multipole":
        key = text.strip().lower().replace("-", "_")
        for member in cls:
            if member.value.lower() == key or member.name.lower() == key:
                return member
        raise ValueError(f"unknown multipole {text!r}")


@dataclass(frozen=True)
class TransitionSpec:
    """Electronic transition |J1 m1> -> |J2 m2> of a given multipole order.

    J1 and J2 are at most MAX_J; projections must be valid for their J.
    Selection-rule violations (projection change out of range, triangle rule)
    are representable and evaluate to exactly zero strength, not an error.
    """

    J1: HalfInt
    m1: HalfInt
    J2: HalfInt
    m2: HalfInt
    multipole: Multipole

    def __post_init__(self):
        for name in ("J1", "m1", "J2", "m2"):
            object.__setattr__(self, name, halfint(getattr(self, name)))
        if max(self.J1, self.J2).twice > 2 * MAX_J:
            raise ValueError(f"J1={self.J1}, J2={self.J2}: J is at most {MAX_J}")
        if not self.m1.is_projection_of(self.J1):
            raise ValueError(f"m1={self.m1} is not a projection of J1={self.J1}")
        if not self.m2.is_projection_of(self.J2):
            raise ValueError(f"m2={self.m2} is not a projection of J2={self.J2}")
        if not isinstance(self.multipole, Multipole):
            object.__setattr__(self, "multipole", Multipole.parse(self.multipole))

    @property
    def delta_m(self) -> HalfInt:
        return self.m2 - self.m1

    def triangle_allowed(self) -> bool:
        tj1, tdj = self.J1.twice, 2 * self.multipole.delta_j
        return abs(tj1 - tdj) <= self.J2.twice <= tj1 + tdj


@dataclass(frozen=True, eq=False)
class Geometry:
    """Quantization-axis orientation: rotation by theta about a unit axis.

    theta = 0 leaves the quantization axis along the beam axis z; the default
    rotation axis is y, tilting the quantization axis within the x-z plane.
    """

    theta: float = 0.0
    axis: np.ndarray = None

    def __post_init__(self):
        axis = (0.0, 1.0, 0.0) if self.axis is None else self.axis
        a = np.asarray(axis, dtype=float)
        if a.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(a)
        if not math.isfinite(norm):
            raise ValueError("axis must have a finite norm")
        if norm == 0.0:
            raise ValueError("axis must be nonzero")
        a = a / norm
        a.flags.writeable = False
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "axis", a)

    def rotation(self) -> np.ndarray:
        return rotation_matrix(self.theta, self.axis)


def _readonly(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CouplingCoefficients:
    """Per-dm slot-coefficient tables of one multipole order.

    E1 tables are length-3 vectors over field components; E2 tables are 3x3
    matrices over gradient slots (i, j) meaning d_i E_j.  Tables are
    read-only; common radial prefactors are factored out since only relative
    strengths are meaningful.
    """

    multipole: Multipole
    channels: Mapping[int, np.ndarray]

    def __getitem__(self, dm: int) -> np.ndarray:
        return self.channels[dm]

    @property
    def delta_j(self) -> int:
        return self.multipole.delta_j


_SQRT2 = math.sqrt(2.0)
_I = 1.0j

_E1_TABLES = {
    +1: _readonly([1.0, -_I, 0.0]),
    0: _readonly([0.0, 0.0, _SQRT2]),
    -1: _readonly([1.0, +_I, 0.0]),
}

# gradient slot convention: row index i, column index j in d_i E_j
_E2_DJ1_TABLES = {
    +1: _readonly([[0, 0, 1], [0, 0, -_I], [-1, _I, 0]]),
    0: _readonly([[0, _I * _SQRT2, 0], [-_I * _SQRT2, 0, 0], [0, 0, 0]]),
    -1: _readonly([[0, 0, -1], [0, 0, -_I], [1, _I, 0]]),
}

_E2_DJ2_TABLES = {
    +2: _readonly([[1, -_I, 0], [-_I, -1, 0], [0, 0, 0]]),
    +1: _readonly([[0, 0, 1], [0, 0, -_I], [1, -_I, 0]]),
    0: _readonly(math.sqrt(2.0 / 3.0)
                 * np.array([[1, 0, 0], [0, 1, 0], [0, 0, 2.0]])),
    -1: _readonly([[0, 0, 1], [0, 0, _I], [1, _I, 0]]),
    -2: _readonly([[1, _I, 0], [_I, -1, 0], [0, 0, 0]]),
}

_STATIC_TABLES = {
    Multipole.E1: CouplingCoefficients(Multipole.E1, MappingProxyType(_E1_TABLES)),
    Multipole.E2_DJ1: CouplingCoefficients(Multipole.E2_DJ1,
                                           MappingProxyType(_E2_DJ1_TABLES)),
    Multipole.E2_DJ2: CouplingCoefficients(Multipole.E2_DJ2,
                                           MappingProxyType(_E2_DJ2_TABLES)),
}


def coefficients_for(multipole: Multipole) -> CouplingCoefficients:
    """Static slot-coefficient tables with the quantization axis along z."""
    return _STATIC_TABLES[multipole]


def rotate_coefficients(coeffs: CouplingCoefficients,
                        geom: Geometry) -> CouplingCoefficients:
    """Coefficient tables for a quantization axis rotated by the geometry.

    theta = 0 returns the input object unchanged, so unrotated evaluations
    are bit-identical to evaluations with the static tables.
    """
    if geom.theta == 0.0:
        return coeffs
    rot = geom.rotation()
    rotated = {}
    for dm, table in coeffs.channels.items():
        if table.ndim == 1:
            rotated[dm] = _readonly(rot @ table)
        else:
            rotated[dm] = _readonly(rot @ table @ rot.T)
    return CouplingCoefficients(coeffs.multipole, MappingProxyType(rotated))


def _selection(trans: TransitionSpec):
    """CG weight and integer dm of the only contributing channel, or None."""
    tdm, k = trans.m2.twice - trans.m1.twice, trans.multipole.delta_j
    if not trans.triangle_allowed() or tdm % 2 or abs(tdm) > 2 * k:
        return None
    cg = clebsch_gordan(trans.J1, trans.m1, k, tdm // 2, trans.J2, trans.m2)
    if cg == 0.0:
        return None
    return cg, tdm // 2


def _contract(block: np.ndarray, trans: TransitionSpec, geom: Geometry,
              free: str) -> np.ndarray:
    """CG-weighted contraction of a field block with the dm table.

    `free` names the leading derivative slots of `block` left uncontracted:
    '' for mu itself, 'p' for its gradient.
    """
    rank = trans.multipole.field_order + 1
    sel = _selection(trans)
    if sel is None:
        shape = block.shape[:block.ndim - len(free) - rank]
        return np.zeros(shape + (3,) * len(free), dtype=complex)
    cg, dmi = sel
    table = rotate_coefficients(coefficients_for(trans.multipole), geom)[dmi]
    slots = "ij"[2 - rank:]  # j over E_j, or ij over d_i E_j
    return cg * np.einsum(f"...{free}{slots},{slots}->...{free}", block, table)


def relative_strength(sample: FieldSample, trans: TransitionSpec,
                      geom: Geometry = None) -> np.ndarray:
    """Relative transition strength mu at the sampled point(s).

    Although formally a sum over all dm channels, the Clebsch-Gordan factor
    restricts it to the single channel dm = m2 - m1; selection-rule failures
    return exact zeros.
    """
    block = sample.block(trans.multipole.field_order)
    return _contract(block, trans, geom or Geometry(), "")


def strength_gradient(sample: FieldSample, trans: TransitionSpec,
                      geom: Geometry = None) -> np.ndarray:
    """Spatial gradient of mu, shape (..., 3); needs one extra field order."""
    block = sample.block(trans.multipole.field_order + 1)
    return _contract(block, trans, geom or Geometry(), "p")


# ---------------------------------------------------------------------------
# wavefunction averaging


@functools.lru_cache(maxsize=8)
def _gauss_hermite(order: int):
    """Read-only 1-D nodes and normalized 3-D product weights of one order."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    w3 = (weights[:, None, None] * weights[None, :, None]
          * weights[None, None, :]).ravel() * math.pi ** -1.5
    nodes.flags.writeable = w3.flags.writeable = False
    return nodes, w3


# the last cloud's (beam, key, sample): a beam is matched by identity and the
# rest by bits, and the sample serves every field order it holds a block of,
# so a hit returns exactly the blocks a new evaluation would.
# Threads read and replace the tuple whole, so they need no lock: at worst
# two of them each evaluate a cloud.
_held_cloud = None


def _cloud_sample(spec: BeamSpec, center, widths: np.ndarray, order: int,
                  field_order: int) -> FieldSample:
    """Field sample, with a `field_order` block, on the cloud's quadrature
    points.  The last cloud's sample is held and serves each later call on
    that cloud whose block it has."""
    global _held_cloud
    c = np.asarray(center, dtype=float)
    key = (c.shape, c.tobytes(), widths.tobytes(), order)
    held = _held_cloud
    if held is not None and held[0] is spec and held[1] == key \
            and held[2].block(field_order) is not None:
        return held[2]
    nodes = _gauss_hermite(order)[0]
    # |psi|^2 with per-axis RMS width s gives exp(-q^2 / 2 s^2): substitute
    # q = sqrt(2) s t to reach the Gauss-Hermite weight exp(-t^2)
    qx, qy, qz = np.meshgrid(*(math.sqrt(2.0) * widths[a] * nodes
                               for a in range(3)), indexing="ij")
    offs = np.stack([qx.ravel(), qy.ravel(), qz.ravel()], axis=-1)
    fs = field_sample_upto(spec, c + offs, field_order)
    _held_cloud = (spec, key, fs)
    return fs


def _quadrature_strengths(spec: BeamSpec, center, widths, trans: TransitionSpec,
                          geom: Geometry, order: int):
    """Gauss-Hermite weights and mu values over the thermal-state cloud."""
    if int(order) != order or order < 1:
        raise ValueError("quadrature order must be a positive integer")
    w = np.asarray(widths, dtype=float)
    if w.shape != (3,):
        raise ValueError("widths must be a per-axis triple")
    if np.any(w <= 0.0):
        raise ValueError("widths must be positive")
    order = int(order)
    fs = _cloud_sample(spec, center, w, order, trans.multipole.field_order)
    return _gauss_hermite(order)[1], relative_strength(fs, trans, geom)


def averaged_strength(spec: BeamSpec, center, widths, trans: TransitionSpec,
                      geom: Geometry = None, quadrature_order: int = 15) -> complex:
    """mu averaged over a separable Gaussian position distribution.

    `widths` are per-axis RMS widths of the wavepacket probability density.
    The field on the cloud's quadrature points is evaluated once for
    consecutive calls on one cloud (the same beam object, the same bits of
    `center` and `widths`, the same quadrature order), whatever their
    transition or geometry, unless a later call's multipole needs a deeper
    field order than the held sample has; only the last cloud is held.
    """
    w3, mu = _quadrature_strengths(spec, center, widths, trans,
                                   geom or Geometry(), quadrature_order)
    return complex(np.sum(w3 * mu))


def averaged_strength_rms(spec: BeamSpec, center, widths, trans: TransitionSpec,
                          geom: Geometry = None, quadrature_order: int = 15) -> float:
    """Root-mean-square of mu over the same distribution.

    Complements `averaged_strength` where odd symmetry makes the amplitude
    average vanish identically (e.g. at a vortex center) while the cloud
    still overlaps regions of finite strength.  Called after
    `averaged_strength` on the same cloud, or before it, it reuses that
    call's field sample.
    """
    w3, mu = _quadrature_strengths(spec, center, widths, trans,
                                   geom or Geometry(), quadrature_order)
    return float(math.sqrt(np.sum(w3 * np.abs(mu) ** 2)))
