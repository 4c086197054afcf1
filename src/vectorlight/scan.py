"""Grid scans of field and transition observables over a focal plane.

An observable maps a batch of points to complex values and also reports a
reference magnitude used to decide whether a map is identically zero.  Raw
moduli are normalized by their global maximum, which is recorded as the map's
scale factor; a map whose largest modulus is negligible against the reference
(pure cancellation residue, e.g. the longitudinal component of an azimuthal
beam) is stored as an exact zero map with scale factor 0.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beams import BeamSpec, _circular, field_sample_upto
from .coupling import Geometry, TransitionSpec, relative_strength
from .errors import ConfigurationError, NumericalError
from .motion import SidebandRequest, TrapSpec, _line_strength, lamb_dicke

__all__ = [
    "FieldComponentObservable",
    "TransitionObservable",
    "SidebandObservable",
    "ScanConfig",
    "MapDataset",
    "run_scan",
    "run_scans",
    "compare_maps",
]

# a map whose peak modulus is below this fraction of the observable's
# reference magnitude is reported as identically zero
ZERO_FLOOR = 1e-13

_CHUNK = 8192

_COMPONENTS = ("sigma_plus", "sigma_minus", "z")


class _ChunkSampleCache:
    """Field samples shared by observables evaluating one chunk of points.

    Several maps of the same figure column (one beam, many transition
    channels) consume an identical FieldSample; caching it per chunk removes
    the dominant cost without changing any computed value.
    """

    def __init__(self, capacity: int = 6):
        self._capacity = capacity
        self._store = {}

    def sample(self, beam: BeamSpec, pts: np.ndarray, order: int):
        key = (id(beam), order)
        hit = self._store.get(key)
        if hit is not None and hit[0] is pts:
            return hit[1]
        fs = field_sample_upto(beam, pts, order)
        if len(self._store) >= self._capacity:
            self._store.pop(next(iter(self._store)))
        self._store[key] = (pts, fs)
        return fs


def _sample(cache: Optional[_ChunkSampleCache], beam: BeamSpec,
            pts: np.ndarray, order: int):
    if cache is None:
        return field_sample_upto(beam, pts, order)
    return cache.sample(beam, pts, order)


@dataclass(frozen=True, eq=False)
class FieldComponentObservable:
    """Modulus map source for one longitudinal or circular field component."""

    beam: BeamSpec
    component: str

    def __post_init__(self):
        if not isinstance(self.beam, BeamSpec):
            raise ConfigurationError("field observable needs a BeamSpec")
        if self.component not in _COMPONENTS:
            raise ConfigurationError(
                f"component must be one of {_COMPONENTS}, got {self.component!r}")

    @property
    def name(self) -> str:
        return f"field:{self.component}"

    def evaluate(self, points: np.ndarray,
                 cache: Optional[_ChunkSampleCache] = None
                 ) -> Tuple[np.ndarray, float]:
        e = _sample(cache, self.beam, points, 0).electric
        return _circular(e)[self.component], float(np.max(np.abs(e)))


@dataclass(frozen=True, eq=False)
class TransitionObservable:
    """Relative transition strength mu over the grid."""

    beam: BeamSpec
    transition: TransitionSpec
    geometry: Geometry = None

    def __post_init__(self):
        if not isinstance(self.beam, BeamSpec):
            raise ConfigurationError("transition observable needs a BeamSpec")
        if not isinstance(self.transition, TransitionSpec):
            raise ConfigurationError("transition observable needs a TransitionSpec")
        if self.geometry is None:
            object.__setattr__(self, "geometry", Geometry())

    @property
    def name(self) -> str:
        t = self.transition
        return f"mu:dm={float(t.delta_m):+g}:{t.multipole.value}"

    def evaluate(self, points: np.ndarray,
                 cache: Optional[_ChunkSampleCache] = None
                 ) -> Tuple[np.ndarray, float]:
        order = self.transition.multipole.field_order
        fs = _sample(cache, self.beam, points, order)
        mu = relative_strength(fs, self.transition, self.geometry)
        # scale of the raw field data entering the contraction; a peak far
        # below it can only be cancellation residue
        return mu, float(np.max(np.abs(fs.block(order))))


@dataclass(frozen=True, eq=False)
class SidebandObservable:
    """Carrier or first sideband strength with the trap centered per point.

    With `eta_rescale`, sideband maps are divided by the Lamb-Dicke parameter
    of the addressed mode (transverse for X/Y against the waist, longitudinal
    for Z against the wavenumber) so carrier and sideband maps share an
    order-unity scale.
    """

    beam: BeamSpec
    trap: TrapSpec
    request: SidebandRequest
    transition: TransitionSpec
    geometry: Geometry = None
    eta_rescale: bool = False

    def __post_init__(self):
        if not isinstance(self.beam, BeamSpec):
            raise ConfigurationError("sideband observable needs a BeamSpec")
        if not isinstance(self.trap, TrapSpec):
            raise ConfigurationError("sideband observable needs a TrapSpec")
        if not isinstance(self.request, SidebandRequest):
            raise ConfigurationError("sideband observable needs a SidebandRequest")
        if not isinstance(self.transition, TransitionSpec):
            raise ConfigurationError("sideband observable needs a TransitionSpec")
        if self.geometry is None:
            object.__setattr__(self, "geometry", Geometry())

    @property
    def name(self) -> str:
        r = self.request
        return f"sideband:{r.branch}:{r.mode}:n={r.n}"

    def _eta(self) -> float:
        idx = self.trap.mode_index(self.request.mode)
        omega = self.trap.frequencies[idx]
        if self.request.mode == "Z":
            return lamb_dicke("longitudinal", self.beam.wavenumber,
                              self.trap.mass, omega)
        return lamb_dicke("transverse", self.beam.waist, self.trap.mass, omega)

    def evaluate(self, points: np.ndarray,
                 cache: Optional[_ChunkSampleCache] = None
                 ) -> Tuple[np.ndarray, float]:
        sample = functools.partial(_sample, cache, self.beam)
        vals, ref = _line_strength(sample, points, self.trap, self.request,
                                   self.transition, self.geometry)
        if self.eta_rescale and self.request.branch != "carrier":
            eta = self._eta()
            vals = vals / eta
            ref = ref / eta
        return vals, ref


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """Rectangular focal-plane grid plus the observable to map over it.

    `extent` is (x_min, x_max, y_min, y_max); grid nodes sit at cell centers
    so refining the resolution never evaluates exactly on the domain edge.
    """

    observable: object
    extent: Tuple[float, float, float, float]
    resolution: Tuple[int, int] = (256, 256)
    z_plane: float = 0.0
    store_complex: bool = False

    def __post_init__(self):
        ext = tuple(float(v) for v in self.extent)
        if len(ext) != 4:
            raise ConfigurationError("extent must be (x_min, x_max, y_min, y_max)")
        if not (ext[1] > ext[0] and ext[3] > ext[2]):
            raise ConfigurationError("extent must have x_max > x_min, y_max > y_min")
        res = tuple(int(v) for v in self.resolution)
        if len(res) != 2 or res[0] < 2 or res[1] < 2:
            raise ConfigurationError("resolution must be two integers >= 2")
        if not hasattr(self.observable, "evaluate"):
            raise ConfigurationError("observable must provide evaluate(points)")
        object.__setattr__(self, "extent", ext)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "z_plane", float(self.z_plane))

    def x_centers(self) -> np.ndarray:
        x0, x1, _, _ = self.extent
        nx = self.resolution[0]
        dx = (x1 - x0) / nx
        return x0 + dx * (np.arange(nx) + 0.5)

    def y_centers(self) -> np.ndarray:
        _, _, y0, y1 = self.extent
        ny = self.resolution[1]
        dy = (y1 - y0) / ny
        return y0 + dy * (np.arange(ny) + 0.5)

    def grid_points(self) -> np.ndarray:
        xs = self.x_centers()
        ys = self.y_centers()
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(),
                         np.full(gx.size, self.z_plane)], axis=-1)


@dataclass(frozen=True, eq=False)
class MapDataset:
    """Normalized map values with the scale and grid needed to reread them.

    `values` has shape (nx, ny) indexed [ix, iy]; it holds moduli normalized
    to peak 1 (or complex values of unit peak modulus when the scan stored
    complex data).  `scale_factor` restores physical magnitudes; 0 marks an
    identically-zero map.
    """

    values: np.ndarray
    scale_factor: float
    x_centers: np.ndarray
    y_centers: np.ndarray
    z_plane: float
    observable_name: str
    config: ScanConfig

    def same_grid(self, other: "MapDataset") -> bool:
        return (self.values.shape == other.values.shape
                and np.array_equal(self.x_centers, other.x_centers)
                and np.array_equal(self.y_centers, other.y_centers)
                and self.z_plane == other.z_plane)


def _finalize(config: ScanConfig, vals: np.ndarray, reference: float) -> MapDataset:
    if not np.all(np.isfinite(vals.view(float))):
        raise NumericalError(
            f"non-finite values in scan of {getattr(config.observable, 'name', '?')}")
    moduli = np.abs(vals)
    peak = float(np.max(moduli))
    if peak <= ZERO_FLOOR * reference or peak == 0.0:
        scale = 0.0
        out = np.zeros(config.resolution,
                       dtype=complex if config.store_complex else float)
    else:
        scale = peak
        flat = (vals / scale) if config.store_complex else (moduli / scale)
        out = flat.reshape(config.resolution)
    out.flags.writeable = False
    return MapDataset(
        values=out,
        scale_factor=scale,
        x_centers=config.x_centers(),
        y_centers=config.y_centers(),
        z_plane=config.z_plane,
        observable_name=getattr(config.observable, "name", "observable"),
        config=config,
    )


def _accepts_cache(observable) -> bool:
    try:
        return "cache" in inspect.signature(observable.evaluate).parameters
    except (TypeError, ValueError):
        return False


def run_scans(configs: Sequence[ScanConfig],
              chunk_size: int = _CHUNK) -> List[MapDataset]:
    """Run several scans, reusing field evaluations across same-grid maps.

    Scans sharing a grid are walked chunk by chunk together so observables
    built on the same beam draw on one field evaluation.  Results are
    bitwise identical to running each scan alone, in the input order.
    """
    configs = list(configs)
    out: List[MapDataset] = [None] * len(configs)
    groups: Dict[tuple, List[int]] = {}
    for i, cfg in enumerate(configs):
        key = (cfg.extent, cfg.resolution, cfg.z_plane)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        pts = configs[members[0]].grid_points()
        n = pts.shape[0]
        vals = {i: np.empty(n, dtype=complex) for i in members}
        refs = {i: 0.0 for i in members}
        cached = {i: _accepts_cache(configs[i].observable) for i in members}
        for start in range(0, n, chunk_size):
            chunk = pts[start:start + chunk_size]
            cache = _ChunkSampleCache()
            for i in members:
                obs = configs[i].observable
                v, r = obs.evaluate(chunk, cache) if cached[i] \
                    else obs.evaluate(chunk)
                vals[i][start:start + v.shape[0]] = v
                refs[i] = max(refs[i], r)
        for i in members:
            out[i] = _finalize(configs[i], vals[i], refs[i])
    return out


def run_scan(config: ScanConfig, chunk_size: int = _CHUNK) -> MapDataset:
    """Evaluate the observable at every cell center and normalize the map."""
    return run_scans([config], chunk_size)[0]


def compare_maps(a: MapDataset, b: MapDataset) -> Dict[str, float]:
    """Elementwise statistics between two maps on the identical grid."""
    if not a.same_grid(b):
        raise ConfigurationError("maps are on different grids")
    diff = np.abs(a.values - b.values)
    return {
        "max_abs_diff": float(np.max(diff)),
        "rms_diff": float(math.sqrt(np.mean(diff**2))),
    }
