"""Grid scans of field and transition observables over a focal plane.

An observable maps a batch of points to complex values and also reports a
reference magnitude used to decide whether a map is identically zero.  Raw
moduli are normalized by their global maximum, which is recorded as the map's
scale factor; a map whose largest modulus is negligible against the reference
(pure cancellation residue, e.g. the longitudinal component of an azimuthal
beam) is stored as an exact zero map with scale factor 0.

The maps of one grid are evaluated together chunk by chunk, each chunk whole
grid rows.  Within a chunk they share one `beams.ProfileMemo`: the latest
field sample, served again to every map of the same beam and order, and
the scalar profiles, shared across beams with equal mode, waist and
wavelength and across field orders.  Maps are the same bit for bit as when
each is scanned alone.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import logging
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

# field_sample_upto is not called here (ProfileMemo.sample calls it), but
# perfbench/test_perfbench.py checks that its tracer wraps this binding
from .beams import (LENGTH_RANGE, BeamSpec, ProfileMemo, _circular,
                    field_sample_upto)
from .coupling import Geometry, TransitionSpec, relative_strength
from .errors import ConfigurationError, NumericalError
from .motion import (SidebandRequest, TrapSpec, _line_order, _line_strength,
                     lamb_dicke)

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

# points per chunk: two chunks in flight need less memory than one chunk of
# 8192 did, which leaves room for a caller still holding its previous maps
_CHUNK = 3072

# Largest grid, in cells.  A scan holds 8 B per cell per map, its chunks
# building their own points, and its chunks' working set of a few MB: by
# tracemalloc 27 B per cell for 3 maps and 47 B for 5 at 1024 x 1024, so
# about 0.4 to 0.7 GB at this size.
MAX_GRID_CELLS = 4096 * 4096

_log = logging.getLogger(__name__)

_COMPONENTS = ("sigma_plus", "sigma_minus", "z")


def _require(kind: str, *pairs) -> None:
    """Raise ConfigurationError unless each (value, class) pair matches."""
    for value, cls in pairs:
        if not isinstance(value, cls):
            raise ConfigurationError(
                f"{kind} observable needs a {cls.__name__}")


@dataclass(frozen=True, eq=False)
class FieldComponentObservable:
    """Modulus map source for one longitudinal or circular field component."""

    beam: BeamSpec
    component: str
    field_order: ClassVar[int] = 0

    def __post_init__(self):
        _require("field", (self.beam, BeamSpec))
        if self.component not in _COMPONENTS:
            raise ConfigurationError(
                f"component must be one of {_COMPONENTS}, got {self.component!r}")

    @property
    def name(self) -> str:
        return f"field:{self.component}"

    def evaluate(self, points: np.ndarray,
                 cache: Optional[ProfileMemo] = None
                 ) -> Tuple[np.ndarray, float]:
        fs = (cache or ProfileMemo()).sample(self.beam, points, 0)
        return _circular(fs.electric)[self.component], fs.peak(0)


@dataclass(frozen=True, eq=False)
class TransitionObservable:
    """Relative transition strength mu over the grid."""

    beam: BeamSpec
    transition: TransitionSpec
    geometry: Geometry = None

    def __post_init__(self):
        _require("transition", (self.beam, BeamSpec),
                 (self.transition, TransitionSpec))
        object.__setattr__(self, "geometry", self.geometry or Geometry())

    @property
    def name(self) -> str:
        t = self.transition
        return f"mu:dm={float(t.delta_m):+g}:{t.multipole.value}"

    @property
    def field_order(self) -> int:
        return self.transition.multipole.field_order

    def evaluate(self, points: np.ndarray,
                 cache: Optional[ProfileMemo] = None
                 ) -> Tuple[np.ndarray, float]:
        order = self.field_order
        fs = (cache or ProfileMemo()).sample(self.beam, points, order)
        mu = relative_strength(fs, self.transition, self.geometry)
        # scale of the raw field data entering the contraction; a peak far
        # below it can only be cancellation residue
        return mu, fs.peak(order)


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
        _require("sideband", (self.beam, BeamSpec), (self.trap, TrapSpec),
                 (self.request, SidebandRequest),
                 (self.transition, TransitionSpec))
        object.__setattr__(self, "geometry", self.geometry or Geometry())

    @property
    def name(self) -> str:
        r = self.request
        return f"sideband:{r.branch}:{r.mode}:n={r.n}"

    @property
    def field_order(self) -> int:
        return _line_order(self.request, self.transition)

    def _eta(self) -> float:
        idx = self.trap.mode_index(self.request.mode)
        omega = self.trap.frequencies[idx]
        if self.request.mode == "Z":
            return lamb_dicke("longitudinal", self.beam.wavenumber,
                              self.trap.mass, omega)
        return lamb_dicke("transverse", self.beam.waist, self.trap.mass, omega)

    def evaluate(self, points: np.ndarray,
                 cache: Optional[ProfileMemo] = None
                 ) -> Tuple[np.ndarray, float]:
        sample = functools.partial((cache or ProfileMemo()).sample,
                                   self.beam)
        vals, ref = _line_strength(sample, points, self.trap, self.request,
                                   self.transition, self.geometry)
        if self.eta_rescale and self.request.branch != "carrier":
            eta = self._eta()
            vals = vals / eta
            ref = ref / eta
        return vals, ref


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centres of the n equal cells between lo and hi."""
    return lo + (hi - lo) / n * (np.arange(n) + 0.5)


def _points(axes, start: int, stop: int) -> np.ndarray:
    """Points start..stop-1, as an (n, 3) array, of the grid of `axes` (x
    centres, y centres, z plane) in row-major order, y fastest."""
    xs, ys, z = axes
    index = np.arange(start, stop)
    return np.stack([xs[index // ys.size], ys[index % ys.size],
                     np.full(index.size, z)], axis=-1)


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """Rectangular focal-plane grid plus the observable to map over it.

    `extent` is (x_min, x_max, y_min, y_max); grid nodes sit at cell centers
    so refining the resolution never evaluates exactly on the domain edge.
    `resolution` is two integers >= 2 (a float equal to an integer counts),
    a grid has at most MAX_GRID_CELLS cells, and its coordinates lie within
    +/- the upper end of beams.LENGTH_RANGE.
    """

    observable: object
    extent: Tuple[float, float, float, float]
    resolution: Tuple[int, int] = (256, 256)
    z_plane: float = 0.0
    store_complex: bool = False

    def __post_init__(self):
        try:
            ext = tuple(float(v) for v in self.extent)
        except (TypeError, ValueError):
            ext = ()
        if len(ext) != 4:
            raise ConfigurationError("extent must be (x_min, x_max, y_min, y_max)")
        if not (ext[1] > ext[0] and ext[3] > ext[2]):
            raise ConfigurationError("extent must have x_max > x_min, y_max > y_min")
        bound = LENGTH_RANGE[1]
        if not all(abs(v) <= bound for v in ext + (float(self.z_plane),)):
            raise ConfigurationError(
                f"extent and z_plane must lie within +/-{bound:g} m")
        res = tuple(self.resolution) if np.iterable(self.resolution) else ()
        if len(res) != 2 or not all(
                isinstance(v, numbers.Integral) or isinstance(v, numbers.Real)
                and float(v).is_integer() for v in res) or min(res) < 2:
            raise ConfigurationError("resolution must be two integers >= 2")
        res = tuple(int(v) for v in res)
        if res[0] * res[1] > MAX_GRID_CELLS:
            raise ConfigurationError(
                f"resolution {res[0]}x{res[1]} is more than {MAX_GRID_CELLS} "
                "cells")
        if not hasattr(self.observable, "evaluate"):
            raise ConfigurationError("observable must provide evaluate(points)")
        object.__setattr__(self, "extent", ext)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "z_plane", float(self.z_plane))

    def x_centers(self) -> np.ndarray:
        return _centers(*self.extent[:2], self.resolution[0])

    def y_centers(self) -> np.ndarray:
        return _centers(*self.extent[2:], self.resolution[1])

    def grid_points(self) -> np.ndarray:
        nx, ny = self.resolution
        return _points((self.x_centers(), self.y_centers(), self.z_plane),
                       0, nx * ny)


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
    """Normalize a map's values (complex for store_complex maps, else moduli).

    `vals` is the scan's own buffer: it is divided, or zeroed, in place and
    becomes the map, so a finished map costs no second copy of the grid.
    """
    name = getattr(config.observable, "name", "observable")
    if not np.all(np.isfinite(vals.view(float))):
        raise NumericalError(f"non-finite values in scan of {name}")
    moduli = np.abs(vals) if config.store_complex else vals
    peak = float(np.max(moduli))
    if peak <= ZERO_FLOOR * reference or peak == 0.0:
        scale = 0.0
        vals.fill(0.0)
    else:
        scale = peak
        vals /= scale
    out = vals.reshape(config.resolution)
    out.flags.writeable = False
    return MapDataset(
        values=out,
        scale_factor=scale,
        x_centers=config.x_centers(),
        y_centers=config.y_centers(),
        z_plane=config.z_plane,
        observable_name=name,
        config=config,
    )


def _accepts_cache(observable) -> bool:
    try:
        return "cache" in inspect.signature(observable.evaluate).parameters
    except (TypeError, ValueError):
        return False


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _evaluation_order(configs, members) -> List[int]:
    """The group members deepest `field_order` first, 0 for an observable
    that states none, then by beam in order of first appearance, an
    observable without a `beam` being its own group.  The sort is stable,
    and every request of a chunk for one (beam, order) pair comes in one
    run."""
    groups: Dict[int, int] = {}
    keys = {}
    for i in members:
        obs = configs[i].observable
        group = groups.setdefault(id(getattr(obs, "beam", obs)), len(groups))
        keys[i] = (-getattr(obs, "field_order", 0), group)
    return sorted(members, key=keys.__getitem__)


def _chunks(n: int, ny: int, chunk_size: int) -> List[Tuple[int, int]]:
    """(start, stop) of each chunk of a grid of n points in rows of ny: as
    many whole rows as fit in chunk_size or, when a row is longer than
    chunk_size, pieces of one row.  Either way a chunk's points are a
    tensor grid, and there are at most chunk_size of them."""
    if ny <= chunk_size:
        step = chunk_size // ny * ny
        return [(s, min(s + step, n)) for s in range(0, n, step)]
    return [(row + s, row + min(s + chunk_size, ny))
            for row in range(0, n, ny) for s in range(0, ny, chunk_size)]


def _scan_chunk(configs, evaluation, cached, axes, vals,
                bounds) -> Tuple[Dict[int, float], Tuple[int, ...]]:
    """Evaluate the group members on one chunk of the grid of `axes` (x
    centres, y centres, z plane) into their slices of `vals`, in the order
    `evaluation` lists their indices.

    Maps that do not store complex values keep only the moduli.  Returns
    each member's reference for this chunk, by its index, and the chunk's
    counts of sample hits and misses and of profiles built and reused.
    Each call has its own ProfileMemo, so concurrent chunks share only
    disjoint slices of `vals`.
    """
    start, stop = bounds
    # the chunk's slice of ScanConfig.grid_points(), built without the rest
    # of the grid
    chunk = _points(axes, start, stop)
    memo = ProfileMemo()
    refs = {}
    for i in evaluation:
        obs = configs[i].observable
        v, refs[i] = obs.evaluate(chunk, memo) if cached[i] \
            else obs.evaluate(chunk)
        if configs[i].store_complex:
            vals[i][start:stop] = v
        else:
            np.abs(v, out=vals[i][start:stop])
    return refs, (memo.hits, memo.misses, memo.built, memo.reused)


def _map_chunks(body, chunks, workers: int) -> list:
    """body(chunk) for every chunk, in order; the earliest failure raises."""
    if workers == 1:
        return [body(c) for c in chunks]
    pool = ThreadPoolExecutor(workers, thread_name_prefix="vectorlight-scan")
    try:
        # each chunk runs in a copy of the caller's context, so settings
        # such as numpy's errstate hold in the workers as they do serially
        futures = [pool.submit(contextvars.copy_context().run, body, c)
                   for c in chunks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_scans(configs: Sequence[ScanConfig],
              chunk_size: int = _CHUNK) -> List[MapDataset]:
    """Run several scans, reusing field evaluations across same-grid maps.

    Scans sharing a grid are walked chunk by chunk together so observables
    built on the same beam draw on one field evaluation.  A chunk is whole
    grid rows: `chunk_size` is rounded down to a multiple of the row length
    ny.  When a row is longer than `chunk_size`, each row is cut into
    chunks of `chunk_size` points and its rest.  A chunk's points are then
    a tensor grid, so factors of one coordinate are built once per row,
    column or plane (see `beams._coords`).  Each chunk's observables share
    one `beams.ProfileMemo`, which holds the chunk's scalar profiles and
    its latest field sample.  They run deepest `field_order` first, the
    order of the field sample each takes (0 for one that states none),
    then beam by beam (see `_evaluation_order`), so the deepest profiles
    serve lower orders and the one held sample suffices.  The chunks of a
    grid run on a thread pool of min(chunks, usable CPUs) workers, usable
    CPUs taken from the process's CPU affinity; a single chunk or a single
    CPU runs in the calling thread.  An observable must therefore be safe
    to call from several threads at once (the built-in ones are pure).
    Memory grows with workers x chunk_size.  Results are bitwise identical
    to a serial run and to running each scan alone, in the input order.  If
    chunks raise, the exception of the earliest one in grid order
    propagates; within a chunk, that of the first observable to raise in
    evaluation order.  One debug record per grid on the
    ``vectorlight.scan`` logger reports its maps, points, chunks, workers
    and elapsed seconds, then, summed over its chunks' memos, field-sample
    hits and misses and scalar profiles built and reused.  A `chunk_size`
    that is not a positive integer raises ConfigurationError.
    """
    if isinstance(chunk_size, bool) \
            or not isinstance(chunk_size, numbers.Integral) or chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be a positive integer, got {chunk_size!r}")
    configs = list(configs)
    out: List[MapDataset] = [None] * len(configs)
    groups: Dict[tuple, List[int]] = {}
    for i, cfg in enumerate(configs):
        key = (cfg.extent, cfg.resolution, cfg.z_plane)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        t0 = time.perf_counter()
        first = configs[members[0]]
        axes = (first.x_centers(), first.y_centers(), first.z_plane)
        n = axes[0].size * axes[1].size
        vals = {i: np.empty(n, dtype=complex if configs[i].store_complex
                             else float) for i in members}
        cached = {i: _accepts_cache(configs[i].observable) for i in members}
        evaluation = _evaluation_order(configs, members)
        chunks = _chunks(n, axes[1].size, chunk_size)
        workers = min(len(chunks), _usable_cpus())
        body = functools.partial(_scan_chunk, configs, evaluation, cached,
                                 axes, vals)
        chunk_refs, chunk_counts = zip(*_map_chunks(body, chunks, workers))
        for i in members:
            ref = 0.0
            for refs in chunk_refs:
                ref = max(ref, refs[i])
            out[i] = _finalize(configs[i], vals.pop(i), ref)
        _log.debug("scanned %d maps on %d points in %d chunks with %d "
                   "workers: %.3f s; field samples %d hits, %d misses; "
                   "scalar profiles %d built, %d reused", len(members), n,
                   len(chunks), workers, time.perf_counter() - t0,
                   *map(sum, zip(*chunk_counts)))
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
