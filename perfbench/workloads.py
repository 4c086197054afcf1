"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload yields rounds; a round is a list of operations whose mix does
not depend on the seed (the seed only orders them and picks inputs from
fixed pools), so rounds cost the same from seed to seed.  Every operation
calls the package through module attributes looked up at call time, so a
tracer that rewraps those attributes sees the calls.

Reference values frozen from the seed program live in ``reference.json``
(written by ``freeze.py``).  Tolerances: map values are normalized to a
peak of 1 and must agree to MAP_ATOL; scale factors, map sums and averaged
strengths agree to REL_TOL relative; a frozen zero map must still be exactly
zero with scale factor 0.0; each numeric section of a point record agrees
to REL_TOL times the section's largest magnitude.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List

import numpy as np

import vectorlight.cli as cli
import vectorlight.coupling as coupling
import vectorlight.scan as scan
from vectorlight import (
    BeamSpec,
    FieldComponentObservable,
    Geometry,
    HalfInt,
    ScanConfig,
    SidebandObservable,
    SidebandRequest,
    TransitionObservable,
    TransitionSpec,
    TrapSpec,
    make_radial_azimuthal,
    zero_point_length,
)
from vectorlight.constants import ATOMIC_MASS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

MAP_ATOL = 1e-9
REL_TOL = 1e-9

W0 = 1.0e-6
WAVELENGTH = 0.729e-6
EXTENT = (-2 * W0, 2 * W0, -2 * W0, 2 * W0)
FULL_RES = 256
SMOKE_RES = 16

# the five beams of the acceptance panel, with their CLI --beam spelling
BEAM_FLAGS = ("lg:1", "lg:-1", "hg:1,0", "radial", "azimuthal")
BEAM_TAGS = ("lg1", "lgm1", "hg10", "radial", "azimuthal")
COMPONENT_STEMS = ("field_sigma_plus", "field_sigma_minus", "field_Ez")
SIDEBAND_STEMS = ("sideband_carrier", "sideband_bsb_X", "sideband_bsb_Y",
                  "sideband_bsb_Z")
DMS = (-2, -1, 0, 1, 2)
# lg:1 maps with a nonzero frozen scale factor (dm = -2 is a zero map)
LG1_NONZERO_DMS = (-1, 0, 1, 2)

POINTS_PER_BEAM = 8
PAIRS_PER_BEAM = 4
PAIRS_PER_ROUND = 4
QUADRATURE_ORDER = 15


class CheckFailed(Exception):
    """An operation's output disagrees with the reference or an invariant."""


@dataclass
class Op:
    """One timed operation of a workload.

    `run` does the timed work.  `verify` compares its result with the
    reference and invariants; `digest` condenses it so a repeat of the same
    key (a later round, or the traced half of a traced run) must reproduce
    it exactly.  `units` is the work it counts towards work_per_s.
    """

    key: str
    run: Callable[[], object]
    verify: Callable[[object], None]
    digest: Callable[[object], str]
    units: int
    bytes_written: Callable[[object], int] = None


def dm_stem(dm: int) -> str:
    return "mu_dm_" + (f"p{dm}" if dm > 0 else f"m{-dm}" if dm < 0 else "0")


def five_beams() -> List[BeamSpec]:
    def lg(l):
        return BeamSpec.lg(l, 0, sigma=1, waist=W0, wavelength=WAVELENGTH)
    return [lg(1), lg(-1),
            BeamSpec.hg(1, 0, sigma=1, waist=W0, wavelength=WAVELENGTH),
            make_radial_azimuthal("radial", waist=W0, wavelength=WAVELENGTH),
            make_radial_azimuthal("azimuthal", waist=W0, wavelength=WAVELENGTH)]


def quad_transition(dm: int) -> TransitionSpec:
    m1 = HalfInt(1)
    return TransitionSpec("1/2", m1, "5/2", m1 + HalfInt(2 * dm), "E2_dJ2")


def panel_configs(res: int = FULL_RES) -> List[ScanConfig]:
    """The 70 maps of panel_configs() in tests/test_acceptance.py, same order.

    The order matters: run_scans shares one field sample per (beam, order)
    and chunk through a small FIFO cache, giving 15 field evaluations per 70
    map requests per chunk.
    """
    beams = five_beams()
    trap = TrapSpec.from_lab_units(40.0, (2.0, 2.0, 1.0))
    grid = (EXTENT, (res, res))
    cfgs = []
    for b in beams:
        for comp in ("sigma_plus", "sigma_minus", "z"):
            cfgs.append(ScanConfig(FieldComponentObservable(b, comp), *grid))
    for b in beams:
        for dm in DMS:
            cfgs.append(ScanConfig(TransitionObservable(b, quad_transition(dm)),
                                   *grid))
    for b in beams:
        for theta in (math.pi / 4, math.pi / 2):
            cfgs.append(ScanConfig(TransitionObservable(
                b, quad_transition(0), Geometry(theta)), *grid))
    for b in beams:
        cfgs.append(ScanConfig(SidebandObservable(
            b, trap, SidebandRequest("X", 0, "carrier"), quad_transition(1)),
            *grid))
        for mode in ("X", "Y", "Z"):
            cfgs.append(ScanConfig(SidebandObservable(
                b, trap, SidebandRequest(mode, 0, "bsb"), quad_transition(1),
                eta_rescale=True), *grid))
    return cfgs


def point_pool() -> List[List[str]]:
    """Fixed pool of `point` argv lists: 8 focal-region positions per beam.

    Positions are passed as --position-um=<x,y,z>: argparse reads a
    separate value that starts with '-' as a flag and exits with code 2.
    """
    rng = np.random.default_rng(230617571)
    zr_um = math.pi * W0**2 / WAVELENGTH / 1e-6
    pool = []
    for flag in BEAM_FLAGS:
        for _ in range(POINTS_PER_BEAM):
            x, y = rng.uniform(-1.2, 1.2, 2)
            z = rng.uniform(-0.8 * zr_um, 0.8 * zr_um)
            pool.append(["point", "--beam", flag,
                         f"--position-um={x:.3f},{y:.3f},{z:.3f}"])
    return pool


def pair_pool() -> List[dict]:
    """Fixed pool of averaging inputs: 4 per beam near the focus.

    Widths are zero-point lengths of a 40 amu ion in 0.8-1.25 MHz modes
    (about 10-13 nm).
    """
    rng = np.random.default_rng(230617572)
    mass = 40.0 * ATOMIC_MASS
    pool = []
    for beam_index in range(len(BEAM_FLAGS)):
        for _ in range(PAIRS_PER_BEAM):
            center = [float(v) for v in rng.uniform(-1.0, 1.0, 3) * W0]
            center[2] *= 0.5
            widths = [zero_point_length(mass, 2e6 * math.pi * f)
                      for f in rng.uniform(0.8, 1.25, 3)]
            pool.append({"beam": beam_index, "center": center,
                         "widths": widths, "dm": int(rng.integers(-2, 3))})
    return pool


# ------------------------------------------------------------------ checks


@functools.cache
def reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sub_index(n: int) -> np.ndarray:
    step = max(n // 8, 1)
    return np.arange(step // 2, n, step)


def fingerprint(values: np.ndarray, scale: float) -> dict:
    """Scale factor, an 8x8 sub-grid of cells, and the sum and sum of squares."""
    idx = _sub_index(values.shape[0])
    return {"scale": float(scale),
            "sub": [float(v) for v in values[np.ix_(idx, idx)].ravel()],
            "sum": float(np.sum(values)),
            "sumsq": float(np.sum(values * values))}


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_map(values: np.ndarray, scale: float, ref: dict, what: str) -> None:
    if ref["scale"] == 0.0:
        if scale != 0.0 or np.any(values != 0.0):
            raise CheckFailed(f"{what}: frozen zero map is no longer exactly "
                              f"zero (scale {scale!r})")
        return
    got = fingerprint(values, scale)
    if not _rel_close(got["scale"], ref["scale"]):
        raise CheckFailed(f"{what}: scale factor {got['scale']!r} != "
                          f"{ref['scale']!r}")
    err = float(np.max(np.abs(np.subtract(got["sub"], ref["sub"]))))
    if err > MAP_ATOL:
        raise CheckFailed(f"{what}: cell values differ by {err:.3g}")
    for key in ("sum", "sumsq"):
        if not _rel_close(got[key], ref[key]):
            raise CheckFailed(f"{what}: {key} {got[key]!r} != {ref[key]!r}")


def read_map_csv(path: str):
    """Values and scale factor of a map CSV, parsed independently of the CLI."""
    scale = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                if key.strip() == "scale_factor":
                    scale = float(val)
            elif line.strip():
                rows.append([float(v) for v in line.split(",")])
    if scale is None:
        raise CheckFailed(f"{path}: no scale_factor header")
    return np.array(rows), scale


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _file_digest(paths: List[str]) -> str:
    chunks = []
    for p in paths:
        with open(p, "rb") as fh:
            chunks.append(fh.read())
    return _sha(*chunks)


def _run_cli(argv: List[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _require_ok(code, what: str) -> None:
    if code != 0:
        raise CheckFailed(f"{what}: exit code {code}")


# --------------------------------------------------------------- workloads


class Panel:
    """run_scans over the 70-map acceptance panel, one call per operation."""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.res = SMOKE_RES if smoke else FULL_RES
        self.configs = panel_configs(self.res)
        rng = random.Random(seed)
        # the chunk-size invariance check: one seed-chosen map rescanned
        # with a seed-chosen chunk no larger than the default
        self.check_index = rng.randrange(len(self.configs))
        self.check_chunk = rng.randrange(7, 200) if smoke \
            else rng.randrange(1000, 8192)
        self.smoke = smoke

    def _verify(self, maps) -> None:
        if len(maps) != len(self.configs):
            raise CheckFailed(f"panel: {len(maps)} maps for "
                              f"{len(self.configs)} configurations")
        if not self.smoke:
            refs = reference()["panel"]
            for i, d in enumerate(maps):
                check_map(d.values, d.scale_factor, refs[i], f"panel map {i}")
        i, chunk = self.check_index, self.check_chunk
        again = scan.run_scans([self.configs[i]], chunk_size=chunk)[0]
        if again.scale_factor != maps[i].scale_factor or \
                again.values.tobytes() != maps[i].values.tobytes():
            raise CheckFailed(f"panel map {i} differs at chunk size {chunk}")

    @staticmethod
    def _digest(maps) -> str:
        return _sha(*(d.values.tobytes() + repr(d.scale_factor).encode()
                      for d in maps))

    def rounds(self) -> Iterator[List[Op]]:
        cells = len(self.configs) * self.res * self.res
        while True:
            yield [Op("panel", lambda: scan.run_scans(self.configs),
                      self._verify, self._digest, cells)]


class CliMaps:
    """In-process CLI map runs that write CSV and sidecar files."""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.res = SMOKE_RES if smoke else FULL_RES
        self.cells = self.res * self.res
        self.workdir = workdir
        self.grid = [] if not smoke else [f"--resolution={self.res},{self.res}"]

    def _dir(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def _map_op(self, key: str, argv: List[str], outdir: str,
                refs: dict) -> Op:
        """A map-writing subcommand; refs maps each CSV stem it writes to its
        reference fingerprint (None in smoke mode)."""
        def verify(result):
            code, out = result
            _require_ok(code, key)
            csvs = [p for p in out.split() if p.endswith(".csv")]
            stems = sorted(os.path.basename(p)[:-4] for p in csvs)
            if stems != sorted(refs):
                raise CheckFailed(f"{key}: wrote maps {stems}, "
                                  f"expected {sorted(refs)}")
            for path in csvs:
                ref = refs[os.path.basename(path)[:-4]]
                values, scale = read_map_csv(path)
                if values.shape != (self.res, self.res):
                    raise CheckFailed(f"{path}: shape {values.shape}")
                if ref is not None:
                    check_map(values, scale, ref, path)

        return Op(key, lambda: _run_cli(argv + self.grid + ["-o", outdir]),
                  verify, lambda r: _file_digest(r[1].split()),
                  len(refs) * self.cells, _written_bytes)

    def _map_ops(self) -> List[Op]:
        ref = None if self.smoke else reference()
        ops = []
        for b, (flag, tag) in enumerate(zip(BEAM_FLAGS, BEAM_TAGS)):
            refs = {stem: ref and ref["panel"][3 * b + c]
                    for c, stem in enumerate(COMPONENT_STEMS)}
            ops.append(self._map_op(f"field-map:{tag}",
                                    ["field-map", "--beam", flag],
                                    self._dir(f"{tag}-field"), refs))
        for b, (flag, tag) in enumerate(zip(BEAM_FLAGS, BEAM_TAGS)):
            refs = {dm_stem(dm): ref and ref["panel"][15 + 5 * b + i]
                    for i, dm in enumerate(DMS)}
            ops.append(self._map_op(f"transition-map:{tag}",
                                    ["transition-map", "--beam", flag],
                                    self._dir(f"{tag}-transition"), refs))
        refs = ref["cli_sideband_e1"] if ref else dict.fromkeys(SIDEBAND_STEMS)
        ops.append(self._map_op(
            "sideband-map:lg1-e1",
            ["sideband-map", "--beam", "lg:1", "--multipole", "E1",
             "--j2", "3/2"], self._dir("lg1-sideband-e1"), refs))
        return ops

    def _rerun_op(self, tag: str, dm: int) -> Op:
        """Re-run one transition map from its sidecar's `run` document."""
        stem = dm_stem(dm)
        first = self._dir(f"{tag}-transition", stem)
        rerun_dir = self._dir("rerun")
        run_file = self._dir("run-file.json")

        def run():
            with open(first + ".json", "r", encoding="utf-8") as fh:
                doc = json.load(fh)["run"]
            with open(run_file, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return _run_cli(["transition-map", "--run-file", run_file,
                             "-o", rerun_dir])

        def verify(result):
            _require_ok(result[0], "rerun")
            for ext in (".csv", ".json"):
                with open(first + ext, "rb") as a, \
                        open(os.path.join(rerun_dir, stem + ext), "rb") as b:
                    if a.read() != b.read():
                        raise CheckFailed(f"rerun of {tag} {stem}{ext} is not "
                                          "byte-identical to the first run")

        return Op(f"rerun:{tag}:{dm}", run, verify,
                  lambda r: _file_digest([os.path.join(rerun_dir, stem + ".csv")]),
                  self.cells, _written_bytes)

    def _compare_op(self, tag: str, dm: int) -> Op:
        stem = dm_stem(dm)
        a = self._dir(f"{tag}-transition", stem + ".csv")
        b = self._dir("rerun", stem + ".csv")

        def verify(result):
            code, out = result
            _require_ok(code, "compare")
            stats = json.loads(out)
            if stats["max_abs_diff"] != 0.0 or stats["rms_diff"] != 0.0 or \
                    stats["scale_factor_a"] != stats["scale_factor_b"]:
                raise CheckFailed(f"compare of a map with its rerun: {stats}")

        return Op(f"compare:{tag}:{dm}", lambda: _run_cli(["compare", a, b]),
                  verify, lambda r: r[1], 0)

    def _gnuplot_op(self, source: str) -> Op:
        target = self._dir("matrix.dat")

        def verify(result):
            _require_ok(result[0], "gnuplot-matrix")
            values, _ = read_map_csv(source)
            with open(target, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            matrix = np.array([[float(v) for v in line.split()]
                               for line in lines[1:]])
            if matrix.shape != (values.shape[1], values.shape[0] + 1) or \
                    not np.array_equal(matrix[:, 1:], values.T):
                raise CheckFailed(f"gnuplot matrix of {source} does not hold "
                                  "its values")

        return Op(f"gnuplot-matrix:{source}",
                  lambda: _run_cli(["gnuplot-matrix", source, target]),
                  verify, lambda r: _file_digest([target]), self.cells,
                  _written_bytes)

    def rounds(self) -> Iterator[List[Op]]:
        # The re-run and the gnuplot-matrix source are nonzero lg:1
        # transition maps, chosen once: a zero map is written as short "0.0"
        # cells, and the same keys in every round give each its repeats.
        map_ops = self._map_ops()
        dm = self.rng.choice(LG1_NONZERO_DMS)
        source = self._dir("lg1-transition",
                           dm_stem(self.rng.choice(LG1_NONZERO_DMS)) + ".csv")
        tail = [self._rerun_op("lg1", dm), self._compare_op("lg1", dm),
                self._gnuplot_op(source)]
        while True:
            ops = list(map_ops)
            self.rng.shuffle(ops)
            yield ops + tail


def _written_bytes(result) -> int:
    """Bytes of the files a map-writing subcommand reported on stdout."""
    return sum(os.path.getsize(p) for p in result[1].split()
               if os.path.isfile(p))


class Points:
    """A stream of small queries: CLI point records and averaging pairs."""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.rng = random.Random(seed)
        self.points = point_pool()
        self.pairs = pair_pool()
        self.beams = five_beams()

    def _point_op(self, k: int) -> Op:
        argv = self.points[k]

        def verify(result):
            code, out = result
            _require_ok(code, " ".join(argv))
            ref = reference()["points"][k]
            if ref["argv"] != argv:
                raise CheckFailed(f"point pool entry {k} changed: {argv}")
            check_point_record(json.loads(out), ref["record"], k)

        return Op(f"point:{k}", lambda: _run_cli(argv), verify,
                  lambda r: r[1], 1)

    def _pair_op(self, k: int) -> Op:
        entry = self.pairs[k]
        beam = self.beams[entry["beam"]]
        trans = quad_transition(entry["dm"])

        def run():
            avg = coupling.averaged_strength(
                beam, entry["center"], entry["widths"], trans,
                quadrature_order=QUADRATURE_ORDER)
            rms = coupling.averaged_strength_rms(
                beam, entry["center"], entry["widths"], trans,
                quadrature_order=QUADRATURE_ORDER)
            return avg, rms

        def verify(result):
            avg, rms = result
            ref = reference()["pairs"][k]
            if ref["input"] != entry:
                raise CheckFailed(f"averaging pool entry {k} changed")
            ref_avg = complex(*ref["avg"])
            # absolute tolerance from the beam's largest rms in the pool, so
            # a selection-rule zero may come out as rounding residue
            scale = max(p["rms"] for p in reference()["pairs"]
                        if p["input"]["beam"] == entry["beam"])
            if abs(rms - ref["rms"]) > REL_TOL * scale or \
                    abs(avg - ref_avg) > REL_TOL * scale:
                raise CheckFailed(f"averaging pair {k}: {avg!r}, {rms!r} != "
                                  f"{ref_avg!r}, {ref['rms']!r}")

        return Op(f"pair:{k}", run, verify, repr, 1)

    def rounds(self) -> Iterator[List[Op]]:
        # every point of the pool once per round, and every averaging pair
        # once per PAIRS_PER_ROUND-sized slice of a shuffled cycle
        pairs = []
        while True:
            if not pairs:
                pairs = self.rng.sample(range(len(self.pairs)), len(self.pairs))
            ops = [self._point_op(k) for k in range(len(self.points))]
            ops += [self._pair_op(pairs.pop()) for _ in range(PAIRS_PER_ROUND)]
            self.rng.shuffle(ops)
            yield ops


POINT_SECTIONS = ("electric_field", "components", "jacobian", "mu_by_dm",
                  "sidebands")


def _flatten(obj) -> List[float]:
    if isinstance(obj, dict):
        return [v for key in sorted(obj) for v in _flatten(obj[key])]
    if isinstance(obj, list):
        return [v for item in obj for v in _flatten(item)]
    return [float(obj)]


def point_sections(record: dict) -> dict:
    return {s: record[s] for s in POINT_SECTIONS} | \
        {"position_um": record["position_um"], "sideband_dm": record["sideband_dm"]}


def check_point_record(record: dict, ref: dict, k: int) -> None:
    for key in ("position_um", "sideband_dm"):
        if record.get(key) != ref[key]:
            raise CheckFailed(f"point {k}: {key} {record.get(key)!r}")
    for section in POINT_SECTIONS:
        got = _flatten(record.get(section, []))
        want = _flatten(ref[section])
        if len(got) != len(want):
            raise CheckFailed(f"point {k}: {section} has {len(got)} numbers")
        tol = REL_TOL * max(abs(v) for v in want)
        err = max(abs(a - b) for a, b in zip(got, want))
        if err > tol:
            raise CheckFailed(f"point {k}: {section} differs by {err:.3g}")


WORKLOADS = {"panel": Panel, "cli_maps": CliMaps, "points": Points}
