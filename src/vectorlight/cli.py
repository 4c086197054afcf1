"""Command-line front end: focal-plane map files and point diagnostics.

Subcommands: field-map, transition-map, sideband-map, point, compare, and
gnuplot-matrix (converts a map CSV to a gnuplot nonuniform-matrix file).

Conventions at this interface: lengths in micrometers, trap frequencies in
MHz (as omega / 2 pi), mass in atomic mass units, angles in degrees.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.  Every map is
written as a CSV grid plus a JSON sidecar; re-running the `run` document
echoed in a sidecar reproduces the CSV bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .beams import BeamSpec, _circular, field_sample_upto, make_radial_azimuthal
from .coupling import Geometry, Multipole, TransitionSpec, relative_strength
from .errors import ConfigurationError, NumericalError
from .motion import SidebandRequest, TrapSpec, sideband_strength_at
from .scan import (
    FieldComponentObservable,
    MapDataset,
    ScanConfig,
    SidebandObservable,
    TransitionObservable,
    compare_maps,
    run_scans,
)
from .special import HalfInt

UM = 1e-6

_COMPONENT_FLAGS = {"Ez": "z", "sigma+": "sigma_plus", "sigma-": "sigma_minus"}
_COMPONENT_STEMS = {"z": "Ez", "sigma_plus": "sigma_plus",
                    "sigma_minus": "sigma_minus"}

_AXIS_NAMES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


# --------------------------------------------------------------- run files
#
# Strict schema: every physical quantity carries its unit in the key name,
# unknown fields are rejected with the offending path in the message.

_SCHEMA = {
    "observable": None,
    "component": None,
    "dm": None,
    "position_um": None,
    "beam": {"type": None, "l": None, "p": None, "m": None, "n": None,
             "sigma": None, "waist_um": None, "wavelength_um": None},
    "grid": {"extent_um": None, "resolution": None, "z_plane_um": None},
    "transition": {"j1": None, "m1": None, "j2": None, "m2": None,
                   "multipole": None},
    "geometry": {"theta_deg": None, "axis": None},
    "trap": {"mass_amu": None, "frequencies_mhz": None},
    "sideband": {"n": None, "branch": None},
}


def _check_fields(doc: dict, schema: dict, path: str = "") -> None:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"run file: '{path or '<root>'}' must be an object")
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigurationError(f"run file: unknown field '{where}'")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_fields(value, sub, where)


def load_run_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read run file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"run file: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    _check_fields(doc, _SCHEMA)
    return doc


# ----------------------------------------------------------- flag parsing


def _parse_floats(text: str, count: int, flag: str) -> Tuple[float, ...]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != count:
        raise ConfigurationError(f"{flag}: expected {count} comma-separated "
                                 f"numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from exc


def _parse_sigma(text) -> int:
    try:
        val = int(str(text).replace("+", ""))
    except ValueError:
        raise ConfigurationError(f"sigma must be -1, 0, or +1, got {text!r}")
    if val not in (-1, 0, 1):
        raise ConfigurationError(f"sigma must be -1, 0, or +1, got {text!r}")
    return val


def _beam_doc_from_flag(text: str, sigma, waist_um: float,
                        wavelength_um: float) -> dict:
    """Normalize a --beam flag into the run-file beam document."""
    spec = text.strip().lower()
    doc = {"waist_um": float(waist_um), "wavelength_um": float(wavelength_um)}
    if spec in ("radial", "azimuthal"):
        doc["type"] = spec
        return doc
    kind, _, rest = spec.partition(":")
    if kind not in ("lg", "hg"):
        raise ConfigurationError(
            f"--beam: expected lg:<l>[,<p>], hg:<m>,<n>, radial, or azimuthal; "
            f"got {text!r}")
    try:
        nums = [int(p) for p in rest.split(",") if p] if rest else []
    except ValueError as exc:
        raise ConfigurationError(f"--beam: {exc}") from exc
    doc["type"] = kind
    doc["sigma"] = _parse_sigma(sigma)
    if kind == "lg":
        if not 1 <= len(nums) <= 2:
            raise ConfigurationError("--beam lg: needs l[,p]")
        doc["l"] = nums[0]
        doc["p"] = nums[1] if len(nums) == 2 else 0
    else:
        if len(nums) != 2:
            raise ConfigurationError("--beam hg: needs m,n")
        doc["m"], doc["n"] = nums
    return doc


def _build_beam(doc: dict) -> BeamSpec:
    waist = float(doc.get("waist_um", 1.0)) * UM
    wavelength = float(doc.get("wavelength_um", 0.729)) * UM
    kind = doc.get("type")
    if kind in ("radial", "azimuthal"):
        return make_radial_azimuthal(kind, waist=waist, wavelength=wavelength)
    sigma = _parse_sigma(doc.get("sigma", 1))
    if kind == "lg":
        return BeamSpec.lg(int(doc.get("l", 0)), int(doc.get("p", 0)),
                           sigma=sigma, waist=waist, wavelength=wavelength)
    if kind == "hg":
        return BeamSpec.hg(int(doc.get("m", 0)), int(doc.get("n", 0)),
                           sigma=sigma, waist=waist, wavelength=wavelength)
    raise ConfigurationError(
        f"beam.type must be lg, hg, radial, or azimuthal, got {kind!r}")


def _build_transition(doc: dict, dm: Optional[int] = None) -> TransitionSpec:
    j1 = doc.get("j1", "1/2")
    m1 = doc.get("m1", "1/2")
    j2 = doc.get("j2", "5/2")
    multipole = doc.get("multipole", "E2_dJ2")
    if dm is not None:
        m2 = HalfInt.coerce(m1) + dm
    else:
        m2 = doc.get("m2")
        if m2 is None:
            raise ConfigurationError("transition.m2 (or a dm value) is required")
    try:
        return TransitionSpec(j1, m1, j2, m2, multipole)
    except ValueError as exc:
        raise ConfigurationError(f"transition: {exc}") from exc


def _build_geometry(doc: dict) -> Geometry:
    theta = math.radians(float(doc.get("theta_deg", 0.0)))
    axis = doc.get("axis", "y")
    if isinstance(axis, str):
        try:
            axis = _AXIS_NAMES[axis.lower()]
        except KeyError:
            raise ConfigurationError(f"geometry.axis: unknown axis {axis!r}")
    try:
        return Geometry(theta, tuple(float(a) for a in axis))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"geometry: {exc}") from exc


def _build_trap(doc: dict) -> TrapSpec:
    mass = float(doc.get("mass_amu", 40.0))
    freqs = doc.get("frequencies_mhz", (1.0, 1.0, 1.0))
    if len(freqs) != 3:
        raise ConfigurationError("trap.frequencies_mhz needs three values")
    try:
        return TrapSpec.from_lab_units(mass, tuple(float(f) for f in freqs))
    except ValueError as exc:
        raise ConfigurationError(f"trap: {exc}") from exc


def _build_scan_grid(doc: dict, beam_doc: dict) -> dict:
    """Resolve the grid document, defaulting the extent to +/-2 waists."""
    out = dict(doc)
    if "extent_um" not in out:
        w = float(beam_doc.get("waist_um", 1.0))
        out["extent_um"] = [-2.0 * w, 2.0 * w, -2.0 * w, 2.0 * w]
    out.setdefault("resolution", [256, 256])
    out.setdefault("z_plane_um", 0.0)
    if len(out["extent_um"]) != 4:
        raise ConfigurationError("grid.extent_um needs four values")
    if len(out["resolution"]) != 2:
        raise ConfigurationError("grid.resolution needs two values")
    return out


def _scan_config(observable, grid_doc: dict) -> ScanConfig:
    extent = tuple(float(v) * UM for v in grid_doc["extent_um"])
    res = tuple(int(v) for v in grid_doc["resolution"])
    return ScanConfig(observable, extent, res,
                      z_plane=float(grid_doc["z_plane_um"]) * UM)


# ------------------------------------------------------------ file output


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(dataset: MapDataset, stem: str) -> str:
    xs = ", ".join(repr(float(v) / UM) for v in dataset.x_centers)
    ys = ", ".join(repr(float(v) / UM) for v in dataset.y_centers)
    nx, ny = dataset.values.shape
    lines = [
        "# vectorlight map v1",
        f"# name: {stem}",
        f"# observable: {dataset.observable_name}",
        f"# scale_factor: {dataset.scale_factor!r}",
        f"# z_plane_um: {dataset.z_plane / UM!r}",
        f"# shape: {nx},{ny}",
        f"# x_centers_um: {xs}",
        f"# y_centers_um: {ys}",
        "# rows follow the x index, columns the y index; values are moduli"
        " normalized to a peak of 1",
    ]
    for row in dataset.values:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _sidecar_text(dataset: MapDataset, run_doc: dict, extra: dict) -> str:
    doc = {
        "tool_version": __version__,
        "scale_factor": dataset.scale_factor,
        "observable": dataset.observable_name,
        "grid": run_doc["grid"],
        "beam": run_doc.get("beam"),
        "transition": run_doc.get("transition"),
        "geometry": run_doc.get("geometry"),
        "trap": run_doc.get("trap"),
        "run": run_doc,
    }
    doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_map(outdir: str, stem: str, dataset: MapDataset, run_doc: dict,
               extra: dict) -> List[str]:
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, stem + ".csv")
    json_path = os.path.join(outdir, stem + ".json")
    _atomic_write(csv_path, _csv_text(dataset, stem))
    _atomic_write(json_path, _sidecar_text(dataset, run_doc, extra))
    return [csv_path, json_path]


def load_map_csv(path: str) -> MapDataset:
    """Rebuild a MapDataset (values, grid, scale) from a map CSV file."""
    meta: Dict[str, str] = {}
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if ":" in body:
                        key, _, val = body.partition(":")
                        meta[key.strip()] = val.strip()
                    continue
                try:
                    rows.append([float(v) for v in line.split(",")])
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}: line {lineno}: not a map CSV row ({exc})"
                    ) from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read map file: {exc}") from exc
    required = {"scale_factor", "z_plane_um", "x_centers_um", "y_centers_um"}
    missing = required - set(meta)
    if missing:
        raise ConfigurationError(
            f"{path}: not a map CSV (missing header {sorted(missing)})")
    try:
        values = np.array(rows, dtype=float)
        xs = np.array([float(v) for v in meta["x_centers_um"].split(",")]) * UM
        ys = np.array([float(v) for v in meta["y_centers_um"].split(",")]) * UM
        scale = float(meta["scale_factor"])
        z_plane = float(meta["z_plane_um"]) * UM
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed map header ({exc})") from exc
    if values.ndim != 2 or values.shape != (xs.size, ys.size):
        raise ConfigurationError(f"{path}: data shape {values.shape} does not"
                                 f" match axes ({xs.size}, {ys.size})")
    values.flags.writeable = False
    return MapDataset(
        values=values,
        scale_factor=scale,
        x_centers=xs,
        y_centers=ys,
        z_plane=z_plane,
        observable_name=meta.get("observable", "unknown"),
        config=None,
    )


def _complex_pair(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


# ------------------------------------------------------------ subcommands


def _resolve(args, flag_doc_builder, with_grid: bool = True) -> dict:
    """Merge a run file or flags into one resolved run document."""
    if getattr(args, "run_file", None):
        doc = load_run_file(args.run_file)
    else:
        doc = flag_doc_builder(args)
    if with_grid:
        doc.setdefault("grid", {})
        doc["grid"] = _build_scan_grid(doc["grid"], doc.get("beam", {}))
    return doc


def _require_beam(doc: dict) -> dict:
    beam = doc.get("beam")
    if not beam:
        raise ConfigurationError("missing required field 'beam' "
                                 "(--beam or run-file beam section)")
    return beam


def _field_map_flag_doc(args) -> dict:
    doc = {"observable": "field",
           "beam": _beam_doc_from_flag(args.beam, args.sigma, args.waist_um,
                                       args.wavelength_um),
           "grid": _grid_doc_from_flags(args)}
    if args.component:
        doc["component"] = args.component
    return doc


def _grid_doc_from_flags(args) -> dict:
    grid = {}
    if args.extent_um:
        grid["extent_um"] = list(_parse_floats(args.extent_um, 4, "--extent-um"))
    if args.resolution:
        res = _parse_floats(args.resolution, 2, "--resolution")
        grid["resolution"] = [int(r) for r in res]
    if args.z_plane_um is not None:
        grid["z_plane_um"] = args.z_plane_um
    return grid


def cmd_field_map(args) -> int:
    doc = _resolve(args, _field_map_flag_doc)
    beam = _build_beam(_require_beam(doc))
    wanted = doc.get("component")
    if wanted:
        if wanted not in _COMPONENT_FLAGS:
            raise ConfigurationError(
                f"component must be one of {sorted(_COMPONENT_FLAGS)}")
        components = [_COMPONENT_FLAGS[wanted]]
    else:
        components = list(_COMPONENT_STEMS)
    cfgs = [_scan_config(FieldComponentObservable(beam, comp), doc["grid"])
            for comp in components]
    written = []
    for comp, dataset in zip(components, run_scans(cfgs)):
        run_doc = dict(doc)
        run_doc["component"] = {v: k for k, v in _COMPONENT_FLAGS.items()}[comp]
        stem = f"field_{_COMPONENT_STEMS[comp]}"
        written += _write_map(args.outdir, stem, dataset, run_doc,
                              {"component": comp})
    _report(written)
    return 0


def _transition_core_doc(args) -> dict:
    return {"beam": _beam_doc_from_flag(args.beam, args.sigma, args.waist_um,
                                        args.wavelength_um),
            "transition": {"j1": args.j1, "m1": args.m1, "j2": args.j2,
                           "multipole": args.multipole},
            "geometry": {"theta_deg": args.theta_deg, "axis": args.axis}}


def _transition_map_flag_doc(args) -> dict:
    doc = _transition_core_doc(args)
    doc["observable"] = "transition"
    doc["grid"] = _grid_doc_from_flags(args)
    if args.dm is not None:
        doc["dm"] = args.dm
    return doc


def _allowed_dm(doc: dict) -> List[int]:
    """Delta-m values addressable for the configured transition family."""
    tdoc = doc.get("transition", {})
    try:
        j2 = HalfInt.coerce(tdoc.get("j2", "5/2"))
        m1 = HalfInt.coerce(tdoc.get("m1", "1/2"))
        rank = Multipole.parse(tdoc.get("multipole", "E2_dJ2")).delta_j
    except ValueError as exc:
        raise ConfigurationError(f"transition: {exc}") from exc
    out = []
    for dm in range(-rank, rank + 1):
        if abs(m1 + dm) <= j2:
            out.append(dm)
    return out


def _dm_stem(dm: int) -> str:
    return "dm_" + (f"p{dm}" if dm > 0 else f"m{-dm}" if dm < 0 else "0")


def cmd_transition_map(args) -> int:
    doc = _resolve(args, _transition_map_flag_doc)
    beam = _build_beam(_require_beam(doc))
    geom = _build_geometry(doc.get("geometry", {}))
    tdoc = doc.get("transition", {})
    dms = [int(doc["dm"])] if doc.get("dm") is not None else _allowed_dm(doc)
    transitions = [_build_transition(tdoc, dm) for dm in dms]
    cfgs = [_scan_config(TransitionObservable(beam, t, geom), doc["grid"])
            for t in transitions]
    written = []
    for dm, trans, dataset in zip(dms, transitions, run_scans(cfgs)):
        run_doc = dict(doc)
        run_doc["dm"] = dm
        run_doc["transition"] = dict(tdoc)
        run_doc["transition"]["m2"] = str(trans.m2)
        written += _write_map(args.outdir, f"mu_{_dm_stem(dm)}", dataset,
                              run_doc, {"dm": dm})
    _report(written)
    return 0


def _trap_doc_from_flags(args) -> dict:
    return {"mass_amu": args.mass_amu,
            "frequencies_mhz": list(_parse_floats(
                args.frequencies_mhz, 3, "--frequencies-mhz"))}


def _sideband_map_flag_doc(args) -> dict:
    doc = _transition_map_flag_doc(args)
    doc["observable"] = "sideband"
    doc["dm"] = args.dm if args.dm is not None else 1
    doc["trap"] = _trap_doc_from_flags(args)
    doc["sideband"] = {"n": args.n, "branch": args.branch}
    return doc


def cmd_sideband_map(args) -> int:
    doc = _resolve(args, _sideband_map_flag_doc)
    beam = _build_beam(_require_beam(doc))
    geom = _build_geometry(doc.get("geometry", {}))
    trap = _build_trap(doc.get("trap", {}))
    dm = int(doc.get("dm", 1))
    trans = _build_transition(doc.get("transition", {}), dm)
    sb_doc = doc.get("sideband", {})
    n = int(sb_doc.get("n", 0))
    branch = sb_doc.get("branch", "bsb")
    if branch not in ("bsb", "rsb"):
        raise ConfigurationError("sideband.branch must be 'bsb' or 'rsb'")
    requests = [("carrier", SidebandRequest("X", n, "carrier"), False)]
    requests += [(f"{branch}_{mode}", SidebandRequest(mode, n, branch), True)
                 for mode in ("X", "Y", "Z")]
    cfgs = [_scan_config(
        SidebandObservable(beam, trap, req, trans, geom, eta_rescale=resc),
        doc["grid"]) for _, req, resc in requests]
    written = []
    for (stem, req, resc), dataset in zip(requests, run_scans(cfgs)):
        run_doc = dict(doc)
        run_doc["transition"] = dict(doc.get("transition", {}))
        run_doc["transition"]["m2"] = str(trans.m2)
        extra = {"branch": req.branch, "mode": req.mode, "n": req.n,
                 "eta_rescaled": resc}
        written += _write_map(args.outdir, f"sideband_{stem}", dataset,
                              run_doc, extra)
    _report(written)
    return 0


def cmd_point(args) -> int:
    doc = _resolve(args, _point_flag_doc, with_grid=False)
    beam = _build_beam(_require_beam(doc))
    geom = _build_geometry(doc.get("geometry", {}))
    trap = _build_trap(doc.get("trap", {}))
    tdoc = doc.get("transition", {})
    pos_um = doc.get("position_um", [0.0, 0.0, 0.0])
    point = np.array([float(v) * UM for v in pos_um])

    sample = field_sample_upto(beam, point, 2)
    comps = _circular(sample.electric)
    mu: Dict[str, List[float]] = {}
    for dm in _allowed_dm(doc):
        trans = _build_transition(tdoc, dm)
        mu[f"{dm:+d}"] = _complex_pair(relative_strength(sample, trans, geom))
    dm0 = int(doc.get("dm", 1))
    trans0 = _build_transition(tdoc, dm0)
    n = int(doc.get("sideband", {}).get("n", 0))
    sidebands = {}
    for mode in ("X", "Y", "Z"):
        for branch in ("carrier", "bsb", "rsb"):
            req = SidebandRequest(mode, n, branch)
            val = sideband_strength_at(beam, trap, req, trans0, point, geom)
            key = branch if branch == "carrier" else f"{branch}_{mode}"
            sidebands[key] = _complex_pair(complex(val))

    record = {
        "tool_version": __version__,
        "position_um": [float(v) for v in pos_um],
        "run": doc,
        "electric_field": [_complex_pair(v) for v in sample.electric],
        "components": {k: _complex_pair(v) for k, v in comps.items()},
        "jacobian": [[_complex_pair(v) for v in row]
                     for row in sample.jacobian],
        "mu_by_dm": mu,
        "sideband_dm": dm0,
        "sidebands": sidebands,
    }
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _point_flag_doc(args) -> dict:
    doc = _transition_core_doc(args)
    doc["observable"] = "point"
    doc["dm"] = args.dm if args.dm is not None else 1
    doc["trap"] = _trap_doc_from_flags(args)
    doc["sideband"] = {"n": args.n}
    doc["position_um"] = list(_parse_floats(args.position_um, 3,
                                            "--position-um"))
    return doc


def cmd_compare(args) -> int:
    a = load_map_csv(args.first)
    b = load_map_csv(args.second)
    stats = compare_maps(a, b)
    stats["scale_factor_a"] = a.scale_factor
    stats["scale_factor_b"] = b.scale_factor
    json.dump(stats, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_gnuplot_matrix(args) -> int:
    d = load_map_csv(args.input)
    nx = d.x_centers.size
    lines = [" ".join([str(nx)] + [repr(float(v) / UM) for v in d.x_centers])]
    for iy in range(d.y_centers.size):
        row = [repr(float(d.y_centers[iy]) / UM)]
        row += [repr(float(v)) for v in d.values[:, iy]]
        lines.append(" ".join(row))
    _atomic_write(args.output, "\n".join(lines) + "\n")
    print(args.output)
    return 0


def _report(paths: List[str]) -> None:
    for p in paths:
        print(p)


# -------------------------------------------------------------- arg parser


def _add_beam_flags(p: argparse.ArgumentParser, beam_required: bool) -> None:
    p.add_argument("--run-file", help="JSON run document (strict schema); "
                   "replaces the other configuration flags")
    p.add_argument("--beam", required=False,
                   help="lg:<l>[,<p>] | hg:<m>,<n> | radial | azimuthal")
    p.add_argument("--sigma", default="+1", help="polarization: -1, 0, or +1")
    p.add_argument("--waist-um", type=float, default=1.0)
    p.add_argument("--wavelength-um", type=float, default=0.729)
    p.set_defaults(_beam_required=beam_required)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--extent-um", help="x_min,x_max,y_min,y_max "
                   "(default: +/- 2 waists)")
    p.add_argument("--resolution", default=None, help="nx,ny (default 256,256)")
    p.add_argument("--z-plane-um", type=float, default=None)
    p.add_argument("--outdir", "-o", default=".")


def _add_transition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--j1", default="1/2")
    p.add_argument("--m1", default="1/2")
    p.add_argument("--j2", default="5/2")
    p.add_argument("--multipole", default="E2_dJ2",
                   help="E1 | E2_dJ1 | E2_dJ2")
    p.add_argument("--dm", type=int, default=None,
                   help="single Delta-m channel (default: all addressable)")
    p.add_argument("--theta-deg", type=float, default=0.0)
    p.add_argument("--axis", default="y",
                   help="rotation axis: x, y, or z (default y)")


def _add_trap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mass-amu", type=float, default=40.0)
    p.add_argument("--frequencies-mhz", default="1,1,1",
                   help="trap frequencies omega/2pi for X,Y,Z in MHz")
    p.add_argument("--n", type=int, default=0, help="initial motional quantum")
    p.add_argument("--branch", choices=("bsb", "rsb"), default="bsb",
                   help="sideband branch for the mode maps (default bsb)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vectorlight",
        description="Structured vector light fields and the transitions "
                    "they drive: focal-plane map files and point diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-map", help="field component modulus maps")
    _add_beam_flags(p, True)
    _add_grid_flags(p)
    p.add_argument("--component", choices=sorted(_COMPONENT_FLAGS),
                   help="single component (default: all three)")
    p.set_defaults(func=cmd_field_map)

    p = sub.add_parser("transition-map", help="relative strength maps per dm")
    _add_beam_flags(p, True)
    _add_grid_flags(p)
    _add_transition_flags(p)
    p.set_defaults(func=cmd_transition_map)

    p = sub.add_parser("sideband-map",
                       help="carrier plus X/Y/Z sideband strength maps")
    _add_beam_flags(p, True)
    _add_grid_flags(p)
    _add_transition_flags(p)
    _add_trap_flags(p)
    p.set_defaults(func=cmd_sideband_map)

    p = sub.add_parser("point", help="single-point JSON diagnostic record")
    _add_beam_flags(p, True)
    _add_transition_flags(p)
    _add_trap_flags(p)
    p.add_argument("--position-um", default="0,0,0")
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("compare", help="difference statistics of two map CSVs")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gnuplot-matrix",
                       help="convert a map CSV to a gnuplot nonuniform matrix")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_gnuplot_matrix)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "_beam_required", False) and not args.run_file \
            and not args.beam:
        parser.exit(2, f"{parser.prog}: error: missing required field "
                       f"'--beam' (or provide --run-file)\n")
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
