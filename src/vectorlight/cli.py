"""Command-line front end: focal-plane map files and point diagnostics.

Subcommands: field-map, transition-map, sideband-map, point, compare, and
gnuplot-matrix (converts a map CSV to a gnuplot nonuniform-matrix file).

Conventions at this interface: lengths in micrometers, trap frequencies in
MHz (as omega / 2 pi), mass in atomic mass units, angles in degrees.  A run
is one document: the subcommand's defaults, deep-merged with the sections of
a --run-file, then with the flags given on the command line.  Exit codes: 0
success, 2 configuration error, 3 numerical failure.  Every map is written
as a CSV grid plus a JSON sidecar; re-running the `run` document echoed in a
sidecar reproduces the CSV bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .beams import (
    LENGTH_RANGE,
    BeamSpec,
    _circular,
    field_sample_upto,
    make_radial_azimuthal,
)
from .coupling import (Geometry, Multipole, TransitionSpec, coefficients_for,
                       relative_strength)
from .errors import ConfigurationError, NumericalError
from .motion import SidebandRequest, TrapSpec, _line_strength
from .scan import (
    MAX_GRID_CELLS,
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

# each --component value: its field component and its map's file stem, in
# the order the maps of a field-map run are written
_COMPONENTS = {"Ez": ("z", "field_Ez"),
               "sigma+": ("sigma_plus", "field_sigma_plus"),
               "sigma-": ("sigma_minus", "field_sigma_minus")}

_AXIS_NAMES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


# ----------------------------------------------------------- run documents
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

# mode indices of each beam type; they default to 0, and the sigma of an LG
# or HG beam to +1
_MODE_INDICES = {"lg": ("l", "p"), "hg": ("m", "n"), "radial": (),
                 "azimuthal": ()}

# Each subcommand's defaults.  The grid extent defaults to +/- 2 waists of
# the merged beam, so it is filled in after the merge.
_BEAM = {"waist_um": 1.0, "wavelength_um": 0.729}
_GRID = {"resolution": [256, 256], "z_plane_um": 0.0}
_TRANSITION = {"transition": {"j1": "1/2", "m1": "1/2", "j2": "5/2",
                              "multipole": "E2_dJ2"},
               "geometry": {"theta_deg": 0.0, "axis": "y"}}
_MOTION = {"dm": 1, "trap": {"mass_amu": 40.0,
                             "frequencies_mhz": [1.0, 1.0, 1.0]},
           "sideband": {"n": 0}}
_DEFAULTS = {
    "field-map": {"observable": "field", "beam": _BEAM, "grid": _GRID},
    "transition-map": {"observable": "transition", "beam": _BEAM,
                       "grid": _GRID, **_TRANSITION},
    "sideband-map": {"observable": "sideband", "beam": _BEAM, "grid": _GRID,
                     **_TRANSITION, **_MOTION,
                     "sideband": dict(_MOTION["sideband"], branch="bsb")},
    "point": {"observable": "point", "beam": _BEAM, **_TRANSITION, **_MOTION,
              "position_um": [0.0, 0.0, 0.0]},
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


def _sigma(value) -> int:
    if str(value) not in ("-1", "0", "1", "+1"):
        raise ValueError(f"must be -1, 0, or +1, got {value!r}")
    return int(str(value))


def _beam_flag(text: str) -> dict:
    """The beam type and mode indices named by a --beam value."""
    spec = text.strip().lower()
    if spec in ("radial", "azimuthal"):
        return {"type": spec}
    kind, _, rest = spec.partition(":")
    if kind not in ("lg", "hg"):
        raise ValueError("expected lg:<l>[,<p>], hg:<m>,<n>, radial, or "
                         f"azimuthal; got {text!r}")
    nums = [int(p) for p in rest.split(",") if p]
    if len(nums) not in {"lg": (1, 2), "hg": (2,)}[kind]:
        raise ValueError(f"{kind} needs {'l[,p]' if kind == 'lg' else 'm,n'}")
    return {"type": kind, **dict(zip(_MODE_INDICES[kind], nums))}


def _comma_list(convert):
    """Converter of a comma-separated flag value into a list; its length is
    checked on the run document, as for run files."""
    def parse(text: str) -> list:
        return [convert(p) for p in text.replace(" ", "").split(",") if p]
    return parse


def _whole(text: str):
    """A number that is an int when whole: '8' reads as 8, while '8.5' stays
    a float for the run document's integer check to reject."""
    value = float(text)
    return int(value) if value.is_integer() else value


# Every configuration flag: its run-document path, the converter of its text
# and its help.  Only flags given on the command line enter the document.
_FLAGS = {
    "--beam": ("beam", _beam_flag,
               "lg:<l>[,<p>] | hg:<m>,<n> | radial | azimuthal"),
    "--sigma": ("beam.sigma", _sigma,
                "polarization of LG and HG beams: -1, 0, or +1"),
    "--waist-um": ("beam.waist_um", float, "beam waist"),
    "--wavelength-um": ("beam.wavelength_um", float, "wavelength"),
    "--extent-um": ("grid.extent_um", _comma_list(float),
                    "x_min,x_max,y_min,y_max (default: +/- 2 waists)"),
    "--resolution": ("grid.resolution", _comma_list(_whole),
                     f"nx,ny with nx*ny <= {MAX_GRID_CELLS}"),
    "--z-plane-um": ("grid.z_plane_um", float, "focal-plane offset"),
    "--component": ("component", str,
                    f"one of {', '.join(_COMPONENTS)} "
                    "(default: all three)"),
    "--j1": ("transition.j1", str, "lower-level J"),
    "--m1": ("transition.m1", str, "lower-level m"),
    "--j2": ("transition.j2", str, "upper-level J"),
    "--multipole": ("transition.multipole", str, "E1 | E2_dJ1 | E2_dJ2"),
    "--dm": ("dm", int, "Delta-m channel"),
    "--theta-deg": ("geometry.theta_deg", float,
                    "quantization-axis tilt"),
    "--axis": ("geometry.axis", str, "rotation axis: x, y, or z"),
    "--mass-amu": ("trap.mass_amu", float, "ion mass"),
    "--frequencies-mhz": ("trap.frequencies_mhz", _comma_list(float),
                          "trap frequencies omega/2pi for X,Y,Z in MHz"),
    "--n": ("sideband.n", int, "initial motional quantum"),
    "--branch": ("sideband.branch", str,
                 "sideband branch of the mode maps: bsb or rsb"),
    "--position-um": ("position_um", _comma_list(float), "x,y,z"),
}

_BEAM_FLAGS = ("--beam", "--sigma", "--waist-um", "--wavelength-um")
_GRID_FLAGS = ("--extent-um", "--resolution", "--z-plane-um")
_TRANSITION_FLAGS = ("--j1", "--m1", "--j2", "--multipole", "--dm",
                     "--theta-deg", "--axis")
_TRAP_FLAGS = ("--mass-amu", "--frequencies-mhz", "--n")

_RUN_FILE_HELP = (
    "JSON run document (strict schema). Precedence: defaults < run file < "
    "explicit flags; --beam replaces the file's beam type and mode indices. "
    "Numbers must be finite, and a grid has at most "
    f"{MAX_GRID_CELLS} cells.")


def _merge(doc: dict, over: dict) -> None:
    """Deep-merge `over` into `doc`: sections merge key by key, values replace."""
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            _merge(doc[key], value)
        else:
            doc[key] = value


def _complete_beam(beam: dict) -> None:
    """Default the mode indices of the beam's type and an LG/HG sigma."""
    kind = beam.get("type")
    if kind is None:
        raise ConfigurationError("missing required field 'beam.type' "
                                 "(--beam or run-file beam section)")
    indices = _MODE_INDICES.get(kind) if isinstance(kind, str) else None
    if indices is None:
        raise ConfigurationError(
            f"beam.type must be lg, hg, radial, or azimuthal, got {kind!r}")
    for key in indices:
        beam.setdefault(key, 0)
    if indices:
        beam.setdefault("sigma", 1)
    else:
        beam.pop("sigma", None)


def _resolve(args) -> dict:
    """The run document: the subcommand's defaults, then the run file's
    sections, then the flags given explicitly."""
    defaults = _DEFAULTS[args.command]
    doc = copy.deepcopy(defaults)
    if args.run_file:
        _merge(doc, load_run_file(args.run_file))
    given = vars(args)
    if "beam" in given:
        # a --beam mode replaces the file's: none of its mode indices survive
        for key in ("type", "l", "p", "m", "n"):
            doc["beam"].pop(key, None)
    for flag, (path, convert, _) in _FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if dest not in given:
            continue
        try:
            value = convert(given[dest])
        except ValueError as exc:
            raise ConfigurationError(f"{flag}: {exc}") from exc
        for key in reversed(path.split(".")):
            value = {key: value}
        _merge(doc, value)
    doc["observable"] = defaults["observable"]
    _complete_beam(doc["beam"])
    if "grid" in defaults:
        w = 2.0 * _read(doc["beam"], "beam", "waist_um", _length)
        doc["grid"].setdefault("extent_um", [-w, w, -w, w])
    return doc


# ------------------------------------------------------ run-document values


def _read(doc: dict, path: str, key: str, convert):
    """doc[key] through `convert`; a bad value is a ConfigurationError naming
    its field path, e.g. 'beam.l'."""
    try:
        return convert(doc.get(key))
    except (TypeError, ValueError, OverflowError) as exc:
        where = f"{path}.{key}" if path else key
        raise ConfigurationError(f"{where}: {exc}") from exc


def _finite(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _integer(value) -> int:
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(number)


def _count(value) -> int:
    number = _integer(value)
    if number < 0:
        raise ValueError(f"must be a non-negative integer, got {value!r}")
    return number


def _within(lo: float, hi: float):
    """Converter of a length in um whose value in meters lies in [lo, hi]."""
    def convert(value) -> float:
        value = _finite(value)
        if not lo <= value * UM <= hi:
            raise ValueError(f"must lie in [{lo / UM:g}, {hi / UM:g}] um, "
                             f"got {value!r}")
        return value
    return convert


# waists and wavelengths; coordinates of the grid and of a point
_length = _within(*LENGTH_RANGE)
_coordinate = _within(-LENGTH_RANGE[1], LENGTH_RANGE[1])


def _numbers(convert, count: int):
    """Converter of a list of exactly `count` values, each through `convert`."""
    def parse(value):
        if isinstance(value, (str, bytes)) or not hasattr(value, "__len__"):
            raise TypeError(f"expected a list of {count} numbers, got {value!r}")
        if len(value) != count:
            raise ValueError(f"needs {count} values, got {len(value)}")
        return tuple(convert(v) for v in value)
    return parse


def _build_beam(doc: dict) -> BeamSpec:
    waist = _read(doc, "beam", "waist_um", _length) * UM
    wavelength = _read(doc, "beam", "wavelength_um", _length) * UM
    kind = doc["type"]
    if kind in ("radial", "azimuthal"):
        return make_radial_azimuthal(kind, waist=waist, wavelength=wavelength)
    a, b = (_read(doc, "beam", key, _integer) for key in _MODE_INDICES[kind])
    sigma = _read(doc, "beam", "sigma", _sigma)
    try:
        return getattr(BeamSpec, kind)(a, b, sigma=sigma, waist=waist,
                                       wavelength=wavelength)
    except ValueError as exc:
        raise ConfigurationError(f"beam: {exc}") from exc


def _transitions(doc: dict, dms=None) -> Dict[int, TransitionSpec]:
    """The transition at each Delta-m of `dms`, by default at each channel of
    its multipole, ascending, whose m2 is a projection of J2.  With none, the
    lowest channel is built, so that TransitionSpec names the fault."""
    try:
        j1, m1, j2 = (HalfInt.coerce(doc[key]) for key in ("j1", "m1", "j2"))
        multipole = Multipole.parse(str(doc["multipole"]))
        if dms is None:
            channels = sorted(coefficients_for(multipole).channels)
            dms = [dm for dm in channels
                   if (m1 + dm).is_projection_of(j2)] or channels[:1]
        return {dm: TransitionSpec(j1, m1, j2, m1 + dm, multipole)
                for dm in dms}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"transition: {exc}") from exc


def _build_geometry(doc: dict) -> Geometry:
    theta = math.radians(_read(doc, "geometry", "theta_deg", _finite))
    axis = doc["axis"]
    if isinstance(axis, str):
        try:
            axis = _AXIS_NAMES[axis.lower()]
        except KeyError:
            raise ConfigurationError(f"geometry.axis: unknown axis {axis!r}")
    else:
        axis = _read(doc, "geometry", "axis", _numbers(_finite, 3))
    try:
        return Geometry(theta, axis)
    except ValueError as exc:
        raise ConfigurationError(f"geometry: {exc}") from exc


def _build_trap(doc: dict) -> TrapSpec:
    mass = _read(doc, "trap", "mass_amu", _finite)
    freqs = _read(doc, "trap", "frequencies_mhz", _numbers(_finite, 3))
    try:
        return TrapSpec.from_lab_units(mass, freqs)
    except ValueError as exc:
        raise ConfigurationError(f"trap: {exc}") from exc


def _motion_run(doc: dict):
    """The beam, geometry, trap, Delta-m, transition at that Delta-m and
    motional quantum n of a sideband-map or point run document."""
    beam = _build_beam(doc["beam"])
    geom = _build_geometry(doc["geometry"])
    trap = _build_trap(doc["trap"])
    dm = _read(doc, "", "dm", _integer)
    trans = _transitions(doc["transition"], [dm])[dm]
    return beam, geom, trap, dm, trans, _read(doc["sideband"], "sideband",
                                              "n", _count)


# ------------------------------------------------------------ file output


def _cannot_write(path: str, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write {path}: {exc.strerror or exc}")


def _atomic_write(path: str, text: str) -> None:
    """Write `text` to `path` through a temporary file that never outlives
    the call; an OSError becomes a ConfigurationError naming `path`."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise _cannot_write(path, exc) from exc


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
        lines.append(",".join(map(repr, row.tolist())))
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


def _write_maps(args, doc: dict, maps) -> int:
    """Scan `maps`, each (file stem, observable, run-document echo, sidecar
    extras), on the grid of `doc`; write each map's CSV and sidecar into
    args.outdir, then print the paths written, one per line."""
    grid = doc["grid"]
    extent = _read(grid, "grid", "extent_um", _numbers(_coordinate, 4))
    res = _read(grid, "grid", "resolution", _numbers(_integer, 2))
    z_plane = _read(grid, "grid", "z_plane_um", _coordinate) * UM
    extent = tuple(v * UM for v in extent)
    datasets = run_scans([ScanConfig(obs, extent, res, z_plane=z_plane)
                          for _, obs, _, _ in maps])
    written = []
    for (stem, _, run_doc, extra), dataset in zip(maps, datasets):
        try:
            os.makedirs(args.outdir, exist_ok=True)
        except OSError as exc:
            raise _cannot_write(args.outdir, exc) from exc
        path = os.path.join(args.outdir, stem)
        _atomic_write(path + ".csv", _csv_text(dataset, stem))
        _atomic_write(path + ".json", _sidecar_text(dataset, run_doc, extra))
        written += [path + ".csv", path + ".json"]
    for path in written:
        print(path)
    return 0


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


def cmd_field_map(args) -> int:
    doc = _resolve(args)
    beam = _build_beam(doc["beam"])
    wanted = doc.get("component")
    if wanted and (not isinstance(wanted, str) or wanted not in _COMPONENTS):
        raise ConfigurationError(
            f"component must be one of {sorted(_COMPONENTS)}")
    return _write_maps(args, doc, [
        (stem, FieldComponentObservable(beam, comp),
         dict(doc, component=flag), {"component": comp})
        for flag, (comp, stem) in _COMPONENTS.items()
        if not wanted or flag == wanted])


def _dm_stem(dm: int) -> str:
    return "dm_" + (f"p{dm}" if dm > 0 else f"m{-dm}" if dm < 0 else "0")


def cmd_transition_map(args) -> int:
    doc = _resolve(args)
    beam = _build_beam(doc["beam"])
    geom = _build_geometry(doc["geometry"])
    tdoc = doc["transition"]
    dms = None if doc.get("dm") is None else [_read(doc, "", "dm", _integer)]
    return _write_maps(args, doc, [
        (f"mu_{_dm_stem(dm)}", TransitionObservable(beam, trans, geom),
         dict(doc, dm=dm, transition=dict(tdoc, m2=str(trans.m2))), {"dm": dm})
        for dm, trans in _transitions(tdoc, dms).items()])


def cmd_sideband_map(args) -> int:
    doc = _resolve(args)
    beam, geom, trap, _, trans, n = _motion_run(doc)
    branch = doc["sideband"]["branch"]
    if branch not in ("bsb", "rsb"):
        raise ConfigurationError("sideband.branch must be 'bsb' or 'rsb'")
    run_doc = dict(doc, transition=dict(doc["transition"], m2=str(trans.m2)))
    requests = [("carrier", SidebandRequest("X", n, "carrier"), False)]
    requests += [(f"{branch}_{mode}", SidebandRequest(mode, n, branch), True)
                 for mode in ("X", "Y", "Z")]
    return _write_maps(args, doc, [
        (f"sideband_{stem}",
         SidebandObservable(beam, trap, req, trans, geom, eta_rescale=resc),
         run_doc, {"branch": req.branch, "mode": req.mode, "n": req.n,
                   "eta_rescaled": resc})
        for stem, req, resc in requests])


def cmd_point(args) -> int:
    doc = _resolve(args)
    beam, geom, trap, dm0, trans0, n = _motion_run(doc)
    pos_um = _read(doc, "", "position_um", _numbers(_coordinate, 3))
    point = np.array([v * UM for v in pos_um])

    # one order-2 sample serves every line: its lower-order blocks are
    # bitwise those of a lower-order sample
    sample = field_sample_upto(beam, point, 2)
    comps = _circular(sample.electric)
    mu: Dict[str, List[float]] = {}
    for dm, trans in _transitions(doc["transition"]).items():
        mu[f"{dm:+d}"] = _complex_pair(relative_strength(sample, trans, geom))
    sidebands = {}
    for mode in ("X", "Y", "Z"):
        for branch in ("carrier", "bsb", "rsb"):
            req = SidebandRequest(mode, n, branch)
            val = _line_strength(lambda pts, order: sample, point, trap, req,
                                 trans0, geom)[0]
            key = branch if branch == "carrier" else f"{branch}_{mode}"
            sidebands[key] = _complex_pair(complex(val))

    record = {
        "tool_version": __version__,
        "position_um": list(pos_um),
        "run": doc,
        "electric_field": [_complex_pair(v) for v in sample.electric],
        "components": {k: _complex_pair(v) for k, v in comps.items()},
        "jacobian": [[_complex_pair(v) for v in row]
                     for row in sample.jacobian],
        "mu_by_dm": mu,
        "sideband_dm": dm0,
        "sidebands": sidebands,
    }
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalError("non-finite values in point record") from None
    sys.stdout.write(text + "\n")
    return 0


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


# -------------------------------------------------------------- arg parser

# the run-document subcommands: command, handler, help, configuration flags
_RUN_COMMANDS = (
    ("field-map", cmd_field_map, "field component modulus maps",
     _BEAM_FLAGS + _GRID_FLAGS + ("--component",)),
    ("transition-map", cmd_transition_map,
     "relative strength maps, one per addressable Delta-m unless --dm is "
     "given", _BEAM_FLAGS + _GRID_FLAGS + _TRANSITION_FLAGS),
    ("sideband-map", cmd_sideband_map,
     "carrier plus X/Y/Z sideband strength maps",
     _BEAM_FLAGS + _GRID_FLAGS + _TRANSITION_FLAGS + _TRAP_FLAGS
     + ("--branch",)),
    ("point", cmd_point, "single-point JSON diagnostic record",
     _BEAM_FLAGS + _TRANSITION_FLAGS + _TRAP_FLAGS + ("--position-um",)),
)


def _add_flags(p: argparse.ArgumentParser, command: str,
               flags: Sequence[str]) -> None:
    """Add configuration flags; their help shows the command's defaults."""
    for flag in flags:
        path, _, text = _FLAGS[flag]
        default = _DEFAULTS[command]
        for key in path.split("."):
            default = default.get(key) if isinstance(default, dict) else None
        if isinstance(default, list):
            default = ",".join(map(str, default))
        if default is not None and not isinstance(default, dict):
            text += f" (default: {default})"
        p.add_argument(flag, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vectorlight",
        description="Structured vector light fields and the transitions "
                    "they drive: focal-plane map files and point diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, text, flags in _RUN_COMMANDS:
        # flags that are not given stay out of the namespace, so only
        # explicit flags override the run file
        p = sub.add_parser(command, help=text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--run-file", default=None, help=_RUN_FILE_HELP)
        _add_flags(p, command, flags)
        if command != "point":
            p.add_argument("--outdir", "-o", default=".")
        p.set_defaults(func=func)

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


def _attach_flag_values(argv: Sequence[str]) -> List[str]:
    """Join each configuration flag to its next token: argparse reads a
    separate value such as "-1,1,-1,1" or "-1e-05" as an unknown flag."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in _FLAGS:
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


# parsing leaves no state in the parser, so one serves every call
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(_attach_flag_values(
        sys.argv[1:] if argv is None else argv))
    if args.command in _DEFAULTS and not args.run_file and "beam" not in args:
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
