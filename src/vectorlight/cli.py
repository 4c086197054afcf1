"""Command-line front end: focal-plane map files and point diagnostics.

Subcommands: field-map, transition-map, sideband-map, point, compare, and
gnuplot-matrix (converts a map CSV to a gnuplot nonuniform-matrix file).

Conventions at this interface: lengths in micrometers, trap frequencies in
MHz (as omega / 2 pi), mass in atomic mass units, angles in degrees.  A run
is one document: the subcommand's defaults, deep-merged with the sections of
a --run-file, then with the flags given on the command line.  One table,
`_FIELDS`, declares each field of the document by its path, with its default
and, if a flag sets it, the flag, its converter and its help; a subcommand
names the sections it takes and the defaults it replaces, and its flags,
help, defaults and run-file schema all follow from them.  Exit codes: 0
success, 2 configuration error, 3 numerical failure.  Every map is written
as a CSV grid plus a JSON sidecar; re-running the `run` document echoed in a
sidecar reproduces the CSV bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

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
from .motion import SidebandRequest, TrapSpec, _line_order, _line_strength
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
# Strict schema: every physical quantity carries its unit in the key name.
# A run-file field that the subcommand does not take is rejected with its
# path in the message, as the matching flag is.

# mode indices of each beam type; they default to 0, and the sigma of an LG
# or HG beam to +1
_MODE_INDICES = {"lg": ("l", "p"), "hg": ("m", "n"), "radial": (),
                 "azimuthal": ()}


def _check_fields(doc: dict, fields: dict, path: str = "") -> None:
    """Reject any key of `doc`, the object at document path `path`, that is
    not one level of a path of `fields`: a key holding a '.' is one."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"run file: '{path or '<root>'}' must be an object")
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        section = any(name.startswith(f"{where}.") for name in fields)
        if "." in key or not (section or where in fields):
            raise ConfigurationError(f"run file: unknown field '{where}'")
        if section:
            _check_fields(value, fields, where)


def load_run_file(path: str, fields: dict) -> dict:
    """The run document in the JSON file `path`; each of its fields must be
    a path of `fields`, the fields of one subcommand."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read run file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"run file: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    _check_fields(doc, fields)
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


class _Field(NamedTuple):
    """A run-document field: its default (None: none; a list default is a
    tuple, which every run document can share) and, if a flag sets the
    field, the flag, the converter of the flag's text and its help."""
    default: object = None
    flag: Optional[str] = None
    convert: Optional[Callable] = None
    help: str = ""


# Every run-document field, by its path; a subcommand's flags appear in this
# order.  Only flags given on the command line enter the document.
_FIELDS = {
    "observable": _Field(),
    "beam": _Field(None, "--beam", _beam_flag,
                   "lg:<l>[,<p>] | hg:<m>,<n> | radial | azimuthal"),
    **{f"beam.{key}": _Field() for key in ("type", "l", "p", "m", "n")},
    "beam.sigma": _Field(None, "--sigma", _sigma,
                         "polarization of LG and HG beams: -1, 0, or +1"),
    "beam.waist_um": _Field(1.0, "--waist-um", float, "beam waist"),
    "beam.wavelength_um": _Field(0.729, "--wavelength-um", float,
                                 "wavelength"),
    # the extent defaults to +/- 2 waists of the merged beam
    "grid.extent_um": _Field(None, "--extent-um", _comma_list(float),
                             "x_min,x_max,y_min,y_max "
                             "(default: +/- 2 waists)"),
    "grid.resolution": _Field((256, 256), "--resolution", _comma_list(_whole),
                              f"nx,ny with nx*ny <= {MAX_GRID_CELLS}"),
    "grid.z_plane_um": _Field(0.0, "--z-plane-um", float,
                              "focal-plane offset"),
    "component": _Field(None, "--component", str,
                        f"one of {', '.join(_COMPONENTS)} (default: all three)"),
    "transition.j1": _Field("1/2", "--j1", str, "lower-level J"),
    "transition.m1": _Field("1/2", "--m1", str, "lower-level m"),
    "transition.j2": _Field("5/2", "--j2", str, "upper-level J"),
    "transition.m2": _Field(),
    "transition.multipole": _Field("E2_dJ2", "--multipole", str,
                                   "E1 | E2_dJ1 | E2_dJ2"),
    "dm": _Field(None, "--dm", int, "Delta-m channel"),
    "geometry.theta_deg": _Field(0.0, "--theta-deg", float,
                                 "quantization-axis tilt"),
    "geometry.axis": _Field("y", "--axis", str, "rotation axis: x, y, or z"),
    "trap.mass_amu": _Field(40.0, "--mass-amu", float, "ion mass"),
    "trap.frequencies_mhz": _Field((1.0, 1.0, 1.0), "--frequencies-mhz",
                                   _comma_list(float),
                                   "trap frequencies omega/2pi for X,Y,Z "
                                   "in MHz"),
    "sideband.n": _Field(0, "--n", int, "initial motional quantum"),
    "sideband.branch": _Field("bsb", "--branch", str,
                              "sideband branch of the mode maps: bsb or rsb"),
    "position_um": _Field((0.0, 0.0, 0.0), "--position-um",
                          _comma_list(float), "x,y,z"),
}

_FLAGS = {field.flag for field in _FIELDS.values() if field.flag}

_RUN_FILE_HELP = (
    "JSON run document (strict schema). Precedence: defaults < run file < "
    "explicit flags; --beam replaces the file's beam type and mode indices. "
    "Numbers must be finite, and a grid has at most "
    f"{MAX_GRID_CELLS} cells.")


def _command_fields(takes: Sequence[str], overrides: dict) -> dict:
    """The fields of a subcommand, in table order: each path that `takes`
    names or that lies in a section it names, and each path of `overrides`,
    whose default replaces the table's."""
    fields = {path: field for path, field in _FIELDS.items()
              if path in takes or path.partition(".")[0] in takes
              or path in overrides}
    for path, default in overrides.items():
        fields[path] = fields[path]._replace(default=default)
    return fields


def _place(doc: dict, path: str, value) -> None:
    """Merge `value` into `doc` at the document path `path`."""
    for key in reversed(path.split(".")):
        value = {key: value}
    _merge(doc, value)


def _merge(doc: dict, over: dict) -> None:
    """Deep-merge `over` into `doc`: sections merge key by key, values replace."""
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            _merge(doc[key], value)
        else:
            doc[key] = value


def _complete_beam(beam: dict) -> None:
    """Default the mode indices of the beam's type and an LG/HG sigma."""
    if beam.get("type") is None:
        raise ConfigurationError("missing required field 'beam.type' "
                                 "(--beam or run-file beam section)")
    indices = _MODE_INDICES[_read(beam, "beam", "type",
                                  _one_of(_MODE_INDICES))]
    for key in indices:
        beam.setdefault(key, 0)
    if indices:
        beam.setdefault("sigma", 1)
    else:
        beam.pop("sigma", None)


def _resolve(args) -> dict:
    """The run document: the subcommand's defaults, then the run file's
    sections, then the flags given explicitly."""
    doc: dict = {}
    for path, field in args.fields.items():
        if field.default is not None:
            _place(doc, path, field.default)
    if args.run_file:
        _merge(doc, load_run_file(args.run_file, args.fields))
    given = vars(args)
    if "beam" in given:
        # a --beam mode replaces the file's: none of its mode indices survive
        for key in ("type", "l", "p", "m", "n"):
            doc["beam"].pop(key, None)
    for path, field in args.fields.items():
        dest = field.flag[2:].replace("-", "_") if field.flag else None
        if dest not in given:
            continue
        _place(doc, path, _checked(field.flag, field.convert, given[dest]))
    doc["observable"] = args.fields["observable"].default
    _complete_beam(doc["beam"])
    if "grid.extent_um" in args.fields:
        w = 2.0 * _read(doc["beam"], "beam", "waist_um", _length)
        doc["grid"].setdefault("extent_um", [-w, w, -w, w])
    return doc


# ------------------------------------------------------ run-document values


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), which converts a run-document value or builds
    an object from such values.  A TypeError, ValueError or OverflowError it
    raises is bad input: a ConfigurationError '<where>: <message>', which
    the CLI prints and exits 2 on."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _read(doc: dict, path: str, key: str, convert):
    """doc[key] through `convert`; a bad value is a ConfigurationError naming
    its field path, e.g. 'beam.l'."""
    return _checked(f"{path}.{key}" if path else key, convert, doc.get(key))


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


def _one_of(options):
    """Converter of a value that must be one of the strings `options`."""
    def convert(value) -> str:
        if not (isinstance(value, str) and value in options):
            raise ValueError(f"must be one of {', '.join(options)}, "
                             f"got {value!r}")
        return value
    return convert


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


def _axis(value):
    """A rotation axis: x, y or z in any case, or three finite numbers."""
    if isinstance(value, str):
        if value.lower() not in _AXIS_NAMES:
            raise ValueError(f"unknown axis {value!r}")
        return _AXIS_NAMES[value.lower()]
    return _numbers(_finite, 3)(value)


def _build_beam(doc: dict) -> BeamSpec:
    waist = _read(doc, "beam", "waist_um", _length) * UM
    wavelength = _read(doc, "beam", "wavelength_um", _length) * UM
    kind = doc["type"]
    if kind in ("radial", "azimuthal"):
        return make_radial_azimuthal(kind, waist=waist, wavelength=wavelength)
    a, b = (_read(doc, "beam", key, _integer) for key in _MODE_INDICES[kind])
    sigma = _read(doc, "beam", "sigma", _sigma)
    return _checked("beam", getattr(BeamSpec, kind), a, b, sigma=sigma,
                    waist=waist, wavelength=wavelength)


def _transitions(doc: dict, dm=None) -> Dict[int, TransitionSpec]:
    """The transition at each channel of its multipole, ascending, whose m2
    is a projection of J2.  With none, the lowest channel is built, so that
    TransitionSpec names the fault.  A Delta-m `dm`, if given, is built
    first, so that its fault is the one named, and is rejected unless it is
    a channel; it is then one of the result's keys."""
    return _checked("transition", _channel_specs, doc, dm)


def _channel_specs(doc: dict, dm) -> Dict[int, TransitionSpec]:
    """The body of `_transitions`, which names the section of its faults."""
    j1, m1, j2 = (HalfInt.coerce(doc[key]) for key in ("j1", "m1", "j2"))
    multipole = Multipole.parse(str(doc["multipole"]))
    channels = sorted(coefficients_for(multipole).channels)
    if dm is not None:
        TransitionSpec(j1, m1, j2, m1 + dm, multipole)
        if dm not in channels:
            raise ValueError(
                f"dm={dm} is not a channel of {multipole.value} "
                f"({channels[0]:+d} to {channels[-1]:+d})")
    dms = [d for d in channels
           if (m1 + d).is_projection_of(j2)] or channels[:1]
    return {d: TransitionSpec(j1, m1, j2, m1 + d, multipole) for d in dms}


def _build_geometry(doc: dict) -> Geometry:
    theta = math.radians(_read(doc, "geometry", "theta_deg", _finite))
    axis = _read(doc, "geometry", "axis", _axis)
    return _checked("geometry", Geometry, theta, axis)


def _build_trap(doc: dict) -> TrapSpec:
    mass = _read(doc, "trap", "mass_amu", _finite)
    freqs = _read(doc, "trap", "frequencies_mhz", _numbers(_finite, 3))
    return _checked("trap", TrapSpec.from_lab_units, mass, freqs)


def _motion_run(doc: dict):
    """The beam, geometry, trap, Delta-m, transitions at each channel (the
    one at that Delta-m among them, see `_transitions`) and motional
    quantum n of a sideband-map or point run document."""
    beam = _build_beam(doc["beam"])
    geom = _build_geometry(doc["geometry"])
    trap = _build_trap(doc["trap"])
    dm = _read(doc, "", "dm", _integer)
    specs = _transitions(doc["transition"], dm)
    return beam, geom, trap, dm, specs, _read(doc["sideband"], "sideband",
                                              "n", _count)


# ------------------------------------------------------------ file output


def _cannot_write(path: str, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write {path}: {exc.strerror or exc}")


def _atomic_write(path: str, pieces) -> None:
    """Write the strings of `pieces` to `path` through a temporary file that
    never outlives the call; an OSError becomes a ConfigurationError naming
    `path`, any other exception propagates and leaves `path` as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        # each map row is one piece: default 8 KB writes cost a map run ~3%
        with open(tmp, "w", encoding="utf-8", buffering=1 << 16) as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


# cells in one band of whole rows of map text: a map file is written band by
# band, so writing one holds at most about 125 B per cell of a band, 8 MB
_TEXT_BAND = 1 << 16


def _float_reprs(values: np.ndarray):
    """Yield the repr of every float of the 2-D float64 array `values`, one
    list of strings per row.  A band of rows formats each of its distinct
    values once, told apart by their bits (so -0.0 and 0.0 are two): a map
    centred on the beam axis repeats its values across its mirror lines."""
    rows = max(1, _TEXT_BAND // values.shape[1])
    for start in range(0, values.shape[0], rows):
        band = np.ascontiguousarray(values[start:start + rows], np.float64)
        bits, index = np.unique(band.view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                        dtype=object)
        yield from text[index.reshape(band.shape)].tolist()


def _csv_lines(dataset: MapDataset, stem: str):
    """Yield the CSV text of `dataset`: its header, then one line per row."""
    xs = ", ".join(repr(float(v) / UM) for v in dataset.x_centers)
    ys = ", ".join(repr(float(v) / UM) for v in dataset.y_centers)
    yield "\n".join([
        "# vectorlight map v1",
        f"# name: {stem}",
        f"# observable: {dataset.observable_name}",
        f"# scale_factor: {dataset.scale_factor!r}",
        f"# z_plane_um: {dataset.z_plane / UM!r}",
        "# shape: %d,%d" % dataset.values.shape,
        f"# x_centers_um: {xs}",
        f"# y_centers_um: {ys}",
        "# rows follow the x index, columns the y index; values are moduli"
        " normalized to a peak of 1",
    ]) + "\n"
    for row in _float_reprs(dataset.values):
        yield ",".join(row) + "\n"


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
        _atomic_write(path + ".csv", _csv_lines(dataset, stem))
        _atomic_write(path + ".json", (_sidecar_text(dataset, run_doc, extra),))
        written += [path + ".csv", path + ".json"]
    for path in written:
        print(path)
    return 0


def load_map_csv(path: str) -> MapDataset:
    """Rebuild a MapDataset (values, grid, scale) from a map CSV file; a
    non-finite number or a ragged row is a ConfigurationError naming its
    line or header."""
    meta: Dict[str, str] = {}
    rows, linenos = [], []
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
                    # one float64 array per row: no Python float outlives
                    # its row
                    row = np.array([float(v) for v in line.split(",")])
                    if rows and len(row) != len(rows[0]):
                        raise ValueError(f"{len(row)} values, the first row "
                                         f"has {len(rows[0])}")
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}: line {lineno}: not a map CSV row ({exc})"
                    ) from exc
                rows.append(row)
                linenos.append(lineno)
    except OSError as exc:
        raise ConfigurationError(f"cannot read map file: {exc}") from exc
    required = {"scale_factor", "z_plane_um", "x_centers_um", "y_centers_um"}
    missing = required - set(meta)
    if missing:
        raise ConfigurationError(
            f"{path}: not a map CSV (missing header {sorted(missing)})")
    values = np.array(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ConfigurationError(
            f"{path}: line {linenos[i]}: not a map CSV row (must be finite, "
            f"got {float(values[i, j])!r})")

    def centers(text: str) -> np.ndarray:
        return np.array([_finite(v) for v in text.split(",")]) * UM

    try:
        xs = _read(meta, "", "x_centers_um", centers)
        ys = _read(meta, "", "y_centers_um", centers)
        scale = _read(meta, "", "scale_factor", _finite)
        z_plane = _read(meta, "", "z_plane_um", _finite) * UM
    except ConfigurationError as exc:
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
    c = complex(z)
    return [c.real, c.imag]


# ------------------------------------------------------------ subcommands


def cmd_field_map(args) -> int:
    doc = _resolve(args)
    beam = _build_beam(doc["beam"])
    # an absent or null component means all three
    wanted = None if doc.get("component") is None else _read(
        doc, "", "component", _one_of(_COMPONENTS))
    return _write_maps(args, doc, [
        (stem, FieldComponentObservable(beam, comp),
         dict(doc, component=flag), {"component": comp})
        for flag, (comp, stem) in _COMPONENTS.items()
        if wanted in (None, flag)])


def _dm_stem(dm: int) -> str:
    return "dm_" + (f"p{dm}" if dm > 0 else f"m{-dm}" if dm < 0 else "0")


def cmd_transition_map(args) -> int:
    doc = _resolve(args)
    beam = _build_beam(doc["beam"])
    geom = _build_geometry(doc["geometry"])
    tdoc = doc["transition"]
    want = None if doc.get("dm") is None else _read(doc, "", "dm", _integer)
    return _write_maps(args, doc, [
        (f"mu_{_dm_stem(dm)}", TransitionObservable(beam, trans, geom),
         dict(doc, dm=dm, transition=dict(tdoc, m2=str(trans.m2))), {"dm": dm})
        for dm, trans in _transitions(tdoc, want).items()
        if want in (None, dm)])


def cmd_sideband_map(args) -> int:
    doc = _resolve(args)
    beam, geom, trap, dm, specs, n = _motion_run(doc)
    trans = specs[dm]
    branch = _read(doc["sideband"], "sideband", "branch",
                   _one_of(("bsb", "rsb")))
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
    # m2 follows from each Delta-m, so a run file's m2 is not echoed
    doc["transition"].pop("m2", None)
    beam, geom, trap, dm0, specs, n = _motion_run(doc)
    trans0 = specs[dm0]
    pos_um = _read(doc, "", "position_um", _numbers(_coordinate, 3))
    point = np.array([v * UM for v in pos_um])

    lines = [(b if b == "carrier" else f"{b}_{m}", SidebandRequest(m, n, b))
             for m in ("X", "Y", "Z") for b in ("carrier", "bsb", "rsb")]
    # one sample at the deepest line's order serves every line: its
    # lower-order blocks are bitwise those of a lower-order sample
    sample = field_sample_upto(
        beam, point, max(_line_order(req, trans0) for _, req in lines))
    comps = _circular(sample.electric)
    mu: Dict[str, List[float]] = {}
    for dm, trans in specs.items():
        mu[f"{dm:+d}"] = _complex_pair(relative_strength(sample, trans, geom))
    sidebands = {}
    for key, req in lines:
        val = _line_strength(lambda pts, order: sample, point, trap, req,
                             trans0, geom)[0]
        sidebands[key] = _complex_pair(val)

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
    xs = [str(d.x_centers.size)] + [repr(float(v) / UM) for v in d.x_centers]
    rows = (" ".join([repr(float(y) / UM)] + row) + "\n"
            for y, row in zip(d.y_centers, _float_reprs(d.values.T)))
    _atomic_write(args.output, itertools.chain([" ".join(xs) + "\n"], rows))
    print(args.output)
    return 0


# -------------------------------------------------------------- arg parser

# the run-document subcommands: command, handler, help, the fields it takes
# (a section name takes every field of the section) and the defaults that
# replace the table's
_RUN_COMMANDS = (
    ("field-map", cmd_field_map, "field component modulus maps",
     ("beam", "grid", "component"), {"observable": "field"}),
    ("transition-map", cmd_transition_map,
     "relative strength maps, one per addressable Delta-m unless --dm is "
     "given", ("beam", "grid", "transition", "dm", "geometry"),
     {"observable": "transition"}),
    ("sideband-map", cmd_sideband_map,
     "carrier plus X/Y/Z sideband strength maps",
     ("beam", "grid", "transition", "dm", "geometry", "trap", "sideband"),
     {"observable": "sideband", "dm": 1}),
    ("point", cmd_point, "single-point JSON diagnostic record",
     ("beam", "transition", "dm", "geometry", "trap", "sideband.n",
      "position_um"), {"observable": "point", "dm": 1}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vectorlight",
        description="Structured vector light fields and the transitions "
                    "they drive: focal-plane map files and point diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, text, takes, overrides in _RUN_COMMANDS:
        # flags that are not given stay out of the namespace, so only
        # explicit flags override the run file
        p = sub.add_parser(command, help=text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--run-file", default=None, help=_RUN_FILE_HELP)
        fields = _command_fields(takes, overrides)
        for field in fields.values():
            if field.flag:
                default = field.default
                if isinstance(default, tuple):
                    default = ",".join(map(str, default))
                p.add_argument(field.flag, help=field.help if default is None
                               else f"{field.help} (default: {default})")
        if command != "point":
            p.add_argument("--outdir", "-o", default=".")
        p.set_defaults(func=func, fields=fields)

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
    args = _parser().parse_args(_attach_flag_values(
        sys.argv[1:] if argv is None else argv))
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
