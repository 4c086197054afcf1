"""Command-line interface: files, sidecars, exit codes, round-trips.

All invocations run in-process through cli.main so exit codes and stdout
can be asserted directly; map files land in pytest temp directories.
"""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vectorlight.cli as cli_module
import vectorlight.scan as scan_module
from vectorlight import FieldComponentObservable, ScanConfig, run_scans
from vectorlight.beams import BeamSpec
from vectorlight.cli import _csv_lines, load_map_csv, main
from vectorlight.coupling import Multipole, TransitionSpec
from vectorlight.errors import ConfigurationError
from vectorlight.motion import SidebandRequest, sideband_strength_at
from vectorlight.scan import MapDataset
from vectorlight.special import HalfInt


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_values(path):
    return np.loadtxt(path, delimiter=",")


# -------------------------------------------------------------- field-map


def test_field_map_azimuthal_ez_is_zero_map(tmp_path):
    code = run(["field-map", "--beam", "azimuthal", "--component", "Ez",
                "--resolution", "32,32", "-o", tmp_path])
    assert code == 0
    side = read_json(tmp_path / "field_Ez.json")
    assert side["scale_factor"] == 0.0
    assert side["tool_version"]
    vals = read_values(tmp_path / "field_Ez.csv")
    assert vals.shape == (32, 32)
    assert np.all(vals == 0.0)


def test_field_map_anti_aligned_vortex_fills_center(tmp_path):
    code = run(["field-map", "--beam", "lg:1,0", "--sigma", "-1",
                "--component", "Ez", "--resolution", "64,64", "-o", tmp_path])
    assert code == 0
    vals = read_values(tmp_path / "field_Ez.csv")
    c = 64 // 2
    # longitudinal field peaks in the four cells around the vortex axis
    ix, iy = np.unravel_index(np.argmax(vals), vals.shape)
    assert ix in (c - 1, c) and iy in (c - 1, c)


def test_field_map_emits_all_components_by_default(tmp_path):
    code = run(["field-map", "--beam", "lg:1,0", "--resolution", "16,16",
                "-o", tmp_path])
    assert code == 0
    stems = {"field_Ez", "field_sigma_plus", "field_sigma_minus"}
    for stem in stems:
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}.json").exists()
    # no leftover temporary files from the atomic writes
    assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]


def test_missing_beam_exits_2_and_names_the_field(tmp_path, capsys):
    assert run(["field-map", "-o", tmp_path]) == 2
    assert "--beam" in capsys.readouterr().err


def test_malformed_beam_flag_exits_2(tmp_path, capsys):
    assert run(["field-map", "--beam", "lg:x", "-o", tmp_path]) == 2
    assert "--beam" in capsys.readouterr().err
    # mode orders inside the stated range run; past it is bad input
    assert run(["point", "--beam", "lg:55"]) == 0
    capsys.readouterr()
    assert run(["point", "--beam", "lg:81"]) == 2
    err = capsys.readouterr().err
    assert "beam: " in err and "|l| <= 80" in err
    assert "Traceback" not in err


# --------------------------------------------------------------- run files


def test_run_file_unknown_field_is_rejected_with_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"beam": {"type": "lg", "l": 1, "waste_um": 1.0}}))
    assert run(["field-map", "--run-file", bad, "-o", tmp_path]) == 2
    assert "beam.waste_um" in capsys.readouterr().err


def test_run_file_invalid_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "beam": {,}\n}\n')
    assert run(["field-map", "--run-file", bad, "-o", tmp_path]) == 2
    assert "line 2" in capsys.readouterr().err


# a valid value of every run-document field
_VALID_FIELDS = {
    "observable": "field",
    "beam": {"type": "hg", "m": 1, "n": 0},
    "beam.type": "lg", "beam.l": 2, "beam.p": 1, "beam.m": 1, "beam.n": 0,
    "beam.sigma": -1, "beam.waist_um": 1.5, "beam.wavelength_um": 0.8,
    "grid.extent_um": [-1, 1, -1, 1], "grid.resolution": [4, 4],
    "grid.z_plane_um": 0.1,
    "component": "Ez",
    "transition.j1": "1/2", "transition.m1": "-1/2", "transition.j2": "5/2",
    "transition.m2": "3/2", "transition.multipole": "E2_dJ1",
    "dm": 1,
    "geometry.theta_deg": 30.0, "geometry.axis": "x",
    "trap.mass_amu": 9.0, "trap.frequencies_mhz": [1.0, 2.0, 3.0],
    "sideband.n": 1, "sideband.branch": "rsb",
    "position_um": [0.1, 0.0, -0.2],
}

# the sections and fields each subcommand takes; every one takes observable
_TAKES = {
    "field-map": ("beam", "grid", "component"),
    "transition-map": ("beam", "grid", "transition", "dm", "geometry"),
    "sideband-map": ("beam", "grid", "transition", "dm", "geometry", "trap",
                     "sideband"),
    "point": ("beam", "transition", "dm", "geometry", "trap", "sideband.n",
              "position_um"),
}


def test_every_field_has_a_valid_value():
    assert set(_VALID_FIELDS) == set(cli_module._FIELDS)


@pytest.mark.parametrize("command", sorted(_TAKES))
def test_run_file_takes_exactly_the_fields_of_its_subcommand(tmp_path, capsys,
                                                             command):
    takes = _TAKES[command]
    sections = {path.split(".")[0] for path in takes}
    for k, (path, value) in enumerate(_VALID_FIELDS.items()):
        doc = {"beam": {"type": "lg", "l": 1}}
        section, _, key = path.rpartition(".")
        if section:
            doc.setdefault(section, {})[key] = value
        else:
            doc[path] = value
        run_file = tmp_path / f"{k}.json"
        run_file.write_text(json.dumps(doc))
        argv = [command, "--run-file", run_file]
        if command != "point":
            argv += ["--resolution", "4,4", "-o", tmp_path / str(k)]
        code = run(argv)
        out, err = capsys.readouterr()
        if (path == "observable" or path in takes
                or path.split(".")[0] in takes):
            assert (code, err) == (0, ""), path
        else:
            # a section the subcommand does not take is named as a whole
            named = path if path.split(".")[0] in sections \
                else path.split(".")[0]
            assert code == 2, path
            assert err == ("configuration error: run file: unknown field "
                           f"'{named}'\n"), path
            assert out == ""
            assert not (tmp_path / str(k)).exists()


@pytest.mark.parametrize("extra, field", [
    ({"geometry.theta_deg": 30}, "geometry.theta_deg"),
    ({"beam.waist_um": 2.0}, "beam.waist_um"),
    ({"": {"observable": "transition"}}, ""),
    ({"geometry": {"": 30}}, "geometry."),
    ({"geometry": {"theta_deg.x": 30}}, "geometry.theta_deg.x"),
])
def test_run_file_key_is_one_level_of_a_field_path(tmp_path, capsys, extra,
                                                   field):
    # a dotted key names no field, though its dotted form is a field's path
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({"beam": {"type": "lg", "l": 1}, **extra}))
    argv = ["transition-map", "--run-file", run_file, "--resolution", "4,4",
            "-o", tmp_path / "out"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "configuration error: run file: unknown field "
                              f"'{field}'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, field", [
    ({"beam": {"type": "lg", "l": "a"}}, "beam.l"),
    ({"beam": {"type": "lg", "l": 1, "waist_um": -1}}, "beam.waist_um"),
    ({"beam": {"type": "lg", "l": 1}, "grid": {"resolution": [8, "x"]}},
     "grid.resolution"),
    ({"beam": {"type": "lg", "l": 1.7}}, "beam.l"),
    ({"beam": {"type": "lg", "l": 1}, "grid": {"resolution": [8, 8.5]}},
     "grid.resolution"),
    ({"beam": {"type": "lg", "l": 1, "waist_um": float("inf")}},
     "beam.waist_um"),
    ({"beam": {"type": "lg", "l": 1}, "geometry": {"theta_deg": float("nan")}},
     "geometry.theta_deg"),
    ({"beam": {"type": "lg", "l": 1}, "grid": {"z_plane_um": float("nan")}},
     "grid.z_plane_um"),
    ({"beam": {"type": "lg", "l": 1},
      "grid": {"extent_um": [float("-inf"), float("inf"), -1, 1]}},
     "grid.extent_um"),
    ({"beam": {"type": "lg", "l": 1}, "transition": {"j2": "5/0"}},
     "transition"),
    # the axis norm overflows
    ({"beam": {"type": "lg", "l": 1},
      "geometry": {"axis": [1e308, 1e308, 0], "theta_deg": 45}}, "geometry"),
])
def test_run_file_bad_value_exits_2_and_names_the_field(tmp_path, capsys, doc,
                                                        field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["transition-map", "--run-file", bad, "-o", tmp_path]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, field", [
    (["point", "--waist-um", "inf"], "beam.waist_um"),
    (["point", "--theta-deg", "nan"], "geometry.theta_deg"),
    (["point", "--position-um", "nan,0,0"], "position_um"),
    (["field-map", "--z-plane-um", "nan"], "grid.z_plane_um"),
    (["field-map", "--extent-um=-inf,inf,-1,1"], "grid.extent_um"),
    (["field-map", "--resolution", "8.5,8"], "grid.resolution"),
    (["field-map", "--resolution", "4097,4096"], "resolution 4097x4096"),
    (["point", "--n", "-1"], "sideband.n"),
    (["sideband-map", "--n", "-1"], "sideband.n"),
    (["point", "--m1", "1/0"], "transition"),
    # just above the stated limit J <= 200
    (["point", "--j1", "401/2", "--j2", "401/2", "--multipole", "E1"],
     "transition"),
])
def test_bad_flag_value_exits_2_and_names_the_field(tmp_path, capsys,
                                                    monkeypatch, argv, field):
    def no_scan(cfgs):
        raise AssertionError("bad input reached a scan")

    # every case is rejected before a grid is allocated
    monkeypatch.setattr(cli_module, "run_scans", no_scan)
    args = argv + ["--beam", "lg:1"]
    if argv[0] != "point":
        args += ["-o", tmp_path]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, doc, message", [
    (["field-map", "--run-file", "RUN"], {"beam": 5},
     "run file: 'beam' must be an object"),
    (["field-map", "--run-file", "NONE"], None,
     "cannot read run file: [Errno 2] No such file or directory: 'NONE'"),
    (["field-map", "--beam", "lg:1", "--sigma", "2"], None,
     "beam.sigma: must be -1, 0, or +1, got '2'"),
    (["field-map", "--beam", "foo:1"], None,
     "--beam: expected lg:<l>[,<p>], hg:<m>,<n>, radial, or azimuthal; "
     "got 'foo:1'"),
    (["field-map", "--beam", "hg:1"], None, "--beam: hg needs m,n"),
    (["field-map", "--run-file", "RUN"], {"beam": {"l": 1}},
     "missing required field 'beam.type' (--beam or run-file beam section)"),
    # a name in another case is taken (see test_names_are_taken_in_any_case)
    (["field-map", "--run-file", "RUN"], {"beam": {"type": "Laguerre"}},
     "beam.type: must be one of lg, hg, radial, azimuthal, got 'Laguerre'"),
    (["sideband-map", "--beam", "lg:1", "--run-file", "RUN"],
     {"trap": {"frequencies_mhz": "1,1,1"}},
     "trap.frequencies_mhz: expected a list of 3 numbers, got '1,1,1'"),
    (["field-map", "--beam", "lg:1", "--resolution", "32"], None,
     "grid.resolution: needs 2 values, got 1"),
    (["transition-map", "--beam", "lg:1", "--axis", "w"], None,
     "geometry.axis: unknown axis 'w'"),
    (["field-map", "--beam", "lg:1", "--component", "Ew"], None,
     "component: must be one of Ez, sigma+, sigma-, got 'Ew'"),
    (["sideband-map", "--beam", "lg:1", "--branch", "up"], None,
     "sideband.branch: must be one of bsb, rsb, got 'up'"),
    # only an absent or null component means all three maps
    (["field-map", "--beam", "lg:1", "--component="], None,
     "component: must be one of Ez, sigma+, sigma-, got ''"),
    (["field-map", "--beam", "lg:1", "--run-file", "RUN"], {"component": ""},
     "component: must be one of Ez, sigma+, sigma-, got ''"),
    (["field-map", "--beam", "lg:1", "--run-file", "RUN"], {"component": 0},
     "component: must be one of Ez, sigma+, sigma-, got 0"),
    (["field-map", "--beam", "lg:1", "--run-file", "RUN"],
     {"component": False},
     "component: must be one of Ez, sigma+, sigma-, got False"),
    (["compare", "NONE", "GOOD"], None,
     "cannot read map file: [Errno 2] No such file or directory: 'NONE'"),
    (["compare", "NO_SCALE", "GOOD"], None,
     "NO_SCALE: not a map CSV (missing header ['scale_factor'])"),
    (["compare", "SHORT", "GOOD"], None,
     "SHORT: data shape (7, 6) does not match axes (8, 6)"),
    # a value the beam does not use is still read through its field's reader
    (["field-map", "--run-file", "RUN"], {"beam": {"type": "radial",
                                                   "sigma": 2}},
     "beam.sigma: must be -1, 0, or +1, got '2'"),
    (["field-map", "--run-file", "RUN"], {"beam": {"type": "lg", "l": 1,
                                                   "m": "x"}},
     "beam.m: could not convert string to float: 'x'"),
    # J and m are read exactly, by HalfInt.coerce, from a flag as from a file
    (["transition-map", "--beam", "lg:1", "--m1", "1/0"], None,
     "transition.m1: 1/0 has a zero denominator"),
    (["transition-map", "--beam", "lg:1", "--j1", "0.3"], None,
     "transition.j1: 0.3 is not an integer or half-integer"),
    (["transition-map", "--beam", "lg:1", "--run-file", "RUN"],
     {"transition": {"m1": 0.4999999999}},
     "transition.m1: 0.4999999999 is not an integer or half-integer"),
])
def test_each_rejection_exits_2_with_its_message(tmp_path, capsys,
                                                 monkeypatch, argv, doc,
                                                 message):
    paths = {"RUN": tmp_path / "run.json", "NONE": tmp_path / "none",
             "GOOD": tmp_path / "good" / "field_Ez.csv",
             "NO_SCALE": tmp_path / "no_scale.csv",
             "SHORT": tmp_path / "short.csv"}
    if doc is not None:
        paths["RUN"].write_text(json.dumps(doc))
    if argv[0] == "compare":
        assert run(["field-map", "--beam", "lg:1", "--component", "Ez",
                    "--resolution", "8,6", "-o", tmp_path / "good"]) == 0
        lines = paths["GOOD"].read_text().split("\n")
        paths["NO_SCALE"].write_text("\n".join(
            line for line in lines if "scale_factor" not in line))
        # the last row goes, and the file's final newline stays
        paths["SHORT"].write_text("\n".join(lines[:-2] + lines[-1:]))
        capsys.readouterr()

    def no_scan(cfgs):
        raise AssertionError("bad input reached a scan")

    monkeypatch.setattr(cli_module, "run_scans", no_scan)
    args = [paths.get(a, a) for a in argv]
    if argv[0] != "compare":
        args += ["-o", tmp_path / "out"]
    for name, path in paths.items():
        message = message.replace(name, str(path))
    assert run(args) == 2
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, field", [
    # the Rayleigh length underflows to 0
    (["point", "--beam", "lg:1", "--waist-um", "1e-300"], "beam.waist_um"),
    (["point", "--beam", "radial", "--waist-um", "1e-200"], "beam.waist_um"),
    # the squared coordinates overflow
    (["field-map", "--beam", "lg:1", "--extent-um=-1e308,1e308,-1,1",
      "--resolution", "4,4"], "grid.extent_um"),
    (["point", "--beam", "hg:1,0", "--waist-um", "1e300"], "beam.waist_um"),
    (["point", "--beam", "lg:1", "--wavelength-um", "1e-300"],
     "beam.wavelength_um"),
    (["point", "--beam", "lg:1", "--position-um", "1e200,0,0"],
     "position_um"),
    (["field-map", "--beam", "lg:1", "--z-plane-um", "1e20"],
     "grid.z_plane_um"),
])
def test_lengths_outside_the_stated_range_exit_2(tmp_path, capsys,
                                                 monkeypatch, argv, field):
    def no_scan(cfgs):
        raise AssertionError("bad input reached a scan")

    monkeypatch.setattr(cli_module, "run_scans", no_scan)
    args = argv + (["-o", tmp_path] if argv[0] != "point" else [])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert field in err and "must lie in" in err
    assert "Traceback" not in err


def test_ends_of_the_length_range_are_valid(capsys):
    for extra in (["--waist-um", "1e-12"],
                  ["--waist-um", "1e12", "--wavelength-um", "1e-12",
                   "--position-um", "1e12,-1e12,1e12"]):
        assert run(["point", "--beam", "lg:1"] + extra) == 0
        assert "position_um" in json.loads(capsys.readouterr().out)


# each place that turns a bad run-document value into exit 2, by the name
# its message starts with; a `point` run reaches all of them
_CHECKED_SITES = ("beam.waist_um", "sideband.n", "beam", "transition",
                  "geometry", "trap")


@pytest.mark.parametrize("exc", [TypeError("t"), OverflowError("o")],
                         ids=["TypeError", "OverflowError"])
@pytest.mark.parametrize("where", _CHECKED_SITES)
def test_every_site_turns_the_same_exceptions_into_exit_2(capsys, monkeypatch,
                                                          where, exc):
    def fail(*args, **kwargs):
        raise exc

    if where in ("beam.waist_um", "sideband.n"):
        # the field's reader in the table, through a parser built from it
        field = cli_module._FIELDS[where]._replace(read=fail)
        monkeypatch.setitem(cli_module._FIELDS, where, field)
        monkeypatch.setattr(cli_module, "_parser", cli_module.build_parser)
    elif where == "beam":
        monkeypatch.setattr(cli_module.BeamSpec, "lg", fail)
    elif where == "transition":
        monkeypatch.setattr(cli_module, "coefficients_for", fail)
    elif where == "geometry":
        monkeypatch.setattr(cli_module, "Geometry", fail)
    else:
        monkeypatch.setattr(cli_module.TrapSpec, "from_lab_units", fail)
    assert run(["point", "--beam", "lg:1", "--waist-um", "1"]) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: {where}: {exc}\n")


@pytest.mark.parametrize("trap", [
    # omega overflows to inf in SI units: its zero-point length is 0
    ["--frequencies-mhz", "1e308,1,1"],
    # 2 m omega underflows to 0: the zero-point length is infinite
    ["--mass-amu", "1e-200", "--frequencies-mhz", "1e-300,1,1"],
])
@pytest.mark.parametrize("command", ["sideband-map", "point"])
def test_trap_outside_the_stated_range_exits_2(tmp_path, capsys, command,
                                               trap):
    outdir = tmp_path / "out"
    argv = [command, "--beam", "lg:1"] + trap
    if command != "point":
        argv += ["--resolution", "4,4", "-o", outdir]
    with warnings.catch_warnings():
        # nor does the rejected run warn of an overflow
        warnings.simplefilter("error")
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: trap: zero-point length ")
    assert err.endswith("; it must be finite and positive\n")
    assert err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("mass, message", [
    # positive, but 0 kg once converted from amu
    (["--mass-amu", "1e-320"], "mass 1e-320 amu underflows to 0 kg"),
    (["--mass-amu=-1"], "mass must be positive"),
], ids=["underflow", "negative"])
@pytest.mark.parametrize("command", ["sideband-map", "point"])
def test_trap_mass_below_a_double_in_kg_exits_2(tmp_path, capsys, command,
                                                mass, message):
    outdir = tmp_path / "out"
    argv = [command, "--beam", "lg:1"] + mass
    if command != "point":
        argv += ["--resolution", "4,4", "-o", outdir]
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: trap: {message}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["point", "--beam", "lg:80,90", "--waist-um", "1e-12", "--wavelength-um",
     "1e12", "--position-um", "0,0,1e12"],
    ["point", "--beam", "lg:0,90", "--waist-um", "1e-12", "--wavelength-um",
     "1e-12", "--position-um", "1e-12,0,1e12"],
])
def test_point_with_non_finite_output_exits_3(capsys, argv):
    # inside the stated ranges, but the field overflows
    with np.errstate(all="ignore"):
        assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: non-finite values in point record\n"


@pytest.mark.parametrize("extra", [
    ["--position-um", "0.3,-0.2,0.1"],
    ["--multipole", "E1", "--j2", "3/2", "--n", "2", "--position-um",
     "-0.4,0.1,0.2"],
])
def test_point_sidebands_equal_fresh_line_strengths(capsys, extra):
    # the record's one sample gives the values of per-line samples
    assert run(["point", "--beam", "radial"] + extra) == 0
    rec = json.loads(capsys.readouterr().out)
    doc = rec["run"]
    beam = cli_module._build_beam(doc["beam"])
    trap = cli_module._build_trap(doc["trap"])
    geom = cli_module._build_geometry(doc["geometry"])
    dm = rec["sideband_dm"]
    trans = cli_module._transitions(doc["transition"], dm)[dm]
    point = np.array(rec["position_um"]) * cli_module.UM
    for mode in ("X", "Y", "Z"):
        for branch in ("carrier", "bsb", "rsb"):
            req = SidebandRequest(mode, doc["sideband"]["n"], branch)
            want = complex(sideband_strength_at(beam, trap, req, trans, point,
                                                geom))
            key = branch if branch == "carrier" else f"{branch}_{mode}"
            assert rec["sidebands"][key] == [want.real, want.imag], key


def test_successive_runs_leave_no_state_in_the_parser(tmp_path):
    assert cli_module._parser() is cli_module._parser()
    assert run(["field-map", "--beam", "hg:1,0", "--sigma", "-1",
                "--waist-um", "2", "--z-plane-um", "0.5", "--component", "Ez",
                "--resolution", "8,8", "-o", tmp_path / "a"]) == 0
    assert run(["field-map", "--beam", "lg:1", "--component", "sigma+",
                "--resolution", "8,8", "-o", tmp_path / "b"]) == 0
    echo = read_json(tmp_path / "b" / "field_sigma_plus.json")["run"]
    assert echo["beam"] == {"type": "lg", "l": 1, "p": 0, "sigma": 1,
                            "waist_um": 1.0, "wavelength_um": 0.729}
    assert echo["grid"] == {"extent_um": [-2.0, 2.0, -2.0, 2.0],
                            "resolution": [8, 8], "z_plane_um": 0.0}
    assert echo["component"] == "sigma+"


def test_explicit_flags_override_the_run_file(tmp_path):
    assert run(["transition-map", "--beam", "lg:1,0", "--dm", "0",
                "--resolution", "8,8", "-o", tmp_path / "a"]) == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(read_json(tmp_path / "a" / "mu_dm_0.json")["run"]))
    assert run(["transition-map", "--run-file", echo, "--dm", "1",
                "--theta-deg", "30", "-o", tmp_path / "b"]) == 0
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
        "mu_dm_p1.csv", "mu_dm_p1.json"]
    side = read_json(tmp_path / "b" / "mu_dm_p1.json")
    assert side["run"]["geometry"]["theta_deg"] == 30.0
    assert side["run"]["transition"]["m2"] == "3/2"

    # the default extent follows the merged waist
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"beam": {"type": "lg", "l": 2, "p": 1,
                                          "sigma": -1},
                                 "grid": {"resolution": [8, 8]}}))
    assert run(["field-map", "--run-file", plain, "--waist-um", "2",
                "--component", "Ez", "-o", tmp_path / "c"]) == 0
    grid = read_json(tmp_path / "c" / "field_Ez.json")["grid"]
    assert grid["extent_um"] == [-4.0, 4.0, -4.0, 4.0]
    xs = load_map_csv(str(tmp_path / "c" / "field_Ez.csv")).x_centers
    assert xs[0] == pytest.approx(-4e-6 + 4e-6 / 8, rel=1e-12)

    # --beam replaces the file's type and mode indices, never its sigma;
    # radial and azimuthal beams carry no sigma
    for flag, beam in (("hg:1,0", {"type": "hg", "m": 1, "n": 0, "sigma": -1}),
                       ("radial", {"type": "radial"})):
        out = tmp_path / flag.replace(":", "_").replace(",", "_")
        assert run(["field-map", "--run-file", plain, "--beam", flag,
                    "--component", "Ez", "-o", out]) == 0
        got = read_json(out / "field_Ez.json")["beam"]
        assert got == dict(beam, waist_um=1.0, wavelength_um=0.729)


def test_sidecar_run_echo_reproduces_bit_identical_csv(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["transition-map", "--beam", "lg:1,0", "--sigma", "-1",
                "--dm", "0", "--resolution", "48,48", "-o", out1]) == 0
    side = read_json(out1 / "mu_dm_0.json")
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(side["run"]))
    assert run(["transition-map", "--run-file", echo, "-o", out2]) == 0
    assert (out1 / "mu_dm_0.csv").read_bytes() == (out2 / "mu_dm_0.csv").read_bytes()
    assert (out1 / "mu_dm_0.json").read_bytes() == (out2 / "mu_dm_0.json").read_bytes()


_ECHO_FLAGS = {
    "--sigma": st.sampled_from(["-1", "0", "+1"]),
    "--waist-um": st.floats(0.6, 3.0).map(repr),
    "--wavelength-um": st.floats(0.4, 1.1).map(repr),
    "--z-plane-um": st.floats(-1.0, 1.0).map(repr),
    "--extent-um": st.floats(0.5, 3.0).map(lambda h: f"{-h!r},{h!r},-1,{h!r}"),
    "--j2": st.sampled_from(["3/2", "5/2"]),
    "--dm": st.integers(-1, 1).map(str),
    "--theta-deg": st.floats(-90.0, 90.0).map(repr),
    "--axis": st.sampled_from(["x", "y", "z"]),
    "--n": st.integers(0, 3).map(str),
    "--branch": st.sampled_from(["bsb", "rsb"]),
    "--frequencies-mhz": st.floats(0.5, 3.0).map(lambda f: f"1,{f!r},2"),
    "--position-um": st.floats(-1.0, 1.0).map(lambda x: f"{x!r},0.1,-0.2"),
}
_ECHO_COMMANDS = {
    "field-map": ["--sigma", "--waist-um", "--wavelength-um", "--z-plane-um",
                  "--extent-um"],
    "transition-map": ["--sigma", "--waist-um", "--j2", "--dm", "--theta-deg",
                       "--axis", "--extent-um"],
    "sideband-map": ["--sigma", "--j2", "--dm", "--theta-deg", "--n",
                     "--branch", "--frequencies-mhz"],
    "point": ["--sigma", "--waist-um", "--j2", "--dm", "--theta-deg", "--n",
              "--frequencies-mhz", "--position-um"],
}


def _run_quietly(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(args)
    assert code == 0
    return out.getvalue()


def _rerun(tmp, command, echo, *extra):
    """stdout of `command` run from the run document `echo`."""
    path = os.path.join(tmp, "echo.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh)
    return _run_quietly([command, "--run-file", path, *extra])


@settings(max_examples=20, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_ECHO_COMMANDS)),
       beam=st.sampled_from(["lg:1", "lg:-2,1", "hg:1,0", "radial",
                             "azimuthal"]))
def test_rerunning_any_flag_runs_echo_reproduces_its_files(data, command, beam):
    flags = data.draw(st.sets(st.sampled_from(_ECHO_COMMANDS[command])))
    args = [command, "--beam", beam]
    for flag in sorted(flags):
        args += [flag, data.draw(_ECHO_FLAGS[flag])]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "point":
            record = _run_quietly(args)
            assert _rerun(tmp, command, json.loads(record)["run"]) == record
            return
        first, again = os.path.join(tmp, "first"), os.path.join(tmp, "again")
        _run_quietly(args + ["--resolution", "5,4", "-o", first])
        for name in sorted(os.listdir(first)):
            if not name.endswith(".json"):
                continue
            _rerun(tmp, command, read_json(os.path.join(first, name))["run"],
                   "-o", again)
            for stem in (name[:-5] + ".csv", name):
                with open(os.path.join(first, stem), "rb") as fa, \
                        open(os.path.join(again, stem), "rb") as fb:
                    assert fa.read() == fb.read()


# each name-valued field: a command, its other flags, the field's path and
# its name as spelled and in another case; the run document holds each name
# as spelled
_NAMES = [
    ("field-map", ["--component", "Ez"], "beam.type", "lg", "LG"),
    ("field-map", ["--beam", "lg:1"], "component", "Ez", "eZ"),
    ("sideband-map", ["--beam", "lg:1"], "sideband.branch", "bsb", "BSB"),
    ("transition-map", ["--beam", "lg:1", "--dm", "0", "--theta-deg", "30"],
     "geometry.axis", "x", "X"),
    ("transition-map", ["--beam", "lg:1", "--dm", "0"],
     "transition.multipole", "E1", "e1"),
]


_FLAG_OF = {path: field.flag for path, field in cli_module._FIELDS.items()
            if field.flag}


def _name_run(tmp_path, label, command, extra, path, name, from_flag):
    """Every file of one run that sets `path` to `name`, by a flag or a run
    file, by its file name."""
    out = tmp_path / label
    args = [command, *extra, "--resolution", "4,3", "-o", out]
    if path == "beam.type":
        # --beam names the type with its mode indices, a run file apart
        args += ["--beam", f"{name}:1"] if from_flag else []
        doc = {"beam": {"type": name, "l": 1}}
    else:
        args += [_FLAG_OF[path], name] if from_flag else []
        doc = {}
        cli_module._place(doc, path, name)
    if not from_flag:
        run_file = tmp_path / f"{label}.json"
        run_file.write_text(json.dumps(doc))
        args += ["--run-file", run_file]
    assert run(args) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command, extra, path, name, other", _NAMES,
                         ids=[case[2] for case in _NAMES])
def test_names_are_taken_in_any_case(tmp_path, capsys, command, extra, path,
                                     name, other):
    for from_flag in (True, False):
        kind = "flag" if from_flag else "file"
        want = _name_run(tmp_path, f"{kind}-as-spelled", command, extra, path,
                         name, from_flag)
        got = _name_run(tmp_path, f"{kind}-other-case", command, extra, path,
                        other, from_flag)
        # the same maps, and the same echo: the document holds the name as
        # spelled
        assert got == want, kind
        # the echo of the other case re-runs to the same files
        for file_name in got:
            if file_name.endswith(".json"):
                echo = tmp_path / f"{kind}-echo.json"
                echo.write_text(json.dumps(json.loads(got[file_name])["run"]))
                again = tmp_path / f"{kind}-again"
                assert run([command, "--run-file", echo, "-o", again]) == 0
                assert (again / file_name).read_bytes() == got[file_name]
                stem = file_name[:-5] + ".csv"
                assert (again / stem).read_bytes() == got[stem]
    capsys.readouterr()


# a bad value of each field that a flag sets but --beam, as the flag's text
# and as a run file's value
_INVALID_FIELDS = {
    "beam.sigma": ("2", 2), "beam.waist_um": ("0", 0),
    "beam.wavelength_um": ("inf", float("inf")),
    "grid.extent_um": ("-1,1,-1", [-1, 1, -1]),
    "grid.resolution": ("8.5,8", [8.5, 8]),
    "grid.z_plane_um": ("nan", float("nan")),
    "component": ("Ew", "Ew"),
    "transition.j1": ("0.3", 0.3), "transition.m1": ("0.25", 0.25),
    "transition.j2": ("1.2", 1.2), "transition.multipole": ("E3", "E3"),
    "dm": ("1.5", 1.5),
    "geometry.theta_deg": ("nan", float("nan")), "geometry.axis": ("w", "w"),
    "trap.mass_amu": ("inf", float("inf")),
    "trap.frequencies_mhz": ("1,1", [1, 1]),
    "sideband.n": ("-1", -1), "sideband.branch": ("up", "up"),
    "position_um": ("0,0", [0, 0]),
}

# more spellings of one value, as flag texts and as run-file values
_SPELLINGS = {
    "beam.waist_um": (["1", "1.0"], [1, 1.0, "1"]),
    "dm": (["1", "1.0"], [1, 1.0]),
    "sideband.n": (["2", "2.0"], [2, 2.0]),
    "geometry.axis": (["x", "X"], ["x", "X"]),
    "transition.multipole": (["E2_dJ2", "e2_dj2"], ["E2_dJ2", "e2_dj2"]),
    "transition.m1": (["1/2", "0.5", "0.5000000000000000001"],
                      [0.5, "1/2", 0.5000000000000000001]),
}


def _flag_text(path, value):
    if path == "beam":
        return "hg:1,0"
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _set_by(tmp_path, capsys, command, path, label, flag=None, value=None):
    """Exit code, stdout, stderr and every file of a run of `command` that
    sets `path` by the flag's text `flag` or, if it is None, by a run file's
    `value`; the run file names an LG beam unless `path` is the beam."""
    out = tmp_path / label
    doc = {} if path == "beam" else {"beam": {"type": "lg", "l": 1}}
    args = [command]
    if flag is None:
        cli_module._place(doc, path, value)
    else:
        args += [_FLAG_OF[path], flag]
    if doc:
        run_file = tmp_path / f"{label}.json"
        run_file.write_text(json.dumps(doc))
        args += ["--run-file", run_file]
    if command != "point":
        args += ["-o", out]
        if path != "grid.resolution":
            args += ["--resolution", "4,3"]
    code = run(args)
    stdout, stderr = capsys.readouterr()
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
             if out.exists() else {})
    return code, stdout.replace(str(out), "OUT"), stderr, files


@pytest.mark.parametrize("path", sorted(_FLAG_OF))
def test_a_flag_and_a_run_file_read_a_value_alike(tmp_path, capsys, path):
    # the flag's text and the run file's value pass through one reader: the
    # same value gives the same files or record, bytes and echo, and a bad
    # one the same rejection, which names the field
    command = next(c for c in ("point", "field-map", "transition-map",
                               "sideband-map")
                   if path in _TAKES[c] or path.split(".")[0] in _TAKES[c])
    value = _VALID_FIELDS[path]
    groups = [([_flag_text(path, value)], [value])]
    groups += [_SPELLINGS[path]] if path in _SPELLINGS else []
    for g, (texts, values) in enumerate(groups):
        got = [_set_by(tmp_path, capsys, command, path, f"{g}-flag{k}", flag=t)
               for k, t in enumerate(texts)]
        got += [_set_by(tmp_path, capsys, command, path, f"{g}-file{k}",
                        value=v) for k, v in enumerate(values)]
        assert got[0][0] == 0 and got[0][2] == "", got[0][2]
        for k, result in enumerate(got[1:], start=1):
            assert result == got[0], (texts + values)[k]
    if path == "beam":
        return
    text, bad = _INVALID_FIELDS[path]
    flag = _set_by(tmp_path, capsys, command, path, "bad-flag", flag=text)
    file = _set_by(tmp_path, capsys, command, path, "bad-file", value=bad)
    assert flag == file
    code, out, err, files = flag
    assert (code, out, files) == (2, "", {})
    assert err.startswith(f"configuration error: {path}: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, doc, message", [
    ("transition-map", {"beam": {"type": "lg", "l": True}},
     "beam.l: expected a number, got True"),
    ("transition-map", {"beam": {"type": "lg", "l": 1, "waist_um": True}},
     "beam.waist_um: expected a number, got True"),
    ("transition-map", {"beam": {"type": "lg", "l": 1}, "dm": True},
     "dm: expected a number, got True"),
    ("field-map", {"beam": {"type": "lg", "l": 1},
                   "grid": {"resolution": [8, False]}},
     "grid.resolution: expected a number, got False"),
    ("sideband-map", {"beam": {"type": "lg", "l": 1},
                      "sideband": {"n": False}},
     "sideband.n: expected a number, got False"),
    ("point", {"beam": {"type": "radial"}, "position_um": [True, 0, 0]},
     "position_um: expected a number, got True"),
    ("point", {"beam": {"type": "radial"}, "transition": {"j1": True}},
     "transition.j1: cannot interpret True as a half-integer"),
    ("point", {"beam": {"type": "radial"}, "geometry": {"axis": [0, True, 0]}},
     "geometry.axis: expected a number, got True"),
])
def test_a_json_boolean_is_not_a_number(tmp_path, capsys, command, doc,
                                        message):
    # float(True) is 1.0, but a run file's true or false is rejected
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps(doc))
    args = [command, "--run-file", run_file]
    if command != "point":
        args += ["-o", tmp_path / "out"]
    if "grid" not in doc and command != "point":
        args += ["--resolution", "4,3"]
    assert run(args) == 2
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_closed_standard_output_exits_1_without_a_traceback():
    # the pipe's read end is closed before the command starts, so its
    # first write or flush of standard output fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli_module.__file__))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vectorlight.cli", "point", "--beam",
             "LG:1", "--position-um=0,0,0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


class _ClosedStdout(io.StringIO):
    """Standard output whose reader has gone: every flush fails."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_in_process_returns_1_for_a_closed_stdout_and_keeps_fd_1():
    before = os.fstat(1)
    with contextlib.redirect_stdout(_ClosedStdout()):
        assert main(["point", "--beam", "LG:1", "--position-um=0,0,0"]) == 1
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_a_broken_pipe_other_than_stdout_is_not_status_1(monkeypatch):
    def broken(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli_module, "field_sample_upto", broken)
    with contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises(BrokenPipeError):
            main(["point", "--beam", "LG:1", "--position-um=0,0,0"])


@pytest.mark.parametrize("m2", ["99/2", "3/2", "-1/2"])
def test_point_record_does_not_echo_a_run_files_m2(tmp_path, m2):
    # point derives m2 from each Delta-m, so a run file's m2 is not echoed,
    # valid or not, and the echo re-runs to the same record
    doc = {"beam": {"type": "radial"}, "transition": {"m2": m2}}
    record = _rerun(tmp_path, "point", doc)
    echo = json.loads(record)["run"]
    assert "m2" not in echo["transition"]
    assert record == _run_quietly(["point", "--beam", "radial"])
    assert _rerun(tmp_path, "point", echo) == record


def test_scan_telemetry_is_logged_out_of_band(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(scan_module, "_usable_cpus", lambda: 2)
    beam = BeamSpec.lg(1, 0, sigma=1, waist=1e-6, wavelength=0.729e-6)
    ext = (-2e-6, 2e-6, -2e-6, 2e-6)
    cfgs = [ScanConfig(FieldComponentObservable(beam, "z"), ext, (16, 16)),
            ScanConfig(FieldComponentObservable(beam, "z"), ext, (8, 8)),
            ScanConfig(FieldComponentObservable(beam, "sigma_plus"), ext,
                       (16, 16))]
    with caplog.at_level("DEBUG", logger="vectorlight.scan"):
        run_scans(cfgs, chunk_size=100)
        assert run(["field-map", "--beam", "lg:1", "--resolution", "24,24",
                    "-o", tmp_path / "on"]) == 0
    records = [r for r in caplog.records if r.name == "vectorlight.scan"]
    assert all(r.levelname == "DEBUG" for r in records)
    # one record per grid: maps, points, chunks, workers, elapsed seconds
    assert [r.args[:4] for r in records] == [
        (2, 256, 3, 2), (1, 64, 1, 1), (3, 576, 1, 1)]
    assert all(r.args[4] > 0.0 for r in records)
    assert run(["field-map", "--beam", "lg:1", "--resolution", "24,24",
                "-o", tmp_path / "off"]) == 0
    for stem in ("field_Ez", "field_sigma_plus", "field_sigma_minus"):
        for suffix in (".csv", ".json"):
            name = stem + suffix
            on = (tmp_path / "on" / name).read_bytes()
            assert on == (tmp_path / "off" / name).read_bytes()


# ---------------------------------------------------------- transition-map


def test_transition_map_emits_all_addressable_dm(tmp_path):
    assert run(["transition-map", "--beam", "lg:1,0", "--resolution", "16,16",
                "-o", tmp_path]) == 0
    for stem in ("mu_dm_m2", "mu_dm_m1", "mu_dm_0", "mu_dm_p1", "mu_dm_p2"):
        assert (tmp_path / f"{stem}.csv").exists()
    side = read_json(tmp_path / "mu_dm_p2.json")
    assert side["dm"] == 2
    assert side["transition"]["m2"] == "5/2"
    assert side["geometry"]["theta_deg"] == 0.0


def test_transition_map_anti_aligned_dm0_peaks_on_axis(tmp_path):
    assert run(["transition-map", "--beam", "lg:1,0", "--sigma", "-1",
                "--dm", "0", "--resolution", "64,64", "-o", tmp_path]) == 0
    vals = read_values(tmp_path / "mu_dm_0.csv")
    c = 64 // 2
    ix, iy = np.unravel_index(np.argmax(vals), vals.shape)
    assert ix in (c - 1, c) and iy in (c - 1, c)


def test_transition_map_azimuthal_dm0_is_zero_map(tmp_path):
    assert run(["transition-map", "--beam", "azimuthal", "--dm", "0",
                "--resolution", "32,32", "-o", tmp_path]) == 0
    side = read_json(tmp_path / "mu_dm_0.json")
    assert side["scale_factor"] == 0.0
    assert np.all(read_values(tmp_path / "mu_dm_0.csv") == 0.0)


def test_transition_map_radial_dm0_peaks_on_axis(tmp_path):
    assert run(["transition-map", "--beam", "radial", "--dm", "0",
                "--resolution", "64,64", "-o", tmp_path]) == 0
    vals = read_values(tmp_path / "mu_dm_0.csv")
    c = 64 // 2
    ix, iy = np.unravel_index(np.argmax(vals), vals.shape)
    assert ix in (c - 1, c) and iy in (c - 1, c)


def test_invalid_quantum_numbers_exit_2(tmp_path, capsys):
    assert run(["transition-map", "--beam", "lg:1,0", "--j2", "2/3",
                "-o", tmp_path]) == 2
    assert "transition" in capsys.readouterr().err
    assert run(["transition-map", "--beam", "lg:1,0", "--m1", "3/2",
                "--dm", "0", "-o", tmp_path]) == 2


@pytest.mark.parametrize("argv, message", [
    # no Delta-m channel reaches J2, and m1 is not a projection of J1
    (["--j1", "1/2", "--m1", "7/2"],
     "transition: m1=7/2 is not a projection of J1=1/2"),
    # no Delta-m channel reaches J2 from a valid m1
    (["--j1", "5/2", "--m1", "5/2"],
     "transition: m2=3/2 is not a projection of J2=1/2"),
])
def test_transition_map_without_a_channel_exits_2(tmp_path, capsys, argv,
                                                  message):
    outdir = tmp_path / "out"
    assert run(["transition-map", "--beam", "lg:1", "--j2", "1/2",
                "--multipole", "E1", "-o", outdir] + argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"configuration error: {message}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command, argv", [
    ("transition-map", []),
    ("sideband-map", ["--resolution", "4,4"]),
    ("point", ["--position-um=0.1,0.2,0"]),
])
def test_dm_outside_the_multipole_channels_exits_2(tmp_path, capsys, command,
                                                   argv):
    # m2 = m1 + 3 is a projection of J2 = 9/2, but E2 has channels -2..2
    outdir = tmp_path / "out"
    out_flags = [] if command == "point" else ["-o", outdir]
    assert run([command, "--beam", "lg:1", "--j1", "5/2", "--m1", "1/2",
                "--j2", "9/2", "--dm", "3"] + argv + out_flags) == 2
    assert capsys.readouterr() == (
        "", "configuration error: transition: dm=3 is not a channel of "
            "E2_dJ2 (-2 to +2)\n")
    assert not outdir.exists()
    # an E2 dJ=1 or E1 transition has channels -1..1 only
    for multipole in ("E2_dJ1", "E1"):
        assert run([command, "--beam", "lg:1", "--j1", "5/2", "--m1", "1/2",
                    "--j2", "7/2", "--multipole", multipole, "--dm", "-2"]
                   + argv + out_flags) == 2
        assert capsys.readouterr().err == (
            f"configuration error: transition: dm=-2 is not a channel of "
            f"{multipole} (-1 to +1)\n")


def test_default_dm_are_the_channels_transition_spec_accepts():
    # every 2J1, 2J2 <= 8, every m1 of either parity up to two steps
    # outside [-J1, J1], and each multipole
    for multipole, tj1, tj2 in itertools.product(Multipole, range(9),
                                                 range(9)):
        for tm1 in range(-tj1 - 4, tj1 + 5):
            m1 = HalfInt(tm1)
            doc = {"j1": str(HalfInt(tj1)), "m1": str(m1),
                   "j2": str(HalfInt(tj2)), "multipole": multipole.value}
            want = []
            for dm in range(-multipole.delta_j, multipole.delta_j + 1):
                with contextlib.suppress(ValueError):
                    TransitionSpec(HalfInt(tj1), m1, HalfInt(tj2),
                                   HalfInt(tm1 + 2 * dm), multipole)
                    want.append(dm)
            if want:
                got = cli_module._transitions(doc)
                assert list(got) == want, doc
                assert all(t.m2.twice == tm1 + 2 * dm and t.m1 == m1
                           for dm, t in got.items())
                continue
            with pytest.raises(ConfigurationError) as default:
                cli_module._transitions(doc)
            assert str(default.value).startswith("transition: "), doc
            if not m1.is_projection_of(HalfInt(tj1)):
                with pytest.raises(ConfigurationError) as at_dm0:
                    cli_module._transitions(doc, 0)
                assert str(default.value) == str(at_dm0.value), doc


@pytest.mark.parametrize("argv", [
    ["--j1", "201/2", "--j2", "203/2", "--multipole", "E1"],
    ["--j1", "200", "--m1", "-200", "--j2", "200", "--multipole", "E2_dJ1"],
])
def test_angular_momenta_up_to_the_limit_are_valid(capsys, argv):
    assert run(["point", "--beam", "lg:1"] + argv) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["mu_by_dm"]


# ------------------------------------------------------------ sideband-map


def test_sideband_map_writes_carrier_and_three_modes(tmp_path):
    assert run(["sideband-map", "--beam", "lg:1,0", "--resolution", "32,32",
                "-o", tmp_path]) == 0
    for stem in ("sideband_carrier", "sideband_bsb_X", "sideband_bsb_Y",
                 "sideband_bsb_Z"):
        assert (tmp_path / f"{stem}.csv").exists()
    carrier = read_json(tmp_path / "sideband_carrier.json")
    bsb = read_json(tmp_path / "sideband_bsb_X.json")
    assert carrier["eta_rescaled"] is False
    assert bsb["eta_rescaled"] is True
    assert bsb["trap"]["mass_amu"] == 40.0


def test_sideband_map_vortex_center_structure(tmp_path):
    assert run(["sideband-map", "--beam", "lg:1,0", "--resolution", "64,64",
                "-o", tmp_path]) == 0
    c = 64 // 2
    carrier = read_values(tmp_path / "sideband_carrier.csv")
    bsb_x = read_values(tmp_path / "sideband_bsb_X.csv")
    # transverse sideband peaks exactly where the carrier vanishes
    ix, iy = np.unravel_index(np.argmax(bsb_x), bsb_x.shape)
    assert ix in (c - 1, c) and iy in (c - 1, c)
    assert carrier[c - 1:c + 1, c - 1:c + 1].max() < 0.2
    assert carrier.max() == 1.0


def test_ground_state_rsb_maps_are_zero(tmp_path):
    assert run(["sideband-map", "--beam", "lg:1,0", "--branch", "rsb",
                "--n", "0", "--resolution", "16,16", "-o", tmp_path]) == 0
    for mode in "XYZ":
        side = read_json(tmp_path / f"sideband_rsb_{mode}.json")
        assert side["scale_factor"] == 0.0
        assert np.all(read_values(tmp_path / f"sideband_rsb_{mode}.csv") == 0.0)
    # carrier still present and nonzero
    assert read_json(tmp_path / "sideband_carrier.json")["scale_factor"] > 0


def test_gaussian_z_sideband_proportional_to_carrier_when_weakly_focused(tmp_path):
    # soft focus: the traveling-wave phase dominates the axial gradient
    assert run(["sideband-map", "--beam", "lg:0,0", "--waist-um", "72.9",
                "--resolution", "24,24", "-o", tmp_path]) == 0
    carrier = read_values(tmp_path / "sideband_carrier.csv")
    bsb_z = read_values(tmp_path / "sideband_bsb_Z.csv")
    mask = carrier > 0.01
    ratio = bsb_z[mask] / carrier[mask]
    assert np.ptp(ratio) / np.mean(ratio) < 1e-3


# ------------------------------------------------------------------ point


def test_point_vortex_center_has_single_open_channel(capsys):
    assert run(["point", "--beam", "lg:1,0", "--sigma", "+1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    mu = rec["mu_by_dm"]
    assert sorted(mu) == ["+0", "+1", "+2", "-1", "-2"]
    nonzero = [dm for dm, v in mu.items() if v != [0.0, 0.0]]
    assert nonzero == ["+2"]
    assert rec["sidebands"]["carrier"] == [0.0, 0.0]
    assert rec["sidebands"]["bsb_X"] != [0.0, 0.0]
    assert rec["sidebands"]["rsb_X"] == [0.0, 0.0]  # no level below n=0


def test_point_takes_one_sample_at_its_deepest_line_order(monkeypatch):
    # a sideband needs one order more than its transition: 1 for E1, 2 for
    # E2; an order-2 sample gives the E1 record the same bytes
    real = cli_module.field_sample_upto
    orders = []

    def counting(spec, point, k):
        orders.append(k)
        return real(spec, point, k)

    def order_2(spec, point, k):
        return real(spec, point, 2)

    argv = ["point", "--beam", "radial", "--position-um=0.3,-0.2,0.1"]
    for extra, order in ((["--multipole", "E1", "--j2", "3/2"], 1),
                         ([], 2)):
        del orders[:]
        monkeypatch.setattr(cli_module, "field_sample_upto", counting)
        record = _run_quietly(argv + extra)
        assert orders == [order]
        monkeypatch.setattr(cli_module, "field_sample_upto", order_2)
        assert _run_quietly(argv + extra) == record


def test_point_azimuthal_longitudinal_component_is_zero(capsys):
    assert run(["point", "--beam", "azimuthal"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["components"]["z"] == [0.0, 0.0]
    assert rec["position_um"] == [0.0, 0.0, 0.0]


def test_point_accepts_off_axis_position(capsys):
    assert run(["point", "--beam", "lg:1,0", "--position-um",
                "0.3,-0.2,0.1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["position_um"] == [0.3, -0.2, 0.1]
    jac = np.array(rec["jacobian"])
    assert jac.shape == (3, 3, 2)
    assert np.any(jac != 0.0)


@pytest.mark.parametrize("flag, value, extra", [
    ("--extent-um", "-1,1,-1,1", ["transition-map", "--resolution", "8,8"]),
    ("--position-um", "-0.3,0,0", ["point"]),
    ("--theta-deg", "-1e-05", ["point"]),
])
def test_signed_comma_list_may_follow_its_flag(tmp_path, capsys, flag, value,
                                               extra):
    outputs = []
    for form in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / str(len(outputs))
        args = extra + ["--beam", "lg:1"] + form
        if extra[0] != "point":
            args += ["-o", out]
        assert run(args) == 0
        files = sorted(out.iterdir()) if out.exists() else []
        outputs.append((capsys.readouterr().out.replace(str(out), ""),
                        [(p.name, p.read_bytes()) for p in files]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0]


# ------------------------------------------------- compare, gnuplot-matrix


def test_compare_identical_maps_reports_zero(tmp_path, capsys):
    assert run(["field-map", "--beam", "lg:1,0", "--component", "sigma+",
                "--resolution", "24,24", "-o", tmp_path]) == 0
    capsys.readouterr()
    path = tmp_path / "field_sigma_plus.csv"
    assert run(["compare", path, path]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["max_abs_diff"] == 0.0
    assert stats["rms_diff"] == 0.0


def test_compare_grid_mismatch_exits_2(tmp_path, capsys):
    assert run(["field-map", "--beam", "lg:1,0", "--component", "sigma+",
                "--resolution", "24,24", "-o", tmp_path / "a"]) == 0
    assert run(["field-map", "--beam", "lg:1,0", "--component", "sigma+",
                "--resolution", "16,16", "-o", tmp_path / "b"]) == 0
    code = run(["compare", tmp_path / "a" / "field_sigma_plus.csv",
                tmp_path / "b" / "field_sigma_plus.csv"])
    assert code == 2


def test_compare_rejects_non_map_file(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("this,is,not\na,map,file\n")
    assert run(["compare", junk, junk]) == 2


# the message of each edit of the test below, after its file's path
_CSV_FAULTS = {
    "line 11": "line 11: not a map CSV row (must be finite, got nan)",
    "line 12": "line 12: not a map CSV row (must be finite, got inf)",
    "line 13": "line 13: not a map CSV row (must be finite, got -inf)",
    "line 14": "line 14: not a map CSV row (5 values, the first row has 6)",
    "line 15": "line 15: not a map CSV row (7 values, the first row has 6)",
    "scale_factor":
        "malformed map header (scale_factor: must be finite, got nan)",
    "z_plane_um": "malformed map header (z_plane_um: must be finite, got inf)",
    "x_centers_um":
        "malformed map header (x_centers_um: must be finite, got nan)",
    "y_centers_um":
        "malformed map header (y_centers_um: must be finite, got -inf)",
}


@pytest.mark.parametrize("line, old, new, where", [
    (11, r"^[^,]*,", "nan,", "line 11"),
    (12, r",[^,]*$", ",inf", "line 12"),
    (13, r"^[^,]*,", "-inf,", "line 13"),
    (14, r",[^,]*$", "", "line 14"),
    (15, r"$", ",0.5", "line 15"),
    (4, r": .*", ": nan", "scale_factor"),
    (5, r": .*", ": inf", "z_plane_um"),
    (7, r": [^,]*", ": nan", "x_centers_um"),
    (8, r",[^,]*$", ",-inf", "y_centers_um"),
])
def test_non_finite_or_ragged_map_csv_exits_2(tmp_path, capsys, line, old,
                                              new, where):
    # a value prints as repr(float), never as, say, np.float64(nan)
    message = _CSV_FAULTS[where]
    assert run(["field-map", "--beam", "lg:1", "--component", "Ez",
                "--resolution", "8,6", "-o", tmp_path]) == 0
    good = tmp_path / "field_Ez.csv"
    lines = good.read_text().split("\n")
    lines[line - 1] = re.sub(old, new, lines[line - 1], count=1)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    capsys.readouterr()
    for argv in (["compare", good, bad], ["compare", bad, good],
                 ["gnuplot-matrix", bad, tmp_path / "bad.mat"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"configuration error: {bad}: {message}\n")
    assert not (tmp_path / "bad.mat").exists()


def test_a_map_csv_with_several_faults_names_the_first(tmp_path, capsys):
    # each row is checked as it is read, so the earliest faulty line is named
    assert run(["field-map", "--beam", "lg:1", "--component", "Ez",
                "--resolution", "8,6", "-o", tmp_path]) == 0
    lines = (tmp_path / "field_Ez.csv").read_text().split("\n")
    lines[10] = re.sub(r"^[^,]*,", "inf,", lines[10])
    lines[11] = re.sub(r",[^,]*$", "", lines[11])
    lines[12] = re.sub(r"^[^,]*,", "nan,", lines[12])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    capsys.readouterr()
    assert run(["gnuplot-matrix", bad, tmp_path / "bad.mat"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {bad}: line 11: not a map CSV row "
        "(must be finite, got inf)\n")


def test_csv_rows_match_per_element_formula():
    # reference: the per-element row formula the writer used before rows
    # went through tolist()
    rng = np.random.default_rng(5)
    vals = rng.random((256, 256))
    vals[0, :6] = (0.0, 1.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0)
    vals[1] = 0.0
    vals[2] = np.nextafter(1.0, 0.0)
    xs = np.linspace(-2e-6, 2e-6, 256)
    data = MapDataset(vals, 1.25, xs, xs, 0.0, "field:z", None)
    text = "".join(_csv_lines(data, "m"))
    header = text.split("\n")[:9]
    rows = [",".join(repr(float(v)) for v in row) for row in vals]
    assert text.encode() == "\n".join(header + rows).encode() + b"\n"


def _mirrored_two_band_map():
    # 300 x 260 cells are two bands of rows; row i equals row 299 - i, so
    # the first band's values repeat in the second
    half = np.random.default_rng(7).random((150, 260))
    half[:, 130:] = half[:, 129::-1]
    return np.vstack([half, half[::-1]])


def _signed_zero_map():
    # -0.0 and 0.0 are two values; each repeats, beside the smallest
    # subnormal and the float just below 1
    pool = [-0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0), 0.25]
    vals = np.random.default_rng(8).choice(pool, (24, 20))
    vals[0, :5] = pool
    return vals


@pytest.mark.parametrize("make", [_mirrored_two_band_map, _signed_zero_map])
def test_csv_rows_of_repeated_values_match_per_element_formula(make):
    vals = make()
    nx, ny = vals.shape
    data = MapDataset(vals, 1.0, np.linspace(-2e-6, 2e-6, nx),
                      np.linspace(-2e-6, 2e-6, ny), 0.0, "field:z", None)
    text = "".join(_csv_lines(data, "m"))
    header = text.split("\n")[:9]
    rows = [",".join(repr(float(v)) for v in row) for row in vals]
    assert text.encode() == "\n".join(header + rows).encode() + b"\n"
    assert np.unique(vals.view(np.uint64)).size < vals.size / 2


def test_gnuplot_matrix_of_repeated_values_matches_per_element_layout(
        tmp_path):
    # 260 x 300 values hold -0.0, 0.0 and repeats; transposed, they are
    # two bands of rows
    vals = _mirrored_two_band_map().T.copy()
    vals[::7, ::3] = 0.0
    vals[::5, 1::3] = -0.0
    assert vals.size > cli_module._TEXT_BAND
    xs = np.linspace(-1.3, 2.1, vals.shape[0])
    ys = np.linspace(-0.7, 1.9, vals.shape[1])
    csv = tmp_path / "hand.csv"
    csv.write_text("\n".join(
        ["# scale_factor: 1.0", "# z_plane_um: 0.0",
         "# x_centers_um: " + ", ".join(map(repr, xs.tolist())),
         "# y_centers_um: " + ", ".join(map(repr, ys.tolist()))]
        + [",".join(repr(float(v)) for v in row) for row in vals]) + "\n")
    out = tmp_path / "hand.mat"
    assert run(["gnuplot-matrix", csv, out]) == 0
    d = load_map_csv(str(csv))
    assert d.values.tobytes() == vals.tobytes()
    lines = [" ".join([str(d.x_centers.size)]
                      + [repr(float(v) / cli_module.UM) for v in d.x_centers])]
    for iy in range(d.y_centers.size):
        row = [repr(float(d.y_centers[iy]) / cli_module.UM)]
        row += [repr(float(v)) for v in d.values[:, iy]]
        lines.append(" ".join(row))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert " -0.0 " in out.read_text()


def test_streamed_map_write_holds_about_one_band(tmp_path, monkeypatch):
    # 512 x 512 values with no repeat, in bands of 4096 cells (8 rows): the
    # writer holds one band's strings at a time, never the map's text
    monkeypatch.setattr(cli_module, "_TEXT_BAND", 4096)
    xs = np.linspace(-2e-6, 2e-6, 512)
    data = MapDataset(np.random.default_rng(11).random((512, 512)), 1.0, xs,
                      xs, 0.0, "field:z", None)
    path = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        cli_module._atomic_write(str(path), _csv_lines(data, "m"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_loading_a_map_holds_about_two_copies_of_its_values(tmp_path):
    # rows parsed one at a time into float64 arrays: a load peaks near
    # the rows plus the stacked map (8 + 8 B per cell), a compare of two
    # maps near their values and the differences; a list of Python floats
    # of the whole map would add about 32 B per cell
    xs = np.linspace(-2e-6, 2e-6, 512)
    data = MapDataset(np.random.default_rng(11).random((512, 512)), 1.0, xs,
                      xs, 0.0, "field:z", None)
    path = str(tmp_path / "m.csv")
    cli_module._atomic_write(path, _csv_lines(data, "m"))
    for call, bound in ((lambda: load_map_csv(path), 24),
                        (lambda: run(["compare", path, path]), 40)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * data.values.size, (bound, peak)
    assert load_map_csv(path).values.tobytes() == data.values.tobytes()


def test_failed_stream_keeps_the_target_and_leaves_no_temporary_file(
        tmp_path):
    target = tmp_path / "m.csv"
    target.write_text("# old\n1.0,2.0\n")

    def pieces():
        yield "# new\n"
        yield "3.0,4.0\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        cli_module._atomic_write(str(target), pieces())
    assert target.read_bytes() == b"# old\n1.0,2.0\n"
    assert os.listdir(tmp_path) == ["m.csv"]


def test_loaded_map_matches_written_dataset(tmp_path):
    assert run(["field-map", "--beam", "lg:1,0", "--component", "Ez",
                "--resolution", "16,16", "-o", tmp_path]) == 0
    d = load_map_csv(str(tmp_path / "field_Ez.csv"))
    assert d.values.shape == (16, 16)
    assert float(np.max(d.values)) == 1.0
    assert d.observable_name == "field:z"
    assert d.x_centers[0] == pytest.approx(-2e-6 + 2e-6 / 16, rel=1e-12)


def test_gnuplot_matrix_layout(tmp_path):
    assert run(["field-map", "--beam", "lg:1,0", "--component", "Ez",
                "--resolution", "8,12", "-o", tmp_path]) == 0
    out = tmp_path / "mat.dat"
    assert run(["gnuplot-matrix", tmp_path / "field_Ez.csv", out]) == 0
    lines = out.read_text().strip().splitlines()
    first = lines[0].split()
    assert first[0] == "8" and len(first) == 9  # nx then x coordinates
    assert len(lines) == 1 + 12  # one row per y value
    assert all(len(line.split()) == 9 for line in lines[1:])


@pytest.mark.parametrize("argv, stems", [
    (["field-map"], ["field_Ez", "field_sigma_plus", "field_sigma_minus"]),
    (["field-map", "--component", "sigma-"], ["field_sigma_minus"]),
    (["transition-map"],
     ["mu_dm_m2", "mu_dm_m1", "mu_dm_0", "mu_dm_p1", "mu_dm_p2"]),
    (["transition-map", "--dm", "-1"], ["mu_dm_m1"]),
    (["sideband-map"], ["sideband_carrier", "sideband_bsb_X",
                        "sideband_bsb_Y", "sideband_bsb_Z"]),
])
def test_map_runs_print_the_paths_they_wrote(tmp_path, capsys, argv, stems):
    assert run(argv + ["--beam", "lg:1", "--resolution", "4,4",
                       "-o", tmp_path]) == 0
    paths = [os.path.join(str(tmp_path), stem + ext)
             for stem in stems for ext in (".csv", ".json")]
    assert capsys.readouterr().out == "".join(p + "\n" for p in paths)
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths))


@pytest.mark.parametrize("case", ["outdir_is_a_file", "missing_directory",
                                  "output_is_a_directory"])
def test_unwritable_output_paths_exit_2(tmp_path, capsys, case):
    field_map = ["field-map", "--beam", "lg:1", "--component", "Ez",
                 "--resolution", "4,4", "-o"]
    assert run(field_map + [tmp_path]) == 0
    csv = tmp_path / "field_Ez.csv"
    (tmp_path / "directory").mkdir()
    argv = {
        "outdir_is_a_file": field_map + [csv],
        "missing_directory": ["gnuplot-matrix", csv,
                              tmp_path / "missing" / "out"],
        "output_is_a_directory": ["gnuplot-matrix", csv,
                                  tmp_path / "directory"],
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write")
    assert "Traceback" not in err
    assert not [name for _, _, names in os.walk(tmp_path) for name in names
                if ".tmp." in name]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--version"])
    assert info.value.code == 0
