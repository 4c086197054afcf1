"""sha256 digests of the program's outputs, one line per item.

Run from the repository root:

    PYTHONPATH=src python tests/digest_outputs.py > digests.txt

Two runs give equal lines exactly when their outputs are equal bit for bit,
so `diff` or `cmp` of two digest files names every item that changed: two
source trees (point PYTHONPATH at each tree's src/), or one tree run
threaded and under `taskset -c 0` (a serial scan).  pytest does not collect
this file.  Items:

- ``panel:<i>:<name>``: the 70 acceptance-panel maps at 256 x 256, values
  and scale factor;
- ``cli:<label>``: one in-process CLI run in a fresh directory: exit code,
  stdout and stderr, and the name and bytes of every file it left, with the
  directory's path replaced by ``OUT``;
- ``gnuplot:<label>``: the ``gnuplot-matrix`` file of one map CSV of a
  ``field-map`` run;
- ``runfile:<label>``: one in-process CLI run from a run file, digested as a
  ``cli:`` item: the re-run of each sidecar's ``run`` echo of a map run or
  of a point record's, run files that are bad input, and run files with
  fields that their subcommand does not take;
- ``sample:<beam>:<points>``: field samples at orders 0, 1 and 2 on whole
  grid rows, a ragged chunk, scattered points on one plane with +0.0 and
  -0.0 z, 5 identical points, equal points in runs of 3, grid rows in a
  (4, 5) batch, signed-zero rows, a Gauss-Hermite cloud, that cloud
  permuted, and single points;
- ``average:<beam>:<dm>``: Gauss-Hermite averaged strengths and their rms;
- ``average:reordered|other|tilted:<beam>:<dm>``: the same clouds again,
  rms first and interleaved with another cloud, that other cloud, and the
  first cloud at a tilted quantization axis; a ``reordered`` line equals
  the ``average`` line of its beam and dm;
- ``average:e1-after-e2|e1-first:<beam>:<dm>``: E1 averaged strengths and
  their rms on the same clouds, taken right after an E2 pair on the cloud,
  and taken first with the E2 pair after them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from vectorlight import (BeamSpec, FieldComponentObservable, Geometry,
                         HalfInt, ScanConfig, TransitionSpec,
                         averaged_strength, averaged_strength_rms,
                         field_sample_upto, make_radial_azimuthal, run_scans)
from vectorlight import cli

W0 = 1.0e-6
WAVELENGTH = 0.729e-6
ZR_UM = math.pi * W0**2 / WAVELENGTH / 1e-6

BEAM_FLAGS = ("lg:1", "lg:-1", "hg:1,0", "radial", "azimuthal")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _emit(label: str, digest: str) -> None:
    print(f"{label} {digest}", flush=True)


# ------------------------------------------------------------------ panel


def panel() -> None:
    from test_acceptance import panel_configs

    for i, m in enumerate(run_scans(panel_configs())):
        _emit(f"panel:{i}:{m.observable_name}",
              _sha(m.values.tobytes(), repr(m.scale_factor).encode()))


# -------------------------------------------------------------------- CLI


# map runs of more than one band of rows of text (cli._TEXT_BAND cells): an
# off-centre map with no mirror symmetry, and a centred one whose values
# repeat across bands
_BANDED_MAPS = [
    ["field-map", "--beam", "hg:1,0", "--resolution", "300,260",
     "--extent-um=-1.3,2.1,-0.7,1.9", "--z-plane-um", "0.3"],
    ["field-map", "--beam", "lg:1", "--resolution", "300,260"],
]


def _cli_cases():
    grid = ["--resolution", "48,40"]
    small = ["--resolution", "32,32"]
    cases = []
    for flag in BEAM_FLAGS:
        beam = ["--beam", flag]
        cases += [
            ["field-map"] + beam + grid,
            ["transition-map"] + beam + grid,
            ["transition-map"] + beam + grid + ["--dm", "-1"],
            ["transition-map"] + beam + grid + ["--multipole", "E1",
                                                "--j2", "3/2"],
            ["transition-map"] + beam + grid + ["--theta-deg", "30",
                                                "--axis", "x"],
            ["sideband-map"] + beam + small,
            ["sideband-map"] + beam + small + ["--multipole", "E1",
                                               "--j2", "3/2"],
        ]
    cases += [
        ["field-map", "--beam", "lg:1"],
        ["field-map", "--beam", "hg:1,0", "--z-plane-um", "1.3"] + grid,
        ["transition-map", "--beam", "radial", "--z-plane-um=-2.2"] + grid,
        ["field-map", "--beam", "lg:2,1", "--component", "sigma+",
         "--resolution", "37,23", "--extent-um=-1.5,2.5,-0.7,3.1"],
        ["field-map", "--beam", "hg:3,1", "--resolution", "33,17"],
    ] + _BANDED_MAPS + [
        ["sideband-map", "--beam", "lg:1", "--branch", "rsb", "--n", "2"]
        + small,
        ["sideband-map", "--beam", "azimuthal", "--theta-deg", "45"] + small,
        ["transition-map", "--beam", "lg:1", "--multipole", "E1",
         "--j1", "5/2", "--m1", "-5/2", "--j2", "3/2"] + grid,
    ]
    rng = np.random.default_rng(230617571)
    for flag in BEAM_FLAGS + ("lg:55", "hg:2,3"):
        for _ in range(8):
            x, y = rng.uniform(-1.2, 1.2, 2)
            z = rng.uniform(-0.8 * ZR_UM, 0.8 * ZR_UM)
            cases.append(["point", "--beam", flag,
                          f"--position-um={x:.3f},{y:.3f},{z:.3f}"])
    cases += [
        ["point", "--beam", "radial", "--position-um=0,0,0"],
        ["point", "--beam", "lg:1", "--multipole", "E1", "--j2", "3/2",
         "--position-um=0.3,-0.2,0.1"],
    ]
    errors = [
        ["transition-map", "--beam", "lg:1", "--j1", "5/2", "--m1", "1/2",
         "--j2", "9/2", "--dm", "3"] + grid,
        ["point", "--beam", "lg:1", "--j1", "5/2", "--m1", "1/2", "--j2",
         "9/2", "--dm", "3", "--position-um=0.1,0.2,0"],
        ["transition-map", "--beam", "lg:1", "--dm", "5"] + grid,
        ["transition-map", "--beam", "lg:1", "--m1", "7/2", "--j1", "1/2",
         "--j2", "1/2", "--multipole", "E1"] + grid,
        ["sideband-map", "--beam", "lg:1", "--dm", "4"] + small,
        ["point", "--beam", "lg:1", "--dm", "4", "--position-um=0,0,0"],
        ["field-map", "--beam", "lg:81"] + grid,
        ["field-map", "--beam", "bessel:1"] + grid,
        ["field-map"] + grid,
        ["field-map", "--beam", "lg:1", "--resolution", "1,4"],
        ["field-map", "--beam", "lg:1", "--resolution", "4097,4097"],
        ["field-map", "--beam", "lg:1", "--waist-um", "0"] + grid,
        ["field-map", "--beam", "lg:1", "--component", "Ew"] + grid,
        # only an absent or null component means all three maps
        ["field-map", "--beam", "lg:1", "--component="] + grid,
        ["field-map", "--beam", "lg:1", "--extent-um=1,-1,0,1"] + grid,
        ["point", "--beam", "lg:1", "--m1", "1/0", "--position-um=0,0,0"],
        ["point", "--beam", "lg:1", "--position-um=0,0"],
        ["sideband-map", "--beam", "lg:1", "--branch", "up"] + small,
        ["sideband-map", "--beam", "lg:1", "--mass-amu=-1"] + small,
        ["transition-map", "--beam", "lg:1", "--dm", "x"] + grid,
        # zero-point lengths of 0 and of inf
        ["sideband-map", "--beam", "lg:1", "--frequencies-mhz", "1e308,1,1"]
        + small,
        ["point", "--beam", "lg:1", "--mass-amu", "1e-200",
         "--frequencies-mhz", "1e-300,1,1", "--position-um=0,0,0"],
        # a positive mass that underflows to 0 kg
        ["point", "--beam", "lg:1", "--mass-amu", "1e-320",
         "--position-um=0,0,0"],
    ]
    return [("ok", c) for c in cases] + [("error", c) for c in errors]


def _run_cli(argv, out: str):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    chunks = [repr(code).encode(), stdout.getvalue().encode(),
              stderr.getvalue().encode()]
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                chunks += [os.path.relpath(path, out).encode(), fh.read()]
    return [c.replace(out.encode(), b"OUT") for c in chunks]


def cli_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for k, (kind, argv) in enumerate(_cli_cases()):
            out = os.path.join(tmp, f"run{k}")
            args = list(argv)
            if argv[0] != "point":
                args += ["-o", os.path.join(out, "maps")]
            os.makedirs(out)
            _emit(f"cli:{kind}:{' '.join(argv)}", _sha(*_run_cli(args, out)))


def gnuplot_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _BANDED_MAPS + [["field-map", "--beam", "lg:1"]]:
            maps = os.path.join(tmp, "maps")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["-o", maps]) == 0
            out = os.path.join(tmp, "gnuplot")
            os.makedirs(out)
            args = ["gnuplot-matrix", os.path.join(maps, "field_Ez.csv"),
                    os.path.join(out, "field_Ez.mat")]
            _emit(f"gnuplot:{' '.join(argv)}:field_Ez",
                  _sha(*_run_cli(args, out)))
            shutil.rmtree(maps)
            shutil.rmtree(out)


# -------------------------------------------------------------- run files

# flag runs whose sidecars' and record's `run` echoes are re-run
_RERUNS = [
    ["field-map", "--beam", "lg:2,1", "--sigma", "-1", "--z-plane-um", "0.4",
     "--resolution", "24,20"],
    ["transition-map", "--beam", "hg:1,0", "--theta-deg", "30", "--axis", "x",
     "--resolution", "24,20"],
    ["sideband-map", "--beam", "lg:1", "--branch", "rsb", "--n", "1",
     "--frequencies-mhz", "1,1.5,2", "--resolution", "16,16"],
    ["point", "--beam", "radial", "--j2", "3/2", "--multipole", "E1",
     "--position-um=0.3,-0.2,0.1"],
]

_TRANSITION = {"j1": "1/2", "m1": "1/2", "j2": "3/2", "multipole": "E1"}
_TRAP = {"mass_amu": 40.0, "frequencies_mhz": [1.0, 1.0, 1.0]}

# run files given as JSON text: (label, subcommand, text)
_RUN_FILES = [
    ("unknown-field", "field-map",
     json.dumps({"beam": {"type": "lg", "l": 1, "waste_um": 1.0}})),
    ("invalid-json", "field-map", '{\n  "beam": {,}\n}\n'),
    ("beam-not-an-object", "field-map", json.dumps({"beam": 5})),
    ("field-map-with-transition-and-trap", "field-map",
     json.dumps({"beam": {"type": "lg", "l": 1},
                 "grid": {"resolution": [8, 8]},
                 "transition": _TRANSITION, "trap": _TRAP})),
    ("point-with-grid-and-sideband-branch", "point",
     json.dumps({"beam": {"type": "radial"}, "grid": {"resolution": [8, 8]},
                 "sideband": {"n": 1, "branch": "rsb"}})),
]


def _from_run_file(command: str, out: str, name: str, text: str):
    """Chunks of a run of `command` from a run file holding `text`."""
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    args = [command, "--run-file", path]
    if command != "point":
        args += ["-o", os.path.join(out, "again")]
    return _run_cli(args, out)


def run_file_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(_RERUNS):
            out = os.path.join(tmp, f"rerun{k}")
            os.makedirs(out)
            command = argv[0]
            if command == "point":
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert cli.main(argv) == 0
                echoes = [("record", json.loads(stdout.getvalue())["run"])]
            else:
                first = os.path.join(out, "first")
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv + ["-o", first]) == 0
                echoes = []
                for name in sorted(os.listdir(first)):
                    if name.endswith(".json"):
                        with open(os.path.join(first, name), "rb") as fh:
                            echoes.append((name[:-5], json.load(fh)["run"]))
            for stem, echo in echoes:
                chunks = _from_run_file(command, out, f"{stem}.run.json",
                                        json.dumps(echo))
                _emit(f"runfile:rerun:{' '.join(argv)}:{stem}", _sha(*chunks))
        for label, command, text in _RUN_FILES:
            out = os.path.join(tmp, label)
            os.makedirs(out)
            chunks = _from_run_file(command, out, "run.json", text)
            _emit(f"runfile:{command}:{label}", _sha(*chunks))


# --------------------------------------------------------- field samples


def _beams():
    def lg(l, p=0):
        return BeamSpec.lg(l, p, waist=W0, wavelength=WAVELENGTH)

    def hg(m, n):
        return BeamSpec.hg(m, n, waist=W0, wavelength=WAVELENGTH)

    return {"lg1": lg(1), "lgm1": lg(-1), "hg10": hg(1, 0),
            "radial": make_radial_azimuthal("radial", W0, WAVELENGTH),
            "azimuthal": make_radial_azimuthal("azimuthal", W0, WAVELENGTH),
            "lg2p1": lg(2, 1), "hg31": hg(3, 1), "lg0": lg(0),
            # every Laguerre and Hermite ladder term, including degrees
            # below zero and the mode-order limits
            "lg2p3": lg(2, 3), "lgm3p2": lg(-3, 2), "lg0p90": lg(0, 90),
            "hg30,0": hg(30, 0), "hg22": hg(2, 2), "hg0,15": hg(0, 15)}


def _point_sets():
    grid = ScanConfig(FieldComponentObservable(_beams()["lg1"], "z"),
                      (-2 * W0, 2 * W0, -2 * W0, 2 * W0), (64, 48),
                      z_plane=0.4 * W0)
    pts = grid.grid_points()
    signed = pts[:5 * 48].copy()
    signed[48:96, 0] = -0.0
    signed[:, 2] = -0.0
    nodes, _ = np.polynomial.hermite.hermgauss(15)
    widths = np.array([12e-9, 11e-9, 13e-9]) * math.sqrt(2.0)
    q = np.meshgrid(*(widths[a] * nodes for a in range(3)), indexing="ij")
    cloud = np.array([0.3 * W0, -0.2 * W0, 0.1 * W0]) + np.stack(
        [c.ravel() for c in q], axis=-1)
    perm = cloud[np.random.default_rng(5).permutation(len(cloud))]
    scattered = np.random.default_rng(6).uniform(-2 * W0, 2 * W0, (40, 3))
    scattered[:, 2] = 0.0
    scattered[::3, 2] = -0.0
    small = ScanConfig(grid.observable, grid.extent, (4, 5),
                       z_plane=-0.3 * W0).grid_points()
    return {"rows": pts[5 * 48:17 * 48], "ragged": pts[100:700],
            "plane-signed-z": scattered,
            "identical": np.tile([0.3 * W0, -0.2 * W0, 0.1 * W0], (5, 1)),
            "runs-of-3": np.repeat(pts[5 * 48:7 * 48:8], 3, axis=0),
            "rows-4x5": small.reshape(4, 5, 3),
            "signed-zero-rows": signed, "cloud": cloud, "cloud-permuted": perm,
            "cloud-3d": cloud.reshape(15, 15, 15, 3),
            "point": np.array([0.3 * W0, -0.2 * W0, 0.1 * W0]),
            "origin": np.array([-0.0, 0.0, -0.0])}


def samples() -> None:
    sets = _point_sets()
    for name, beam in _beams().items():
        for where, pts in sets.items():
            blocks = []
            for order in (0, 1, 2):
                fs = field_sample_upto(beam, pts, order)
                blocks += [fs.block(k).tobytes() for k in range(order + 1)]
            _emit(f"sample:{name}:{where}", _sha(*blocks))


def averages() -> None:
    center, widths = [0.2 * W0, -0.4 * W0, 0.1 * W0], [1e-8, 1.1e-8, 1.2e-8]
    other = [-0.3 * W0, 0.1 * W0, -0.2 * W0]
    tilted = Geometry(math.radians(30), (1.0, 0.0, 0.0))
    for name, beam in _beams().items():
        for dm in (-2, 0, 1):
            m1 = HalfInt(1)
            trans = TransitionSpec("1/2", m1, "5/2", m1 + HalfInt(2 * dm),
                                   "E2_dJ2")
            avg = averaged_strength(beam, center, widths, trans)
            rms = averaged_strength_rms(beam, center, widths, trans)
            _emit(f"average:{name}:{dm}", _sha(repr((avg, rms)).encode()))
    # the same clouds again in another order, so the held cloud is hit:
    # rms first, interleaved with another cloud, then at a tilted geometry;
    # each ``reordered`` line equals the ``average`` line of its beam and dm
    for name, beam in _beams().items():
        for dm in (-2, 0, 1):
            m1 = HalfInt(1)
            trans = TransitionSpec("1/2", m1, "5/2", m1 + HalfInt(2 * dm),
                                   "E2_dJ2")
            rms = averaged_strength_rms(beam, center, widths, trans)
            avg_other = averaged_strength(beam, other, widths, trans)
            avg = averaged_strength(beam, center, widths, trans)
            rms_other = averaged_strength_rms(beam, other, widths, trans)
            rms_tilted = averaged_strength_rms(beam, center, widths, trans,
                                               tilted)
            avg_tilted = averaged_strength(beam, center, widths, trans,
                                           tilted)
            _emit(f"average:reordered:{name}:{dm}",
                  _sha(repr((avg, rms)).encode()))
            _emit(f"average:other:{name}:{dm}",
                  _sha(repr((avg_other, rms_other)).encode()))
            _emit(f"average:tilted:{name}:{dm}",
                  _sha(repr((avg_tilted, rms_tilted)).encode()))
    # E1 and E2 on each cloud: E1 right after each E2 pair, then, on the
    # next pass, every E1 channel first and the E2 channels after them
    m1 = HalfInt(1)
    channels = [(dm1, TransitionSpec("1/2", m1, "5/2", m1 + HalfInt(2 * dm),
                                     "E2_dJ2"),
                 TransitionSpec("1/2", m1, "3/2", m1 + HalfInt(2 * dm1), "E1"))
                for dm, dm1 in ((-2, -1), (0, 0), (1, 1))]

    def pair(beam, trans):
        return (averaged_strength(beam, center, widths, trans),
                averaged_strength_rms(beam, center, widths, trans))

    for name, beam in _beams().items():
        for dm1, e2, e1 in channels:
            pair(beam, e2)
            _emit(f"average:e1-after-e2:{name}:{dm1}",
                  _sha(repr(pair(beam, e1)).encode()))
    for name, beam in _beams().items():
        e1_first = [pair(beam, e1) for _, _, e1 in channels]
        for (dm1, e2, _), e1_pair in zip(channels, e1_first):
            _emit(f"average:e1-first:{name}:{dm1}",
                  _sha(repr((e1_pair, pair(beam, e2))).encode()))


def main() -> int:
    panel()
    cli_runs()
    gnuplot_runs()
    run_file_runs()
    samples()
    averages()
    return 0


if __name__ == "__main__":
    sys.exit(main())
