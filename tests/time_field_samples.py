"""Time the acceptance panel's scan and single-point field samples of two trees.

Run from the repository root with the ``src`` directories of two checkouts,
for example the parent commit exported with ``git archive`` and this one:

    python tests/time_field_samples.py PARENT/src src [--repeats 5]
    python tests/time_field_samples.py PARENT/src src --processes 8

In-process mode (the default) imports both trees' ``vectorlight`` packages
side by side under the names ``tree_a`` and ``tree_b`` and interleaves them:
each repeat runs ``run_scans`` over the 70 maps of the acceptance panel on
one tree and then the other, alternating which goes first, and then times
``--point-calls`` rounds of single-point order-2 samples of the five panel
beams on each.  It prints, per tree, the best and the median panel time and
the best time per single-point sample.  On a small shared host a change of
about 10% is lost in the noise of separate runs; interleaving both trees in
one process puts them under the same load.

``--processes N`` instead alternates N fresh processes per tree, each
running the panel ``--repeats`` times, for what in-process runs share (the
heap, numpy's caches and the interpreter's warm-up).  It prints each
process's best and median and its user and system CPU seconds, then the
median of each tree's bests.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

W0 = 1.0e-6
WAVELENGTH = 0.729e-6


def load_tree(src: str, name: str):
    """The ``vectorlight`` package under ``src``, imported as ``name``."""
    path = os.path.join(os.path.abspath(src), "vectorlight")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def five_beams(vl):
    """The panel beams: lg:1, lg:-1, hg:1,0, radial and azimuthal."""
    def lg(l):
        return vl.BeamSpec.lg(l, 0, sigma=1, waist=W0, wavelength=WAVELENGTH)
    return [lg(1), lg(-1),
            vl.BeamSpec.hg(1, 0, sigma=1, waist=W0, wavelength=WAVELENGTH),
            vl.make_radial_azimuthal("radial", W0, WAVELENGTH),
            vl.make_radial_azimuthal("azimuthal", W0, WAVELENGTH)]


def panel_configs(vl, res: int):
    """The 70 maps of the acceptance panel on a res x res grid, in order."""
    def quad(dm):
        m1 = vl.HalfInt(1)
        return vl.TransitionSpec("1/2", m1, "5/2", m1 + vl.HalfInt(2 * dm),
                                 "E2_dJ2")
    beams = five_beams(vl)
    trap = vl.TrapSpec.from_lab_units(40.0, (2.0, 2.0, 1.0))
    grid = ((-2 * W0, 2 * W0, -2 * W0, 2 * W0), (res, res))
    cfgs = [vl.ScanConfig(vl.FieldComponentObservable(b, c), *grid)
            for b in beams for c in ("sigma_plus", "sigma_minus", "z")]
    cfgs += [vl.ScanConfig(vl.TransitionObservable(b, quad(dm)), *grid)
             for b in beams for dm in range(-2, 3)]
    cfgs += [vl.ScanConfig(vl.TransitionObservable(b, quad(0),
                                                   vl.Geometry(theta)), *grid)
             for b in beams for theta in (math.pi / 4, math.pi / 2)]
    for b in beams:
        cfgs.append(vl.ScanConfig(vl.SidebandObservable(
            b, trap, vl.SidebandRequest("X", 0, "carrier"), quad(1)), *grid))
        cfgs += [vl.ScanConfig(vl.SidebandObservable(
            b, trap, vl.SidebandRequest(mode, 0, "bsb"), quad(1),
            eta_rescale=True), *grid) for mode in ("X", "Y", "Z")]
    return cfgs


def time_panel(vl, cfgs) -> float:
    start = time.perf_counter()
    maps = vl.run_scans(cfgs)
    elapsed = time.perf_counter() - start
    assert len(maps) == len(cfgs)
    return elapsed


def time_points(vl, beams, calls: int) -> float:
    """Best time of one order-2 single-point sample, over `calls` rounds of
    the five beams."""
    point = [0.3 * W0, -0.2 * W0, 0.1 * W0]
    best = math.inf
    for _ in range(calls):
        start = time.perf_counter()
        for beam in beams:
            vl.field_sample_upto(beam, point, 2)
        best = min(best, time.perf_counter() - start)
    return best / len(beams)


def in_process(args) -> None:
    trees = {"a": load_tree(args.a, "tree_a"), "b": load_tree(args.b, "tree_b")}
    cfgs = {k: panel_configs(vl, args.res) for k, vl in trees.items()}
    beams = {k: five_beams(vl) for k, vl in trees.items()}
    panel = {k: [] for k in trees}
    points = {k: [] for k in trees}
    for r in range(args.repeats):
        order = "ab" if r % 2 == 0 else "ba"
        for k in order:
            panel[k].append(time_panel(trees[k], cfgs[k]))
        for k in order:
            points[k].append(time_points(trees[k], beams[k], args.point_calls))
    for k, src in (("a", args.a), ("b", args.b)):
        print(f"{k} {src}: panel best {min(panel[k]):.3f} s, median "
              f"{statistics.median(panel[k]):.3f} s over {args.repeats}; "
              f"point sample best {min(points[k]) * 1e6:.0f} us")


def worker(args) -> None:
    vl = load_tree(args.worker, "tree")
    cfgs = panel_configs(vl, args.res)
    times = [time_panel(vl, cfgs) for _ in range(args.repeats)]
    use = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"best": min(times), "median": statistics.median(times),
                      "user": use.ru_utime, "sys": use.ru_stime}))


def processes(args) -> None:
    bests = {"a": [], "b": []}
    for r in range(args.processes):
        for k in ("ab" if r % 2 == 0 else "ba"):
            src = args.a if k == "a" else args.b
            out = subprocess.run(
                [sys.executable, __file__, "--worker", src,
                 "--repeats", str(args.repeats), "--res", str(args.res)],
                check=True, capture_output=True, text=True).stdout
            run = json.loads(out)
            bests[k].append(run["best"])
            print(f"{k} process {r}: best {run['best']:.3f} s, median "
                  f"{run['median']:.3f} s, user {run['user']:.2f} s, "
                  f"sys {run['sys']:.2f} s")
    for k in bests:
        print(f"{k}: median of bests {statistics.median(bests[k]):.3f} s "
              f"over {len(bests[k])} processes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="?", help="src directory of the first tree")
    parser.add_argument("b", nargs="?", help="src directory of the second tree")
    parser.add_argument("--repeats", type=int, default=5,
                        help="panel scans per tree (per process with "
                        "--processes)")
    parser.add_argument("--res", type=int, default=256,
                        help="panel grid resolution per side")
    parser.add_argument("--point-calls", type=int, default=80,
                        help="rounds of single-point samples per repeat")
    parser.add_argument("--processes", type=int, default=0,
                        help="alternate this many fresh processes per tree")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args)
    elif not (args.a and args.b):
        parser.error("two src directories are needed")
    elif args.processes:
        processes(args)
    else:
        in_process(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
