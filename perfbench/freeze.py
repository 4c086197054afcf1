#!/usr/bin/env python3
"""Freeze the reference values the benchmark checks outputs against.

Run from the repository root, on the program whose outputs are to become
the reference (takes about a minute):

    python3 perfbench/freeze.py

It writes perfbench/reference.json: a fingerprint of each of the 70 panel
maps (the CLI field and transition maps are checked against the same
entries), of the four E1 sideband maps written by the cli_maps workload,
the records of the `point` query pool, and the values of the averaging
pool.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import vectorlight.scan as scan
    import workloads as wl

    maps = scan.run_scans(wl.panel_configs())
    panel = [wl.fingerprint(d.values, d.scale_factor) for d in maps]

    tmp = os.path.join(ROOT, ".perfbench_work", "freeze")
    try:
        code, out = wl._run_cli(["sideband-map", "--beam", "lg:1", "--multipole",
                                 "E1", "--j2", "3/2", "-o", tmp])
        assert code == 0, out
        sideband = {os.path.basename(p)[:-4]: wl.fingerprint(*wl.read_map_csv(p))
                    for p in out.split() if p.endswith(".csv")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    points = []
    for argv in wl.point_pool():
        code, out = wl._run_cli(argv)
        assert code == 0, argv
        points.append({"argv": argv,
                       "record": wl.point_sections(json.loads(out))})

    pairs = []
    beams = wl.five_beams()
    for entry in wl.pair_pool():
        args = (beams[entry["beam"]], entry["center"], entry["widths"],
                wl.quad_transition(entry["dm"]))
        avg = wl.coupling.averaged_strength(
            *args, quadrature_order=wl.QUADRATURE_ORDER)
        rms = wl.coupling.averaged_strength_rms(
            *args, quadrature_order=wl.QUADRATURE_ORDER)
        pairs.append({"input": entry, "avg": [avg.real, avg.imag], "rms": rms})

    ref = {"panel": panel, "cli_sideband_e1": sideband, "points": points,
           "pairs": pairs}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(wl.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
