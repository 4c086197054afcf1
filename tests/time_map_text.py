"""Time the CSV text of three focal-plane maps, and count their distinct values.

Run from the repository root:

    PYTHONPATH=src python tests/time_map_text.py [--repeats 7]

For each map it prints the best time of ``cli._csv_text`` over the repeats
and the fraction of the map's values that are distinct (bit patterns, so
-0.0 and 0.0 count as two).  pytest does not collect this file.  The maps:

- ``centred-256``: a panel map, |E_z| of an LG (l = 1) beam on the default
  256 x 256 grid of +/- 2 waists, centred on the beam axis;
- ``off-centre-256``: |E_z| of an HG (1, 0) beam on 256 x 256 cells of
  x in [-1.3, 2.1] um, y in [-0.7, 1.9] um at z = 0.3 um, which has no
  mirror line;
- ``centred-512``: the centred map on a 512 x 512 grid.

Point PYTHONPATH at another tree's src/ to time that tree's writer.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from vectorlight import BeamSpec, FieldComponentObservable, ScanConfig, run_scans
from vectorlight.cli import _csv_text

W0 = 1.0e-6
WAVELENGTH = 0.729e-6


def _maps():
    lg = FieldComponentObservable(
        BeamSpec.lg(1, 0, waist=W0, wavelength=WAVELENGTH), "z")
    hg = FieldComponentObservable(
        BeamSpec.hg(1, 0, waist=W0, wavelength=WAVELENGTH), "z")
    centred = (-2 * W0, 2 * W0, -2 * W0, 2 * W0)
    configs = {
        "centred-256": ScanConfig(lg, centred, (256, 256)),
        "off-centre-256": ScanConfig(hg, (-1.3e-6, 2.1e-6, -0.7e-6, 1.9e-6),
                                     (256, 256), z_plane=0.3e-6),
        "centred-512": ScanConfig(lg, centred, (512, 512)),
    }
    return dict(zip(configs, run_scans(list(configs.values()))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed calls per map; the best is printed")
    args = parser.parse_args(argv)
    for name, data in _maps().items():
        bits = np.ascontiguousarray(data.values).view(np.uint64)
        distinct = np.unique(bits).size / bits.size
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            _csv_text(data, name)
            best = min(best, time.perf_counter() - start)
        print(f"{name}: {data.values.shape[0]}x{data.values.shape[1]} "
              f"csv_text_ms={best * 1e3:.2f} distinct={distinct:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
