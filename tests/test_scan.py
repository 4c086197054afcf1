"""Scan engine: grids, normalization, zero maps, determinism, map comparison.

Geometric reference for the doughnut tests: the transverse modulus of an
l = +/-1, p = 0 vortex goes as rho * exp(-rho^2/w0^2), whose maximum sits at
rho = w0/sqrt(2) (set the radial derivative to zero).  Grid assertions
locate peaks only to within one cell.
"""

import dataclasses
import functools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vectorlight.scan as scan_module
from vectorlight import (
    BeamSpec,
    ConfigurationError,
    FieldComponentObservable,
    FieldSample,
    Geometry,
    MapDataset,
    NumericalError,
    ScanConfig,
    SidebandObservable,
    SidebandRequest,
    TransitionObservable,
    TransitionSpec,
    TrapSpec,
    compare_maps,
    make_radial_azimuthal,
    field_sample_upto,
    relative_strength,
    run_scan,
    run_scans,
)
from vectorlight.beams import ProfileMemo
from vectorlight.motion import lamb_dicke, sideband_strength_at

from oracles import fd_jacobian
from test_acceptance import panel_configs

W0 = 1.0e-6
WAVELENGTH = 0.729e-6
EXTENT = (-2 * W0, 2 * W0, -2 * W0, 2 * W0)


def lg_beam(l=1, sigma=1):
    return BeamSpec.lg(l, 0, sigma=sigma, waist=W0, wavelength=WAVELENGTH)


def quad_transition(dm):
    return TransitionSpec("1/2", "1/2", "5/2", str(1 + 2 * dm) + "/2", "E2_dJ2")


def trap():
    return TrapSpec.from_lab_units(40.0, (2.0, 2.0, 1.0))


# ---------------------------------------------------------------- grids


def test_cell_centers_cover_extent_symmetrically():
    cfg = ScanConfig(FieldComponentObservable(lg_beam(), "z"), EXTENT, (8, 16))
    xs, ys = cfg.x_centers(), cfg.y_centers()
    dx = (EXTENT[1] - EXTENT[0]) / 8
    dy = (EXTENT[3] - EXTENT[2]) / 16
    assert xs[0] == pytest.approx(EXTENT[0] + dx / 2, rel=1e-15)
    assert xs[-1] == pytest.approx(EXTENT[1] - dx / 2, rel=1e-15)
    assert ys[0] == pytest.approx(EXTENT[2] + dy / 2, rel=1e-15)
    assert np.allclose(np.diff(xs), dx)
    # symmetric extent => centers come in +/- pairs, none on the origin
    assert np.allclose(xs + xs[::-1], 0.0, atol=1e-20)
    pts = cfg.grid_points()
    assert pts.shape == (8 * 16, 3)
    assert np.all(pts[:, 2] == cfg.z_plane)


def test_config_validation():
    obs = FieldComponentObservable(lg_beam(), "z")
    with pytest.raises(ConfigurationError):
        ScanConfig(obs, (1.0, -1.0, -1.0, 1.0), (16, 16))  # x_max < x_min
    with pytest.raises(ConfigurationError):
        ScanConfig(obs, (-1.0, 1.0, -1.0), (16, 16))
    for ext in (("a", 1, 2, 3), 1.0, (None, 1, 2, 3)):
        with pytest.raises(ConfigurationError, match=r"^extent must be "
                           r"\(x_min, x_max, y_min, y_max\)$"):
            ScanConfig(obs, ext, (16, 16))
    with pytest.raises(ConfigurationError):
        ScanConfig(obs, EXTENT, (1, 16))
    with pytest.raises(ConfigurationError):
        ScanConfig(object(), EXTENT, (16, 16))
    # the grid-size cap, checked before any grid is allocated
    ScanConfig(obs, EXTENT, (4096, 4096))
    for res in ((4096, 4097), (2, 4096 * 4096), (10**9, 10**9)):
        with pytest.raises(ConfigurationError, match="cells"):
            ScanConfig(obs, EXTENT, res)
    # grid sizes are integers, also when given as floats
    assert ScanConfig(obs, EXTENT, (16.0, np.int64(8))).resolution == (16, 8)
    for res in ((4.7, 4), (16, 2.5), (16, "8"), (16, float("nan")),
                (float("inf"), 16), 8, None):
        with pytest.raises(ConfigurationError, match="two integers >= 2"):
            ScanConfig(obs, EXTENT, res)
    # coordinates within +/- 1e6 m, where their squares stay finite
    ScanConfig(obs, (-1e6, 1e6, -1e6, 1e6), (16, 16), z_plane=-1e6)
    for ext, z in (((-1e302, 1e302, -1.0, 1.0), 0.0),
                   ((-1.0, float("inf"), -1.0, 1.0), 0.0),
                   (EXTENT, 2e6), (EXTENT, float("nan"))):
        with pytest.raises(ConfigurationError, match="within"):
            ScanConfig(obs, ext, (16, 16), z_plane=z)


def test_observable_validation():
    with pytest.raises(ConfigurationError):
        FieldComponentObservable(lg_beam(), "Ex")
    with pytest.raises(ConfigurationError):
        FieldComponentObservable("lg", "z")
    with pytest.raises(ConfigurationError):
        TransitionObservable(lg_beam(), "not a transition")
    with pytest.raises(ConfigurationError):
        SidebandObservable(lg_beam(), trap(), "X", quad_transition(1))


# ------------------------------------------------- normalization and zeros


def test_doughnut_map_normalized_with_ring_at_expected_radius():
    cfg = ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"),
                     EXTENT, (128, 128))
    d = run_scan(cfg)
    assert d.values.shape == (128, 128)
    assert float(np.max(d.values)) == 1.0  # modulus maps peak at exactly 1
    assert d.scale_factor > 0.0
    ix, iy = np.unravel_index(np.argmax(d.values), d.values.shape)
    rho_peak = np.hypot(d.x_centers[ix], d.y_centers[iy])
    cell = (EXTENT[1] - EXTENT[0]) / 128
    assert abs(rho_peak - W0 / np.sqrt(2)) < 1.5 * cell
    # vortex core: the four central pixels stay far below the ring
    c = 128 // 2
    assert d.values[c - 1:c + 1, c - 1:c + 1].max() < 0.06


@pytest.mark.parametrize("res", [48, 96])
def test_ring_radius_stable_under_grid_refinement(res):
    cfg = ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"),
                     EXTENT, (res, res))
    d = run_scan(cfg)
    ix, iy = np.unravel_index(np.argmax(d.values), d.values.shape)
    rho_peak = np.hypot(d.x_centers[ix], d.y_centers[iy])
    cell = (EXTENT[1] - EXTENT[0]) / res
    assert abs(rho_peak - W0 / np.sqrt(2)) < 1.5 * cell


def test_azimuthal_longitudinal_map_is_exact_zero():
    azi = make_radial_azimuthal("azimuthal", waist=W0, wavelength=WAVELENGTH)
    d = run_scan(ScanConfig(FieldComponentObservable(azi, "z"), EXTENT, (64, 64)))
    assert d.scale_factor == 0.0
    assert np.all(d.values == 0.0)


def test_selection_forbidden_transition_map_is_exact_zero():
    # J2 = 1/2 cannot take a rank-2 operator from J1 = 1/2
    t = TransitionSpec("1/2", "1/2", "1/2", "-1/2", "E2_dJ2")
    d = run_scan(ScanConfig(TransitionObservable(lg_beam(), t), EXTENT, (16, 16)))
    assert d.scale_factor == 0.0
    assert np.all(d.values == 0.0)


def test_values_are_read_only():
    d = run_scan(ScanConfig(FieldComponentObservable(lg_beam(), "z"),
                            EXTENT, (16, 16)))
    with pytest.raises(ValueError):
        d.values[0, 0] = 2.0


def test_store_complex_keeps_phase_and_unit_peak():
    cfg_abs = ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"),
                         EXTENT, (32, 32))
    cfg_cpx = ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"),
                         EXTENT, (32, 32), store_complex=True)
    d_abs, d_cpx = run_scans([cfg_abs, cfg_cpx])
    assert np.iscomplexobj(d_cpx.values) and not np.iscomplexobj(d_abs.values)
    assert d_cpx.scale_factor == d_abs.scale_factor
    assert np.max(np.abs(d_cpx.values)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(d_cpx.values), d_abs.values, atol=1e-12)
    # a vortex map has nontrivial phases
    assert np.max(np.abs(np.angle(d_cpx.values))) > 1.0


# ------------------------------------------------------------ determinism


class _ReferenceFromNegativeX:
    """A zero map only while the map's reference is the largest chunk's."""

    name = "reference-from-negative-x"

    def evaluate(self, points):
        ref = 1.0 if np.any(points[:, 0] < 0.0) else 1e-3
        return np.full(points.shape[0], 1e-14 + 0j), ref


def test_chunk_size_does_not_change_results(monkeypatch):
    b = lg_beam()
    mixed = [FieldComponentObservable(b, "z"),
             TransitionObservable(b, quad_transition(1)),
             SidebandObservable(b, trap(), SidebandRequest("X", 0, "bsb"),
                                quad_transition(1)),
             _ReferenceFromNegativeX()]
    # (observables, usable CPUs): one map serially, then a group on 2 and,
    # with a short switch interval, 8 workers; chunk 977 splits the 4096
    # points into 5 chunks, the last ragged
    cases = [([TransitionObservable(b, quad_transition(1))], 1), (mixed, 2),
             (mixed, 8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for observables, cpus in cases:
            monkeypatch.setattr(scan_module, "_usable_cpus", lambda: cpus)
            cfgs = [ScanConfig(obs, EXTENT, (64, 64)) for obs in observables]
            base = run_scans(cfgs, chunk_size=64 * 64)
            for chunk in (512, 977, 64 * 64 + 1):
                for one, other in zip(base, run_scans(cfgs, chunk_size=chunk)):
                    assert np.array_equal(one.values, other.values)
                    assert one.scale_factor == other.scale_factor
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(2, 20), ny=st.integers(2, 20),
       chunk=st.integers(1, 4000))
def test_any_chunk_size_gives_bitwise_equal_maps(nx, ny, chunk):
    b = lg_beam()
    observables = [FieldComponentObservable(b, "z"),
                   TransitionObservable(b, quad_transition(1)),
                   SidebandObservable(b, trap(), SidebandRequest("X", 0, "bsb"),
                                      quad_transition(1)),
                   _ReferenceFromNegativeX()]
    cfgs = [ScanConfig(obs, EXTENT, (nx, ny)) for obs in observables]
    for one, other in zip(run_scans(cfgs), run_scans(cfgs, chunk_size=chunk)):
        assert one.values.tobytes() == other.values.tobytes()
        assert one.scale_factor == other.scale_factor


class _ChunkFailure(Exception):
    pass


def test_parallel_chunk_error_is_the_earliest_and_leaves_no_threads(monkeypatch):
    monkeypatch.setattr(scan_module, "_usable_cpus", lambda: 2)
    cfg = ScanConfig(FieldComponentObservable(lg_beam(), "z"), EXTENT, (16, 16))
    chunk = 32
    grid = cfg.grid_points()
    threads = set()

    class FailsFromThirdChunk:
        name = "fails"

        def evaluate(self, points):
            threads.add(threading.get_ident())
            k = int(np.flatnonzero(np.all(grid == points[0], axis=1))[0]) // chunk
            if k == 2:
                time.sleep(0.05)  # later chunks fail first in wall time
            if k >= 2:
                raise _ChunkFailure(k)
            return np.ones(points.shape[0], dtype=complex), 1.0

    before = threading.active_count()
    with pytest.raises(_ChunkFailure) as info:
        run_scan(ScanConfig(FailsFromThirdChunk(), EXTENT, (16, 16)),
                 chunk_size=chunk)
    assert info.value.args == (2,)
    assert threads and threading.get_ident() not in threads
    assert threading.active_count() == before


def test_parallel_chunks_keep_the_callers_numpy_errstate(monkeypatch):
    monkeypatch.setattr(scan_module, "_usable_cpus", lambda: 2)

    class Overflows:
        name = "overflows"

        def evaluate(self, points):
            return np.full(points.shape[0], 1e308) * 10.0 + 0j, 1.0

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_scan(ScanConfig(Overflows(), EXTENT, (16, 16)), chunk_size=64)


def test_grouped_run_matches_solo_runs_bitwise():
    beams = [lg_beam(1), lg_beam(-1),
             make_radial_azimuthal("radial", waist=W0, wavelength=WAVELENGTH)]
    cfgs = []
    for b in beams:
        cfgs.append(ScanConfig(FieldComponentObservable(b, "z"), EXTENT, (32, 32)))
        for dm in (0, 1, 2):
            cfgs.append(ScanConfig(TransitionObservable(b, quad_transition(dm)),
                                   EXTENT, (32, 32)))
        cfgs.append(ScanConfig(SidebandObservable(
            b, trap(), SidebandRequest("X", 0, "bsb"), quad_transition(1)),
            EXTENT, (32, 32)))
    grouped = run_scans(cfgs)
    for cfg, d in zip(cfgs, grouped):
        solo = run_scan(cfg)
        assert np.array_equal(solo.values, d.values)
        assert solo.scale_factor == d.scale_factor


def test_grouped_panel_beams_match_solo_runs_bitwise():
    # the five panel beams share LG(+/-1, 0) profiles within each chunk;
    # maps in panel order, so each chunk asks for one order at a time
    beams = [lg_beam(1), lg_beam(-1),
             BeamSpec.hg(1, 0, waist=W0, wavelength=WAVELENGTH),
             make_radial_azimuthal("radial", waist=W0, wavelength=WAVELENGTH),
             make_radial_azimuthal("azimuthal", waist=W0,
                                   wavelength=WAVELENGTH)]
    cfgs = [ScanConfig(FieldComponentObservable(b, comp), EXTENT, (24, 24))
            for b in beams for comp in ("sigma_plus", "z")]
    cfgs += [ScanConfig(TransitionObservable(b, quad_transition(dm)), EXTENT,
                        (24, 24)) for b in beams for dm in (0, 1)]
    cfgs += [ScanConfig(SidebandObservable(
        b, trap(), SidebandRequest(mode, 0, "bsb"), quad_transition(1)),
        EXTENT, (24, 24)) for b in beams for mode in ("X", "Z")]
    grouped = run_scans(cfgs, chunk_size=100)  # 576 points in 6 chunks
    for cfg, d in zip(cfgs, grouped):
        solo = run_scan(cfg)
        assert np.array_equal(solo.values, d.values)
        assert solo.scale_factor == d.scale_factor


def test_grid_record_reports_sample_and_profile_counts(caplog):
    radial = make_radial_azimuthal("radial", waist=W0, wavelength=WAVELENGTH)
    cfgs = [ScanConfig(FieldComponentObservable(b, comp), EXTENT, (16, 16))
            for b in (lg_beam(1), radial) for comp in ("z", "sigma_plus")]
    with caplog.at_level("DEBUG", logger="vectorlight.scan"):
        run_scans(cfgs, chunk_size=100)
    (record,) = [r for r in caplog.records if r.name == "vectorlight.scan"]
    assert record.args[:4] == (4, 256, 3, min(3, scan_module._usable_cpus()))
    # per chunk: one sample per beam, served again to its second map; the
    # radial beam reuses the LG(+1, 0) profile of lg:1 and builds LG(-1, 0)
    assert record.args[5:] == (3 * 2, 3 * 2, 3 * 2, 3 * 1)
    assert "3 reused" in record.getMessage()


@dataclasses.dataclass(frozen=True, eq=False)
class _RescaledSideband(SidebandObservable):
    """A built-in observable (so it runs at its field order) whose reference
    is scaled: a large `ref_scale` turns its map into a zero map."""

    ref_scale: float = 1.0

    def evaluate(self, points, cache=None):
        vals, ref = super().evaluate(points, cache)
        return vals, ref * self.ref_scale


class _Constant:
    """Not a built-in observable: 0.5 everywhere, with its own reference."""

    name = "constant"

    def __init__(self, ref, error=None):
        self.ref, self.error = ref, error

    def evaluate(self, points, cache=None):
        if self.error is not None:
            raise self.error
        return np.full(points.shape[0], 0.5 + 0j), self.ref


def test_deepest_order_first_keeps_each_maps_reference():
    # evaluated deepest field order first: the two order-2 sidebands, the
    # order-1 maps, then the order-0 and other observables; each map keeps
    # its own reference, so its own zero decision and scale factor
    sideband = functools.partial(_RescaledSideband, lg_beam(), trap(),
                                 transition=quad_transition(1))
    observables = [
        FieldComponentObservable(lg_beam(), "z"),
        _Constant(1e14),  # 0.5 <= 1e-13 * 1e14: a zero map
        TransitionObservable(lg_beam(), quad_transition(1)),
        sideband(request=SidebandRequest("X", 0, "bsb"), ref_scale=1e20),
        _Constant(1.0),
        sideband(request=SidebandRequest("Y", 0, "bsb")),
        sideband(request=SidebandRequest("X", 0, "carrier"), ref_scale=1e20),
    ]
    cfgs = [ScanConfig(o, EXTENT, (16, 16)) for o in observables]
    grouped = run_scans(cfgs, chunk_size=64)
    assert [d.scale_factor == 0.0 for d in grouped] == \
        [False, True, False, True, False, False, True]
    assert grouped[4].scale_factor == 0.5
    for cfg, d in zip(cfgs, grouped):
        solo = run_scan(cfg)
        assert solo.scale_factor == d.scale_factor
        assert solo.values.tobytes() == d.values.tobytes()


def test_first_observable_to_raise_in_evaluation_order_propagates():
    class Fails(_RescaledSideband):
        def evaluate(self, points, cache=None):
            raise ValueError("order 2")

    deep = Fails(lg_beam(), trap(), SidebandRequest("X", 0, "bsb"),
                 quad_transition(1))
    cfgs = [ScanConfig(o, EXTENT, (8, 8))
            for o in (_Constant(1.0, ValueError("order 0")), deep)]
    with pytest.raises(ValueError, match="^order 2$"):
        run_scans(cfgs)


def test_each_observable_states_the_field_order_it_samples():
    e1 = TransitionSpec("1/2", "1/2", "3/2", "1/2", "E1")
    e2 = quad_transition(1)

    def line(branch, trans):
        return SidebandObservable(lg_beam(), trap(),
                                  SidebandRequest("X", 0, branch), trans)

    cases = [(FieldComponentObservable(lg_beam(), "z"), 0),
             (TransitionObservable(lg_beam(), e1), 0),
             (TransitionObservable(lg_beam(), e2), 1),
             (line("carrier", e2), 1), (line("bsb", e2), 2),
             (line("rsb", e2), 2), (line("bsb", e1), 1)]
    pts = np.array([[0.1 * W0, -0.2 * W0, 0.0], [0.3 * W0, 0.0, 0.1 * W0]])
    orders = []

    def sample(beam, points, k):
        orders.append(k)
        return field_sample_upto(beam, points, k)

    for obs, order in cases:
        assert obs.field_order == order, obs.name
        memo = ProfileMemo()
        memo.sample = sample
        del orders[:]
        obs.evaluate(pts, memo)
        # the ground-state red sideband is an exact zero: it samples nothing
        assert orders == ([] if obs.name == "sideband:rsb:X:n=0"
                          else [order]), obs.name


def test_an_observable_stating_a_deeper_field_order_runs_first():
    class Fails(TransitionObservable):
        def evaluate(self, points, cache=None):
            raise ValueError("order 1")

    deep = _Constant(1.0, ValueError("order 2"))
    deep.field_order = 2
    cfgs = [ScanConfig(o, EXTENT, (8, 8))
            for o in (Fails(lg_beam(), quad_transition(1)), deep)]
    with pytest.raises(ValueError, match="^order 2$"):
        run_scans(cfgs)


def test_an_observable_cannot_change_its_chunks_sample():
    class Writes:
        name = "writes"
        beam = lg_beam()

        def evaluate(self, points, cache=None):
            fs = cache.sample(self.beam, points, 0)
            fs.electric[...] = 0.0
            return fs.electric[:, 0], 1.0

    cfgs = [ScanConfig(o, EXTENT, (8, 8))
            for o in (Writes(), FieldComponentObservable(Writes.beam, "z"))]
    with pytest.raises(ValueError, match="read-only"):
        run_scans(cfgs)


def test_interleaved_beams_raise_in_depth_then_beam_order():
    # one depth: the maps of lg:1 run before those of lg:-1
    first, second = _Constant(1.0), _Constant(1.0, ValueError("lg:-1"))
    third = _Constant(1.0, ValueError("lg:1"))
    first.beam = third.beam = lg_beam(1)
    second.beam = lg_beam(-1)
    cfgs = [ScanConfig(o, EXTENT, (8, 8)) for o in (first, second, third)]
    with pytest.raises(ValueError, match="^lg:1$"):
        run_scans(cfgs)


def test_one_sample_per_beam_and_order_per_chunk(caplog):
    # seven beams, one transition map each, then the beams again: every
    # (beam, order) pair is evaluated once per chunk and served once more
    beams = [lg_beam(1), lg_beam(-1), lg_beam(2), lg_beam(0),
             BeamSpec.hg(1, 0, waist=W0, wavelength=WAVELENGTH),
             make_radial_azimuthal("radial", waist=W0, wavelength=WAVELENGTH),
             make_radial_azimuthal("azimuthal", waist=W0,
                                   wavelength=WAVELENGTH)]
    cfgs = [ScanConfig(TransitionObservable(b, quad_transition(dm)), EXTENT,
                       (16, 16)) for dm in (0, 1) for b in beams]
    with caplog.at_level("DEBUG", logger="vectorlight.scan"):
        grouped = run_scans(cfgs)
    (record,) = [r for r in caplog.records if r.name == "vectorlight.scan"]
    assert record.args[1:3] == (256, 1)
    assert record.args[5:7] == (7, 7)
    for cfg, d in zip(cfgs, grouped):
        assert run_scan(cfg).values.tobytes() == d.values.tobytes()


def test_chunk_size_must_be_a_positive_integer():
    cfg = ScanConfig(FieldComponentObservable(lg_beam(), "z"), EXTENT, (4, 4))
    for bad in (0, -5, 2.5, "8", True, None):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_scans([cfg], chunk_size=bad)
    with pytest.raises(ConfigurationError, match="chunk_size"):
        run_scan(cfg, chunk_size=0)
    want = run_scan(cfg).values.tobytes()
    assert run_scan(cfg, chunk_size=np.int64(5)).values.tobytes() == want


def test_chunks_are_whole_grid_rows_and_build_each_profile_once(caplog):
    # one beam at orders 0, 1 and 2: per chunk, the order-2 sample builds
    # LG(1, 0) at order 3 and the two lower orders reuse it
    obs = [FieldComponentObservable(lg_beam(), "z"),
           TransitionObservable(lg_beam(), quad_transition(1)),
           SidebandObservable(lg_beam(), trap(),
                              SidebandRequest("X", 0, "bsb"),
                              quad_transition(1))]
    for chunk, chunks in ((64, 3), (50, 4), (10, 16), (3, 64)):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="vectorlight.scan"):
            run_scans([ScanConfig(o, EXTENT, (16, 10)) for o in obs],
                      chunk_size=chunk)
        (record,) = [r for r in caplog.records if r.name == "vectorlight.scan"]
        # 16 rows of 10 points: 6, 5 or 1 rows per chunk, or each row in
        # pieces of 3, 3, 3 and 1 points
        assert record.args[1:3] == (160, chunks)
        assert record.args[5:] == (0, 3 * chunks, 1 * chunks, 2 * chunks)


def test_chunk_points_are_bytewise_slices_of_the_grid():
    class Recorder:
        name = "recorder"

        def __init__(self):
            self.seen = set()

        def evaluate(self, points):
            self.seen.add(points.tobytes())
            return points[:, 0] + 1.0j * points[:, 1], 1.0

    # whole rows per chunk, and rows cut into pieces; an uneven extent
    # and a -0.0 plane
    for chunk in (40, 3):
        obs = Recorder()
        cfg = ScanConfig(obs, (-1.3 * W0, 0.7 * W0, -0.2 * W0, 1.1 * W0),
                         (16, 10), z_plane=-0.0)
        grid = cfg.grid_points()
        bounds = scan_module._chunks(len(grid), 10, chunk)
        assert len(bounds) == (4 if chunk == 40 else 64)
        run_scans([cfg], chunk_size=chunk)
        assert obs.seen == {grid[a:b].tobytes() for a, b in bounds}


def test_run_scans_keeps_input_order_across_mixed_grids():
    small = (-W0, W0, -W0, W0)
    cfgs = [
        ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"), EXTENT, (16, 16)),
        ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"), small, (24, 24)),
        ScanConfig(FieldComponentObservable(lg_beam(), "z"), EXTENT, (16, 16)),
    ]
    maps = run_scans(cfgs)
    assert [m.values.shape for m in maps] == [(16, 16), (24, 24), (16, 16)]
    assert maps[0].observable_name == "field:sigma_plus"
    assert maps[2].observable_name == "field:z"
    assert maps[1].x_centers[0] == pytest.approx(-W0 + W0 / 24, rel=1e-15)


def test_duck_typed_observable_runs_without_cache_support():
    class Radial:
        name = "radial-distance"

        def evaluate(self, points):
            return np.hypot(points[:, 0], points[:, 1]).astype(complex), 1.0

    d = run_scan(ScanConfig(Radial(), EXTENT, (16, 16)))
    assert d.observable_name == "radial-distance"
    assert float(np.max(d.values)) == 1.0
    corner = np.hypot(d.x_centers[0], d.y_centers[0])
    assert d.scale_factor == pytest.approx(corner, rel=1e-15)


def test_non_finite_values_raise_numerical_error():
    class Broken:
        name = "broken"

        def __init__(self, bad, where=None):
            self.bad, self.where = bad, where

        def evaluate(self, points):
            vals = np.ones(points.shape[0], dtype=complex)
            if self.where is None:
                vals[-1] = self.bad
            else:
                vals[np.all(points == self.where, axis=1)] = self.bad
            return vals, 1.0

    with pytest.raises(NumericalError, match="scan of broken$"):
        run_scan(ScanConfig(Broken(np.nan), EXTENT, (16, 16)))
    # a nameless observable is "observable" in the error as in the map
    class Nameless:
        def __init__(self, value):
            self.value = value

        def evaluate(self, points):
            return np.full(points.shape[0], self.value, dtype=complex), 1.0

    with pytest.raises(NumericalError, match="scan of observable$"):
        run_scan(ScanConfig(Nameless(np.nan), EXTENT, (4, 4)))
    assert run_scan(ScanConfig(Nameless(2.0), EXTENT, (4, 4))
                    ).observable_name == "observable"
    # a single bad cell in one chunk of four, in a modulus map (which keeps
    # only float moduli per chunk) and in a complex map
    where = ScanConfig(Broken(0.0), EXTENT, (16, 16)).grid_points()[137]
    for bad in (np.nan, complex(0.0, np.inf)):
        for store_complex in (False, True):
            cfg = ScanConfig(Broken(bad, where), EXTENT, (16, 16),
                             store_complex=store_complex)
            with pytest.raises(NumericalError):
                run_scans([cfg], chunk_size=64)


# ------------------------------------------------------------- comparison


def test_compare_maps_identical_and_mismatched():
    cfg = ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"),
                     EXTENT, (32, 32))
    a = run_scan(cfg)
    b = run_scan(cfg)
    stats = compare_maps(a, b)
    assert stats == {"max_abs_diff": 0.0, "rms_diff": 0.0}
    other = run_scan(ScanConfig(FieldComponentObservable(lg_beam(), "sigma_plus"),
                                EXTENT, (16, 16)))
    with pytest.raises(ConfigurationError):
        compare_maps(a, other)


def test_compare_maps_statistics():
    a = run_scan(ScanConfig(FieldComponentObservable(lg_beam(1), "sigma_plus"),
                            EXTENT, (32, 32)))
    b = run_scan(ScanConfig(FieldComponentObservable(lg_beam(-1), "sigma_plus"),
                            EXTENT, (32, 32)))
    # opposite vortex charges share the transverse modulus profile ...
    assert compare_maps(a, b)["max_abs_diff"] < 1e-12
    c = run_scan(ScanConfig(FieldComponentObservable(lg_beam(1), "z"),
                            EXTENT, (32, 32)))
    # ... while the longitudinal map genuinely differs from the ring
    stats = compare_maps(a, c)
    assert stats["max_abs_diff"] > 0.1
    assert 0.0 < stats["rms_diff"] <= stats["max_abs_diff"]


class FDTransitionObservable:
    """E2 strength contracted with the finite-difference jacobian oracle."""

    name = "mu:fd"

    def __init__(self, beam, transition):
        self.beam = beam
        self.transition = transition

    def evaluate(self, points):
        fs = FieldSample(field_sample_upto(self.beam, points, 0).electric,
                         fd_jacobian(self.beam, points), None)
        mu = relative_strength(fs, self.transition)
        return mu, float(np.max(np.abs(fs.jacobian)))


def test_analytic_vs_fd_backend_maps_agree():
    ext = (-1.5 * W0, 1.5 * W0, -1.5 * W0, 1.5 * W0)
    t = quad_transition(1)
    a = run_scan(ScanConfig(TransitionObservable(lg_beam(), t), ext, (24, 24)))
    f = run_scan(ScanConfig(FDTransitionObservable(lg_beam(), t), ext, (24, 24)))
    assert compare_maps(a, f)["max_abs_diff"] < 1e-6


# ------------------------------------------------------- sideband scans


def test_sideband_observable_matches_point_evaluator_bitwise():
    tr = trap()
    t = quad_transition(1)
    req = SidebandRequest("X", 0, "bsb")
    obs = SidebandObservable(lg_beam(), tr, req, t)
    pts = ScanConfig(obs, EXTENT, (8, 8)).grid_points()
    vals, _ = obs.evaluate(pts)
    ref = sideband_strength_at(lg_beam(), tr, req, t, pts)
    # lg_beam() builds equal specs; strengths depend only on spec contents
    assert np.array_equal(vals, ref)


def test_eta_rescaling_divides_by_mode_lamb_dicke():
    tr = trap()
    t = quad_transition(1)
    pts = np.array([[0.3 * W0, -0.1 * W0, 0.0], [0.0, 0.0, 0.0]])
    for mode, kind, scale in [("X", "transverse", W0),
                              ("Z", "longitudinal", 2 * np.pi / WAVELENGTH)]:
        req = SidebandRequest(mode, 0, "bsb")
        plain = SidebandObservable(lg_beam(), tr, req, t)
        scaled = SidebandObservable(lg_beam(), tr, req, t, eta_rescale=True)
        eta = lamb_dicke(kind, scale, tr.mass,
                         tr.frequencies[tr.mode_index(mode)])
        v0, _ = plain.evaluate(pts)
        v1, _ = scaled.evaluate(pts)
        assert np.array_equal(v1, v0 / eta)


def test_carrier_map_is_never_rescaled():
    tr = trap()
    t = quad_transition(1)
    req = SidebandRequest("X", 0, "carrier")
    pts = np.array([[0.4 * W0, 0.2 * W0, 0.0]])
    v0, _ = SidebandObservable(lg_beam(), tr, req, t).evaluate(pts)
    v1, _ = SidebandObservable(lg_beam(), tr, req, t,
                               eta_rescale=True).evaluate(pts)
    assert np.array_equal(v0, v1)


def test_ground_state_red_sideband_scan_is_zero_map():
    d = run_scan(ScanConfig(
        SidebandObservable(lg_beam(), trap(), SidebandRequest("X", 0, "rsb"),
                           quad_transition(1)),
        EXTENT, (16, 16)))
    assert d.scale_factor == 0.0
    assert np.all(d.values == 0.0)


def test_panel_zero_decisions_have_wide_margins():
    # the structural zeros of the acceptance panel: the sigma_minus
    # component of the three sigma = +1 beams, E_z of azimuthal, and the
    # channels that symmetry forbids
    cfgs = panel_configs((32, 32))
    zeros = {1, 4, 7, 14, 15, 20, 25, 37}
    maps = run_scans(cfgs)
    assert {i for i, d in enumerate(maps) if d.scale_factor == 0.0} == zeros
    pts = cfgs[0].grid_points()
    for i, cfg in enumerate(cfgs):
        vals, ref = cfg.observable.evaluate(pts)
        ratio = np.max(np.abs(vals)) / ref
        # 100 times under ZERO_FLOOR, or far above it (the smallest is
        # about 0.034), so rounding cannot move a decision
        if i in zeros:
            assert ratio <= 1e-15, (i, ratio)
        else:
            assert ratio > 1e-3, (i, ratio)


def test_map_dataset_names():
    d = run_scan(ScanConfig(TransitionObservable(lg_beam(), quad_transition(2)),
                            EXTENT, (8, 8)))
    assert d.observable_name == "mu:dm=+2:E2_dJ2"
    assert isinstance(d, MapDataset)
    assert d.same_grid(d)
