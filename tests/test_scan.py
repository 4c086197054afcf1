"""Scan engine: grids, normalization, zero maps, determinism, map comparison.

Geometric reference for the doughnut tests: the transverse modulus of an
l = +/-1, p = 0 vortex goes as rho * exp(-rho^2/w0^2), whose maximum sits at
rho = w0/sqrt(2) (set the radial derivative to zero).  Grid assertions
locate peaks only to within one cell.
"""

import numpy as np
import pytest

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
from vectorlight.motion import lamb_dicke, sideband_strength_at

from oracles import fd_jacobian

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
    with pytest.raises(ConfigurationError):
        ScanConfig(obs, EXTENT, (1, 16))
    with pytest.raises(ConfigurationError):
        ScanConfig(object(), EXTENT, (16, 16))


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


def test_chunk_size_does_not_change_results():
    cfg = ScanConfig(TransitionObservable(lg_beam(), quad_transition(1)),
                     EXTENT, (64, 64))
    base = run_scan(cfg)
    for chunk in (512, 977, 64 * 64 + 1):
        other = run_scan(cfg, chunk_size=chunk)
        assert np.array_equal(base.values, other.values)
        assert base.scale_factor == other.scale_factor


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

        def evaluate(self, points):
            vals = np.ones(points.shape[0], dtype=complex)
            vals[-1] = np.nan
            return vals, 1.0

    with pytest.raises(NumericalError):
        run_scan(ScanConfig(Broken(), EXTENT, (16, 16)))


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


def test_map_dataset_names():
    d = run_scan(ScanConfig(TransitionObservable(lg_beam(), quad_transition(2)),
                            EXTENT, (8, 8)))
    assert d.observable_name == "mu:dm=+2:E2_dJ2"
    assert isinstance(d, MapDataset)
    assert d.same_grid(d)
