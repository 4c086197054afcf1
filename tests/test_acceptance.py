"""Acceptance suite: ten numbered criteria, one test (one report line) each.

Scope and tolerances are fixed by the package's acceptance contract:
structural zeros, extremum locations, dual-route oracle agreement, algebra
identities, and an end-to-end performance budget, all at the default figure
scale (256 x 256 grids, 1 um waist, 0.729 um wavelength).

Two literal readings that single-precision physics contradicts are kept as
strict xfail companions (criterion 3's linear-polarization subcase and
criterion 9's amplitude average at the vortex core); the passing tests
directly above them assert the physically consistent variant.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from vectorlight import (
    BeamSpec,
    FieldComponentObservable,
    FieldSample,
    Geometry,
    HalfInt,
    Multipole,
    ScanConfig,
    SidebandObservable,
    SidebandRequest,
    TransitionObservable,
    TransitionSpec,
    TrapSpec,
    averaged_strength,
    averaged_strength_rms,
    clebsch_gordan,
    field_components,
    field_sample_upto,
    make_radial_azimuthal,
    mu_derivative,
    relative_strength,
    run_scan,
    run_scans,
    sideband_strength,
    zero_point_length,
)
from vectorlight.constants import ATOMIC_MASS

from oracles import fd_hessian, fd_jacobian, rotated_sample, wigner_d_matrix

W0 = 1.0e-6
WAVELENGTH = 0.729e-6
EXTENT = (-2 * W0, 2 * W0, -2 * W0, 2 * W0)
RES = (256, 256)
ORIGIN = np.zeros(3)


def lg(l, p=0, sigma=1):
    return BeamSpec.lg(l, p, sigma=sigma, waist=W0, wavelength=WAVELENGTH)


def five_beams():
    return [
        ("lg_plus", lg(1, 0, +1)),
        ("lg_minus", lg(-1, 0, +1)),
        ("hg10", BeamSpec.hg(1, 0, sigma=1, waist=W0, wavelength=WAVELENGTH)),
        ("radial", make_radial_azimuthal("radial", waist=W0,
                                         wavelength=WAVELENGTH)),
        ("azimuthal", make_radial_azimuthal("azimuthal", waist=W0,
                                            wavelength=WAVELENGTH)),
    ]


def quad_transition(dm, m1=HalfInt(1)):
    return TransitionSpec("1/2", m1, "5/2", m1 + HalfInt(2 * dm), "E2_dJ2")


def probe_points(n_random=16, seed=7):
    rng = np.random.default_rng(seed)
    zr = math.pi * W0**2 / WAVELENGTH
    pts = np.empty((n_random + 1, 3))
    pts[0] = 0.0
    pts[1:, 0] = rng.uniform(-1.2 * W0, 1.2 * W0, n_random)
    pts[1:, 1] = rng.uniform(-1.2 * W0, 1.2 * W0, n_random)
    pts[1:, 2] = rng.uniform(-0.8 * zr, 0.8 * zr, n_random)
    return pts


def central_cells(shape):
    cx, cy = shape[0] // 2, shape[1] // 2
    return (cx - 1, cx), (cy - 1, cy)


# -------------------------------------------------------------- criterion 1


def test_criterion_01_azimuthal_longitudinal_null_on_full_grid():
    beam = make_radial_azimuthal("azimuthal", waist=W0, wavelength=WAVELENGTH)
    start = time.perf_counter()
    pts = ScanConfig(FieldComponentObservable(beam, "z"), EXTENT, RES).grid_points()
    e = field_sample_upto(beam, pts, 0).electric
    elapsed = time.perf_counter() - start
    ez_max = float(np.max(np.abs(e[:, 2])))
    et_max = float(np.max(np.abs(e[:, :2])))
    assert ez_max < 1e-12 * et_max
    assert elapsed < 5.0


# -------------------------------------------------------------- criterion 2


def test_criterion_02_vortex_core_filling_vs_ring():
    # anti-aligned: the longitudinal component is largest on the beam axis
    anti = lg(1, 0, -1)
    on_axis = abs(field_components(anti, ORIGIN)["z"])
    grid_peak = run_scan(ScanConfig(FieldComponentObservable(anti, "z"),
                                    EXTENT, RES)).scale_factor
    assert on_axis > 0.0
    assert grid_peak <= on_axis  # cell centers never beat the axis value

    # aligned: exact axis null with the modulus maximal on a ring at rho = w0
    aligned = lg(1, 0, +1)
    assert field_components(aligned, ORIGIN)["z"] == 0.0
    d = run_scan(ScanConfig(FieldComponentObservable(aligned, "z"), EXTENT, RES))
    ix, iy = np.unravel_index(np.argmax(d.values), d.values.shape)
    rho_peak = np.hypot(d.x_centers[ix], d.y_centers[iy])
    cell = (EXTENT[1] - EXTENT[0]) / RES[0]
    assert abs(rho_peak - W0) < 1.5 * cell


# -------------------------------------------------------------- criterion 3


def on_axis_strengths(beam):
    fs = field_sample_upto(beam, ORIGIN, 1)
    return {dm: complex(relative_strength(fs, quad_transition(dm)))
            for dm in range(-2, 3)}


def test_criterion_03_on_axis_selection_rules():
    for l in (-2, -1, 0, 1, 2):
        for sigma in (-1, 0, 1):
            mu = on_axis_strengths(lg(l, 0, sigma))
            if sigma == 0:
                # linear polarization splits into both circular components,
                # so the conserved charge takes the two values l - 1, l + 1
                open_set = {l - 1, l + 1}
            else:
                open_set = {l + sigma}
            open_set = {dm for dm in open_set if abs(dm) <= 2}
            if not open_set:
                # total angular-momentum charge out of reach: all dark
                assert max(abs(v) for v in mu.values()) == 0.0
                continue
            peak = max(abs(mu[dm]) for dm in open_set)
            assert peak > 0.0
            for dm, v in mu.items():
                if dm in open_set:
                    assert abs(v) > 1e-10 * peak
                else:
                    assert abs(v) < 1e-10 * peak


@pytest.mark.xfail(strict=True, reason="a linearly polarized beam opens two "
                   "channels (l-1 and l+1); the single-channel reading of "
                   "dm = l + sigma cannot hold at sigma = 0 — see the "
                   "decision log")
def test_criterion_03_literal_single_channel_at_sigma_zero():
    mu = on_axis_strengths(lg(1, 0, 0))
    peak = max(abs(v) for v in mu.values())
    closed = [abs(v) for dm, v in mu.items() if dm != 1]
    assert max(closed) < 1e-10 * peak


# -------------------------------------------------------------- criterion 4


def test_criterion_04_tensor_rotation_matches_field_rotation():
    thetas = [0.0, math.pi / 6, math.pi / 4, math.pi / 2]
    pts = probe_points()
    for multipole, dm in ((Multipole.E1, 1), (Multipole.E2_DJ2, 2)):
        j2 = "5/2" if multipole.delta_j == 2 else "3/2"
        trans = TransitionSpec("1/2", "1/2", j2, str(Fraction(1, 2) + dm),
                               multipole)
        for _, beam in five_beams():
            fs = field_sample_upto(beam, pts, 2)
            for theta in thetas:
                geom = Geometry(theta)
                mu_tensor = relative_strength(fs, trans, geom)
                mu_field = relative_strength(
                    rotated_sample(fs, geom.rotation()), trans, Geometry(0.0))
                scale = max(np.max(np.abs(mu_field)), 1e-300)
                assert np.max(np.abs(mu_tensor - mu_field)) < 1e-10 * scale


# -------------------------------------------------------------- criterion 5


def test_criterion_05_zero_angle_maps_cross_check():
    trans = quad_transition(0)
    explicit = [ScanConfig(TransitionObservable(b, trans, Geometry(0.0)),
                           EXTENT, RES) for _, b in five_beams()]
    default = [ScanConfig(TransitionObservable(b, trans), EXTENT, RES)
               for _, b in five_beams()]
    maps_theta0 = run_scans(explicit)
    maps_dm0 = run_scans(default)
    for a, b in zip(maps_theta0, maps_dm0):
        assert np.array_equal(a.values, b.values)  # bit-for-bit
        assert a.scale_factor == b.scale_factor

    names = [name for name, _ in five_beams()]
    azi = maps_theta0[names.index("azimuthal")]
    assert azi.scale_factor == 0.0 and np.all(azi.values == 0.0)

    rad = maps_theta0[names.index("radial")]
    ix, iy = np.unravel_index(np.argmax(rad.values), rad.values.shape)
    (cx0, cx1), (cy0, cy1) = central_cells(rad.values.shape)
    assert ix in (cx0, cx1) and iy in (cy0, cy1)


# -------------------------------------------------------------- criterion 6


_FD_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD_WEIGHTS = (1.0, -8.0, 8.0, -1.0)


def fd_mu_gradient(beam, trans, point, h):
    grad = np.zeros(3, dtype=complex)
    for axis in range(3):
        acc = 0.0
        for off, wgt in zip(_FD_OFFSETS, _FD_WEIGHTS):
            shifted = np.array(point, dtype=float)
            shifted[axis] += off * h
            fs = field_sample_upto(beam, shifted, 1)
            acc = acc + wgt * complex(relative_strength(fs, trans))
        grad[axis] = acc / (12.0 * h)
    return grad


def test_criterion_06_derivative_oracles():
    pts = probe_points()
    for _, beam in five_beams():
        ana = field_sample_upto(beam, pts, 2)
        jac_scale = np.max(np.abs(ana.jacobian))
        hes_scale = np.max(np.abs(ana.hessian))
        assert np.max(np.abs(ana.jacobian - fd_jacobian(beam, pts))) < 1e-6 * jac_scale
        assert np.max(np.abs(ana.hessian - fd_hessian(beam, pts))) < 1e-5 * hes_scale

    trans = quad_transition(1)
    beam = lg(1)
    for point in ([0.31 * W0, -0.12 * W0, 0.0], [0.0, 0.0, 0.0],
                  [-0.4 * W0, 0.22 * W0, 0.1 * W0]):
        fd = fd_mu_gradient(beam, trans, point, 1e-4 * WAVELENGTH)
        ana = np.array([
            mu_derivative(beam, np.array(point, dtype=float), e, trans)
            for e in np.eye(3)])
        assert np.max(np.abs(ana - fd)) < 1e-6 * max(np.max(np.abs(fd)), 1e-300)


# -------------------------------------------------------------- criterion 7


def test_criterion_07_sideband_structure_and_constants():
    beam = lg(1, 0, +1)
    trans = quad_transition(1)
    trap = TrapSpec.from_lab_units(40.0, (1.0, 1.0, 1.0))

    # trap at the vortex center: no carrier excitation at all
    carrier = sideband_strength(beam, trap, SidebandRequest("X", 0, "carrier"),
                                trans)
    assert carrier == 0.0

    # ... while the transverse sideband map peaks exactly there
    d = run_scan(ScanConfig(
        SidebandObservable(beam, trap, SidebandRequest("X", 0, "bsb"), trans),
        EXTENT, RES))
    ix, iy = np.unravel_index(np.argmax(d.values), d.values.shape)
    (cx0, cx1), (cy0, cy1) = central_cells(d.values.shape)
    assert ix in (cx0, cx1) and iy in (cy0, cy1)

    # ladder-operator ratio, exact for every starting level; both lines
    # vanish at the vortex center, so the trap sits off-axis here
    off_center = TrapSpec.from_lab_units(40.0, (1.0, 1.0, 1.0),
                                         center=(0.3 * W0, 0.1 * W0, 0.0))
    for n in range(1, 6):
        bsb = sideband_strength(beam, off_center,
                                SidebandRequest("X", n, "bsb"), trans)
        rsb = sideband_strength(beam, off_center,
                                SidebandRequest("X", n, "rsb"), trans)
        expected = math.sqrt((n + 1.0) / n)
        assert abs(abs(bsb / rsb) - expected) < 1e-12 * expected

    # frozen constant oracles: direct closed-form evaluation at 40 u, 1 MHz
    mass = 40.0 * ATOMIC_MASS
    omega = 2 * math.pi * 1.0e6
    z0 = zero_point_length(mass, omega)
    assert abs(z0 - 1.12403181577e-8) < 1e-4 * 1.12403181577e-8
    assert f"{z0:.3e}" == "1.124e-08"
    eta_z = (2 * math.pi / WAVELENGTH) * z0
    assert abs(eta_z - 0.0968792892952) < 1e-4 * 0.0968792892952
    assert round(eta_z, 4) == 0.0969


# -------------------------------------------------------------- criterion 8


def halfint_range(limit):
    return [HalfInt(t) for t in range(0, 2 * limit + 1)]


def test_criterion_08_angular_momentum_algebra():
    rng = np.random.default_rng(11)
    for j in halfint_range(4):
        dim = int(2 * float(j)) + 1
        alpha, beta = rng.uniform(0.2, 1.2, 2)
        da = wigner_d_matrix(j, alpha)
        db = wigner_d_matrix(j, beta)
        dab = wigner_d_matrix(j, alpha + beta)
        assert np.max(np.abs(da.T @ da - np.eye(dim))) < 1e-12
        assert np.max(np.abs(da @ db - dab)) < 1e-12

    for j1 in halfint_range(2):
        for j2 in halfint_range(2):
            jmin, jmax = abs(float(j1) - float(j2)), float(j1) + float(j2)
            couples = []
            big_j = jmin
            while big_j <= jmax + 1e-9:
                couples.append(big_j)
                big_j += 1.0
            # orthogonality over (m1, m2) for every (J, M) pair
            for J in couples:
                for Jp in couples:
                    M = min(J, Jp)
                    acc = 0.0
                    m1 = -float(j1)
                    while m1 <= float(j1) + 1e-9:
                        m2 = M - m1
                        if abs(m2) <= float(j2) + 1e-9:
                            acc += (clebsch_gordan(j1, m1, j2, m2, J, M)
                                    * clebsch_gordan(j1, m1, j2, m2, Jp, M))
                        m1 += 1.0
                    expected = 1.0 if J == Jp else 0.0
                    assert abs(acc - expected) < 1e-12

    # spot values
    assert clebsch_gordan(2, 2, 1, 1, 3, 3) == 1.0
    assert clebsch_gordan("3/2", "3/2", 1, 1, "5/2", "5/2") == 1.0
    assert abs(clebsch_gordan(1, 0, 1, 0, 0, 0) + 1 / math.sqrt(3)) < 1e-12


# -------------------------------------------------------------- criterion 9


def test_criterion_09_wavefunction_averaging():
    beam = lg(1, 0, +1)
    widths = np.full(3, 60e-9)

    # point limit: vanishing widths recover the exact local strength
    open_ch = quad_transition(2)
    off = np.array([0.37 * W0, -0.21 * W0, 0.0])
    exact = complex(relative_strength(field_sample_upto(beam, off, 1), open_ch))
    avg = averaged_strength(beam, off, np.full(3, 1e-12), open_ch,
                            quadrature_order=15)
    assert abs(avg - exact) < 1e-6 * abs(exact)

    # open channel at the vortex core: the 60 nm cloud leaves a nonzero
    # averaged amplitude that differs measurably from the point value
    mu0 = complex(relative_strength(field_sample_upto(beam, ORIGIN, 1),
                                    open_ch))
    a15 = averaged_strength(beam, ORIGIN, widths, open_ch, quadrature_order=15)
    a31 = averaged_strength(beam, ORIGIN, widths, open_ch, quadrature_order=31)
    assert abs(a15) > 0.0
    assert abs(a15 - mu0) > 0.05 * abs(mu0)  # averaging is a real correction
    assert abs(a15 - a31) < 1e-8 * abs(a31)  # quadrature self-convergence

    # channel dark at the core: point value identically zero, the amplitude
    # average cancels azimuthally, and the rms residual survives
    dark_ch = quad_transition(1)
    assert relative_strength(field_sample_upto(beam, ORIGIN, 1), dark_ch) == 0.0
    rms15 = averaged_strength_rms(beam, ORIGIN, widths, dark_ch,
                                  quadrature_order=15)
    rms31 = averaged_strength_rms(beam, ORIGIN, widths, dark_ch,
                                  quadrature_order=31)
    amp = averaged_strength(beam, ORIGIN, widths, dark_ch, quadrature_order=15)
    assert rms15 > 0.0
    assert abs(rms15 - rms31) < 1e-8 * rms31
    assert abs(amp) < 1e-12 * rms15


@pytest.mark.xfail(strict=True, reason="for a channel whose point strength "
                   "vanishes at the vortex core, the amplitude average over "
                   "a centered isotropic cloud cancels azimuthally; the "
                   "measurable residual is the rms companion — see the "
                   "decision log")
def test_criterion_09_literal_nonzero_average_for_dark_channel():
    beam = lg(1, 0, +1)
    dark_ch = quad_transition(1)
    widths = np.full(3, 60e-9)
    amp = averaged_strength(beam, ORIGIN, widths, dark_ch, quadrature_order=15)
    rms = averaged_strength_rms(beam, ORIGIN, widths, dark_ch,
                                quadrature_order=15)
    assert abs(amp) > 1e-6 * rms


# ------------------------------------------------------------- criterion 10


def panel_configs(res=None):
    """Full four-family panel reproduction, on RES unless `res` is given."""
    res = RES if res is None else res
    beams = [b for _, b in five_beams()]
    trap = TrapSpec.from_lab_units(40.0, (2.0, 2.0, 1.0))
    cfgs = []
    for b in beams:  # family 1: component moduli
        for comp in ("sigma_plus", "sigma_minus", "z"):
            cfgs.append(ScanConfig(FieldComponentObservable(b, comp),
                                   EXTENT, res))
    for b in beams:  # family 2: per-channel strengths, axis-aligned drive
        for dm in range(-2, 3):
            cfgs.append(ScanConfig(TransitionObservable(b, quad_transition(dm)),
                                   EXTENT, res))
    for b in beams:  # family 3: tilted quantization axis, dm = 0
        for theta in (math.pi / 4, math.pi / 2):
            cfgs.append(ScanConfig(
                TransitionObservable(b, quad_transition(0), Geometry(theta)),
                EXTENT, res))
    for b in beams:  # family 4: carrier and rescaled sidebands, dm = +1
        cfgs.append(ScanConfig(SidebandObservable(
            b, trap, SidebandRequest("X", 0, "carrier"), quad_transition(1)),
            EXTENT, res))
        for mode in ("X", "Y", "Z"):
            cfgs.append(ScanConfig(SidebandObservable(
                b, trap, SidebandRequest(mode, 0, "bsb"), quad_transition(1),
                eta_rescale=True), EXTENT, res))
    return cfgs


def test_criterion_10_full_panel_reproduction_under_60s():
    cfgs = panel_configs()
    assert len(cfgs) >= 40
    start = time.perf_counter()
    maps = run_scans(cfgs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert len(maps) == len(cfgs)
    for d in maps:
        assert d.values.shape == RES
        assert np.all(np.isfinite(d.values))
