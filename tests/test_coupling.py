"""Coupling tables, selection rules, axis rotation, and averaging.

The rotation tests use an independent oracle (`oracles.rotated_sample`):
instead of rotating the coefficient tables, the sampled field arrays are
transformed into the atom frame (vector components and derivative indices
alike) and contracted with the unrotated tables.  Both paths must agree to high precision.
"""

import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vectorlight import beams as beams_module
from vectorlight import coupling
from vectorlight.beams import (
    BeamSpec,
    FieldSample,
    field_sample_upto,
    make_radial_azimuthal,
)
from vectorlight.coupling import (
    CouplingCoefficients,
    Geometry,
    Multipole,
    TransitionSpec,
    averaged_strength,
    averaged_strength_rms,
    coefficients_for,
    relative_strength,
    rotate_coefficients,
    strength_gradient,
)
from vectorlight.special import HalfInt

from conftest import WAIST, WAVELENGTH, make_five_beams, make_probe_points
from oracles import rotated_sample

SQ2 = math.sqrt(2.0)


def transition(dm, multipole=Multipole.E2_DJ2, m1=HalfInt(1)):
    """Default figure transition family J1=1/2 -> J2 with m2 = m1 + dm."""
    j2 = "5/2" if multipole.delta_j == 2 else "3/2"
    return TransitionSpec("1/2", m1, j2, m1 + HalfInt(2 * dm), multipole)


# ---------------------------------------------------------------------------
# static tables


def test_dipole_table_values():
    c = coefficients_for(Multipole.E1)
    assert np.array_equal(c[+1], [1.0, -1.0j, 0.0])
    assert np.array_equal(c[0], [0.0, 0.0, SQ2])
    assert np.array_equal(c[-1], [1.0, +1.0j, 0.0])
    assert c.delta_j == 1


def test_gradient_rank1_table_values():
    c = coefficients_for(Multipole.E2_DJ1)
    assert c[+1][0, 2] == 1.0 and c[+1][2, 0] == -1.0
    assert c[+1][1, 2] == -1.0j and c[+1][2, 1] == +1.0j
    assert np.array_equal(c[0], [[0, 1.0j * SQ2, 0], [-1.0j * SQ2, 0, 0], [0, 0, 0]])
    assert c[-1][2, 0] == 1.0 and c[-1][0, 2] == -1.0
    assert c[-1][1, 2] == -1.0j and c[-1][2, 1] == +1.0j


def test_gradient_rank2_table_values():
    c = coefficients_for(Multipole.E2_DJ2)
    s = math.sqrt(2.0 / 3.0)
    assert np.array_equal(c[0], [[s, 0, 0], [0, s, 0], [0, 0, 2.0 * s]])
    assert np.array_equal(c[+2], [[1, -1.0j, 0], [-1.0j, -1, 0], [0, 0, 0]])
    assert np.array_equal(c[-2], [[1, +1.0j, 0], [+1.0j, -1, 0], [0, 0, 0]])
    assert np.array_equal(c[+1], [[0, 0, 1], [0, 0, -1.0j], [1, -1.0j, 0]])
    assert np.array_equal(c[-1], [[0, 0, 1], [0, 0, +1.0j], [1, +1.0j, 0]])
    assert set(c.channels) == {-2, -1, 0, 1, 2}


def test_tables_are_readonly():
    c = coefficients_for(Multipole.E1)
    with pytest.raises(ValueError):
        c[0][2] = 5.0
    with pytest.raises(TypeError):
        c.channels[0] = np.zeros(3)


def test_multipole_parse():
    assert Multipole.parse("e1") is Multipole.E1
    assert Multipole.parse("E2_dJ2") is Multipole.E2_DJ2
    assert Multipole.parse("e2-dj1") is Multipole.E2_DJ1
    with pytest.raises(ValueError):
        Multipole.parse("m1")


# ---------------------------------------------------------------------------
# transition and geometry validation


def test_transition_validation():
    with pytest.raises(ValueError):
        TransitionSpec("1/2", "3/2", "5/2", "1/2", Multipole.E1)  # |m1| > J1
    with pytest.raises(ValueError):
        TransitionSpec("1/2", 0, "5/2", "1/2", Multipole.E1)  # parity mismatch
    t = TransitionSpec("1/2", "-1/2", "5/2", "3/2", "e2_dj2")
    assert t.multipole is Multipole.E2_DJ2
    assert float(t.delta_m) == 2.0


def test_geometry_validation():
    g = Geometry(0.3)
    assert np.array_equal(g.axis, [0.0, 1.0, 0.0])
    g2 = Geometry(0.3, (0.0, 0.0, 5.0))
    assert np.allclose(g2.axis, [0, 0, 1])
    with pytest.raises(ValueError):
        Geometry(0.1, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Geometry(0.1, (1.0, 0.0))
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            Geometry(theta)
    with pytest.raises(ValueError):
        g.axis[1] = 2.0


# ---------------------------------------------------------------------------
# selection rules and channel structure


def _axis_sample(beam):
    return field_sample_upto(beam, (0.0, 0.0, 0.0), 2)


def test_selection_rules_exact_zero(probe_points):
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    fs = field_sample_upto(beam, probe_points, 2)
    # projection change beyond the tensor rank
    t = TransitionSpec("1/2", "-1/2", "5/2", "5/2", Multipole.E2_DJ2)
    mu = relative_strength(fs, t)
    assert mu.shape == probe_points.shape[:-1]
    assert np.all(mu == 0.0)
    # triangle rule failure
    t2 = TransitionSpec("1/2", "1/2", "1/2", "1/2", Multipole.E2_DJ2)
    assert np.all(relative_strength(fs, t2) == 0.0)
    # non-integer projection change across integer/half-integer J
    t3 = TransitionSpec("1/2", "1/2", 2, 1, Multipole.E2_DJ2)
    assert np.all(relative_strength(fs, t3) == 0.0)


@pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_onaxis_single_channel(l, sigma):
    beam = BeamSpec.lg(l, 0, sigma, waist=WAIST, wavelength=WAVELENGTH)
    fs = _axis_sample(beam)
    mus = {dm: abs(relative_strength(fs, transition(dm))) for dm in range(-2, 3)}
    peak = max(mus.values())
    allowed = l + sigma
    if abs(allowed) <= 2:
        assert mus[allowed] == peak > 0.0
    for dm, val in mus.items():
        if dm != allowed:
            assert val <= 1e-10 * max(peak, 1e-300)


@pytest.mark.parametrize("l", [0, 1])
def test_onaxis_linear_polarization_channel_pair(l):
    # sigma = 0 is the equal superposition of both circular polarizations,
    # so the on-axis channels are l-1 and l+1, not l+0
    beam = BeamSpec.lg(l, 0, 0, waist=WAIST, wavelength=WAVELENGTH)
    fs = _axis_sample(beam)
    mus = {dm: abs(relative_strength(fs, transition(dm))) for dm in range(-2, 3)}
    peak = max(mus.values())
    want = {d for d in (l - 1, l + 1) if abs(d) <= 2}
    got = {dm for dm, val in mus.items() if val > 1e-10 * peak}
    assert got == want


def test_gaussian_onaxis_examples():
    beam = BeamSpec.lg(0, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    fs = _axis_sample(beam)
    # transverse-gradient channels vanish identically at the beam center
    assert relative_strength(fs, transition(+2)) == 0.0
    assert relative_strength(fs, transition(-2)) == 0.0
    assert abs(relative_strength(fs, transition(+1))) > 0.0
    # anti-aligned vortex drives the dm = 0 channel on axis
    anti = BeamSpec.lg(1, 0, -1, waist=WAIST, wavelength=WAVELENGTH)
    assert abs(relative_strength(_axis_sample(anti), transition(0))) > 0.0


def test_mirror_symmetry_of_strengths():
    pt = np.array([0.31 * WAIST, 0.22 * WAIST, 0.12 * WAIST])
    mirrored = pt * np.array([1.0, -1.0, 1.0])
    b1 = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    b2 = BeamSpec.lg(-1, 0, -1, waist=WAIST, wavelength=WAVELENGTH)
    m1 = HalfInt(1)
    t_plus = transition(+2, m1=m1)
    t_minus = TransitionSpec("1/2", m1, "5/2", m1 + HalfInt(-4), Multipole.E2_DJ2)
    mu1 = relative_strength(field_sample_upto(b1, pt, 2), t_plus)
    mu2 = relative_strength(field_sample_upto(b2, mirrored, 2), t_minus)
    # reflection x -> x, y -> -y maps the beam pair onto each other; the CG
    # weights differ between +2 and -2, so compare slot contractions
    cg_plus = 1.0
    cg_minus = 0.4472135954999579
    assert abs(abs(mu1) / cg_plus - abs(mu2) / cg_minus) < 1e-12 * abs(mu1)


# ---------------------------------------------------------------------------
# rotation


@pytest.mark.parametrize("multipole", list(Multipole))
def test_rotation_matches_field_rotation_oracle(multipole, five_beams, probe_points):
    axes = [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.36, -0.48, 0.8)]
    thetas = [math.pi / 6, math.pi / 4, math.pi / 2]
    dm = 1 if multipole.delta_j == 1 else 2
    trans = transition(dm, multipole=multipole)
    for _, beam in five_beams:
        fs = field_sample_upto(beam, probe_points, 2)
        for theta in thetas:
            for axis in axes:
                geom = Geometry(theta, axis)
                mu_tensor = relative_strength(fs, trans, geom)
                mu_field = relative_strength(rotated_sample(fs, geom.rotation()),
                                             trans, Geometry(0.0))
                scale = max(np.max(np.abs(mu_field)), 1e-300)
                assert np.max(np.abs(mu_tensor - mu_field)) < 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda a: math.hypot(*a) > 1e-3),
       beam=st.integers(0, 4), multipole=st.sampled_from(list(Multipole)),
       point=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                       st.floats(-0.8, 0.8)))
def test_rotation_matches_field_rotation_oracle_anywhere(theta, axis, beam,
                                                         multipole, point):
    # The drawn point joins the fixed probe points, and the tolerance is the
    # one above, relative to the largest strength over the batch and over
    # every dm channel of the multipole.  A channel dark at this geometry
    # (say theta near 0 or 2 pi) then compares rounding with rounding: the
    # oracle's rotated field e + theta K e loses the theta term under the
    # large components of e, while the rotated tables keep it.
    _, spec = make_five_beams()[beam]
    drawn = np.array(point) * (WAIST, WAIST, spec.rayleigh_length)
    pts = np.concatenate([make_probe_points(), drawn[None, :]])
    fs = field_sample_upto(spec, pts, 2)
    geom = Geometry(theta, axis)
    moved = rotated_sample(fs, geom.rotation())
    err = scale = 0.0
    for dm in range(-multipole.delta_j, multipole.delta_j + 1):
        trans = transition(dm, multipole=multipole)
        mu_tensor = relative_strength(fs, trans, geom)
        mu_field = relative_strength(moved, trans, Geometry(0.0))
        err = max(err, np.max(np.abs(mu_tensor - mu_field)))
        scale = max(scale, np.max(np.abs(mu_field)))
    assert err < 1e-10 * scale


def test_rotation_identity_and_period():
    for multipole in Multipole:
        base = coefficients_for(multipole)
        # theta = 0 short-circuits to the identical object (bit-identity)
        assert rotate_coefficients(base, Geometry(0.0)) is base
        full = rotate_coefficients(base, Geometry(2.0 * math.pi))
        for dm, table in base.channels.items():
            scale = np.max(np.abs(table))
            assert np.max(np.abs(full[dm] - table)) < 1e-12 * scale


def test_rotated_tables_contract_like_rotated_gradients():
    # explicit slot identity: sum c'_ab G_ab == sum c_ij (R^T G R)_ij
    rng = np.random.default_rng(9)
    grad = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    geom = Geometry(0.7, (0.2, 0.9, -0.3))
    rot = geom.rotation()
    for multipole in (Multipole.E2_DJ1, Multipole.E2_DJ2):
        base = coefficients_for(multipole)
        moved = rotate_coefficients(base, geom)
        for dm in base.channels:
            lhs = np.sum(moved[dm] * grad)
            rhs = np.sum(base[dm] * (rot.T @ grad @ rot))
            assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# angular momentum about the beam axis
#
# An LG term of charge l and circular polarization sigma carries J_z = l +
# sigma = j.  Its profile F goes as e^{il phi} about the axis, the rotation
# R_phi turns e = x + i sigma y into e^{-i sigma phi} e, and E_z, which is
# (d_x + i sigma d_y) F, goes as e^{ij phi}.  So E(R r) = e^{ij phi} R E(r),
# the jacobian d_i E_j goes to e^{ij phi} R (dE) R^T, and a dm table, one
# spherical component, contracts R E (or R (dE) R^T) to e^{-i dm phi} times
# its contraction of E.  Hence
#     mu_dm(R r) = e^{i(j - dm) phi} mu_dm(r),
#     grad mu_dm(R r) = e^{i(j - dm) phi} R grad mu_dm(r).
# Both terms of the radial and azimuthal beams have j = 0.  An HG(m, n)
# profile is even or odd in x and in y, H_m(-u) = (-1)^m H_m(u), so under
# R_pi, (x, y) -> (-x, -y), F picks up (-1)^(m + n), the polarization -1
# (for sigma = 0 too: e = x), and E_z, a transverse derivative of F, one
# sign more than F.  So E(R_pi r) = (-1)^(m + n + 1) R_pi E(r), and with
# e^{-i dm pi} = (-1)^dm the strengths pick up (-1)^(m + n + 1 + dm).

PHASE_TOL = 1e-13


def _phase_law_errors(spec, rot, phase, seed, n=8):
    """For every dm channel of every multipole, the worst deviation from
    mu(R r) = phase(dm) mu(r) and grad mu(R r) = phase(dm) R grad mu(r)
    over n random points, relative to the peak of the field block that each
    contracts.  (A strength can be rounding residue everywhere, as the
    azimuthal beam's dm = 0 ones are, so its own peak is no scale.)"""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 3)) * (1.5 * WAIST, 1.5 * WAIST, 0.5e-6)
    fs = field_sample_upto(spec, pts, 2)
    moved = field_sample_upto(spec, pts @ rot.T, 2)
    errors = []
    for multipole in Multipole:
        order = multipole.field_order
        for dm in range(-multipole.delta_j, multipole.delta_j + 1):
            trans = transition(dm, multipole=multipole)
            mu = relative_strength(fs, trans)
            grad = strength_gradient(fs, trans)
            errors.append(max(
                np.max(np.abs(relative_strength(moved, trans)
                              - phase(dm) * mu)) / fs.peak(order),
                np.max(np.abs(strength_gradient(moved, trans)
                              - phase(dm) * grad @ rot.T)) / fs.peak(order + 1)))
    return errors


def _z_rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_J_Z_BEAMS = [(f"lg{l},{p},{sigma:+d}", l + sigma,
               BeamSpec.lg(l, p, sigma, waist=WAIST, wavelength=WAVELENGTH))
              for l in range(-3, 3) for p in (0, 1) for sigma in (1, -1)]
_J_Z_BEAMS += [(kind, 0, make_radial_azimuthal(kind, WAIST, WAVELENGTH))
               for kind in ("radial", "azimuthal")]


@pytest.mark.parametrize("j, spec", [b[1:] for b in _J_Z_BEAMS],
                         ids=[b[0] for b in _J_Z_BEAMS])
@settings(max_examples=4, deadline=None)
@given(phi=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
@example(phi=0.7, seed=0)
def test_strengths_carry_the_beams_angular_momentum(j, spec, phi, seed):
    def phase(dm):
        return np.exp(1j * (j - dm) * phi)

    assert max(_phase_law_errors(spec, _z_rotation(phi), phase, seed)) \
        < PHASE_TOL


@pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1),
                                  (3, 0)])
@pytest.mark.parametrize("sigma", [-1, 0, 1])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hg_strengths_are_even_or_odd_under_a_half_turn(m, n, sigma, seed):
    spec = BeamSpec.hg(m, n, sigma, waist=WAIST, wavelength=WAVELENGTH)

    def phase(dm):
        return (-1.0) ** (m + n + 1 + dm)

    # R_pi exactly: cos(pi) and sin(pi) as floats would move the points
    half_turn = np.diag([-1.0, -1.0, 1.0])
    assert max(_phase_law_errors(spec, half_turn, phase, seed)) < PHASE_TOL


def test_the_opposite_phases_fail_the_angular_momentum_laws():
    # the laws do not hold by accident: the conjugate phase, and the HG
    # half turn's other sign, fail wherever a channel is not negligible
    errors = []
    for _, j, spec in _J_Z_BEAMS:
        errors += _phase_law_errors(spec, _z_rotation(0.7),
                                    lambda dm: np.exp(-1j * (j - dm) * 0.7), 0)
    assert sum(err > PHASE_TOL for err in errors) > 100
    spec = BeamSpec.hg(2, 1, 1, waist=WAIST, wavelength=WAVELENGTH)
    errors = _phase_law_errors(spec, np.diag([-1.0, -1.0, 1.0]),
                               lambda dm: (-1.0) ** (2 + 1 + dm), 0)
    assert sum(err > PHASE_TOL for err in errors) > 5


# ---------------------------------------------------------------------------
# vectorization and gradients


def test_batch_matches_pointwise(probe_points):
    beam = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    trans = transition(1)
    geom = Geometry(math.pi / 4)
    fs = field_sample_upto(beam, probe_points, 2)
    batch = relative_strength(fs, trans, geom)
    for i in range(probe_points.shape[0]):
        single = relative_strength(field_sample_upto(beam, probe_points[i], 2), trans, geom)
        assert batch[i] == single


@pytest.mark.parametrize("multipole", list(Multipole))
def test_strength_gradient_against_fd(multipole):
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(multipole.delta_j, multipole=multipole)
    geom = Geometry(math.pi / 6)
    pt = np.array([0.4 * WAIST, -0.2 * WAIST, 0.1 * WAIST])
    grad = strength_gradient(field_sample_upto(beam, pt, 2), trans, geom)
    h = 1e-10
    for i in range(3):
        step = np.zeros(3)
        step[i] = h

        def mu(s):
            return relative_strength(field_sample_upto(beam, pt + s * step, 2), trans, geom)

        fd = (mu(-2.0) - 8.0 * mu(-1.0) + 8.0 * mu(1.0) - mu(2.0)) / (12.0 * h)
        assert abs(grad[i] - fd) < 1e-6 * max(abs(fd), 1e-300)


def test_strength_gradient_selection_zero():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    t = TransitionSpec("1/2", "-1/2", "5/2", "5/2", Multipole.E2_DJ2)
    g = strength_gradient(field_sample_upto(beam, (0.0, 0.0, 0.0), 2), t)
    assert g.shape == (3,)
    assert np.all(g == 0.0)


# ---------------------------------------------------------------------------
# wavefunction averaging


def test_averaging_point_limit():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1, multipole=Multipole.E2_DJ1)
    pt = (0.4 * WAIST, -0.2 * WAIST, 0.1 * WAIST)
    mu_pt = relative_strength(field_sample_upto(beam, pt, 2), trans)
    mu_avg = averaged_strength(beam, pt, (1e-6 * WAIST,) * 3, trans)
    assert abs(mu_avg - mu_pt) < 1e-6 * abs(mu_pt)


def test_averaging_at_vortex_core():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1, multipole=Multipole.E2_DJ1)
    widths = (60e-9,) * 3
    center = (0.0, 0.0, 0.0)
    assert relative_strength(field_sample_upto(beam, center, 2), trans) == 0.0
    # odd integrand: the amplitude average stays zero, the RMS does not
    amp = averaged_strength(beam, center, widths, trans)
    rms = averaged_strength_rms(beam, center, widths, trans)
    assert abs(amp) < 1e-12 * rms
    assert rms > 0.0
    rms_hi = averaged_strength_rms(beam, center, widths, trans,
                                   quadrature_order=31)
    assert abs(rms - rms_hi) < 1e-8 * rms_hi


def test_averaging_scales_with_cloud_size():
    # near a strength null the RMS grows with the wavepacket extent
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1, multipole=Multipole.E2_DJ1)
    r30 = averaged_strength_rms(beam, (0, 0, 0), (30e-9,) * 3, trans)
    r60 = averaged_strength_rms(beam, (0, 0, 0), (60e-9,) * 3, trans)
    assert r60 > 1.5 * r30


def test_averaging_validation():
    # each bad input raises even right after a valid call on the same beam,
    # whose cloud is then held
    beam = BeamSpec.lg(0, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1, multipole=Multipole.E2_DJ1)
    bad = [((0.0, 1e-9, 1e-9), 15), ((-1e-9, 1e-9, 1e-9), 15),
           ((1e-9, 1e-9), 15), ((1e-9,) * 4, 15), ((1e-9,) * 3, 0),
           ((1e-9,) * 3, -3), ((1e-9,) * 3, 2.5),
           ((math.nan, 1e-9, 1e-9), 15)]
    for widths, order in bad:
        for func in (averaged_strength, averaged_strength_rms):
            func(beam, (0, 0, 0), (1e-9,) * 3, trans)
            with pytest.raises(ValueError):
                func(beam, (0, 0, 0), widths, trans, quadrature_order=order)


# ---------------------------------------------------------------------------
# the held cloud: consecutive calls on one cloud share one field sample

_CENTER_A = (0.2 * WAIST, -0.4 * WAIST, 0.1 * WAIST)
_CENTER_B = (-0.3 * WAIST, 0.1 * WAIST, -0.2 * WAIST)
_WIDTHS = (1.0e-8, 1.1e-8, 1.2e-8)


def _bits(value) -> bytes:
    return np.array(value).tobytes()


def _fresh(monkeypatch, func, *args):
    """`func` evaluated with no cloud held, so it samples the field."""
    monkeypatch.setattr(coupling, "_held_cloud", None)
    return func(*args)


@pytest.fixture
def field_calls(monkeypatch):
    """The list of (points shape, order) of every field sample taken."""
    calls = []

    def counting(spec, points, order, *rest):
        calls.append((np.shape(points), order))
        return field_sample_upto(spec, points, order, *rest)

    monkeypatch.setattr(coupling, "_held_cloud", None)
    monkeypatch.setattr(coupling, "field_sample_upto", counting)
    return calls


def test_held_cloud_serves_average_and_rms_in_any_order(monkeypatch):
    beam = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    other = BeamSpec.hg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1)
    funcs = {"avg": averaged_strength, "rms": averaged_strength_rms}
    clouds = {"A": (beam, _CENTER_A), "B": (beam, _CENTER_B),
              "C": (other, _CENTER_A)}
    fresh = {(f, c): _bits(_fresh(monkeypatch, funcs[f], b, ctr, _WIDTHS,
                                  trans))
             for f in funcs for c, (b, ctr) in clouds.items()}
    orders = [["avg", "rms"], ["rms", "avg"], ["rms", "rms", "avg", "avg"]]
    for seq in orders:
        for cloud_seq in (["A", "B", "A"], ["A", "C", "A"], ["B", "A", "B"]):
            monkeypatch.setattr(coupling, "_held_cloud", None)
            for c in cloud_seq:
                b, ctr = clouds[c]
                for f in seq:
                    got = funcs[f](b, ctr, _WIDTHS, trans)
                    assert _bits(got) == fresh[f, c], (seq, cloud_seq, c, f)


def test_one_field_sample_serves_every_transition_and_geometry(monkeypatch,
                                                               field_calls):
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    geoms = [None, Geometry(0.4), Geometry(1.1, (1.0, 0.5, -0.2))]
    e2 = [transition(dm, mp) for mp in (Multipole.E2_DJ1, Multipole.E2_DJ2)
          for dm in range(-mp.delta_j, mp.delta_j + 1)]
    e1 = [transition(dm, Multipole.E1) for dm in (-1, 0, 1)]
    # E2 first: its order-1 sample serves E1 from its block 0; E1 first:
    # its order-0 sample has no jacobian, so E2 takes an order-1 sample
    for seq, orders in ((e2 + e1, [1]), (e1 + e2, [0, 1])):
        expected = []
        for trans in seq:
            for geom in geoms:
                for func in (averaged_strength, averaged_strength_rms):
                    args = (beam, _CENTER_A, _WIDTHS, trans, geom)
                    expected.append(_bits(_fresh(monkeypatch, func, *args)))
        del field_calls[:]
        monkeypatch.setattr(coupling, "_held_cloud", None)
        got = [_bits(func(beam, _CENTER_A, _WIDTHS, trans, geom))
               for trans in seq for geom in geoms
               for func in (averaged_strength, averaged_strength_rms)]
        assert got == expected
        assert field_calls == [((15 ** 3, 3), k) for k in orders]


def test_held_cloud_is_matched_by_beam_and_bits(field_calls):
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1, Multipole.E2_DJ1)
    widths = np.array(_WIDTHS)
    wider = widths.copy()
    wider[1] = np.nextafter(wider[1], np.inf)
    calls = [
        (beam, (0.0, 0.0, 0.0), widths, 15, 1),
        (beam, (0.0, 0.0, 0.0), widths, 15, 1),  # the same cloud: a hit
        (beam, (-0.0, 0.0, 0.0), widths, 15, 2),  # a signed zero apart
        (beam, (0.0, 0.0, 0.0), widths, 15, 3),
        (beam, (0.0, 0.0, 0.0), wider, 15, 4),  # a width one ulp apart
        (beam, (0.0, 0.0, 0.0), wider, 15, 4),
        (beam, (0.0, 0.0, 0.0), wider, 9, 5),  # another quadrature order
        (beam, (0.0, 0.0, 0.0), wider, 9.0, 5),  # the same order as a float
        # an equal beam, but another object
        (BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH),
         (0.0, 0.0, 0.0), wider, 9, 6),
    ]
    for spec, center, w, order, n in calls:
        averaged_strength_rms(spec, center, w, trans, quadrature_order=order)
        assert len(field_calls) == n, (center, w, order)


def test_threads_alternating_clouds_get_fresh_results(monkeypatch):
    # more threads than cores, switching often: a sample handed to the wrong
    # cloud, transition or field order would change some result's bits
    radial = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    clouds = [(radial, _CENTER_A), (radial, _CENTER_B),
              (BeamSpec.lg(-1, 0, +1, waist=WAIST, wavelength=WAVELENGTH),
               _CENTER_A)]
    transitions = [transition(0), transition(1, Multipole.E1)]
    cases = [(c, t) for c in range(len(clouds))
             for t in range(len(transitions))]

    def evaluate(c, t):
        beam, center = clouds[c]
        return (_bits(averaged_strength(beam, center, _WIDTHS,
                                        transitions[t])),
                _bits(averaged_strength_rms(beam, center, _WIDTHS,
                                            transitions[t])))

    fresh = {}
    for case in cases:
        monkeypatch.setattr(coupling, "_held_cloud", None)
        fresh[case] = evaluate(*case)
    barrier = threading.Barrier(4, timeout=60)

    def work(first):
        barrier.wait()
        order = [cases[(first + k) % len(cases)] for k in range(3 * len(cases))]
        return [(case, evaluate(*case)) for case in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(work, first) for first in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert len(got) == 3 * len(cases)
        for case, bits in got:
            assert bits == fresh[case], case


def test_held_arrays_are_read_only():
    beam = BeamSpec.hg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    for multipole in (Multipole.E1, Multipole.E2_DJ2):
        averaged_strength(beam, _CENTER_A, _WIDTHS, transition(0, multipole))
        sample = coupling._held_cloud[2]
        blocks = [sample.block(k)
                  for k in range(multipole.field_order + 1)]
        nodes, weights = coupling._gauss_hermite(15)
        for arr in blocks + [nodes, weights]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


# ---------------------------------------------------------------------------
# contractions kept with their sample


def test_a_sample_keeps_each_contraction_it_serves(monkeypatch):
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    pts = make_probe_points()
    fs = field_sample_upto(beam, pts, 2)
    trans = transition(1)
    # the same channel with another Clebsch-Gordan weight
    other_cg = transition(1, m1=HalfInt(-1))
    assert coupling._selection(other_cg)[0] != coupling._selection(trans)[0]
    for func in (relative_strength, strength_gradient):
        first = func(fs, trans)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        # a repeat, an equal transition and an equal geometry share it
        assert func(fs, trans) is first
        assert func(fs, transition(1), Geometry(0.0)) is first
        # another geometry or another weight does not
        for other in (func(fs, trans, Geometry(0.4)),
                      func(fs, trans, Geometry(0.4, (1.0, 0.0, 0.0))),
                      func(fs, other_cg)):
            assert other is not first
            assert other.tobytes() != first.tobytes()
        # each equals a contraction on a sample that has kept nothing
        for t, geom in ((trans, Geometry(0.4)), (other_cg, None)):
            fresh = field_sample_upto(beam, pts, 2)
            assert func(fs, t, geom).tobytes() == func(fresh, t, geom).tobytes()
    # the selection rules and weight are still looked up on every call
    calls = []

    def counting(*args):
        calls.append(args)
        return cg(*args)

    cg = coupling.clebsch_gordan
    monkeypatch.setattr(coupling, "clebsch_gordan", counting)
    for _ in range(3):
        relative_strength(fs, trans)
        strength_gradient(fs, trans)
    assert len(calls) == 6


def test_every_contraction_returned_is_read_only():
    fs = field_sample_upto(BeamSpec.lg(1, 0, +1, waist=WAIST,
                                       wavelength=WAVELENGTH),
                           make_probe_points(), 1)
    forbidden = transition(2, Multipole.E1, m1=HalfInt(-1))
    assert coupling._selection(forbidden) is None
    for func in (relative_strength, strength_gradient):
        for trans in (transition(1, Multipole.E1), forbidden):
            mu = func(fs, trans)
            assert not mu.flags.writeable
            with pytest.raises(ValueError):
                mu *= 2.0
    assert not np.any(relative_strength(fs, forbidden))


def test_a_sample_keeps_a_bounded_number_of_contractions(monkeypatch):
    # a theta sweep over one held cloud, and over one sample held by the
    # caller, keeps at most _KEPT values, and the last one is still shared
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(1)
    thetas = np.linspace(0.0, math.pi, 40)
    monkeypatch.setattr(coupling, "_held_cloud", None)
    for theta in thetas:
        averaged_strength(beam, _CENTER_A, _WIDTHS, trans, Geometry(theta),
                          quadrature_order=3)
    cloud = coupling._held_cloud[2]
    fs = field_sample_upto(beam, make_probe_points(), 2)
    for theta in thetas:
        relative_strength(fs, trans, Geometry(theta))
        strength_gradient(fs, trans, Geometry(theta))
    for sample in (cloud, fs):
        assert 0 < len(sample._derived) <= beams_module._KEPT
    last = Geometry(thetas[-1])
    assert relative_strength(fs, trans, last) is \
        relative_strength(fs, trans, last)
    # a value dropped is built again with the same bits
    first = Geometry(thetas[0])
    assert relative_strength(fs, trans, first).tobytes() == relative_strength(
        field_sample_upto(beam, make_probe_points(), 2), trans,
        first).tobytes()


def test_rms_after_average_on_one_cloud_runs_no_new_contraction(monkeypatch):
    beam = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    trans = transition(1)
    einsums = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        einsums.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(coupling, "_held_cloud", None)
    want = _bits(averaged_strength_rms(beam, _CENTER_A, _WIDTHS, trans))
    monkeypatch.setattr(coupling, "_held_cloud", None)
    monkeypatch.setattr(np, "einsum", counting)
    averaged_strength(beam, _CENTER_A, _WIDTHS, trans)
    assert len(einsums) == 1
    assert _bits(averaged_strength_rms(beam, _CENTER_A, _WIDTHS, trans)) == want
    assert len(einsums) == 1
