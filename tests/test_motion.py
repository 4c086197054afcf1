"""Trap types, Lamb-Dicke constants, strength derivatives, and sidebands.

Constant values are frozen from an arbitrary-precision oracle using the SI
defining value of h and the 2018 recommended atomic mass constant:
    z0    = sqrt(hbar / (2 * 40 u * 2 pi MHz)) = 1.12403181577e-8 m
    eta_z = (2 pi / 729 nm) * z0               = 0.0968792892952
    eta_t = (sqrt(2) / 1 um) * z0              = 0.0158962103839
"""

import math
import re
import warnings

import numpy as np
import pytest

from vectorlight.beams import BeamSpec, field_sample_upto, make_radial_azimuthal
from vectorlight.constants import ATOMIC_MASS
from vectorlight.coupling import (
    Geometry,
    Multipole,
    TransitionSpec,
    relative_strength,
)
from vectorlight.motion import (
    SidebandRequest,
    TrapSpec,
    lamb_dicke,
    mu_derivative,
    sideband_strength,
    sideband_strength_at,
    zero_point_length,
)
from vectorlight.special import HalfInt

from conftest import WAIST, WAVELENGTH

MASS = 40.0 * ATOMIC_MASS
OMEGA = 2.0 * math.pi * 1e6
K = 2.0 * math.pi / WAVELENGTH


def transition(dm, multipole=Multipole.E2_DJ2):
    j2 = "5/2" if multipole.delta_j == 2 else "3/2"
    return TransitionSpec("1/2", "1/2", j2, HalfInt(1 + 2 * dm), multipole)


def default_trap(**kw):
    return TrapSpec(MASS, (OMEGA, OMEGA, OMEGA), **kw)


# ---------------------------------------------------------------------------
# constants


def test_zero_point_length_frozen_value():
    z0 = zero_point_length(MASS, OMEGA)
    assert abs(z0 - 1.12403181577e-8) < 1e-9 * z0
    # displayed precision of the reference configuration
    assert abs(z0 - 1.124e-8) < 1e-4 * 1.124e-8


def test_zero_point_scaling():
    z0 = zero_point_length(MASS, OMEGA)
    assert abs(zero_point_length(MASS, 4.0 * OMEGA) - 0.5 * z0) < 1e-12 * z0
    with pytest.raises(ValueError):
        zero_point_length(-1.0, OMEGA)
    with pytest.raises(ValueError):
        zero_point_length(MASS, 0.0)
    with pytest.raises(ValueError):
        zero_point_length(math.nan, 1.0)
    with pytest.raises(ValueError):
        zero_point_length(MASS, math.nan)
    # the extent must be a finite positive double: an infinite omega gives
    # 0, so does 2 m omega = 2e300 (hbar / 2e300 underflows), and a product
    # that underflows to 0 gives an infinite extent
    for mass, omega in ((MASS, math.inf), (1e150, 1e150), (1e-227, 1e-293)):
        with pytest.raises(ValueError, match="zero-point length"):
            zero_point_length(mass, omega)


def test_lamb_dicke_frozen_values():
    eta_z = lamb_dicke("longitudinal", 2.0 * math.pi / 729e-9, MASS, OMEGA)
    assert abs(eta_z - 0.0968792892952) < 1e-9
    assert round(eta_z, 4) == 0.0969
    eta_t = lamb_dicke("transverse", 1e-6, MASS, OMEGA)
    assert abs(eta_t - 0.0158962103839) < 1e-9
    assert round(eta_t, 4) == 0.0159


def test_lamb_dicke_scaling_and_validation():
    eta = lamb_dicke("longitudinal", K, MASS, OMEGA)
    eta4 = lamb_dicke("longitudinal", K, MASS, 4.0 * OMEGA)
    assert abs(eta4 - 0.5 * eta) < 1e-12 * eta
    with pytest.raises(ValueError):
        lamb_dicke("diagonal", K, MASS, OMEGA)
    with pytest.raises(ValueError):
        lamb_dicke("transverse", 0.0, MASS, OMEGA)
    with pytest.raises(ValueError):
        lamb_dicke("transverse", math.nan, MASS, OMEGA)


# ---------------------------------------------------------------------------
# trap and request validation


def test_trap_validation():
    with pytest.raises(ValueError, match="mass must be positive"):
        TrapSpec(0.0, (OMEGA,) * 3)
    with pytest.raises(ValueError):
        TrapSpec(MASS, (OMEGA, OMEGA))
    with pytest.raises(ValueError, match="three positive values"):
        TrapSpec(MASS, (OMEGA, -OMEGA, OMEGA))
    # each mode's zero-point length must be a finite positive double
    for mass, freqs in ((MASS, (OMEGA, math.inf, OMEGA)),
                        (1e150, (OMEGA, OMEGA, 1e150)),
                        (1e-227, (1e-293, OMEGA, OMEGA))):
        with pytest.raises(ValueError, match="zero-point length"):
            TrapSpec(mass, freqs)
    # a frequency that overflows in SI units is rejected without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega = inf"):
            TrapSpec.from_lab_units(40.0, (1e308, 1.0, 1.0))
    with pytest.raises(ValueError):
        TrapSpec(math.nan, (OMEGA,) * 3)
    with pytest.raises(ValueError):
        TrapSpec(MASS, (OMEGA, math.nan, OMEGA))
    with pytest.raises(ValueError):
        TrapSpec(MASS, (OMEGA,) * 3, axes=[[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    trap = default_trap()
    assert np.array_equal(trap.axes, np.eye(3))
    assert np.array_equal(trap.center, np.zeros(3))
    with pytest.raises(ValueError):
        trap.frequencies[0] = 1.0

    lab = TrapSpec.from_lab_units(40.0, (1.0, 1.0, 1.0))
    assert abs(lab.mass - MASS) < 1e-12 * MASS
    assert np.max(np.abs(lab.frequencies - OMEGA)) < 1e-9 * OMEGA


def test_lab_mass_that_underflows_to_0_kg_is_named():
    # below about 1.5e-297 amu, mass_amu * ATOMIC_MASS rounds to 0 kg
    for mass_amu in (1e-320, 1e-300, 1.4e-297):
        with pytest.raises(ValueError, match=re.escape(
                f"mass {mass_amu!r} amu underflows to 0 kg")):
            TrapSpec.from_lab_units(mass_amu, (1.0, 1.0, 1.0))
    # just above the bound the mass is 5e-324 kg, the smallest positive
    # double, and is accepted
    assert TrapSpec.from_lab_units(1.5e-297, (1.0, 1.0, 1.0)).mass == 5e-324
    for mass_amu in (0.0, -1.0, -1e-320):
        with pytest.raises(ValueError, match="mass must be positive"):
            TrapSpec.from_lab_units(mass_amu, (1.0, 1.0, 1.0))


def test_sideband_request_validation():
    SidebandRequest("x", 2, "bsb")
    with pytest.raises(ValueError):
        SidebandRequest("w", 0, "carrier")
    with pytest.raises(ValueError):
        SidebandRequest("X", -1, "bsb")
    with pytest.raises(ValueError):
        SidebandRequest("X", 0, "blue")


# ---------------------------------------------------------------------------
# strength derivative


def test_mu_derivative_against_fd():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    geom = Geometry(math.pi / 6)
    pt = np.array([0.35 * WAIST, -0.15 * WAIST, 0.2 * WAIST])
    h = 1e-4 * WAVELENGTH
    for direction in (np.array([1.0, 0, 0]), np.array([0, 0, 1.0]),
                      np.array([0.6, 0.8, 0.0])):
        d = mu_derivative(beam, pt, direction, trans, geom)

        def mu(s):
            return relative_strength(
                field_sample_upto(beam, pt + s * h * direction, 2), trans, geom)

        fd = (mu(-2.0) - 8.0 * mu(-1.0) + 8.0 * mu(1.0) - mu(2.0)) / (12.0 * h)
        assert abs(d - fd) < 1e-6 * abs(fd)


def test_mu_derivative_direction_decomposition():
    beam = BeamSpec.hg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    pt = (0.2 * WAIST, 0.4 * WAIST, 0.0)
    diag = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    d_diag = mu_derivative(beam, pt, diag, trans)
    d_x = mu_derivative(beam, pt, np.array([1.0, 0, 0]), trans)
    d_y = mu_derivative(beam, pt, np.array([0, 1.0, 0]), trans)
    ref = (d_x + d_y) / math.sqrt(2.0)
    assert abs(d_diag - ref) < 1e-12 * abs(ref)
    with pytest.raises(ValueError):
        mu_derivative(beam, pt, (1.0, 1.0, 0.0), trans)
    with pytest.raises(ValueError):
        mu_derivative(beam, pt, (math.nan, 0.0, 0.0), trans)


def test_taylor_residual_scaling():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    r0 = np.array([0.3 * WAIST, 0.1 * WAIST, 0.0])
    ex = np.array([1.0, 0.0, 0.0])
    mu0 = relative_strength(field_sample_upto(beam, r0, 2), trans)
    d0 = mu_derivative(beam, r0, ex, trans)
    eps = np.array([1e-3, 1e-4, 1e-5]) * WAIST
    resid = []
    for e in eps:
        mu1 = relative_strength(field_sample_upto(beam, r0 + e * ex, 2), trans)
        resid.append(abs(mu1 - mu0 - e * d0))
    slope = np.polyfit(np.log(eps), np.log(resid), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_vortex_center_gradient_nonzero():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    center = (0.0, 0.0, 0.0)
    assert relative_strength(field_sample_upto(beam, center, 2), trans) == 0.0
    assert abs(mu_derivative(beam, center, (1.0, 0.0, 0.0), trans)) > 0.0


# ---------------------------------------------------------------------------
# sidebands


def test_carrier_is_trap_independent():
    beam = BeamSpec.lg(1, 0, -1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(0)
    center = (0.2 * WAIST, 0.1 * WAIST, 0.0)
    t1 = TrapSpec(MASS, (OMEGA, 2 * OMEGA, 3 * OMEGA), center=center)
    t2 = TrapSpec(7.0 * MASS, (5 * OMEGA,) * 3, center=center)
    req = SidebandRequest("X", 3, "carrier")
    assert sideband_strength(beam, t1, req, trans) == \
        sideband_strength(beam, t2, req, trans)


def test_bsb_rsb_ratio():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    trap = default_trap(center=(0.3 * WAIST, 0.0, 0.0))
    for n in range(1, 6):
        bsb = sideband_strength(beam, trap, SidebandRequest("X", n, "bsb"), trans)
        rsb = sideband_strength(beam, trap, SidebandRequest("X", n, "rsb"), trans)
        ratio = abs(bsb) / abs(rsb)
        assert abs(ratio - math.sqrt((n + 1.0) / n)) < 1e-12


def test_rsb_ground_state_zero():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    trap = default_trap(center=(0.3 * WAIST, 0.0, 0.0))
    assert sideband_strength(beam, trap, SidebandRequest("Y", 0, "rsb"), trans) == 0.0


def test_axis_relabeling_invariance():
    beam = BeamSpec.hg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    center = (0.25 * WAIST, -0.15 * WAIST, 0.1 * WAIST)
    freqs = (OMEGA, 2.0 * OMEGA, 3.0 * OMEGA)
    trap = TrapSpec(MASS, freqs, center=center)
    perm = [2, 0, 1]  # relabeled trap: its X/Y/Z are the old Z/X/Y
    trap_p = TrapSpec(MASS, tuple(freqs[p] for p in perm),
                      axes=np.eye(3)[perm], center=center)
    for new_idx, old_idx in enumerate(perm):
        old = sideband_strength(
            beam, trap, SidebandRequest("XYZ"[old_idx], 1, "bsb"), trans)
        new = sideband_strength(
            beam, trap_p, SidebandRequest("XYZ"[new_idx], 1, "bsb"), trans)
        assert abs(new - old) <= 1e-12 * max(abs(old), 1e-300)


def test_vortex_center_carrier_vs_sideband():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    trap = default_trap()
    carrier = sideband_strength(beam, trap, SidebandRequest("X", 0, "carrier"), trans)
    bsb = sideband_strength(beam, trap, SidebandRequest("X", 0, "bsb"), trans)
    assert carrier == 0.0
    assert abs(bsb) > 0.0


def test_azimuthal_dm0_carrier_and_z_sideband_vanish():
    azim = make_radial_azimuthal("azimuthal", WAIST, WAVELENGTH)
    radial = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    trans = transition(0)
    trap = default_trap()
    ref_c = abs(sideband_strength(radial, trap,
                                  SidebandRequest("Z", 1, "carrier"), trans))
    ref_s = abs(sideband_strength(radial, trap,
                                  SidebandRequest("Z", 1, "bsb"), trans))
    carrier = sideband_strength(azim, trap, SidebandRequest("Z", 1, "carrier"), trans)
    zsb = sideband_strength(azim, trap, SidebandRequest("Z", 1, "bsb"), trans)
    assert abs(carrier) < 1e-10 * ref_c
    assert abs(zsb) < 1e-10 * ref_s


def test_z_sideband_carrier_ratio_is_eta_z():
    # soft focusing: the traveling-wave phase dominates the z-derivative
    w0 = 100.0 * WAVELENGTH
    beam = BeamSpec.lg(0, 0, +1, waist=w0, wavelength=WAVELENGTH)
    trans = transition(+1, multipole=Multipole.E1)
    trap = default_trap()
    carrier = sideband_strength(beam, trap, SidebandRequest("Z", 0, "carrier"), trans)
    bsb = sideband_strength(beam, trap, SidebandRequest("Z", 0, "bsb"), trans)
    eta_z = lamb_dicke("longitudinal", K, MASS, OMEGA)
    ratio = abs(bsb) / abs(carrier)
    assert abs(ratio - eta_z) < 1e-3 * eta_z


def test_batch_sideband_matches_pointwise():
    beam = BeamSpec.lg(1, 0, +1, waist=WAIST, wavelength=WAVELENGTH)
    trans = transition(+1)
    trap = default_trap()
    req = SidebandRequest("X", 0, "bsb")
    pts = np.array([[0.0, 0.0, 0.0], [0.2 * WAIST, -0.1 * WAIST, 0.0],
                    [0.5 * WAIST, 0.4 * WAIST, 0.1 * WAIST]])
    batch = sideband_strength_at(beam, trap, req, trans, pts)
    for i, p in enumerate(pts):
        solo = TrapSpec(MASS, (OMEGA,) * 3, center=p)
        assert batch[i] == sideband_strength(beam, solo, req, trans)
