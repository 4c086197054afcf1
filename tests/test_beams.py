"""Beam construction and field evaluation.

Mode amplitudes are checked against an independent arbitrary-precision
implementation written in the conventional real-beam-radius parametrization
(beam radius w(z), wavefront curvature radius R(z), axial phase), which shares
no code with the complex-parameter form used by the package.  Derivatives are
checked against 4th-order central finite differences (`oracles`).  Profiles
that skip factors known to be 1 are checked byte for byte against the
full-factor formulas in `oracles`, and fields built from profiles that
carry the plane wave against the field assembled with the plane wave
applied after the gradient.  Samples written straight from the profiles are
checked byte for byte against samples assembled from jets of the three
field components (`oracles.field_blocks_from_jets`).
"""

import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vectorlight import beams
from vectorlight.beams import (
    LENGTH_RANGE,
    BeamSpec,
    HGMode,
    LGMode,
    ModeTerm,
    ProfileMemo,
    _coords,
    _hermite_jet,
    _laguerre_jet,
    _profile as profile_jet,
    field_components,
    field_sample_upto,
    make_radial_azimuthal,
)

from conftest import WAIST, WAVELENGTH, make_five_beams, make_probe_points
from oracles import (fd_hessian, fd_jacobian, field_blocks_from_jets,
                     field_blocks_unfused, profile_full)

K = 2.0 * math.pi / WAVELENGTH
ZR = 0.5 * K * WAIST**2

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# independent high-precision mode oracles


def lg_reference(l, p, w0, k, x, y, z):
    al = abs(l)
    zr = k * w0**2 / 2
    zeta = z / zr
    w = w0 * mp.sqrt(1 + zeta**2)
    rho2 = x * x + y * y
    phi = mp.atan2(y, x)
    c = mp.sqrt(2 * mp.factorial(p) / (mp.pi * mp.factorial(p + al)))
    amp = (c * (w0 / w) * (mp.sqrt(2) * mp.sqrt(rho2) / w) ** al
           * mp.laguerre(p, al, 2 * rho2 / w**2) * mp.exp(-rho2 / w**2))
    curv = k * rho2 * z / (2 * (z * z + zr * zr)) if z != 0 else mp.mpf(0)
    gouy = -(2 * p + al + 1) * mp.atan(zeta)
    return complex(amp * mp.exp(1j * (l * phi + curv + gouy)))


def hg_reference(m, n, w0, k, x, y, z):
    zr = k * w0**2 / 2
    zeta = z / zr
    w = w0 * mp.sqrt(1 + zeta**2)
    rho2 = x * x + y * y
    c = mp.sqrt(2 / mp.pi) / mp.sqrt(2 ** (m + n) * mp.factorial(m) * mp.factorial(n))
    amp = (c * (w0 / w) * mp.hermite(m, mp.sqrt(2) * x / w)
           * mp.hermite(n, mp.sqrt(2) * y / w) * mp.exp(-rho2 / w**2))
    curv = k * rho2 * z / (2 * (z * z + zr * zr)) if z != 0 else mp.mpf(0)
    gouy = -(m + n + 1) * mp.atan(zeta)
    return complex(amp * mp.exp(1j * (curv + gouy)))


# ---------------------------------------------------------------------------
# scalar modes


def _profile(mode, waist, k, point):
    """Scalar profile value(s) of one mode, the plane wave divided out of
    the travelling profile the package builds."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    coords = _coords(pts, 0)
    val = profile_jet(mode, waist, k, 0, lambda: coords, ProfileMemo()).val
    val = val.reshape(-1) / np.exp(1.0j * k * pts[:, 2])
    return val[0] if np.ndim(point) == 1 else val


def lg_mode(l, p, waist, k, point):
    return _profile(LGMode(l, p), waist, k, point)


def hg_mode(m, n, waist, k, point):
    return _profile(HGMode(m, n), waist, k, point)


def test_lg_spot_values():
    v0 = lg_mode(0, 0, WAIST, K, (0.0, 0.0, 0.0))
    assert abs(v0 - math.sqrt(2.0 / math.pi)) < 1e-14

    v1 = lg_mode(0, 0, WAIST, K, (WAIST, 0.0, 0.0))
    assert abs(v1 - math.sqrt(2.0 / math.pi) * math.exp(-1.0)) < 1e-14

    # vortex null on axis, any z
    for z in (0.0, 0.3 * ZR, -1.1 * ZR):
        assert lg_mode(1, 0, WAIST, K, (0.0, 0.0, z)) == 0.0


def test_lg_matches_reference_parametrization():
    # frozen from the mpmath oracle at (0.7 w0, -0.4 w0, 0.6 zR)
    frozen = -0.32206495175355859 + 0.10388845261860402j
    pt = (0.7 * WAIST, -0.4 * WAIST, 0.6 * ZR)
    got = lg_mode(2, 1, WAIST, K, pt)
    assert abs(got - frozen) < 1e-12 * abs(frozen)

    rng = np.random.default_rng(3)
    for _ in range(8):
        l = int(rng.integers(-3, 4))
        p = int(rng.integers(0, 3))
        x, y = rng.uniform(-1.3 * WAIST, 1.3 * WAIST, 2)
        z = rng.uniform(-1.5 * ZR, 1.5 * ZR)
        ref = lg_reference(l, p, mp.mpf(WAIST), 2 * mp.pi / mp.mpf(WAVELENGTH),
                           mp.mpf(x), mp.mpf(y), mp.mpf(z))
        got = lg_mode(l, p, WAIST, K, (x, y, z))
        assert abs(got - ref) < 1e-12 * max(abs(ref), 1e-3)

    # the largest valid orders: |l| = 55 and 80 on their intensity ring
    # rho = w(z) sqrt(|l|/2), and p = 90 at the outer ring of LG(l, 90)
    for l, p, ang, zeta in ((55, 0, 0.4, 0.0), (-55, 0, 2.2, 0.5),
                            (80, 0, -1.3, -0.3), (-80, 0, 3.0, 0.8),
                            (80, 90, 0.9, 0.2), (0, 90, -2.0, -0.6)):
        w = WAIST * math.sqrt(1.0 + zeta**2)
        rho = w * math.sqrt(abs(l) / 2 if p == 0 else (2 * p + abs(l)) / 2)
        x, y, z = rho * math.cos(ang), rho * math.sin(ang), zeta * ZR
        ref = lg_reference(l, p, mp.mpf(WAIST), 2 * mp.pi / mp.mpf(WAVELENGTH),
                           mp.mpf(x), mp.mpf(y), mp.mpf(z))
        got = lg_mode(l, p, WAIST, K, (x, y, z))
        assert abs(got - ref) < 1e-12 * abs(ref)


def test_hg_spot_values():
    # frozen from the mpmath oracle at (w0/2, 0, 0)
    frozen = 0.62139312075385549
    got = hg_mode(1, 0, WAIST, K, (0.5 * WAIST, 0.0, 0.0))
    assert abs(got - frozen) < 1e-12 * frozen

    frozen21 = -0.0049616989274041877 - 0.029612483126348173j
    got21 = hg_mode(2, 1, WAIST, K, (0.5 * WAIST, 0.3 * WAIST, -0.4 * ZR))
    assert abs(got21 - frozen21) < 1e-12 * abs(frozen21)

    # odd symmetry plane
    for y, z in ((0.0, 0.0), (0.4 * WAIST, 0.2 * ZR)):
        assert hg_mode(1, 0, WAIST, K, (0.0, y, z)) == 0.0


def test_hg_matches_reference_parametrization():
    rng = np.random.default_rng(4)
    for _ in range(8):
        m = int(rng.integers(0, 3))
        n = int(rng.integers(0, 3))
        x, y = rng.uniform(-1.3 * WAIST, 1.3 * WAIST, 2)
        z = rng.uniform(-1.5 * ZR, 1.5 * ZR)
        ref = hg_reference(m, n, mp.mpf(WAIST), 2 * mp.pi / mp.mpf(WAVELENGTH),
                           mp.mpf(x), mp.mpf(y), mp.mpf(z))
        got = hg_mode(m, n, WAIST, K, (x, y, z))
        assert abs(got - ref) < 1e-12 * max(abs(ref), 1e-3)

    # the largest valid order m + n = 30, on the outer lobes: Hermite
    # arguments xi = sqrt(2) x / w(z) near the last extremum of H_m
    for m, n, xi, eta, zeta in ((30, 0, 7.0, 0.3, 0.4), (15, 15, 4.9, -4.9, -0.7),
                                (0, 30, 0.2, -7.0, 0.0)):
        w = WAIST * math.sqrt(1.0 + zeta**2)
        x, y, z = xi * w / math.sqrt(2.0), eta * w / math.sqrt(2.0), zeta * ZR
        ref = hg_reference(m, n, mp.mpf(WAIST), 2 * mp.pi / mp.mpf(WAVELENGTH),
                           mp.mpf(x), mp.mpf(y), mp.mpf(z))
        got = hg_mode(m, n, WAIST, K, (x, y, z))
        assert abs(got - ref) < 1e-12 * abs(ref)


def test_hg00_is_fundamental_gaussian(probe_points):
    a = hg_mode(0, 0, WAIST, K, probe_points)
    b = lg_mode(0, 0, WAIST, K, probe_points)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_mode_validation():
    with pytest.raises(ValueError):
        LGMode(1, -1)
    with pytest.raises(ValueError):
        HGMode(-1, 0)
    # past the valid range of mode orders
    for l, p in ((81, 0), (-81, 0), (0, 91)):
        with pytest.raises(ValueError, match="LG mode orders"):
            LGMode(l, p)
    with pytest.raises(ValueError, match="HG mode orders"):
        HGMode(16, 15)
    # the limits themselves are valid
    LGMode(-80, 90)
    HGMode(30, 0)
    with pytest.raises(ValueError):
        ModeTerm(LGMode(1, 0), sigma=2)
    with pytest.raises(ValueError):
        BeamSpec((), WAVELENGTH, WAIST)
    with pytest.raises(ValueError):
        BeamSpec(((0.0, ModeTerm(LGMode(0, 0), 1)),), WAVELENGTH, WAIST)
    with pytest.raises(ValueError):
        BeamSpec.lg(0, waist=-1.0, wavelength=WAVELENGTH)
    with pytest.raises(ValueError):
        BeamSpec.lg(0, waist=WAIST, wavelength=0.0)


# LG with p = 0 and p > 0 and l = 0, HG with zero and nonzero orders, and
# the two-term cylindrical beams
_BITWISE_BEAMS = [BeamSpec.lg(l, p, waist=WAIST, wavelength=WAVELENGTH)
                  for l, p in ((1, 0), (-1, 0), (2, 1), (0, 0), (0, 2), (3, 2))]
_BITWISE_BEAMS += [BeamSpec.hg(m, n, waist=WAIST, wavelength=WAVELENGTH)
                   for m, n in ((1, 0), (0, 2), (3, 1), (4, 0), (0, 0))]
_BITWISE_BEAMS += [make_radial_azimuthal(kind, WAIST, WAVELENGTH)
                   for kind in ("radial", "azimuthal")]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_profiles_are_bytewise_the_full_factor_formulas(order):
    # origin, axes, signed zeros and both sides of the focus
    pts = np.concatenate([make_probe_points(), [
        [WAIST, 0.0, 0.0], [0.0, -WAIST, 0.3 * ZR], [-0.0, -0.0, 0.0],
        [-WAIST, -0.0, -0.5 * ZR], [-0.7 * WAIST, -0.4 * WAIST, -ZR]]])
    coords = _coords(pts, order)
    for beam in _BITWISE_BEAMS:
        memo = ProfileMemo()  # shared by the terms, as in one field evaluation
        for _, term in beam.terms:
            got = profile_jet(term.mode, WAIST, K, order, lambda: coords, memo)
            want = profile_full(term.mode, WAIST, K, coords)
            for name in ("val", "g", "h", "t")[:order + 1]:
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes(), (term.mode, name)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_carried_plane_wave_matches_the_unfused_assembly(order):
    # profiles carry exp(ikz) and the field takes their gradient; the
    # oracle applies the plane wave after the gradient of f, as the field
    # is written down
    beams = _panel_beams() + [
        BeamSpec.lg(2, 1, waist=WAIST, wavelength=WAVELENGTH),
        BeamSpec.hg(2, 1, waist=WAIST, wavelength=WAVELENGTH)]
    point = [0.3 * WAIST, -0.2 * WAIST, 0.4 * ZR]
    for pts in (_grid_rows(), make_probe_points(), point):
        for beam in beams:
            got = field_sample_upto(beam, pts, order)
            for k, want in enumerate(field_blocks_unfused(beam, pts, order)):
                assert got.block(k).shape == want.shape
                peak = np.max(np.abs(want))
                assert peak > 0.0
                assert np.max(np.abs(got.block(k) - want)) <= 1e-14 * peak, \
                    (beam, order, k)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_ladders_evaluate_only_the_degrees_their_order_needs(order,
                                                             monkeypatch):
    arg = _coords(make_probe_points() / WAIST, 3)[0] * 0.8 + 0.1
    # (ladder, degrees it may evaluate, deepest first)
    ladders = [(lambda a, n=n: _hermite_jet(n, a), [(n - k,) for k in range(4)])
               for n in (0, 1, 4)]
    ladders += [(lambda a, p=p: _laguerre_jet(p, 2, a),
                 [(p - k, 2 + k) for k in range(4)]) for p in (0, 2, 3)]
    # lower blocks never depend on higher ones: the order-3 ladder truncated
    # is the reference
    wants = [ladder(arg).truncate(order) for ladder, _ in ladders]
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(args[:-1])
            return fn(*args)
        return wrapped

    monkeypatch.setattr(beams, "hermite", counted(beams.hermite))
    monkeypatch.setattr(beams, "laguerre", counted(beams.laguerre))
    for (ladder, degrees), want in zip(ladders, wants):
        calls.clear()
        got = ladder(arg.truncate(order))
        # from the top degree down, at most order + 1; none below zero
        assert calls == [d for d in degrees[:order + 1] if d[0] >= 0]
        assert [b.tobytes() for b in got.blocks] == \
            [b.tobytes() for b in want.blocks]


def _panel_beams(waist=WAIST, wavelength=WAVELENGTH):
    """The five beams of the acceptance panel, in panel order."""
    return [BeamSpec.lg(1, waist=waist, wavelength=wavelength),
            BeamSpec.lg(-1, waist=waist, wavelength=wavelength),
            BeamSpec.hg(1, 0, waist=waist, wavelength=wavelength),
            make_radial_azimuthal("radial", waist, wavelength),
            make_radial_azimuthal("azimuthal", waist, wavelength)]


# three terms of complex weights and every sigma, so that later terms add
# to the first and E_z takes sigma = 0
_MIXED_BEAM = BeamSpec(
    ((0.6 - 0.2j, ModeTerm(LGMode(1, 1), -1)),
     (0.3j, ModeTerm(HGMode(2, 1), 0)),
     (-0.5, ModeTerm(LGMode(-2, 0), 1))), WAVELENGTH, WAIST)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_samples_are_bytewise_the_component_jet_assembly(order):
    point = [0.3 * WAIST, -0.2 * WAIST, 0.4 * ZR]
    beams = _panel_beams() + _BITWISE_BEAMS + [_MIXED_BEAM]
    for pts in (_grid_rows(), make_probe_points(), point):
        for beam in beams:
            got = field_sample_upto(beam, pts, order)
            want = field_blocks_from_jets(beam, pts, order)
            assert len(want) == order + 1
            for k, block in enumerate(want):
                assert got.block(k).shape == block.shape
                assert got.block(k).tobytes() == block.tobytes(), \
                    (beam, order, k)


def _assert_same_bytes(got, want, order):
    for k in range(order + 1):
        assert got.block(k).tobytes() == want.block(k).tobytes(), k


def test_shared_profile_memo_is_bytewise_fresh_calls():
    # as one scan chunk asks: every panel beam at order 0, then 1, then 2
    pts = np.concatenate([make_probe_points(), [
        [-0.0, -0.0, 0.0], [WAIST, 0.0, 0.3 * ZR], [0.0, -WAIST, -ZR]]])
    memo = ProfileMemo()
    for order in (0, 1, 2):
        for i, beam in enumerate(_panel_beams()):
            got = field_sample_upto(beam, pts, order, profiles=memo)
            _assert_same_bytes(got, field_sample_upto(beam, pts, order), order)
            # the LG(1, 0) radial part is held until LG(-1, 0) is built
            assert len(_radial_keys(memo)) == (i == 0), (order, i)
    # 7 terms per order use 3 profiles: LG(+1,0), LG(-1,0) and HG(1,0)
    assert (memo.built, memo.reused) == (3 * 3, 3 * 4)


def _radial_keys(memo):
    """Keys ((|l|, p), waist, k) of the LG radial parts a memo holds."""
    return [key for key in memo.jets if isinstance(key[0], tuple)]


def test_profile_memo_serves_only_equal_beam_parameters_and_its_points():
    pts = make_probe_points()
    memo = ProfileMemo()
    field_sample_upto(BeamSpec.lg(1, waist=WAIST, wavelength=WAVELENGTH),
                      pts, 2, profiles=memo)
    # the same modes with another waist or another wavelength
    for beam in (_panel_beams(waist=1.3 * WAIST)[0],
                 _panel_beams(wavelength=0.8 * WAVELENGTH)[3]):
        reused = memo.reused
        got = field_sample_upto(beam, pts, 2, profiles=memo)
        assert memo.reused == reused
        _assert_same_bytes(got, field_sample_upto(beam, pts, 2), 2)
    # the same memo on another point set gives that set's own values
    other = make_probe_points(seed=8)
    for beam in _panel_beams():
        got = field_sample_upto(beam, other, 2, profiles=memo)
        _assert_same_bytes(got, field_sample_upto(beam, other, 2), 2)


def _plane_points(z):
    """Probe points moved onto the plane z, with signed zeros in x and y."""
    pts = np.concatenate([make_probe_points(), [
        [-0.0, -0.0, 0.0], [WAIST, -0.0, 0.0], [-0.0, -WAIST, 0.0]]])
    pts[:, 2] = z
    return pts


@pytest.mark.parametrize("z", [0.0, 0.3 * ZR, -0.3 * ZR])
def test_focal_plane_batch_is_bytewise_the_full_z_batch(z):
    plane = _plane_points(z)
    # scattered points are no grid, so x, y and z stay on their batch, on
    # one plane as with one off-plane point
    mixed = np.concatenate([plane, [[0.1 * WAIST, 0.0, z + 0.2 * ZR]]])
    for order in (1, 2, 3):
        assert [c.val.shape for c in _coords(plane, order)] == \
            [(len(plane),)] * 3
        assert _coords(mixed, order)[2].val.shape == (len(mixed),)
    for beam in _BITWISE_BEAMS:
        for order in (0, 1, 2):
            got = field_sample_upto(beam, plane, order)
            want = field_sample_upto(beam, mixed, order)
            for k in range(order + 1):
                assert got.block(k).tobytes() == \
                    want.block(k)[:len(plane)].tobytes(), (beam, order, k)


def test_constant_coordinates_are_detected_by_their_bits():
    # whole rows on one plane: a grid, with z on one value
    pts = _tensor_points(np.arange(4.0) * WAIST, np.arange(5.0) * WAIST, [0.0])
    assert [c.val.shape for c in _coords(pts, 1)] == \
        [(4, 1, 1), (1, 5, 1), (1, 1, 1)]
    pts[::2, 2] = -0.0  # equal under ==, not in their bits: no grid
    assert _coords(pts, 1)[2].val.shape == (len(pts),)
    pts[:, 2] = 0.0
    pts[3, 2] = np.nan
    assert _coords(pts, 1)[2].val.shape == (len(pts),)
    pts[:, 2] = np.nan  # unequal under ==, equal in their bits: a grid
    assert _coords(pts, 1)[2].val.shape == (1, 1, 1)
    # a (4, 5) batch with y and z constant: 4 x values, each repeated 5
    # times, are a 4 x 1 x 5 grid
    grid = np.zeros((4, 5, 3))
    grid[..., 0] = np.arange(4.0)[:, None] * WAIST
    assert [c.val.shape for c in _coords(grid, 2)] == \
        [(4, 1, 1), (1, 1, 1), (1, 1, 5)]


def test_identical_points_give_full_batch_first_blocks():
    point = [0.3 * WAIST, -0.2 * WAIST, 0.3 * ZR]
    same = np.tile(point, (5, 1))
    # a 1 x 1 x 5 grid
    assert [c.val.shape for c in _coords(same, 3)] == \
        [(1, 1, 1), (1, 1, 1), (1, 1, 5)]
    for beam in _BITWISE_BEAMS:
        for order in (0, 1, 2):
            fs = field_sample_upto(beam, same, order)
            one = field_sample_upto(beam, point, order)
            for k in range(order + 1):
                block = fs.block(k)
                assert block.shape == (5,) + one.block(k).shape
                assert block.flags.c_contiguous
                assert block.tobytes() == np.repeat(
                    one.block(k)[None], 5, axis=0).tobytes()


def _tensor_points(xs, ys, zs):
    """Every (x, y, z) of the three value lists, x slowest: shape (n, 3)."""
    grid = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def _grid_rows(nx=40, ny=24, z=0.2 * ZR):
    """Whole rows of a focal-plane grid (x slowest, as scans order it), with
    a -0.0 row and a -0.0 column next to +0.0 ones."""
    xs = np.linspace(-2 * WAIST, 2 * WAIST, nx)
    ys = np.linspace(-2 * WAIST, 2 * WAIST, ny)
    xs[[3, 4]] = [-0.0, 0.0]
    ys[[5, 6]] = [0.0, -0.0]
    return _tensor_points(xs, ys, [z])


def _cloud(n=15):
    """An n^3 Gauss-Hermite cloud built as averaged_strength builds it."""
    nodes, _ = np.polynomial.hermite.hermgauss(n)
    widths = np.array([12e-9, 9e-9, 14e-9]) * math.sqrt(2.0)
    center = np.array([0.3 * WAIST, -0.2 * WAIST, 0.1 * ZR])
    return center + _tensor_points(*(w * nodes for w in widths))


def _assert_sample_bytes(pts, want, order, index=slice(None)):
    """The sample of `pts` equals rows `index` of the sample `want`."""
    for beam, fs in want.items():
        got = field_sample_upto(beam, pts, order)
        for k in range(order + 1):
            assert got.block(k).tobytes() == \
                want[beam].block(k)[index].tobytes(), (beam, order, k)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_tensor_grid_points_are_bytewise_the_flat_path(order):
    beams = _panel_beams() + _BITWISE_BEAMS
    rng = np.random.default_rng(17)
    rows = [(40, 1, 1), (1, 24, 1), (1, 1, 1)]
    for pts, axes in ((_grid_rows(), rows), (_grid_rows(z=-0.0), rows),
                      (_cloud(), [(15, 1, 1), (1, 15, 1), (1, 1, 15)])):
        n = len(pts)
        row = n // axes[0][0]
        assert [c.val.shape for c in _coords(pts, order + 1)] == axes
        want = {beam: field_sample_upto(beam, pts, order) for beam in beams}
        # permuted, the points are no grid and take the flat path
        perm = rng.permutation(n)
        assert _coords(pts[perm], order + 1)[0].val.shape == (n,)
        _assert_sample_bytes(pts[perm], want, order, perm)
        # a ragged chunk, starting and ending inside a grid row
        assert _coords(pts[29:n - 7], order + 1)[0].val.shape == (n - 36,)
        _assert_sample_bytes(pts[29:n - 7], want, order, slice(29, n - 7))
        # five whole rows alone, and the points in a batch of more axes
        _assert_sample_bytes(pts[:5 * row], want, order, slice(0, 5 * row))
        for beam in beams[:5]:
            fs = field_sample_upto(beam, pts.reshape(-1, 5, 3), order)
            for k in range(order + 1):
                assert fs.block(k).shape[:2] == (n // 5, 5)
                assert fs.block(k).tobytes() == want[beam].block(k).tobytes()


def test_repeated_points_are_a_grid():
    # equal points in runs of 3: a 2 x 2 x 3 grid, z repeated along its
    # last axis
    pts = np.repeat(_tensor_points([0.1 * WAIST, 0.2 * WAIST],
                                   [0.3 * WAIST, -0.3 * WAIST], [0.0]), 3,
                    axis=0)
    assert [c.val.shape for c in _coords(pts, 1)] == \
        [(2, 1, 1), (1, 2, 1), (1, 1, 3)]
    for beam in _panel_beams():
        for order in (0, 1, 2):
            got = field_sample_upto(beam, pts, order)
            once = field_sample_upto(beam, pts[::3], order)
            for k in range(order + 1):
                assert got.block(k).tobytes() == \
                    np.repeat(once.block(k), 3, axis=0).tobytes()
    # a grid found along z alone, and along y alone
    line = _tensor_points([0.1 * WAIST], [0.2 * WAIST], [0.0, 0.5 * ZR, ZR])
    assert [c.val.shape for c in _coords(line, 1)] == \
        [(1, 1, 1), (1, 1, 1), (1, 1, 3)]
    line = _tensor_points([0.1 * WAIST], [0.2 * WAIST, -0.0, 0.0], [ZR])
    assert [c.val.shape for c in _coords(line, 1)] == \
        [(1, 1, 1), (1, 3, 1), (1, 1, 1)]


def test_memo_serves_its_sample_again_only_for_the_same_beam_order_and_points(
        monkeypatch):
    pts = make_probe_points()
    beam = BeamSpec.lg(1, waist=WAIST, wavelength=WAVELENGTH)
    memo = ProfileMemo()
    held = memo.sample(beam, pts, 1)
    _assert_same_bytes(held, field_sample_upto(beam, pts, 1), 1)
    # the same beam object, order and points object: a hit
    assert memo.sample(beam, pts, 1) is held
    assert (memo.hits, memo.misses) == (1, 1)
    # another order: a miss
    memo.sample(beam, pts, 0)
    assert (memo.hits, memo.misses) == (1, 2)
    # an equal but distinct beam: a miss, as beams are matched by identity
    twin = BeamSpec.lg(1, waist=WAIST, wavelength=WAVELENGTH)
    assert twin == beam and twin is not beam
    memo.sample(twin, pts, 0)
    assert (memo.hits, memo.misses) == (1, 3)
    # another points object, even an equal copy: a miss that drops the held
    # sample and the profiles, so the profile is built again
    ref = weakref.ref(memo.sample(twin, pts, 0))
    built = memo.built
    got = memo.sample(twin, pts.copy(), 0)
    assert (memo.hits, memo.misses) == (2, 4)
    assert ref() is None and memo.built == built + 1
    _assert_same_bytes(got, field_sample_upto(twin, pts, 0), 0)
    ref = weakref.ref(got)
    del got
    memo.use(pts)
    assert ref() is None and memo.jets == {}

    # the held sample is dropped before the next one is built
    ref = weakref.ref(memo.sample(beam, pts, 0))
    real = beams.field_sample_upto
    freed = []

    def check(*args, **kwargs):
        freed.append(ref() is None)
        return real(*args, **kwargs)

    monkeypatch.setattr(beams, "field_sample_upto", check)
    memo.sample(beam, pts, 1)
    assert freed == [True]


def test_lower_orders_served_from_a_deeper_memo_are_bytewise_direct_calls():
    # the panel's order, deepest first, on a grid and on scattered points
    for pts in (_grid_rows(8, 8), make_probe_points()):
        memo = ProfileMemo()
        for order in (2, 1, 0):
            built = memo.built
            for beam in _panel_beams():
                got = field_sample_upto(beam, pts, order, profiles=memo)
                _assert_same_bytes(got, field_sample_upto(beam, pts, order),
                                   order)
            # LG(+1, 0), LG(-1, 0) and HG(1, 0) are built at order 2 only
            assert memo.built - built == (3 if order == 2 else 0), order
        assert (memo.built, memo.reused) == (3, 4 + 7 + 7)
        # one envelope serves the LG and HG profiles of one waist
        assert sum(key[0] == "envelope" for key in memo.jets) == 1


def test_lengths_outside_the_valid_range_are_rejected():
    lo, hi = LENGTH_RANGE
    for waist, wavelength in ((lo, hi), (hi, lo)):
        BeamSpec.lg(1, waist=waist, wavelength=wavelength)
    # a Rayleigh length that underflows, a squared waist that overflows
    for waist, wavelength in ((1e-306, WAVELENGTH), (1e-206, WAVELENGTH),
                              (1e294, WAVELENGTH), (WAIST, 1e-310),
                              (WAIST, float("nan"))):
        with pytest.raises(ValueError, match="must lie in"):
            BeamSpec.lg(1, waist=waist, wavelength=wavelength)
        with pytest.raises(ValueError, match="must lie in"):
            make_radial_azimuthal("radial", waist, wavelength)


# ---------------------------------------------------------------------------
# vector field structure


def test_aligned_vortex_pure_circular_component(probe_points):
    beam = BeamSpec.lg(1, 0, sigma=+1, waist=WAIST, wavelength=WAVELENGTH)
    comps = field_components(beam, probe_points)
    peak = np.max(np.abs(comps["sigma_plus"]))
    assert np.max(np.abs(comps["sigma_minus"])) < 1e-14 * peak
    # circular projections always recombine to 2 E_x
    e = field_sample_upto(beam, probe_points, 0).electric
    recomb = comps["sigma_plus"] + comps["sigma_minus"]
    assert np.max(np.abs(recomb - 2.0 * e[..., 0])) < 1e-14 * peak


def test_anti_aligned_vortex_fills_center():
    beam = BeamSpec.lg(1, 0, sigma=-1, waist=WAIST, wavelength=WAVELENGTH)
    e0 = field_sample_upto(beam, (0.0, 0.0, 0.0), 0).electric
    assert e0[0] == 0.0 and e0[1] == 0.0
    assert abs(e0[2]) > 0.0
    # aligned combination has no on-axis longitudinal field
    aligned = BeamSpec.lg(1, 0, sigma=+1, waist=WAIST, wavelength=WAVELENGTH)
    e1 = field_sample_upto(aligned, (0.0, 0.0, 0.0), 0).electric
    assert np.all(e1 == 0.0)


def test_azimuthal_longitudinal_null():
    beam = make_radial_azimuthal("azimuthal", WAIST, WAVELENGTH)
    rng = np.random.default_rng(11)
    pts = np.column_stack([
        rng.uniform(-2 * WAIST, 2 * WAIST, 400),
        rng.uniform(-2 * WAIST, 2 * WAIST, 400),
        rng.uniform(-0.5 * ZR, 0.5 * ZR, 400),
    ])
    e = field_sample_upto(beam, pts, 0).electric
    assert np.max(np.abs(e[:, 2])) < 1e-12 * np.max(np.abs(e[:, :2]))


def test_radial_beam_structure():
    beam = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    comps = field_components(beam, (0.0, 0.0, 0.0))
    assert comps["sigma_plus"] == 0.0 and comps["sigma_minus"] == 0.0
    assert abs(comps["z"]) > 0.0
    # transverse part points along the radius (hedgehog pattern)
    for ang in (0.1, 1.2, 2.8, 4.4):
        p = (0.6 * WAIST * math.cos(ang), 0.6 * WAIST * math.sin(ang), 0.0)
        e = field_sample_upto(beam, p, 0).electric
        cross = e[0] * p[1] - e[1] * p[0]
        along = e[0] * p[0] + e[1] * p[1]
        assert abs(cross) < 1e-12 * abs(along)

    azim = make_radial_azimuthal("azimuthal", WAIST, WAVELENGTH)
    for ang in (0.3, 2.1, 3.9):
        p = (0.6 * WAIST * math.cos(ang), 0.6 * WAIST * math.sin(ang), 0.0)
        e = field_sample_upto(azim, p, 0).electric
        along = e[0] * p[0] + e[1] * p[1]
        cross = e[0] * p[1] - e[1] * p[0]
        assert abs(along) < 1e-12 * abs(cross)

    with pytest.raises(ValueError):
        make_radial_azimuthal("linear", WAIST, WAVELENGTH)


def test_radial_minus_azimuthal_is_single_term(probe_points):
    rad = make_radial_azimuthal("radial", WAIST, WAVELENGTH)
    azi = make_radial_azimuthal("azimuthal", WAIST, WAVELENGTH)
    # weights are +-1/sqrt(2) on the same ordered term pair
    assert [w for w, _ in rad.terms] == [complex(1 / math.sqrt(2))] * 2
    wa = [w for w, _ in azi.terms]
    assert wa[0] == complex(1 / math.sqrt(2)) and wa[1] == complex(-1 / math.sqrt(2))
    assert {t.mode.l for _, t in rad.terms} == {1, -1}

    second = BeamSpec.lg(-1, 0, sigma=+1, waist=WAIST, wavelength=WAVELENGTH)
    diff = (field_sample_upto(rad, probe_points, 0).electric
            - field_sample_upto(azi, probe_points, 0).electric)
    ref = math.sqrt(2.0) * field_sample_upto(second, probe_points, 0).electric
    assert np.max(np.abs(diff - ref)) < 1e-12 * np.max(np.abs(ref))


def test_superposition_linearity(probe_points):
    t1 = ModeTerm(LGMode(1, 0), +1)
    t2 = ModeTerm(HGMode(0, 1), -1)
    w1, w2 = 0.37 - 0.22j, -0.81 + 0.44j
    combo = BeamSpec(((w1, t1), (w2, t2)), WAVELENGTH, WAIST)
    single1 = BeamSpec(((1.0, t1),), WAVELENGTH, WAIST)
    single2 = BeamSpec(((1.0, t2),), WAVELENGTH, WAIST)
    lhs = field_sample_upto(combo, probe_points, 0).electric
    rhs = (w1 * field_sample_upto(single1, probe_points, 0).electric
           + w2 * field_sample_upto(single2, probe_points, 0).electric)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


_SIGMAS = st.sampled_from((-1, 0, 1))
_WEIGHTS = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False)
_LG = st.builds(LGMode, st.integers(-3, 3), st.integers(0, 2))
_HG = st.builds(HGMode, st.integers(0, 2), st.integers(0, 2))


@st.composite
def _superpositions(draw):
    """Beams of 2-3 terms whose second mode shares (|l|, p) with the first LG
    mode, shares only |l| (another p), or is an HG mode."""
    first = draw(_LG)
    al, p = abs(first.l), first.p
    second = draw(st.one_of(
        st.sampled_from((al, -al)).map(lambda l: LGMode(l, p)),
        st.tuples(st.sampled_from((al, -al)),
                  st.integers(0, 2).filter(lambda q: q != p))
        .map(lambda lq: LGMode(*lq)),
        _HG))
    modes = [first, second] + draw(st.lists(st.one_of(_LG, _HG), max_size=1))
    terms = tuple((draw(_WEIGHTS), ModeTerm(m, draw(_SIGMAS))) for m in modes)
    return BeamSpec(terms, WAVELENGTH, WAIST)


@settings(max_examples=25, deadline=None)
@given(beam=_superpositions())
@example(beam=make_radial_azimuthal("radial", WAIST, WAVELENGTH))
@example(beam=make_radial_azimuthal("azimuthal", WAIST, WAVELENGTH))
def test_superposition_matches_weighted_single_terms(beam):
    # Terms may share their LG radial part inside one evaluation; each block
    # must still equal the weighted sum of the terms evaluated on their own.
    # The scale is the largest summed term modulus, since terms may cancel.
    pts = make_probe_points(n_random=6)
    for order in (0, 1, 2):
        got = field_sample_upto(beam, pts, order)
        parts = [(w, field_sample_upto(BeamSpec(((1.0, t),), beam.wavelength,
                                                beam.waist), pts, order))
                 for w, t in beam.terms]
        for k in range(order + 1):
            want = sum(w * s.block(k) for w, s in parts)
            scale = np.max(sum(np.abs(w * s.block(k)) for w, s in parts))
            assert np.max(np.abs(got.block(k) - want)) <= 1e-13 * scale


def test_azimuthal_modulus_symmetry():
    beam = BeamSpec.lg(2, 0, sigma=-1, waist=WAIST, wavelength=WAVELENGTH)
    for rho, z in ((0.5 * WAIST, 0.0), (1.1 * WAIST, 0.4 * ZR)):
        angs = np.linspace(0.0, 2 * np.pi, 17)
        pts = np.column_stack([rho * np.cos(angs), rho * np.sin(angs),
                               np.full(angs.size, z)])
        e = field_sample_upto(beam, pts, 0).electric
        mods = np.abs(e)
        assert np.max(mods.max(axis=0) - mods.min(axis=0)) < 1e-10 * mods.max()


def test_phase_winding_matches_vortex_charge():
    for l in (1, -2):
        beam = BeamSpec.lg(l, 0, sigma=+1, waist=WAIST, wavelength=WAVELENGTH)
        angs = np.linspace(0.0, 2 * np.pi, 181)
        pts = np.column_stack([0.1 * WAIST * np.cos(angs),
                               0.1 * WAIST * np.sin(angs),
                               np.zeros(angs.size)])
        ph = np.angle(field_sample_upto(beam, pts, 0).electric[:, 0])
        winding = np.sum(np.angle(np.exp(1j * np.diff(ph)))) / (2 * np.pi)
        assert abs(winding - l) < 1e-6


def test_traveling_wave_phase_applied_once():
    # pure phase advance k*dz on axis for the fundamental: envelope factors
    # change negligibly over dz << zR while the plane-wave phase is exact
    beam = BeamSpec.lg(0, 0, sigma=+1, waist=WAIST, wavelength=WAVELENGTH)
    dz = 1e-9
    e0 = field_sample_upto(beam, (0.0, 0.0, 0.0), 0).electric[0]
    e1 = field_sample_upto(beam, (0.0, 0.0, dz), 0).electric[0]
    phase = np.angle(e1 / e0)
    # Gouy contributes -dz/zR; remove it and compare to k*dz
    assert abs(phase - (K * dz - dz / ZR)) < 1e-9 * K * dz


# ---------------------------------------------------------------------------
# derivatives


@pytest.mark.parametrize("name,beam", make_five_beams())
def test_jacobian_against_fd(name, beam, probe_points):
    ja = field_sample_upto(beam, probe_points, 1).jacobian
    jf = fd_jacobian(beam, probe_points)
    assert np.max(np.abs(ja - jf)) < 1e-6 * np.max(np.abs(jf))


@pytest.mark.parametrize("name,beam", make_five_beams())
def test_hessian_against_fd(name, beam, probe_points):
    ha = field_sample_upto(beam, probe_points, 2).hessian
    hf = fd_hessian(beam, probe_points)
    assert np.max(np.abs(ha - hf)) < 1e-5 * np.max(np.abs(hf))


def test_hessian_symmetry(five_beams, probe_points):
    for _, beam in five_beams:
        h = field_sample_upto(beam, probe_points, 2).hessian
        asym = np.abs(h - np.swapaxes(h, -3, -2))
        assert np.max(asym) < 1e-10 * np.max(np.abs(h))


def test_field_sample_consistency(probe_points):
    # a deeper sample repeats the shallower blocks bit for bit
    beam = make_five_beams()[1][1]
    fs = field_sample_upto(beam, probe_points, 2)
    for order in (0, 1):
        low = field_sample_upto(beam, probe_points, order)
        for k in range(order + 1):
            assert np.array_equal(low.block(k), fs.block(k))
        assert low.block(order + 1) is None
    single = field_sample_upto(beam, probe_points[3], 2)
    assert single.electric.shape == (3,)
    assert single.jacobian.shape == (3, 3)
    assert single.hessian.shape == (3, 3, 3)
    # public blocks are batch-first and C-contiguous for a batch and for a
    # single point, whatever layout the jets keep internally
    n = len(probe_points)
    for k in range(3):
        assert fs.block(k).shape == (n,) + (3,) * (k + 1)
        assert fs.block(k).flags.c_contiguous
        assert single.block(k).flags.c_contiguous
        scale = np.max(np.abs(single.block(k)))
        assert np.max(np.abs(single.block(k) - fs.block(k)[3])) <= 1e-14 * scale
    for order in (0, 1):
        low = field_sample_upto(beam, probe_points[3], order)
        for k in range(order + 1):
            assert np.array_equal(low.block(k), single.block(k))


def test_field_samples_refuse_writes(probe_points):
    # one sample may serve several consumers, so none of them can change it
    beam = make_five_beams()[1][1]
    for points in (probe_points, probe_points[3]):
        for order in (0, 1, 2):
            fs = field_sample_upto(beam, points, order)
            for k in range(order + 1):
                block = fs.block(k)
                assert not block.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    block[...] = 0.0


@pytest.mark.parametrize("order", [0, 1, 2])
def test_empty_batches_give_empty_blocks(order):
    for beam in _BITWISE_BEAMS:
        fs = field_sample_upto(beam, np.zeros((0, 3)), order)
        for k in range(3):
            if k <= order:
                assert fs.block(k).shape == (0,) + (3,) * (k + 1)
                assert fs.peak(k) == 0.0
            else:
                assert fs.block(k) is None


def test_gaussian_peak_stationary():
    beam = BeamSpec.lg(0, 0, sigma=+1, waist=WAIST, wavelength=WAVELENGTH)
    j = field_sample_upto(beam, (0.0, 0.0, 0.0), 1).jacobian
    assert j[0, 0] == 0.0 and j[1, 1] == 0.0


def test_azimuthal_dz_ez_zero(probe_points):
    beam = make_radial_azimuthal("azimuthal", WAIST, WAVELENGTH)
    j = field_sample_upto(beam, probe_points, 1).jacobian
    scale = np.max(np.abs(j))
    assert np.max(np.abs(j[..., 2, 2])) < 1e-12 * scale


# ---------------------------------------------------------------------------
# paraxial and transversality behavior


def test_paraxial_longitudinal_suppression():
    w0 = 1000 * WAVELENGTH
    beam = BeamSpec.lg(0, 0, sigma=+1, waist=w0, wavelength=WAVELENGTH)
    xs = np.linspace(-1.5 * w0, 1.5 * w0, 21)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=-1)
    e = field_sample_upto(beam, pts, 0).electric
    assert np.max(np.abs(e[:, 2])) < 1e-3 * np.max(np.abs(e[:, :2]))


def test_plane_wave_limit_second_z_derivative():
    w0 = 1000 * WAVELENGTH
    beam = BeamSpec.lg(0, 0, sigma=+1, waist=w0, wavelength=WAVELENGTH)
    pt = (0.3 * w0, -0.1 * w0, 0.0)
    h = field_sample_upto(beam, pt, 2).hessian
    e = field_sample_upto(beam, pt, 0).electric
    assert abs(h[2, 2, 0] + K**2 * e[0]) < 1e-3 * abs(K**2 * e[0])


def _divergence_residual(beam, half, n=64):
    xs = np.linspace(-half, half, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=-1)
    fs = field_sample_upto(beam, pts, 2)
    div = np.einsum("...ii->...", fs.jacobian)
    return np.max(np.abs(div)) / (beam.wavenumber * np.max(np.abs(fs.electric)))


def test_transversality_residual_calibrated():
    # The first-order longitudinal construction cancels div E to leading
    # order in 1/(k w0); the residual is second order with a beam-dependent
    # prefactor.  Measured worst cases over the five beam types:
    #   w0 = lambda   : 7.49e-2
    #   w0 = 2 lambda : 9.37e-3
    #   w0 = 10 lambda: 7.49e-5
    for mult, bound in ((1.0, 8e-2), (2.0, 1e-2), (10.0, 1e-4)):
        w0 = mult * WAVELENGTH
        worst = max(_divergence_residual(b, 2 * w0)
                    for _, b in make_five_beams(waist=w0))
        assert worst < bound

    # inverse-cube scaling of the residual with the focusing parameter
    beam2 = BeamSpec.lg(1, 0, sigma=-1, waist=2 * WAVELENGTH, wavelength=WAVELENGTH)
    beam4 = BeamSpec.lg(1, 0, sigma=-1, waist=4 * WAVELENGTH, wavelength=WAVELENGTH)
    r2 = _divergence_residual(beam2, 4 * WAVELENGTH)
    r4 = _divergence_residual(beam4, 8 * WAVELENGTH)
    assert abs(r2 / r4 - 8.0) < 0.4
