"""Angular-momentum algebra and orthogonal polynomials.

Expected values come from exact-arithmetic oracles implemented here with
Fractions (recurrences, Racah sum structure) or from closed forms evaluated
by hand; nothing is asserted that was not independently computed.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from vectorlight.special import (
    HalfInt,
    _clebsch_gordan_twice,
    clebsch_gordan,
    halfint,
    hermite,
    laguerre,
    rotation_matrix,
)

from oracles import euler_zyz, wigner_D_matrix, wigner_d_matrix, wigner_small_d


# ---------------------------------------------------------------- oracles

def laguerre_fraction(p, alpha, x: Fraction) -> Fraction:
    """Exact three-term recurrence in rational arithmetic."""
    prev, cur = Fraction(1), 1 + alpha - x
    if p == 0:
        return prev
    for n in range(1, p):
        prev, cur = cur, ((2 * n + 1 + alpha - x) * cur - (n + alpha) * prev) / (n + 1)
    return cur


def hermite_fraction(n, x: Fraction) -> Fraction:
    prev, cur = Fraction(1), 2 * x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, 2 * x * cur - 2 * m * prev
    return cur


def spherical_from_cartesian(v):
    """Rank-1 spherical components (+1, 0, -1) of a Cartesian 3-vector,
    Condon-Shortley phases."""
    v = np.asarray(v, dtype=complex)
    return np.array(
        [-(v[0] + 1j * v[1]) / math.sqrt(2), v[2], (v[0] - 1j * v[1]) / math.sqrt(2)]
    )


def rank2_slot_tables():
    """Symmetric slot matrices t^m with T^2_m(v) = sum_ij t^m_ij v_i v_j,
    built by CG-coupling two rank-1 copies.  Used to cross-check rotation
    conventions end to end (CG + D-matrix + Cartesian rotation)."""
    basis = np.eye(3)
    sph_of_unit = np.array([spherical_from_cartesian(e) for e in basis]).T  # [mu, i]
    tables = []
    for tm in (4, 2, 0, -2, -4):  # m = +2 .. -2 in twice-values
        t = np.zeros((3, 3), dtype=complex)
        for i1, mu1 in enumerate((1, 0, -1)):
            for i2, mu2 in enumerate((1, 0, -1)):
                cg = clebsch_gordan(1, mu1, 1, mu2, 2, HalfInt(tm))
                if cg == 0.0:
                    continue
                t += cg * np.outer(sph_of_unit[i1], sph_of_unit[i2])
        tables.append(t)
    return tables


# ---------------------------------------------------------------- HalfInt

def test_halfint_coercion_and_arithmetic():
    assert halfint("3/2").twice == 3
    assert halfint(2).twice == 4
    assert halfint(0.5).twice == 1
    assert halfint(Fraction(5, 2)).twice == 5
    assert float(halfint("1/2") + halfint(1)) == 1.5
    assert (-halfint("1/2")).twice == -1
    assert str(halfint("5/2")) == "5/2"
    assert str(halfint(3)) == "3"
    assert halfint("1/2").is_projection_of(halfint("5/2"))
    assert not halfint(1).is_projection_of(halfint("5/2"))  # parity mismatch
    with pytest.raises(ValueError):
        halfint(0.3)
    with pytest.raises(TypeError):
        halfint(object())


# ------------------------------------------------------------ polynomials

def test_laguerre_spot_values():
    assert laguerre(0, 3, 7.2) == 1.0
    assert laguerre(1, 2, 0.5) == pytest.approx(2.5, abs=0, rel=1e-15)
    assert laguerre(2, 0, 3.0) == pytest.approx(-0.5, rel=1e-14)
    assert laguerre(-1, 2, 1.0) == 0.0  # derivative-ladder convenience


def test_hermite_spot_values():
    assert hermite(0, 5.0) == 1.0
    assert hermite(1, 2.0) == 4.0
    assert hermite(3, 1.0) == pytest.approx(-4.0, rel=1e-14)


@pytest.mark.parametrize("alpha", [0, 1, 2, 5])
def test_laguerre_matches_exact_recurrence(alpha):
    xs = [Fraction(n, 4) for n in range(-200, 201, 23)]  # |x| <= 50
    for p in range(11):
        for xf in xs:
            exact = laguerre_fraction(p, alpha, xf)
            got = laguerre(p, alpha, float(xf))
            ref = max(abs(float(exact)), 1.0)
            assert abs(got - float(exact)) <= 1e-12 * ref, (p, alpha, xf)


def test_hermite_matches_exact_recurrence():
    xs = [Fraction(n, 4) for n in range(-200, 201, 23)]
    for n in range(11):
        for xf in xs:
            exact = hermite_fraction(n, xf)
            got = hermite(n, float(xf))
            ref = max(abs(float(exact)), 1.0)
            assert abs(got - float(exact)) <= 1e-12 * ref, (n, xf)


def test_polynomials_vectorize():
    x = np.linspace(-3, 3, 7)
    assert laguerre(2, 1, x).shape == x.shape
    assert hermite(4, x).shape == x.shape
    with pytest.raises(ValueError):
        laguerre(2, -1, 0.5)
    with pytest.raises(ValueError):
        hermite(-1, 0.5)


# ---------------------------------------------------------- Clebsch-Gordan

def test_cg_spot_values():
    # stretched state
    assert clebsch_gordan("1/2", "1/2", 2, 2, "5/2", "5/2") == pytest.approx(1.0, rel=1e-14)
    # M != m1 + m2
    assert clebsch_gordan(1, 0, 1, 1, 2, 0) == 0.0
    # <1 0 1 0|0 0> = -1/sqrt(3)
    assert clebsch_gordan(1, 0, 1, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)
    # triangle violation
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
    # two spin-1/2 cannot couple to total 2
    assert clebsch_gordan("1/2", "1/2", "1/2", "-1/2", 2, 0) == 0.0


def test_cg_domain_errors():
    with pytest.raises(ValueError):
        clebsch_gordan(1, "1/2", 1, 0, 2, "1/2")  # m not of j's parity class
    with pytest.raises(ValueError):
        clebsch_gordan(1, 2, 1, 0, 2, 2)  # |m| > j
    with pytest.raises(ValueError):
        clebsch_gordan(-1, 0, 1, 0, 2, 0)  # negative j


def _j_range(tmax):
    return [HalfInt(t) for t in range(0, tmax + 1)]


def test_cg_cache_returns_the_computed_values():
    compute = _clebsch_gordan_twice.__wrapped__  # the uncached function
    args = [(1, 1, 4, tm2, 5, 1 + tm2) for tm2 in (-4, -2, 0, 2, 4)]
    args += [(3, -1, 2, 2, tj, 1) for tj in (1, 3, 5)]
    for twice in args:
        got = clebsch_gordan(*map(HalfInt, twice))
        assert np.float64(got).tobytes() == np.float64(compute(*twice)).tobytes()
        # the second call is served from the cache
        assert clebsch_gordan(*map(HalfInt, twice)) is got
    # invalid input raises on every call; errors are never cached
    for _ in range(2):
        with pytest.raises(ValueError):
            clebsch_gordan(HalfInt(1), HalfInt(3), 1, 0, HalfInt(1),
                           HalfInt(3))


def test_cg_orthogonality():
    # sum_{m1,m2} <j1m1 j2m2|JM><j1m1 j2m2|J'M'> = delta_JJ' delta_MM'
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            pairs = [
                (HalfInt(tm1), HalfInt(tm2))
                for tm1 in range(-tj1, tj1 + 1, 2)
                for tm2 in range(-tj2, tj2 + 1, 2)
            ]
            tJs = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            for tJ in tJs:
                for tM in range(-tJ, tJ + 1, 2):
                    for tJp in tJs:
                        for tMp in range(-tJp, tJp + 1, 2):
                            acc = sum(
                                clebsch_gordan(j1, m1, j2, m2, HalfInt(tJ), HalfInt(tM))
                                * clebsch_gordan(j1, m1, j2, m2, HalfInt(tJp), HalfInt(tMp))
                                for m1, m2 in pairs
                            )
                            want = 1.0 if (tJ == tJp and tM == tMp) else 0.0
                            assert abs(acc - want) < 1e-12


def test_cg_exchange_symmetry():
    # <j1m1 j2m2|JM> = (-1)^(j1+j2-J) <j2m2 j1m1|JM>
    cases = [(1, 1, 2, 0, 3, 1), (2, 0, 1, 1, 1, 1), (1, -1, 3, 2, 4, 1)]
    for tj1, tm1, tj2, tm2, tJ, tM in [tuple(2 * v for v in c) for c in cases]:
        a = clebsch_gordan(
            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tJ), HalfInt(tM)
        )
        b = clebsch_gordan(
            HalfInt(tj2), HalfInt(tm2), HalfInt(tj1), HalfInt(tm1), HalfInt(tJ), HalfInt(tM)
        )
        phase = (-1.0) ** ((tj1 + tj2 - tJ) // 2)
        assert a == pytest.approx(phase * b, abs=1e-14)


def cg_mpmath(tj1, tm1, tj2, tm2, tj):
    """Racah's closed form evaluated in 60-digit arithmetic (twice-values)."""
    tm = tm1 + tm2
    f = mp.factorial
    with mp.workdps(60):
        pref = mp.sqrt(mp.mpf(tj + 1) * f((tj1 + tj2 - tj) // 2)
                       * f((tj1 - tj2 + tj) // 2) * f((tj2 + tj - tj1) // 2)
                       / f((tj1 + tj2 + tj) // 2 + 1)
                       * f((tj + tm) // 2) * f((tj - tm) // 2)
                       * f((tj1 + tm1) // 2) * f((tj1 - tm1) // 2)
                       * f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2))
        k_min = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
        k_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
        total = mp.fsum((-1) ** k / (
            f(k) * f((tj1 + tj2 - tj) // 2 - k) * f((tj1 - tm1) // 2 - k)
            * f((tj2 + tm2) // 2 - k) * f((tj - tj2 + tm1) // 2 + k)
            * f((tj - tj1 - tm2) // 2 + k)) for k in range(k_min, k_max + 1))
        return float(pref * total)


@pytest.mark.parametrize("tj1, tm1, tj2, tm2, tj", [
    (201, 1, 2, 0, 201),  # an E1 point query of a J = 201/2 level
    (201, 1, 2, 2, 203),
    (115, -113, 4, 2, 117),
    (160, 10, 160, -10, 200),
    (230, 0, 230, 0, 0),
])
def test_cg_at_large_j_matches_mpmath(tj1, tm1, tj2, tm2, tj):
    # the Racah prefactor alone is past the largest double from 2J = 115 on
    got = clebsch_gordan(HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2),
                         HalfInt(tj), HalfInt(tm1 + tm2))
    assert got == pytest.approx(cg_mpmath(tj1, tm1, tj2, tm2, tj), rel=1e-14)
    assert got != 0.0


# ------------------------------------------------------------- Wigner d/D

def test_wigner_d_spot_values():
    assert wigner_small_d(1, 0, 0, 0.0) == pytest.approx(1.0, rel=1e-15)
    # d^1_00(theta) = cos(theta)
    assert abs(wigner_small_d(1, 0, 0, math.pi / 2)) < 1e-12
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        assert wigner_small_d(1, 0, 0, theta) == pytest.approx(math.cos(theta), abs=1e-14)
    # d^(1/2)_(1/2,1/2)(theta) = cos(theta/2)
    assert wigner_small_d("1/2", "1/2", "1/2", math.pi / 3) == pytest.approx(
        math.cos(math.pi / 6), rel=1e-14
    )


def test_wigner_d1_matrix_closed_form():
    # rows/cols ordered m = +1, 0, -1
    for theta in (0.3, 1.1, 2.5, 4.0):
        c, s = math.cos(theta), math.sin(theta)
        want = np.array(
            [
                [(1 + c) / 2, -s / math.sqrt(2), (1 - c) / 2],
                [s / math.sqrt(2), c, -s / math.sqrt(2)],
                [(1 - c) / 2, s / math.sqrt(2), (1 + c) / 2],
            ]
        )
        assert np.max(np.abs(wigner_d_matrix(1, theta) - want)) < 1e-14


@pytest.mark.parametrize("tj", range(1, 9))  # j = 1/2 .. 4
def test_wigner_d_orthogonality_and_composition(tj):
    j = HalfInt(tj)
    eye = np.eye(tj + 1)
    for theta in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
        d = wigner_d_matrix(j, theta)
        assert np.max(np.abs(d @ d.T - eye)) < 1e-12
    for t1, t2 in [(0.3, 0.4), (1.2, -0.7), (2.0, 2.9)]:
        lhs = wigner_d_matrix(j, t1) @ wigner_d_matrix(j, t2)
        rhs = wigner_d_matrix(j, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    # 2pi periodicity up to (-1)^(2j)
    sign = -1.0 if tj % 2 else 1.0
    assert np.max(np.abs(wigner_d_matrix(j, 2 * math.pi) - sign * eye)) < 1e-12


def test_rotation_matrix_properties():
    rng = np.random.default_rng(7)
    for _ in range(10):
        axis = rng.normal(size=3)
        theta = float(rng.uniform(-math.pi, math.pi))
        rot = rotation_matrix(theta, axis)
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        # the axis is fixed
        a = axis / np.linalg.norm(axis)
        assert np.max(np.abs(rot @ a - a)) < 1e-12
    with pytest.raises(ValueError):
        rotation_matrix(0.1, (0, 0, 0))


def test_euler_zyz_roundtrip():
    rng = np.random.default_rng(11)
    mats = [rotation_matrix(float(rng.uniform(-3, 3)), rng.normal(size=3)) for _ in range(20)]
    # degenerate beta = 0 and beta = pi cases
    mats += [rotation_matrix(0.7, (0, 0, 1)), rotation_matrix(math.pi, (0, 1, 0)),
             rotation_matrix(-1.2, (0, 0, 1)), np.eye(3)]
    for rot in mats:
        alpha, beta, gamma = euler_zyz(rot)
        rebuilt = (
            rotation_matrix(alpha, (0, 0, 1))
            @ rotation_matrix(beta, (0, 1, 0))
            @ rotation_matrix(gamma, (0, 0, 1))
        )
        assert np.max(np.abs(rebuilt - rot)) < 1e-12


def test_vector_rotation_matches_d1_about_y():
    # spherical components of a rotated vector: sph(R_y v) = d^1(theta) sph(v)
    rng = np.random.default_rng(3)
    for _ in range(6):
        v = rng.normal(size=3)
        theta = float(rng.uniform(-3, 3))
        rot = rotation_matrix(theta, (0, 1, 0))
        lhs = spherical_from_cartesian(rot @ v)
        rhs = wigner_d_matrix(1, theta) @ spherical_from_cartesian(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_vector_rotation_matches_conjugate_D_any_axis():
    # general axis: sph(R v) = conj(D^1(R)) sph(v)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=3)
        axis = rng.normal(size=3)
        theta = float(rng.uniform(-3, 3))
        rot = rotation_matrix(theta, axis)
        lhs = spherical_from_cartesian(rot @ v)
        rhs = np.conj(wigner_D_matrix(1, theta, axis)) @ spherical_from_cartesian(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_wigner_D_unitary_and_identity():
    rng = np.random.default_rng(9)
    for tj in (1, 2, 3, 4):
        dim = tj + 1
        for _ in range(4):
            axis = rng.normal(size=3)
            theta = float(rng.uniform(-3, 3))
            mat = wigner_D_matrix(HalfInt(tj), theta, axis)
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(dim))) < 1e-12
        assert np.max(np.abs(wigner_D_matrix(HalfInt(tj), 0.0, (0, 1, 0)) - np.eye(dim))) < 1e-12


def test_rank2_slot_tables_rotate_with_conjugate_D2():
    # T^2_m(R v) = sum_m' conj(D^2)_{m m'} T^2_{m'}(v)  <=>
    # R^T t^m R = sum_m' conj(D^2)_{m m'} t^{m'}
    tables = rank2_slot_tables()
    rng = np.random.default_rng(13)
    for _ in range(6):
        axis = rng.normal(size=3)
        theta = float(rng.uniform(-3, 3))
        rot = rotation_matrix(theta, axis)
        dmat = np.conj(wigner_D_matrix(2, theta, axis))
        for i in range(5):
            lhs = rot.T @ tables[i] @ rot
            rhs = sum(dmat[i, k] * tables[k] for k in range(5))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
