"""Taylor-jet arithmetic against a finite-difference oracle.

The oracle differentiates plain scalar evaluations of the same composite
functions with 4th-order central stencils, so jet propagation (Leibniz and
chain rules up to third order) is checked independently.  The third-order
kernels are also checked against the full-tensor formulas in `oracles`, and
the shortcuts for powers and constant shifts against the full products.
"""

import itertools

import numpy as np
import pytest

from oracles import ipow_from_one, jet_compose, jet_mul
from vectorlight.jets import Jet

STEP = 1e-6


def batch_first(block, nderiv):
    """A jet block (derivative axes first) with its batch axes moved first."""
    return np.moveaxis(block, range(nderiv), range(-nderiv, 0))


def composite(points):
    """A deliberately messy smooth function exercising every jet operation."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    w = 1.0 / (1.0 + 1j * z / 0.7)
    return (
        (x + 1j * y) ** 2
        * np.exp(-(x * x + y * y) * w + 0.3j * z)
        * np.sqrt(1.0 + z * z)
        * np.arctan(z / 1.3)
        + 2.5
        - 0.4 * (x - 0.2) ** 3
    )


def composite_jet(points, order):
    x = Jet.coordinate(points, 0, order)
    y = Jet.coordinate(points, 1, order)
    z = Jet.coordinate(points, 2, order)
    w = (z * (1j / 0.7) + 1.0).reciprocal()
    rho2 = x * x + y * y
    out = (
        (x + y * 1j).ipow(2)
        * (rho2 * w * -1.0 + z * 0.3j).exp()
        * (z * z + 1.0).sqrt()
        * (z * (1.0 / 1.3)).arctan()
        + 2.5
        + (x + -0.2).ipow(3) * -0.4
    )
    return out


def fd_gradient(f, points, h=STEP):
    """4th-order central difference; f may return extra trailing axes."""
    sample = f(points)
    out = np.empty(sample.shape + (3,), dtype=complex)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        out[..., i] = (
            -f(points + 2 * e) + 8 * f(points + e) - 8 * f(points - e) + f(points - 2 * e)
        ) / (12 * h)
    return out


def fd_hessian(f, points, h=1e-3):
    # nested stencils: larger step balances eps/h^2 roundoff vs h^4 truncation
    return fd_gradient(lambda p: fd_gradient(f, p, h), points, h)


@pytest.fixture(scope="module")
def probe_points():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-0.8, 0.8, size=(12, 3))
    pts[0] = 0.0
    return pts


def test_jet_value_matches_plain_evaluation(probe_points):
    jet = composite_jet(probe_points, 3)
    assert np.max(np.abs(jet.val - composite(probe_points))) < 1e-13


def test_jet_gradient_matches_fd(probe_points):
    jet = composite_jet(probe_points, 1)
    fd = fd_gradient(composite, probe_points)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(batch_first(jet.g, 1) - fd)) < 1e-7 * scale


def test_jet_hessian_matches_fd_and_is_symmetric(probe_points):
    jet = composite_jet(probe_points, 2)
    h = batch_first(jet.h, 2)
    fd = fd_hessian(composite, probe_points)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(h - fd)) < 1e-5 * scale
    sym_err = np.max(np.abs(h - np.swapaxes(h, -1, -2)))
    assert sym_err < 1e-13 * np.max(np.abs(h))


def test_jet_third_order_matches_fd_of_hessian(probe_points):
    t = batch_first(composite_jet(probe_points, 3).t, 3)
    fd3 = fd_gradient(lambda p: batch_first(composite_jet(p, 2).h, 2).reshape(p.shape[:-1] + (9,)),
                      probe_points)
    fd3 = fd3.reshape(probe_points.shape[:-1] + (3, 3, 3))
    # fd3[..., i, j, p]: derivative d_p of h_{ij}; jet.t is d_i d_j d_k f
    fd3 = np.moveaxis(fd3, -1, -3)
    scale = np.max(np.abs(fd3))
    assert np.max(np.abs(t - fd3)) < 1e-6 * scale
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        permuted = np.transpose(
            t, tuple(range(t.ndim - 3)) + tuple(t.ndim - 3 + p for p in perm)
        )
        assert np.max(np.abs(t - permuted)) < 1e-13


def test_partial_shifts_derivative_data(probe_points):
    jet = composite_jet(probe_points, 3)
    dx = jet.partial(0)
    assert dx.order == 2
    assert np.array_equal(dx.val, batch_first(jet.g, 1)[..., 0])
    assert np.array_equal(batch_first(dx.g, 1), batch_first(jet.h, 2)[..., 0, :])
    assert np.array_equal(batch_first(dx.h, 2), batch_first(jet.t, 3)[..., 0, :, :])


def test_order_mismatch_and_bad_order_raise():
    a = Jet.constant(1.0, 2, (4,))
    b = Jet.constant(1.0, 1, (4,))
    with pytest.raises(ValueError):
        _ = a * b
    with pytest.raises(ValueError):
        Jet(5, np.zeros(3))
    with pytest.raises(ValueError):
        Jet.constant(1.0, 0, (2,)).partial(0)
    with pytest.raises(ValueError):
        a.ipow(-1)


def test_scalar_arithmetic_broadcast():
    pts = np.zeros((5, 3))
    pts[:, 2] = np.linspace(-1, 1, 5)
    z = Jet.coordinate(pts, 2, 3)
    jet = z * 2.0 + z * -0.5 + (z * -1.0 + 1.0)
    want = 2.0 * pts[:, 2] - pts[:, 2] / 2.0 + 1.0 - pts[:, 2]
    assert np.max(np.abs(jet.val - want)) < 1e-15
    assert np.max(np.abs(batch_first(jet.g, 1)[:, 2] - 0.5)) < 1e-15
    assert np.max(np.abs(jet.h)) == 0.0


def random_jet(rng, shape):
    """Order-3 jet with random complex data and exactly symmetric h and t."""

    def draw(*extra):
        return rng.normal(size=extra + shape) + 1j * rng.normal(size=extra + shape)

    val = rng.uniform(0.5, 1.5, size=shape) + 0.5j * rng.uniform(-1.0, 1.0, size=shape)
    pairs, triples = draw(3, 3), draw(3, 3, 3)
    h = np.empty((3, 3) + shape, dtype=complex)
    t = np.empty((3, 3, 3) + shape, dtype=complex)
    for idx in itertools.product(range(3), repeat=2):
        h[idx] = pairs[tuple(sorted(idx))]
    for idx in itertools.product(range(3), repeat=3):
        t[idx] = triples[tuple(sorted(idx))]
    return Jet(3, val, draw(3), h, t)


def as_tuple(jet):
    return (jet.val, batch_first(jet.g, 1), batch_first(jet.h, 2), batch_first(jet.t, 3))


@pytest.mark.parametrize("shape", [(), (1,), (7,)])
def test_third_order_kernels_match_full_tensor_oracle_and_are_symmetric(shape):
    rng = np.random.default_rng(11 + len(shape) + sum(shape))
    a, b = random_jet(rng, shape), random_jet(rng, shape)
    u = a.val
    e = np.exp(u)
    r = 1.0 / u
    s = np.sqrt(u)
    d1 = 1.0 / (1.0 + u * u)
    cases = {
        "mul": (a * b, jet_mul(as_tuple(a), as_tuple(b))),
        "exp": (a.exp(), jet_compose(as_tuple(a), e, e, e, e)),
        "reciprocal": (a.reciprocal(),
                       jet_compose(as_tuple(a), r, -r**2, 2 * r**3, -6 * r**4)),
        "sqrt": (a.sqrt(), jet_compose(as_tuple(a), s, 0.5 / s, -0.25 / s**3,
                                       0.375 / s**5)),
        "arctan": (a.arctan(), jet_compose(as_tuple(a), np.arctan(u), d1,
                                           -2 * u * d1**2, (6 * u * u - 2) * d1**3)),
        "ipow3": (a.ipow(3), jet_mul(as_tuple(a), jet_mul(as_tuple(a), as_tuple(a)))),
    }
    for name, (jet, want) in cases.items():
        for order, (got, ref) in enumerate(zip(as_tuple(jet), want)):
            assert got.shape == shape + (3,) * order, (name, order)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale, (name, order)
        for nderiv, block in ((2, jet.h), (3, jet.t)):
            batch = tuple(range(nderiv, block.ndim))
            for perm in itertools.permutations(range(nderiv)):
                assert np.array_equal(block, block.transpose(perm + batch)), name


def _bitwise_equal(a, b, zero_signs=True):
    """Blocks byte for byte equal; with zero_signs False, -0.0 counts as 0.0."""
    def data(block):
        return (block if zero_signs else block + 0.0).tobytes()
    return a.order == b.order and all(
        data(x) == data(y) for x, y in zip(a.blocks, b.blocks))


def _same_blocks(jet, want):
    """The blocks of `jet` are the arrays `want`, byte for byte."""
    return len(jet.blocks) == len(want) and all(
        got.shape == w.shape and got.tobytes() == w.tobytes()
        for got, w in zip(jet.blocks, want))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_blockwise_operations_are_the_numpy_operations_on_each_block(order):
    rng = np.random.default_rng(60 + order)
    a = random_jet(rng, (7,)).truncate(order)
    b = random_jet(rng, (7,)).truncate(order)
    a.val[0] = -0.0  # a signed zero in the value, which a constant shifts
    c = 0.3 - 1.7j
    assert len(a.blocks) == order + 1
    assert a.blocks[0] is a.val
    assert _same_blocks(a + b, [x + y for x, y in zip(a.blocks, b.blocks)])
    assert _same_blocks(a * c, [x * c for x in a.blocks])
    for shifted, value in ((a + c, a.val + c), (a + 0.0, a.val + 0.0)):
        assert _same_blocks(shifted, [value] + list(a.blocks[1:]))
        # the shift moves the value only and shares every other block
        assert all(x is y for x, y in zip(shifted.blocks[1:], a.blocks[1:]))
    for k in range(order + 1):
        low = a.truncate(k)
        assert low.order == k and len(low.blocks) == k + 1
        assert all(x is y for x, y in zip(low.blocks, a.blocks))
    for i in range(3 if order else 0):
        d = a.partial(i)
        assert d.order == order - 1
        assert _same_blocks(d, [x[i] for x in a.blocks[1:]])
        # views of the parent's blocks, not copies
        assert all(np.shares_memory(x, y)
                   for x, y in zip(d.blocks, a.blocks[1:]))


def test_ipow_and_constant_shifts_are_bytewise_the_full_products(probe_points):
    rng = np.random.default_rng(5)
    x = Jet.coordinate(probe_points, 0, 3)
    y = Jet.coordinate(probe_points, 1, 3)
    z = Jet.coordinate(probe_points, 2, 3)
    # the random jet has no zero entries; the others have zeros of both signs
    jets = [random_jet(rng, (7,)), (x + y * 1j) * 1.7, z * (-0.6j)]
    for i, jet in enumerate(jets):
        # a product with an exact constant 1, or a sum with an exact 0,
        # turns -0.0 into 0.0: skipping them may keep a zero's sign only
        exact = i == 0
        sq = jet * jet
        # the products of squaring, in the order ipow multiplies them
        chained = [Jet.constant(1.0, 3, jet.val.shape), jet, sq, jet * sq,
                   sq * sq, jet * (sq * sq)]
        for n in range(6):
            assert _bitwise_equal(jet.ipow(n), chained[n]), n
            assert _bitwise_equal(jet.ipow(n), ipow_from_one(jet, n), exact), n
        for c in (1.0, -2.5j, 0.3 - 0.1j):
            const = Jet.constant(c, 3, jet.val.shape)
            assert _bitwise_equal(jet + c, jet + const, exact)
        # the shift shares the blocks; nothing is copied
        assert (jet + 1.0).t is jet.t


def _copied_out(jet, shape):
    """`jet` with every block repeated along its batch axes of length 1 out to
    batch `shape`, in fresh memory (np.repeat, not a stride-0 view)."""
    def rep(block):
        nderiv = block.ndim - len(shape)
        for axis, n in enumerate(shape):
            if block.shape[nderiv + axis] == 1:
                block = np.repeat(block, n, axis=nderiv + axis)
        return block
    return Jet(jet.order, *[rep(b) for b in jet.blocks])


@pytest.mark.parametrize("shape", [(7,), (37,), (4, 5)])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_batch_one_jets_broadcast_bytewise_as_copied_out(shape, order):
    rng = np.random.default_rng(31 + order + sum(shape))
    one = (1,) * len(shape)
    pts = rng.uniform(-0.8, 0.8, size=shape + (3,))
    pts.reshape(-1, 3)[:2] = [[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0]]
    z1 = Jet.coordinate(np.full(one + (3,), -0.0), 2, 3)
    # pairs of (batch-1 jet, full jet): random data, and coordinate jets
    # whose structural zeros carry both signs
    pairs = [
        (random_jet(rng, one), random_jet(rng, shape)),
        ((z1 * 0.7j + 1.0).reciprocal(),
         Jet.coordinate(pts, 0, 3) + Jet.coordinate(pts, 1, 3) * -1j),
    ]
    if len(shape) == 2:
        # a row jet (r, 1) with a column jet (1, c), as the x and y jets of a
        # tensor grid are: each broadcasts along the other's axis
        rows, cols = (shape[0], 1), (1, shape[1])
        pairs += [
            (random_jet(rng, rows), random_jet(rng, cols)),
            (Jet.coordinate(pts[:, :1], 0, 3) * 0.7j + 1.0,
             Jet.coordinate(pts[:1], 1, 3) * -1j + 1.0),
        ]
    for small, other in pairs:
        small, other = small.truncate(order), other.truncate(order)
        wide, other_wide = _copied_out(small, shape), _copied_out(other, shape)
        binary = {
            "+": lambda a, b: a + b,
            "*": lambda a, b: a * b,
        }
        for name, op in binary.items():
            assert _bitwise_equal(op(small, other), op(wide, other_wide)), name
            assert _bitwise_equal(op(other, small), op(other_wide, wide)), name
        unary = {
            "*scalar": lambda a: a * (0.3 - 1.7j),
            "exp": Jet.exp,
            "reciprocal": Jet.reciprocal,
            "sqrt": Jet.sqrt,
            "arctan": Jet.arctan,
            **{f"ipow{n}": lambda a, n=n: a.ipow(n) for n in range(4)},
            **{f"truncate{n}": lambda a, n=n: a.truncate(n)
               for n in range(order + 1)},
            **{f"partial{i}": lambda a, i=i: a.partial(i)
               for i in range(3) if order},
        }
        for name, op in unary.items():
            got = op(small)
            assert got.val.shape == small.val.shape, name
            assert _bitwise_equal(_copied_out(got, shape), op(wide)), name
