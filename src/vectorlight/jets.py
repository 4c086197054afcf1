"""Truncated multivariate Taylor expansions ("jets") in three coordinates.

A Jet carries the value and the first-, second- and third-derivative tensors
of a smooth complex-valued function at a batch of points, with exact
propagation through arithmetic (Leibniz rule) and smooth unary composition
(Faa di Bruno up to third order).  The beam-field evaluator builds closed-form
mode functions out of these, so every spatial derivative it reports is exact
rather than numerical.

A Jet supports only what the beams use: `jet + jet`, `jet + c`, `jet * jet`
and `jet * c` with the jet on the left, `compose` and the compositions
`exp`, `reciprocal`, `sqrt` and `arctan`, `ipow`, and the builders and views
`constant`, `coordinate`, `truncate` and `partial`.  A difference is a sum
with a jet times -1, a quotient a product with a reciprocal.

The value and the derivative blocks form one sequence, `Jet.blocks`, and
every operation that treats the blocks alike (sums, products with a scalar,
`truncate`, `partial`) runs over it.  Only products of two jets
and compositions are written out order by order, since their Leibniz and
Faa di Bruno terms differ with the order.

Derivative blocks are stored components-first, with the batch axes last:
for values of shape B, g[i] = d_i f is (3, *B), h[i, j] = d_i d_j f is
(3, 3, *B) and t[i, j, k] = d_i d_j d_k f is (3, 3, 3, *B), so every
elementwise loop runs over the contiguous batch.  h and t are stored full
and bitwise symmetric: products and compositions compute h on its 6 unique
pairs i <= j and t on its 10 unique triples i <= j <= k, and one gather
expands each to every index order.  (Complex multiplication is not bitwise
commutative where it uses fused multiply-adds, so g_i g_j and g_j g_i may
differ in the last bit; computing each unique entry once avoids that.)

A jet is never mutated once built, so jets may share blocks: `truncate`,
`partial` and adding a constant (which moves only the value) return jets
holding the blocks of the jet they came from.  Work whose result is known is
skipped: a constant is not expanded into zero blocks and `ipow` does not
multiply by 1.  Both keep every bit of the full computation except the sign
of an exact zero, which a sum with 0.0 or a product with 1 would turn to
+0.0.

Batches broadcast as numpy arrays do.  A jet with a batch axis of length 1
is the same function all along that axis, and an operation joining it with
a jet that is longer there gives the longer batch.  The beams use this on
points that form a tensor grid, where x, y and z each vary along one batch
axis (see `beams._coords`): a factor of one coordinate, such as z on a
focal plane, is computed once per value of that coordinate, not once per
point.  numpy's elementwise kernels give the same bits on a length-1
operand as on that operand copied out along the axis; the tests check this
for every operation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet"]

# unique index pairs/triples of symmetric blocks, flattened row-major
_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]
_TRIPLES = [(i, j, k) for i in range(3) for j in range(i, 3)
            for k in range(j, 3)]
_PI, _PJ = np.array(_PAIRS).T
_TI, _TJ, _TK = np.array(_TRIPLES).T
_P_FLAT = 3 * _PI + _PJ
_T_FLAT = 9 * _TI + 3 * _TJ + _TK
# for each full index, the position of its sorted form among the unique ones
_P_FULL = np.array([_PAIRS.index((min(i, j), max(i, j)))
                    for i in range(3) for j in range(3)])
_T_FULL = np.array([_TRIPLES.index(tuple(sorted((i, j, k))))
                    for i in range(3) for j in range(3) for k in range(3)])
# h_ij g_k + h_ik g_j + h_jk g_i on the unique triples: row r of _SYM_H picks
# flattened h entries, row r of _SYM_G the g entries they multiply
_SYM_H = np.stack([3 * _TI + _TJ, 3 * _TI + _TK, 3 * _TJ + _TK])
_SYM_G = np.stack([_TK, _TJ, _TI])


def _unique(block, flat, shape):
    """Entries `flat` of a symmetric block, its derivative axes flattened;
    `shape` is the block's batch shape."""
    nderiv = block.ndim - len(shape)
    return block.reshape((3 ** nderiv,) + shape).take(flat, axis=0)


def _expand(unique, full, ndim):
    """Full symmetric block of `ndim` derivative axes from its unique entries."""
    return unique.take(full, axis=0).reshape((3,) * ndim + unique.shape[1:])


def _sym_hg(h, g, shape):
    """Symmetrized h_ij g_k on the unique triples, summed left to right;
    `shape` is the batch shape of h."""
    terms = _unique(h, _SYM_H, shape) * g.take(_SYM_G, axis=0)
    out = terms[0] + terms[1]
    out += terms[2]
    return out


class Jet:
    """Taylor data of one scalar function over an arbitrary batch shape.

    Jets of different batch shapes combine by broadcasting; a batch-1 jet
    stands for the same value and derivatives at every point.
    """

    __slots__ = ("order", "val", "g", "h", "t")

    def __init__(self, order, val, g=None, h=None, t=None):
        if order not in (0, 1, 2, 3):
            raise ValueError("jet order must be 0..3")
        self.order = order
        self.val = np.asarray(val, dtype=complex)
        shape = self.val.shape
        self.g = g if order < 1 else self._blk(g, (3,) + shape)
        self.h = h if order < 2 else self._blk(h, (3, 3) + shape)
        self.t = t if order < 3 else self._blk(t, (3, 3, 3) + shape)

    @staticmethod
    def _blk(arr, shape):
        if arr is None:
            return np.zeros(shape, dtype=complex)
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != shape:
            raise ValueError(f"expected derivative block of shape {shape}")
        return arr

    @property
    def blocks(self):
        """The value and derivative blocks up to this jet's order:
        (val, g, h, t)[:order + 1]."""
        return (self.val, self.g, self.h, self.t)[:self.order + 1]

    # ------------------------------------------------------------ builders

    @classmethod
    def constant(cls, value, order, shape=()):
        return cls(order, np.broadcast_to(np.asarray(value, dtype=complex), shape).copy())

    @classmethod
    def coordinate(cls, points, index, order):
        """Jet of the coordinate function r -> r[index] over points (..., 3)."""
        points = np.asarray(points, dtype=float)
        val = points[..., index].astype(complex)
        jet = cls(order, val)
        if order >= 1:
            jet.g[index] = 1.0
        return jet

    # ----------------------------------------------------------- arithmetic

    def _check(self, other):
        if other.order != self.order:
            raise ValueError("jet order mismatch")
        return other

    def __add__(self, other):
        if not isinstance(other, Jet):
            # a constant has no derivatives: shift the value, share the blocks
            return Jet(self.order, self.val + np.asarray(other, dtype=complex),
                       *self.blocks[1:])
        o = self._check(other)
        return Jet(self.order, *(a + b for a, b in zip(self.blocks, o.blocks)))

    def __mul__(self, other):
        if not isinstance(other, Jet):  # scalar fast path
            c = complex(other)
            return Jet(self.order, *(b * c for b in self.blocks))
        o = self._check(other)
        n = self.order
        val = self.val * o.val
        g = h = t = None
        if n >= 1:
            g = self.g * o.val + o.g * self.val
        if n >= 2:
            h = (
                _unique(self.h, _P_FLAT, self.val.shape) * o.val
                + _unique(o.h, _P_FLAT, o.val.shape) * self.val
                + self.g.take(_PI, axis=0) * o.g.take(_PJ, axis=0)
                + o.g.take(_PI, axis=0) * self.g.take(_PJ, axis=0)
            )
            h = _expand(h, _P_FULL, 2)
        if n >= 3:
            t = (
                _unique(self.t, _T_FLAT, self.val.shape) * o.val
                + _unique(o.t, _T_FLAT, o.val.shape) * self.val
                + _sym_hg(self.h, o.g, self.val.shape)
                + _sym_hg(o.h, self.g, o.val.shape)
            )
            t = _expand(t, _T_FULL, 3)
        return Jet(n, val, g, h, t)

    # ---------------------------------------------------------- composition

    def compose(self, f0, f1=None, f2=None, f3=None):
        """Jet of f(self) given derivative arrays f^(k) evaluated at self.val."""
        n = self.order
        shape = self.val.shape
        val = np.asarray(f0, dtype=complex)
        g = h = t = None
        if n >= 1:
            f1 = np.asarray(f1, dtype=complex)
            g = f1 * self.g
        if n >= 2:
            f2 = np.asarray(f2, dtype=complex)
            gg = self.g.take(_PI, axis=0) * self.g.take(_PJ, axis=0)
            h = _expand(f2 * gg + f1 * _unique(self.h, _P_FLAT, shape), _P_FULL, 2)
        if n >= 3:
            f3 = np.asarray(f3, dtype=complex)
            ggg = (self.g.take(_TI, axis=0) * self.g.take(_TJ, axis=0)
                   * self.g.take(_TK, axis=0))
            t = (
                f3 * ggg
                + f2 * _sym_hg(self.h, self.g, shape)
                + f1 * _unique(self.t, _T_FLAT, shape)
            )
            t = _expand(t, _T_FULL, 3)
        return Jet(n, val, g, h, t)

    def exp(self):
        e = np.exp(self.val)
        return self.compose(e, e, e, e)

    def reciprocal(self):
        r = 1.0 / self.val
        r2 = r * r
        return self.compose(r, -r2, 2.0 * r2 * r, -6.0 * r2 * r2)

    def sqrt(self):
        s = np.sqrt(self.val)
        inv = 0.5 / s
        return self.compose(s, inv, -0.5 * inv / self.val, 0.75 * inv / self.val**2)

    def arctan(self):
        u = self.val
        d1 = 1.0 / (1.0 + u * u)
        d2 = -2.0 * u * d1 * d1
        d3 = (6.0 * u * u - 2.0) * d1 * d1 * d1
        return self.compose(np.arctan(u), d1, d2, d3)

    def ipow(self, n: int):
        """self**n by squaring; the first factor is a power of self itself,
        so ipow(1) is self and ipow(2) is one product."""
        if n < 0:
            raise ValueError("negative integer power not supported")
        if n == 0:
            return Jet.constant(1.0, self.order, self.val.shape)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -------------------------------------------------------------- access

    def truncate(self, order: int) -> "Jet":
        """View of this jet carrying only derivative blocks up to `order`."""
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        return Jet(order, self.val, *self.blocks[1:order + 1])

    def partial(self, index: int) -> "Jet":
        """Jet (one order lower) of the derivative d_index f."""
        if self.order < 1:
            raise ValueError("cannot take a derivative of an order-0 jet")
        return Jet(self.order - 1, *(b[index] for b in self.blocks[1:]))
