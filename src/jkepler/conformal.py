"""The conformal (TKK) Lie algebra co(V) = V + str(V) + V* as a bracket algebra.

Elements are triples (X_u part, structure-algebra part, Y_v part).  The
bracket is fixed by

    [X_u, X_v] = 0,  [Y_u, Y_v] = 0,  [X_u, Y_v] = -2 S_uv,
    [S, X_z] = X_{Sz},  [S, Y_z] = -Y_{S'z},  [S, S'] = matrix commutator,

where S' denotes the adjoint with respect to <.|.>.  Every part is exact and
has the stored form of algebra.Element: integer numerators over one reduced
denominator (a structure-algebra part holds its n x n matrix row-major, and
`matrix` is a Fraction view).  A structure-algebra part is certified to lie
in span{S_uv} at construction.  The bracket runs on the numerators of each
operand over its one denominator, int64 under the algebra's kernel guard
and Python ints past it.

The span certificate is built once per algebra from the integer generators
4 S_{e_a e_b}, with zero rows and rows equal up to sign to an earlier one
left out (138 of 729 rows remain on h:3:O).  Pivot rows and columns are
chosen mod p = 2^31 - 1 (`modp`); the pivot minor A is inverted as integers
adj / den with A adj = den 1 checked exactly, which proves rank >= r; every
kept generator g, and so every generator, then satisfies
den g = (g[cols] adj) B exactly for the pivot rows B, which proves
rank <= r.  So dim str(V) is a certified exact rank, and membership
of a matrix v is the same exact identity for v.  The pivot rows, with X_{e_a}
and Y_{e_a}, are the basis of co(V) in which structure_constants reads the
bracket.

co(V) is a real Lie algebra, so the sl2 root triples are kept in their
rational real form (h~, a, s); the paper's triple H = i h~, E+- = i a -+ s is
its Cayley transform, and its relations are the real and imaginary parts of
the relations among h~, a and s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import modp
from .algebra import Algebra, Element, MismatchError, _Exact, _exact_dtype, _max_abs, _snum
from .poly import numerators


class ConsistencyError(RuntimeError):
    """A bracket left the certified structure-algebra span, or the span
    certificate itself failed."""


# --- structure-algebra span ---------------------------------------------------

class _StrSpan:
    """Pivot rows B (integer, r x n^2) of the generators and the exact inverse
    adj / den of their minor on cols."""

    def __init__(self, basis: np.ndarray, cols: list, adj: np.ndarray, den: int):
        self.basis, self.cols, self.adj, self.den = basis, cols, adj, den
        # |(v[:, cols] adj) basis| <= scale max|v|, partial sums included
        self._scale = len(cols) ** 2 * _max_abs(adj) * _max_abs(basis)
        self._float = adj.astype(np.float64), basis.astype(np.float64)

    @property
    def rank(self) -> int:
        return len(self.cols)

    def contains(self, v: np.ndarray) -> bool:
        """Whether every row of the integer matrix v lies in the row span of
        basis: the exact identity v den = (v[:, cols] adj) basis.  It runs in
        float64 when every partial sum stays below 2^53, else on Python ints."""
        vmax = _max_abs(v)
        if _exact_dtype(max(self._scale, self.den) * vmax, np.float64) is np.float64:
            (adj, basis), v = self._float, v.astype(np.float64)
        else:
            adj, basis, v = self.adj.astype(object), self.basis.astype(object), v.astype(object)
        return np.array_equal(v * self.den, (v[:, self.cols] @ adj) @ basis)


def _snums(alg: Algebra) -> np.ndarray:
    """4 S_{e_a e_b} for every basis pair: [b, a] is its n x n numerator matrix,
    row-major.  They are small integers (at most 4 in every family), computed
    exactly in float64 and kept as int8 when they fit."""
    n = alg.dim
    c2, eye = alg._c2.astype(np.float64), np.eye(n)
    blocks = []
    for b in range(n):
        g = _snum(c2, eye, eye[b]).reshape(n, -1)
        small = g.astype(np.int8)
        blocks.append(small if np.array_equal(small, g) else g.astype(np.int64))
    return np.stack(blocks)


def _generators(alg: Algebra) -> np.ndarray:
    """The distinct generators of str(V): of the rows of _snums (4 S_{e_a e_b}
    at row b n + a), those that are nonzero and not equal up to sign to an
    earlier row, in order.  Every generator is 0 or +- one of them, so they span
    str(V) and a certificate on them covers every generator."""
    g = _snums(alg).reshape(alg.dim ** 2, -1)
    sign = np.sign(g[np.arange(len(g)), (g != 0).argmax(axis=1)])
    first = {}
    for i, (s, row) in enumerate(zip(sign.tolist(), g * sign[:, None])):
        if s:
            first.setdefault(row.tobytes(), i)
    return g[list(first.values())]


def _str_span_exact(alg: Algebra) -> _StrSpan:
    """The certified basis of span{S_uv}; ConsistencyError if a certificate
    fails, so no rank is returned unproved."""
    key = "str_span_exact"
    if key not in alg._cache:
        gens, n = _generators(alg), alg.dim
        blocks = [gens[i:i + n] for i in range(0, len(gens), n)]
        rows, cols = modp.row_basis(blocks)
        basis = gens[rows]
        pivot = basis[:, cols]
        try:
            adj, den = modp.lift(modp.inverse(pivot))
        except ZeroDivisionError:
            raise ConsistencyError("str(V) span certificate failed: the pivot minor is "
                                   "singular mod p") from None
        dtype = _exact_dtype(max(len(rows) * _max_abs(pivot) * _max_abs(adj), den), np.float64)
        if not np.array_equal(pivot.astype(dtype) @ adj.astype(dtype),
                              den * np.eye(len(rows), dtype=dtype)):
            raise ConsistencyError("str(V) span certificate failed: the pivot minor inverse "
                                   "does not lift from mod p")
        span = _StrSpan(basis, cols, adj, den)
        if not all(span.contains(b) for b in blocks):
            raise ConsistencyError("str(V) span certificate failed: a generator S_uv is not "
                                   "in the span of the pivot rows")
        alg._cache[key] = span
    return alg._cache[key]


def dim_str(alg: Algebra) -> int:
    """Dimension of the structure algebra span{S_uv}: the certified exact
    rank of its generators (see the module docstring)."""
    return _str_span_exact(alg).rank


def dim_co(alg: Algebra) -> int:
    """dim co(V) = 2 dim V + dim str(V)."""
    return 2 * alg.dim + dim_str(alg)


def _certify(alg: Algebra, nums: np.ndarray):
    """ConsistencyError unless the n x n matrix with the integer numerators
    nums (over any denominator) lies in span{S_uv}."""
    if not _str_span_exact(alg).contains(nums.reshape(1, -1)):
        raise ConsistencyError("matrix is not in span{S_uv}")


def _bracket_constants(alg: Algebra):
    """(gnum, lg, factor).  The Gram matrix is gnum / gden and lg = lcm(gnum),
    so M' = G^-1 M^T G has numerators (lg / gnum_i) M_ji gnum_j over lg.  For
    operand numerators at most X and Y, each bracket intermediate is at most
    B X Y, B = max(4 n + 6 n^3 C^2, 2 n lg max(gnum)): |2 [M_a, M_b]| <= 4 n XY
    and |4 S| <= 3 n^3 C^2 XY twice (6 n^3 C^2 is Algebra's kernel bound), and
    |M' y| <= n lg max(gnum) XY twice.  factor = ceil(B / kernel bound)."""
    n, (gnum, _), kernel = alg.dim, alg._gram, alg._kernel_bound
    lg = math.lcm(*gnum)
    return gnum, lg, -(-max(4 * n + kernel, 2 * n * lg * max(gnum)) // kernel)


def _adjoint_nums(m: np.ndarray, gnum, lg: int) -> np.ndarray:
    """Numerators over lg of the adjoint of the numerator matrix m (or of each
    matrix of a stack m)."""
    w = np.array(gnum, dtype=m.dtype)
    return (np.array([lg // g for g in gnum], dtype=m.dtype)[:, None]
            * np.swapaxes(m, -1, -2)) * w[None, :]


class StrElement(_Exact):
    """Endomorphism certified to lie in the structure algebra: the numerators
    of its n x n matrix, row-major, over one denominator."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, matrix):
        """Certify an n x n matrix of int or Fraction entries, or a pair (nums,
        den) of integer numerators and their denominator, in span{S_uv}."""
        if not isinstance(matrix, tuple):
            flat, den = numerators(np.ravel(matrix).tolist())
            matrix = np.array(flat, dtype=object).reshape(np.shape(matrix)), den
        (nums, den), n = matrix, algebra.dim
        if np.shape(nums) != (n, n):
            raise MismatchError(f"StrElement matrix has shape {np.shape(nums)}, expected ({n}, {n})")
        _certify(algebra, nums)
        self._set(algebra, nums.ravel().tolist(), den)

    @classmethod
    def zero(cls, algebra: Algebra):
        return cls._make(algebra, [0] * algebra.dim**2, 1)

    @property
    def matrix(self) -> np.ndarray:
        """The matrix as a Fraction object array (a read-only view)."""
        n = self.algebra.dim
        return np.array([Fraction(v, self.den) for v in self.nums], dtype=object).reshape(n, n)

    def adjoint_matrix(self):
        """Adjoint with respect to <.|.> (G^-1 M^T G), as (nums, den)."""
        alg = self.algebra
        gnum, lg, _ = _bracket_constants(alg)
        m = np.array(self.nums, dtype=object).reshape(alg.dim, alg.dim)
        return _adjoint_nums(m, gnum, lg), self.den * lg


class CoElement(_Exact):
    """(u, M, v) in V + str(V) + V*: the coefficients of X_u, an endomorphism
    and Y_v, stored as one vector of numerators (u, M row-major, v) over one
    denominator; the parts are views."""

    __slots__ = ()

    def __init__(self, x_part: Element, str_part: StrElement, y_part: Element):
        parts = (x_part, str_part, y_part)
        if any(p.algebra is not x_part.algebra for p in parts):
            raise MismatchError("CoElement parts belong to different algebras")
        den = math.lcm(*(p.den for p in parts))
        self._set(x_part.algebra, [v * (den // p.den) for p in parts for v in p.nums], den)

    @classmethod
    def x(cls, u: Element):
        return cls(u, StrElement.zero(u.algebra), u.algebra.zero())

    @classmethod
    def y(cls, v: Element):
        return cls(v.algebra.zero(), StrElement.zero(v.algebra), v)

    @classmethod
    def s(cls, u: Element, v: Element):
        m, den = u.algebra.smul_matrix(u, v)
        return cls(u.algebra.zero(), StrElement._make(u.algebra, m.ravel().tolist(), den),
                   u.algebra.zero())

    @property
    def x_part(self) -> Element:
        return Element._make(self.algebra, self.nums[:self.algebra.dim], self.den)

    @property
    def str_part(self) -> StrElement:
        n = self.algebra.dim
        return StrElement._make(self.algebra, self.nums[n:-n], self.den)

    @property
    def y_part(self) -> Element:
        return Element._make(self.algebra, self.nums[-self.algebra.dim:], self.den)

    def __repr__(self):
        return f"CoElement({self.algebra.spec}, x={list(self.x_part.coords)}, y={list(self.y_part.coords)})"


def co_bracket(a: CoElement, b: CoElement) -> CoElement:
    """Lie bracket on co(V); antisymmetric, satisfies the Jacobi identity.

    With the numerators of a over its denominator d_a and those of b over d_b,
    the x part is (M_a x_b - M_b x_a) / (d_a d_b), the y part
    (M_b' y_a - M_a' y_b) / (d_a d_b lg) and the str part
    (2 [M_a, M_b] - 4 S(x_a, y_b) + 4 S(x_b, y_a)) / (2 d_a d_b)."""
    if a.algebra is not b.algebra:
        raise MismatchError("CoElements belong to different algebras")
    alg, n = a.algebra, a.algebra.dim
    gnum, lg, factor = _bracket_constants(alg)
    c2, (na, nb) = alg._kernel_arrays(a.nums, b.nums, factor=factor)
    ax, am, ay = na[:n], na[n:-n].reshape(n, n), na[-n:]
    bx, bm, by = nb[:n], nb[n:-n].reshape(n, n), nb[-n:]
    x = am @ bx - bm @ ax
    y = _adjoint_nums(bm, gnum, lg) @ ay - _adjoint_nums(am, gnum, lg) @ by
    m = 2 * (am @ bm - bm @ am) - _snum(c2, ax, by) + _snum(c2, bx, ay)
    den = a.den * b.den
    return CoElement(Element._make(alg, x.tolist(), den), StrElement(alg, (m, 2 * den)),
                     Element._make(alg, y.tolist(), den * lg))


def structure_constants(alg: Algebra):
    """(c, den): [z_i, z_j] = sum_k c[i, j, k] z_k / den in the basis
    z = (X_{e_a}, B_k, Y_{e_a}) of co(V), B_k the pivot rows of the certified
    str(V) span read as n x n matrices.  The blocks are those of co_bracket,
    each read for all basis pairs at once: [X_a, Y_b] = -4 S_{e_a e_b} / 2,
    [B_k, X_a] = X_{B_k e_a}, [B_k, Y_a] = -Y_{B_k' e_a} and
    [B_k, B_l] = B_k B_l - B_l B_k, where a str(V) matrix m has the
    coordinates m[cols] adj / span.den."""
    key = "structure_constants"
    if key not in alg._cache:
        n, span = alg.dim, _str_span_exact(alg)
        r, gnum, lg = span.rank, *_bracket_constants(alg)[:2]
        den = math.lcm(lg, 2 * span.den)
        s4 = np.swapaxes(_snums(alg), 0, 1)  # [a, b]: 4 S_{e_a e_b}
        b = span.basis.reshape(r, n, n)
        # every entry below is at most this, partial sums included
        bound = den * max(r * _max_abs(span.adj) * (_max_abs(s4) + 2 * n * _max_abs(b) ** 2),
                          _max_abs(b) * max(gnum))
        dtype = _exact_dtype(bound, np.float64)  # float64 for the BLAS products
        adj, b = span.adj.astype(dtype), b.astype(dtype)
        rows, cols = divmod(np.array(span.cols), n)
        # [p, k, l]: entry cols[p] of B_k B_l
        prod = b[:, rows, :].transpose(1, 0, 2) @ b[:, :, cols].transpose(2, 1, 0)
        c = np.zeros((2 * n + r,) * 3, dtype=np.int64 if dtype is np.float64 else object)
        xs, ss, ys = slice(0, n), slice(n, n + r), slice(n + r, None)
        c[xs, ys, ss] = -(s4[:, :, span.cols] @ adj) * (den // (2 * span.den))
        c[ss, xs, xs] = np.swapaxes(b, 1, 2) * den
        c[ss, ys, ys] = -np.swapaxes(_adjoint_nums(b, gnum, lg), 1, 2) * (den // lg)
        c[ss, ss, ss] = prod.transpose(1, 2, 0) @ adj * (den // span.den)
        c[ss, ss] -= np.swapaxes(c[ss, ss], 0, 1).copy()
        for i, j in ((xs, ys), (ss, xs), (ss, ys)):
            c[j, i] = -np.swapaxes(c[i, j], 0, 1)
        alg._cache[key] = c, den
    return alg._cache[key]


def cartan_involution(a: CoElement) -> CoElement:
    """theta: X_u -> Y_u, Y_u -> X_u, S_uv -> -S_vu (adjoint negation)."""
    adj, den = a.str_part.adjoint_matrix()
    return CoElement(a.y_part, -StrElement._make(a.algebra, adj.ravel().tolist(), den), a.x_part)


@dataclass
class RootData:
    """Rational real form (h~, a, s) of the distinguished sl2 triples: the
    center direction (c = e) and the alpha_0 root (c = first frame idempotent).
    The paper's triple is H = i h~, E+- = i a -+ s."""

    h_e: CoElement
    a_e: CoElement
    s_e: CoElement
    h_alpha0: CoElement
    a_alpha0: CoElement
    s_alpha0: CoElement


def root_data(alg: Algebra) -> RootData:
    """h~_c = X_c + Y_c, a_c = (X_c - Y_c)/2, s_c = S_{c,e} for c = e and for
    the first frame idempotent.  These satisfy [h~, a] = 2s, [h~, s] = -2a and
    [a, s] = -h~/2, the real and imaginary parts of [H, E+-] = +-2E+- and
    [E+, E-] = -H."""

    def triple_for(c: Element):
        return (CoElement.x(c) + CoElement.y(c),
                (CoElement.x(c) - CoElement.y(c)).scaled(Fraction(1, 2)),
                CoElement.s(c, alg.identity()))

    return RootData(*triple_for(alg.identity()), *triple_for(alg.jordan_frame()[0]))


def random_co_element(alg: Algebra, rng, span: int = 5) -> CoElement:
    """Random exact CoElement with a certified random structure part."""
    x = alg.random_element(rng, span=span)
    y = alg.random_element(rng, span=span)
    m = CoElement.s(alg.random_element(rng, span=span), alg.random_element(rng, span=span))
    return CoElement.x(x) + CoElement.y(y) + m
