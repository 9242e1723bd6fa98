"""The conformal (TKK) Lie algebra co(V) = V + str(V) + V* as a bracket algebra.

Elements are triples (X_u part, structure-algebra part, Y_v part).  The
bracket is fixed by

    [X_u, X_v] = 0,  [Y_u, Y_v] = 0,  [X_u, Y_v] = -2 S_uv,
    [S, X_z] = X_{Sz},  [S, Y_z] = -Y_{S'z},  [S, S'] = matrix commutator,

where S' denotes the adjoint with respect to <.|.>.  Every part is exact:
Element parts have Fraction coordinates, and a structure-algebra part is
certified to lie in span{S_uv} at construction by an exact solve against a
row-reduced basis.

co(V) is a real Lie algebra, so the sl2 root triples are kept in their
rational real form (h~, a, s); the paper's triple H = i h~, E+- = i a -+ s is
its Cayley transform, and its relations are the real and imaginary parts of
the relations among h~, a and s.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import EXACT, FLOAT, Algebra, Element, MismatchError


class ConsistencyError(RuntimeError):
    """A bracket left the certified structure-algebra span."""


# --- structure-algebra span ---------------------------------------------------

class _ExactSpan:
    """Row-reduced spanning set over Q with exact membership tests."""

    def __init__(self, vectors):
        self.rows = {}  # pivot index -> reduced row (object ndarray)
        for v in vectors:
            self.insert(v)

    def _reduce(self, v):
        v = np.array(v, dtype=object)
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                v = v - c * row
        return v

    def insert(self, v) -> bool:
        v = self._reduce(v)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        self.rows[piv] = v * (1 / Fraction(v[piv]))
        return True

    def contains(self, v) -> bool:
        return all(not c for c in self._reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)


def _str_span_exact(alg: Algebra) -> _ExactSpan:
    key = "str_span_exact"
    if key not in alg._cache:
        gens = []
        for a in range(alg.dim):
            ba = alg.basis_element(a)
            for b in range(alg.dim):
                s = alg.smul_matrix(ba, alg.basis_element(b))
                gens.append(s.reshape(-1))
        alg._cache[key] = _ExactSpan(gens)
    return alg._cache[key]


def dim_str(alg: Algebra) -> int:
    """Dimension of the structure algebra span{S_uv} (float SVD rank)."""
    key = "dim_str"
    if key not in alg._cache:
        n = alg.dim
        gens = np.empty((n * n, n * n))
        col = 0
        for a in range(n):
            ba = alg.basis_element(a, FLOAT)
            for b in range(n):
                s = alg.smul_matrix(ba, alg.basis_element(b, FLOAT))
                gens[:, col] = s.reshape(-1)
                col += 1
        sv = np.linalg.svd(gens, compute_uv=False)
        alg._cache[key] = int(np.sum(sv > 1e-8 * sv[0]))
    return alg._cache[key]


def dim_co(alg: Algebra) -> int:
    """dim co(V) = 2 dim V + dim str(V)."""
    return 2 * alg.dim + dim_str(alg)


def _certify(alg: Algebra, matrix):
    if not _str_span_exact(alg).contains(np.asarray(matrix, dtype=object).reshape(-1)):
        raise ConsistencyError("matrix is not in span{S_uv}")


class StrElement:
    """Endomorphism certified to lie in the structure algebra."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: Algebra, matrix, _certified: bool = False):
        self.algebra = algebra
        self.matrix = np.asarray(matrix, dtype=object)
        if not _certified:
            _certify(algebra, self.matrix)

    @classmethod
    def zero(cls, algebra: Algebra):
        n = algebra.dim
        return cls(algebra, np.full((n, n), Fraction(0), dtype=object), _certified=True)

    def adjoint_matrix(self):
        """Adjoint with respect to <.|.>: diagonal-Gram conjugated transpose."""
        g = self.algebra.gram
        n = self.algebra.dim
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                out[i, j] = self.matrix[j, i] * g[j] / g[i]
        return out

    def is_zero(self) -> bool:
        return all(not c for c in self.matrix.flat)


class CoElement:
    """(u, M, v) in V + str(V) + V*: coefficients of X_u, an endomorphism, Y_v."""

    __slots__ = ("algebra", "x_part", "str_part", "y_part")

    def __init__(self, x_part: Element, str_part: StrElement, y_part: Element):
        if x_part.algebra is not str_part.algebra or x_part.algebra is not y_part.algebra:
            raise MismatchError("CoElement parts belong to different algebras")
        if x_part.mode != EXACT or y_part.mode != EXACT:
            raise MismatchError("CoElement parts must be exact")
        self.algebra = x_part.algebra
        self.x_part = x_part
        self.str_part = str_part
        self.y_part = y_part

    @classmethod
    def x(cls, u: Element):
        return cls(u, StrElement.zero(u.algebra), u.algebra.zero())

    @classmethod
    def y(cls, v: Element):
        return cls(v.algebra.zero(), StrElement.zero(v.algebra), v)

    @classmethod
    def s(cls, u: Element, v: Element):
        m = u.algebra.smul_matrix(u, v)
        return cls(u.algebra.zero(), StrElement(u.algebra, m, _certified=True), u.algebra.zero())

    @classmethod
    def from_matrix(cls, alg: Algebra, m):
        return cls(alg.zero(), StrElement(alg, m), alg.zero())

    def __add__(self, other: "CoElement"):
        return CoElement(self.x_part + other.x_part,
                         StrElement(self.algebra, self.str_part.matrix + other.str_part.matrix,
                                    _certified=True),
                         self.y_part + other.y_part)

    def __sub__(self, other: "CoElement"):
        return CoElement(self.x_part - other.x_part,
                         StrElement(self.algebra, self.str_part.matrix - other.str_part.matrix,
                                    _certified=True),
                         self.y_part - other.y_part)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        return CoElement(self.x_part.scaled(c),
                         StrElement(self.algebra, c * self.str_part.matrix, _certified=True),
                         self.y_part.scaled(c))

    def is_zero(self) -> bool:
        return self.x_part.is_zero() and self.str_part.is_zero() and self.y_part.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CoElement):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return f"CoElement({self.algebra.spec}, x={list(self.x_part.coords)}, y={list(self.y_part.coords)})"


def co_bracket(a: CoElement, b: CoElement) -> CoElement:
    """Lie bracket on co(V); antisymmetric, satisfies the Jacobi identity."""
    if a.algebra is not b.algebra:
        raise MismatchError("CoElements belong to different algebras")
    alg = a.algebra
    m1, m2 = a.str_part.matrix, b.str_part.matrix
    x_out = alg.apply_matrix(m1, b.x_part) - alg.apply_matrix(m2, a.x_part)
    y_out = alg.apply_matrix(b.str_part.adjoint_matrix(), a.y_part) \
        - alg.apply_matrix(a.str_part.adjoint_matrix(), b.y_part)
    m_out = m1 @ m2 - m2 @ m1 \
        - 2 * alg.smul_matrix(a.x_part, b.y_part) \
        + 2 * alg.smul_matrix(b.x_part, a.y_part)
    return CoElement(x_out, StrElement(alg, m_out), y_out)


def cartan_involution(a: CoElement) -> CoElement:
    """theta: X_u -> Y_u, Y_u -> X_u, S_uv -> -S_vu (adjoint negation)."""
    return CoElement(a.y_part,
                     StrElement(a.algebra, -a.str_part.adjoint_matrix(), _certified=True),
                     a.x_part)


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


def root_data(alg: Algebra, frame=None) -> RootData:
    """h~_c = X_c + Y_c, a_c = (X_c - Y_c)/2, s_c = S_{c,e} for c = e and for
    the first frame idempotent.  These satisfy [h~, a] = 2s, [h~, s] = -2a and
    [a, s] = -h~/2, the real and imaginary parts of [H, E+-] = +-2E+- and
    [E+, E-] = -H."""
    if frame is None:
        frame = alg.jordan_frame()

    def triple_for(c: Element):
        return (CoElement.x(c) + CoElement.y(c),
                (CoElement.x(c) - CoElement.y(c)).scaled(Fraction(1, 2)),
                CoElement.s(c, alg.identity()))

    return RootData(*triple_for(alg.identity()), *triple_for(frame[0]))


def random_co_element(alg: Algebra, rng, span: int = 5) -> CoElement:
    """Random exact CoElement with a certified random structure part."""
    x = alg.random_element(rng, span=span)
    y = alg.random_element(rng, span=span)
    m = CoElement.s(alg.random_element(rng, span=span), alg.random_element(rng, span=span))
    return CoElement.x(x) + CoElement.y(y) + m
