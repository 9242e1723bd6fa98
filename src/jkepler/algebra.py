"""Simple euclidean Jordan algebras as explicit structure-constant tables.

The five families (with rank rho, degree delta, dimension n):

    gamma:k   spin factor R + R^k          (2, k-1, k+1)      k >= 2
    h:k:R     symmetric real k x k         (k, 1, k(k+1)/2)   k = 1 or k >= 3
    h:k:C     hermitian complex k x k      (k, 2, k^2)        k >= 3
    h:k:H     hermitian quaternion k x k   (k, 4, k(2k-1))    k >= 3
    h:3:O     hermitian octonion 3 x 3     (3, 8, 27)

Elements live in the *rational frame* (diagonal matrix units E_ii and
symmetrized off-diagonal units F_ij^mu; the natural basis for spin
factors), in which every structure constant is rational with denominator
dividing 2 and the invariant inner product <u|v> = tr(uv)/rho has a
diagonal rational Gram matrix.  The float64 orthonormal rescaling of this
frame, which only the cone geometry uses, lives in jkepler.cone.

Exact data over V has one stored form, that of poly.Poly: integer
numerators over one reduced positive denominator (`coords` is a Fraction
view).  Products, L and S matrices and the dual triple tensor run on the
numerators as ExactArrays, whose every step reads its bound off its
operands and runs in float64, int64 or Python ints; the matrix kernels
return (numerators, denominator).

The quaternionic and octonionic entries are realified; the trace is the real
diagonal sum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import divalg
from .poly import MismatchError, exact_parts, numerators
from .symfun import elementary_from_power

_FAMILIES = ("gamma", "hr", "hc", "hh", "ho")
_DIVISION_DIM = {"hr": 1, "hc": 2, "hh": 4, "ho": 8}


class SpecificationError(ValueError):
    """Invalid algebra family or parameter."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class AlgebraSpec:
    """Family tag plus size parameter k."""

    family: str
    k: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise SpecificationError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        k = self.k
        if self.family == "gamma" and k < 2:
            raise SpecificationError(f"spin factor gamma:{k} invalid: k >= 2 required (gamma(1) is not simple)")
        if self.family == "hr" and not (k == 1 or k >= 3):
            raise SpecificationError(f"h:{k}:R invalid: k = 1 or k >= 3 required (h:2:R duplicates gamma:2)")
        if self.family in ("hc", "hh") and k < 3:
            raise SpecificationError(f"{self} invalid: k >= 3 required (rank-2 cases duplicate spin factors)")
        if self.family == "ho" and k != 3:
            raise SpecificationError(f"h:{k}:O invalid: only k = 3 yields a Jordan algebra")

    @classmethod
    def parse(cls, text: str) -> "AlgebraSpec":
        """Parse spec strings: gamma:k, h:k:R, h:k:C, h:k:H, h:3:O."""
        parts = text.strip().split(":")
        try:
            if len(parts) == 2 and parts[0].lower() == "gamma":
                return cls("gamma", int(parts[1]))
            if len(parts) == 3 and parts[0].lower() == "h":
                fam = {"r": "hr", "c": "hc", "h": "hh", "o": "ho"}[parts[2].lower()]
                return cls(fam, int(parts[1]))
        except (KeyError, ValueError) as exc:
            if isinstance(exc, SpecificationError):
                raise
            raise SpecificationError(f"cannot parse algebra spec {text!r}; grammar: gamma:k | h:k:R|C|H|O") from exc
        raise SpecificationError(f"cannot parse algebra spec {text!r}; grammar: gamma:k | h:k:R|C|H|O")

    def __str__(self):
        if self.family == "gamma":
            return f"gamma:{self.k}"
        letter = {"hr": "R", "hc": "C", "hh": "H", "ho": "O"}[self.family]
        return f"h:{self.k}:{letter}"

    @property
    def table(self) -> tuple[int, int, int]:
        """(rho, delta, n) from the classification table."""
        k = self.k
        if self.family == "gamma":
            return 2, k - 1, k + 1
        delta = _DIVISION_DIM[self.family]
        return k, delta, k + k * (k - 1) * delta // 2


class _Exact:
    """Exact data over an algebra in its one stored form: integer numerators
    `nums` (a tuple) over one positive denominator `den`, with
    gcd(den, *nums) == 1.  Sums bring both operands to the lcm of their
    denominators."""

    __slots__ = ("algebra", "nums", "den")

    def _set(self, algebra: "Algebra", nums, den: int):
        g = math.gcd(den, *nums)
        self.algebra, self.den = algebra, den // g
        self.nums = tuple(nums) if g == 1 else tuple(v // g for v in nums)
        return self

    @classmethod
    def _make(cls, algebra: "Algebra", nums, den: int):
        """nums / den with gcd(den, *nums) divided out; nums are Python ints."""
        return cls.__new__(cls)._set(algebra, nums, den)

    def _check(self, other: "_Exact"):
        if self.algebra is not other.algebra:
            raise MismatchError("elements belong to different algebras")

    def _sum(self, other, sign: int):
        self._check(other)
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, sign * (den // other.den)
        return self._make(self.algebra, [a * m1 + b * m2 for a, b in zip(self.nums, other.nums)], den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._make(self.algebra, [-a for a in self.nums], self.den)

    def scaled(self, s):
        """s times self for an int or Fraction s; MismatchError otherwise."""
        num, den = exact_parts(s)
        return self._make(self.algebra, [num * a for a in self.nums], self.den * den)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.algebra is other.algebra and self.den == other.den and self.nums == other.nums

    def is_zero(self) -> bool:
        return not any(self.nums)

    def exact(self) -> "ExactArray":
        """The numerators as an ExactArray, the input of the kernels."""
        return ExactArray.of(self.nums)


class Element(_Exact):
    """Vector in a fixed algebra with exact coordinates."""

    __slots__ = ()

    def __init__(self, algebra: "Algebra", coords):
        """int or Fraction coordinates; MismatchError for any other."""
        coords = list(coords)
        if len(coords) != algebra.dim:
            raise MismatchError(f"coords length {len(coords)} != dim {algebra.dim}")
        self._set(algebra, *numerators(coords))

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.product(self, other)
        return self.scaled(other)

    __rmul__ = _Exact.scaled

    def __repr__(self):
        return f"Element({self.algebra.spec}, {list(self.coords)!r})"


# Exact integer arithmetic: every kernel computes on ExactArray, which picks
# the dtype of each step (_exact_dtype), and stores through exact_ints.  No
# other module picks a dtype.  A matrix-matrix product of _BLAS_MIN multiply-
# adds or more runs in float64 (BLAS) below 2^53: on the kernels' shapes it
# beats int64 from about 3,000-4,500, its casts included, and a
# matrix-vector product never does.
_BLAS_MIN = 2**12
_INT, _FLOAT, _OBJECT = np.dtype(np.int64), np.dtype(np.float64), np.dtype(object)


def _max_abs(a: np.ndarray) -> int:
    """max(1, largest |entry|) of an integer array, from its least and largest
    entries as Python ints: np.abs would wrap at the most negative value of a
    signed dtype (-2^63 for int64)."""
    return max(1, -int(a.min(initial=0)), int(a.max(initial=0)))


def _exact_dtype(bound: int, blas: bool = False) -> np.dtype:
    """The dtype of a step whose every entry and partial sum is at most bound:
    float64 below 2^53 when blas, int64 below 2^63, else object (Python ints)."""
    if blas and bound < 2**53:
        return _FLOAT
    return _INT if bound < 2**63 else _OBJECT


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    """a in dtype; float64 reaches Python ints through int64."""
    if a.dtype is dtype or a.dtype == dtype:
        return a
    return (a.astype(np.int64) if a.dtype is _FLOAT and dtype == object else a).astype(dtype)


class ExactArray:
    """An integer array with a bound on its largest |entry|, read once when an
    array is wrapped.  Its arithmetic (@, +, -, * by an int or entrywise) is
    exact: each result's bound is read off the operands', never derived by
    hand (k A B for a matrix product with contracted length k, A B for a
    product, A + B for a sum), holds every entry and partial sum, and picks
    the dtype of the step.  Views (reshape, swapaxes, transpose, [index])
    keep the bound."""

    __slots__ = ("array", "bound")
    __array_ufunc__ = None  # numpy defers to these methods, never wrapping one in an array

    def __init__(self, array: np.ndarray, bound: int = 0):
        self.array, self.bound = array, bound or _max_abs(array)

    @classmethod
    def of(cls, nums) -> "ExactArray":
        """A sequence of Python ints, stored as exact_ints stores it."""
        bound = max(1, max(nums, default=0), -min(nums, default=0))
        return cls(np.array(nums, dtype=_exact_dtype(bound)), bound)

    def prepared(self) -> "ExactArray":
        """self in float64 where it fits, for a table that many large products
        reuse: they then run in float64 without casting it again."""
        fits = _exact_dtype(self.bound, True) is _FLOAT
        return ExactArray(self.array.astype(np.float64), self.bound) if fits else self

    def ints(self) -> np.ndarray:
        """The array, stored: int64, or object once past int64."""
        a = self.array
        return a if a.dtype is _INT or a.dtype is _OBJECT else a.astype(np.int64)

    def stored(self, divisor: int = 1, wide: bool = False) -> "ExactArray":
        """self // divisor for a divisor of every entry, stored as ints()
        stores it, or as Python ints if wide; the bound divides too."""
        a = self.ints().astype(object) if wide else self.ints()
        return ExactArray(a // divisor if divisor > 1 else a, self.bound // divisor)

    def _step(self, f, other, bound: int, blas: bool) -> "ExactArray":
        dtype = _exact_dtype(bound, blas)
        a, b = self.array, other if type(other) is int else other.array
        if a.dtype is not dtype:
            a = _cast(a, dtype)
        if type(b) is not int and b.dtype is not dtype:
            b = _cast(b, dtype)
        return ExactArray(f(a, b), bound)

    def _floats(self, other) -> bool:
        return self.array.dtype is _FLOAT and (type(other) is int or other.array.dtype is _FLOAT)

    def __matmul__(self, other):
        a, b, k = self.array, other.array, self.array.shape[-1]
        blas = (a.dtype is _FLOAT or b.dtype is _FLOAT
                or a.ndim > 1 and b.ndim > 1 and a.size * b.size >= _BLAS_MIN * k)
        return self._step(np.matmul, other, k * self.bound * other.bound, blas)

    def __mul__(self, other):
        bound = max(1, abs(other)) if type(other) is int else other.bound
        return self._step(np.multiply, other, bound * self.bound, self._floats(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return self._step(np.add, other, self.bound + other.bound, self._floats(other))

    def __sub__(self, other):
        return self._step(np.subtract, other, self.bound + other.bound, self._floats(other))

    def __getitem__(self, index):
        return ExactArray(self.array[index], self.bound)

    def reshape(self, *shape):
        return ExactArray(self.array.reshape(*shape), self.bound)

    def swapaxes(self, a: int, b: int):
        return ExactArray(self.array.swapaxes(a, b), self.bound)

    def transpose(self, *axes):
        return ExactArray(self.array.transpose(*axes), self.bound)


def exact_ints(t) -> np.ndarray:
    """Integer numerators, an array or a sequence of Python ints, stored as
    int64 where every entry fits, else as an object array of Python ints."""
    if isinstance(t, np.ndarray):
        return t if t.dtype is _INT else t.astype(_exact_dtype(_max_abs(t)))
    return ExactArray.of(tuple(t)).array


class Stack:
    """Elements of one algebra on a leading axis, the form in which the
    kernels and the generator builders take many elements at once: the
    numerators, an ExactArray of shape (k, n), over one positive denominator
    `den`, not reduced.  Algebra.product of two stacks is the stack of the
    row products."""

    __slots__ = ("algebra", "nums", "den")

    def __init__(self, algebra: "Algebra", nums: ExactArray, den: int = 1):
        self.algebra, self.nums, self.den = algebra, nums, den

    @classmethod
    def of(cls, elements) -> "Stack":
        """The elements, one a row, over the lcm of their denominators."""
        den = math.lcm(*(e.den for e in elements))
        nums = ExactArray.of([v * (den // e.den) for e in elements for v in e.nums])
        return cls(elements[0].algebra, nums.reshape(len(elements), -1), den)

    def exact(self) -> ExactArray:
        return self.nums

    _check = _Exact._check

    def __mul__(self, other: "Stack") -> "Stack":
        return self.algebra.product(self, other)

    def __sub__(self, other: "Stack") -> "Stack":
        self._check(other)
        den = math.lcm(self.den, other.den)
        return Stack(self.algebra, (den // self.den) * self.nums - (den // other.den) * other.nums,
                     den)

    def nonzero_rows(self) -> np.ndarray:
        """The indices of the rows that are not zero, ascending."""
        return np.flatnonzero((self.nums.array != 0).any(axis=-1))


# Integer kernels on ExactArray numerators; x may carry leading batch axes.

def _lnum(c2: ExactArray, x: ExactArray) -> ExactArray:
    """2 L_x: [..., g, b] = sum_a c2[a, b, g] x[..., a], for x a vector or a
    stack of them and c2 read as an n x n^2 matrix: one matmul, so it equals
    np.tensordot."""
    n = len(c2.array)
    return (x @ c2).reshape(*x.array.shape[:-1], n, n).swapaxes(-1, -2)


def _snum(c2: ExactArray, a: ExactArray, y: ExactArray) -> ExactArray:
    """4 S_xy = [A, B] + L(A y) with A = 2 L_x, B = 2 L_y (A y = 2 xy), from
    A; for a stack of A, a stack of 4 S.  The stack of 2 L_{e_a} is
    np.swapaxes(c2, 1, 2), which needs no product."""
    b = _lnum(c2, y)
    return a @ b - b @ a + _lnum(c2, (a @ y[..., None])[..., 0])


class Algebra:
    """A simple euclidean Jordan algebra in its rational frame."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.rho, self.delta, self.dim = spec.table
        if spec.family == "gamma":
            c2, gram, labels, ident = _build_spin(spec.k)
        else:
            c2, gram, labels, ident = _build_hermitian(spec.k, _DIVISION_DIM[spec.family])
        n = self.dim
        assert c2.shape == (n, n, n)
        self._c2 = c2
        self.gram = tuple(gram)
        self._gram = numerators(gram)
        self.basis = tuple(labels)
        self.identity_coords = tuple(ident)
        self._gram_nums = ExactArray.of(self._gram[0])
        self._cache = {}

    @functools.cached_property
    def _table(self) -> ExactArray:
        """c2 as an n x n^2 matrix, max|c2| read once, on the first product
        (jk info needs none).  Kept in float64 once a product of one element
        with it, n^3 multiply-adds, is as large as a float64 step (_BLAS_MIN)."""
        table = ExactArray(self._c2.reshape(self.dim, -1))
        return table.prepared() if self.dim ** 3 >= _BLAS_MIN else table

    @functools.cached_property
    def _stack(self) -> ExactArray:
        """The stack of 2 L_{e_a}, a view of _table."""
        n = self.dim
        return self._table.reshape(n, n, n).swapaxes(1, 2)

    # --- constructors ---------------------------------------------------

    def zero(self) -> Element:
        return Element._make(self, [0] * self.dim, 1)

    def identity(self) -> Element:
        return Element(self, self.identity_coords)

    def basis_element(self, alpha: int) -> Element:
        nums = [0] * self.dim
        nums[alpha] = 1
        return Element._make(self, nums, 1)

    def random_element(self, rng, span: int = 9, denominator: int = 1) -> Element:
        """Deterministic random element: integer coords in [-span, span] over
        the given denominator."""
        nums = rng.integers(-span, span + 1, self.dim)
        return Element._make(self, nums.tolist(), int(denominator))

    # --- products ---------------------------------------------------------

    def product(self, u, v):
        """uv for two elements, or row by row for two stacks (a Stack)."""
        u._check(v)
        x, y = u.exact(), v.exact()
        # sum_b y_b (x c2)[b, g]: 2 L_x y without the transpose
        xc = (x @ self._table).reshape(*x.array.shape[:-1], self.dim, self.dim)
        prod, den = (y[..., None, :] @ xc)[..., 0, :], 2 * u.den * v.den
        if prod.array.ndim > 1:
            return Stack(self, prod, den)
        return Element._make(self, prod.ints().tolist(), den)

    def lmul_matrix(self, u):
        """L_u: v -> uv, as (nums, den); for a stack, the stack of them."""
        return _lnum(self._table, u.exact()).ints(), 2 * u.den

    def smul_matrix(self, u, v):
        """S_uv = [L_u, L_v] + L_{uv}, as (nums, den); for two stacks, the
        stack of them, row by row."""
        u._check(v)
        a = _lnum(self._table, u.exact())
        return _snum(self._table, a, v.exact()).ints(), 4 * u.den * v.den

    def triple(self, u: Element, v: Element, w: Element) -> Element:
        """Jordan triple product {uvw} = S_uv w = u(vw) - v(uw) + (uv)w."""
        p = self.product
        return p(u, p(v, w)) - p(v, p(u, w)) + p(p(u, v), w)

    # --- trace, inner product, spectral invariants -------------------------

    def inner_nums(self, u, v) -> ExactArray:
        """<u|v> times gden u.den v.den (gden the Gram denominator), of shape
        (1,), or (k, 1) row by row for two stacks."""
        u._check(v)
        return (u.exact() * v.exact()) @ self._gram_nums[:, None]

    def inner(self, u: Element, v: Element) -> Fraction:
        """<u|v> = tr(uv)/rho."""
        return Fraction(int(self.inner_nums(u, v).ints()[0]), self._gram[1] * u.den * v.den)

    def trace(self, u: Element):
        return self.rho * self.inner(u, self.identity())

    def quad_rep(self, x: Element):
        """P(x) = 2 L_x^2 - L_{x^2}, as (nums, den)."""
        (a, ad), (b, bd) = self.lmul_matrix(x), self.lmul_matrix(self.product(x, x))
        a, b = ExactArray(a), ExactArray(b)
        return (2 * bd * (a @ a) - ad * ad * b).ints(), ad * ad * bd

    def power_traces(self, x: Element, m: int) -> list:
        """[tr x, tr x^2, ..., tr x^m]."""
        out = []
        p = x
        for j in range(m):
            out.append(self.trace(p))
            if j < m - 1:
                p = self.product(p, x)
        return out

    def sym_c(self, x: Element, k: int):
        """c_k(x): k-th elementary symmetric function of the Jordan eigenvalues,
        as the Newton polynomial in tr x .. tr x^k."""
        if not 1 <= k <= self.rho:
            raise DomainError(f"sym_c needs 1 <= k <= rho = {self.rho}")
        return elementary_from_power(self.power_traces(x, k), k)[-1]

    def det(self, x: Element):
        """det x = product of the Jordan eigenvalues = c_rho(x)."""
        return self.sym_c(x, self.rho)

    # --- frames ---------------------------------------------------------------

    def jordan_frame(self) -> tuple:
        """Canonical frame, a complete system of orthogonal primitive
        idempotents: diagonal matrix units, or (1/2, +-1/2 e_1) for spin."""
        if self.spec.family == "gamma":
            rest = [0] * (self.dim - 2)
            return (Element._make(self, [1, 1] + rest, 2), Element._make(self, [1, -1] + rest, 2))
        return tuple(self.basis_element(i) for i in range(self.rho))

    # --- misc ----------------------------------------------------------------

    def dual_triple_tensor(self, u):
        """T[a,b,g]: coefficient of x^g d_a d_b in <x|{D u D}> where D pairs
        derivatives with the metric-dual basis, as (nums, den), or the stack
        of them for a stack: with gram = gnum / gden, S_{e_a u}[g,b] gram[g] /
        (gram[a] gram[b]) = 4 S_{e_a u}[g,b] w[a,b,g] / (4 lg),
        w = lg gnum[g] gden / (gnum[a] gnum[b]) built once."""
        if "gram_weight" not in self._cache:
            gnum, gden = self._gram
            g, lg = np.array(gnum, dtype=object), math.lcm(*gnum) ** 2
            w = exact_ints(np.multiply.outer(lg // np.multiply.outer(g, g), g * gden))
            self._cache["gram_weight"] = ExactArray(w), lg
        w, lg = self._cache["gram_weight"]
        # [..., a, g, b] = 4 S_{e_a u}[g, b]: a row of u against the stack of 2 L_{e_a}
        s = _snum(self._table, self._stack, u.exact()[..., None, :])
        return (w * s.swapaxes(-1, -2)).ints(), 4 * u.den * lg

    def e_perp_basis(self) -> list:
        """A basis of the trace-free hyperplane e-perp, n - 1 elements: the
        basis elements projected onto it, less the last one where e has a
        nonzero coordinate.  e is the sum of those basis elements (the
        diagonal E_ii of a hermitian family, e itself on a spin factor), so
        their projections sum to zero."""
        e = self.identity()
        last = max(a for a, c in enumerate(self.identity_coords) if c)
        keep = [a for a in range(self.dim) if a != last]
        return [b - e.scaled(self.inner(b, e)) for b in map(self.basis_element, keep)]

    def __repr__(self):
        return f"Algebra({self.spec}, rho={self.rho}, delta={self.delta}, n={self.dim})"


def _build_spin(k: int):
    n = k + 1
    c2 = np.zeros((n, n, n), dtype=np.int64)
    c2[0, 0, 0] = 2
    for i in range(1, n):
        c2[0, i, i] = c2[i, 0, i] = 2
        c2[i, i, 0] = 2
    gram = [Fraction(1)] * n
    labels = ["s"] + [f"v{i}" for i in range(1, n)]
    ident = [Fraction(1)] + [Fraction(0)] * k
    return c2, gram, labels, ident


def _build_hermitian(k: int, ddim: int):
    n = k + k * (k - 1) * ddim // 2
    # basis[a, i, j, mu]: component mu of entry (i, j) of basis matrix a
    basis = np.zeros((n, k, k, ddim), dtype=np.int64)
    labels = []
    for i in range(k):
        basis[i, i, i, 0] = 1
        labels.append(f"E{i+1}{i+1}")
    a = k
    for i in range(k):
        for j in range(i + 1, k):
            for mu in range(ddim):
                basis[a, i, j, mu] = 1
                basis[a, j, i, mu] = 1 if mu == 0 else -1
                labels.append(f"F{i+1}{j+1}:{mu}")
                a += 1
    # 2(a o b) = ab + ba, entrywise over the division-algebra product.  The
    # einsum runs on float64, where numpy has a BLAS kernel and int64 has
    # none.  It is exact: every entry is in {-1, 0, 1}, so every sum, partial
    # ones included, is an integer of at most k ddim^2 in absolute value.
    ab = np.einsum("ails,bljt,str->abijr", basis.astype(np.float64), basis.astype(np.float64),
                   divalg.mul_tensor(ddim).astype(np.float64), optimize=True).astype(np.int64)
    twice = ab + ab.transpose(1, 0, 2, 3, 4)
    diag = twice[:, :, range(k), range(k), :]
    if diag[..., 1:].any():
        raise AssertionError("hermitian product has non-real diagonal")
    iu, ju = np.triu_indices(k, 1)
    # C order matters: the cone layer's float structure tensor takes the
    # memory layout of c2, and the bits of its float products depend on it.
    c2 = np.ascontiguousarray(np.concatenate([diag[..., 0], twice[:, :, iu, ju, :].reshape(n, n, -1)], axis=2))
    gram = [Fraction(1, k)] * k + [Fraction(2, k)] * (n - k)
    ident = [Fraction(1)] * k + [Fraction(0)] * (n - k)
    return c2, gram, labels, ident


def make_algebra(spec) -> Algebra:
    """Build an algebra from an AlgebraSpec or a spec string."""
    if isinstance(spec, str):
        spec = AlgebraSpec.parse(spec)
    return Algebra(spec)
