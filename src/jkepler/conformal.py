"""The conformal (TKK) Lie algebra co(V) = V + str(V) + V* as a bracket algebra.

co(V) is spanned by the X_u, the structure algebra str(V) = span{S_uv} and
the Y_v, with the bracket fixed by

    [X_u, X_v] = 0,  [Y_u, Y_v] = 0,  [X_u, Y_v] = -2 S_uv,
    [S, X_z] = X_{Sz},  [S, Y_z] = -Y_{S'z},  [S, S'] = matrix commutator,

where S' denotes the adjoint with respect to <.|.>.

The span certificate is built once per algebra from the integer generators
4 S_{e_a e_b}, read from the nonzero entries of the structure table, with
zero rows and rows equal up to sign to an earlier one left out (138 of 729
rows remain on h:3:O, about 12 nonzero entries of 729 each).  Pivot rows
and columns are chosen mod p = 2^31 - 1 by forward elimination over those
sparse rows (`modp.row_pivots`).  The pivot minor A, nearly a signed
permutation matrix (one nonzero per row on h:3:O), is inverted exactly as
integers adj / den by sparse elimination, and A adj = den 1 is checked,
which proves rank >= r; every kept generator g, and so every generator,
then satisfies den g = (g[cols] adj) B exactly for the pivot rows B, which
proves rank <= r.  So dim str(V) is a certified exact rank, and a matrix v
of the span has the exact coordinates v[cols] adj / den in the pivot rows.

The pivot rows B_k, read as n x n matrices, with X_{e_a} and Y_{e_a} are the
basis z = (X_{e_a}, B_k, Y_{e_a}) of co(V).  A CoElement is its coordinates
in z, in the stored form of algebra.Element: integer numerators over one
reduced denominator.  structure_constants reads the bracket above on every
basis pair and certifies once that every [B_k, B_l] and every adjoint B_k'
lies in the span, so every coordinate it reads from the pivot columns is
exact; by bilinearity the table then holds every bracket.  co_bracket is
the contraction of two coordinate vectors with the table, and
cartan_involution one coordinate map.

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
from .algebra import (Algebra, Element, ExactArray, MismatchError, _Exact, _exact_dtype, _max_abs,
                      exact_ints)


class ConsistencyError(RuntimeError):
    """A commutator or adjoint of the str(V) basis left the certified span,
    or the span certificate itself failed."""


# --- structure-algebra span ---------------------------------------------------

class _StrSpan:
    """Pivot rows B (integer, r x n^2) of the generators and the exact inverse
    adj / den of their minor on cols."""

    def __init__(self, basis: np.ndarray, cols: list, adj: np.ndarray, den: int):
        self.basis, self.cols, self.adj, self.den = basis, cols, adj, den
        self._adj, self._basis = ExactArray(adj).prepared(), ExactArray(basis).prepared()

    @property
    def rank(self) -> int:
        return len(self.cols)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """v[:, cols] adj: numerators over den of the coordinates in basis of
        each row of the integer matrix v, exact for the rows that lie in the
        span; one exact product."""
        return (ExactArray(v[:, self.cols]) @ self._adj).ints()

    def lift(self, v: np.ndarray):
        """coords(v) if every row of the integer matrix v lies in the row span
        of basis, else None: the exact identity v den = coords(v) basis."""
        v = ExactArray(v)
        c = v[:, self.cols] @ self._adj
        return c.ints() if np.array_equal((self.den * v).ints(), (c @ self._basis).ints()) else None


def _join(left: np.ndarray, right: np.ndarray, size: int):
    """Every index pair (i, j) with left[i] == right[j], for keys in [0, size)."""
    order = np.argsort(right, kind="stable")
    counts = np.bincount(right, minlength=size)
    reps = counts[left]
    i = np.repeat(np.arange(len(left)), reps)
    ends = np.cumsum(reps)
    within = np.arange(len(i)) - np.repeat(ends - reps, reps)
    return i, order[(np.cumsum(counts) - counts)[left[i]] + within]


def _snum_products(c2: np.ndarray, w: int) -> np.ndarray:
    """The products that sum to the entries of _snum_entries, each packed as
    (flat index of its entry) w + product + w // 2, for w > 2 max|product|.
    A_a[i, j] = c2[a, j, i]: A_x A_y pairs the nonzero entries on j and adds
    to [b=y, a=x] and subtracts from [b=x, a=y]; 2 L_{A_a e_b} =
    sum_c c2[a, b, c] A_c pairs them on c."""
    n = len(c2)
    a, j, i = np.nonzero(c2)
    v = c2[a, j, i]
    left, right = _join(j, i, n)  # A_x[i, j] A_y[j, k]
    x, y, pos, prod = a[left], a[right], i[left] * n + j[right], v[left] * v[right]
    coef, mat = _join(i, a, n)  # c2[a, b, c] A_c[i, k] at [b, a]
    packed = np.concatenate([((y * n + x) * n * n + pos) * w + prod,
                             ((x * n + y) * n * n + pos) * w - prod,
                             ((j[coef] * n + a[coef]) * n * n + i[mat] * n + j[mat]) * w
                             + v[coef] * v[mat]])
    packed += w // 2
    return packed


def _snum_entries(alg: Algebra):
    """(row, col, val): the nonzero entries of the n^2 generators
    4 S_{e_a e_b} = [A_a, A_b] + 2 L_{A_a e_b}, A_a = 2 L_{e_a}, at row b n + a
    (its n x n matrix row-major), sorted by row and col.  They are summed
    from the products of the nonzero entries of c2 (_snum_products), which
    one sort groups by entry.  The values are small integers (at most 4 in
    every family), int8 when they fit."""
    n = alg.dim
    w = 2 * _max_abs(alg._c2) ** 2 + 1
    packed = _snum_products(alg._c2, w)  # its join temporaries are freed by now
    packed.sort()
    key, term = np.divmod(packed, w)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    term -= w // 2
    val = np.add.reduceat(term, starts)
    key, val = key[starts][val != 0], val[val != 0]
    small = val.astype(np.int8)
    return *divmod(key, n * n), small if np.array_equal(small, val) else val


def _generators(alg: Algebra):
    """(row, col, val): the nonzero entries of the distinct generators of
    str(V), sorted by row and col.  Of the rows of _snum_entries (4 S_{e_a e_b}
    at row b n + a) they are those that are not equal up to sign to an earlier
    row, in order, with row i the i-th of them.  Every generator is 0 or +- one
    of them, so they span str(V) and a certificate on them covers every
    generator."""
    row, col, val = _snum_entries(alg)
    first_entry = np.diff(row, prepend=-1) != 0
    starts, group = np.flatnonzero(first_entry), np.cumsum(first_entry) - 1
    # a row up to sign: its entries with the first one made positive
    width = 2 * _max_abs(val) + 1
    code = col * width + val * np.sign(val[starts])[group]
    first = {}
    for g, (s, e) in enumerate(zip(starts.tolist(), starts[1:].tolist() + [len(row)])):
        first.setdefault(code[s:e].tobytes(), g)
    kept = np.full(len(starts), -1)
    kept[list(first.values())] = np.arange(len(first))
    keep = kept[group] >= 0
    return kept[group][keep], col[keep], val[keep]


def _inverse(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(adj, den) with a adj = den 1 for the square integer matrix a, den the
    least common denominator of the entries of a^-1: Gauss-Jordan elimination
    over Z on sparse rows of [a | 1], each row divided by the gcd of its
    entries, with the pivot of a column taken from a row with fewest entries.
    Every row then holds d at its pivot column c and its right half is d times
    row c of a^-1, in lowest terms, so den is the lcm of the |d|.
    ConsistencyError if a is singular."""
    r = len(a)
    rows = [{r + i: 1} for i in range(r)]
    at = [set() for _ in range(r)]  # at[c]: the rows nonzero at column c < r
    for i, c in zip(*(part.tolist() for part in np.nonzero(a))):
        rows[i][c] = int(a[i, c])
        at[c].add(i)
    free, order = set(range(r)), []
    for c in range(r):
        if not at[c] & free:
            raise ConsistencyError("str(V) span certificate failed: the pivot minor is singular")
        k = min(at[c] & free, key=lambda i: (len(rows[i]), i))  # fewest entries, then first
        free.discard(k)
        order.append(k)
        pivot, pk = rows[k], rows[k][c]
        for t in at[c] - {k}:
            row, g = rows[t], math.gcd(pk, rows[t][c])
            f, h = pk // g, row[c] // g
            new = {}
            for d in row.keys() | pivot.keys():
                x = f * row.get(d, 0) - h * pivot.get(d, 0)
                if x:
                    new[d] = x
            g = math.gcd(*new.values())
            rows[t] = {d: x // g for d, x in new.items()}
            for d in row.keys() - new.keys():
                if d < r:
                    at[d].discard(t)
            for d in new.keys() - row.keys():
                if d < r:
                    at[d].add(t)
    den = math.lcm(*(rows[k][c] for c, k in enumerate(order)))
    entries = [(c, e - r, x * (den // rows[k][c])) for c, k in enumerate(order)
               for e, x in rows[k].items() if e >= r]
    c, e, x = zip(*entries)
    adj = np.zeros((r, r), dtype=object)
    adj[c, e] = x
    return exact_ints(adj), den


def _str_span_exact(alg: Algebra) -> _StrSpan:
    """The certified basis of span{S_uv}; ConsistencyError if a certificate
    fails, so no rank is returned unproved."""
    key = "str_span_exact"
    if key not in alg._cache:
        row, col, val = _generators(alg)
        gens = np.zeros((row[-1] + 1, alg.dim ** 2), dtype=val.dtype)
        gens[row, col] = val
        rows, cols = modp.row_pivots(row, col, val)
        basis = gens[rows]
        pivot = basis[:, cols]
        adj, den = _inverse(pivot)
        if not np.array_equal((ExactArray(pivot) @ ExactArray(adj)).ints(),
                              den * np.eye(len(rows), dtype=object)):
            raise ConsistencyError("str(V) span certificate failed: the pivot minor inverse "
                                   "is wrong")
        span = _StrSpan(basis, cols, adj, den)
        # in blocks of n rows, to keep the float64 temporaries small
        if any(span.lift(gens[i:i + alg.dim]) is None for i in range(0, len(gens), alg.dim)):
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


def _certify(alg: Algebra, nums: np.ndarray, what: str) -> np.ndarray:
    """The coordinates (_StrSpan.coords) of the n x n matrices of the stack
    nums (integer numerators, each matrix flat or square); ConsistencyError,
    naming them what, unless each lies in span{S_uv}."""
    coords = _str_span_exact(alg).lift(nums.reshape(len(nums), -1))
    if coords is None:
        raise ConsistencyError(f"{what} is not in span{{S_uv}}")
    return coords


# --- the basis of co(V) and its structure constants ---------------------------

class _CoTable:
    """The nonzero structure constants c[i, j, k] / den of co(V) in the basis
    z, grouped by k (i, j, k, vals; starts and ks for co_bracket), and the
    Cartan involution as a coordinate matrix theta / theta_den."""

    def __init__(self, alg: Algebra):
        n, span = alg.dim, _str_span_exact(alg)
        r, gnum = span.rank, alg._gram[0]
        lg = math.lcm(*gnum)
        w = exact_ints(np.array([[lg // g * h for h in gnum] for g in gnum], dtype=object))
        b = span.basis.reshape(r, n, n)
        bs = span._basis.reshape(r, n, n)  # cast once for every commutator (prepared)
        # B_k' = G^-1 B_k^T G: numerators (lg / g_i) B_k[j, i] g_j over lg
        badj = (ExactArray(w) * bs.swapaxes(1, 2)).ints()
        # 4 S_{e_a e_b} on the pivot columns at row a n + b (row b n + a of the entries)
        row, col, val = _snum_entries(alg)
        where = np.full(n * n, -1)
        where[span.cols] = np.arange(r)
        keep = where[col] >= 0
        pivots = np.zeros((n * n, r), dtype=val.dtype)
        pivots[row[keep] % n * n + row[keep] // n, where[col[keep]]] = val[keep]
        xy = (ExactArray(pivots) @ span._adj).ints().reshape(n, n, r)
        self.den = den = math.lcm(lg, 2 * span.den)
        self.dim, parts = 2 * n + r, []

        def block(t, scale, i0, j0, k0):
            """c[i0 + i, j0 + j, k0 + k] = scale t[i, j, k] where t != 0, and
            the antisymmetric c[j0 + j, i0 + i, k0 + k] = -scale t[i, j, k]."""
            i, j, k = np.nonzero(t)
            v = (scale * ExactArray(t[i, j, k])).ints()
            parts.extend([(i + i0, j + j0, k + k0, v), (j + j0, i + i0, k + k0, -v)])

        block(xy, -(den // (2 * span.den)), 0, n + r, n)  # [X_a, Y_b] = -4 S_{e_a e_b} / 2
        block(np.swapaxes(b, 1, 2), den, n, 0, 0)         # [B_k, X_a] = X_{B_k e_a}
        block(np.swapaxes(badj, 1, 2), -(den // lg), n, n + r, n + r)  # -Y_{B_k' e_a}
        for k in range(r - 1):  # [B_k, B_l] for every l > k
            bk, bl = bs[k], bs[k + 1:]
            comm = (bk @ bl - bl @ bk).ints().reshape(r - 1 - k, -1)
            block(_certify(alg, comm, "a commutator [B_k, B_l]")[None], den // span.den,
                  n + k, n + k + 1, n)
        adjoints = _certify(alg, badj, "an adjoint B_k'")
        i, j, k, vals = (np.concatenate(p) for p in zip(*parts))
        order = np.lexsort((j, i, k))  # grouped by k
        self.i, self.j, self.k, self.vals = i[order], j[order], k[order], vals[order]
        self.starts = np.flatnonzero(np.diff(self.k, prepend=-1))
        self.ks = self.k[self.starts]
        self.bound = len(self.vals) * _max_abs(self.vals)  # co_bracket's guard
        # theta: X_a <-> Y_a and B_k -> -B_k', whose coordinates are over lg span.den
        tden = lg * span.den
        theta = np.zeros((self.dim,) * 2, dtype=object)
        theta[:n, n + r:] = theta[n + r:, :n] = tden * np.eye(n, dtype=object)
        theta[n:n + r, n:n + r] = -adjoints
        g = math.gcd(tden, *theta.ravel().tolist())
        self.theta_den, self.theta = tden // g, exact_ints(theta // g)


def _co_table(alg: Algebra) -> _CoTable:
    """The algebra's _CoTable, built and certified once."""
    if "co_table" not in alg._cache:
        alg._cache["co_table"] = _CoTable(alg)
    return alg._cache["co_table"]


def structure_constants(alg: Algebra):
    """(c, den): [z_i, z_j] = sum_k c[i, j, k] z_k / den in the basis
    z = (X_{e_a}, B_k, Y_{e_a}) of co(V), B_k the pivot rows of the certified
    str(V) span read as n x n matrices: [X_a, Y_b] = -4 S_{e_a e_b} / 2,
    [B_k, X_a] = X_{B_k e_a}, [B_k, Y_a] = -Y_{B_k' e_a} and
    [B_k, B_l] = B_k B_l - B_l B_k, a str(V) matrix m with the coordinates
    m[cols] adj / span.den.  Every [B_k, B_l] (k < l) and B_k' is certified to
    lie in the span first, one k at a time; int64 where the products fit,
    Python ints past them.  Each call returns a new dense array, filled from the
    table's nonzero entries."""
    t = _co_table(alg)
    c = np.zeros((t.dim,) * 3, dtype=t.vals.dtype)
    c[t.i, t.j, t.k] = t.vals
    return c, t.den


class CoElement(_Exact):
    """An element of co(V): its coordinates in the basis z of
    structure_constants, (X_{e_a} coefficients, B_k coefficients, Y_{e_a}
    coefficients), as numerators over one denominator."""

    __slots__ = ()

    @classmethod
    def x(cls, u: Element):
        alg = u.algebra
        return cls._make(alg, list(u.nums) + [0] * (_str_span_exact(alg).rank + alg.dim), u.den)

    @classmethod
    def y(cls, v: Element):
        alg = v.algebra
        return cls._make(alg, [0] * (alg.dim + _str_span_exact(alg).rank) + list(v.nums), v.den)

    @classmethod
    def s(cls, u: Element, v: Element):
        """S_uv, read from smul_matrix into the B coordinates: m[cols] adj /
        span.den for its matrix m, exact as S_uv lies in the certified span."""
        alg, span = u.algebra, _str_span_exact(u.algebra)
        m, den = alg.smul_matrix(u, v)
        zero = [0] * alg.dim
        return cls._make(alg, zero + span.coords(m.reshape(1, -1))[0].tolist() + zero,
                         den * span.den)

    def __repr__(self):
        alg, n = self.algebra, self.algebra.dim
        x, y = (list(Element._make(alg, p, self.den).coords) for p in (self.nums[:n], self.nums[-n:]))
        return f"CoElement({alg.spec}, x={x}, y={y})"


def co_bracket(a: CoElement, b: CoElement) -> CoElement:
    """Lie bracket on co(V): [a, b] = sum_ijk a_i b_j c_ij^k z_k / den, the
    contraction of the coordinates with the nonzero structure constants,
    summed per k; int64 when every product and partial sum fits, Python ints
    past it.  It is antisymmetric and satisfies the Jacobi
    identity exactly when the table does (the tests prove both on every
    basis triple)."""
    if a.algebra is not b.algebra:
        raise MismatchError("CoElements belong to different algebras")
    t = _co_table(a.algebra)
    # The one guard outside algebra.ExactArray, which has no sparse segment sum:
    # len(vals) max|vals| max|x| max|y| bounds every product and partial sum.
    dtype = _exact_dtype(t.bound * max(1, *map(abs, a.nums)) * max(1, *map(abs, b.nums)))
    x, y = np.array(a.nums, dtype=dtype), np.array(b.nums, dtype=dtype)
    out = np.zeros(len(x), dtype=dtype)
    out[t.ks] = np.add.reduceat(x[t.i] * y[t.j] * t.vals.astype(dtype, copy=False), t.starts)
    return CoElement._make(a.algebra, out.tolist(), a.den * b.den * t.den)


def cartan_involution(a: CoElement) -> CoElement:
    """theta: X_u -> Y_u, Y_u -> X_u, S -> -S' (adjoint negation), one
    coordinate map: the coordinates of a times the matrix whose row i holds
    those of theta(z_i)."""
    t = _co_table(a.algebra)
    out = (ExactArray.of(a.nums) @ ExactArray(t.theta)).ints()
    return CoElement._make(a.algebra, out.tolist(), a.den * t.theta_den)


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
    """Random exact CoElement with a random structure part S_uv."""
    x = alg.random_element(rng, span=span)
    y = alg.random_element(rng, span=span)
    m = CoElement.s(alg.random_element(rng, span=span), alg.random_element(rng, span=span))
    return CoElement.x(x) + CoElement.y(y) + m
