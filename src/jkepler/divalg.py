"""Exact arithmetic in the four normed division algebras R, C, H, O.

Elements are tuples of Fractions of length 1, 2, 4 or 8.  Octonion
multiplication follows the Fano-plane convention with oriented triples
(1,2,3), (1,4,5), (1,7,6), (2,4,6), (2,5,7), (3,4,7), (3,6,5): for each
triple (a,b,c), e_a e_b = e_c cyclically, and imaginary units anticommute
and square to -1.  The quaternions reuse the (1,2,3) triple.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _build_table(dim, triples):
    idx = [[0] * dim for _ in range(dim)]
    sgn = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        idx[0][i] = idx[i][0] = i
        sgn[0][i] = sgn[i][0] = 1
    for i in range(1, dim):
        idx[i][i] = 0
        sgn[i][i] = -1
    for (a, b, c) in triples:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            idx[x][y] = z
            sgn[x][y] = 1
            idx[y][x] = z
            sgn[y][x] = -1
    return idx, sgn


_TABLES = {
    1: _build_table(1, ()),
    2: _build_table(2, ()),
    4: _build_table(4, ((1, 2, 3),)),
    8: _build_table(8, FANO_TRIPLES),
}


def mul_tensor(dim: int) -> np.ndarray:
    """Integer sign tensor m of the product: e_s e_t = sum_r m[s, t, r] e_r."""
    idx, sgn = _TABLES[dim]
    m = np.zeros((dim, dim, dim), dtype=np.int64)
    for s in range(dim):
        for t in range(dim):
            m[s, t, idx[s][t]] = sgn[s][t]
    return m


def unit(dim: int, mu: int = 0) -> tuple:
    """Basis unit e_mu as a coefficient tuple."""
    return tuple(Fraction(1) if t == mu else Fraction(0) for t in range(dim))


def zero(dim: int) -> tuple:
    return (Fraction(0),) * dim


def mul(a: tuple, b: tuple, dim: int) -> tuple:
    idx, sgn = _TABLES[dim]
    out = [Fraction(0)] * dim
    for i in range(dim):
        ai = a[i]
        if not ai:
            continue
        row_i, row_s = idx[i], sgn[i]
        for j in range(dim):
            bj = b[j]
            if bj:
                out[row_i[j]] += row_s[j] * ai * bj
    return tuple(out)


def conj(a: tuple) -> tuple:
    return (a[0],) + tuple(-c for c in a[1:])


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def scale(s, a: tuple) -> tuple:
    return tuple(s * x for x in a)
