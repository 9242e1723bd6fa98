"""Linear algebra modulo the prime p = 2^31 - 1 on int64 arrays.

Entries are kept in [0, p).  A product of two entries is below 2^62, so
elementwise row updates stay exact in int64; matrix products split one
factor into 16-bit limbs and run in float64 BLAS (_matmul_mod).  Echelon
is the one elimination loop: the str(V) span in `conformal` (row_basis) and
the degeneracy ranks in `weyl` both grow it block by block.

Results mod p are never taken as answers over Q on their own: the exact
callers check them in integers (the str(V) span certificate in `conformal`)
or state what reduction mod p can lose (the degeneracy ranks in `weyl`).
"""
from __future__ import annotations

import math

import numpy as np

_PRIME = 2**31 - 1


def _limbs(a: np.ndarray) -> list:
    """[a mod 2^16, a div 2^16] as float64, for int64 entries in [0, _PRIME)."""
    return [(a & 0xFFFF).astype(float), (a >> 16).astype(float)]


def _matmul_mod(a: np.ndarray, b: list) -> np.ndarray:
    """a @ b mod _PRIME with b given by its _limbs.  Limb products are below
    2^32, so BLAS sums over fewer than 2^20 terms are exact in float64."""
    (a0, a1), (b0, b1) = _limbs(a), b
    hi, mid, lo = (x.astype(np.int64) % _PRIME for x in (a1 @ b1, a1 @ b0 + a0 @ b1, a0 @ b0))
    return ((((hi << 16) % _PRIME + mid) << 16) % _PRIME + lo) % _PRIME


def rref(block: np.ndarray) -> list:
    """Bring block (int64 entries in [0, _PRIME)) to reduced row echelon form
    in place, a row at a time, and return its (row, column) pivots.  A row
    without a pivot has become zero."""
    pivots = []
    for i, row in enumerate(block):
        nonzero = np.flatnonzero(row)
        if len(nonzero):
            c = int(nonzero[0])
            pivot = row * pow(int(row[c]), -1, _PRIME) % _PRIME
            np.remainder(block - block[:, [c]] * pivot, _PRIME, out=block)
            row[:] = pivot
            pivots.append((i, c))
    return pivots


class Echelon:
    """A row basis mod _PRIME that grows by blocks: the kept rows B (held as
    _limbs), their pivot columns cols and the inverse of the pivot minor
    B[:, cols].  A block is reduced against B by two matrix products, never
    a row at a time."""

    def __init__(self, width: int):
        self.cols = []
        self._basis = _limbs(np.zeros((0, width), dtype=np.int64))
        self._inverse = np.zeros((0, 0), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.cols)

    def add(self, block) -> list:
        """Reduce the integer rows of block (left unchanged) against the kept
        rows, bring the rest to echelon form by rref, keep its pivot rows and
        return their indices in block."""
        block = np.asarray(block, dtype=np.int64) % _PRIME
        block = (block - _matmul_mod(_matmul_mod(block[:, self.cols], _limbs(self._inverse)),
                                     self._basis)) % _PRIME  # zero on the kept cols
        pivots = rref(block)
        rows, cols = [i for i, _ in pivots], [c for _, c in pivots]
        # the new rows are zero on the old cols and the identity on their own
        self._inverse = np.block([
            [self._inverse, -_matmul_mod(self._inverse, [b[:, cols] for b in self._basis]) % _PRIME],
            [np.zeros((len(cols), self.rank), dtype=np.int64), np.eye(len(cols), dtype=np.int64)]])
        self._basis = [np.vstack(pair) for pair in zip(self._basis, _limbs(block[rows]))]
        self.cols += cols
        return rows


def row_basis(blocks: list) -> tuple[list, list]:
    """Pivot rows and columns mod _PRIME of the integer matrix M stacked from
    blocks: (rows, cols) with M[rows][:, cols] invertible mod _PRIME and every
    row of M in the span of M[rows] mod _PRIME."""
    echelon, rows, start = Echelon(blocks[0].shape[1]), [], 0
    for block in blocks:
        rows += [start + i for i in echelon.add(block)]
        start += len(block)
    return rows, echelon.cols


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse mod _PRIME of the square integer matrix a; ZeroDivisionError
    if a is singular mod _PRIME."""
    r = len(a)
    block = np.hstack([np.asarray(a, dtype=np.int64) % _PRIME, np.eye(r, dtype=np.int64)])
    pivots = rref(block)  # r pivots, as [a | 1] has rank r
    if any(c >= r for _, c in pivots):
        raise ZeroDivisionError("matrix is singular mod p")
    out = np.empty((r, r), dtype=np.int64)
    for i, c in pivots:
        out[c] = block[i, r:]
    return out


def lift(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(num, den) with num = den * a mod _PRIME taken in (-p/2, p/2): each
    entry of a is read as the fraction n/d of least d it is congruent to
    (rational reconstruction with |n|, d <= sqrt(p/2), by the extended
    Euclidean algorithm run on all entries at once), and den is the lcm of
    those d.  This is a congruence only; callers check the result exactly."""
    bound = math.isqrt(_PRIME // 2)
    r0, r1 = np.full(a.shape, _PRIME, dtype=np.int64), np.asarray(a, dtype=np.int64) % _PRIME
    t0, t1 = np.zeros(a.shape, dtype=np.int64), np.ones(a.shape, dtype=np.int64)
    active = r1 > bound
    while active.any():
        q = np.where(active, r0 // np.where(active, r1, 1), 0)
        r0, r1 = np.where(active, r1, r0), np.where(active, r0 - q * r1, r1)
        t0, t1 = np.where(active, t1, t0), np.where(active, t0 - q * t1, t1)
        active = r1 > bound
    den = math.lcm(*set(np.abs(t1).ravel().tolist()))
    num = (den % _PRIME) * (np.asarray(a, dtype=np.int64) % _PRIME) % _PRIME
    return np.where(num > _PRIME // 2, num - _PRIME, num), den
