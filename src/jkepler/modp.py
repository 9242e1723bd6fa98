"""Linear algebra modulo the prime p = 2^31 - 1 on int64 arrays.

Entries are kept in [0, p).  A product of two entries is below 2^62, so
elementwise row updates stay exact in int64.  Echelon, a row basis grown
block by block, serves only the str(V) span in `conformal` (row_basis); the
degeneracy ranks in `weyl` grow a Gram inverse by _matmul_mod and rank_inverse.

An int64 `%` over a block costs about ten times a subtraction, so the
kernels take few of them.  The ones over a whole block that remain are two
in each _matmul_mod, one per pivot over an rref leaf of at most _LEAF rows,
and one in Echelon.add.  rank_inverse and lift work on one small square
matrix each.

* _matmul_mod splits both factors into 16-bit limbs (_limbs) and runs the
  limb products in float64 BLAS, exact while every sum stays below 2^53,
  that is for inner dimension below 2^20.  Since 2^32 = 2 (mod p) they
  combine as (mid mod p) 2^16 + 2 hi + lo, again below 2^53.
* rref halves a block of more than _LEAF rows: it brings each half to
  reduced echelon form and clears it against the other half's pivot rows
  with one _matmul_mod.  Reduced echelon form is unique, so this gives the
  pivots and the array of the row-at-a-time loop it runs on the leaves.
* A difference of two residues is brought back into [0, p) by adding p
  where it is negative (_sub), not by `%`.
* Echelon.add runs rref only on the columns where the reduced block is
  nonzero: at most 283 of 729 for the str(V) generator blocks of h:3:O.

Results mod p are never taken as answers over Q on their own: the exact
callers check them in integers (the str(V) span certificate in `conformal`)
or state what reduction mod p can lose (the degeneracy ranks in `weyl`).
"""
from __future__ import annotations

import math

import numpy as np

_PRIME = 2**31 - 1
_LEAF = 8  # rref reduces blocks of at most this many rows a row at a time


def _limbs(a: np.ndarray) -> list:
    """[a mod 2^16, a div 2^16] as float64, for int64 entries in [0, _PRIME)."""
    return [(a & 0xFFFF).astype(float), (a >> 16).astype(float)]


def _matmul_mod(a: np.ndarray, b: list) -> np.ndarray:
    """a @ b mod _PRIME with b given by its _limbs, for inner dimension below
    2^20.  The limb sums hi = a1 b1 < 2^50 and mid = a1 b0 + a0 b1,
    lo = a0 b0 < 2^52 are exact in float64, and so is 2 hi + lo < 2^53; as
    2^32 = 2 (mod p), a @ b = (mid mod p) 2^16 + 2 hi + lo (mod p), which is
    below 2^53 before the last reduction."""
    (a0, a1), (b0, b1) = _limbs(a), b
    mid = a1 @ b0
    mid += a0 @ b1
    rest = a1 @ b1
    rest *= 2
    rest += a0 @ b0
    out = mid.astype(np.int64)
    out %= _PRIME
    out <<= 16
    out += rest.astype(np.int64)
    out %= _PRIME
    return out


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b mod _PRIME for entries in [0, _PRIME): p is added where the
    difference is negative (its sign bit, spread by >> 63, masks p)."""
    d = a - b
    sign = d >> 63
    sign &= _PRIME
    d += sign
    return d


def _rref_rows(block: np.ndarray) -> list:
    """rref a row at a time: each pivot row is scaled to 1 at its pivot and
    cleared from every other row by one `%` over the block."""
    pivots = []
    for i, row in enumerate(block):
        nonzero = row.nonzero()[0]
        if len(nonzero):
            c = int(nonzero[0])
            pivot = row * pow(int(row[c]), -1, _PRIME) % _PRIME
            np.remainder(block - block[:, c:c + 1] * pivot, _PRIME, out=block)
            row[:] = pivot
            pivots.append((i, c))
    return pivots


def _clear(block: np.ndarray, reduced: np.ndarray, pivots: list):
    """Clear block on the pivot columns of reduced, in place: subtract
    block[:, cols] times the pivot rows, which are the identity there."""
    if pivots:
        rows, cols = map(list, zip(*pivots))
        block[:] = _sub(block, _matmul_mod(block[:, cols], _limbs(reduced[rows])))


def rref(block: np.ndarray) -> list:
    """Bring block (int64 entries in [0, _PRIME)) to reduced row echelon form
    in place and return its (row, column) pivots: row i has a pivot iff it is
    not in the span of the rows above it, at the first column where it is
    nonzero once reduced against them.  A row without a pivot has become
    zero."""
    if len(block) <= _LEAF:
        return _rref_rows(block)
    h = len(block) // 2
    top, bottom = block[:h], block[h:]
    upper = rref(top)
    _clear(bottom, top, upper)
    lower = rref(bottom)
    _clear(top, bottom, lower)
    return upper + [(h + i, c) for i, c in lower]


class Echelon:
    """A row basis mod _PRIME that grows by blocks: the kept rows B (held as
    _limbs), their pivot columns cols and the inverse of the pivot minor
    B[:, cols].  A block is reduced against B by two matrix products, never
    a row at a time."""

    def __init__(self, width: int):
        self.cols = []
        self._basis = _limbs(np.zeros((0, width), dtype=np.int64))
        self._inverse = np.zeros((0, 0), dtype=np.int64)

    def add(self, block) -> list:
        """Reduce the integer rows of block (left unchanged) against the kept
        rows, bring the rest to echelon form by rref on its nonzero columns,
        keep its pivot rows and return their indices in block."""
        block = np.asarray(block, dtype=np.int64) % _PRIME
        block = _sub(block, _matmul_mod(_matmul_mod(block[:, self.cols], _limbs(self._inverse)),
                                        self._basis))  # zero on the kept cols
        nonzero = np.flatnonzero(block.any(axis=0))
        reduced = block[:, nonzero]
        pivots = rref(reduced)
        rows, cols = [i for i, _ in pivots], nonzero[[c for _, c in pivots]].tolist()
        new = np.zeros((len(rows), block.shape[1]), dtype=np.int64)
        new[:, nonzero] = reduced[rows]
        # the new rows are zero on the old cols and the identity on their own
        self._inverse = np.block([
            [self._inverse, -_matmul_mod(self._inverse, [b[:, cols] for b in self._basis]) % _PRIME],
            [np.zeros((len(cols), len(self.cols)), dtype=np.int64), np.eye(len(cols), dtype=np.int64)]])
        self._basis = [np.vstack(pair) for pair in zip(self._basis, _limbs(new))]
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


def rank_inverse(a: np.ndarray) -> tuple[int, np.ndarray | None]:
    """(rank, inverse) mod _PRIME of the square integer matrix a, the inverse
    None when a is singular mod _PRIME: one rref of [a | 1], whose pivots
    left of the bar are those of a."""
    r = len(a)
    block = np.hstack([np.asarray(a, dtype=np.int64) % _PRIME, np.eye(r, dtype=np.int64)])
    pivots = rref(block)  # r pivots, as [a | 1] has rank r
    rank = sum(c < r for _, c in pivots)
    if rank < r:
        return rank, None
    out = np.empty((r, r), dtype=np.int64)
    for i, c in pivots:
        out[c] = block[i, r:]
    return r, out


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
