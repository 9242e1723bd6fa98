"""Reference routes that jkepler.modp replaced, kept as oracles for the tests.

Echelon grows a row basis mod p block by block with dense matrix products;
row_basis runs it over a list of blocks.  The str(V) span was built on them,
with the pivot minor inverted mod p (rank_inverse) and read back over Q by
lift, before conformal._str_span_exact moved to sparse rows and an exact
inverse.  rank_inverse also served the degeneracy ranks, which grew a Gram
inverse by Schur complements before weyl.restriction_degeneracy took one
rref of the whole Gram matrix.  Their results must equal the new route's.
"""
import math

import numpy as np

from jkepler.modp import _PRIME, _limbs, _matmul_mod, _sub, rref


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
