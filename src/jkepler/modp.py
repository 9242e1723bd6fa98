"""Linear algebra modulo the prime p = 2^31 - 1 on int64 arrays.

Entries are kept in [0, p).  A product of two entries is below 2^62, so
elementwise row updates stay exact in int64.  row_pivots, forward
elimination over sparse rows, serves only the str(V) span in `conformal`;
the degeneracy ranks in `weyl` take one rref of a Gram matrix formed by
_matmul_mod.

An int64 `%` over a block costs about ten times a subtraction, so the
dense kernels take few of them.  The ones over a whole block that remain
are two in each _matmul_mod and one per pivot over an rref leaf of at most
_LEAF rows.

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
* row_pivots keeps the rows as dicts of their nonzero residues (about 12
  of 729 columns on the str(V) generators of h:3:O) and reduces a row only
  by the kept rows whose pivot columns it hits.

Results mod p are never taken as answers over Q on their own: the exact
callers check them in integers (the str(V) span certificate in `conformal`)
or state what reduction mod p can lose (the degeneracy ranks in `weyl`).
"""
from __future__ import annotations

import heapq

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


def row_pivots(row: np.ndarray, col: np.ndarray, val: np.ndarray) -> tuple[list, list]:
    """Pivot rows and columns mod _PRIME of the integer matrix M given by its
    nonzero entries M[row, col] = val, sorted by row: (rows, cols) with
    M[rows][:, cols] invertible mod _PRIME and every row of M in the span of
    M[rows] mod _PRIME.  Row i is kept iff it is not in the span of the rows
    above it, with its pivot at the first column where it is nonzero once
    reduced against them: the pivots of the reduced row echelon form of M,
    which is unique.

    Forward elimination over sparse rows (dicts): each kept row is scaled to
    1 at its pivot column and is zero at every earlier pivot column.  A new
    row is reduced by the kept rows whose pivot columns it hits, in pivot
    order (a heap of their indices, fed as elimination fills in further
    pivot columns), which leaves it zero at every pivot column."""
    starts = np.flatnonzero(np.diff(row, prepend=-1)).tolist()
    ids = np.asarray(row)[starts].tolist()
    col, val = np.asarray(col).tolist(), (np.asarray(val, dtype=np.int64) % _PRIME).tolist()
    rows, cols, index, kept = [], [], {}, []  # index: pivot column -> its place in cols
    push, pop, p = heapq.heappush, heapq.heappop, _PRIME
    for i, s, e in zip(ids, starts, starts[1:] + [len(col)]):
        v = dict(zip(col[s:e], val[s:e]))
        hits = [index[c] for c in v if c in index]
        heapq.heapify(hits)
        while hits:
            k = pop(hits)
            f = v.pop(cols[k], 0)
            if not f:
                continue  # it cancelled after it was pushed, or was pushed twice
            for c, w in kept[k]:
                x = v.get(c)
                if x is None:
                    v[c] = f * w % p  # a kept row is stored negated
                    if c in index:
                        push(hits, index[c])
                elif x := (x + f * w) % p:
                    v[c] = x
                else:
                    del v[c]
        if v:
            c = min(v)
            inverse = p - pow(v.pop(c), -1, p)
            index[c] = len(cols)
            rows.append(i)
            cols.append(c)
            kept.append([(d, w * inverse % p) for d, w in v.items()])
    return rows, cols

