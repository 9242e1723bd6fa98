"""Sparse polynomials with exact coefficients.

One class serves every polynomial-shaped object of the workbench: phase-space
observables (x block, then p block), normal-ordered operators (x block, then
D block), polynomial states over V, and polynomials in power sums.  A Poly
maps flat exponent tuples, one entry per variable, to int, Fraction or CQ
coefficients.  Exact zeros are dropped when a Poly is built, so equal
polynomials have equal term dicts.  A subclass changes only the product:
weyl.WeylOp composes in normal order where Poly multiplies commutatively.

Products and brackets (here, in weyl and in phase) run on integer numerators
over one common denominator: `numerators` splits the coefficients, the loop
multiplies and adds Python ints, and `from_numerators` divides once per
output term.  A CQ coefficient has no denominator; it rides the same loop as
its own numerator, with denominator 1.  Inside those loops an exponent tuple
is `pack`ed into one int, so multiplying two monomials is one int addition.
"""
from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction

from .scalars import CQ

_SCALARS = (int, Fraction, CQ)


class MismatchError(ValueError):
    """Operands from different algebras, an inexact scalar on an exact
    operand, or polynomials in different numbers of variables."""


def monomial_key(nvars: int, *indices: int) -> tuple:
    """Exponent tuple of the product of the variables at `indices` (repeats
    raise the power)."""
    e = [0] * nvars
    for i in indices:
        e[i] += 1
    return tuple(e)


def same_nvars(f: "Poly", g: "Poly"):
    if f.nvars != g.nvars:
        raise MismatchError(f"polynomials in {f.nvars} and {g.nvars} variables")


def numerators(terms: dict) -> tuple:
    """(den, {exponent: numerator}) with den the lcm of the coefficient
    denominators, so that each coefficient is numerator / den.  Numerators of
    int and Fraction coefficients are ints; a CQ (no denominator) counts as
    denominator 1 and its numerator is the CQ times den."""
    den = math.lcm(*[getattr(c, "denominator", 1) for c in terms.values()])
    return den, {k: c.numerator * (den // c.denominator) if isinstance(c, (int, Fraction))
                 else c * den for k, c in terms.items()}


def pack(k: tuple) -> int:
    """The exponent tuple k as one int with a 16-bit field per variable, so
    adding packed keys adds exponents; Poly.from_numerators unpacks them.
    The fields are written as signed 16-bit values: an exponent of 2^15 or
    more raises OverflowError, so the sum of two packed keys never carries
    into the next field."""
    return int.from_bytes(array("h", k).tobytes(), sys.byteorder)


def field(i: int) -> int:
    """The packed key of the first power of variable i."""
    return 1 << 16 * i


class Poly:
    """Sparse polynomial {exponent tuple: coefficient} in `nvars` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def from_pairs(cls, nvars: int, pairs, terms: dict | None = None):
        """Sum of `terms` and the (exponent, coefficient) pairs; repeated
        exponents add up."""
        out = dict(terms or {})
        for k, c in pairs:
            out[k] = out[k] + c if k in out else c
        return cls(nvars, out)

    @classmethod
    def from_numerators(cls, nvars: int, nums: dict, den: int):
        """The Poly with coefficient v / den for each nonzero numerator v
        accumulated under a packed key: a Fraction for an int v, a CQ for a
        CQ v."""
        size, order = 2 * nvars, sys.byteorder  # the inverse of pack
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = {tuple(array("H", k.to_bytes(size, order))):
                     Fraction(v, den) if type(v) is int else v / den
                     for k, v in nums.items() if v}
        return out

    @classmethod
    def constant(cls, nvars: int, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int):
        return cls(nvars, {monomial_key(nvars, i): Fraction(1)})

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        same_nvars(self, other)
        return self.from_pairs(self.nvars, other.terms.items(), self.terms)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        same_nvars(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] - c if k in out else -c
        return type(self)(self.nvars, out)

    def __neg__(self):
        return type(self)(self.nvars, {k: -c for k, c in self.terms.items()})

    def scaled(self, c):
        return type(self)(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scaled(other)
        if not isinstance(other, Poly):
            return NotImplemented
        same_nvars(self, other)
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scaled(other)
        return NotImplemented

    def _product(self, other):
        """Commutative product: exponents add."""
        d1, n1 = numerators(self.terms)
        d2, n2 = numerators(other.terms)
        right = [(pack(e), c) for e, c in n2.items()]
        out = {}
        get = out.get
        for e1, c1 in n1.items():
            p1 = pack(e1)
            for p2, c2 in right:
                k = p1 + p2
                out[k] = get(k, 0) + c1 * c2
        return self.from_numerators(self.nvars, out, d1 * d2)

    def partial(self, i: int):
        """Formal derivative with respect to variable i (0-based)."""
        return type(self)(self.nvars, {
            k[:i] + (k[i] - 1,) + k[i + 1:]: c * k[i]
            for k, c in self.terms.items() if k[i]})

    def value(self, vals):
        """Evaluate at exact (int/Fraction) or float values.  Each term is its
        coefficient (as a float for float values) times the powers in variable
        order; terms are summed in insertion order."""
        if len(vals) != self.nvars:
            raise MismatchError(f"{len(vals)} values for {self.nvars} variables")
        exact = bool(vals) and isinstance(vals[0], (int, Fraction))
        acc = Fraction(0) if exact else 0.0
        for e, c in self.terms.items():
            t = c if exact else float(c)
            for v, ei in zip(vals, e):
                if ei:
                    t = t * v ** ei
            acc = acc + t
        return acc

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def graded_part(self, d: int):
        return type(self)(self.nvars, {k: c for k, c in self.terms.items() if sum(k) == d})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}(nvars={self.nvars}, {len(self.terms)} terms)"
