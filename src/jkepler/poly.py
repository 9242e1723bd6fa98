"""Sparse polynomials with exact coefficients.

One class serves every polynomial-shaped object of the workbench: phase-space
observables (x block, then p block), polynomials on co(V)* (the Kepler data,
phase.CoStar), normal-ordered operators (x block, then D block), polynomial
states over V, and polynomials in power sums.  A
subclass changes only the product: weyl.WeylOp composes in normal order where
Poly multiplies commutatively.  The moment functions S, X, Y are x-linear
and are built once, as integer tensors (phase.XLinearOp, whose one bracket
is the commutator and minus the Poisson bracket); XLinearOp.poly reads such
a symbol as a phase Poly or as a WeylOp.

A Poly stores integer numerators over one positive denominator `den`: `nums`
maps the `pack`ed exponent key of each term to its nonzero numerator.  Every
result divides out gcd(den, *nums), so an int/Fraction polynomial has one
stored form.  Products and brackets (here, in weyl and in phase) loop over
keys and numerators directly: a monomial product is one int addition of keys.
Sums bring both operands to the lcm of their denominators.  Coefficients are
rational: the paper's complex generators are units times rational operators
(weyl), so no complex coefficient is needed.  `terms` is the read-only view
{exponent tuple: Fraction}.
"""
from __future__ import annotations

import math
import numbers
import sys
from array import array
from fractions import Fraction


class MismatchError(ValueError):
    """Operands from different algebras, an inexact scalar on an exact
    operand, or polynomials in different numbers of variables."""


def exact_parts(c) -> tuple:
    """(numerator, denominator) of an int or Fraction as Python ints;
    MismatchError for anything else."""
    if not isinstance(c, numbers.Rational):
        raise MismatchError(f"{c!r} is not an int or a Fraction")
    return int(c.numerator), int(c.denominator)


def numerators(values) -> tuple:
    """Exact values -> (nums, den): their numerators (exact_parts) over the
    lcm of their denominators, with gcd(den, *nums) == 1."""
    parts = [exact_parts(c) for c in values]
    den = math.lcm(*(d for _, d in parts))
    return [v * (den // d) for v, d in parts], den


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


def pack(k: tuple) -> int:
    """The exponent tuple k as one int with a 16-bit field per variable, so
    adding packed keys adds exponents (OverflowError outside 0..2^16-1)."""
    return int.from_bytes(array("H", k).tobytes(), sys.byteorder)


def unpack(key: int, nvars: int) -> tuple:
    """The exponent tuple of a packed key (the inverse of pack)."""
    return tuple(array("H", key.to_bytes(2 * nvars, sys.byteorder)))


def field(i: int) -> int:
    """The packed key of the first power of variable i."""
    return 1 << 16 * i


def check_fields(*polys):
    """Raise OverflowError on an exponent of 2^15 or more, so that a loop that
    adds the keys of two operands never carries into the next field."""
    for p in polys:
        high = pack((1 << 15,) * p.nvars)
        if any(k & high for k in p.nums):
            raise OverflowError("exponent of 2^15 or more in a packed product")


class Poly:
    """Sparse polynomial in `nvars` variables: numerator `nums[key]` over
    `den` for each packed exponent key."""

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms: dict | None = None):
        """{exponent tuple: int or Fraction coefficient}; zeros dropped,
        MismatchError for any other coefficient."""
        terms = terms or {}
        nums, self.den = numerators(terms.values())
        self.nvars = nvars
        self.nums = {pack(k): v for k, v in zip(terms, nums) if v}

    @classmethod
    def _make(cls, nvars: int, nums: dict, den: int):
        """nums / den with zeros dropped and gcd(den, *nums) divided out."""
        out = cls.__new__(cls)
        out.nvars, out.nums = nvars, {k: v for k, v in nums.items() if v}
        g = math.gcd(den, *out.nums.values())
        out.den = den // g
        if g != 1:
            out.nums = {k: v // g for k, v in out.nums.items()}
        return out

    @classmethod
    def constant(cls, nvars: int, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int):
        return cls(nvars, {monomial_key(nvars, i): Fraction(1)})

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction}, in stored order."""
        return {unpack(k, self.nvars): Fraction(v, self.den) for k, v in self.nums.items()}

    def _sum(self, other, sign: int):
        if not isinstance(other, Poly):
            return NotImplemented
        same_nvars(self, other)
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, sign * (den // other.den)
        out = {k: v * m1 for k, v in self.nums.items()} if m1 != 1 else dict(self.nums)
        get = out.get
        for k, v in other.nums.items():
            out[k] = get(k, 0) + v * m2
        return self._make(self.nvars, out, den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._make(self.nvars, {k: -v for k, v in self.nums.items()}, self.den)

    def scaled(self, c):
        num, den = exact_parts(c)
        return self._make(self.nvars, {k: num * v for k, v in self.nums.items()}, self.den * den)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scaled(other)
        same_nvars(self, other)
        return self._product(other)

    __rmul__ = scaled

    def _product(self, other):
        """Commutative product: exponents add."""
        check_fields(self, other)
        right = list(other.nums.items())
        out = {}
        get = out.get
        for k1, c1 in self.nums.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return self._make(self.nvars, out, self.den * other.den)

    def partial(self, i: int):
        """Formal derivative with respect to variable i (0-based)."""
        shift, step = 16 * i, field(i)
        return self._make(self.nvars, {k - step: v * e for k, v in self.nums.items()
                                       if (e := k >> shift & 0xFFFF)}, self.den)

    def value(self, vals):
        """Evaluate at exact (int/Fraction) or float values.  Each term is its
        coefficient (for floats, the correctly rounded numerator / den) times
        the powers in variable order; terms are summed in stored order."""
        if len(vals) != self.nvars:
            raise MismatchError(f"{len(vals)} values for {self.nvars} variables")
        exact = bool(vals) and isinstance(vals[0], (int, Fraction))
        acc = Fraction(0) if exact else 0.0
        for k, v in self.nums.items():
            t = Fraction(v, self.den) if exact else v / self.den
            for x in vals:
                if k & 0xFFFF:
                    t = t * x ** (k & 0xFFFF)
                k >>= 16
            acc = acc + t
        return acc

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.nvars == other.nvars and self.den == other.den
                    and self.nums == other.nums)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}(nvars={self.nvars}, {len(self.nums)} terms)"
