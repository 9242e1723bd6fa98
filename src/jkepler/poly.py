"""Sparse polynomials with exact coefficients.

One class serves every polynomial-shaped object of the workbench: phase-space
observables (x block, then p block), normal-ordered operators (x block, then
D block), polynomial states over V, and polynomials in power sums.  A Poly
maps flat exponent tuples, one entry per variable, to int, Fraction or CQ
coefficients.  Exact zeros are dropped when a Poly is built, so equal
polynomials have equal term dicts.  A subclass changes only the product:
weyl.WeylOp composes in normal order where Poly multiplies commutatively.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import CQ

_SCALARS = (int, Fraction, CQ)


class MismatchError(ValueError):
    """Operands from different algebras or scalar modes, or polynomials in
    different numbers of variables."""


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
            out[k] = out.get(k, 0) + c
        return cls(nvars, out)

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
        return self + (-other)

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
        return self.from_pairs(self.nvars, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

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
