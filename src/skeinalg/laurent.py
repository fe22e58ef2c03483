"""Exact Laurent polynomials in one variable over the integers.

A polynomial is stored as a sorted tuple of (exponent, coefficient) pairs
with every coefficient nonzero, so equality is coefficient-wise and the
zero polynomial is the empty tuple.  Every diagram value lies in the one
ring Z[A, A^-1], so the variable is not stored; ``text`` names it when
printing.  All arithmetic is exact; there is no floating point anywhere
in this package.  Composition of diagrams never leaves the Laurent ring,
so there is no division beyond unit inverses.  A product is one
convolution with no monomial case: the slice fold in ``tl`` multiplies
plain {exponent: int} dicts, not LaurentPolys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation, int_arg


def _trim(coeffs: dict) -> dict:
    # only int zeros go: LaurentPoly refuses any other term, zero or not
    return {e: c for e, c in coeffs.items()
            if c or type(c) is not int or type(e) is not int}


@dataclass(frozen=True)
class LaurentPoly:
    """sum of coeff * A**exp over the stored (exp, coeff) pairs."""

    terms: tuple = ()

    def __post_init__(self):
        # one stored form per polynomial, so == and hash agree; a term of
        # the wrong type anywhere is named before an out-of-order one
        canonical = True
        last = None
        for e, c in self.terms:
            if type(e) is not int or type(c) is not int:
                raise ContractViolation(
                    "Laurent exponents and coefficients are ints, not "
                    f"{type(e).__name__} and {type(c).__name__}")
            if not c or (last is not None and e <= last):
                canonical = False
            last = e
        if not canonical:
            raise ContractViolation(
                "Laurent terms need strictly increasing exponents and "
                f"nonzero coefficients, got {self.terms!r}")

    @staticmethod
    def from_dict(coeffs: dict) -> "LaurentPoly":
        terms = _trim(coeffs).items()
        try:
            terms = tuple(sorted(terms))
        except TypeError:  # exponents of mixed types: __post_init__ names one
            terms = tuple(terms)
        return LaurentPoly(terms)

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: coeff})

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly.from_dict({0: c})

    def to_dict(self) -> dict:
        return dict(self.terms)

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if type(other) is int:
            return LaurentPoly.constant(other)
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes like it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return hash(self.terms[0][1])
        return hash(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = self.to_dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if int_arg(n, "Laurent exponent", None) < 0:
            inv = self.unit_inverse()
            if inv is None:
                raise ContractViolation(
                    "negative power of a non-unit Laurent polynomial")
            return inv ** (-n)
        out = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def unit_inverse(self):
        """Inverse when the polynomial is a unit (+-A**k); None otherwise."""
        if len(self.terms) != 1:
            return None
        e, c = self.terms[0]
        if c not in (1, -1):
            return None
        return LaurentPoly.monomial(c, -e)

    def mirrored(self) -> "LaurentPoly":
        """Substitute A -> A**-1."""
        return LaurentPoly(tuple(sorted((-e, c) for e, c in self.terms)))

    def evaluate(self, value) -> Fraction:
        """The exact value at an int or Fraction ``value``."""
        if not isinstance(value, (int, Fraction)):
            raise ContractViolation(
                f"evaluate takes an int or a Fraction, not {type(value).__name__}")
        # an int to a negative power would be a float
        value = Fraction(value)
        if value == 0 and self.terms and self.terms[0][0] < 0:
            raise ContractViolation(
                f"cannot evaluate {self} at 0: it has negative exponents")
        acc = Fraction(0)
        for e, c in self.terms:
            acc += c * value ** e
        return acc

    def text(self, var: str = "A") -> str:
        """The polynomial written in the variable named ``var``."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, reverse=True):
            if e == 0:
                body = str(abs(c))
            else:
                v = var if e == 1 else f"{var}^{e}"
                body = v if abs(c) == 1 else f"{abs(c)}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = text

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)})"

