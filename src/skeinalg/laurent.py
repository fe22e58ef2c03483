"""Exact Laurent polynomials in one variable over the integers.

A polynomial is stored as a sorted tuple of (exponent, coefficient) pairs
with every coefficient nonzero, so equality is coefficient-wise and the
zero polynomial is the empty tuple.  All arithmetic is exact; there is no
floating point anywhere in this package.  Composition of diagrams never
leaves the Laurent ring, so there is no division beyond unit inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation


def _trim(coeffs: dict) -> dict:
    return {e: c for e, c in coeffs.items() if c}


@dataclass(frozen=True)
class LaurentPoly:
    """sum of coeff * var**exp over the stored (exp, coeff) pairs."""

    terms: tuple = ()
    var: str = "A"

    @staticmethod
    def from_dict(coeffs: dict, var: str = "A") -> "LaurentPoly":
        return LaurentPoly(tuple(sorted(_trim(coeffs).items())), var)

    @staticmethod
    def monomial(coeff: int, exp: int, var: str = "A") -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: coeff}, var)

    @staticmethod
    def constant(c: int, var: str = "A") -> "LaurentPoly":
        return LaurentPoly.from_dict({0: c}, var)

    @staticmethod
    def gen(var: str = "A") -> "LaurentPoly":
        return LaurentPoly.monomial(1, 1, var)

    def to_dict(self) -> dict:
        return dict(self.terms)

    def _same_var(self, other: "LaurentPoly") -> str:
        # a polynomial with no terms is variable-agnostic
        if not self.terms:
            return other.var
        if not other.terms:
            return self.var
        if self.var != other.var:
            raise ContractViolation(
                f"mixed Laurent variables {self.var!r} and {other.var!r}")
        return self.var

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.var)
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        # False across variables rather than raising: same-term polynomials
        # in two variables hash alike, so dicts and sets compare them
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.terms == other.terms and self.var == other.var

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._same_var(other)
        out = self.to_dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out, var)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(tuple((e, -c) for e, c in self.terms), self.var)

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
        var = self._same_var(other)
        out: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly.from_dict(out, var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            inv = self.unit_inverse()
            if inv is None:
                raise ContractViolation(
                    "negative power of a non-unit Laurent polynomial")
            return inv ** (-n)
        out = LaurentPoly.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def unit_inverse(self):
        """Inverse when the polynomial is a unit (+-A**k); None otherwise."""
        if len(self.terms) != 1:
            return None
        e, c = self.terms[0]
        if c not in (1, -1):
            return None
        return LaurentPoly.monomial(c, -e, self.var)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms), self.var)

    def mirrored(self) -> "LaurentPoly":
        """Substitute var -> var**-1."""
        return LaurentPoly(tuple(sorted((-e, c) for e, c in self.terms)), self.var)

    def renamed(self, var: str) -> "LaurentPoly":
        return LaurentPoly(self.terms, var)

    def degree(self):
        return self.terms[-1][0] if self.terms else None

    def valuation(self):
        return self.terms[0][0] if self.terms else None

    def evaluate(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for e, c in self.terms:
            acc += c * value ** e
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, reverse=True):
            if e == 0:
                body = str(abs(c))
            else:
                v = self.var if e == 1 else f"{self.var}^{e}"
                body = v if abs(c) == 1 else f"{abs(c)}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)})"

