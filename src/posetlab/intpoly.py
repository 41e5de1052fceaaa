"""Exact integer polynomials in one variable q.

Coefficients are Python ints (arbitrary precision), index equals power,
trailing zeros trimmed.  The zero polynomial has degree -1.
"""

from __future__ import annotations

from .errors import InexactDivisionError


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls((0,) * power + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, power):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def is_zero(self):
        return not self.coeffs

    def padded(self, length):
        """Coefficient list padded with zeros up to `length` entries."""
        if len(self.coeffs) > length:
            raise ValueError(f"degree {self.degree} exceeds padding length {length}")
        return tuple(self.coeffs) + (0,) * (length - len(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = [
            f"{c}*q^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        ]
        return "IntPolynomial(" + " + ".join(terms) + ")"

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            (self.coefficient(i) + other.coefficient(i)) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divide_exact(self, divisor):
        """Quotient by `divisor`, raising unless the remainder is zero."""
        if isinstance(divisor, int):
            divisor = IntPolynomial.constant(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.coeffs[-1]
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead != 0:
                raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r}")
            q = rem[i] // lead
            quot[i - dd] = q
            for j, c in enumerate(divisor.coeffs):
                rem[i - dd + j] -= q * c
        if any(rem):
            raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r}")
        return IntPolynomial(quot)


ONE = IntPolynomial.constant(1)
Q = IntPolynomial.monomial(1)
Q_MINUS_ONE = IntPolynomial((-1, 1))
ONE_MINUS_Q = IntPolynomial((1, -1))
ONE_PLUS_Q = IntPolynomial((1, 1))
