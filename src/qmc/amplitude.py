"""Exact amplitude arithmetic over the ring Z[w, 1/sqrt2], w = exp(i*pi/4).

w is a primitive eighth root of unity: w^4 = -1, w^2 = i, and w - w^3 = sqrt2.
Every matrix entry of the supported gate set (I, X, Z, S, T, H, CNOT) lies in
this ring, so any state reachable from a computational basis state stays
inside it.  That makes total destructive cancellation a decidable zero test
instead of an epsilon comparison on floats.

Coefficients are Python ints, hence arbitrary precision: values grow, they
never silently wrap.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)

_POWER_NAMES = ("", "w", "w^2", "w^3")
_POWER_LATEX = ("", r"\omega", r"\omega^2", r"\omega^3")


class CycloInt:
    """a0 + a1*w + a2*w^2 + a3*w^3 with integer coefficients."""

    __slots__ = ("a0", "a1", "a2", "a3")

    def __init__(self, a0: int, a1: int = 0, a2: int = 0, a3: int = 0) -> None:
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == CycloInt(other)
        if isinstance(other, CycloInt):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"CycloInt{self.coeffs}"

    def __add__(self, other: CycloInt) -> CycloInt:
        return CycloInt(
            self.a0 + other.a0,
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
        )

    def __neg__(self) -> CycloInt:
        return CycloInt(-self.a0, -self.a1, -self.a2, -self.a3)

    def __sub__(self, other: CycloInt) -> CycloInt:
        return self + (-other)

    def __mul__(self, other: CycloInt) -> CycloInt:
        # Convolution folded with w^4 = -1.
        a0, a1, a2, a3 = self.coeffs
        b0, b1, b2, b3 = other.coeffs
        return CycloInt(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        )

    def conj(self) -> CycloInt:
        # conj(w) = w^-1 = -w^3, conj(w^2) = -w^2, conj(w^3) = -w.
        return CycloInt(self.a0, -self.a3, -self.a2, -self.a1)

    def times_sqrt2(self) -> CycloInt:
        # Multiply by sqrt2 = w - w^3.
        a0, a1, a2, a3 = self.coeffs
        return CycloInt(a1 - a3, a0 + a2, a1 + a3, a2 - a0)

    def divisible_by_sqrt2(self) -> bool:
        # z / sqrt2 = z * sqrt2 / 2, integral iff all four entries of
        # z * sqrt2 are even, i.e. a0 = a2 and a1 = a3 modulo 2.
        return (self.a0 - self.a2) % 2 == 0 and (self.a1 - self.a3) % 2 == 0

    def div_sqrt2(self) -> CycloInt:
        if not self.divisible_by_sqrt2():
            raise ValueError(f"{self!r} is not divisible by sqrt2")
        a0, a1, a2, a3 = self.coeffs
        return CycloInt(
            (a1 - a3) // 2, (a0 + a2) // 2, (a1 + a3) // 2, (a2 - a0) // 2
        )

    def is_zero(self) -> bool:
        return self.coeffs == (0, 0, 0, 0)

    def term_count(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)

    def to_complex(self) -> complex:
        re = self.a0 + (self.a1 - self.a3) / _SQRT2
        im = self.a2 + (self.a1 + self.a3) / _SQRT2
        return complex(re, im)

    def poly_text(self) -> str:
        return self._poly(_POWER_NAMES, mul="*")

    def poly_latex(self) -> str:
        return self._poly(_POWER_LATEX, mul="")

    def _poly(self, powers: tuple[str, str, str, str], mul: str) -> str:
        parts: list[tuple[str, str]] = []
        for coef, power in zip(self.coeffs, powers):
            if coef == 0:
                continue
            if not power:
                body = str(abs(coef))
            elif abs(coef) == 1:
                body = power
            else:
                body = f"{abs(coef)}{mul}{power}"
            parts.append(("-" if coef < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


class Amplitude:
    """num / sqrt2^k with num in Z[w] and k >= 0, kept in canonical form.

    Canonical means k = 0 or num is not divisible by sqrt2; the zero value is
    uniquely (0, 0).  The constructor canonicalizes, so equality is plain
    component comparison.
    """

    __slots__ = ("num", "sqrt2_exp")

    def __init__(self, num: CycloInt, sqrt2_exp: int = 0) -> None:
        if sqrt2_exp < 0:
            raise ValueError("sqrt2 exponent must be nonnegative")
        if num.is_zero():
            sqrt2_exp = 0
        else:
            while sqrt2_exp > 0 and num.divisible_by_sqrt2():
                num = num.div_sqrt2()
                sqrt2_exp -= 1
        self.num = num
        self.sqrt2_exp = sqrt2_exp

    @classmethod
    def from_int(cls, n: int) -> Amplitude:
        return cls(CycloInt(n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == Amplitude.from_int(other)
        if isinstance(other, Amplitude):
            return self.num == other.num and self.sqrt2_exp == other.sqrt2_exp
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.sqrt2_exp))

    def __repr__(self) -> str:
        return f"Amplitude({self.text()})"

    def __add__(self, other: Amplitude) -> Amplitude:
        # Lift the smaller denominator exponent: num / sqrt2^k = num*sqrt2 / sqrt2^(k+1).
        a, b = self, other
        na, nb = a.num, b.num
        k = max(a.sqrt2_exp, b.sqrt2_exp)
        for _ in range(k - a.sqrt2_exp):
            na = na.times_sqrt2()
        for _ in range(k - b.sqrt2_exp):
            nb = nb.times_sqrt2()
        return Amplitude(na + nb, k)

    def __neg__(self) -> Amplitude:
        return Amplitude(-self.num, self.sqrt2_exp)

    def __sub__(self, other: Amplitude) -> Amplitude:
        return self + (-other)

    def __mul__(self, other: Amplitude) -> Amplitude:
        return Amplitude(self.num * other.num, self.sqrt2_exp + other.sqrt2_exp)

    def conj(self) -> Amplitude:
        return Amplitude(self.num.conj(), self.sqrt2_exp)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def mod_sq(self) -> ExactReal:
        """|self|^2 as an exact real; the product num * conj(num) is real."""
        m = self.num * self.num.conj()
        if m.a2 != 0 or m.a1 + m.a3 != 0:
            raise ArithmeticError(f"modulus squared of {self!r} is not real")
        # A real element of Z[w] has the form p + q*sqrt2 with q = a1 = -a3.
        return ExactReal(m.a0, m.a1, self.sqrt2_exp)

    def to_complex(self) -> complex:
        return self.num.to_complex() / _SQRT2**self.sqrt2_exp

    def text(self) -> str:
        body = f"({self.num.poly_text()})"
        if self.sqrt2_exp == 0:
            return body
        return f"{body}/sqrt2^{self.sqrt2_exp}"

    def latex(self) -> str:
        body = self.num.poly_latex()
        if self.sqrt2_exp == 0:
            return body
        if " " in body:
            body = f"({body})"
        denom = r"\sqrt{2}" if self.sqrt2_exp == 1 else r"\sqrt{2}^{%d}" % self.sqrt2_exp
        return r"\frac{%s}{%s}" % (body, denom)

    def __str__(self) -> str:
        return self.text()


class ExactReal:
    """Real value (p + q*sqrt2) / 2^k, canonical: k = 0 or p, q not both even."""

    __slots__ = ("p", "q", "k")

    def __init__(self, p: int, q: int = 0, k: int = 0) -> None:
        if k < 0:
            raise ValueError("power-of-two exponent must be nonnegative")
        if p == 0 and q == 0:
            k = 0
        else:
            while k > 0 and p % 2 == 0 and q % 2 == 0:
                p //= 2
                q //= 2
                k -= 1
        self.p = p
        self.q = q
        self.k = k

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == ExactReal(other)
        if isinstance(other, ExactReal):
            return (self.p, self.q, self.k) == (other.p, other.q, other.k)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.k))

    def __repr__(self) -> str:
        return f"ExactReal({self.text()})"

    def __add__(self, other: ExactReal) -> ExactReal:
        k = max(self.k, other.k)
        sa = 1 << (k - self.k)
        sb = 1 << (k - other.k)
        return ExactReal(self.p * sa + other.p * sb, self.q * sa + other.q * sb, k)

    def __neg__(self) -> ExactReal:
        return ExactReal(-self.p, -self.q, self.k)

    def __sub__(self, other: ExactReal) -> ExactReal:
        return self + (-other)

    def __mul__(self, other: ExactReal) -> ExactReal:
        return ExactReal(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
            self.k + other.k,
        )

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Sign of p + q*sqrt2, decided exactly via p^2 vs 2q^2."""
        p, q = self.p, self.q
        if p == 0 and q == 0:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        d = p * p - 2 * q * q  # nonzero here: sqrt2 is irrational
        if p > 0:
            return 1 if d > 0 else -1
        return 1 if d < 0 else -1

    def to_float(self) -> float:
        return (self.p + self.q * _SQRT2) / (1 << self.k)

    def text(self) -> str:
        if self.q == 0:
            return str(self.p) if self.k == 0 else f"{self.p}/{1 << self.k}"
        body = f"({self.p}{self.q:+d}*sqrt2)"
        return body if self.k == 0 else f"{body}/{1 << self.k}"

    def latex(self) -> str:
        body = str(self.p) if self.q == 0 else f"{self.p}{self.q:+d}\\sqrt{{2}}"
        if self.k == 0:
            return body
        return r"\frac{%s}{%d}" % (body, 1 << self.k)

    def __str__(self) -> str:
        return self.text()


AMP_ZERO = Amplitude(CycloInt(0))
AMP_ONE = Amplitude(CycloInt(1))
INV_SQRT2 = Amplitude(CycloInt(1), 1)
OMEGA = Amplitude(CycloInt(0, 1))

REAL_ZERO = ExactReal(0)
REAL_ONE = ExactReal(1)
