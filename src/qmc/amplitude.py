"""Exact amplitude arithmetic over the ring Z[w, 1/sqrt2], w = exp(i*pi/4).

w is a primitive eighth root of unity: w^4 = -1, w^2 = i, and w - w^3 = sqrt2.
Every matrix entry of the supported gate set (I, X, Z, S, T, H, CNOT) lies in
this ring, so any state reachable from a computational basis state stays
inside it.  That makes total destructive cancellation a decidable zero test
instead of an epsilon comparison on floats.

The state engine works on packed amplitudes: a tuple (a0, a1, a2, a3, k)
standing for (a0 + a1*w + a2*w^2 + a3*w^3) / sqrt2^k, in the
smallest-denominator-exponent normal form of Giles & Selinger
(arXiv:1212.0506): k = 0 or the numerator is not divisible by sqrt2, and
zero is (0, 0, 0, 0, 0).  Canonical tuples are equal exactly when the values
are, so the zero test and equality are tuple comparisons.  The module-level
`_mul`, `_add`, `_canonical` and `_mod_sq` are the one implementation of the
ring, `_times_unit` is `_mul` by a unit w^j / sqrt2^e done as a rotation of
the coefficients, and `_real_add` is the sum of the reals that `_mod_sq`
yields: `ExactReal` adds with it, `calculus.sample_outcome` walks its CDF
with it and `calculus._born` sums a distribution's norm with it, over the
distinct weights, while `state.norm_sq`, the norm of each checked sequent,
inlines both for speed.  `_sign` is the exact sign of such a
real.  They are module-private because the state engine calls them once per
term.  `Amplitude` is the value the API and the renderers see: a thin wrapper
around one packed tuple, whose operators call those functions.

`_poly` is the one coefficient formatter.  It writes a packed amplitude's
numerator in one pass over its coefficients and counts its nonzero terms on
the way, which decides the parentheses before a denominator:
`Amplitude.text`, `_latex` (the LaTeX renderers') and `state._coeff_text`
(the ascii renderers') are each a few lines around it.  `_decimal` is the
one decimal writer of a ring integer for a number too long for `str` under
the interpreter's limit on int-to-str digits: `_poly` falls back to it only
when `str` refuses a coefficient, and `ExactReal`'s texts and the reprs
write every integer through it, so an exact value of any length prints.

Coefficients are Python ints, hence arbitrary precision: values grow, they
never silently wrap.
"""

from __future__ import annotations

import math
from typing import Callable

_SQRT2 = math.sqrt(2.0)
# Below 2^1021, p + q*sqrt2 stays inside the float range (2^1024).
_FLOAT_BITS = 1021

_POWER_NAMES = ("", "w", "w^2", "w^3")
_POWER_LATEX = ("", r"\omega", r"\omega^2", r"\omega^3")

Packed = tuple[int, int, int, int, int]

PACKED_ZERO: Packed = (0, 0, 0, 0, 0)
PACKED_ONE: Packed = (1, 0, 0, 0, 0)


def _times_sqrt2(a0: int, a1: int, a2: int, a3: int) -> tuple[int, int, int, int]:
    # Multiply by sqrt2 = w - w^3.
    return a1 - a3, a0 + a2, a1 + a3, a2 - a0


def _canonical(a0: int, a1: int, a2: int, a3: int, k: int) -> Packed:
    """Divide out sqrt2 while k > 0 and the numerator allows it.

    z / sqrt2 = z * sqrt2 / 2 is integral iff a0 = a2 and a1 = a3 modulo 2.
    """
    while k and not (a0 ^ a2) & 1 and not (a1 ^ a3) & 1:
        if not (a0 or a1 or a2 or a3):
            return PACKED_ZERO
        a0, a1, a2, a3 = (a1 - a3) >> 1, (a0 + a2) >> 1, (a1 + a3) >> 1, (a2 - a0) >> 1
        k -= 1
    return a0, a1, a2, a3, k


def _mul(x: Packed, y: Packed) -> Packed:
    # Convolution folded with w^4 = -1; the exponents add.
    a0, a1, a2, a3, ka = x
    b0, b1, b2, b3, kb = y
    return _canonical(
        a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        ka + kb,
    )


def _times_unit(x: Packed, j: int, e: int) -> Packed:
    """x * w^j / sqrt2^e.

    Multiplying by w shifts the coefficients one power up, and w^4 = -1
    wraps the top one around negated.  w^j is a unit of Z[w], so it leaves
    a numerator not divisible by sqrt2 not divisible: when k > 0 the
    exponents just add, and only k = 0 needs `_canonical`.
    """
    a0, a1, a2, a3, k = x
    if j & 4:
        a0, a1, a2, a3 = -a0, -a1, -a2, -a3
    j &= 3
    if j == 1:
        a0, a1, a2, a3 = -a3, a0, a1, a2
    elif j == 2:
        a0, a1, a2, a3 = -a2, -a3, a0, a1
    elif j == 3:
        a0, a1, a2, a3 = -a1, -a2, -a3, a0
    if k or not e:
        return a0, a1, a2, a3, k + e
    return _canonical(a0, a1, a2, a3, e)


def _add(x: Packed, y: Packed) -> Packed:
    # Lift the smaller exponent: num / sqrt2^k = num * sqrt2^d / sqrt2^(k+d),
    # with sqrt2^d = 2^(d // 2) * sqrt2^(d % 2).
    a0, a1, a2, a3, ka = x
    b0, b1, b2, b3, kb = y
    if ka < kb:
        a0, a1, a2, a3, ka, b0, b1, b2, b3, kb = b0, b1, b2, b3, kb, a0, a1, a2, a3, ka
    d = ka - kb
    if d & 1:
        b0, b1, b2, b3 = _times_sqrt2(b0, b1, b2, b3)
    d >>= 1
    return _canonical(
        a0 + (b0 << d), a1 + (b1 << d), a2 + (b2 << d), a3 + (b3 << d), ka
    )


def _conj(x: Packed) -> Packed:
    # conj(w) = w^-1 = -w^3, conj(w^2) = -w^2, conj(w^3) = -w.
    a0, a1, a2, a3, k = x
    return a0, -a3, -a2, -a1, k


def _mod_sq(x: Packed) -> tuple[int, int, int]:
    """|x|^2 = (p + q*sqrt2) / 2^k as (p, q, k), not reduced.

    num * conj(num) is real, p + q*w - q*w^3 with q*(w - w^3) = q*sqrt2, and
    the denominator sqrt2^k squares to 2^k.
    """
    a0, a1, a2, a3, k = x
    return (
        a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3,
        a0 * a1 + a1 * a2 + a2 * a3 - a3 * a0,
        k,
    )


def _real_add(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """(p + q*sqrt2) / 2^k triples added over the larger k, not reduced."""
    pa, qa, ka = x
    pb, qb, kb = y
    if ka < kb:
        pa, qa, ka, pb, qb, kb = pb, qb, kb, pa, qa, ka
    d = ka - kb
    return pa + (pb << d), qa + (qb << d), ka


def _real_canonical(p: int, q: int, k: int) -> tuple[int, int, int]:
    """The (p + q*sqrt2) / 2^k triple in `ExactReal`'s canonical form: k = 0
    or p, q not both even, and zero is (0, 0, 0)."""
    if p == 0 and q == 0:
        return 0, 0, 0
    if k:
        low = p | q  # its trailing zeros are those p and q share
        shift = min(k, (low & -low).bit_length() - 1)
        return p >> shift, q >> shift, k - shift
    return p, q, k


def _sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt2, decided exactly via p^2 vs 2q^2: the one sign
    rule, for `ExactReal.sign` and for sums kept as plain integers."""
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


def _to_complex(x: Packed) -> complex:
    a0, a1, a2, a3, k = x
    re = a0 + (a1 - a3) / _SQRT2
    im = a2 + (a1 + a3) / _SQRT2
    return complex(re, im) / _SQRT2**k


# The digits of one chunk of `_decimal`: below 640, the lowest limit that
# CPython lets `sys.set_int_max_str_digits` set, so `str` takes any chunk.
_CHUNK_DIGITS = 512
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """The decimal text of an integer of any length: `str(n)` below the
    interpreter's limit on int-to-str conversion (4300 digits by default),
    and past it the same digits, from chunks of `_CHUNK_DIGITS` that `divmod`
    cuts off and `str` writes zero-padded.  The limit is never lifted."""
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(sign + str(n))
    return "".join(reversed(chunks))


def _poly(x: Packed, powers: tuple[str, str, str, str], mul: str) -> tuple[str, int]:
    """The numerator of a packed amplitude, as in `1 - w + 2*w^3`, with its
    number of nonzero terms; powers names w^0 to w^3 and mul stands between
    a coefficient and its power.  Only a coefficient too long for `str`
    makes a second pass, through `_decimal`."""
    try:
        return _poly_pass(x, powers, mul, str)
    except ValueError:
        return _poly_pass(x, powers, mul, _decimal)


def _poly_pass(
    x: Packed, powers: tuple[str, str, str, str], mul: str, digits: Callable[[int], str]
) -> tuple[str, int]:
    """`_poly` in one pass over the coefficients, each written by digits."""
    a0, a1, a2, a3, _ = x
    text = digits(a0) if a0 else ""
    terms = 1 if a0 else 0
    for coef, power in ((a1, powers[1]), (a2, powers[2]), (a3, powers[3])):
        if coef:
            if coef < 0:
                sign = " - " if terms else "-"
                coef = -coef
            else:
                sign = " + " if terms else ""
            text += sign + power if coef == 1 else f"{sign}{digits(coef)}{mul}{power}"
            terms += 1
    return text or "0", terms


def _latex(x: Packed) -> str:
    body, terms = _poly(x, _POWER_LATEX, "")
    k = x[4]
    if k == 0:
        return body
    if terms > 1:
        body = f"({body})"
    denom = r"\sqrt{2}" if k == 1 else r"\sqrt{2}^{%d}" % k
    return r"\frac{%s}{%s}" % (body, denom)


class CycloInt:
    """a0 + a1*w + a2*w^2 + a3*w^3 with integer coefficients: the numerator
    of an `Amplitude`, as the API shows it."""

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
        return f"CycloInt({', '.join(map(_decimal, self.coeffs))})"

    def times_sqrt2(self) -> CycloInt:
        return CycloInt(*_times_sqrt2(*self.coeffs))

    def divisible_by_sqrt2(self) -> bool:
        return _canonical(*self.coeffs, 1)[4] == 0

    def to_complex(self) -> complex:
        return _to_complex((*self.coeffs, 0))


class Amplitude:
    """num / sqrt2^k with num in Z[w] and k >= 0, kept in canonical form.

    The value is the packed tuple in `packed`; canonical means k = 0 or num
    is not divisible by sqrt2, and the zero value is uniquely (0, 0).  The
    constructor canonicalizes, so equality is plain tuple comparison.
    """

    __slots__ = ("packed",)

    def __init__(self, num: CycloInt, sqrt2_exp: int = 0) -> None:
        if sqrt2_exp < 0:
            raise ValueError("sqrt2 exponent must be nonnegative")
        self.packed = _canonical(*num.coeffs, sqrt2_exp)

    @classmethod
    def of(cls, packed: Packed) -> Amplitude:
        """The amplitude of an already canonical packed tuple."""
        amp = object.__new__(cls)
        amp.packed = packed
        return amp

    @classmethod
    def from_int(cls, n: int) -> Amplitude:
        return cls(CycloInt(n))

    @property
    def num(self) -> CycloInt:
        return CycloInt(*self.packed[:4])

    @property
    def sqrt2_exp(self) -> int:
        return self.packed[4]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == Amplitude.from_int(other)
        if isinstance(other, Amplitude):
            return self.packed == other.packed
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.packed)

    def __repr__(self) -> str:
        return f"Amplitude({self.text()})"

    def __add__(self, other: Amplitude) -> Amplitude:
        return Amplitude.of(_add(self.packed, other.packed))

    def __neg__(self) -> Amplitude:
        a0, a1, a2, a3, k = self.packed
        return Amplitude.of((-a0, -a1, -a2, -a3, k))

    def __sub__(self, other: Amplitude) -> Amplitude:
        return self + (-other)

    def __mul__(self, other: Amplitude) -> Amplitude:
        return Amplitude.of(_mul(self.packed, other.packed))

    def conj(self) -> Amplitude:
        return Amplitude.of(_conj(self.packed))

    def is_zero(self) -> bool:
        return self.packed == PACKED_ZERO

    def mod_sq(self) -> ExactReal:
        """|self|^2 as an exact real."""
        return ExactReal(*_mod_sq(self.packed))

    def to_complex(self) -> complex:
        return _to_complex(self.packed)

    def text(self) -> str:
        body = f"({_poly(self.packed, _POWER_NAMES, '*')[0]})"
        if self.sqrt2_exp == 0:
            return body
        return f"{body}/sqrt2^{self.sqrt2_exp}"

    def latex(self) -> str:
        return _latex(self.packed)

    def __str__(self) -> str:
        return self.text()


class ExactReal:
    """Real value (p + q*sqrt2) / 2^k, canonical: k = 0 or p, q not both even."""

    __slots__ = ("p", "q", "k")

    def __init__(self, p: int, q: int = 0, k: int = 0) -> None:
        if k < 0:
            raise ValueError("power-of-two exponent must be nonnegative")
        self.p, self.q, self.k = _real_canonical(p, q, k)

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
        return ExactReal(*_real_add((self.p, self.q, self.k), (other.p, other.q, other.k)))

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
        """Sign of p + q*sqrt2 (see `_sign`)."""
        return _sign(self.p, self.q)

    def to_float(self) -> float:
        """(p + q*sqrt2) / 2^k in floating point.

        p, q and 2^k can each pass the float range while the value does not
        (the weights of a 6000-gate H/T chain have 1100-bit p and q).  Past
        `_FLOAT_BITS`, p and q shift down together and the shift moves into
        the exponent, which `math.ldexp` applies.  The shift rounds to odd
        (a dropped nonzero bit sets the lowest one), which keeps what a
        float's rounding depends on, so they convert as they would unshifted,
        scaled by 2^-shift.  Below it this is the float that dividing by 2^k
        gives.
        """
        p, q, k = self.p, self.q, self.k
        if p.bit_length() > _FLOAT_BITS or q.bit_length() > _FLOAT_BITS:
            shift = max(p.bit_length(), q.bit_length()) - _FLOAT_BITS
            dropped = (1 << shift) - 1
            p = p >> shift | bool(p & dropped)
            q = q >> shift | bool(q & dropped)
            k -= shift
        return math.ldexp(p + q * _SQRT2, -k)

    def _numerator(self, sqrt2: str) -> str:
        """p, or p + q*sqrt2 with the given text for sqrt2, signed."""
        p = _decimal(self.p)
        if self.q == 0:
            return p
        return f"{p}{'+' if self.q > 0 else ''}{_decimal(self.q)}{sqrt2}"

    def text(self) -> str:
        body = self._numerator("*sqrt2")
        if self.q:
            body = f"({body})"
        return body if self.k == 0 else f"{body}/{_decimal(1 << self.k)}"

    def latex(self) -> str:
        body = self._numerator("\\sqrt{2}")
        if self.k == 0:
            return body
        return r"\frac{%s}{%s}" % (body, _decimal(1 << self.k))

    def __str__(self) -> str:
        return self.text()


AMP_ZERO = Amplitude(CycloInt(0))
AMP_ONE = Amplitude(CycloInt(1))
INV_SQRT2 = Amplitude(CycloInt(1), 1)
OMEGA = Amplitude(CycloInt(0, 1))

REAL_ZERO = ExactReal(0)
REAL_ONE = ExactReal(1)
