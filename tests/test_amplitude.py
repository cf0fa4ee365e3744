"""Exact ring arithmetic: canonical forms, ring laws, and the float bridge."""

import math
import sys
from contextlib import contextmanager

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmc.amplitude import (
    AMP_ONE,
    AMP_ZERO,
    Amplitude,
    CycloInt,
    ExactReal,
    INV_SQRT2,
    OMEGA,
    REAL_ONE,
    REAL_ZERO,
    _CHUNK_DIGITS,
    _POWER_NAMES,
    _decimal,
    _latex,
    _mod_sq,
    _mul,
    _poly,
    _times_unit,
)
from qmc.state import _coeff_text

SQRT2 = Amplitude(CycloInt(0, 1, 0, -1))  # w - w^3
HALF = Amplitude(CycloInt(1), 2)
OMEGA3 = Amplitude(CycloInt(0, 0, 0, 1))

coefficients = st.integers(min_value=-9, max_value=9)


@st.composite
def amplitudes(draw):
    num = CycloInt(
        draw(coefficients), draw(coefficients), draw(coefficients), draw(coefficients)
    )
    return Amplitude(num, draw(st.integers(min_value=0, max_value=4)))


def approx_eq(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(a - b) < tol


# ---------------------------------------------------------------------------
# add / mul / conj examples
# ---------------------------------------------------------------------------

def test_add_halves_of_sqrt2():
    assert INV_SQRT2 + INV_SQRT2 == SQRT2


def test_add_cancels_exactly():
    assert HALF + (-HALF) == AMP_ZERO
    assert (HALF + (-HALF)).sqrt2_exp == 0


def test_add_of_rotated_halves_matches_float():
    x = Amplitude(CycloInt(0, 1), 1)  # w / sqrt2
    y = Amplitude(CycloInt(0, 0, 0, 1), 1)  # w^3 / sqrt2
    assert approx_eq((x + y).to_complex(), x.to_complex() + y.to_complex())


def test_mul_inv_sqrt2_squared():
    assert INV_SQRT2 * INV_SQRT2 == HALF


def test_mul_omega_fourth_power_is_minus_one():
    assert OMEGA * OMEGA3 == Amplitude(CycloInt(-1))


def test_conj_real_fixed_point():
    assert INV_SQRT2.conj() == INV_SQRT2


def test_conj_omega():
    assert OMEGA.conj() == Amplitude(CycloInt(0, 0, 0, -1))


@given(amplitudes())
def test_conj_is_involution(x):
    assert x.conj().conj() == x


@given(amplitudes(), amplitudes())
def test_mul_matches_float(x, y):
    assert approx_eq((x * y).to_complex(), x.to_complex() * y.to_complex(), 1e-9)


@given(amplitudes(), amplitudes())
def test_add_matches_float(x, y):
    assert approx_eq((x + y).to_complex(), x.to_complex() + y.to_complex(), 1e-9)


@given(amplitudes())
def test_conj_matches_float(x):
    assert approx_eq(x.conj().to_complex(), x.to_complex().conjugate())


# ---------------------------------------------------------------------------
# ring laws
# ---------------------------------------------------------------------------

@given(amplitudes(), amplitudes())
def test_add_commutes(x, y):
    assert x + y == y + x


@given(amplitudes(), amplitudes())
def test_mul_commutes(x, y):
    assert x * y == y * x


@given(amplitudes(), amplitudes(), amplitudes())
def test_add_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(amplitudes(), amplitudes(), amplitudes())
def test_mul_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(amplitudes(), amplitudes(), amplitudes())
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


# ---------------------------------------------------------------------------
# mod_sq
# ---------------------------------------------------------------------------

def test_mod_sq_inv_sqrt2_is_one_half():
    assert INV_SQRT2.mod_sq() == ExactReal(1, 0, 1)


def test_mod_sq_zero():
    assert AMP_ZERO.mod_sq() == REAL_ZERO


def test_mod_sq_one_plus_i_over_sqrt2():
    x = Amplitude(CycloInt(1, 0, 1), 1)  # (1 + i) / sqrt2
    assert x.mod_sq() == REAL_ONE
    assert approx_eq(abs(x.to_complex()) ** 2, 1.0)


@given(amplitudes())
def test_mod_sq_matches_float(x):
    assert abs(x.mod_sq().to_float() - abs(x.to_complex()) ** 2) < 1e-9


@given(amplitudes())
def test_mod_sq_invariant_under_conj(x):
    assert x.mod_sq() == x.conj().mod_sq()


@given(amplitudes())
def test_mod_sq_of_a_canonical_amplitude_is_canonical(x):
    # num not divisible by sqrt2 makes num * conj(num) not divisible by 2,
    # so a Born weight is kept as the raw triple (see `calculus.Distribution`).
    t = _mod_sq(x.packed)
    exact = ExactReal(*t)
    assert t == (exact.p, exact.q, exact.k)


@given(amplitudes())
def test_mod_sq_nonnegative(x):
    assert x.mod_sq().sign() >= 0
    assert x.mod_sq().to_float() >= 0.0


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_two_over_sqrt2_squared_reduces_to_one():
    assert Amplitude(CycloInt(2), 2) == AMP_ONE
    assert Amplitude(CycloInt(2), 2).sqrt2_exp == 0


def test_zero_is_unique():
    assert Amplitude(CycloInt(0), 5) == AMP_ZERO
    assert Amplitude(CycloInt(0), 5).sqrt2_exp == 0


@given(amplitudes())
def test_canonical_invariant(x):
    assert x.sqrt2_exp == 0 or not x.num.divisible_by_sqrt2()


@given(amplitudes())
def test_lift_by_sqrt2_then_reduce_is_identity(x):
    assert Amplitude(x.num.times_sqrt2(), x.sqrt2_exp + 1) == x


@given(amplitudes())
def test_canonicalize_idempotent_and_value_preserving(x):
    # The constructor canonicalizes: rebuilding from a canonical or a lifted
    # form gives x back, and the lifted form has the same value.
    lifted = x.num.times_sqrt2()
    assert Amplitude(x.num, x.sqrt2_exp) == x
    assert Amplitude(lifted, x.sqrt2_exp + 1) == x
    lifted_value = lifted.to_complex() / math.sqrt(2) ** (x.sqrt2_exp + 1)
    assert approx_eq(lifted_value, x.to_complex())


def unit(j: int, e: int) -> Amplitude:
    """w^j / sqrt2^e."""
    coeffs = [0, 0, 0, 0]
    coeffs[j % 4] = -1 if j >= 4 else 1
    return Amplitude(CycloInt(*coeffs), e)


@given(amplitudes(), st.integers(0, 7), st.integers(0, 3))
def test_times_unit_equals_the_product(x, j, e):
    assert _times_unit(x.packed, j, e) == _mul(x.packed, unit(j, e).packed)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Amplitude(CycloInt(1), -1)


# ---------------------------------------------------------------------------
# float views and text
# ---------------------------------------------------------------------------

def test_to_complex_inv_sqrt2():
    assert approx_eq(INV_SQRT2.to_complex(), complex(1 / math.sqrt(2), 0))


def test_to_complex_omega():
    r = 1 / math.sqrt(2)
    assert approx_eq(OMEGA.to_complex(), complex(r, r))


def test_amplitude_text():
    assert INV_SQRT2.text() == "(1)/sqrt2^1"
    assert AMP_ONE.text() == "(1)"
    assert Amplitude(CycloInt(1, -1, 0, 2)).text() == "(1 - w + 2*w^3)"


def test_zero_numerator_text():
    assert AMP_ZERO.text() == "(0)"
    assert AMP_ZERO.latex() == "0"


# The coefficient formatters as they were before `_poly` became one pass
# that also counts the terms: the reference the one formatter must match
# byte for byte.
def _old_poly(coeffs: tuple[int, ...], powers: tuple[str, ...], mul: str) -> str:
    parts: list[tuple[str, str]] = []
    for coef, power in zip(coeffs, powers):
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


def _old_text(x: tuple) -> str:
    body = f"({_old_poly(x[:4], ('', 'w', 'w^2', 'w^3'), '*')})"
    return body if x[4] == 0 else f"{body}/sqrt2^{x[4]}"


def _old_coeff_text(amp: tuple) -> str:
    poly = _old_poly(amp[:4], ("", "w", "w^2", "w^3"), "*")
    k = amp[4]
    if k == 0:
        return poly
    single = sum(1 for c in amp[:4] if c) == 1
    base = poly if single else f"({poly})"
    if k == 1:
        return f"{base}/sqrt2"
    return f"{base}/sqrt2^{k}"


def _old_latex(x: tuple) -> str:
    body = _old_poly(x[:4], ("", r"\omega", r"\omega^2", r"\omega^3"), "")
    k = x[4]
    if k == 0:
        return body
    if " " in body:
        body = f"({body})"
    denom = r"\sqrt{2}" if k == 1 else r"\sqrt{2}^{%d}" % k
    return r"\frac{%s}{%s}" % (body, denom)


# Zero and the units, which print without a coefficient, small values, and
# values past 2^64 of either sign.
_FORMAT_COEFFS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-9, 9),
    st.integers(2**64 + 1, 2**200).flatmap(lambda c: st.sampled_from([c, -c])),
)
_FORMAT_EXPONENTS = st.one_of(st.sampled_from([0, 1]), st.integers(2, 80))


@example(packed=(0, 0, 0, 0, 0))
@example(packed=(0, 0, 0, 0, 3))  # not canonical: a zero numerator over sqrt2^3
@example(packed=(-1, 0, 0, 0, 1))
@example(packed=(0, -(2**65), 0, 1, 2))
@given(st.tuples(*[_FORMAT_COEFFS] * 4, _FORMAT_EXPONENTS))
def test_the_one_formatter_matches_the_old_formatters(packed):
    assert Amplitude.of(packed).text() == _old_text(packed)
    assert _coeff_text(packed) == _old_coeff_text(packed)
    assert _latex(packed) == _old_latex(packed)


# ---------------------------------------------------------------------------
# value semantics: equality with ints and values, hashing, repr and str
# ---------------------------------------------------------------------------

def test_cyclo_int_value_semantics():
    assert CycloInt(3) == 3 and CycloInt(3, 1) != 3
    assert CycloInt(1, -1, 0, 2) == CycloInt(1, -1, 0, 2) != CycloInt(1, -1, 0, 3)
    assert CycloInt(0, 1) != "w"
    assert hash(CycloInt(1, 2)) == hash(CycloInt(1, 2, 0, 0))
    assert repr(CycloInt(1, -1, 0, 2)) == "CycloInt(1, -1, 0, 2)"


def test_amplitude_value_semantics():
    assert AMP_ONE == 1 and AMP_ZERO == 0 and INV_SQRT2 != 1
    # Canonical form: 2/sqrt2^2 is 1, so it equals 1 and hashes as 1.
    two_halves = Amplitude(CycloInt(2), 2)
    assert two_halves == AMP_ONE and hash(two_halves) == hash(AMP_ONE)
    assert AMP_ONE != "1"
    assert AMP_ONE - AMP_ONE == AMP_ZERO
    assert OMEGA - AMP_ONE == Amplitude(CycloInt(-1, 1))
    assert repr(INV_SQRT2) == "Amplitude((1)/sqrt2^1)"
    assert str(OMEGA3) == "(w^3)"
    assert INV_SQRT2.latex() == r"\frac{1}{\sqrt{2}}"
    assert Amplitude(CycloInt(1, 1), 2).latex() == r"\frac{(1 + \omega)}{\sqrt{2}^{2}}"


def test_exact_real_value_semantics():
    with pytest.raises(ValueError, match="nonnegative"):
        ExactReal(1, 0, -1)
    assert REAL_ONE == 1 and ExactReal(4, 0, 2) == 1 and ExactReal(1, 0, 1) != 1
    assert REAL_ONE != 1.0
    assert hash(ExactReal(2, 2, 1)) == hash(ExactReal(1, 1)) != hash(ExactReal(1, 1, 1))
    assert REAL_ZERO.is_zero() and ExactReal(0, 0, 5).is_zero()
    assert not ExactReal(0, 1).is_zero() and not ExactReal(1, -1).is_zero()


# ---------------------------------------------------------------------------
# ExactReal
# ---------------------------------------------------------------------------

def test_exact_real_canonical():
    assert ExactReal(2, 0, 1) == ExactReal(1)
    assert ExactReal(0, 0, 3) == REAL_ZERO
    assert ExactReal(2, 1, 2).k == 2  # q odd, no reduction


def test_exact_real_text():
    assert ExactReal(1, 0, 1).text() == "1/2"
    assert REAL_ONE.text() == "1"
    assert ExactReal(2, 1, 2).text() == "(2+1*sqrt2)/4"


def test_exact_real_sign_mixed():
    assert ExactReal(3, -2).sign() == 1  # 3 - 2*sqrt2 > 0
    assert ExactReal(1, -1).sign() == -1  # 1 - sqrt2 < 0
    assert ExactReal(-1, 1).sign() == 1  # sqrt2 - 1 > 0
    assert ExactReal(-3, 2).sign() == -1
    assert REAL_ZERO.sign() == 0


def _halving_reduction(p, q, k):
    """The canonical form found one halving at a time."""
    if p == 0 and q == 0:
        return 0, 0, 0
    while k > 0 and p % 2 == 0 and q % 2 == 0:
        p //= 2
        q //= 2
        k -= 1
    return p, q, k


@given(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=45),
)
def test_exact_real_reduces_like_repeated_halving(p, q, k, twos):
    p, q = p << twos, q << twos  # shared trailing zeros, up to past k
    x = ExactReal(p, q, k)
    assert (x.p, x.q, x.k) == _halving_reduction(p, q, k)


exact_reals = st.builds(
    ExactReal,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=5),
)


@given(exact_reals, exact_reals)
def test_exact_real_add_matches_float(a, b):
    assert abs((a + b).to_float() - (a.to_float() + b.to_float())) < 1e-9


@given(exact_reals, exact_reals)
def test_exact_real_mul_matches_float(a, b):
    assert abs((a * b).to_float() - a.to_float() * b.to_float()) < 1e-9


@given(exact_reals)
def test_exact_real_sign_matches_float(a):
    f = a.to_float()
    if abs(f) > 1e-9:
        assert a.sign() == (1 if f > 0 else -1)


def _old_to_float(x: ExactReal) -> float:
    """The formula `to_float` had before it shifted; it overflows once p, q
    or 2^k passes the float range."""
    return (x.p + x.q * math.sqrt(2.0)) / (1 << x.k)


@st.composite
def float_edge_ints(draw):
    """Integers of a drawn bit length, far inside the float range or near
    its edge at 2^1024.  Half are random below their top bit; the others
    are ties for a float's rounding, or ties but for their lowest bits: the
    top bit, perhaps the bit half a unit below a float's last place, and a
    few low bits."""
    bits = draw(st.one_of(st.integers(0, 70), st.integers(1019, 1026)))
    if draw(st.booleans()):
        rest = draw(st.integers(0, (1 << bits) - 1))
    else:
        rest = draw(st.booleans()) << max(bits - 53, 0) | draw(st.integers(0, 7))
    magnitude = (1 << bits) | rest
    return magnitude if draw(st.booleans()) else -magnitude


# Each just above a tie for the float's rounding, by a bit that a plain
# shift would drop.
@example(p=(1 << 1023) | (1 << 970) | 1, q=0, k=1023)
@example(p=3, q=-((1 << 1022) | (1 << 969) | 1), k=1000)
@given(float_edge_ints(), float_edge_ints(), st.integers(0, 1100))
def test_to_float_is_the_old_float_wherever_that_was_finite(p, q, k):
    x = ExactReal(p, q, k)
    try:
        old = _old_to_float(x)
    except OverflowError:
        old = math.inf
    if math.isfinite(old):
        assert x.to_float() == old
    elif (REAL_ONE - x).sign() >= 0 and (REAL_ONE + x).sign() >= 0:
        # A value in [-1, 1], such as a probability, always converts.
        assert math.isfinite(x.to_float())


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-str digits"
)


@contextmanager
def digit_limit(limit: int):
    """The interpreter's int-to-str limit set to limit, then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def unlimited_str(n: int) -> str:
    with digit_limit(0):
        return str(n)


@st.composite
def long_integers(draw):
    """Integers of 1 to 3 chunks past the limit of 640 digits or short of
    it, with runs of zeros or nines that meet the chunk boundaries."""
    digits = draw(st.integers(1, 640 + 3 * _CHUNK_DIGITS))
    n = draw(st.integers(10 ** (digits - 1) if digits > 1 else 0, 10**digits - 1))
    shift = draw(st.sampled_from((0, _CHUNK_DIGITS, _CHUNK_DIGITS - 1, 2 * _CHUNK_DIGITS)))
    n = draw(st.sampled_from((n, n * 10**shift, n * 10**shift - 1, n * 10**shift + 1)))
    return draw(st.sampled_from((n, -n)))


@needs_digit_limit
@given(n=long_integers(), limit=st.sampled_from((640, 641, 1000, 4300)))
def test_decimal_is_str_on_either_side_of_the_limit(n, limit):
    expected = unlimited_str(n)
    with digit_limit(limit):
        assert _decimal(n) == expected


@needs_digit_limit
def test_numbers_past_the_limit_format_in_full():
    big = 10**4400
    with digit_limit(4300):
        poly = _poly((big, 1, 0, -big, 3), _POWER_NAMES, "*")
        real = ExactReal(big + 1, -big, 3)
        texts = (real.text(), real.latex(), repr(real), repr(CycloInt(big, 0, -big)))
        small_denominator = ExactReal(1, 0, 15000).text()
    digits, odd = unlimited_str(big), unlimited_str(big + 1)
    assert poly == (f"{digits} + w - {digits}*w^3", 3)
    assert texts == (
        f"({odd}-{digits}*sqrt2)/8",
        rf"\frac{{{odd}-{digits}\sqrt{{2}}}}{{8}}",
        f"ExactReal(({odd}-{digits}*sqrt2)/8)",
        f"CycloInt({digits}, 0, -{digits}, 0)",
    )
    assert small_denominator == f"1/{unlimited_str(1 << 15000)}"
