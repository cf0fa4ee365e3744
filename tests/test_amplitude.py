"""Exact ring arithmetic: canonical forms, ring laws, and the float bridge."""

import math

import pytest
from hypothesis import given
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
)

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
