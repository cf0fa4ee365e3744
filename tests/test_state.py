"""Superpositions: tensoring, interference-performing combination, rendering."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc.amplitude import (
    AMP_ONE,
    AMP_ZERO,
    PACKED_ZERO,
    REAL_ONE,
    REAL_ZERO,
    Amplitude,
    CycloInt,
    ExactReal,
    _add,
    _mod_sq,
    _real_add,
)
from qmc.gates import GateApplication, apply, builtin
from qmc.state import (
    MEMO_TERMS,
    BasisState,
    Superposition,
    combine,
    ket,
    norm_sq,
    support,
    tensor,
)

from conftest import WIDE_STATES, random_orbit_state

HALF = Amplitude(CycloInt(1), 2)
INV_SQRT2 = Amplitude(CycloInt(1), 1)


def bell() -> Superposition:
    return Superposition(
        2, {BasisState("00"): INV_SQRT2, BasisState("11"): INV_SQRT2}
    )


coefficients = st.integers(min_value=-5, max_value=5)


@st.composite
def raw_amplitudes(draw):
    num = CycloInt(
        draw(coefficients), draw(coefficients), draw(coefficients), draw(coefficients)
    )
    return Amplitude(num, draw(st.integers(min_value=0, max_value=3)))


@st.composite
def superpositions(draw, width=None):
    w = width or draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=1 << w))
    terms = {}
    for _ in range(n_terms):
        bits = "".join(draw(st.sampled_from("01")) for _ in range(w))
        terms[BasisState(bits)] = draw(raw_amplitudes())
    return Superposition(w, terms)


def dense(s: Superposition) -> np.ndarray:
    out = np.zeros(1 << s.width, dtype=complex)
    for basis, amp in s.terms():
        out[int(basis.bits, 2)] = amp.to_complex()
    return out


# ---------------------------------------------------------------------------
# BasisState
# ---------------------------------------------------------------------------

def test_basis_state_validation():
    with pytest.raises(ValueError):
        BasisState("")
    with pytest.raises(ValueError):
        BasisState("012")


def test_basis_state_ordering_is_lexicographic():
    states = [BasisState(b) for b in ("10", "00", "11", "01")]
    assert [b.bits for b in sorted(states)] == ["00", "01", "10", "11"]


# ---------------------------------------------------------------------------
# ket
# ---------------------------------------------------------------------------

def test_ket_zero():
    s = ket("0")
    assert s.amplitude(BasisState("0")) == AMP_ONE
    assert len(s) == 1


def test_ket_two_qubits():
    assert support(ket("01")) == [BasisState("01")]


def test_ket_is_normalized():
    for bits in ("0", "1", "0110", "111"):
        assert norm_sq(ket(bits)) == REAL_ONE


def test_ket_rejects_empty():
    with pytest.raises(ValueError):
        ket("")


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_of_kets():
    assert tensor(ket("0"), ket("0")) == ket("00")


def test_tensor_plus_state_with_zero():
    plus = Superposition(1, {BasisState("0"): INV_SQRT2, BasisState("1"): INV_SQRT2})
    expected = Superposition(
        2, {BasisState("00"): INV_SQRT2, BasisState("10"): INV_SQRT2}
    )
    assert tensor(plus, ket("0")) == expected


def test_tensor_matches_kronecker_product():
    rng = random.Random(11)
    for _ in range(25):
        a = random_orbit_state(rng, 2)
        b = random_orbit_state(rng, 2)
        exact = dense(tensor(a, b))
        oracle = np.kron(dense(a), dense(b))
        assert np.max(np.abs(exact - oracle)) < 1e-9


@given(superpositions(width=1), superpositions(width=1), superpositions(width=2))
def test_tensor_associates(a, b, c):
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


@given(superpositions(), superpositions())
def test_tensor_norm_is_multiplicative(a, b):
    assert norm_sq(tensor(a, b)) == norm_sq(a) * norm_sq(b)


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------

def test_combine_cancels_opposite_halves():
    parts = [
        (HALF.packed, 0b0),
        (HALF.packed, 0b1),
        (HALF.packed, 0b0),
        ((-HALF).packed, 0b1),
    ]
    result = combine(parts, 1)
    assert result == ket("0")
    assert result.amplitude(BasisState("0")) == AMP_ONE


def test_combine_empty():
    s = combine([], 3)
    assert s.width == 3
    assert len(s) == 0
    assert norm_sq(s) == REAL_ZERO
    assert s.render() == "0"


def test_combine_width_mismatch():
    with pytest.raises(ValueError):
        combine([(AMP_ONE.packed, 0b10)], 1)


@given(
    st.lists(
        st.tuples(raw_amplitudes(), st.sampled_from(["00", "01", "10", "11"])),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_combine_is_permutation_invariant(pairs, rng):
    parts = [(amp.packed, int(bits, 2)) for amp, bits in pairs]
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert combine(parts, 2) == combine(shuffled, 2)


@given(superpositions())
def test_combine_round_trips_canonical_states(s):
    parts = [(amp.packed, basis.index) for basis, amp in s.terms()]
    assert combine(parts, s.width) == s


def plain_combine(parts: list, width: int) -> Superposition:
    """`combine` without its memo: each addition made, zeros dropped at the
    end."""
    sums: dict = {}
    for amp, basis in parts:
        sums[basis] = _add(sums[basis], amp) if basis in sums else amp
    return Superposition._of(width, {b: a for b, a in sums.items() if a != PACKED_ZERO})


@settings(max_examples=100, deadline=None)
@given(st.lists(raw_amplitudes(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_combine_equals_a_plain_loop_on_large_repetitive_parts(pool, seed):
    # More than MEMO_TERMS parts drawn from a few amplitudes and their
    # negations, over 64 bases, so sums repeat and cancel on the way; bases
    # 64..71 get one amplitude and its negation only, and must vanish.
    rng = random.Random(seed)
    amps = [a.packed for a in pool] + [(-a).packed for a in pool]
    size = rng.randint(MEMO_TERMS + 1, 4 * MEMO_TERMS)
    parts = [(rng.choice(amps), rng.randrange(64)) for _ in range(size)]
    for basis in range(64, 72):
        amp = rng.choice(pool)
        parts.insert(rng.randrange(len(parts) + 1), (amp.packed, basis))
        parts.insert(rng.randrange(len(parts) + 1), ((-amp).packed, basis))
    actual = combine(parts, 7)
    expected = plain_combine(parts, 7)
    assert list(actual.packed.items()) == list(expected.packed.items())
    assert not any(basis in actual.packed for basis in range(64, 72))


# ---------------------------------------------------------------------------
# norm_sq / support
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.one_of(superpositions(), WIDE_STATES))
def test_norm_sq_equals_the_sum_over_every_term(s):
    total = (0, 0, 0)
    for amp in s.packed.values():
        total = _real_add(total, _mod_sq(amp))
    assert norm_sq(s) == ExactReal(*total)


def test_norm_sq_bell_is_one():
    assert norm_sq(bell()) == REAL_ONE


def test_norm_sq_matches_float():
    rng = random.Random(5)
    for _ in range(30):
        s = random_orbit_state(rng, rng.randint(1, 3))
        assert abs(norm_sq(s).to_float() - float(np.sum(np.abs(dense(s)) ** 2))) < 1e-12


def test_support_of_double_hadamard_shrinks():
    h = GateApplication(builtin("H"), (0,))
    once = apply(h, ket("0"))
    twice = apply(h, once)
    assert support(twice) == [BasisState("0")]
    assert len(support(twice)) == 1 < 2 == len(support(once))


def test_support_of_ket():
    assert support(ket("101")) == [BasisState("101")]


def test_support_of_bell():
    assert support(bell()) == [BasisState("00"), BasisState("11")]


# ---------------------------------------------------------------------------
# invariants and rendering
# ---------------------------------------------------------------------------

def test_zero_terms_never_stored():
    s = Superposition(1, {BasisState("0"): AMP_ZERO, BasisState("1"): AMP_ONE})
    assert BasisState("0") not in s
    assert len(s) == 1


@given(superpositions())
def test_no_stored_amplitude_is_zero(s):
    assert all(not amp.is_zero() for _, amp in s.terms())


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        Superposition(2, {BasisState("0"): AMP_ONE})


def test_render_bell_golden_form():
    assert bell().render() == "(1/sqrt2)|00> + (1/sqrt2)|11>"


def test_render_orders_terms_lexicographically():
    s = Superposition(1, {BasisState("1"): INV_SQRT2, BasisState("0"): -INV_SQRT2})
    assert s.render() == "(-1/sqrt2)|0> + (1/sqrt2)|1>"


def test_render_unit_amplitude_is_bare_ket():
    assert ket("01").render() == "|01>"


def test_render_power_of_half():
    s = Superposition(1, {BasisState("0"): HALF})
    assert s.render() == "(1/sqrt2^2)|0>"


@given(st.data())
def test_basis_state_of_equals_the_checked_constructor(data):
    width = data.draw(st.integers(min_value=1, max_value=70))
    index = data.draw(st.integers(min_value=0, max_value=2**width - 1))
    state = BasisState.of(index, width)
    assert state == BasisState(format(index, f"0{width}b"))
    assert (state.index, state.width) == (index, width)


def test_superposition_value_semantics():
    with pytest.raises(ValueError, match="at least 1"):
        Superposition(0, {})
    bell = Superposition(2, {BasisState("00"): INV_SQRT2, BasisState("11"): INV_SQRT2})
    # Another width's basis state has amplitude 0 in it, even with a
    # matching index.
    assert bell.amplitude(BasisState("0")) == AMP_ZERO
    assert bell.amplitude(BasisState("000")) == AMP_ZERO
    assert bell.amplitude(BasisState("11")) == INV_SQRT2
    same = Superposition(2, {BasisState("11"): INV_SQRT2, BasisState("00"): INV_SQRT2})
    assert same == bell and hash(same) == hash(bell)
    assert bell != ket("00") and bell != "bell"
    assert str(bell) == bell.render() == "(1/sqrt2)|00> + (1/sqrt2)|11>"
