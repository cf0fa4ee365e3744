"""Gate registry and exact application: unitarity, embedding, involutions."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmc import gates
from qmc.amplitude import AMP_ONE, AMP_ZERO, Amplitude, CycloInt, INV_SQRT2, OMEGA
from qmc.gates import (
    Gate,
    GateApplication,
    _products,
    apply,
    apply_packed,
    builtin,
    is_unitary,
    BUILTIN_NAMES,
)
from qmc.oracle import compare, run_circuit
from qmc.state import BasisState, Superposition, _wire_text, ket, merge, norm_sq
from qmc.translate import final_state, random_circuit

from conftest import corrupted, matmul, random_orbit_state


def test_builtin_hadamard_matrix():
    h = builtin("H")
    neg = Amplitude(CycloInt(-1), 1)
    assert h.matrix == ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, neg))


def test_builtin_cnot_is_the_xor_permutation():
    cnot = builtin("CNOT")
    # Column = input index; control 1 flips the target bit.
    for col, row in ((0, 0), (1, 1), (2, 3), (3, 2)):
        assert cnot.matrix[row][col] == AMP_ONE


def test_builtin_identity():
    i = builtin("I")
    assert apply(GateApplication(i, (0,)), ket("1")) == ket("1")


def test_unknown_gate_name():
    with pytest.raises(ValueError, match="unknown gate name"):
        builtin("Y")


def test_all_builtins_are_unitary():
    for name in BUILTIN_NAMES:
        assert is_unitary(builtin(name)), name
        assert builtin(name).unitary, name


@pytest.mark.parametrize(
    "matrix",
    [
        ((AMP_ONE,),),
        ((AMP_ONE, AMP_ZERO, AMP_ZERO), (AMP_ZERO, AMP_ONE, AMP_ZERO)),
        ((AMP_ONE, AMP_ZERO), (AMP_ZERO, AMP_ONE), (AMP_ZERO, AMP_ZERO)),
        ((AMP_ONE, AMP_ZERO), (AMP_ZERO,)),
    ],
)
def test_a_matrix_of_the_wrong_shape_is_refused(matrix):
    with pytest.raises(ValueError, match=r"^G needs a 2x2 matrix$"):
        Gate("G", 1, matrix)


def test_permutation_flags():
    # X, CNOT and I move basis states; Z, S and T multiply them by w^j.
    for name in ("X", "Z", "S", "T", "CNOT", "I"):
        assert builtin(name).permutation, name
    assert not builtin("H").permutation


def test_zero_row_matrix_is_not_unitary():
    broken = Gate("BAD", 1, ((AMP_ZERO, AMP_ZERO), (AMP_ZERO, AMP_ONE)))
    assert not is_unitary(broken)
    assert not broken.unitary
    for name in BUILTIN_NAMES:
        assert not corrupted(builtin(name)).unitary, name


_ONE_QUBIT = [name for name in BUILTIN_NAMES if builtin(name).arity == 1]


def _kron(a: tuple, b: tuple) -> tuple:
    return tuple(
        tuple(x * y for x in row_a for y in row_b) for row_a in a for row_b in b
    )


def _product(rng: random.Random, arity: int) -> tuple:
    """The exact matrix of 1-6 random built-in gates in sequence on `arity`
    qubits: 1-qubit gates, and for two qubits also CNOT."""
    def factor():
        if arity == 2 and rng.random() < 0.3:
            return builtin("CNOT").matrix
        matrices = [builtin(rng.choice(_ONE_QUBIT)).matrix for _ in range(arity)]
        return matrices[0] if arity == 1 else _kron(*matrices)

    m = factor()
    for _ in range(rng.randrange(6)):
        m = matmul(factor(), m)
    return m


def _doubled(gate: Gate, rng: random.Random) -> Gate:
    """`gate` with one nonzero entry doubled, so that its column's norm is
    no longer 1."""
    rows = [list(row) for row in gate.matrix]
    row, col = rng.choice(
        [(r, c) for r, xs in enumerate(rows) for c, x in enumerate(xs) if not x.is_zero()]
    )
    rows[row][col] = rows[row][col] * Amplitude(CycloInt(2))
    return Gate(gate.name, gate.arity, tuple(map(tuple, rows)))


def test_the_unitary_flag_is_the_exact_test_on_custom_gates():
    rng = random.Random(41)
    for arity in (1, 2):
        for _ in range(25):
            gate = Gate("U", arity, _product(rng, arity))
            assert gate.unitary and is_unitary(gate)
            for bad in (corrupted(gate), _doubled(gate, rng)):
                assert not bad.unitary and not is_unitary(bad)


def test_the_unitary_flag_is_in_neither_equality_nor_repr():
    h = builtin("H")
    flagged = Gate(h.name, h.arity, h.matrix)
    object.__setattr__(flagged, "unitary", False)
    assert flagged == h and hash(flagged) == hash(h)
    assert repr(flagged) == repr(h)
    assert "unitary" not in repr(h)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_hadamard_on_zero():
    result = apply(GateApplication(builtin("H"), (0,)), ket("0"))
    expected = Superposition(
        1, {BasisState("0"): INV_SQRT2, BasisState("1"): INV_SQRT2}
    )
    assert result == expected


def test_cnot_entangles():
    pre = Superposition(
        2, {BasisState("00"): INV_SQRT2, BasisState("10"): INV_SQRT2}
    )
    result = apply(GateApplication(builtin("CNOT"), (0, 1)), pre)
    expected = Superposition(
        2, {BasisState("00"): INV_SQRT2, BasisState("11"): INV_SQRT2}
    )
    assert result == expected


def test_double_hadamard_cancels():
    h = GateApplication(builtin("H"), (0,))
    assert apply(h, apply(h, ket("0"))) == ket("0")


def test_x_flips():
    assert apply(GateApplication(builtin("X"), (0,)), ket("0")) == ket("1")


def test_wire_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        apply(GateApplication(builtin("H"), (1,)), ket("0"))


# 5001 digits: past the 4300 that `str` converts by default.
HUGE_WIRE = 3 * 10**5000 + 7


def test_a_wire_past_the_int_to_str_limit_is_quoted_in_the_label():
    app = GateApplication(builtin("CNOT"), (0, HUGE_WIRE))
    assert app.label() == "CNOT [0,300000000000...]"


def test_a_wire_past_the_int_to_str_limit_is_quoted_in_the_range_error():
    app = GateApplication(builtin("H"), (HUGE_WIRE,))
    with pytest.raises(ValueError) as err:
        apply(app, ket("0"))
    assert str(err.value) == "wire 300000000000... out of range for width-1 register"


@settings(max_examples=100, deadline=None)
@given(
    st.integers(10**11, 10**12 - 1),
    st.integers(4300 - 11, 7000),
    st.sampled_from(["zeros", "nines", "random"]),
    st.integers(0, 2**32),
)
def test_a_long_wire_is_quoted_by_its_first_12_digits(lead, shift, tail, seed):
    # The tails of all zeros and all nines sit at the edges of the digit count
    # that the bit length gives.
    rest = {"zeros": 0, "nines": 10**shift - 1}.get(tail)
    if rest is None:
        rest = random.Random(seed).randrange(10**shift)
    assert _wire_text(lead * 10**shift + rest) == f"{lead}..."


def test_a_wire_within_the_int_to_str_limit_is_its_whole_text():
    for wire in (0, 7, 10**15, 10**4300 - 1):
        assert _wire_text(wire) == str(wire)


def test_duplicate_wires_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        GateApplication(builtin("CNOT"), (1, 1))


def test_wrong_wire_count_rejected():
    with pytest.raises(ValueError):
        GateApplication(builtin("H"), (0, 1))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_norm_preserved_exactly_by_every_builtin():
    rng = random.Random(23)
    for name in BUILTIN_NAMES:
        gate = builtin(name)
        for _ in range(10):
            width = rng.randint(gate.arity, 4)
            s = random_orbit_state(rng, width, n_gates=8)
            app = GateApplication(gate, tuple(rng.sample(range(width), gate.arity)))
            assert norm_sq(apply(app, s)) == norm_sq(s)


def test_involutions_exactly_undo_themselves():
    rng = random.Random(29)
    for name in ("H", "X", "Z", "CNOT"):
        gate = builtin(name)
        for _ in range(10):
            width = rng.randint(gate.arity, 4)
            s = random_orbit_state(rng, width, n_gates=8)
            app = GateApplication(gate, tuple(rng.sample(range(width), gate.arity)))
            assert apply(app, apply(app, s)) == s


def test_single_qubit_embedding_leaves_other_wires_fixed():
    rng = random.Random(31)
    for _ in range(40):
        width = rng.randint(2, 5)
        bits = "".join(rng.choice("01") for _ in range(width))
        wire = rng.randrange(width)
        name = rng.choice(("X", "Z", "S", "T", "H"))
        result = apply(GateApplication(builtin(name), (wire,)), ket(bits))
        for basis, _ in result.terms():
            for j in range(width):
                if j != wire:
                    assert basis.bits[j] == bits[j]


def test_apply_agrees_with_float_oracle_across_placements():
    rng = random.Random(37)
    for _ in range(50):
        circuit = random_circuit(rng, max_width=6, max_gates=12)
        ok, deviation = compare(final_state(circuit), run_circuit(circuit), 1e-9)
        assert ok, f"deviation {deviation} on {circuit}"


def test_gate_application_rejects_a_negative_wire():
    with pytest.raises(ValueError, match="nonnegative"):
        GateApplication(builtin("H"), (-1,))
    with pytest.raises(ValueError, match="nonnegative"):
        GateApplication(builtin("CNOT"), (0, -2))


def test_the_kept_label_stays_out_of_eq_hash_and_repr():
    a = GateApplication(builtin("CNOT"), (2, 10))
    b = GateApplication(builtin("CNOT"), (2, 10))
    assert a.label() == a.text == "CNOT [2,10]"
    object.__setattr__(b, "text", "another label")
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"GateApplication(gate={a.gate!r}, wires=(2, 10))"
    assert a != GateApplication(builtin("CNOT"), (10, 2))


# ---------------------------------------------------------------------------
# the paired one-wire kernel of apply_packed
# ---------------------------------------------------------------------------

def _unit(j: int, e: int) -> Amplitude:
    """w^j / sqrt2^e."""
    coeffs = [0, 0, 0, 0]
    coeffs[j & 3] = -1 if j & 4 else 1
    return Amplitude(CycloInt(*coeffs), e)


@st.composite
def _pair_gates(draw) -> Gate:
    """H; H's shape, ((1, 1), (1, -1)) / sqrt2^e, non-unitary for e != 1; or
    a one-wire gate whose entries are w^j / sqrt2^e, some zero, unitary or
    not, a zero row allowed.  Only H's shape has a `Gate.pair`, its e."""
    kind = draw(st.sampled_from(("H", "shape", "unit")))
    if kind == "H":
        gate = builtin("H")
        assert gate.pair == 1
        return gate
    es = [draw(st.integers(0, 3))] * 2
    powers = [[0, 0], [0, 4]]
    if kind == "unit":
        es = [draw(st.integers(0, 3)) for _ in range(2)]
        row = st.lists(st.none() | st.integers(0, 7), min_size=2, max_size=2)
        powers = [draw(row), draw(row)]
    rows = tuple(
        tuple(AMP_ZERO if j is None else _unit(j, e) for j in js)
        for e, js in zip(es, powers)
    )
    gate = Gate("U", 1, rows)
    h_shape = es[0] == es[1] and powers == [[0, 0], [0, 4]]
    assert gate.pair == (es[0] if h_shape else None)
    return gate


_COEFF = st.integers(-3, 3) | st.integers(-(2**70), 2**70)


@st.composite
def _amplitudes(draw) -> tuple:
    """A nonzero amplitude, its coefficients small or past 64 bits, its
    exponent 0 to 4 before it is canonicalized."""
    coeffs = draw(st.tuples(_COEFF, _COEFF, _COEFF, _COEFF))
    amp = Amplitude(CycloInt(*coeffs), draw(st.integers(0, 4)))
    return AMP_ONE.packed if amp.is_zero() else amp.packed


@st.composite
def _paired_dicts(draw) -> tuple[int, int, dict]:
    """(width, wire, packed): each pair of basis indices that differ in the
    wire's bit holds neither, its low or high index alone, both, or both
    with equal or opposite amplitudes, which H cancels to one term.  Past
    `state.MEMO_TERMS` terms, the amplitudes come from a small pool, so the
    per-call memo starts.  Keys come in shuffled order."""
    width = draw(st.integers(1, 9))
    wire = draw(st.integers(0, width - 1))
    bit = 1 << (width - 1 - wire)
    lows = [b for b in range(1 << width) if not b & bit]
    pool = draw(st.lists(_amplitudes(), min_size=1, max_size=3)) if width > 7 else None

    def amplitude():
        return draw(st.sampled_from(pool) if pool else _amplitudes())

    if pool is None:
        lows = lows[: draw(st.integers(1, 24))]
    packed = {}
    for low in lows:
        kind = draw(st.sampled_from(("none", "low", "high", "both", "equal", "opposite")))
        x = amplitude()
        if kind in ("low", "both", "equal", "opposite"):
            packed[low] = x
        if kind in ("high", "both"):
            packed[low | bit] = amplitude()
        elif kind == "equal":
            packed[low | bit] = x
        elif kind == "opposite":
            packed[low | bit] = (-x[0], -x[1], -x[2], -x[3], x[4])
    keys = draw(st.permutations(list(packed)))
    return width, wire, {b: packed[b] for b in keys}


def _reference(app: GateApplication, width: int, packed: dict) -> dict:
    return merge(_products(app, width, packed))


@settings(max_examples=300, deadline=None)
@given(_pair_gates(), _paired_dicts())
def test_the_paired_kernel_gives_the_merged_products(gate, drawn):
    width, wire, packed = drawn
    assume(not gate.permutation)  # whose plan holds no product lists
    app = GateApplication(gate, (wire,))
    before = dict(packed)
    assert apply_packed(app, width, packed) == _reference(app, width, packed)
    assert packed == before


def test_the_paired_kernel_cancels_exactly():
    h = GateApplication(builtin("H"), (0,))
    once = apply_packed(h, 1, {0: AMP_ONE.packed})
    assert once == {0: INV_SQRT2.packed, 1: INV_SQRT2.packed}
    assert apply_packed(h, 1, once) == {0: AMP_ONE.packed}
    assert apply_packed(h, 1, {1: once[1], 0: once[0]}) == {0: AMP_ONE.packed}


def test_other_gates_take_the_merged_products(monkeypatch):
    calls = []

    def counted(app, width, packed):
        calls.append(app.gate.name)
        return _products(app, width, packed)

    monkeypatch.setattr(gates, "_products", counted)
    two = Amplitude(CycloInt(2))
    h = builtin("H")
    others = (
        Gate("NOTUNIT", 1, ((two, AMP_ZERO), (AMP_ZERO, AMP_ONE))),
        Gate("MIXED", 1, ((INV_SQRT2, AMP_ONE), (AMP_ONE, AMP_ZERO))),
        Gate("HI", 2, _kron(h.matrix, builtin("I").matrix)),
        # one-wire unitaries of unit form that are not of H's shape
        Gate("SH", 1, matmul(builtin("S").matrix, h.matrix)),
        Gate("HT", 1, matmul(h.matrix, builtin("T").matrix)),
    )
    state = {0: AMP_ONE.packed, 1: INV_SQRT2.packed, 3: OMEGA.packed}
    for gate in others:
        assert gate.pair is None and not gate.permutation, gate.name
        app = GateApplication(gate, tuple(range(gate.arity)))
        assert apply_packed(app, 2, state) == _reference(app, 2, state)
    assert calls == [gate.name for gate in others]
    calls.clear()
    apply_packed(GateApplication(h, (1,)), 2, state)
    assert calls == []
