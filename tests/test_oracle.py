"""The independent float simulator and the differential comparison."""

import itertools
import math
import random

import numpy as np
import pytest

from qmc.gates import BUILTIN_NAMES, GateApplication, builtin
from qmc.oracle import _MATRICES, FloatState, _apply_dense, compare, run_circuit
from qmc.state import ket
from qmc.translate import Circuit, final_state, random_circuit

from conftest import bell_circuit


def test_bell_circuit_amplitudes():
    state = run_circuit(Circuit(2, bell_circuit().ops))
    r = 1 / math.sqrt(2)
    assert np.allclose(state.vec, [r, 0, 0, r], atol=1e-9)


def test_empty_circuit_is_ket_zero():
    state = run_circuit(Circuit(1, ()))
    assert np.allclose(state.vec, [1, 0], atol=1e-12)


def test_wire_zero_is_the_most_significant_bit():
    # X on wire 0 of a 2-qubit register must set index 2 (|10>), not 1.
    state = run_circuit(Circuit(2, (GateApplication(builtin("X"), (0,)),)))
    assert np.allclose(state.vec, [0, 0, 1, 0], atol=1e-12)


def test_norm_is_preserved_across_long_gate_sequences():
    rng = random.Random(67)
    for _ in range(10):
        circuit = random_circuit(rng, max_width=6, max_gates=30)
        state = run_circuit(circuit)
        assert abs(np.linalg.norm(state.vec) - 1.0) < 1e-9


def test_width_cap():
    with pytest.raises(ValueError, match="capped"):
        run_circuit(Circuit(21, ()))


def test_compare_accepts_matching_bell_states():
    exact = final_state(Circuit(2, bell_circuit().ops))
    ok, deviation = compare(exact, run_circuit(Circuit(2, bell_circuit().ops)), 1e-9)
    assert ok
    assert deviation < 1e-12


def test_compare_reports_the_deviation():
    flipped = FloatState(1, np.array([0.0, 1.0], dtype=complex))
    ok, deviation = compare(ket("0"), flipped, 1e-9)
    assert not ok
    assert deviation == pytest.approx(1.0)


def test_compare_deviation_is_absolute():
    # |a - b| does not depend on which side holds the larger value.
    up = FloatState(1, np.array([0.25, 0.0], dtype=complex))
    _, deviation = compare(ket("0"), up, 1e-9)
    assert deviation == pytest.approx(0.75)


def test_compare_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        compare(ket("0"), run_circuit(Circuit(2, ())), 1e-9)


def test_differential_agreement_on_random_circuits():
    rng = random.Random(71)
    for _ in range(50):
        circuit = random_circuit(rng)
        ok, deviation = compare(final_state(circuit), run_circuit(circuit), 1e-9)
        assert ok, deviation


def textbook_unitary(name: str, wires: tuple[int, ...], n: int) -> np.ndarray:
    """The full 2^n x 2^n matrix of one gate, built without the oracle's
    kernel: a Kronecker product with identities for a 1-qubit gate, and the
    permutation that flips the target bit where the control bit is set for
    CNOT.  Wire 0 is the most significant bit."""
    if name == "CNOT":
        control, target = (1 << (n - 1 - w) for w in wires)
        full = np.zeros((1 << n, 1 << n), dtype=complex)
        for col in range(1 << n):
            full[col ^ target if col & control else col, col] = 1
        return full
    (w,) = wires
    eye = np.eye(2, dtype=complex)
    full = np.ones((1, 1), dtype=complex)
    for wire in range(n):
        full = np.kron(full, _MATRICES[name] if wire == w else eye)
    return full


@pytest.mark.parametrize("n", range(1, 6))
def test_every_gate_at_every_placement_matches_the_textbook_unitary(n):
    x = builtin("X")
    placements = set()
    for name in BUILTIN_NAMES:
        gate = builtin(name)
        for wires in itertools.permutations(range(n), gate.arity):
            unitary = textbook_unitary(name, wires, n)
            # Column b: prepare |b> with X gates, then apply the gate.
            for b in range(1 << n):
                prep = tuple(
                    GateApplication(x, (w,)) for w in range(n) if b >> (n - 1 - w) & 1
                )
                state = run_circuit(Circuit(n, (*prep, GateApplication(gate, wires))))
                assert np.max(np.abs(state.vec - unitary[:, b])) < 1e-12, (name, wires, b)
            placements.add(wires)
    if n >= 3:  # control > target, and wires that are not adjacent
        assert (2, 0) in placements and (0, 2) in placements
    assert len(placements) == n * n


def test_both_routes_of_a_wide_register_match_the_textbook_unitary():
    # On 8 qubits, 1-qubit gates on wires 6 and 7 go through the transpose
    # route and the others through the broadcast product.
    n = 8
    rng = np.random.default_rng(8)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    vec /= np.linalg.norm(vec)
    for name in BUILTIN_NAMES:
        for wires in itertools.permutations(range(n), builtin(name).arity):
            got = _apply_dense(vec, name, wires, n)
            want = textbook_unitary(name, wires, n) @ vec
            assert np.max(np.abs(got - want)) < 1e-12, (name, wires)
