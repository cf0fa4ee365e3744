"""Pinned exact answers of the state engine.

`final_state(c).render()` is hashed for the 200 circuits of the selftest's
differential sweep (`random.Random(0xD1FF)`) and for brickwork circuits with
n = 4..8 (H on every wire, T on every wire, then a CNOT chain).  The
digests in `tests/golden/expected/final_states.sha256` were taken from the
string-keyed engine that preceded the packed one, so any change to the
engine must reproduce its answers term for term and in the same order.

A hypothesis property also compares `gates.apply` with the textbook column
sum written here with `Amplitude` arithmetic and `BasisState` bits.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import assume, given, settings, strategies as st

from conftest import GOLDEN, random_orbit_state
from qmc.amplitude import AMP_ZERO
from qmc.gates import BUILTIN_NAMES, GateApplication, apply, builtin
from qmc.state import BasisState, Superposition
from qmc.translate import Circuit, final_state, random_circuit

DIGESTS = GOLDEN / "expected" / "final_states.sha256"


def brickwork(n: int) -> Circuit:
    ops = [GateApplication(builtin("H"), (w,)) for w in range(n)]
    ops += [GateApplication(builtin("T"), (w,)) for w in range(n)]
    ops += [GateApplication(builtin("CNOT"), (w, w + 1)) for w in range(n - 1)]
    return Circuit(n, tuple(ops))


def pinned_circuits() -> dict[str, Circuit]:
    """The sweep circuits in selftest order, then the brickwork family."""
    rng = random.Random(0xD1FF)
    circuits = {f"sweep/{i:03d}": random_circuit(rng) for i in range(200)}
    circuits.update({f"brickwork/{n}": brickwork(n) for n in range(4, 9)})
    return circuits


def digest_lines() -> list[str]:
    return [
        f"{name} {hashlib.sha256(final_state(c).render().encode()).hexdigest()}"
        for name, c in pinned_circuits().items()
    ]


def test_final_states_match_the_pinned_digests():
    expected = DIGESTS.read_text(encoding="ascii").splitlines()
    assert len(expected) == 205
    actual = digest_lines()
    mismatched = [a.split()[0] for a, e in zip(actual, expected) if a != e]
    assert not mismatched
    assert actual == expected


def column_sum(app: GateApplication, s: Superposition) -> Superposition:
    """Textbook application: out[r] = sum over c of U[r][c] * in[c] per term."""
    arity = app.gate.arity
    out: dict[BasisState, object] = {}
    for basis, amp in s.terms():
        col = int("".join(basis.bits[w] for w in app.wires), 2)
        for row in range(1 << arity):
            entry = app.gate.matrix[row][col]
            bits = list(basis.bits)
            for j, w in enumerate(app.wires):
                bits[w] = format(row, f"0{arity}b")[j]
            target = BasisState("".join(bits))
            out[target] = out.get(target, AMP_ZERO) + entry * amp
    return Superposition(s.width, out)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 5),
    n_gates=st.integers(0, 14),
    name=st.sampled_from(BUILTIN_NAMES),
    data=st.data(),
)
def test_apply_equals_the_textbook_column_sum(seed, width, n_gates, name, data):
    gate = builtin(name)
    assume(gate.arity <= width)
    state = random_orbit_state(random.Random(seed), width, n_gates)
    wires = tuple(
        data.draw(st.permutations(range(width)).map(lambda p: p[: gate.arity]))
    )
    app = GateApplication(gate, wires)
    expected = column_sum(app, state)
    actual = apply(app, state)
    assert actual == expected
    assert actual.render() == expected.render()
    assert list(actual.terms()) == list(expected.terms())
