"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qmc.amplitude import AMP_ZERO
from qmc.calculus import ProofNode
from qmc.gates import Gate, GateApplication, apply, builtin
from qmc.parser import elaborate, parse_proof, render_circuit, render_script
from qmc.state import MEMO_TERMS, Superposition, ket, tensor
from qmc.translate import Circuit, circuit_to_proof, random_circuit

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_PROOFS = ("bell_pre.qmc", "bell_00.qmc", "bell_11.qmc", "hh.qmc", "hh_0.qmc")

# An assumption leaf below a tensor, a CNOT and a measurement, so the
# assumption's path is not the root's.
PREP_LEAF_SCRIPT = (
    "proof leaf { p = prep |10>; a = ax; t = tensor p a; "
    "g = gate CNOT [0,2] t; d = born g; m = measure d outcome=|101>; }"
)


def load_golden(name: str) -> ProofNode:
    return elaborate(parse_proof((GOLDEN / name).read_text()))


def bell_circuit(measured: bool = True) -> Circuit:
    return Circuit(
        2,
        (
            GateApplication(builtin("H"), (0,)),
            GateApplication(builtin("CNOT"), (0, 1)),
        ),
        measured,
    )


def corrupted(gate: Gate) -> Gate:
    """`gate` with its first row zeroed: a non-unitary `Gate` of the same
    name and arity, for tests that a broken gate is caught."""
    rows = [list(row) for row in gate.matrix]
    rows[0] = [AMP_ZERO for _ in rows[0]]
    return Gate(gate.name, gate.arity, tuple(tuple(row) for row in rows))


def matmul(a: tuple, b: tuple) -> tuple:
    """The exact product a . b of two square matrices of `Amplitude`s."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), AMP_ZERO) for j in range(n))
        for i in range(n)
    )


def brickwork(n: int, measured: bool = False) -> Circuit:
    """H on every wire, T on every wire, then a CNOT chain: support 2^n, so
    from n = `dense.MIN_WIDTH` on, `final_state` goes dense."""
    ops = [GateApplication(builtin("H"), (w,)) for w in range(n)]
    ops += [GateApplication(builtin("T"), (w,)) for w in range(n)]
    ops += [GateApplication(builtin("CNOT"), (w, w + 1)) for w in range(n - 1)]
    return Circuit(n, tuple(ops), measured)


def random_orbit_state(rng: random.Random, width: int, n_gates: int = 12) -> Superposition:
    """A normalized state: random gates applied to |0...0>."""
    names = ("X", "Z", "S", "T", "H", "CNOT") if width >= 2 else ("X", "Z", "S", "T", "H")
    state = ket("0" * width)
    for _ in range(n_gates):
        gate = builtin(rng.choice(names))
        state = apply(GateApplication(gate, tuple(rng.sample(range(width), gate.arity))), state)
    return state


def wide_state(seed: int, kind: str) -> Superposition:
    """A state of more than `state.MEMO_TERMS` terms, where `gates.apply`
    and `state.combine` may keep their per-call memos.

    "repetitive": H on each of 8 or 9 wires, then a few phase, CNOT and H
    gates; 256-512 terms share a few amplitudes, so the memos serve the whole
    call.  "distinct": four random 2-qubit chains of 100-400 gates each,
    whose coefficients grow with depth, tensored together; hardly any
    amplitude repeats, so the memos are not started.  "mixed": the
    first half of the basis from a repetitive 8-wire state, the second half
    from a distinct one, so the memos start and are dropped part way.
    Either way, H on random wires follows until the support is wide enough.
    """
    rng = random.Random(seed)
    h = builtin("H")
    if kind == "mixed":
        low, high = wide_state(seed, "repetitive"), wide_state(seed, "distinct")
        half = 1 << (high.width - 1)
        terms = {b: a for b, a in low.packed.items() if b < half}
        terms.update((b, a) for b, a in high.packed.items() if b >= half)
        state = Superposition._of(high.width, terms)
    elif kind == "repetitive":
        width = rng.choice((8, 9))
        state = ket("0" * width)
        for w in range(width):
            state = apply(GateApplication(h, (w,)), state)
        for _ in range(rng.randint(0, 6)):
            gate = builtin(rng.choice(("T", "S", "Z", "CNOT", "H")))
            state = apply(GateApplication(gate, tuple(rng.sample(range(width), gate.arity))), state)
    else:
        state = random_orbit_state(rng, 2, rng.randint(100, 400))
        while state.width < 8:
            state = tensor(state, random_orbit_state(rng, 2, rng.randint(100, 400)))
    while len(state) <= MEMO_TERMS:
        state = apply(GateApplication(h, (rng.randrange(state.width),)), state)
    return state


# States where the engine's per-call memos may be in use: see `wide_state`.
WIDE_STATES = st.builds(
    wide_state, st.integers(0, 2**32 - 1), st.sampled_from(("repetitive", "distinct", "mixed"))
)


def _random_script(seed: int, measured: bool, mode: str, pick: int) -> str:
    circuit = random_circuit(random.Random(seed), measured=measured)
    proofs = circuit_to_proof(circuit, mode, seed)
    if measured:  # also the Born annotation, which `run` completes
        proofs.append(proofs[0].premises[0])
    return render_script(proofs[pick % len(proofs)])


# Texts that parse and elaborate: the scripts of translated random circuits,
# measured or not, in both translation modes, and the circuits themselves.
# A measured circuit's script ends in a measurement or a Born annotation.
VALID_SCRIPTS = st.builds(
    _random_script,
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(("enumerate", "sample")),
    st.integers(0, 63),
)
VALID_CIRCUITS = st.builds(
    lambda seed, measured: render_circuit(
        random_circuit(random.Random(seed), measured=measured)
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


def replace_at(node: ProofNode, path: tuple[int, ...], fn) -> ProofNode:
    """Rebuild the tree with fn applied to the node at the given path."""
    if not path:
        return fn(node)
    i = path[0]
    new_premise = replace_at(node.premises[i], path[1:], fn)
    premises = tuple(
        new_premise if j == i else p for j, p in enumerate(node.premises)
    )
    return dataclasses.replace(node, premises=premises)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from qmc.cli import main

    def invoke(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke
