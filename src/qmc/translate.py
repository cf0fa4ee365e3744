"""Bidirectional translation between circuits and proofs.

A circuit compiles to a proof that prepares one axiom leaf per qubit,
assembles the register with left-associated tensor steps, applies each gate
in order, and, if the circuit is measured, finishes with a Born annotation
and one measurement per requested outcome.  The reverse direction reads the
wire layout off the tensor structure and re-emits the gates in derivation
order; proofs that prepare from earlier measurements describe sequential
composition and are refused rather than guessed at.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .calculus import (
    Ax,
    BornRule,
    Measure,
    Prep,
    ProofNode,
    Tensor,
    Unitary,
    sample_outcome,
)
from .gates import GateApplication, apply as apply_gate, builtin
from .state import Superposition, ket


class UnsupportedTranslation(Exception):
    pass


@dataclass(frozen=True)
class Circuit:
    """A register width, gate applications in execution order, and whether a
    terminal full-register measurement is requested."""

    width: int
    ops: tuple[GateApplication, ...]
    measured: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("circuit needs at least one qubit")
        for op in self.ops:
            for w in op.wires:
                self.check_wire(w, self.width)

    @staticmethod
    def check_wire(wire: int, width: int) -> None:
        """The range check shared with the circuit parser."""
        if wire >= width:
            raise ValueError(f"wire {wire} out of range for {width}-qubit circuit")


def final_state(c: Circuit) -> Superposition:
    """Exact state after running every gate on |0...0>."""
    state = ket("0" * c.width)
    for op in c.ops:
        state = apply_gate(op, state)
    return state


def circuit_to_proof(
    c: Circuit, mode: str = "enumerate", seed: int = 0
) -> list[ProofNode]:
    """Compile a circuit into one or more checkable proofs.

    Unmeasured circuits yield a single proof ending in a coherent sequent.
    Measured circuits end in a measurement: `enumerate` emits one complete
    proof per support outcome, `sample` a single proof whose outcome is drawn
    with the seeded deterministic sampler.
    """
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown translation mode: {mode}")
    node = ProofNode.derive(Ax())
    for _ in range(c.width - 1):
        node = ProofNode.derive(Tensor(), (node, ProofNode.derive(Ax())))
    for op in c.ops:
        node = ProofNode.derive(Unitary(op), (node,))
    if not c.measured:
        return [node]
    born = ProofNode.derive(BornRule(), (node,))
    dist = born.conclusion.dist  # type: ignore[union-attr]
    if mode == "enumerate":
        outcomes = dist.outcomes()
    else:
        outcomes = [sample_outcome(dist, seed)[0]]
    return [ProofNode.derive(Measure(outcome), (born,)) for outcome in outcomes]


def proof_to_circuit(p: ProofNode) -> Circuit:
    """Recover the circuit a proof describes.

    Axiom leaves are numbered left to right; each tensor subtree occupies a
    contiguous wire window, and gates applied before tensoring are commuted
    onto the assembled register by offsetting their wires.
    """
    measured = False
    root = p
    if isinstance(root.rule, Measure):
        root = root.premises[0]
        if not isinstance(root.rule, BornRule):
            raise UnsupportedTranslation(
                "a measurement must conclude from a Born annotation"
            )
    if isinstance(root.rule, BornRule):
        # A measurement was asked for, whether or not a branch was chosen.
        measured = True
        root = root.premises[0]

    ops: list[GateApplication] = []
    next_wire = 0

    def walk(node: ProofNode) -> tuple[int, int]:
        nonlocal next_wire
        rule = node.rule
        if isinstance(rule, Ax):
            lo = next_wire
            next_wire += 1
            return lo, 1
        if isinstance(rule, Prep):
            raise UnsupportedTranslation(
                "proofs that prepare from an earlier measurement describe "
                "sequential composition and have no single-circuit form"
            )
        if isinstance(rule, Tensor):
            lo, w1 = walk(node.premises[0])
            _, w2 = walk(node.premises[1])
            return lo, w1 + w2
        if isinstance(rule, Unitary):
            lo, w = walk(node.premises[0])
            shifted = tuple(lo + wire for wire in rule.app.wires)
            ops.append(GateApplication(rule.app.gate, shifted))
            return lo, w
        # Measurement below the root, or weakening.
        raise UnsupportedTranslation(f"rule {rule.label()} has no circuit form")

    _, width = walk(root)
    return Circuit(width, tuple(ops), measured)


_RANDOM_GATE_NAMES = ("X", "Z", "S", "T", "H", "CNOT")


def random_circuit(
    rng: random.Random,
    max_width: int = 6,
    max_gates: int = 30,
    measured: bool = False,
) -> Circuit:
    """A random circuit for differential sweeps; deterministic given the rng."""
    width = rng.randint(1, max_width)
    names = _RANDOM_GATE_NAMES if width >= 2 else _RANDOM_GATE_NAMES[:-1]
    ops = []
    for _ in range(rng.randint(0, max_gates)):
        gate = builtin(rng.choice(names))
        wires = tuple(rng.sample(range(width), gate.arity))
        ops.append(GateApplication(gate, wires))
    return Circuit(width, tuple(ops), measured)
