"""Bidirectional translation between circuits and proofs.

A circuit compiles to a proof that prepares one axiom leaf per qubit,
assembles the register with left-associated tensor steps, applies each gate
in order, and, if the circuit is measured, finishes with a Born annotation
and one measurement per requested outcome.  The reverse direction reads the
wire layout off the tensor structure and re-emits the gates in derivation
order; proofs that prepare from earlier measurements describe sequential
composition and are refused rather than guessed at.

`final_state` (behind `qmc dist` of a circuit and the selftest sweep) runs
the gates on the dict engine until the register has at least
`dense.MIN_WIDTH` wires and a quarter of its basis states
(2^n / 2^`dense.FILL_SHIFT`) carry an amplitude; from there `dense.run`
takes them on int64 arrays while every coefficient stays below
2^`dense.MAX_BITS`.  A gate that would pass that bound, or that has an
entry of no w^j / sqrt2^e form, goes back to the dict engine, which
finishes the circuit.  `circuit_to_proof` keeps one `Superposition` per
node and stays on the dict engine.  `qmc translate --to proof` builds no
tree: a circuit's proof has a fixed shape, so `parser.script_writer` writes
its scripts from the circuit, and only a measured circuit's outcomes need a
state, its `final_state`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import dense
from .calculus import (
    Ax,
    BornRule,
    Measure,
    Prep,
    ProofNode,
    Tensor,
    Unitary,
    sample_outcome,
    walk,
)
from .gates import GateApplication, apply as apply_gate, builtin
from .state import Superposition, _clip, ket


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
            raise ValueError(f"wire {_clip(str(wire))} out of range for {width}-qubit circuit")


def final_state(c: Circuit) -> Superposition:
    """Exact state after running every gate on |0...0>.

    The gates run on the dict engine until the state suits `dense`, then on
    its arrays, and from any gate that `dense.run` hands back, on the dict
    engine again (see the module docstring).  The result is the same either
    way."""
    state = ket("0" * c.width)
    ops = iter(c.ops)
    for op in ops:
        state = apply_gate(op, state)
        if dense.suits(state):
            state = dense.run(state, ops)
            break
    for op in ops:  # the gates that `dense.run` left, if any
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
    # (lowest wire, width) of each subtree left and not yet used by its
    # parent.  Wires go out left to right, so the top span ends at the next
    # free wire.
    spans: list[tuple[int, int]] = []
    for node, _, entering in walk(root):
        rule = node.rule
        if entering:
            if isinstance(rule, (Ax, Tensor, Unitary)):
                continue
            if isinstance(rule, Prep):
                raise UnsupportedTranslation(
                    "proofs that prepare from an earlier measurement describe "
                    "sequential composition and have no single-circuit form"
                )
            # Measurement below the root, or weakening.
            raise UnsupportedTranslation(f"rule {rule.label()} has no circuit form")
        if isinstance(rule, Ax):
            spans.append((sum(spans[-1]) if spans else 0, 1))
        elif isinstance(rule, Tensor):
            _, w2 = spans.pop()
            lo, w1 = spans.pop()
            spans.append((lo, w1 + w2))
        else:
            lo = spans[-1][0]
            if lo:
                shifted = tuple(lo + wire for wire in rule.app.wires)
                ops.append(GateApplication(rule.app.gate, shifted))
            else:
                ops.append(rule.app)
    ((_, width),) = spans
    return Circuit(width, tuple(ops), measured)


_RANDOM_GATE_NAMES = ("X", "Z", "S", "T", "H", "CNOT")


def random_circuit(
    rng: random.Random,
    max_width: int = 6,
    max_gates: int = 30,
    measured: bool = False,
    apps: dict[tuple[str, tuple[int, ...]], GateApplication] | None = None,
) -> Circuit:
    """A random circuit for differential sweeps; deterministic given the rng.

    A sweep may pass one `apps` dict for all its circuits, so that each
    distinct (gate, wires) is one `GateApplication` with one set of plans, as
    in a parse.  The draws from the rng are the same either way.
    """
    width = rng.randint(1, max_width)
    names = _RANDOM_GATE_NAMES if width >= 2 else _RANDOM_GATE_NAMES[:-1]
    if apps is None:
        apps = {}
    ops = []
    for _ in range(rng.randint(0, max_gates)):
        gate = builtin(rng.choice(names))
        key = (gate.name, tuple(rng.sample(range(width), gate.arity)))
        app = apps.get(key)
        if app is None:
            app = apps[key] = GateApplication(gate, key[1])
        ops.append(app)
    return Circuit(width, tuple(ops), measured)
