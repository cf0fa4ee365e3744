"""Bidirectional translation between circuits and proofs.

A circuit compiles to a proof that prepares one axiom leaf per qubit,
assembles the register with left-associated tensor steps, applies each gate
in order, and, if the circuit is measured, finishes with a Born annotation
and one measurement per requested outcome.  The reverse direction,
`steps_to_circuit`, reads the circuit off a proof's steps in one pass: a
script's bindings in script order (behind `translate --to circuit`), or a
tree's nodes in postorder (`proof_to_circuit`).  Each live step keeps its
width and its gates as runs by wire offset, so a tensor moves the right
factor's gates by the left factor's width and the gates come out in the
tree's postorder whatever the script order; proofs that prepare from
earlier measurements describe sequential composition and are refused
rather than guessed at.

`run_gates` is the one kernel loop for a run of gates on a packed dict.
`final_state` (behind the selftest sweep) runs a circuit through it from
|0...0>, `final_distribution` (behind `qmc dist` of a circuit and the
outcomes of `translate --to proof` of a measured one) does the same for the
Born weights, and `parser.conclude` (behind `dist` and `translate --to
circuit` of a script) runs each chain of gate steps from the chain's first
state.  It runs the gates on the dict engine's kernels, one
packed dict after another: each run of consecutive permutation gates in
one `gates.apply_run`, and each other gate in `gates.apply_packed` (a
Hadamard's pairs of terms, or those of any gate of H's shape, each summed
in one step there, in its paired loop, and every other gate's products
merged by `state.merge`), until the register has at least
`dense.MIN_WIDTH` wires and a quarter of its basis states (2^n /
2^`dense.FILL_SHIFT`) carry an amplitude; from there `dense.run` takes the
packed dict and every gate left, on int64 arrays while every coefficient
stays below 2^`dense.MAX_BITS` and on arrays of Python ints after, and
hands them back as `dense.Arrays`.  `final_state` and `conclude` turn them
into a packed dict (`dense.packed_of`), and build and sort one state per
circuit or chain, at the end, not one per gate.
`final_distribution` reads the weights off the arrays instead, with no
packed dict and no state, while every coefficient is below
2^`dense.BORN_BITS`; past that bound, or on a register that never went
dense, it takes the distribution of the packed state, as
`distribution(final_state(c))`.

`circuit_to_proof` keeps one sorted `Superposition` per node, each built by
`gates.apply`, since every node's state is printed and hashed in order.  No
command but the selftest builds that tree: a circuit's proof has a fixed
shape, so `parser.script_writer` writes the scripts of `qmc translate --to
proof` from the circuit, and only a measured circuit's outcomes need its
`final_distribution`; `parser.sampled_rows` writes the rows of `qmc run`
from the states that tree holds, one per gate by `gates.step`, without its
nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import dense
from .calculus import (
    Ax,
    BornRule,
    Distribution,
    Measure,
    Prep,
    ProofNode,
    RuleApp,
    Tensor,
    Unitary,
    _born,
    distribution,
    sample_outcome,
    walk,
)
from .amplitude import PACKED_ONE, Packed
from .gates import GateApplication, apply_packed, apply_run, builtin
from .state import Superposition, _clip, _wire_text


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
        # A parse and `random_circuit` share one application per distinct
        # gate and wires, so each is checked once, by identity.
        for op in {id(op): op for op in self.ops}.values():
            for w in op.wires:
                self.check_wire(w, self.width)

    @staticmethod
    def check_wire(wire: int, width: int) -> None:
        """The range check shared with the circuit parser."""
        if wire >= width:
            raise ValueError(
                f"wire {_clip(_wire_text(wire))} out of range for {width}-qubit circuit"
            )


def run_gates(
    width: int, packed: dict[int, Packed], ops: Iterable[GateApplication]
) -> dict[int, Packed] | dense.Arrays:
    """The width-wire packed dict, whose keys may come in any order, after
    the gates that ops yields: a packed dict in no set key order, or the
    `dense.Arrays` the run ended on, which `dense.packed_of` turns into one;
    packed itself is not changed.

    The one kernel loop, behind `final_state`, `final_distribution` and
    each chain of a script's gate steps (`parser.conclude`): each run of
    permutation gates in one `apply_run` and each other gate in
    `apply_packed`, until the state suits `dense`, then every gate left on
    its arrays (see the module docstring).  The result is the same either
    way."""
    ops = iter(ops)
    run: list[GateApplication] = []  # permutation gates not yet applied
    for op in ops:
        if op.gate.permutation:
            run.append(op)
            continue
        if run:
            packed = apply_run(run, width, packed)
            run = []
        packed = apply_packed(op, width, packed)
        # A permutation keeps the support's size, so the test is made after
        # each other gate (a state that suits `dense` from the start, as a
        # chain's may, goes dense after its first such gate).
        if dense.suits(width, len(packed)):
            return dense.run(width, packed, ops)
    if run:
        packed = apply_run(run, width, packed)
    return packed


def final_state(c: Circuit) -> Superposition:
    """Exact state after running every gate on |0...0>, through `run_gates`."""
    end = run_gates(c.width, {0: PACKED_ONE}, c.ops)
    return Superposition._of(c.width, dense.packed_of(end))


def final_distribution(c: Circuit) -> Distribution:
    """`distribution(final_state(c))`, through `run_gates`.

    When the run ends on the dense engine with every coefficient below
    2^`dense.BORN_BITS`, int64 or Python ints, the weights come off its
    arrays (`dense.Arrays.born`) with no packed dict and no `Superposition`;
    otherwise from the packed state.  Either way `calculus` checks them in
    one place.
    """
    end = run_gates(c.width, {0: PACKED_ONE}, c.ops)
    born = end.born() if isinstance(end, dense.Arrays) else None
    if born is None:
        return distribution(Superposition._of(c.width, dense.packed_of(end)))
    return _born(c.width, *born)


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


_STEP = itemgetter(0, 1, 2)


def steps_to_circuit(steps: Iterable[Sequence]) -> Circuit:
    """Recover the circuit a proof describes from its steps.

    A step's first three items are its key, its rule and its premises' keys,
    as in a script's `parser.Binding`; each premise comes before the step
    that consumes it, and the root last.  Each live step holds its width,
    its gates as (wire offset, applications) runs, and the first rule in
    the preorder of its subtree that has no circuit form.  Axiom leaves
    take one wire each, left to right.  A gate joins its premise's last run
    at offset 0, or starts one; a tensor joins the right factor's runs, each
    moved by the left factor's width, to the left's.  So the gates come out
    in the tree's postorder, and a gate applied before tensoring is
    commuted onto the assembled register by offsetting its wires, once, at
    the end.

    A root `measure` must conclude from a Born annotation, checked first; a
    root `born` asks for a measurement whether or not a branch was chosen.
    Below that, the first rule without a circuit form in preorder refuses
    the proof.
    """
    # (width, runs, first refused rule or None) of each step not yet consumed.
    live: dict = {}
    pop = live.pop
    # Each Born annotation's premise's entry, in case the annotation is the
    # root or the root's premise.
    borns: dict = {}
    for key, rule, premises in map(_STEP, steps):
        kind = type(rule)
        if kind is Unitary:
            (premise,) = premises
            entry = live[key] = pop(premise)
            if entry[2] is None:
                runs = entry[1]
                if runs and not runs[-1][0]:
                    runs[-1][1].append(rule.app)
                else:
                    runs.append((0, [rule.app]))
        elif kind is Tensor:
            (w1, runs, bad), (w2, right, bad2) = map(pop, premises)
            if bad is None:
                bad = bad2
                runs += [(w1 + offset, apps) for offset, apps in right]
            live[key] = (w1 + w2, runs, bad)
        elif kind is Ax:
            live[key] = (1, [], None)
        else:
            entries = list(map(pop, premises))
            if kind is BornRule and len(entries) == 1:
                borns[key] = entries[0]
            live[key] = (0, [], rule)
    measured = True
    if kind is Measure:
        entry = borns.get(premises[0])
        if entry is None:
            raise UnsupportedTranslation(
                "a measurement must conclude from a Born annotation"
            )
    elif kind is BornRule:
        entry = borns[key]
    else:
        measured = False
        entry = live[key]
    width, runs, bad = entry
    if isinstance(bad, Prep):
        raise UnsupportedTranslation(
            "proofs that prepare from an earlier measurement describe "
            "sequential composition and have no single-circuit form"
        )
    if bad is not None:  # weakening, or a measurement or Born annotation below the root
        raise UnsupportedTranslation(f"rule {bad.label()} has no circuit form")
    ops: list[GateApplication] = []
    for offset, apps in runs:
        if offset:
            ops += [
                GateApplication(app.gate, tuple(offset + wire for wire in app.wires))
                for app in apps
            ]
        else:
            ops += apps
    return Circuit(width, tuple(ops), measured)


def proof_to_circuit(p: ProofNode) -> Circuit:
    """Recover the circuit a proof tree describes: `steps_to_circuit` of its
    nodes in postorder."""
    return steps_to_circuit(_postorder(p))


def _postorder(root: ProofNode) -> Iterator[tuple[int, RuleApp, list[int]]]:
    """Each node of the tree as a step keyed by its postorder index.  Its
    premises' keys come off a stack, not out of a table by node identity,
    so a hand-built tree that uses one node object twice gives two steps."""
    stack: list[int] = []  # the key of each step left whose parent is not
    k = 0
    for node, _, entering in walk(root):
        if not entering:
            at = len(stack) - len(node.premises)
            premises = stack[at:]
            del stack[at:]
            stack.append(k)
            yield k, node.rule, premises
            k += 1


_RANDOM_GATES = tuple(builtin(name) for name in ("X", "Z", "S", "T", "H", "CNOT"))


def random_circuit(
    rng: random.Random,
    max_width: int = 6,
    max_gates: int = 30,
    measured: bool = False,
    apps: dict[tuple[str, tuple[int, ...]], GateApplication] | None = None,
) -> Circuit:
    """A random circuit for differential sweeps; deterministic given the rng.

    Every number is drawn as `rng.randrange(n)` draws it from a
    `random.Random` (CPython's `_randbelow_with_getrandbits`, the same on
    3.10-3.13), by one local loop over `rng.getrandbits`: the width and the
    gate count as `rng.randint` draws them, then per gate the gate, its
    first wire, and for a CNOT its second wire among the others.  Up to 21
    wires these consume the rng as `rng.choice(gates)` and
    `rng.sample(range(width), arity)` do, and give the same circuits, at a
    fraction of `sample`'s cost per call; above 21, `sample` draws
    otherwise, while these wires stay distinct and in range.

    A sweep may pass one `apps` dict for all its circuits, so that each
    distinct (gate, wires) is one `GateApplication` with one set of plans, as
    in a parse.  The draws from the rng are the same either way.
    """
    if max_width < 1 or max_gates < 0:  # `draw(0)` would never return
        raise ValueError("a random circuit needs max_width >= 1 and max_gates >= 0")
    getrandbits = rng.getrandbits

    def draw(n: int) -> int:
        """A number below n > 0, drawn as `rng.randrange(n)` draws it."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    width = 1 + draw(max_width)
    gates = _RANDOM_GATES if width >= 2 else _RANDOM_GATES[:-1]
    if apps is None:
        apps = {}
    ops = []
    for _ in range(draw(max_gates + 1)):
        gate = gates[draw(len(gates))]
        first = draw(width)
        if gate.arity == 1:
            wires: tuple[int, ...] = (first,)
        else:
            # `sample`'s pool swap: the first wire's slot now holds the last.
            second = draw(width - 1)
            wires = (first, width - 1 if second == first else second)
        key = (gate.name, wires)
        app = apps.get(key)
        if app is None:
            app = apps[key] = GateApplication(gate, wires)
        ops.append(app)
    return Circuit(width, tuple(ops), measured)
