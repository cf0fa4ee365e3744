"""Unitary gate registry and exact gate application.

Gates are small matrices of exact amplitudes.  Application to a register
never materializes the 2^n x 2^n embedding: each basis term is rewritten on
the selected wires and the results are merged with `combine`, which is where
interference between computational paths takes effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amplitude import AMP_ONE, AMP_ZERO, Amplitude, CycloInt, INV_SQRT2, OMEGA
from .state import BasisState, Superposition, combine

Matrix = tuple[tuple[Amplitude, ...], ...]


@dataclass(frozen=True)
class Gate:
    name: str
    arity: int
    matrix: Matrix  # matrix[row][col], col = input basis index


@dataclass(frozen=True)
class GateApplication:
    """A gate bound to an ordered list of distinct target wires.

    For CNOT the first wire is the control, the second the target.
    """

    gate: Gate
    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.wires) != self.gate.arity:
            raise ValueError(
                f"{self.gate.name} takes {self.gate.arity} wire(s), "
                f"got {len(self.wires)}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise ValueError("duplicate wires")
        if any(w < 0 for w in self.wires):
            raise ValueError("wire indices must be nonnegative")

    def label(self) -> str:
        return f"{self.gate.name} [{','.join(str(w) for w in self.wires)}]"


_ONE = AMP_ONE
_ZERO = AMP_ZERO
_NEG_ONE = Amplitude(CycloInt(-1))
_I_UNIT = Amplitude(CycloInt(0, 0, 1))  # w^2 = i
_NEG_INV_SQRT2 = Amplitude(CycloInt(-1), 1)

_BUILTINS: dict[str, Gate] = {
    "I": Gate("I", 1, ((_ONE, _ZERO), (_ZERO, _ONE))),
    "X": Gate("X", 1, ((_ZERO, _ONE), (_ONE, _ZERO))),
    "Z": Gate("Z", 1, ((_ONE, _ZERO), (_ZERO, _NEG_ONE))),
    "S": Gate("S", 1, ((_ONE, _ZERO), (_ZERO, _I_UNIT))),
    "T": Gate("T", 1, ((_ONE, _ZERO), (_ZERO, OMEGA))),
    "H": Gate("H", 1, ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, _NEG_INV_SQRT2))),
    "CNOT": Gate(
        "CNOT",
        2,
        (
            (_ONE, _ZERO, _ZERO, _ZERO),
            (_ZERO, _ONE, _ZERO, _ZERO),
            (_ZERO, _ZERO, _ZERO, _ONE),
            (_ZERO, _ZERO, _ONE, _ZERO),
        ),
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Gate:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown gate name: {name}") from None


def is_unitary(g: Gate) -> bool:
    """True iff U-dagger times U is exactly the identity."""
    dim = 1 << g.arity
    for i in range(dim):
        for j in range(dim):
            acc = AMP_ZERO
            for k in range(dim):
                acc = acc + g.matrix[k][i].conj() * g.matrix[k][j]
            if acc != (AMP_ONE if i == j else AMP_ZERO):
                return False
    return True


def apply(app: GateApplication, s: Superposition) -> Superposition:
    """Apply the gate to the designated wires of every basis term.

    Other wires are untouched.  Because the rewritten terms are merged with
    `combine`, exact cancellation between them happens here.
    """
    for w in app.wires:
        if w >= s.width:
            raise ValueError(
                f"wire {w} out of range for width-{s.width} register"
            )
    arity = app.gate.arity
    matrix = app.gate.matrix
    # Sparse column view: most gate columns have one or two nonzero entries.
    columns = [
        [(row, matrix[row][col]) for row in range(1 << arity) if not matrix[row][col].is_zero()]
        for col in range(1 << arity)
    ]
    parts: list[tuple[Amplitude, BasisState]] = []
    for basis, amp in s.terms():
        col = 0
        for w in app.wires:
            col = (col << 1) | basis.bit(w)
        for row, entry in columns[col]:
            assignments = {
                w: (row >> (arity - 1 - j)) & 1 for j, w in enumerate(app.wires)
            }
            parts.append((amp * entry, basis.with_bits(assignments)))
    return combine(parts, s.width)
