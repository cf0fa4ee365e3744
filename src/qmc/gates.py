"""Unitary gate registry and exact gate application.

Gates are small matrices of exact amplitudes.  Application to a register
never materializes the 2^n x 2^n embedding.  `apply` is one loop over the
packed terms: it reads the selected wires' bits off each basis index, and
for every nonzero entry of that matrix column emits the product amplitude
with the row's bits put in their place.  The results are merged with
`combine`, which is where interference between computational paths takes
effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .amplitude import (
    AMP_ONE,
    AMP_ZERO,
    INV_SQRT2,
    OMEGA,
    PACKED_ONE,
    Amplitude,
    CycloInt,
    Packed,
    _mul,
)
from .state import Superposition, combine

Matrix = tuple[tuple[Amplitude, ...], ...]


@dataclass(frozen=True)
class Gate:
    name: str
    arity: int
    matrix: Matrix  # matrix[row][col], col = input basis index
    # Computed once: columns[col] lists (row, packed entry) for the nonzero
    # entries of a column, and row_bits[row] the row's bit per wire, in the
    # order the application lists its wires.
    columns: tuple[tuple[tuple[int, Packed], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    row_bits: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 1 << self.arity
        columns = tuple(
            tuple(
                (row, self.matrix[row][col].packed)
                for row in range(size)
                if not self.matrix[row][col].is_zero()
            )
            for col in range(size)
        )
        row_bits = tuple(
            tuple((row >> (self.arity - 1 - j)) & 1 for j in range(self.arity))
            for row in range(size)
        )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "row_bits", row_bits)


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
    width = s.width
    for w in app.wires:
        if w >= width:
            raise ValueError(
                f"wire {w} out of range for width-{width} register"
            )
    # Wire w is bit width-1-w of a basis index.  place[row] puts a row's bits
    # there, so a term's column is found by masking its index.
    shifts = [width - 1 - w for w in app.wires]
    place = [
        sum(bit << shift for bit, shift in zip(bits, shifts))
        for bits in app.gate.row_bits
    ]
    mask = place[-1]  # the last row has every wire's bit set
    # A unit entry (None here) passes the amplitude through unchanged.
    targets = {
        place[col]: [
            (place[row], None if entry == PACKED_ONE else entry)
            for row, entry in rows
        ]
        for col, rows in enumerate(app.gate.columns)
    }
    parts: list[tuple[Packed, int]] = []
    emit = parts.append
    for basis, amp in s.packed.items():
        wires = basis & mask
        rest = basis ^ wires
        for row, entry in targets[wires]:
            emit((amp if entry is None else _mul(amp, entry), rest | row))
    return combine(parts, width)
