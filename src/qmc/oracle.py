"""Independent dense state-vector simulator used for differential testing.

The gate constants here are written out in floating point from first
principles and share no code with the exact amplitude engine; an oracle that
reused the code under test would prove nothing.  Wire 0 is the most
significant bit of the state index, matching the exact engine's bitstring
convention.

Each gate is one strided matrix product on a reshaped view of the state: a
1-qubit gate on wire w multiplies the middle axis of a (2^w, 2, rest) view,
and for a gate on several wires (or on a low wire of a wide register) the
wires are transposed to the front, the (2^k, rest) view is multiplied and
the wires are transposed back.  After every gate the norm must stay within
1e-9 of 1, or the run raises `ArithmeticError`.
"""

from __future__ import annotations

import math

import numpy as np

from .amplitude import _to_complex
from .state import Superposition
from .translate import Circuit

_WIDTH_CAP = 20

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


class FloatState:
    """Dense complex amplitudes; index = integer value of the bitstring."""

    __slots__ = ("width", "vec")

    def __init__(self, width: int, vec: np.ndarray) -> None:
        self.width = width
        self.vec = vec

    def __repr__(self) -> str:
        return f"FloatState(width={self.width})"


def _apply_dense(vec: np.ndarray, name: str, wires: tuple[int, ...], n: int) -> np.ndarray:
    """The gate's matrix times the amplitudes of its wires, for every setting
    of the other wires, by one strided matrix product."""
    mat = _MATRICES[name]
    if len(wires) == 1:
        # Wire w splits the index into 2^w settings of the wires above it,
        # its own bit, and the settings of the wires below; mat acts on the
        # middle axis, one small product per setting above.  That is cheap
        # while there are few of those or each covers many settings below;
        # otherwise (wide registers, low wires) the route below is faster.
        (w,) = wires
        if w < 6 or n - w > 6:
            return np.matmul(mat, vec.reshape(1 << w, 2, -1)).reshape(-1)
    # Move the gate's wires to the front, in order, so that their bits are
    # the row index of a (2^k, rest) view; then move them back.
    order = (*wires, *(w for w in range(n) if w not in wires))
    back = [0] * n
    for i, w in enumerate(order):
        back[w] = i
    front = vec.reshape((2,) * n).transpose(order).reshape(len(mat), -1)
    return (mat @ front).reshape((2,) * n).transpose(back).reshape(-1)


def run_circuit(c: Circuit) -> FloatState:
    """Run the circuit on |0...0> by dense matrix action."""
    if c.width > _WIDTH_CAP:
        raise ValueError(f"oracle is capped at {_WIDTH_CAP} qubits, got {c.width}")
    vec = np.zeros(1 << c.width, dtype=complex)
    vec[0] = 1.0
    for op in c.ops:
        vec = _apply_dense(vec, op.gate.name, op.wires, c.width)
        norm = math.sqrt(np.vdot(vec, vec).real)
        if abs(norm - 1.0) > 1e-9:
            raise ArithmeticError(f"oracle norm drifted to {norm}")
    return FloatState(c.width, vec)


def compare(s: Superposition, f: FloatState, tol: float) -> tuple[bool, float]:
    """Per-amplitude comparison, including zeros for absent terms.

    Returns whether every deviation is below the tolerance, and the maximum
    deviation observed.
    """
    if s.width != f.width:
        raise ValueError(f"width mismatch: {s.width} vs {f.width}")
    dense = np.zeros(1 << s.width, dtype=complex)
    for basis, amp in s.packed.items():
        dense[basis] = _to_complex(amp)
    deviation = float(np.max(np.abs(dense - f.vec)))
    return deviation < tol, deviation
