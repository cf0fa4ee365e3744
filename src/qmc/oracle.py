"""Independent dense state-vector simulator used for differential testing.

The gate constants here are written out in floating point from first
principles and share no code with the exact amplitude engine; an oracle that
reused the code under test would prove nothing.  Wire 0 is the most
significant bit of the state index, matching the exact engine's bitstring
convention.
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
    mat = _MATRICES[name]
    k = len(wires)
    tensor = vec.reshape([2] * n)
    op = mat.reshape([2] * (2 * k))
    moved = np.tensordot(op, tensor, axes=(list(range(k, 2 * k)), list(wires)))
    return np.moveaxis(moved, list(range(k)), list(wires)).reshape(-1)


def run_circuit(c: Circuit) -> FloatState:
    """Run the circuit on |0...0> by dense matrix action."""
    if c.width > _WIDTH_CAP:
        raise ValueError(f"oracle is capped at {_WIDTH_CAP} qubits, got {c.width}")
    vec = np.zeros(1 << c.width, dtype=complex)
    vec[0] = 1.0
    for op in c.ops:
        vec = _apply_dense(vec, op.gate.name, op.wires, c.width)
        norm = np.linalg.norm(vec)
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
