"""Expected answers for the benchmark's inputs, computed without the exact engine.

Probabilities come from a float state vector: `qmc.oracle`'s dense simulator
up to its qubit cap, and the sparse simulator below above it.  Circuits and
proof scripts are read by this module's own readers, never by `qmc.parser`,
and the sampler is re-implemented from the documented SplitMix64 recipe.
"""

from __future__ import annotations

import math
import re

import numpy as np
from qmc import oracle
from qmc.gates import GateApplication, builtin
from qmc.translate import Circuit

ORACLE_CAP = 20  # qmc.oracle refuses wider registers
EPS = 1e-9  # probability tolerance against the float reference
ZERO = 1e-12  # below this a float amplitude is an exact cancellation

_R = 1 / math.sqrt(2)
_W = complex(_R, _R)
_MATRICES = {  # matrix[row][col] of each single-qubit gate
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Z": ((1, 0), (0, -1)),
    "S": ((1, 0), (0, 1j)),
    "T": ((1, 0), (0, _W)),
    "H": ((_R, _R), (_R, -_R)),
}
ARITY = {**{name: 1 for name in _MATRICES}, "CNOT": 2}


# ---------------------------------------------------------------------------
# Text emitters and readers
# ---------------------------------------------------------------------------

def emit_circuit(width: int, ops, measured: bool) -> str:
    lines = [f"qubits {width}"]
    lines += [" ".join([name, *map(str, wires)]) for name, wires in ops]
    if measured:
        lines.append("measure")
    return "\n".join(lines) + "\n"


def emit_script(name: str, width: int, ops, outcome: str | None) -> str:
    """A circuit's proof in straight-line postorder: left-associated tensors
    of axioms, the gates in order, then `born` and `measure` if an outcome is
    given."""
    lines = [f"proof {name} {{", "  s0 = ax;"]
    last, k = 0, 1
    for _ in range(width - 1):
        lines.append(f"  s{k} = ax;")
        lines.append(f"  s{k + 1} = tensor s{last} s{k};")
        last, k = k + 1, k + 2
    for gate, wires in ops:
        lines.append(f"  s{k} = gate {gate} [{','.join(map(str, wires))}] s{last};")
        last, k = k, k + 1
    if outcome is not None:
        lines.append(f"  s{k} = born s{last};")
        lines.append(f"  s{k + 1} = measure s{k} outcome=|{outcome}>;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_circuit(text: str) -> tuple[int, list, bool]:
    width, ops, measured = None, [], False
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if width is None:
            width = int(fields[1])
        elif fields[0] == "measure":
            measured = True
        else:
            ops.append((fields[0], tuple(int(w) for w in fields[1:])))
    return width, ops, measured


_BINDING = re.compile(r"(\w+)\s*=\s*([^;]*);")
_EXPR = {
    "ax": re.compile(r"ax$"),
    "tensor": re.compile(r"tensor\s+(\w+)\s+(\w+)$"),
    "gate": re.compile(r"gate\s+(\w+)\s*\[([\d,\s]*)\]\s*(\w+)$"),
    "born": re.compile(r"born\s+(\w+)$"),
    "measure": re.compile(r"measure\s+(\w+)\s+outcome\s*=\s*\|([01]+)>$"),
}


class Script:
    """A proof script read as the circuit it describes.

    Axioms are numbered in order of appearance and each tensor joins two
    adjacent wire windows, which holds for the postorder scripts that the
    benchmark writes and that qmc emits from circuits.
    """

    def __init__(self, text: str) -> None:
        body = re.sub(r"#[^\n]*", "", text)
        self.bindings: list[str] = []
        self.ops: list = []
        self.born = False
        self.outcome: str | None = None
        window: dict[str, tuple[int, int]] = {}
        wires = 0
        for name, expr in _BINDING.findall(body[body.index("{") + 1 :]):
            kind, match = next(
                (k, m) for k, rx in _EXPR.items() if (m := rx.match(expr.strip()))
            )
            if kind == "ax":
                window[name] = (wires, 1)
                wires += 1
            elif kind == "tensor":
                (lo, w1), (lo2, w2) = window[match[1]], window[match[2]]
                if lo2 != lo + w1:
                    raise ValueError(f"{name}: tensor of non-adjacent windows")
                window[name] = (lo, w1 + w2)
            elif kind == "gate":
                lo, _ = window[name] = window[match[3]]
                local = tuple(int(w) for w in match[2].split(","))
                self.ops.append((match[1], tuple(lo + w for w in local)))
            else:
                window[name] = window[match[1]]
                self.born = True
                if kind == "measure":
                    self.outcome = match[2]
            self.bindings.append(name)
        self.width = wires

    @property
    def gates(self) -> int:
        return len(self.ops)


# ---------------------------------------------------------------------------
# Float simulation and sampling
# ---------------------------------------------------------------------------

def _simulate_sparse(width: int, ops) -> dict[str, complex]:
    state = {"0" * width: 1 + 0j}
    for name, wires in ops:
        if name == "CNOT":
            c, t = wires
            flip = {"0": "1", "1": "0"}
            state = {
                (b[:t] + flip[b[t]] + b[t + 1 :] if b[c] == "1" else b): a
                for b, a in state.items()
            }
            continue
        (w,) = wires
        matrix = _MATRICES[name]
        new: dict[str, complex] = {}
        for b, a in state.items():
            col = int(b[w])
            for row in (0, 1):
                entry = matrix[row][col]
                if entry:
                    nb = b[:w] + "01"[row] + b[w + 1 :]
                    new[nb] = new.get(nb, 0) + entry * a
        state = {b: a for b, a in new.items() if abs(a) > ZERO}
    return state


def _simulate_oracle(width: int, ops) -> dict[str, complex]:
    circuit = Circuit(
        width, tuple(GateApplication(builtin(n), tuple(w)) for n, w in ops)
    )
    vec = oracle.run_circuit(circuit).vec
    return {
        format(int(i), f"0{width}b"): complex(vec[i])
        for i in np.flatnonzero(np.abs(vec) > ZERO)
    }


def probabilities(width: int, ops) -> dict[str, float]:
    """Outcome probabilities of running the circuit on |0...0>."""
    simulate = _simulate_oracle if width <= ORACLE_CAP else _simulate_sparse
    probs = {b: abs(a) ** 2 for b, a in simulate(width, ops).items()}
    return {b: p for b, p in probs.items() if p > ZERO}


def _splitmix64(seed: int) -> int:
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def sample(probs: dict[str, float], seed: int) -> set[str]:
    """Outcomes the seeded sampler may return: one draw inverted through the
    CDF in lexicographic order, plus a neighbour when the draw lies within
    float error of a boundary."""
    u = _splitmix64(seed & ((1 << 64) - 1)) / 2.0**64
    outcomes = sorted(probs)
    acc = 0.0
    for i, b in enumerate(outcomes):
        lo, acc = acc, acc + probs[b]
        if u < acc or i == len(outcomes) - 1:
            near = {b}
            if u - lo < EPS and i > 0:
                near.add(outcomes[i - 1])
            if acc - u < EPS and i + 1 < len(outcomes):
                near.add(outcomes[i + 1])
            return near
    raise ValueError("empty distribution")


def exact_value(text: str) -> float:
    """Float value of an exact probability printed as p, p/d, (p+q*sqrt2) or
    (p+q*sqrt2)/d."""
    m = re.fullmatch(r"\(?(-?\d+)(?:([+-]\d+)\*sqrt2\))?(?:/(\d+))?", text)
    if m is None:
        raise ValueError(f"unreadable probability {text!r}")
    p, q, d = int(m[1]), int(m[2] or 0), int(m[3] or 1)
    return p / d + q / d * math.sqrt(2)


def close(text: str, expected: float) -> bool:
    return abs(exact_value(text) - expected) < EPS
