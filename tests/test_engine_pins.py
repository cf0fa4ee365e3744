"""Pinned exact answers of the state engine.

`final_state(c).render()` is hashed for the 200 circuits of the selftest's
differential sweep (`random.Random(0xD1FF)`) and for brickwork circuits with
n = 4..8 (H on every wire, T on every wire, then a CNOT chain).  The
digests in `tests/golden/expected/final_states.sha256` were taken from the
string-keyed engine that preceded the packed one, so any change to the
engine must reproduce its answers term for term and in the same order.
`final_states_wide.sha256` pins brickwork n = 9..12 the same way, taken
from the dict engine before `final_state` had a dense one; these go dense.
`dist_wide.sha256` pins the whole stdout of `qmc dist` on the sweep and on
brickwork n = 9..12, taken before `Distribution` kept its weights by basis
index: states that go dense and whose outcomes share a weight.
`proofs_wide.sha256` pins the proof path on wide registers, which never goes
dense: the stdout of `qmc check`, every node's sequent, for the
`translate --to proof --seed 1` scripts of measured brickwork n = 8..10 and of
a fixed random 10-wire circuit, taken before the engine kept per-call memos
(see `state`), so they hold with or without one in each step.  Brickwork
states repeat a few amplitudes over 256-1024 terms; the random circuit's
hardly repeat.
`sweep_circuits.sha256` pins the sweep's circuits themselves: the
`render_circuit` text of each of the 200, taken while `random_circuit` drew
with `rng.choice` and `rng.sample`.

A hypothesis property also compares `gates.apply` with the textbook column
sum written here with `Amplitude` arithmetic and `BasisState` bits, on the
built-in gates and on gates outside that set: non-unitary ones, entries with
no w^j / sqrt2^e form, and single-entry columns that may share a row.  Its
states are small orbit states and, above the memo threshold, wide states
that repeat a few amplitudes, hardly any, or first the one and then the
other (`conftest.wide_state`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

from hypothesis import assume, given, settings, strategies as st

from conftest import GOLDEN, WIDE_STATES, brickwork, random_orbit_state
from qmc import dense
from qmc.amplitude import AMP_ZERO, INV_SQRT2, Amplitude, CycloInt
from qmc.cli import main
from qmc.gates import BUILTIN_NAMES, Gate, GateApplication, apply, builtin
from qmc.parser import render_circuit
from qmc.state import BasisState, Superposition
from qmc.translate import Circuit, final_state, random_circuit

DIGESTS = GOLDEN / "expected" / "final_states.sha256"
WIDE_DIGESTS = GOLDEN / "expected" / "final_states_wide.sha256"
DIST_DIGESTS = GOLDEN / "expected" / "dist_wide.sha256"
PROOF_DIGESTS = GOLDEN / "expected" / "proofs_wide.sha256"
SWEEP_DIGESTS = GOLDEN / "expected" / "sweep_circuits.sha256"


def pinned_circuits(apps: dict | None = None) -> dict[str, Circuit]:
    """The sweep circuits in selftest order, then the brickwork family.  With
    `apps`, the sweep shares one application per (gate, wires), as selftest's
    does."""
    rng = random.Random(0xD1FF)
    circuits = {f"sweep/{i:03d}": random_circuit(rng, apps=apps) for i in range(200)}
    circuits.update({f"brickwork/{n}": brickwork(n) for n in range(4, 9)})
    return circuits


def digest_line(name: str, c: Circuit) -> str:
    return f"{name} {hashlib.sha256(final_state(c).render().encode()).hexdigest()}"


def digest_lines(apps: dict | None = None) -> list[str]:
    return [digest_line(name, c) for name, c in pinned_circuits(apps).items()]


def test_final_states_match_the_pinned_digests():
    expected = DIGESTS.read_text(encoding="ascii").splitlines()
    assert len(expected) == 205
    actual = digest_lines()
    mismatched = [a.split()[0] for a, e in zip(actual, expected) if a != e]
    assert not mismatched
    assert actual == expected


def test_wide_final_states_match_the_pinned_digests(monkeypatch):
    runs = []
    run = dense.run

    def counted(width, packed, ops):
        runs.append(width)
        return run(width, packed, ops)

    monkeypatch.setattr(dense, "run", counted)
    actual = [digest_line(f"brickwork/{n}", brickwork(n)) for n in range(9, 13)]
    assert actual == WIDE_DIGESTS.read_text(encoding="ascii").splitlines()
    assert runs == [9, 10, 11, 12]  # each went dense


def dist_digest_lines(directory) -> list[str]:
    """`name sha256` of `qmc dist` stdout for the sweep circuits, then
    brickwork n = 9..12, each written to a .qc file in directory."""
    circuits = pinned_circuits()
    circuits = {name: c for name, c in circuits.items() if name.startswith("sweep/")}
    circuits.update({f"brickwork/{n}": brickwork(n) for n in range(9, 13)})
    lines = []
    for name, c in circuits.items():
        path = directory / (name.replace("/", "_") + ".qc")
        path.write_text(render_circuit(c), encoding="ascii")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["dist", str(path)]) == 0
        lines.append(f"{name} {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    return lines


def test_dist_stdout_matches_the_pinned_digests(tmp_path):
    expected = DIST_DIGESTS.read_text(encoding="ascii").splitlines()
    assert len(expected) == 204
    assert dist_digest_lines(tmp_path) == expected


def random_wide_circuit() -> Circuit:
    """A fixed, measured random circuit of 300 H, T, S and CNOT gates on 10
    wires, whose states hold many distinct amplitudes."""
    rng = random.Random(0x5EED10)
    ops = []
    for _ in range(300):
        gate = builtin(rng.choice(("H", "T", "S", "CNOT")))
        ops.append(GateApplication(gate, tuple(rng.sample(range(10), gate.arity))))
    return Circuit(10, tuple(ops), measured=True)


def _stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def proof_digest_lines(directory) -> list[str]:
    """`name sha256` of `qmc check` stdout on the `translate --to proof
    --seed 1` script of measured brickwork n = 8..10 and of
    `random_wide_circuit`."""
    circuits = {f"brickwork/{n}": brickwork(n, measured=True) for n in range(8, 11)}
    circuits["random/10"] = random_wide_circuit()
    lines = []
    for name, c in circuits.items():
        path = directory / (name.replace("/", "_") + ".qc")
        path.write_text(render_circuit(c), encoding="ascii")
        argv = ["translate", str(path), "--to", "proof", "--seed", "1"]
        (script,) = _stdout_of(argv + ["--outdir", str(directory)]).split()
        report = _stdout_of(["check", script])
        lines.append(f"{name} {hashlib.sha256(report.encode()).hexdigest()}")
    return lines


def test_proof_path_matches_the_pinned_digests(tmp_path):
    expected = PROOF_DIGESTS.read_text(encoding="ascii").splitlines()
    assert len(expected) == 4
    assert proof_digest_lines(tmp_path) == expected


def test_the_shared_sweep_matches_the_pinned_digests():
    # Plans built for one circuit are reused by later ones of other widths.
    expected = DIGESTS.read_text(encoding="ascii").splitlines()
    assert digest_lines({}) == expected


def test_the_sweep_draws_the_pinned_circuits():
    expected = SWEEP_DIGESTS.read_text(encoding="ascii").splitlines()
    assert len(expected) == 200
    for apps in (None, {}):
        sweep = {
            name: c for name, c in pinned_circuits(apps).items() if name.startswith("sweep/")
        }
        assert sum(len(c.ops) for c in sweep.values()) == 2825
        actual = [
            f"{name} {hashlib.sha256(render_circuit(c).encode()).hexdigest()}"
            for name, c in sweep.items()
        ]
        assert actual == expected


def test_a_shared_apps_dict_draws_the_same_circuits():
    plain, shared = random.Random(0xD1FF), random.Random(0xD1FF)
    apps: dict = {}
    first: dict = {}
    for _ in range(200):
        a = random_circuit(plain)
        b = random_circuit(shared, apps=apps)
        assert b.width == a.width
        assert [(op.gate.name, op.wires) for op in b.ops] == [
            (op.gate.name, op.wires) for op in a.ops
        ]
        for op in b.ops:
            # A repeated (gate, wires) is the very same application.
            assert first.setdefault((op.gate.name, op.wires), op) is op
    assert plain.random() == shared.random()  # the same number of draws
    assert apps == first


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


def unit(j: int) -> Amplitude:
    coeffs = [0, 0, 0, 0]
    coeffs[j % 4] = -1 if j >= 4 else 1
    return Amplitude(CycloInt(*coeffs))


# Entries of gates outside the built-in set: zero, w^j (so also +-1),
# +-1/sqrt2, 1/2 and w/sqrt2^3 (so a gate may mix exponents 0 to 3, and the
# dense engine lifts by sqrt2^d with d >= 2), and (1 + w)/sqrt2 and 2, which
# have no w^j / sqrt2^e form.
ENTRIES = (
    AMP_ZERO,
    *(unit(j) for j in range(8)),
    INV_SQRT2,
    -INV_SQRT2,
    Amplitude(CycloInt(1), 2),
    Amplitude(CycloInt(0, 1), 3),
    Amplitude(CycloInt(1, 1), 1),
    Amplitude(CycloInt(2)),
)


@st.composite
def custom_gates(draw) -> Gate:
    arity = draw(st.integers(1, 2))
    size = 1 << arity
    if draw(st.booleans()):
        # One nonzero entry per column, in rows that may repeat.
        rows = [draw(st.integers(0, size - 1)) for _ in range(size)]
        entries = [draw(st.sampled_from(ENTRIES[1:])) for _ in range(size)]
        matrix = tuple(
            tuple(entries[col] if rows[col] == row else AMP_ZERO for col in range(size))
            for row in range(size)
        )
    else:
        matrix = tuple(
            tuple(draw(st.sampled_from(ENTRIES)) for _ in range(size))
            for _ in range(size)
        )
    return Gate("U", arity, matrix)


ORBIT_STATES = st.builds(
    lambda seed, width, n_gates: random_orbit_state(random.Random(seed), width, n_gates),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(0, 14),
)


@settings(max_examples=600, deadline=None)
@given(
    state=st.one_of(ORBIT_STATES, WIDE_STATES),
    gate=st.one_of(st.sampled_from(BUILTIN_NAMES).map(builtin), custom_gates()),
    data=st.data(),
)
def test_apply_equals_the_textbook_column_sum(state, gate, data):
    # Orbit states of 1-5 wires, and wide states on which `apply` and
    # `combine` keep their memos, never start them, or drop them part way.
    width = state.width
    assume(gate.arity <= width)
    wires = tuple(
        data.draw(st.permutations(range(width)).map(lambda p: p[: gate.arity]))
    )
    app = GateApplication(gate, wires)
    expected = column_sum(app, state)
    actual = apply(app, state)
    assert actual == expected
    assert actual.render() == expected.render()
    assert list(actual.terms()) == list(expected.terms())
