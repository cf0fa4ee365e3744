"""The dense engine and the permutation runs of `translate.final_state`
against the dict engine.

`dense.run` must give the packed dict that `gates.apply` gives, term for
term, and agree with the float oracle.  The dict engine here is the proof
path: the plain loop of `gates.apply` over the gates, one at a time.  So
must `gates.apply_run`, which `final_state` sends each run of one or more
permutation gates through: on long runs, on phaseful permutations outside
the built-in set, on states above `state.MEMO_TERMS`, and on runs before a
dense hand-over.  A register that goes dense stays dense: `dense.run`
returns `Arrays` whose dtype changes at most once, from int64 to Python
ints where a gate could pass 2^`dense.MAX_BITS`, and no gate after the
hand-over reaches `apply_run` or `apply_packed`, gates with entries of no
w^j / sqrt2^e form included.  Across all of it `final_state` builds one
`Superposition` per circuit.  A script's chain of gate steps runs through
the same loop (`translate.run_gates`, from `parser.conclude`).

`translate.final_distribution` reads the Born weights of a circuit that
ends dense off its arrays, below 2^`dense.BORN_BITS`, and must give
`distribution(final_state(c))` item for item, in order: on the arrays, at
the 30-bit edge, past it, past the int64 bound, on Python ints whose
coefficients fall back below 30 bits, and on an unnormalized state, where
both fail with one message.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmc import dense, oracle, translate
from qmc.amplitude import AMP_ONE, AMP_ZERO, PACKED_ONE, REAL_ONE, Amplitude, CycloInt
from qmc.gates import BUILTIN_NAMES, Gate, GateApplication, apply, apply_run, builtin
from qmc.calculus import Ax, Tensor, UnnormalizedState, Unitary, _born, distribution
from qmc.parser import Binding, ProofScript, conclude, render_circuit
from qmc.state import BasisState, Superposition, ket, norm_sq
from qmc.translate import Circuit, final_distribution, final_state
from conftest import WIDE_STATES, brickwork, random_orbit_state
from test_engine_pins import DIST_DIGESTS, _stdout_of, custom_gates, pinned_circuits, unit


def dict_engine(state: Superposition, ops) -> Superposition:
    for op in ops:
        state = apply(op, state)
    return state


def dense_run(state: Superposition, ops) -> Superposition:
    """`dense.run` on the state's packed dict, as a superposition."""
    end = dense.run(state.width, state.packed, ops)
    return Superposition._of(state.width, dense.packed_of(end))


def random_ops(rng: random.Random, width: int, n_gates: int, names=BUILTIN_NAMES):
    ops = []
    for _ in range(n_gates):
        gate = builtin(rng.choice(names))
        ops.append(GateApplication(gate, tuple(rng.sample(range(width), gate.arity))))
    return ops


def recorded_dtypes(patch: pytest.MonkeyPatch) -> list:
    """The dtype of the array each gate on the dense engine takes, in the
    order they run, filled in as the patched `dense._apply` is called."""
    dtypes = []
    apply_gate = dense._apply

    def recorded(c, op, width, rows):
        dtypes.append(c.dtype)
        return apply_gate(c, op, width, rows)

    patch.setattr(dense, "_apply", recorded)
    return dtypes


def stretches(items: list) -> list:
    """The items in order, each stretch of equal ones once."""
    return [item for item, _ in groupby(items)]


# The arrays' dtype on either side of the int64 bound.
INT64, PYTHON_INTS = np.dtype(np.int64), np.dtype(object)


# Widths from the dense minimum up to 12: from 14 qubits on, the oracle's
# products run on BLAS threads and stall.
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(dense.MIN_WIDTH, 12),
    n_gates=st.integers(0, 24),
)
def test_dense_from_the_first_gate_equals_the_dict_engine(seed, width, n_gates):
    rng = random.Random(seed)
    # H on a random set of wires first, so that the support reaches up to
    # the whole register.
    filled = rng.sample(range(width), rng.randint(0, width))
    ops = [GateApplication(builtin("H"), (w,)) for w in filled]
    ops += random_ops(rng, width, n_gates)
    expected = dict_engine(ket("0" * width), ops)
    rest = iter(ops)
    end = dense.run(width, ket("0" * width).packed, rest)
    # At most 24 gates after the Hadamards keep every coefficient far below
    # the int64 bound: every gate ran on the int64 array, and none is left.
    assert isinstance(end, dense.Arrays) and end.c.dtype == INT64
    assert next(rest, None) is None
    actual = Superposition._of(width, dense.packed_of(end))
    assert list(actual.packed.items()) == list(expected.packed.items())
    floats = oracle.run_circuit(Circuit(width, tuple(ops)))
    assert oracle.compare(actual, floats, 1e-9)[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(dense.MIN_WIDTH, 9),
    gates=st.lists(
        st.one_of(st.sampled_from(BUILTIN_NAMES).map(builtin), custom_gates()),
        max_size=6,
    ),
    data=st.data(),
)
def test_any_state_and_gates_outside_the_built_in_set_equal_the_dict_engine(
    seed, width, gates, data
):
    # Custom gates bring entries with no w^j / sqrt2^e form (run as up to
    # four integer-scaled terms), mixed exponents e (lifted by sqrt2^d), zero
    # rows and growth past one bit per gate.  The start state is any one
    # with small numerators over mixed exponents, so it is lifted to the
    # largest.
    rng = random.Random(seed)
    state = Superposition(
        width,
        {
            BasisState.of(b, width): Amplitude(
                CycloInt(*(rng.randint(-3, 3) for _ in range(4))), rng.randint(0, 4)
            )
            for b in rng.sample(range(1 << width), rng.randint(1, 1 << width))
        },
    )
    assume(len(state))
    ops = [
        GateApplication(
            gate, tuple(data.draw(st.permutations(range(width)))[: gate.arity])
        )
        for gate in gates
    ]
    rest = iter(ops)
    actual = dict_engine(dense_run(state, rest), rest)
    assert list(actual.packed.items()) == list(dict_engine(state, ops).packed.items())


def test_past_the_int64_bound_the_arrays_go_on_as_python_ints():
    # H on every wire, then an H/T/S/CNOT chain on wires 0 and 1 whose
    # coefficients grow past 62 bits: the dense engine takes the chain, turns
    # its int64 array into one of Python ints once, before the first gate
    # that could overflow, and ends the run there.
    width = dense.MIN_WIDTH
    h, t, s, cnot = (builtin(name) for name in ("H", "T", "S", "CNOT"))
    block = [
        GateApplication(h, (0,)),
        GateApplication(t, (0,)),
        GateApplication(cnot, (0, 1)),
        GateApplication(h, (1,)),
        GateApplication(s, (1,)),
        GateApplication(t, (1,)),
    ]
    ops = [GateApplication(h, (w,)) for w in range(width)] + block * 200
    with pytest.MonkeyPatch.context() as patch:
        dtypes = recorded_dtypes(patch)
        end = translate.run_gates(width, {0: PACKED_ONE}, ops)
    assert isinstance(end, dense.Arrays) and end.c.dtype == PYTHON_INTS
    assert stretches(dtypes) == [INT64, PYTHON_INTS]
    actual = Superposition._of(width, dense.packed_of(end))
    expected = dict_engine(ket("0" * width), ops)
    assert list(actual.packed.items()) == list(expected.packed.items())
    largest = max(max(abs(a) for a in amp[:4]) for amp in actual.packed.values())
    assert largest.bit_length() > dense.MAX_BITS


# Coefficients from 2^61 to 2^63, of either sign.  Every term holds
# (c, 0, c, 0) = c(1 + i), so H on wire 0 sums two equal terms to
# 2c(1 + i) / sqrt2 = 2c w, a normal form that `_to_packed` reaches as
# (2c + 2c) w / 2: past int64 once |c| >= 2^61.  A bound of 62 bits keeps
# that H off the int64 array for |c| >= 2^61 (62 bits plus the Hadamard's
# one), so it runs on Python ints exactly; 63 would let it through on int64,
# and the sum would wrap.
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "c", [2**61 - 1, 2**61, 2**61 + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1]
)
@pytest.mark.parametrize("names", [("H",), ("H", "T", "H"), ("T", "H", "S", "H")])
def test_coefficients_at_the_int64_edge_equal_the_dict_engine(sign, c, names):
    width = dense.MIN_WIDTH
    amp = Amplitude(CycloInt(sign * c, 0, sign * c, 0))
    state = Superposition(width, {BasisState.of(b, width): amp for b in range(1 << width)})
    ops = [GateApplication(builtin(name), (0,)) for name in names]
    rest = iter(ops)
    actual = dict_engine(dense_run(state, rest), rest)
    assert list(actual.packed.items()) == list(dict_engine(state, ops).packed.items())


@pytest.mark.parametrize(
    "amps",
    [
        # A numerator past int64.
        [(1 << 70, 1, 0, 0, 0)],
        # Numerators that fit, but not once lifted from sqrt2^0 to sqrt2^4.
        [(1 << 61, 0, 0, 0, 0), (1, 0, 0, 0, 4)],
    ],
)
def test_a_state_past_the_bound_starts_on_python_ints(amps):
    width = dense.MIN_WIDTH
    state = Superposition(
        width,
        {
            BasisState.of(b, width): Amplitude(CycloInt(*amp[:4]), amp[4])
            for b, amp in zip(range(1 << width), amps * (1 << width))
        },
    )
    ops = [GateApplication(builtin("H"), (0,))]
    rest = iter(ops)
    end = dense.run(width, state.packed, rest)
    assert isinstance(end, dense.Arrays) and end.c.dtype == PYTHON_INTS
    assert next(rest, None) is None  # the gate ran on the arrays
    actual = Superposition._of(width, dense.packed_of(end))
    assert list(actual.packed.items()) == list(dict_engine(state, ops).packed.items())


def test_narrow_or_sparse_circuits_never_go_dense(monkeypatch):
    def refuse(width, packed, ops):
        raise AssertionError(f"a {width}-wire state went dense")

    monkeypatch.setattr(dense, "run", refuse)
    # The selftest sweep, 1 to 6 wires.
    circuits = [c for name, c in pinned_circuits().items() if name.startswith("sweep/")]
    rng = random.Random(7)
    # Like the benchmark's deep chains: 1 to 3 wires, many gates.
    circuits += [
        Circuit(width, tuple(random_ops(rng, width, 400, ("H", "T", "S", "X", "Z"))))
        for width in (1, 2, 3)
    ]
    # Like its sparse circuits: a GHZ state on 24 wires, then H on four more
    # wires (support 32) and phases.
    h, cnot = builtin("H"), builtin("CNOT")
    ghz = [GateApplication(h, (0,))]
    ghz += [GateApplication(cnot, (w - 1, w)) for w in range(1, 24)]
    ghz += [GateApplication(h, (w,)) for w in (3, 9, 15, 21)]
    ghz += random_ops(rng, 24, 40, ("T", "S", "X", "Z"))
    circuits.append(Circuit(24, tuple(ghz)))
    for c in circuits:
        assert final_state(c) == dict_engine(ket("0" * c.width), c.ops)


def test_a_full_register_goes_dense(monkeypatch):
    runs = []
    run = dense.run

    def counted(width, packed, ops):
        runs.append(len(packed))
        return run(width, packed, ops)

    monkeypatch.setattr(dense, "run", counted)
    width = dense.MIN_WIDTH
    ops = [GateApplication(builtin("H"), (w,)) for w in range(width)]
    ops += random_ops(random.Random(4), width, 20)
    actual = final_state(Circuit(width, tuple(ops)))
    # It switches once the Hadamards have filled 1 / 2^FILL_SHIFT of it.
    assert runs == [1 << (width - dense.FILL_SHIFT)]
    assert list(actual.packed.items()) == list(
        dict_engine(ket("0" * width), ops).packed.items()
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(8, 10),
    n_gates=st.integers(0, 24),
)
def test_a_final_state_that_went_dense_has_norm_exactly_one(seed, width, n_gates):
    # No rule checks a gate's conclusion, so the norm of the dense engine's
    # answer is held here.
    ops = brickwork(width).ops + tuple(random_ops(random.Random(seed), width, n_gates))
    runs = []
    run = dense.run

    def counted(width, packed, rest):
        runs.append(width)
        return run(width, packed, rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense, "run", counted)
        actual = final_state(Circuit(width, ops))
    assert runs == [width]  # `dense.suits` was reached
    assert norm_sq(actual) == REAL_ONE
    assert actual == dict_engine(ket("0" * width), ops)


def permutation(name: str, rows: list[int], powers: list[int]) -> Gate:
    """The gate that sends column c to row rows[c], times w^powers[c]."""
    size = len(rows)
    return Gate(
        name,
        size.bit_length() - 1,
        tuple(
            tuple(unit(powers[col]) if rows[col] == row else AMP_ZERO for col in range(size))
            for row in range(size)
        ),
    )


# Phaseful permutations outside the built-in set: [[0, -i], [i, 0]], and a
# CNOT whose flipped block carries w^3.
Y = permutation("Y", [1, 0], [2, 6])
CNOT_W3 = permutation("CW", [0, 1, 3, 2], [0, 0, 3, 0])
# An entry of no w^j / sqrt2^e form, 2: `dense.run` scales the slice where
# the wire is 1 by 2.
DOUBLING = Gate("D", 1, ((AMP_ONE, AMP_ZERO), (AMP_ZERO, Amplitude(CycloInt(2)))))


@st.composite
def phaseful_permutations(draw) -> Gate:
    size = 1 << draw(st.integers(1, 2))
    rows = draw(st.permutations(range(size)))
    return permutation("P", rows, draw(st.lists(st.integers(0, 7), min_size=size, max_size=size)))


def permutation_ops(rng: random.Random, width: int, gates: list[Gate], n_gates: int):
    fit = [gate for gate in gates if gate.arity <= width]
    return [
        GateApplication(gate, tuple(rng.sample(range(width), gate.arity)))
        for gate in (rng.choice(fit) for _ in range(n_gates))
    ]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 9),
    custom=st.lists(phaseful_permutations(), max_size=3),
)
def test_final_state_over_permutation_runs_equals_the_dict_engine(seed, width, custom):
    # H on every wire or a random set of them, then runs of 0 to 60
    # permutation gates, each closed by H or by `DOUBLING`, whose entry 2 has
    # no w^j / sqrt2^e form.  From 8 wires a filled register goes dense and
    # stays dense, so the runs after it run on its arrays.
    rng = random.Random(seed)
    gates = [builtin(name) for name in ("X", "Z", "S", "T", "CNOT", "I")]
    gates += [Y, CNOT_W3, *custom]
    h = builtin("H")
    filled = rng.choice((width, rng.randint(0, width)))
    ops = [GateApplication(h, (w,)) for w in rng.sample(range(width), filled)]
    for _ in range(rng.randint(1, 4)):
        ops += permutation_ops(rng, width, gates, rng.choice((0, 1, 2, rng.randint(3, 60))))
        ops.append(GateApplication(rng.choice((h, h, DOUBLING)), (rng.randrange(width),)))
    ops += permutation_ops(rng, width, gates, rng.randint(0, 60))
    actual = final_state(Circuit(width, tuple(ops)))
    expected = dict_engine(ket("0" * width), ops)
    assert list(actual.packed.items()) == list(expected.packed.items())


@settings(max_examples=100, deadline=None)
@given(
    state=st.one_of(
        WIDE_STATES,
        st.builds(
            lambda seed, width: random_orbit_state(random.Random(seed), width),
            st.integers(0, 2**32 - 1),
            st.integers(1, 5),
        ),
    ),
    custom=st.lists(phaseful_permutations(), max_size=3),
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(1, 40),
)
def test_a_run_equals_its_gates_one_at_a_time(state, custom, seed, n_gates):
    # Runs of one gate and longer, on states above `state.MEMO_TERMS` whose
    # amplitudes repeat or hardly repeat (where the proof path's permutation
    # loop keeps its memo or does not start it), and on small ones.
    gates = [builtin(name) for name in ("X", "Z", "S", "T", "CNOT")] + [Y, CNOT_W3, *custom]
    run = permutation_ops(random.Random(seed), state.width, gates, n_gates)
    actual = Superposition._of(state.width, apply_run(run, state.width, dict(state.packed)))
    assert list(actual.packed.items()) == list(dict_engine(state, run).packed.items())


def past_int64_circuit() -> Circuit:
    """H on every wire goes dense; then a chain on wires 0 and 1 whose runs
    of permutations lie between Hadamards grows its coefficients past 62
    bits, so the arrays go on as Python ints and run the rest, runs and
    all, on 256 columns."""
    width = dense.MIN_WIDTH
    h, t, s, cnot = (builtin(name) for name in ("H", "T", "S", "CNOT"))
    block = [
        GateApplication(h, (0,)),
        GateApplication(t, (0,)),
        GateApplication(cnot, (0, 1)),
        GateApplication(Y, (2,)),
        GateApplication(h, (1,)),
        GateApplication(s, (1,)),
        GateApplication(t, (1,)),
        GateApplication(CNOT_W3, (1, 3)),
    ]
    ops = [GateApplication(h, (w,)) for w in range(width)] + block * 200
    return Circuit(width, tuple(ops))


def test_no_gate_after_the_hand_over_leaves_the_arrays(monkeypatch):
    # A run of permutations on |0...0>, then the circuit past the int64
    # bound: the run goes through `apply_run`, the Hadamards through
    # `apply_packed` until a quarter of the register is filled, and every
    # gate after that, runs of permutations too, on the arrays.
    circuit = past_int64_circuit()
    width = circuit.width
    ops = [GateApplication(Y, (2,)), GateApplication(CNOT_W3, (1, 3)), *circuit.ops]
    events = []
    run, apply_packed, apply_gate = translate.apply_run, translate.apply_packed, dense._apply

    def ran(gates, width, packed):
        events.append(("run", len(gates), len(packed)))
        return run(gates, width, packed)

    def packed_gate(op, width, packed):
        events.append(("packed", op.label()))
        return apply_packed(op, width, packed)

    def dense_gate(c, op, width, rows):
        events.append(("dense", c.dtype))
        return apply_gate(c, op, width, rows)

    monkeypatch.setattr(translate, "apply_run", ran)
    monkeypatch.setattr(translate, "apply_packed", packed_gate)
    monkeypatch.setattr(dense, "_apply", dense_gate)
    actual = final_state(Circuit(width, tuple(ops)))
    expected = dict_engine(ket("0" * width), ops)
    assert list(actual.packed.items()) == list(expected.packed.items())
    filled = width - dense.FILL_SHIFT
    assert events[: 1 + filled] == [("run", 2, 1)] + [
        ("packed", f"H [{w}]") for w in range(filled)
    ]
    # One `_apply` per gate left, and the dtype changes once.
    on_arrays = events[1 + filled :]
    assert len(on_arrays) == len(ops) - 2 - filled
    assert stretches(on_arrays) == [("dense", INT64), ("dense", PYTHON_INTS)]


def test_a_script_of_the_past_int64_circuit_concludes_to_its_final_state(monkeypatch):
    # The circuit's proof as a script, its bindings built rather than parsed
    # since two of its gates are not built in: `parser.conclude` runs its one
    # gate chain through the same kernel loop, dense hand-over and the switch
    # to Python ints included.
    circuit = past_int64_circuit()
    bindings = [Binding("q0", Ax(), (), 1, 1)]
    last = "q0"
    for w in range(1, circuit.width):
        bindings.append(Binding(f"q{w}", Ax(), (), 1, 1))
        bindings.append(Binding(f"r{w}", Tensor(), (last, f"q{w}"), 1, 1))
        last = f"r{w}"
    for k, op in enumerate(circuit.ops):
        bindings.append(Binding(f"g{k}", Unitary(op), (last,), 1, 1))
        last = f"g{k}"
    dtypes = recorded_dtypes(monkeypatch)
    root = conclude(ProofScript("past_int64", tuple(bindings)))
    assert len(dtypes) == len(circuit.ops) - (circuit.width - dense.FILL_SHIFT)
    assert stretches(dtypes) == [INT64, PYTHON_INTS]
    monkeypatch.undo()
    expected = final_state(circuit)
    assert list(root.state.packed.items()) == list(expected.packed.items())


@pytest.mark.parametrize(
    "circuit",
    [
        pytest.param(brickwork(dense.MIN_WIDTH), id="dense"),
        pytest.param(past_int64_circuit(), id="python-ints"),
        pytest.param(Circuit(3, tuple(random_ops(random.Random(5), 3, 60))), id="dict"),
    ],
)
def test_final_state_builds_one_superposition(monkeypatch, circuit):
    # The packed dict goes from |0...0> through the dict engine and the
    # hand-over to the arrays, int64 or Python ints; only the answer is
    # sorted into a `Superposition`.
    built = []
    of = Superposition._of.__func__

    def counted(cls, width, sums):
        built.append(width)
        return of(cls, width, sums)

    monkeypatch.setattr(Superposition, "_of", classmethod(counted))
    actual = final_state(circuit)
    assert built == [circuit.width]
    monkeypatch.undo()
    assert actual == dict_engine(ket("0" * circuit.width), circuit.ops)


def layered_circuit(layers: int) -> Circuit:
    """8 wires, each layer H and then T on every wire, then CNOTs on
    neighbours: from every wire in even layers, from every second wire in
    odd ones.  It goes dense after the first layer; from 16 layers on its
    final coefficients pass 30 bits (32 bits at 16 layers, 55 at 28)."""
    width = dense.MIN_WIDTH
    h, t, cnot = builtin("H"), builtin("T"), builtin("CNOT")
    ops = []
    for layer in range(layers):
        ops += [GateApplication(h, (w,)) for w in range(width)]
        ops += [GateApplication(t, (w,)) for w in range(width)]
        step = 1 if layer % 2 == 0 else 2
        ops += [GateApplication(cnot, (w, w + 1)) for w in range(0, width - 1, step)]
    return Circuit(width, tuple(ops))


def assert_same_distribution(c: Circuit) -> None:
    actual = final_distribution(c)
    expected = distribution(final_state(c))
    assert actual.width == expected.width
    assert list(actual.weights.items()) == list(expected.weights.items())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(dense.MIN_WIDTH, 11),
    n_gates=st.integers(0, 40),
)
def test_born_weights_off_the_arrays_equal_those_of_the_final_state(seed, width, n_gates):
    # H on at least all wires but two fills a quarter of the register, so
    # the circuit goes dense and ends there, with small coefficients.
    rng = random.Random(seed)
    filled = rng.sample(range(width), rng.randint(width - dense.FILL_SHIFT, width))
    ops = [GateApplication(builtin("H"), (w,)) for w in filled]
    ops += random_ops(rng, width, n_gates, ("H", "T", "S", "CNOT"))
    c = Circuit(width, tuple(ops))
    end = translate.run_gates(width, {0: PACKED_ONE}, c.ops)
    assert isinstance(end, dense.Arrays) and end.born() is not None
    assert_same_distribution(c)


@pytest.mark.parametrize(
    "circuit, dtype",
    [
        pytest.param(layered_circuit(16), INT64, id="layered16"),
        pytest.param(layered_circuit(28), INT64, id="layered28"),
        pytest.param(past_int64_circuit(), PYTHON_INTS, id="python-ints"),
    ],
)
def test_born_weights_past_30_bits_come_from_the_packed_state(circuit, dtype):
    # Each circuit ends on arrays whose coefficients pass 30 bits, so their
    # weights take the packed path: the layered ones on int64, below the
    # int64 bound, and the past-int64 circuit on Python ints, beyond it.
    end = translate.run_gates(circuit.width, {0: PACKED_ONE}, circuit.ops)
    assert isinstance(end, dense.Arrays) and end.c.dtype == dtype
    bits = dense._bits(end.c)
    assert dense.BORN_BITS < bits and (bits <= dense.MAX_BITS) == (dtype == INT64)
    assert end.born() is None
    assert_same_distribution(circuit)


# A gate whose entries 1 + i have no w^j / sqrt2^e form: `dense.run` takes
# each as two terms, the slice and the slice rotated by w^2.  It multiplies
# the norm by sqrt2.
ONE_PLUS_I = Gate(
    "Q",
    1,
    ((Amplitude(CycloInt(1, 0, 1)), AMP_ZERO), (AMP_ZERO, Amplitude(CycloInt(1, 0, 1)))),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(dense.MIN_WIDTH, dense.MIN_WIDTH + 1))
def test_past_the_int64_bound_run_gates_equals_the_proof_path(seed, width):
    # H on every wire, then built-in gates, `Y`, `CNOT_W3`, `DOUBLING` and
    # 140 `ONE_PLUS_I` in a random order on random wires.  No gate lowers
    # the norm and those 140 raise its square to at least 2^140, so some
    # amplitude reaches 2^65.5 over at most 2^9 terms, and some numerator
    # 2^63.5: the arrays pass the int64 bound after the register goes dense.
    rng = random.Random(seed)
    h = builtin("H")
    gates = [builtin(name) for name in BUILTIN_NAMES] + [Y, CNOT_W3, DOUBLING]
    body = [rng.choice(gates) for _ in range(rng.randint(20, 60))] + [ONE_PLUS_I] * 140
    rng.shuffle(body)
    ops = [GateApplication(h, (w,)) for w in range(width)]
    ops += [GateApplication(g, tuple(rng.sample(range(width), g.arity))) for g in body]
    with pytest.MonkeyPatch.context() as patch:
        dtypes = recorded_dtypes(patch)
        end = translate.run_gates(width, {0: PACKED_ONE}, ops)
    assert isinstance(end, dense.Arrays)
    assert stretches(dtypes) == [INT64, PYTHON_INTS]
    actual = Superposition._of(width, dense.packed_of(end))
    expected = dict_engine(ket("0" * width), ops)
    assert list(actual.packed.items()) == list(expected.packed.items())


# The inverses of the gates of `past_int64_circuit` that are not their own.
INVERSES = {
    builtin("T"): permutation("Tdg", [0, 1], [0, 7]),
    builtin("S"): permutation("Sdg", [0, 1], [0, 6]),
    CNOT_W3: permutation("CWdg", [0, 1, 3, 2], [0, 0, 0, 5]),
}


def test_a_mirror_past_the_int64_bound_reads_its_weights_off_python_ints(monkeypatch):
    # Three layers of `layered_circuit`, then 130 blocks of
    # `past_int64_circuit`'s chain, whose coefficients pass 62 bits (80 at
    # its end), then the chain's exact inverse: the state comes back to the
    # layers' own, with coefficients below 30 bits, on Python ints.
    prefix = layered_circuit(3)
    width = prefix.width
    chain = past_int64_circuit().ops[width : width + 8 * 130]
    inverse = [GateApplication(INVERSES.get(op.gate, op.gate), op.wires) for op in chain]
    mirror = Circuit(width, prefix.ops + chain + tuple(reversed(inverse)))
    with monkeypatch.context() as patch:
        dtypes = recorded_dtypes(patch)
        end = translate.run_gates(width, {0: PACKED_ONE}, mirror.ops)
    assert stretches(dtypes) == [INT64, PYTHON_INTS]
    assert isinstance(end, dense.Arrays) and end.c.dtype == PYTHON_INTS
    assert dense._bits(end.c) <= dense.BORN_BITS and end.born() is not None
    assert final_state(mirror) == final_state(prefix)
    assert_same_distribution(mirror)


def edge_arrays(c: int, sign: int) -> dense.Arrays:
    """An 8-wire normalized state on arrays whose largest coefficients are
    +-c, in columns with q > 0, q < 0 and q = 0, and whose other columns
    (one nonzero coefficient each, below 2^30) fill the norm up to 1."""
    width = dense.MIN_WIDTH
    a = sign * c
    # Each column with its partner (a0, -a1, a2, -a3), whose q is the
    # negative of its own, so the q of the norm is 0.
    edge = [(a, a, a, a), (a, c, 0, 0), (0, 0, a, 0), (a, 0, -a, 0)]
    edge += [(a0, -a1, a2, -a3) for a0, a1, a2, a3 in edge]
    total = sum(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 for a0, a1, a2, a3 in edge)
    k = total.bit_length()
    rest = (1 << k) - total
    fill = []
    while rest:
        x = min(math.isqrt(rest), (1 << dense.BORN_BITS) - 1)
        fill.append((x, 0, 0, 0) if len(fill) % 2 else (0, 0, 0, -x))
        rest -= x * x
    columns = edge + fill
    step = (1 << width) // len(columns)
    assert step
    arrays = np.zeros((4, 1 << width), dtype=np.int64)
    # Spread over the register, so that basis states between them stay empty.
    arrays[:, [step * i for i in range(len(columns))]] = np.array(columns).T
    return dense.Arrays(arrays, k)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("c", [2**29, 2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1])
def test_born_weights_at_the_30_bit_edge_equal_those_of_the_packed_state(sign, c):
    # Below 2^30 the squares and the sums of four products stay inside int64
    # and the weights come off the arrays; from 2^30 on `born` refuses them
    # (at 2^31 - 1, a sum of four squares would wrap).
    arrays = edge_arrays(c, sign)
    born = arrays.born()
    assert (born is None) == (c >= 2**30)
    if born is not None:
        actual = _born(dense.MIN_WIDTH, *born)
        expected = distribution(Superposition._of(dense.MIN_WIDTH, dense.packed_of(arrays)))
        assert list(actual.weights.items()) == list(expected.weights.items())


# A custom gate that is not unitary but has entries w^j / sqrt2^e, so the
# dense engine runs it: the shear [[1, w], [0, 1]].
SHEAR = Gate("N", 1, ((AMP_ONE, unit(1)), (AMP_ZERO, AMP_ONE)))


def test_an_unnormalized_state_on_the_arrays_fails_with_the_packed_path_message(monkeypatch):
    width = dense.MIN_WIDTH
    h = builtin("H")
    ops = [GateApplication(h, (w,)) for w in range(width)]
    ops += [GateApplication(SHEAR, (0,)), GateApplication(builtin("T"), (3,))]
    c = Circuit(width, tuple(ops))
    with pytest.raises(UnnormalizedState) as expected:
        distribution(final_state(c))
    with monkeypatch.context() as patch:
        patch.setattr(dense, "_to_packed", no_conversion)
        with pytest.raises(UnnormalizedState) as actual:
            final_distribution(c)
    assert str(actual.value) == str(expected.value)
    assert "sqrt2" in str(actual.value)  # its q is not 0


def no_conversion(c, k):
    raise AssertionError("the arrays were turned into a packed dict")


def test_dist_of_wide_brickwork_reads_its_weights_off_the_arrays(monkeypatch, tmp_path):
    # Brickwork n = 9..12 ends on arrays with small coefficients: `qmc dist`
    # prints its pinned stdout with no packed dict made.
    monkeypatch.setattr(dense, "_to_packed", no_conversion)
    expected = DIST_DIGESTS.read_text(encoding="ascii").splitlines()[-4:]
    actual = []
    for n in range(9, 13):
        path = tmp_path / f"brickwork_{n}.qc"
        path.write_text(render_circuit(brickwork(n)), encoding="ascii")
        digest = hashlib.sha256(_stdout_of(["dist", str(path)]).encode()).hexdigest()
        actual.append(f"brickwork/{n} {digest}")
    assert actual == expected
