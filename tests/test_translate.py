"""Circuit-to-proof compilation and proof-to-circuit extraction."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmc.amplitude import ExactReal, REAL_ONE
from qmc.calculus import (
    Ax,
    BornAnnotated,
    BornRule,
    Coherent,
    Measure,
    Measured,
    Prep,
    ProofNode,
    Tensor,
    Unitary,
    Weaken,
    apply_rule,
    check,
    walk,
)
from qmc.gates import BUILTIN_NAMES, GateApplication, apply, builtin
from qmc.oracle import compare, run_circuit
from qmc.cli import main
from qmc.parser import elaborate, parse_proof, render_circuit, render_script
from qmc.state import BasisState, ket, norm_sq
from qmc.translate import (
    Circuit,
    UnsupportedTranslation,
    circuit_to_proof,
    final_state,
    proof_to_circuit,
    random_circuit,
    steps_to_circuit,
)

from conftest import bell_circuit, brickwork, load_golden
from test_engine_pins import custom_gates


def hh_circuit() -> Circuit:
    h = GateApplication(builtin("H"), (0,))
    return Circuit(1, (h, h))


# ---------------------------------------------------------------------------
# circuit_to_proof
# ---------------------------------------------------------------------------

def test_bell_enumerates_both_branches():
    proofs = circuit_to_proof(bell_circuit(), "enumerate")
    assert len(proofs) == 2
    outcomes = []
    for proof in proofs:
        assert check(proof).valid
        conclusion = proof.conclusion
        assert isinstance(conclusion, Measured)
        assert conclusion.prob == ExactReal(1, 0, 1)
        outcomes.append(conclusion.outcome.bits)
    assert outcomes == ["00", "11"]


def test_unmeasured_hh_compiles_to_a_single_coherent_proof():
    (proof,) = circuit_to_proof(hh_circuit())
    assert check(proof).valid
    assert proof.conclusion == Coherent(ket("0"))


def test_sample_mode_emits_one_proof():
    for seed in (0, 1, 2, 3):
        (proof,) = circuit_to_proof(bell_circuit(), "sample", seed)
        assert check(proof).valid
        assert isinstance(proof.conclusion, Measured)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        circuit_to_proof(bell_circuit(), "guess")


def test_every_random_proof_checks():
    rng = random.Random(47)
    for _ in range(30):
        circuit = random_circuit(rng, max_width=4, max_gates=10, measured=True)
        for proof in circuit_to_proof(circuit, "enumerate"):
            assert check(proof).valid


def test_semantic_preservation_against_the_oracle():
    rng = random.Random(53)
    for _ in range(30):
        circuit = random_circuit(rng, max_width=5, max_gates=15)
        (proof,) = circuit_to_proof(circuit)
        conclusion = proof.conclusion
        assert isinstance(conclusion, Coherent)
        ok, deviation = compare(conclusion.state, run_circuit(circuit), 1e-9)
        assert ok, deviation


def test_enumerated_probabilities_sum_to_one_and_match_the_root():
    rng = random.Random(59)
    for _ in range(20):
        circuit = random_circuit(rng, max_width=4, max_gates=10, measured=True)
        proofs = circuit_to_proof(circuit, "enumerate")
        born = proofs[0].premises[0]
        assert isinstance(born.conclusion, BornAnnotated)
        listed = list(born.conclusion.dist.items())
        total = ExactReal(0)
        by_proof = []
        for proof in proofs:
            conclusion = proof.conclusion
            assert isinstance(conclusion, Measured)
            total = total + conclusion.prob
            by_proof.append((conclusion.outcome, conclusion.prob))
        assert total == REAL_ONE
        assert by_proof == listed


# ---------------------------------------------------------------------------
# proof_to_circuit
# ---------------------------------------------------------------------------

def test_bell_proof_extracts_the_bell_circuit():
    # The golden proof applies H before tensoring, as the entangling
    # derivation does; extraction commutes it onto the assembled register.
    proof = load_golden("bell_00.qmc")
    assert proof_to_circuit(proof) == bell_circuit()


def test_pending_measurement_extracts_as_measured():
    script = (
        "proof p { a = ax; b = ax; t = tensor a b; h = gate H [0] t; d = born h; }"
    )
    circuit = proof_to_circuit(elaborate(parse_proof(script)))
    assert circuit.measured
    assert circuit.width == 2


def test_single_axiom_extracts_to_an_empty_circuit():
    proof = ProofNode(Ax(), (), apply_rule(Ax(), []))
    assert proof_to_circuit(proof) == Circuit(1, ())


@st.composite
def tensor_trees(draw, max_leaves: int = 5) -> ProofNode:
    """A tensor tree of `ax` leaves, with gates on any subtree: gates on a
    right-hand factor act on wires that the assembled register offsets."""

    def build(leaves: int) -> ProofNode:
        if leaves == 1:
            node = ProofNode.derive(Ax())
        else:
            left = draw(st.integers(1, leaves - 1))
            node = ProofNode.derive(Tensor(), (build(left), build(leaves - left)))
        names = [n for n in BUILTIN_NAMES if builtin(n).arity <= leaves]
        for _ in range(draw(st.integers(0, 3))):
            gate = builtin(draw(st.sampled_from(names)))
            wires = tuple(draw(st.permutations(range(leaves)))[: gate.arity])
            node = ProofNode.derive(Unitary(GateApplication(gate, wires)), (node,))
        return node

    return build(draw(st.integers(1, max_leaves)))


@settings(max_examples=150, deadline=None)
@given(tensor_trees(), st.booleans())
def test_an_extracted_circuit_prepares_the_root_state(root, measured):
    state = root.conclusion.state
    if measured:
        root = ProofNode.derive(BornRule(), (root,))
    circuit = proof_to_circuit(root)
    assert (circuit.width, circuit.measured) == (state.width, measured)
    assert final_state(circuit) == state


def _chain(
    rng: random.Random, wires: tuple[int, ...], n_gates: int
) -> list[GateApplication]:
    """n_gates random H, T, S and CNOT gates on the given wires."""
    names = ("H", "T", "S", "CNOT") if len(wires) > 1 else ("H", "T", "S")
    ops = []
    for _ in range(n_gates):
        gate = builtin(rng.choice(names))
        ops.append(GateApplication(gate, tuple(rng.sample(wires, gate.arity))))
    return ops


@st.composite
def kernel_circuits(draw) -> Circuit:
    """Circuits whose `final_state` meets every path of the kernel.

    Narrow ones, 1 to 12 wires: H on all but at most four wires, so that
    from 8 wires on the state may fill enough of the register to go dense,
    then random built-in gates and gates outside the built-in set, some with
    entries of no w^j / sqrt2^e form (the `_mul` path, which `dense.run`
    hands back).  From 11 wires on, up to 512 terms stay on the kernel
    before the switch.  Sparse ones, 24 to 48 wires: a GHZ prefix, up to
    four 2-qubit chains on disjoint wires, a few H, then permutation gates.
    Deep chains give products of up to 256 distinct amplitudes over up to
    512 terms, in whatever order the kernel's dicts hold them, so the
    per-call memos start, are not started, or are dropped part way.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        width = draw(st.integers(1, 12))
        filled = rng.sample(range(width), max(0, width - draw(st.integers(0, 4))))
        ops = [GateApplication(builtin("H"), (w,)) for w in filled]
        ops += _chain(rng, tuple(range(width)), rng.randint(0, 30))
        for gate in draw(st.lists(custom_gates(), max_size=3)):
            if gate.arity <= width:
                wires = tuple(rng.sample(range(width), gate.arity))
                ops.insert(rng.randint(0, len(ops)), GateApplication(gate, wires))
        return Circuit(width, tuple(ops))
    width = draw(st.integers(24, 48))
    ghz = rng.randint(2, width)
    ops = [GateApplication(builtin("H"), (0,))]
    ops += [GateApplication(builtin("CNOT"), (w - 1, w)) for w in range(1, ghz)]
    # Each chain multiplies the support by up to 4 and each H by 2: at most
    # 2 * 2^8 terms.
    chains = draw(st.integers(0, 4))
    wires = rng.sample(range(width), 2 * chains + 8)
    for i in range(chains):
        ops += _chain(rng, tuple(wires[2 * i : 2 * i + 2]), rng.randint(0, 80))
    for w in wires[2 * chains :][: rng.randint(0, 8 - 2 * chains)]:
        ops.append(GateApplication(builtin("H"), (w,)))
    for _ in range(rng.randint(0, 30)):
        gate = builtin(rng.choice(("X", "Z", "S", "T", "CNOT")))
        ops.append(GateApplication(gate, tuple(rng.sample(range(width), gate.arity))))
    return Circuit(width, tuple(ops))


@settings(max_examples=200, deadline=None)
@given(kernel_circuits())
def test_final_state_equals_the_fold_of_apply(c):
    # `final_state` runs its gates on packed dicts in no set order and sorts
    # once; `gates.apply` sorts after every gate.  The ring is exact, so the
    # two agree term for term and in order.
    state = ket("0" * c.width)
    for op in c.ops:
        state = apply(op, state)
    assert list(final_state(c).packed.items()) == list(state.packed.items())


def _norms_are_exactly_one(root: ProofNode) -> None:
    for node, _, entering in walk(root):
        if entering:
            assert norm_sq(node.conclusion.state) == REAL_ONE, node.rule.label()


# Gate and tensor conclusions skip the norm check (`Coherent._of`): these
# properties hold the guard against an engine that breaks the norm.
@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(("enumerate", "sample"))
)
def test_every_conclusion_of_a_translated_circuit_has_norm_exactly_one(seed, measured, mode):
    c = random_circuit(random.Random(seed), measured=measured)
    for proof in circuit_to_proof(c, mode, seed):
        _norms_are_exactly_one(proof)


@settings(max_examples=150, deadline=None)
@given(tensor_trees())
def test_every_conclusion_of_a_tensor_tree_has_norm_exactly_one(root):
    _norms_are_exactly_one(root)


def _refusals():
    """One proof for each way a proof has no circuit form, with the start
    of its message."""
    ax = ProofNode.derive(Ax())
    born = ProofNode.derive(BornRule(), (ax,))
    measured = ProofNode.derive(Measure(BasisState("0")), (born,))
    h = GateApplication(builtin("H"), (0,))
    # Hand-built nodes: their rules would refuse these premises.
    rows = [
        (
            ProofNode(Measure(BasisState("0")), (ax,), measured.conclusion),
            "a measurement must conclude from a Born annotation",
        ),
        (
            ProofNode.derive(Prep(BasisState("0")), (measured,)),
            "proofs that prepare from an earlier measurement describe sequential",
        ),
        (
            ProofNode(Weaken(BasisState("0")), (ax,), ax.conclusion),
            "rule weaken has no circuit form",
        ),
        (
            ProofNode(Unitary(h), (measured,), ax.conclusion),
            "rule measure |0> has no circuit form",
        ),
    ]
    ids = ["measure-without-born", "prep-after-measure", "weaken", "measure-below-the-root"]
    return [pytest.param(*row, id=i) for row, i in zip(rows, ids)]


@pytest.mark.parametrize("proof, message", _refusals())
def test_proofs_without_a_circuit_form_are_refused(proof, message):
    with pytest.raises(UnsupportedTranslation) as err:
        proof_to_circuit(proof)
    assert str(err.value).startswith(message)


def test_prep_proofs_are_refused():
    leaf = ProofNode(Prep(BasisState("1")), (), Coherent(ket("1")))
    with pytest.raises(UnsupportedTranslation, match="sequential"):
        proof_to_circuit(leaf)


def _unchecked_tree(script) -> ProofNode:
    """The script's proof tree from its rules and premises alone, nothing
    derived, so that a script no rule would accept still has a tree."""
    nodes: dict[str, ProofNode] = {}
    for b in script.bindings:
        premises = tuple(map(nodes.pop, b.premises))
        nodes[b.name] = ProofNode._of(b.rule, premises, None, b.name)
    return nodes.popitem()[1]


# Two rules without a circuit form each, bound in an order that puts the one
# later in preorder first.
_TWO_REFUSALS = [
    pytest.param(
        "p = prep |1>; b = ax; w = weaken b |0>; t = tensor w p;",
        "rule weaken has no circuit form",
        id="weaken-left-of-an-earlier-prep",
    ),
    pytest.param(
        "b = ax; w = weaken b |0>; p = prep |1>; t = tensor p w;",
        "proofs that prepare from an earlier measurement",
        id="prep-left-of-an-earlier-weaken",
    ),
    pytest.param(
        "p = prep |1>; a = ax; d = born a; m = measure d outcome=|0>; t = tensor m p;",
        "rule measure |0> has no circuit form",
        id="measure-left-of-an-earlier-prep",
    ),
    pytest.param(
        "a = ax; d = born a; m = measure d outcome=|0>; p = prep |1>; "
        "g = gate H [0] p; t = tensor g m; r = born t;",
        "proofs that prepare from an earlier measurement",
        id="prep-left-of-an-earlier-born-under-a-born-root",
    ),
]


@pytest.mark.parametrize("body, message", _TWO_REFUSALS)
def test_the_bindings_reader_refuses_as_the_tree_reader_does(body, message):
    script = parse_proof(f"proof p {{ {body} }}")
    with pytest.raises(UnsupportedTranslation) as by_tree:
        proof_to_circuit(_unchecked_tree(script))
    with pytest.raises(UnsupportedTranslation) as by_steps:
        steps_to_circuit(script.bindings)
    assert str(by_steps.value) == str(by_tree.value)
    assert str(by_steps.value).startswith(message)


def test_a_root_measurement_without_a_born_premise_is_refused_before_any_rule():
    script = parse_proof("proof p { q = prep |0>; w = weaken q |1>; m = measure w outcome=|0>; }")
    with pytest.raises(UnsupportedTranslation, match="must conclude from a Born"):
        steps_to_circuit(script.bindings)


def test_a_node_object_used_as_both_premises_is_read_as_two_factors():
    h = ProofNode.derive(Unitary(GateApplication(builtin("H"), (0,))), (ProofNode.derive(Ax()),))
    root = ProofNode.derive(Tensor(), (h, h))
    ops = tuple(GateApplication(builtin("H"), (w,)) for w in (0, 1))
    assert proof_to_circuit(root) == Circuit(2, ops)


def test_gate_steps_bound_across_both_factors_come_out_in_postorder():
    script = parse_proof(
        """proof p {
          a = ax; b = ax;
          ga = gate H [0] a;
          gb = gate T [0] b;
          ga2 = gate S [0] ga;
          c = ax;
          gb2 = gate X [0] gb;
          bc = tensor gb2 c;
          gc = gate CNOT [0,1] bc;
          t = tensor ga2 gc;
          g = gate CNOT [2,0] t;
        }"""
    )
    ops = [("H", (0,)), ("S", (0,)), ("T", (1,)), ("X", (1,)), ("CNOT", (1, 2)), ("CNOT", (2, 0))]
    expected = Circuit(3, tuple(GateApplication(builtin(n), w) for n, w in ops))
    assert steps_to_circuit(script.bindings) == expected
    assert proof_to_circuit(elaborate(script)) == expected


@st.composite
def interleaved_scripts(draw) -> str:
    """A valid script of 2 to 6 `ax` leaves under nested tensors, with up to
    three gates on each subtree, its bindings in a random order that binds
    each premise before its consumer, so that the gate steps of the two
    factors of a tensor interleave."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    exprs: list[str] = []
    premises: list[tuple[int, ...]] = []

    def bind(expr: str, *of: int) -> int:
        exprs.append(expr)
        premises.append(of)
        return len(exprs) - 1

    def build(leaves: int) -> int:
        if leaves == 1:
            node = bind("ax")
        else:
            left = rng.randint(1, leaves - 1)
            node = bind("tensor {} {}", build(left), build(leaves - left))
        for _ in range(rng.randint(0, 3)):
            gate = rng.choice(("H", "T", "S", "X", "CNOT")[: 5 if leaves > 1 else 4])
            wires = ",".join(map(str, rng.sample(range(leaves), 2 if gate == "CNOT" else 1)))
            node = bind(f"gate {gate} [{wires}] {{}}", node)
        return node

    root = build(draw(st.integers(2, 6)))
    if draw(st.booleans()):
        root = bind("born {}", root)
    waiting = [len(of) for of in premises]
    consumer = {q: i for i, of in enumerate(premises) for q in of}
    ready = [i for i, n in enumerate(waiting) if not n]
    lines = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        lines.append(f"b{i} = {exprs[i].format(*(f'b{q}' for q in premises[i]))};")
        if i in consumer:
            waiting[consumer[i]] -= 1
            if not waiting[consumer[i]]:
                ready.append(consumer[i])
    return "proof p { " + " ".join(lines) + " }"


@settings(max_examples=150, deadline=None)
@given(interleaved_scripts())
def test_bindings_in_any_order_read_as_the_elaborated_tree(text):
    script = parse_proof(text)
    assert steps_to_circuit(script.bindings) == proof_to_circuit(elaborate(script))


def test_round_trip_on_random_measured_circuits():
    rng = random.Random(61)
    for _ in range(40):
        circuit = random_circuit(rng, max_width=5, max_gates=12, measured=True)
        proof = circuit_to_proof(circuit, "enumerate")[0]
        assert proof_to_circuit(proof) == circuit


def test_circuit_wire_validation():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, (GateApplication(builtin("CNOT"), (0, 1)),))
    with pytest.raises(ValueError, match="at least one"):
        Circuit(0, ())


def test_a_repeated_out_of_range_application_raises_the_same_error():
    # The check runs once per distinct application; one shared by many gates,
    # as a parse shares it, fails as a lone one does, wherever it stands.
    h0 = GateApplication(builtin("H"), (0,))
    bad = GateApplication(builtin("CNOT"), (1, 3))
    message = "wire 3 out of range for 3-qubit circuit"
    for ops in ((bad,) * 50, (h0, bad, h0) * 20, (h0,) * 30 + (bad,)):
        with pytest.raises(ValueError) as err:
            Circuit(3, ops)
        assert str(err.value) == message


def test_a_wire_past_the_int_to_str_limit_is_quoted_in_the_circuit_check():
    wire = 3 * 10**5000 + 7  # 5001 digits: past the 4300 that `str` converts
    message = "wire 300000000000... out of range for 2-qubit circuit"
    with pytest.raises(ValueError) as err:
        Circuit(2, (GateApplication(builtin("H"), (wire,)),))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Circuit.check_wire(wire, 2)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# random_circuit
# ---------------------------------------------------------------------------

def choice_sample_circuit(
    rng: random.Random, max_width: int, max_gates: int, measured: bool
) -> Circuit:
    """The reference: `random_circuit` as it drew with `rng.choice` of the
    gate and `rng.sample` of its wires."""
    width = rng.randint(1, max_width)
    names = ("X", "Z", "S", "T", "H", "CNOT") if width >= 2 else ("X", "Z", "S", "T", "H")
    ops = []
    for _ in range(rng.randint(0, max_gates)):
        gate = builtin(rng.choice(names))
        ops.append(GateApplication(gate, tuple(rng.sample(range(width), gate.arity))))
    return Circuit(width, tuple(ops), measured)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64),
    st.integers(1, 21),
    st.integers(0, 60),
    st.booleans(),
    st.booleans(),
)
def test_random_circuit_draws_as_choice_and_sample_did(
    seed, max_width, max_gates, measured, shared
):
    reference, drawn = random.Random(seed), random.Random(seed)
    apps: dict | None = {} if shared else None
    for _ in range(4):
        expected = choice_sample_circuit(reference, max_width, max_gates, measured)
        assert random_circuit(drawn, max_width, max_gates, measured, apps) == expected
        assert drawn.getstate() == reference.getstate()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64), st.integers(22, 64), st.integers(0, 60))
def test_random_circuit_wires_are_distinct_and_in_range_above_21_wires(
    seed, max_width, max_gates
):
    # `rng.sample` draws otherwise above 21 wires, so only the shape is pinned.
    c = random_circuit(random.Random(seed), max_width, max_gates)
    assert 1 <= c.width <= max_width and len(c.ops) <= max_gates
    for op in c.ops:
        assert op.gate.name in ("X", "Z", "S", "T", "H", "CNOT")
        assert len(set(op.wires)) == len(op.wires) == op.gate.arity
        assert all(0 <= w < c.width for w in op.wires)


# ---------------------------------------------------------------------------
# translate --to proof
# ---------------------------------------------------------------------------

def _written(c: Circuit, flags: tuple[str, ...]) -> list[tuple[str, str]]:
    """(file name, text) of each script `qmc translate c.qc --to proof`
    writes, in the order it lists them."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "c.qc"
        path.write_text(render_circuit(c), encoding="ascii")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["translate", str(path), "--to", "proof", *flags]) == 0
        written = [Path(line) for line in out.getvalue().splitlines()]
        return [(p.name, p.read_text(encoding="utf-8")) for p in written]


def _rendered(c: Circuit, flags: tuple[str, ...]) -> list[tuple[str, str]]:
    """The same, from `render_script` over the trees of `circuit_to_proof`."""
    if c.measured and flags[:1] == ("--seed",):
        proofs = circuit_to_proof(c, "sample", int(flags[1]))
    else:
        proofs = circuit_to_proof(c)
    pairs = []
    for proof in proofs:
        name = f"c_{proof.conclusion.outcome.bits}" if c.measured else "c"
        pairs.append((f"{name}.qmc", render_script(proof, name)))
    return pairs


_TRANSLATE_FLAGS = ((), ("--enumerate",), ("--seed", "1"), ("--seed", "7"))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(_TRANSLATE_FLAGS))
def test_translated_scripts_are_the_rendered_proof_trees(seed, measured, flags):
    # Enumerating writes one script per outcome, so its registers stay small.
    width = 6 if flags[:1] == ("--seed",) else 4
    c = random_circuit(random.Random(seed), max_width=width, measured=measured)
    assert _written(c, flags) == _rendered(c, flags)


@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize(
    "measured, flags", [(True, ("--seed", "1")), (True, ("--seed", "7")), (False, ())]
)
def test_translated_wide_scripts_are_the_rendered_proof_trees(n, measured, flags):
    # Registers whose final state `final_state` computes on `dense`.
    c = brickwork(n, measured)
    assert _written(c, flags) == _rendered(c, flags)
