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
)
from qmc.gates import BUILTIN_NAMES, GateApplication, builtin
from qmc.oracle import compare, run_circuit
from qmc.cli import main
from qmc.parser import elaborate, parse_proof, render_circuit, render_script
from qmc.state import BasisState, ket
from qmc.translate import (
    Circuit,
    UnsupportedTranslation,
    circuit_to_proof,
    final_state,
    proof_to_circuit,
    random_circuit,
)

from conftest import bell_circuit, brickwork, load_golden


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
