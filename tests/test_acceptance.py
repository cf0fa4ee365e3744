"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.  Exact assertions use zero tolerance (canonical-form equality);
the differential sweep uses 1e-9 per amplitude; sampling uses the
[0.49, 0.51] frequency window over seeds 1..100000.
"""

import dataclasses
import random
import time

import pytest

from qmc.amplitude import AMP_ONE, ExactReal, REAL_ONE
from qmc.calculus import (
    BornAnnotated,
    Coherent,
    Measure,
    ProofNode,
    Unitary,
    check,
    distribution,
    sample_outcome,
)
from qmc.gates import GateApplication, builtin
from qmc.oracle import compare, run_circuit
from qmc.parser import elaborate, parse_circuit, parse_proof, render_script
from qmc.state import BasisState, Superposition, norm_sq, support
from qmc.translate import Circuit, circuit_to_proof, final_state, proof_to_circuit, random_circuit

from conftest import GOLDEN, GOLDEN_PROOFS, load_golden, replace_at

HALF = ExactReal(1, 0, 1)


def _pass(name: str) -> None:
    print(f"[PASS] {name}")


def test_bell_distribution_is_exactly_half_half(run_cli):
    started = time.perf_counter()
    dist = distribution(final_state(Circuit(2, parse_bell_ops())))
    assert dist[BasisState("00")] == HALF  # zero tolerance
    assert dist[BasisState("11")] == HALF
    assert len(dist) == 2
    code, out, _ = run_cli("dist", str(GOLDEN / "bell.qc"))
    assert code == 0
    assert out.splitlines() == ["|00> 1/2 0.5", "|11> 1/2 0.5"]
    assert time.perf_counter() - started < 1.0
    _pass("Bell distribution: P(|00>) = P(|11>) = 1/2 exactly")


def parse_bell_ops():
    return parse_circuit((GOLDEN / "bell.qc").read_text()).ops


def test_interference_cancellation_is_exact():
    started = time.perf_counter()
    h = GateApplication(builtin("H"), (0,))
    (proof,) = circuit_to_proof(Circuit(1, (h, h)))
    conclusion = proof.conclusion
    assert isinstance(conclusion, Coherent)
    assert support(conclusion.state) == [BasisState("0")]  # support size 1
    assert conclusion.state.amplitude(BasisState("0")) == AMP_ONE  # amplitude 1
    assert distribution(conclusion.state)[BasisState("0")] == REAL_ONE  # prob 1
    assert time.perf_counter() - started < 1.0
    _pass("Interference: HH|0> collapses to |0> with amplitude exactly 1")


def test_golden_proofs_check_and_tampering_is_localized(run_cli):
    for name in GOLDEN_PROOFS:
        code, out, _ = run_cli("check", str(GOLDEN / name))
        assert code == 0, name
        assert out.rstrip().endswith("valid")

    def assert_flagged_at(tampered: ProofNode, path: tuple[int, ...]) -> None:
        report = check(tampered)
        assert not report.valid
        failures = report.failures()
        # The checker pinpoints the forgery: the first failing node in
        # premise-first order is the tampered one, and nothing below it fails.
        assert failures[0].path == path
        for failure in failures[1:]:
            assert failure.path == path[: len(failure.path)]  # ancestors only

    def flip_one_sign(node: ProofNode) -> ProofNode:
        state = node.conclusion.state
        terms = dict(node.conclusion.state.terms())
        last = sorted(terms)[-1]
        terms[last] = -terms[last]
        forged = Coherent(Superposition(state.width, terms))
        return dataclasses.replace(node, conclusion=forged)

    bell_pre = load_golden("bell_pre.qmc")
    # Sign flip on the root conclusion (the CNOT step).
    assert_flagged_at(replace_at(bell_pre, (), flip_one_sign), ())
    report = check(replace_at(bell_pre, (), flip_one_sign))
    assert [f.path for f in report.failures()] == [()]
    # Sign flip on a mid-proof conclusion (the H step).
    assert_flagged_at(replace_at(bell_pre, (0, 0), flip_one_sign), (0, 0))
    # Wrong wires on the root gate: control and target swapped.
    swapped = replace_at(
        bell_pre,
        (),
        lambda n: dataclasses.replace(
            n, rule=Unitary(GateApplication(builtin("CNOT"), (1, 0)))
        ),
    )
    assert_flagged_at(swapped, ())
    assert [f.path for f in check(swapped).failures()] == [()]
    # Wrong measurement outcome on the concluding node.
    bell_00 = load_golden("bell_00.qmc")
    wrong_outcome = replace_at(
        bell_00, (), lambda n: dataclasses.replace(n, rule=Measure(BasisState("11")))
    )
    assert_flagged_at(wrong_outcome, ())
    assert [f.path for f in check(wrong_outcome).failures()] == [()]
    _pass("Golden proofs: all valid; each tamper flagged at the tampered node")


def test_non_monotonicity_rejection_and_support_shrinkage(run_cli, tmp_path):
    rng = random.Random(101)
    rejected = 0
    for i in range(50):
        lines = ["proof w {", "  a = ax;"]
        prev = "a"
        for j in range(rng.randint(0, 4)):
            gate = rng.choice(("H", "X", "Z", "S", "T"))
            lines.append(f"  g{j} = gate {gate} [0] {prev};")
            prev = f"g{j}"
        ket_bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        lines.append(f"  w = weaken {prev} |{ket_bits}>;")
        lines.append("}")
        path = tmp_path / f"weak_{i}.qmc"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("check", str(path))
        if code == 1 and "NonMonotonicityViolation" in out:
            rejected += 1
    assert rejected == 50  # 100% rejection

    h = GateApplication(builtin("H"), (0,))
    once = final_state(Circuit(1, (h,)))
    twice = final_state(Circuit(1, (h, h)))
    assert len(support(twice)) == 1 < 2 == len(support(once))
    _pass("Non-monotonicity: 50/50 weaken scripts rejected; support shrinks 2 -> 1")


def test_grover_finds_the_marked_state_with_probability_exactly_one(run_cli):
    # One iteration on 2 qubits: the marked |11> is certain only because the
    # other three amplitudes cancel exactly in the last Hadamard layer.
    grover = parse_circuit((GOLDEN / "grover2.qc").read_text())
    assert (grover.width, len(grover.ops), grover.measured) == (2, 16, True)
    assert [op.gate.name for op in grover.ops[-2:]] == ["H", "H"]
    before = final_state(dataclasses.replace(grover, ops=grover.ops[:-2]))
    after = final_state(grover)
    assert len(support(before)) == 4
    assert support(after) == [BasisState("11")]
    assert distribution(after)[BasisState("11")] == ExactReal(1, 0, 0)
    assert compare(after, run_circuit(grover), 1e-9)[0]  # the float oracle agrees
    code, out, _ = run_cli("dist", str(GOLDEN / "grover2.qc"))
    assert (code, out) == (0, "|11> 1 1.0\n")
    _pass("Grover: P(|11>) = 1 exactly; support falls 4 -> 1 across the last H layer")


@pytest.mark.parametrize(
    "name, answer, dist",
    [
        # Bernstein-Vazirani reads the secret 101 off the input register.
        ("bv3.qc", "101", "|1010> 1/2 0.5\n|1011> 1/2 0.5\n"),
        # Deutsch-Jozsa: a constant function gives 000 for certain, a
        # balanced one never; x0 xor x1 xor x2 gives 111.
        ("dj3_const.qc", "000", "|0000> 1/2 0.5\n|0001> 1/2 0.5\n"),
        ("dj3_bal.qc", "111", "|1110> 1/2 0.5\n|1111> 1/2 0.5\n"),
    ],
)
def test_oracle_algorithms_read_their_answer_with_probability_exactly_one(
    run_cli, name, answer, dist
):
    # The |-> ancilla (wire 3) stays uniform; the input register is certain
    # only because the other 14 amplitudes cancel in the last Hadamard layer.
    circuit = parse_circuit((GOLDEN / name).read_text())
    assert (circuit.width, circuit.measured) == (4, True)
    last = [(op.gate.name, op.wires) for op in circuit.ops[-3:]]
    assert last == [("H", (0,)), ("H", (1,)), ("H", (2,))]
    before = final_state(dataclasses.replace(circuit, ops=circuit.ops[:-3]))
    after = final_state(circuit)
    assert len(support(before)) == 16
    assert len(support(after)) == 2
    marginal: dict[str, ExactReal] = {}
    for outcome, weight in distribution(after).items():
        inputs = outcome.bits[:3]
        marginal[inputs] = marginal[inputs] + weight if inputs in marginal else weight
    assert marginal == {answer: ExactReal(1)}  # every other input reads 0
    assert compare(after, run_circuit(circuit), 1e-9)[0]  # the float oracle agrees
    code, out, _ = run_cli("dist", str(GOLDEN / name))
    assert (code, out) == (0, dist)
    _pass(f"{name}: P(input register = {answer}) = 1 exactly; support 16 -> 2")


def test_differential_oracle_equivalence_200_circuits():
    started = time.perf_counter()
    rng = random.Random(2025)
    worst = 0.0
    for _ in range(200):
        circuit = random_circuit(rng, max_width=6, max_gates=30)
        ok, deviation = compare(final_state(circuit), run_circuit(circuit), 1e-9)
        worst = max(worst, deviation)
        assert ok, f"deviation {deviation} on {circuit}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(
        f"Differential: 200 circuits within 1e-9 (worst {worst:.2e}, {elapsed:.2f}s)"
    )


def test_conservation_across_every_rule_application():
    rng = random.Random(404)
    proofs = []
    for _ in range(60):
        proofs.extend(
            circuit_to_proof(
                random_circuit(rng, max_width=4, max_gates=12, measured=True),
                "enumerate",
            )
        )
    for _ in range(40):
        proofs.extend(
            circuit_to_proof(random_circuit(rng, max_width=5, max_gates=15))
        )

    checked = 0

    def walk(node: ProofNode) -> None:
        nonlocal checked
        conclusion = node.conclusion
        assert norm_sq(conclusion.state) == REAL_ONE  # exact, zero tolerance
        if isinstance(conclusion, BornAnnotated):
            total = ExactReal(0)
            for _, p in conclusion.dist.items():
                total = total + p
            assert total == REAL_ONE
        checked += 1
        for premise in node.premises:
            walk(premise)

    for proof in proofs:
        assert check(proof).valid
        walk(proof)
    assert checked > 1000
    _pass(f"Conservation: norm and distribution totals exactly 1 at {checked} nodes")


def test_sampling_statistics_and_byte_identical_reruns(run_cli):
    started = time.perf_counter()
    dist = distribution(final_state(Circuit(2, parse_bell_ops())))
    counts = {"00": 0, "11": 0}
    for seed in range(1, 100001):
        counts[sample_outcome(dist, seed)[0].bits] += 1
    for bits, hits in counts.items():
        frequency = hits / 100000
        assert 0.49 <= frequency <= 0.51, (bits, frequency)
    first = run_cli("run", str(GOLDEN / "bell.qc"), "--seed", "12345")
    second = run_cli("run", str(GOLDEN / "bell.qc"), "--seed", "12345")
    assert first == second  # byte identical
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(
        "Sampling: frequencies "
        f"{counts['00'] / 100000:.4f}/{counts['11'] / 100000:.4f} in [0.49, 0.51]; "
        "reruns byte-identical"
    )


def test_round_trips():
    for name in GOLDEN_PROOFS:
        proof = load_golden(name)
        reparsed = elaborate(parse_proof(render_script(proof, "roundtrip")))
        assert reparsed.conclusion == proof.conclusion
        assert check(reparsed).signature() == check(proof).signature()
    rng = random.Random(707)
    for _ in range(100):
        circuit = random_circuit(rng, max_width=5, max_gates=12, measured=True)
        proof = circuit_to_proof(circuit, "enumerate")[0]
        assert proof_to_circuit(proof) == circuit
    _pass("Round trips: parse/render on goldens; circuit/proof/circuit on 100 random")
