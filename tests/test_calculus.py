"""Rules, sequents, the checker, distributions, and deterministic sampling."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmc import calculus
from qmc.amplitude import (
    PACKED_ONE,
    PACKED_ZERO,
    REAL_ONE,
    REAL_ZERO,
    Amplitude,
    CycloInt,
    ExactReal,
    _mod_sq,
)
from qmc.calculus import (
    Ax,
    BornAnnotated,
    BornRule,
    BRNormalFormViolation,
    Coherent,
    Distribution,
    Measure,
    Measured,
    NonMonotonicityViolation,
    OutcomeNotInSupport,
    Prep,
    PrepOutcomeMismatch,
    ProofNode,
    RuleError,
    Tensor,
    Unitary,
    UnnormalizedState,
    Weaken,
    WrongPremiseShape,
    _splitmix64,
    apply_rule,
    check,
    distribution,
    sample_outcome,
    sequent_text,
    verdict,
)
from qmc.gates import GateApplication, apply, builtin
from qmc.oracle import run_circuit
from qmc.parser import elaborate_bindings, parse_proof
from qmc.state import BasisState, Superposition, combine, ket
from qmc.translate import Circuit, circuit_to_proof, final_state

from conftest import (
    GOLDEN,
    GOLDEN_PROOFS,
    PREP_LEAF_SCRIPT,
    VALID_SCRIPTS,
    bell_circuit,
    corrupted,
    random_orbit_state,
    replace_at,
    wide_state as memo_state,
)

HALF = ExactReal(1, 0, 1)


def bell_state():
    return final_state(bell_circuit(measured=False))


def bell_annotated() -> BornAnnotated:
    return BornAnnotated(bell_state())


# ---------------------------------------------------------------------------
# apply_rule
# ---------------------------------------------------------------------------

def test_ax_concludes_ket_zero():
    assert apply_rule(Ax(), []) == Coherent(ket("0"))


def test_measure_picks_a_support_outcome():
    conclusion = apply_rule(Measure(BasisState("00")), [bell_annotated()])
    assert conclusion == Measured(bell_state(), BasisState("00"))
    assert conclusion.prob == HALF


def test_weaken_is_always_rejected():
    with pytest.raises(NonMonotonicityViolation, match="interfere"):
        apply_rule(Weaken(BasisState("0")), [Coherent(ket("0"))])
    with pytest.raises(NonMonotonicityViolation):
        apply_rule(Weaken(), [])


def test_measuring_outside_the_support_fails():
    with pytest.raises(OutcomeNotInSupport):
        apply_rule(Measure(BasisState("01")), [bell_annotated()])


def test_measuring_an_outcome_of_another_width_names_both_widths():
    for outcome in ("1", "101"):
        with pytest.raises(RuleError) as err:
            apply_rule(Measure(BasisState(outcome)), [bell_annotated()])
        assert type(err.value) is RuleError
        assert str(err.value) == (
            f"outcome |{outcome}> has width {len(outcome)} but the premise's "
            "state has width 2"
        )


def test_prep_moves_a_measured_outcome_back_to_the_antecedent():
    measured = apply_rule(Measure(BasisState("11")), [bell_annotated()])
    prepared = apply_rule(Prep(BasisState("11")), [measured])
    assert prepared == Coherent(ket("11"))


def test_a_premise_free_prep_concludes_as_an_assumption_leaf():
    for bits in ("0", "10", "011"):
        assert apply_rule(Prep(BasisState(bits)), []) == Coherent(ket(bits))
    with pytest.raises(WrongPremiseShape, match="takes 2 premises, got 0"):
        apply_rule(Tensor(), [])


def test_prep_outcome_must_match():
    measured = apply_rule(Measure(BasisState("11")), [bell_annotated()])
    with pytest.raises(PrepOutcomeMismatch):
        apply_rule(Prep(BasisState("00")), [measured])


def test_prep_needs_a_measured_premise():
    with pytest.raises(WrongPremiseShape, match="prep needs a measured premise"):
        apply_rule(Prep(BasisState("00")), [Coherent(bell_state())])


def test_remeasuring_a_prepared_state_is_certain():
    # Measure, prepare, annotate, measure again: same outcome, probability 1.
    measured = apply_rule(Measure(BasisState("11")), [bell_annotated()])
    prepared = apply_rule(Prep(BasisState("11")), [measured])
    annotated = apply_rule(BornRule(), [prepared])
    again = apply_rule(Measure(BasisState("11")), [annotated])
    assert isinstance(again, Measured)
    assert again.prob == REAL_ONE


def test_tensor_needs_two_coherent_premises():
    with pytest.raises(WrongPremiseShape):
        apply_rule(Tensor(), [Coherent(ket("0"))])
    measured = apply_rule(Measure(BasisState("00")), [bell_annotated()])
    with pytest.raises(WrongPremiseShape):
        apply_rule(Tensor(), [Coherent(ket("0")), measured])


def test_born_annotation_feeds_only_measurement():
    with pytest.raises(BRNormalFormViolation):
        apply_rule(Unitary(GateApplication(builtin("X"), (0,))), [bell_annotated()])
    with pytest.raises(BRNormalFormViolation):
        apply_rule(BornRule(), [bell_annotated()])


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------

def test_distribution_of_bell():
    dist = distribution(bell_state())
    assert dist[BasisState("00")] == HALF
    assert dist[BasisState("11")] == HALF
    assert len(dist) == 2


def test_distribution_of_point_state():
    assert distribution(ket("0"))[BasisState("0")] == REAL_ONE


def test_distribution_rejects_unnormalized_states():
    half = Amplitude(CycloInt(1), 2)
    skew = Superposition(1, {BasisState("0"): half})
    with pytest.raises(UnnormalizedState):
        distribution(skew)


def test_distribution_matches_float_born_weights():
    rng = random.Random(41)
    for _ in range(25):
        state = random_orbit_state(rng, rng.randint(1, 3))
        dist = distribution(state)
        for basis, p in dist.items():
            f = abs(state.amplitude(basis).to_complex()) ** 2
            assert abs(p.to_float() - f) < 1e-12


def test_distribution_sums_to_exactly_one():
    rng = random.Random(43)
    for _ in range(25):
        state = random_orbit_state(rng, rng.randint(1, 4))
        total = ExactReal(0)
        for _, p in distribution(state).items():
            total = total + p
        assert total == REAL_ONE


def test_distribution_type_rejects_bad_totals():
    # No mapping builds one; `distribution` checks the norm (the sum of the
    # weights) and the sign of each weight.
    with pytest.raises(TypeError):
        Distribution({BasisState("0"): HALF})
    # A zero term breaks `Superposition`'s invariant but not the norm.
    zero_term = Superposition._of(1, {0: PACKED_ONE, 1: PACKED_ZERO})
    with pytest.raises(ValueError, match="probability of [|]1> must be positive, got 0"):
        distribution(zero_term)


@pytest.mark.parametrize("args", [(), (1, {})])
def test_distribution_has_no_public_constructor(args):
    # Without arguments the class would otherwise build a value with no
    # width and no weights, which every use fails on.
    with pytest.raises(TypeError, match=r"use distribution\(state\)"):
        Distribution(*args)
    assert distribution(bell_state()) == Distribution._of(2, {0: (1, 0, 1), 3: (1, 0, 1)})


def test_distribution_type_rejects_mixed_widths():
    with pytest.raises(TypeError):
        Distribution({BasisState("0"): HALF, BasisState("00"): HALF})
    assert distribution(bell_state()).width == 2


def test_distribution_keys_are_basis_indices_of_one_width():
    dist = distribution(bell_state())
    assert dist.width == 2
    assert dist.weights == {0: (1, 0, 1), 3: (1, 0, 1)}
    assert dist[BasisState("00")] == dist[BasisState("11")] == HALF
    assert dist.outcomes() == [BasisState("00"), BasisState("11")]
    assert list(dist.items()) == [(BasisState("00"), HALF), (BasisState("11"), HALF)]
    assert BasisState("11") in dist
    # Index 1 is |01> at width 2, but |1> and |001> are other outcomes.
    for other in (BasisState("01"), BasisState("1"), BasisState("011")):
        assert other not in dist
        with pytest.raises(KeyError):
            dist[other]
    again = distribution(bell_state())
    assert again == dist and hash(again) == hash(dist)
    assert again != distribution(ket("00")) != distribution(ket("0"))
    assert (dist == object()) is False


def wide_state(width: int = 9) -> Superposition:
    """H on every wire, then T on every wire: one weight for 2^width outcomes."""
    state = ket("0" * width)
    for name in ("H", "T"):
        for w in range(width):
            state = apply(GateApplication(builtin(name), (w,)), state)
    return state


BORN_STATES = st.one_of(
    st.builds(
        lambda seed, width, n_gates: random_orbit_state(random.Random(seed), width, n_gates),
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(0, 20),
    ),
    # Over MEMO_TERMS terms, few amplitudes or big coefficients.
    st.builds(memo_state, st.integers(0, 2**32 - 1), st.sampled_from(("repetitive", "distinct"))),
)


@settings(max_examples=60, deadline=None)
@given(BORN_STATES)
def test_born_weights_are_canonical_mod_sq_triples(state):
    dist = distribution(state)
    assert list(dist.weights) == list(state.packed)
    for t, amp in zip(dist.weights.values(), state.packed.values()):
        exact = ExactReal(*t)
        assert t == (exact.p, exact.q, exact.k) == _mod_sq(amp)


def test_each_distinct_weight_is_sign_checked_once(monkeypatch):
    calls: dict[str, list] = {"mod_sq": [], "sign": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)

        return wrapper

    def no_exact_real(*args):
        raise AssertionError("distribution built an ExactReal")

    monkeypatch.setattr(calculus, "_mod_sq", counted("mod_sq", calculus._mod_sq))
    monkeypatch.setattr(calculus, "_sign", counted("sign", calculus._sign))
    monkeypatch.setattr(calculus, "ExactReal", no_exact_real)
    state = wide_state()
    dist = distribution(state)
    assert len(dist) == 512
    # One |amplitude|^2 per distinct amplitude (w^j / sqrt2^9 for 8 j),
    # one sign for their one weight.
    assert len(calls["mod_sq"]) == len(set(state.packed.values())) == 8
    assert len(calls["sign"]) == 1


# ---------------------------------------------------------------------------
# sequent construction invariants
# ---------------------------------------------------------------------------

def test_coherent_requires_normalized_nonempty_state():
    with pytest.raises(UnnormalizedState):
        Coherent(combine([], 1))
    half = Amplitude(CycloInt(1), 2)
    with pytest.raises(UnnormalizedState):
        Coherent(Superposition(1, {BasisState("0"): half}))


def test_a_non_unitary_gate_fails_its_rule_on_the_norm_check():
    # X with its first row zeroed, as the selftest corrupts a gate, sends
    # |1> to the empty state.  Only the conclusion's norm check stands
    # between such a gate and a derived sequent.
    rule = Unitary(GateApplication(corrupted(builtin("X")), (0,)))
    with pytest.raises(UnnormalizedState) as err:
        apply_rule(rule, [Coherent(ket("1"))])
    assert str(err.value) == "state has norm squared 0, expected 1"


def test_measured_probability_must_match_the_born_weight():
    # The probability is derived, so none can be given.
    with pytest.raises(TypeError):
        Measured(bell_state(), BasisState("00"), REAL_ONE)
    assert Measured(bell_state(), BasisState("00")).prob == HALF


def test_measured_outcome_has_the_state_width_and_a_positive_probability():
    with pytest.raises(ValueError, match="width differs"):
        Measured(bell_state(), BasisState("0"))
    # An outcome outside the support would have probability 0.
    with pytest.raises(ValueError, match="outside the state's support"):
        Measured(bell_state(), BasisState("01"))


def test_born_annotated_keys_must_cover_the_support():
    state = bell_state()
    with pytest.raises(TypeError):
        BornAnnotated(state, Distribution._of(2, {0: (1, 0, 0)}))
    born = BornAnnotated(state)
    assert born.dist == distribution(state)
    assert born.dist.outcomes() == [basis for basis, _ in state.terms()]
    with pytest.raises(UnnormalizedState):
        BornAnnotated(Superposition(1, {BasisState("0"): Amplitude(CycloInt(1), 2)}))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_bell_proofs_check_valid():
    for proof in circuit_to_proof(bell_circuit(), "enumerate"):
        report = check(proof)
        assert report.valid
        assert not report.failures()


def test_forged_conclusion_is_flagged_at_that_node():
    (proof,) = circuit_to_proof(bell_circuit(measured=False))

    def flip_sign(node: ProofNode) -> ProofNode:
        state = node.conclusion.state
        flipped = {basis: -amp for basis, amp in state.terms()}
        one = sorted(flipped)[1]
        flipped[one] = -flipped[one]  # flip one term only
        forged = Coherent(Superposition(state.width, flipped))
        return dataclasses.replace(node, conclusion=forged)

    tampered = replace_at(proof, (), flip_sign)
    report = check(tampered)
    assert not report.valid
    assert [f.path for f in report.failures()] == [()]
    assert "expected" in report.failures()[0].detail


def test_hh_extended_with_born_and_measure_is_certain():
    hh = Circuit(
        1,
        (
            GateApplication(builtin("H"), (0,)),
            GateApplication(builtin("H"), (0,)),
        ),
        measured=True,
    )
    (proof,) = circuit_to_proof(hh, "enumerate")
    assert check(proof).valid
    assert isinstance(proof.conclusion, Measured)
    assert proof.conclusion.outcome == BasisState("0")
    assert proof.conclusion.prob == REAL_ONE


def test_weaken_node_is_flagged_exactly_where_it_sits():
    base = ProofNode(Ax(), (), apply_rule(Ax(), []))
    weak = ProofNode(Weaken(BasisState("0")), (base,), base.conclusion)
    report = check(weak)
    assert not report.valid
    failures = report.failures()
    assert [f.path for f in failures] == [()]
    assert "NonMonotonicityViolation" in failures[0].detail


def test_assumption_leaves_are_recorded():
    leaf = ProofNode(Prep(BasisState("10")), (), Coherent(ket("10")))
    report = check(leaf)
    assert report.valid
    assert report.assumptions == (((), BasisState("10")),)
    assert report.nodes[0].status == "assumed"


def test_a_hand_built_node_with_a_wrong_conclusion_is_invalid():
    leaf = ProofNode.derive(Ax())
    x = Unitary(GateApplication(builtin("X"), (0,)))
    forged = ProofNode(x, (leaf,), leaf.conclusion)  # X would conclude |1>
    result = check(forged)
    assert not result.valid
    assert [f.path for f in result.failures()] == [()]
    assert result.failures()[0].detail == "expected |1> =>, found |0> =>"


# ---------------------------------------------------------------------------
# report: the elaboration's rows, which `qmc check` prints, equal check's
# ---------------------------------------------------------------------------

def _assert_report_is_check(text: str):
    """check's report on the script's root, once shown to have the
    elaboration's rows: one per binding, in script order."""
    completed = elaborate_bindings(parse_proof(text))
    texts: dict = {}
    rows = [
        (name, verdict(node), sequent_text(node.conclusion, texts))
        for name, node in completed
    ]
    full = check(completed[-1][1])
    assert full.valid
    assert rows == [(n.label, n.status, n.conclusion) for n in full.nodes]
    return full


@pytest.mark.parametrize("name", GOLDEN_PROOFS)
def test_report_equals_check_on_golden_scripts(name):
    _assert_report_is_check((GOLDEN / name).read_text())


def test_report_equals_check_with_an_assumption_leaf():
    full = _assert_report_is_check(PREP_LEAF_SCRIPT)
    assert full.assumptions == (((0, 0, 0, 0), BasisState("10")),)
    # As check reported them when it re-derived each node by building another.
    assert [(n.path, n.rule, n.status, n.detail, n.conclusion, n.label) for n in full.nodes] == [
        ((0, 0, 0, 0), "prep |10>", "assumed", "", "|10> =>", "p"),
        ((0, 0, 0, 1), "ax", "ok", "", "|0> =>", "a"),
        ((0, 0, 0), "tensor", "ok", "", "|100> =>", "t"),
        ((0, 0), "CNOT [0,2]", "ok", "", "|101> =>", "g"),
        ((0,), "born", "ok", "", "|101> => (1)|101>", "d"),
        ((), "measure |101>", "ok", "", "|101> |-[1] |101>", "m"),
    ]


@settings(max_examples=60, deadline=None)
@given(VALID_SCRIPTS)
def test_report_equals_check_on_translated_scripts(text):
    _assert_report_is_check(text)


@settings(max_examples=60, deadline=None)
@given(VALID_SCRIPTS)
def test_annotations_of_valid_scripts_are_derived(text):
    for _, node in elaborate_bindings(parse_proof(text)):
        seq = node.conclusion
        if isinstance(seq, BornAnnotated):
            assert seq.dist == distribution(seq.state)
        elif isinstance(seq, Measured):
            assert seq.prob == seq.state.amplitude(seq.outcome).mod_sq()


def test_proof_node_arity_is_validated():
    with pytest.raises(ValueError):
        ProofNode(Tensor(), (), Coherent(ket("00")))


# ---------------------------------------------------------------------------
# Distribution.items: every measurement completion, in lexicographic order
# ---------------------------------------------------------------------------

def test_enumerate_bell_outcomes():
    assert list(distribution(bell_state()).items()) == [
        (BasisState("00"), HALF),
        (BasisState("11"), HALF),
    ]


def test_enumerate_point_distribution():
    born = apply_rule(BornRule(), [Coherent(ket("0"))])
    assert list(born.dist.items()) == [(BasisState("0"), REAL_ONE)]


def test_enumerate_ghz_matches_the_float_oracle():
    ghz = Circuit(
        3,
        (
            GateApplication(builtin("H"), (0,)),
            GateApplication(builtin("CNOT"), (0, 1)),
            GateApplication(builtin("CNOT"), (0, 2)),
        ),
        measured=True,
    )
    oracle_probs = np.abs(run_circuit(Circuit(3, ghz.ops)).vec) ** 2
    outcomes = list(distribution(final_state(Circuit(3, ghz.ops))).items())
    assert [(b.bits, p) for b, p in outcomes] == [("000", HALF), ("111", HALF)]
    for basis, p in outcomes:
        assert abs(p.to_float() - oracle_probs[int(basis.bits, 2)]) < 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic_per_seed():
    dist = distribution(bell_state())
    for seed in (0, 1, 7, 2**63, 2**64 - 1):
        assert sample_outcome(dist, seed) == sample_outcome(dist, seed)


def test_sampling_a_point_distribution():
    dist = distribution(ket("01"))
    for seed in range(20):
        assert sample_outcome(dist, seed) == (BasisState("01"), REAL_ONE)


def test_sampling_frequencies_converge():
    dist = distribution(bell_state())
    hits = sum(
        1 for seed in range(1, 10001) if sample_outcome(dist, seed)[0].bits == "00"
    )
    assert 0.45 < hits / 10000 < 0.55


def test_sampling_decides_an_irrational_boundary_exactly():
    # H T H gives P(|0>) = (2 + sqrt2)/4.  This seed's SplitMix64 draw z
    # (found by inverting SplitMix64) lies below 2^64 * P(|0>), so |0> is
    # drawn, but a float CDF (z / 2.0**64 < p.to_float()) would draw |1>.
    seed = 16559512301985308444
    hth = Circuit(1, tuple(GateApplication(builtin(g), (0,)) for g in "HTH"))
    dist = distribution(final_state(hth))
    p0 = ExactReal(2, 1, 2)
    assert dist[BasisState("0")] == p0
    z = _splitmix64(seed)
    assert (p0 - ExactReal(z, 0, 64)).sign() > 0
    assert not z / 2.0**64 < p0.to_float()
    assert sample_outcome(dist, seed) == (BasisState("0"), p0)


def test_sampling_returns_probability_with_the_outcome():
    dist = distribution(bell_state())
    basis, p = sample_outcome(dist, 3)
    assert dist[basis] == p


def _reference_draw(dist, seed):
    """The CDF walk on `ExactReal` sums that `sample_outcome` replaced, kept
    as its reference."""
    u = ExactReal(_splitmix64(seed & (2**64 - 1)), 0, 64)
    acc = REAL_ZERO
    for basis, p in dist.items():
        acc = acc + p
        if (acc - u).sign() > 0:
            return basis, p
    raise AssertionError("probabilities sum to 1 and u < 1")


@settings(max_examples=200, deadline=None)
@given(
    rng_seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 4),
    chain=st.integers(0, 200),
    n_gates=st.integers(0, 20),
    seeds=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=20),
)
def test_sampling_draws_as_the_exact_real_walk(rng_seed, width, chain, n_gates, seeds):
    # An H T chain on wire 0 gives weights with sqrt2 parts over 2^k, k
    # about chain / 2, so past the 2^64 of the draw from about 130 on;
    # random gates mix them.
    rng = random.Random(rng_seed)
    state = ket("0" * width)
    for name in "HT" * chain:
        state = apply(GateApplication(builtin(name), (0,)), state)
    names = ("X", "Z", "S", "T", "H", "CNOT") if width >= 2 else ("X", "Z", "S", "T", "H")
    for _ in range(n_gates):
        gate = builtin(rng.choice(names))
        wires = tuple(rng.sample(range(width), gate.arity))
        state = apply(GateApplication(gate, wires), state)
    dist = distribution(state)
    for seed in seeds:
        assert sample_outcome(dist, seed) == _reference_draw(dist, seed)


def _unsplitmix64(z: int) -> int:
    """The seed whose SplitMix64 output is z: each step inverted."""
    mask = 2**64 - 1

    def unxorshift(x: int, s: int) -> int:
        y = x
        for _ in range(64 // s + 1):
            y = x ^ (y >> s)
        return y

    z = unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & mask
    z = unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask
    z = unxorshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


def test_a_draw_on_a_cdf_point_takes_the_next_outcome():
    # u = 1/2 exactly equals P(|00>) of the Bell state, which does not
    # exceed it, so |11> is drawn; one step below, |00> is.
    dist = distribution(bell_state())
    for z, drawn in ((2**63, "11"), (2**63 - 1, "00"), (0, "00"), (2**64 - 1, "11")):
        seed = _unsplitmix64(z)
        assert _splitmix64(seed) == z
        assert sample_outcome(dist, seed) == (BasisState(drawn), HALF)
        assert _reference_draw(dist, seed) == (BasisState(drawn), HALF)


def test_a_born_sequent_formats_each_distinct_weight_once(monkeypatch):
    calls = {"text": 0, "str": 0}
    text, to_str = ExactReal.text, BasisState.__str__

    def counted_text(self):
        calls["text"] += 1
        return text(self)

    def counted_str(self):
        calls["str"] += 1
        return to_str(self)

    state = wide_state()
    seq = BornAnnotated(state)
    expected = sequent_text(seq)
    monkeypatch.setattr(ExactReal, "text", counted_text)
    monkeypatch.setattr(BasisState, "__str__", counted_str)
    texts: dict = {}
    assert sequent_text(seq, texts) == expected
    assert calls == {"text": 1, "str": 0}
    assert sequent_text(seq, texts) == expected  # the pass's memo has it
    assert calls == {"text": 1, "str": 0}
    assert expected.endswith(" + (1/512)|111111111>")
