"""Front-end tests: grammar, positioned errors, linearity, rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc.calculus import (
    Coherent,
    Measure,
    Measured,
    NonMonotonicityViolation,
    Unitary,
    check,
    sequent_text,
)
from qmc.parser import (
    ElaborationError,
    ProofScript,
    SourceError,
    elaborate,
    parse_circuit,
    parse_proof,
    render_circuit,
    render_proof,
    render_script,
)
from qmc.gates import GateApplication, builtin
from qmc.state import BasisState, ket
from qmc.translate import circuit_to_proof

from conftest import GOLDEN, GOLDEN_PROOFS, bell_circuit, load_golden

BELL_SCRIPT = (GOLDEN / "bell_00.qmc").read_text()


# ---------------------------------------------------------------------------
# parse_proof
# ---------------------------------------------------------------------------

def test_bell_script_parses():
    script = parse_proof(BELL_SCRIPT)
    assert script.name == "bell_00"
    # One binding per rule application: two axioms, H, tensor, CNOT, the
    # Born annotation, and the measurement.
    assert len(script.bindings) == 7
    assert [b.name for b in script.bindings] == ["a", "h", "b", "t", "c", "d", "m"]
    last = script.bindings[-1]
    assert isinstance(last.rule, Measure)
    assert last.rule.outcome == BasisState("00")


def test_gate_expr_carries_wires():
    script = parse_proof("proof p { a = ax; g = gate H [0] a; }")
    assert script.bindings[1].rule == Unitary(GateApplication(builtin("H"), (0,)))
    assert script.bindings[1].premises == ("a",)


def test_non_binary_ket_digit_is_a_source_error():
    with pytest.raises(SourceError) as err:
        parse_proof("proof p { a = ax; m = measure a outcome=|2>; }")
    assert err.value.line == 1
    assert "0 or 1" in err.value.message


def test_linearity_violation():
    with pytest.raises(SourceError, match="linear"):
        parse_proof("proof p { a = ax; t = tensor a a; }")


def test_unbound_identifier():
    with pytest.raises(SourceError, match="unbound"):
        parse_proof("proof p { t = tensor a b; }")


def test_forward_references_are_rejected():
    with pytest.raises(SourceError, match="unbound"):
        parse_proof("proof p { t = born a; a = ax; }")


def test_duplicate_binding():
    with pytest.raises(SourceError, match="bound twice"):
        parse_proof("proof p { a = ax; a = ax; }")


def test_reserved_words_cannot_be_bound():
    with pytest.raises(SourceError, match="reserved"):
        parse_proof("proof p { born = ax; }")


def test_unknown_gate_is_positioned():
    with pytest.raises(SourceError) as err:
        parse_proof("proof p { a = ax;\n g = gate Q [0] a; }")
    assert err.value.line == 2
    assert "unknown gate" in err.value.message


def test_wrong_wire_count_for_gate():
    with pytest.raises(SourceError, match="wire"):
        parse_proof("proof p { a = ax; g = gate CNOT [0] a; }")


def test_empty_body_rejected():
    with pytest.raises(SourceError, match="at least one"):
        parse_proof("proof p { }")


def test_trailing_input_rejected():
    with pytest.raises(SourceError, match="after closing"):
        parse_proof("proof p { a = ax; } proof q { b = ax; }")


def test_comments_and_positions():
    text = "# leading comment\nproof p {\n  a = ax;\n  b = weaken a |0>;\n}\n"
    script = parse_proof(text)
    assert script.bindings[1].line == 4


def test_unterminated_ket():
    with pytest.raises(SourceError, match="unterminated"):
        parse_proof("proof p { a = prep |01")


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_parser_never_panics(text):
    try:
        result = parse_proof(text)
        assert isinstance(result, ProofScript)
    except SourceError as err:
        assert err.line >= 1 and err.column >= 1


def test_script_wires_take_ascii_digits_only():
    for digit in ("\u00b2", "\u0661"):  # superscript two, Arabic-Indic one
        with pytest.raises(SourceError) as err:
            parse_proof(f"proof p {{ a = ax; g = gate H [{digit}] a; }}")
        assert (err.value.line, err.value.column) == (1, 31)
        assert err.value.message == "unexpected character"


# ---------------------------------------------------------------------------
# parse_circuit
# ---------------------------------------------------------------------------

def test_parse_bell_circuit():
    circuit = parse_circuit((GOLDEN / "bell.qc").read_text())
    assert circuit.width == 2
    assert len(circuit.ops) == 2
    assert circuit.measured
    assert circuit == bell_circuit()


def test_parse_unmeasured_hh():
    circuit = parse_circuit("qubits 1\nH 0\nH 0\n")
    assert circuit.width == 1
    assert len(circuit.ops) == 2
    assert not circuit.measured


def test_wire_out_of_range_is_positioned():
    with pytest.raises(SourceError) as err:
        parse_circuit("qubits 1\nCNOT 0 1\n")
    assert err.value.line == 2
    assert "out of range" in err.value.message


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("qubits \u00b2\n", 1, 1, "expected 'qubits N' with a single count"),
        ("qubits 1\nH \u00b2\n", 2, 3, "expected a wire index"),
        ("qubits 2\nH \u0661\n", 2, 3, "expected a wire index"),
    ],
)
def test_circuit_numbers_take_ascii_digits_only(text, line, column, message):
    with pytest.raises(SourceError) as err:
        parse_circuit(text)
    assert (err.value.line, err.value.column, err.value.message) == (
        line,
        column,
        message,
    )


def test_gate_after_measure():
    with pytest.raises(SourceError, match="after measure"):
        parse_circuit("qubits 1\nmeasure\nH 0\n")


def test_unknown_gate_in_circuit():
    with pytest.raises(SourceError, match="unknown gate"):
        parse_circuit("qubits 1\nQ 0\n")


def test_duplicate_wires_in_circuit():
    with pytest.raises(SourceError, match="duplicate"):
        parse_circuit("qubits 2\nCNOT 1 1\n")


def test_missing_header():
    with pytest.raises(SourceError, match="qubits"):
        parse_circuit("H 0\n")


def test_circuit_comments_are_ignored():
    circuit = parse_circuit("# c\nqubits 1  # width\nH 0 # gate\n")
    assert circuit.width == 1 and len(circuit.ops) == 1


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_circuit_parser_never_panics(text):
    try:
        parse_circuit(text)
    except SourceError as err:
        assert err.line >= 1 and err.column >= 1


_NUMBERS = st.sampled_from(["0", "1", "2", "7", "x", "\u00b2", "\u0661"])
_CIRCUIT_TEXTS = st.builds(
    lambda width, lines: f"qubits {width}\n" + "\n".join(lines),
    _NUMBERS,
    st.lists(
        st.builds(
            lambda gate, wires: " ".join([gate, *wires]),
            st.sampled_from(["H", "CNOT", "Q", "measure"]),
            st.lists(_NUMBERS, max_size=3),
        ),
        max_size=4,
    ),
)
_SCRIPT_TEXTS = st.lists(
    st.sampled_from(
        [
            "a = ax;", "b = ax;", "p = prep |1>;", "t = tensor a b;",
            "g = gate H [0] a;", "g = gate CNOT [0,1] t;", "g = gate H [1] p;",
            "g = gate H [\u00b2] a;", "g = gate X [\u0661] t;", "d = born g;",
            "d = born a;", "m = measure d outcome=|0>;", "m = measure d outcome=|01>;",
            "w = weaken a |0>;", "h = gate H [0] m;",
        ]
    ),
    min_size=1,
    max_size=6,
).map(lambda bindings: "proof s { " + " ".join(bindings) + " }")


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=80), _CIRCUIT_TEXTS, _SCRIPT_TEXTS))
def test_parsers_raise_only_their_own_errors(text):
    try:
        parse_circuit(text)
    except SourceError:
        pass
    try:
        elaborate(parse_proof(text))
    except (SourceError, ElaborationError):
        pass


def test_render_circuit_round_trips():
    circuit = bell_circuit()
    assert parse_circuit(render_circuit(circuit)) == circuit


# ---------------------------------------------------------------------------
# elaborate
# ---------------------------------------------------------------------------

def test_elaborate_bell():
    proof = load_golden("bell_00.qmc")
    assert isinstance(proof.conclusion, Measured)
    assert proof.conclusion.outcome == BasisState("00")
    assert check(proof).valid


def test_elaborate_weaken_fails_with_the_reason():
    script = parse_proof("proof p { a = ax; w = weaken a |0>; }")
    with pytest.raises(ElaborationError) as err:
        elaborate(script)
    assert isinstance(err.value.cause, NonMonotonicityViolation)
    assert err.value.binding.name == "w"
    assert [name for name, _ in err.value.completed] == ["a"]


def test_elaborate_wire_out_of_range_fails_at_the_binding():
    script = parse_proof("proof p { a = ax; g = gate H [3] a; }")
    with pytest.raises(ElaborationError) as err:
        elaborate(script)
    assert err.value.binding.name == "g"


def test_elaborate_prep_is_an_assumption_leaf():
    proof = elaborate(parse_proof("proof p { a = prep |10>; }"))
    assert proof.conclusion == Coherent(ket("10"))
    report = check(proof)
    assert report.valid
    assert report.assumptions == (((), BasisState("10")),)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_ascii_render_contains_the_bell_conclusion():
    proof = load_golden("bell_pre.qmc")
    text = render_proof(proof, "ascii")
    assert "(1/sqrt2)|00> + (1/sqrt2)|11> =>" in text


def test_ascii_render_of_a_single_axiom():
    proof = elaborate(parse_proof("proof p { a = ax; }"))
    lines = render_proof(proof, "ascii").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("|0> =>")


def test_latex_render_names_the_rules():
    proof = load_golden("bell_00.qmc")
    text = render_proof(proof, "latex")
    assert text.startswith("\\begin{prooftree}")
    for label in (r"$Ax$", r"$\otimes$", r"$\mathbf{H}$", r"$\mathbf{CNOT}$", r"$BR$", r"$M$"):
        assert label in text
    assert r"\frac{1}{\sqrt{2}}\ket{00} + \frac{1}{\sqrt{2}}\ket{11}" in text
    assert r"\vdash_{\frac{1}{2}} \ket{00}" in text


def test_unknown_render_format():
    proof = elaborate(parse_proof("proof p { a = ax; }"))
    with pytest.raises(ValueError):
        render_proof(proof, "html")


@pytest.mark.parametrize("name", GOLDEN_PROOFS)
def test_script_round_trip_on_golden_proofs(name):
    proof = load_golden(name)
    rendered = render_script(proof, name.removesuffix(".qmc"))
    reparsed = elaborate(parse_proof(rendered))
    assert reparsed.conclusion == proof.conclusion
    assert check(reparsed).signature() == check(proof).signature()


def test_script_round_trip_on_generated_proofs():
    for proof in circuit_to_proof(bell_circuit(), "enumerate"):
        reparsed = elaborate(parse_proof(render_script(proof)))
        assert reparsed.conclusion == proof.conclusion
        assert check(reparsed).signature() == check(proof).signature()


def test_render_script_keeps_binding_names():
    proof = load_golden("hh.qmc")
    rendered = render_script(proof, "hh")
    assert "h1 = gate H [0] a;" in rendered
    assert "h2 = gate H [0] h1;" in rendered


def test_sequent_text_forms():
    proof = load_golden("bell_00.qmc")
    assert sequent_text(proof.conclusion) == (
        "(1/sqrt2)|00> + (1/sqrt2)|11> |-[1/2] |00>"
    )
    born = proof.premises[0]
    assert sequent_text(born.conclusion) == (
        "(1/sqrt2)|00> + (1/sqrt2)|11> => (1/2)|00> + (1/2)|11>"
    )
