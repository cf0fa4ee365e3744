"""Front-end tests: grammar, positioned errors, linearity, rendering."""

import dataclasses
import hashlib
import io
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc.amplitude import PACKED_ONE, _latex
from qmc.cli import main
from qmc.calculus import (
    RULES,
    Ax,
    BornAnnotated,
    BornRule,
    Coherent,
    Measure,
    Measured,
    NonMonotonicityViolation,
    Prep,
    ProofNode,
    Tensor,
    Unitary,
    check,
    sequent_text,
    walk,
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
    _FORMS,
    _WORD_RE,
    _ScriptParser,
    _script_expr,
)
from qmc.gates import GateApplication, builtin
from qmc.state import BasisState, _coeff_text, ket
from qmc.translate import circuit_to_proof, random_circuit

from conftest import (
    GOLDEN,
    GOLDEN_PROOFS,
    VALID_CIRCUITS,
    VALID_SCRIPTS,
    bell_circuit,
    load_golden,
)

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


_GATES = "I, X, Z, S, T, H, CNOT"
_HUGE_WIRE = "1" * 4301
_N = 10**5
# 10^4 valid bindings, one a line, before whatever ends the script.
_BINDINGS = "proof p {\n  g0 = ax;\n" + "".join(
    f"  g{k} = gate H [0] g{k - 1};\n" for k in range(1, 10**4)
)


@pytest.mark.parametrize(
    "text, line, column, message, token",
    [
        ("prof p { a = ax; }", 1, 1, "expected 'proof'", "prof"),
        ("", 1, 1, "expected 'proof'", ""),
        ("proof 1 { a = ax; }", 1, 7, "expected a proof name", "1"),
        ("proof ax { a = ax; }", 1, 7, "'ax' is a reserved word", "ax"),
        ("proof p ( a = ax; }", 1, 9, "unexpected character", "("),
        ("proof p { 1 = ax; }", 1, 11, "expected a binding name", "1"),
        ("proof p { gate = ax; }", 1, 11, "'gate' is a reserved word", "gate"),
        ("proof p { a = ax; a = ax; }", 1, 19, "identifier 'a' is bound twice", "a"),
        ("proof p { a ax; }", 1, 13, "expected '='", "ax"),
        ("proof p { a = nope; }", 1, 15, "expected a rule expression", "nope"),
        ("proof p {\n\tb = ax;\n\tc = 7;", 3, 6, "expected a rule expression", "7"),
        ("proof p { a = ax }", 1, 18, "expected ';'", "}"),
        ("proof p { }", 1, 11, "a proof needs at least one binding", "}"),
        ("proof p { a = ax; } x", 1, 21, "unexpected input after closing '}'", "x"),
        ("proof p { a = ax; m = measure a |0>; }", 1, 33, "expected 'outcome'", "|0>"),
        ("proof p { a = ax; m = measure a outcome |0>; }", 1, 41, "expected '='", "|0>"),
        ("proof p { a = ax; t = tensor a 1; }", 1, 32, "expected a premise identifier", "1"),
        ("proof p { a = ax; t = tensor a born; }", 1, 32, "'born' is a reserved word", "born"),
        ("proof p { t = tensor a b; }", 1, 22, "unbound identifier 'a'", "a"),
        (
            "proof p { a = ax; b = ax; t = tensor a a; }",
            1,
            40,
            "identifier 'a' already consumed; premises are linear resources",
            "a",
        ),
        (
            "proof p { a = ax; b = ax; h = gate H [0] b; }",
            1,
            11,
            "binding 'a' is never consumed",
            "a",
        ),
        ("proof p { a = prep 0; }", 1, 20, "expected a ket like |01>", "0"),
        (
            "proof p { a = ax; g = gate Q [0] a; }",
            1,
            28,
            f"unknown gate name; expected one of {_GATES}",
            "Q",
        ),
        ("proof p { a = ax; g = gate H 0 a; }", 1, 30, "expected '['", "0"),
        ("proof p { a = ax; g = gate H [x] a; }", 1, 31, "expected a wire index", "x"),
        ("proof p { a = ax; g = gate H [0 1] a; }", 1, 33, "expected ']'", "1"),
        (
            f"proof p {{ a = ax; g = gate H [{_HUGE_WIRE}] a; }}",
            1,
            31,
            "number too long (4301 digits)",
            "111111111111...",
        ),
        ("proof p { a = ax; g = gate H [0,1] a; }", 1, 28, "H takes 1 wire(s), got 2", "H"),
        (
            "proof p { a = ax; g = gate H [0] a; k = gate H [0,0] g; }",
            1,
            46,
            "H takes 1 wire(s), got 2",
            "H",
        ),
        (
            "proof p { a = ax;\n  g = gate H [0] a;\n  k = gate H [0] g;\n"
            "  j = gate CNOT [0] k; }",
            4,
            12,
            "CNOT takes 2 wire(s), got 1",
            "CNOT",
        ),
        (
            "proof p { a = ax; b = ax; t = tensor a b;\n g = gate CNOT [1,1] t; }",
            2,
            11,
            "duplicate wires",
            "CNOT",
        ),
        ("proof p { a = prep |x>; }", 1, 20, "ket digits must be 0 or 1", "|x"),
        ("proof p { a = prep |\n>; }", 1, 20, "ket digits must be 0 or 1", "|\n"),
        ("proof p { a = prep |", 1, 20, "ket digits must be 0 or 1", "|"),
        ("proof p { a = prep |01x; }", 1, 20, "ket digits must be 0 or 1", "|01x"),
        ("proof p { a = prep |01", 1, 20, "unterminated ket", "|01"),
        ("proof p { a = ax; @ }", 1, 19, "unexpected character", "@"),
        # At end of input after a comment, the column stays at the '#'.
        ("proof p { a = ax; # trailing", 1, 19, "expected a binding name", ""),
        (
            "proof p {\n\ta = ax;\r\n  b = ax; # c\n  t = tensor a b;\n",
            5,
            1,
            "expected a binding name",
            "",
        ),
        # Long inputs, none of which may take time superlinear in its length.
        (" " * _N + "$", 1, _N + 1, "unexpected character", "$"),
        ("|" + "0" * _N, 1, 1, "unterminated ket", "|00000000000..."),
        ("#" + "c" * _N + "\n$", 2, 1, "unexpected character", "$"),
        ("a " * _N, 1, 1, "expected 'proof'", "a"),
        ("proof p { " + "a " * _N, 1, 13, "expected '='", "a"),
        # A long token is quoted by its first 12 characters, so every error
        # stays one short line.
        ("proof p { a = " + "r" * _N + "; }", 1, 15, "expected a rule expression",
         "rrrrrrrrrrrr..."),
        ("proof p { a = ax; g = gate " + "Q" * _N + " [0] a; }", 1, 28,
         f"unknown gate name; expected one of {_GATES}", "QQQQQQQQQQQQ..."),
        ("proof p { a = ax; g = gate H [0] " + "b" * _N + "; }", 1, 34,
         "unbound identifier 'bbbbbbbbbbbb...'", "bbbbbbbbbbbb..."),
        # A lexical error after many valid lines is found on its own line.
        (_BINDINGS + "$", 10**4 + 2, 1, "unexpected character", "$"),
        (_BINDINGS + "|01", 10**4 + 2, 1, "unterminated ket", "|01"),
    ],
    ids=[
        "no-proof-keyword",
        "empty-input",
        "proof-name-not-ident",
        "proof-name-reserved",
        "unexpected-paren",
        "binding-name-not-ident",
        "binding-name-reserved",
        "bound-twice",
        "missing-equals",
        "unknown-rule",
        "rule-is-a-number-after-tabs",
        "missing-semicolon",
        "empty-body",
        "input-after-close",
        "missing-outcome-word",
        "missing-outcome-equals",
        "premise-not-ident",
        "premise-reserved",
        "unbound",
        "consumed-twice",
        "never-consumed",
        "ket-expected",
        "unknown-gate",
        "missing-open-bracket",
        "wire-not-int",
        "missing-close-bracket",
        "number-too-long",
        "arity",
        "arity-after-a-valid-use",
        "arity-on-line-4",
        "duplicate-wires",
        "ket-bad-digit",
        "ket-newline",
        "ket-bar-at-eof",
        "ket-unclosed",
        "ket-unterminated-at-eof",
        "unexpected-character",
        "eof-after-comment",
        "eof-after-newline",
        "long-blanks-then-dollar",
        "long-bar-then-zeros",
        "long-comment",
        "long-identifiers",
        "long-bindings",
        "long-unknown-rule",
        "long-unknown-gate",
        "long-unbound-premise",
        "many-bindings-then-dollar",
        "many-bindings-then-unterminated-ket",
    ],
)
def test_script_errors_are_pinned(text, line, column, message, token):
    with pytest.raises(SourceError) as err:
        parse_proof(text)
    got = (err.value.line, err.value.column, err.value.message, err.value.token)
    assert got == (line, column, message, token)


@pytest.mark.parametrize(
    "text, line, column, message, token",
    [
        ("qubits 2\nH 0\nCNOT 1 1\nH 1\nCNOT 1 1\n", 3, 1, "duplicate wires", "CNOT"),
        (
            "qubits 2\nCNOT 0 1\nCNOT 0\nCNOT 0 1\nCNOT 0\n",
            3,
            1,
            "CNOT takes 2 wire(s), got 1",
            "CNOT",
        ),
        ("qubits 2\nH 0\nH 0 1\nH 1 # c\nH 0 1\n", 3, 1, "H takes 1 wire(s), got 2", "H"),
        (
            "qubits 2\nH 0\nH 0 # c\nH 2\n",
            4,
            3,
            "wire 2 out of range for 2-qubit circuit",
            "2",
        ),
        ("qubits 2\nH 00\nH 0\nH x\n", 4, 3, "expected a wire index", "x"),
        (
            "qubits 65537\nH 0\nH 0\n",
            1,
            8,
            "qubit count must be at most 65536",
            "65537",
        ),
        ("qubits 1\n" + "Q" * _N + " 0\n", 2, 1, f"unknown gate name; expected one of {_GATES}",
         "QQQQQQQQQQQQ..."),
        ("qubits 1\nH " + "w" * _N + "\n", 2, 3, "expected a wire index", "wwwwwwwwwwww..."),
        ("h" * _N + " 1\nH 0\n", 1, 1, "expected a 'qubits N' header", "hhhhhhhhhhhh..."),
    ],
    ids=[
        "duplicate-wires",
        "arity",
        "arity-with-comment-after",
        "range-after-valid-repeats",
        "wire-not-int-after-leading-zero",
        "width-over-the-limit",
        "long-gate-name",
        "long-wire",
        "long-header",
    ],
)
def test_repeated_circuit_lines_fail_where_they_first_go_wrong(
    text, line, column, message, token
):
    with pytest.raises(SourceError) as err:
        parse_circuit(text)
    got = (err.value.line, err.value.column, err.value.message, err.value.token)
    assert got == (line, column, message, token)


# Layouts whose binding positions the scanner must get right: two bindings
# on a line, a binding over three lines, tabs and a line starting with '\r',
# CRLF line ends, comments between tokens, a binding after a ket.
_LAYOUT_SCRIPTS = (
    "proof p { a = ax; h = gate H [0] a; }",
    "proof p {\n  a\n  =\n  ax; b = ax; t = tensor\n  a\n  b;\n}\n",
    "proof\tp\t{\n\ta\t=\tax;\n\th = gate\tH\t[0]\ta;\n\r d = born h; }\n",
    "proof p {\r\n  a = ax;\r\n  h = gate H [0] a;\r\n  d = born h;\r\n"
    "  m = measure d outcome=|0>;\r\n}\r\n",
    "# head\nproof p { # open\n a # name\n = # eq\n ax # rule\n ; # end\n"
    "b = ax; t = tensor a # first\n b; #\n} # done",
    "proof p { a = ax; d = born a; m = measure d outcome=|0>;\r\t k = gate H [0] m; }",
)


def _rendered_scripts():
    for seed in range(40):
        for measured in (False, True):
            for mode in ("enumerate", "sample"):
                circuit = random_circuit(random.Random(seed), measured=measured)
                for proof in circuit_to_proof(circuit, mode, seed)[:2]:
                    yield render_script(proof, f"r{seed}")


_PARSE_SOURCES = {
    "golden": lambda: [path.read_text() for path in sorted(GOLDEN.glob("*.qmc"))],
    "rendered": lambda: list(_rendered_scripts()),
    "layout": lambda: list(_LAYOUT_SCRIPTS),
}


# Taken from the parser that built (kind, text, line, column) tuples for
# every token, before the scanner skipped positions on well-formed input.
@pytest.mark.parametrize(
    "source, digest",
    [
        ("golden", "1441b6f2be95daa8387c70da3b7b38b8df53e49c5144ef955a540305ba198217"),
        ("rendered", "93710930aac8ff3646f3575b46ceea726f1224a05149ec90df47a195b62e6761"),
        ("layout", "85898499b9a8c081d631b6820fa9bdce910afb042cbf96118e1518527188a964"),
    ],
)
def test_every_binding_parses_as_pinned(source, digest):
    rows = []
    for text in _PARSE_SOURCES[source]():
        script = parse_proof(text)
        rows.append(
            [script.name]
            + [(b.name, b.rule.label(), b.premises, b.line, b.col) for b in script.bindings]
        )
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


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


HUGE = "1" * 4301  # one digit past int()'s default conversion limit


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_circuit, f"qubits {HUGE}\n", 1, 8),
        (parse_circuit, f"qubits 2\nH {HUGE}\n", 2, 3),
        (parse_proof, f"proof p {{ a = ax; g = gate H [{HUGE}] a; }}", 1, 31),
    ],
    ids=["qc-header", "qc-wire", "qmc-wire"],
)
def test_oversized_numbers_are_positioned_errors(parse, text, line, column):
    with pytest.raises(SourceError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message == "number too long (4301 digits)"
    assert len(str(err.value)) < 100


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


# Every line break `str.splitlines` knows besides "\n" and "\r\n".
_OTHER_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _OTHER_BREAKS, ids=ascii)
def test_a_circuit_comment_runs_to_the_newline(sep):
    circuit = parse_circuit(f"qubits 2\n# note{sep}X 1\nH 0\nmeasure\n")
    assert circuit == parse_circuit("qubits 2\nH 0\nmeasure\n")
    # Outside a comment it is a blank, not a line end.
    with pytest.raises(SourceError) as err:
        parse_circuit(f"qubits 2\nH 0{sep}X 1\n")
    assert (err.value.line, err.value.column) == (2, 5)
    assert err.value.message == "expected a wire index"


def test_a_circuit_reads_crlf_as_lf_and_a_lone_cr_as_a_blank():
    lf = "qubits 2\nH 0 # note\nCNOT 0 1\nmeasure\n"
    assert parse_circuit(lf.replace("\n", "\r\n")) == parse_circuit(lf) == bell_circuit()
    with pytest.raises(SourceError) as err:
        parse_circuit(lf.replace("\n", "\r"))
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.message == "expected 'qubits N' with a single count"


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_circuit_parser_never_panics(text):
    try:
        parse_circuit(text)
    except SourceError as err:
        assert err.line >= 1 and err.column >= 1


_NUMBERS = st.sampled_from(["0", "1", "2", "7", "3000000000", "x", "\u00b2", "\u0661"])
_CIRCUIT_TEXTS = st.builds(
    lambda width, lines: f"qubits {width}\n" + "\n".join(lines),
    _NUMBERS,
    st.lists(
        st.one_of(
            st.builds(
                lambda gate, wires: " ".join([gate, *wires]),
                st.sampled_from(["H", "T", "CNOT", "Q", "measure"]),
                st.lists(_NUMBERS, max_size=3),
            ),
            st.sampled_from(["H 0", "T 0", "CNOT 0 1", "measure"]),
        ),
        max_size=4,
    ),
)
# In an order that binds each premise before any binding that uses it.
_BINDINGS = [
    "a = ax;", "b = ax;", "p = prep |1>;", "t = tensor a b;",
    "g = gate H [0] a;", "g = gate CNOT [0,1] t;", "g = gate H [1] p;",
    "g = gate H [\u00b2] a;", "g = gate X [\u0661] t;", "d = born g;",
    "d = born a;", "d = born t;", "m = measure d outcome=|0>;",
    "m = measure d outcome=|01>;", "m = measure d outcome=|00>;",
    "w = weaken a |0>;", "h = gate H [0] m;",
]
# As drawn, or put in that order, which reaches past the parser more often.
_SCRIPT_TEXTS = st.builds(
    lambda bindings, ordered: "proof s { "
    + " ".join(sorted(bindings, key=_BINDINGS.index) if ordered else bindings)
    + " }",
    st.lists(st.sampled_from(_BINDINGS), min_size=1, max_size=6),
    st.booleans(),
)


# The last two reach past the parser every time, so every command gets to
# elaborate, check, translate and render generated input.
_ANY_TEXT = st.one_of(
    st.text(max_size=80), _CIRCUIT_TEXTS, _SCRIPT_TEXTS, VALID_SCRIPTS, VALID_CIRCUITS
)


@settings(max_examples=300)
@given(_ANY_TEXT)
def test_parsers_raise_only_their_own_errors(text):
    try:
        parse_circuit(text)
    except SourceError:
        pass
    try:
        elaborate(parse_proof(text))
    except (SourceError, ElaborationError):
        pass


_COMMANDS = (
    ("check", ".qmc"),
    ("dist", ".qc"),
    ("dist", ".qmc"),
    ("run", ".qc", "--seed", "1"),
    ("run", ".qmc", "--seed", "1"),
    ("render", ".qmc"),
    ("render", ".qmc", "--format", "latex"),
    ("translate", ".qc", "--to", "proof"),
    ("translate", ".qmc", "--to", "circuit"),
)


@settings(max_examples=150, deadline=None)
@given(_ANY_TEXT)
def test_every_command_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        for command, suffix, *flags in _COMMANDS:
            path = Path(tmp) / f"input{suffix}"
            path.write_text(text, encoding="utf-8")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, str(path), *flags])
            assert code in (0, 1, 2)


def _insert(text: str, pieces: list[tuple[int, str]]) -> str:
    for at, piece in pieces:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    return text


# Valid scripts with blanks, comments and newlines put in anywhere, which
# may also split a token; and short texts over the scripts' own characters.
_SCANNED_TEXTS = st.one_of(
    _ANY_TEXT,
    st.builds(
        _insert,
        VALID_SCRIPTS,
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "# c\n", "#", "# |0> x\n"]),
            ),
            max_size=6,
        ),
    ),
    st.text(alphabet="ab01 \t\r\n#|>{}=;[],$", max_size=60),
)


# The reference: a positioned scan that walks the whole text, a token,
# blanks, a newline or a comment at a time; BADKET is a `|` that does not
# start a well-formed ket, and BAD any other character.
_TOKEN_RE = re.compile(
    rf"(?P<TOKEN>{_WORD_RE.pattern})"
    r"|(?P<BLANK>[ \t\r]+)"
    r"|(?P<NL>\n)"
    r"|(?P<BADKET>\|[01]*)"
    r"|(?P<COMMENT>#[^\n]*)"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


def _scan(text: str) -> list[tuple[str, int, int]]:
    """Each token's text, line and column, then the end of input's (text
    ""); a character no token can hold raises its positioned error."""
    scanned = []
    line, start = 1, 0  # start: the offset where the current line begins
    m = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "TOKEN":
            scanned.append((m[0], line, m.start() - start + 1))
        elif kind == "NL":
            line += 1
            start = m.end()
        elif kind == "BADKET":
            i, j = m.span()
            bad = text[i : j + 1]  # with the character that stopped the digits
            col = i - start + 1
            if j == len(text) and j > i + 1:
                raise SourceError(line, col, "unterminated ket", bad)
            raise SourceError(line, col, "ket digits must be 0 or 1", bad)
        elif kind == "BAD":
            raise SourceError(line, m.start() - start + 1, "unexpected character", m[0])
    # End of input; a final comment leaves the column at its '#'.
    if m is not None and m.lastgroup == "COMMENT":
        end = m.start()
    else:
        end = len(text)
    scanned.append(("", line, end - start + 1))
    return scanned


def _error(err: SourceError) -> tuple[int, int, str, str]:
    return err.line, err.column, err.message, err.token


@settings(max_examples=400, deadline=None)
@given(_SCANNED_TEXTS)
def test_the_fast_scan_agrees_with_the_positioned_scan(text):
    try:
        positioned = _scan(text)
    except SourceError as expected:
        with pytest.raises(SourceError) as err:
            _ScriptParser(text)
        assert _error(err.value) == _error(expected)
        return
    parser = _ScriptParser(text)
    assert [parser.position(i) for i in range(len(parser.tokens))] == positioned


def test_many_bindings_on_one_line_keep_their_columns():
    parts = ["proof p {", "g0 = ax;"]
    parts += [f"g{k} = gate H [0] g{k - 1};" for k in range(1, 20000)]
    starts = [1]  # each part's column, the parts joined by single blanks
    for part in parts[:-1]:
        starts.append(starts[-1] + len(part) + 1)
    script = parse_proof(" ".join(parts) + " }")
    assert [(b.line, b.col) for b in script.bindings] == [(1, c) for c in starts[1:]]


def test_repeated_applications_share_one_object():
    script = parse_proof(
        "proof p { a = ax; g = gate H [0] a; h = gate H [0] g; k = gate X [0] h; }"
    )
    first, second, other = (b.rule.app for b in script.bindings[1:])
    assert first is second and first is not other
    circuit = parse_circuit("qubits 2\nCNOT 0 1\nH 0\nCNOT  0 1 # again\nCNOT 1 0\n")
    assert circuit.ops[0] is circuit.ops[2]
    assert circuit.ops[0] != circuit.ops[3]


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


def _term_by_term(state, coeff, ket):
    """The reference rendering of a state: each term formatted on its own,
    a unit amplitude as the bare ket."""
    if not len(state):
        return "0"
    return " + ".join(
        ("" if amp.packed == PACKED_ONE else coeff(amp.packed)) + ket % basis.bits
        for basis, amp in state.terms()
    )


def _reference_sequent_text(seq):
    state = _term_by_term(seq.state, lambda amp: f"({_coeff_text(amp)})", "|%s>")
    if isinstance(seq, Coherent):
        return f"{state} =>"
    if isinstance(seq, BornAnnotated):
        return f"{state} => {seq.dist.render()}"
    return f"{state} |-[{seq.prob.text()}] {seq.outcome}"


def _assert_a_shared_memo_renders_as_alone(text):
    """Every conclusion renders the same through one memo per format, shared
    by the whole tree as in a rendering pass, as on its own, and on its own
    as the term-by-term reference."""
    ascii_texts: dict = {}
    latex_texts: dict = {}
    for node, _, entering in walk(elaborate(parse_proof(text))):
        if entering:
            continue
        seq = node.conclusion
        alone = seq.state.render()
        assert alone == _term_by_term(
            seq.state, lambda amp: f"({_coeff_text(amp)})", "|%s>"
        )
        assert seq.state.render(ascii_texts) == alone
        alone = seq.state.latex()
        assert alone == _term_by_term(seq.state, _latex, r"\ket{%s}")
        assert seq.state.latex(latex_texts) == alone
        alone = sequent_text(seq)
        assert alone == _reference_sequent_text(seq)
        assert sequent_text(seq, ascii_texts) == alone


def _assert_a_shared_memo_renders_distributions_as_alone(text):
    """Every Born annotation renders through the pass's memo, filled by the
    states before it as in a rendering pass, as term by term."""
    ascii_texts: dict = {}
    latex_texts: dict = {}
    born = 0
    for node, _, entering in walk(elaborate(parse_proof(text))):
        if entering:
            continue
        seq = node.conclusion
        seq.state.render(ascii_texts)
        seq.state.latex(latex_texts)
        if not isinstance(seq, BornAnnotated):
            continue
        born += 1
        dist = seq.dist
        alone = " + ".join(f"({p.text()}){basis}" for basis, p in dist.items())
        assert dist.render() == alone
        assert dist.render(ascii_texts) == alone
        alone = " + ".join(p.latex() + r"\ket{%s}" % basis.bits for basis, p in dist.items())
        assert dist.latex() == alone
        assert dist.latex(latex_texts) == alone
    return born


def test_a_shared_memo_renders_golden_distributions_as_alone():
    born = sum(
        _assert_a_shared_memo_renders_distributions_as_alone((GOLDEN / name).read_text())
        for name in GOLDEN_PROOFS
    )
    assert born >= 3


@settings(max_examples=60, deadline=None)
@given(VALID_SCRIPTS)
def test_a_shared_memo_renders_translated_distributions_as_alone(text):
    _assert_a_shared_memo_renders_distributions_as_alone(text)


@pytest.mark.parametrize("name", GOLDEN_PROOFS)
def test_a_shared_memo_renders_golden_proofs_as_alone(name):
    _assert_a_shared_memo_renders_as_alone((GOLDEN / name).read_text())


@settings(max_examples=60, deadline=None)
@given(VALID_SCRIPTS)
def test_a_shared_memo_renders_translated_scripts_as_alone(text):
    _assert_a_shared_memo_renders_as_alone(text)


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


def test_render_script_skips_a_generated_name_a_label_took():
    leaf = ProofNode.derive(Ax(), (), "s1")
    root = ProofNode.derive(Unitary(GateApplication(builtin("H"), (0,))), (leaf,))
    rendered = render_script(root, "p")
    assert rendered == "proof p {\n  s1 = ax;\n  s2 = gate H [0] s1;\n}\n"
    assert elaborate(parse_proof(rendered)).conclusion == root.conclusion


def test_render_script_refuses_a_prep_with_a_premise():
    measured = circuit_to_proof(bell_circuit(), "enumerate")[0]
    prep = ProofNode.derive(Prep(measured.conclusion.outcome), (measured,))
    with pytest.raises(ValueError) as err:
        render_script(prep)
    assert str(err.value) == (
        "a preparation step with a premise has no script form; the "
        "grammar's prep is an assumption leaf"
    )


# A sample value for each kind of field a rule's form can write.
_SAMPLE_FIELDS = {
    "ket": ("BasisState", BasisState("01")),
    "gate": ("GateApplication", GateApplication(builtin("CNOT"), (1, 0))),
}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.keyword)
def test_each_rule_form_matches_its_fields_and_round_trips(rule):
    # The writer reads a rule's fields positionally, by its form's
    # non-premise slots, so the two must list the same fields in order.
    form = _FORMS[rule.keyword][1]
    slots = [(word, kind) for word, kind in form if kind != "premise"]
    fields = dataclasses.fields(rule)
    assert len(slots) == len(fields)
    for (word, kind), f in zip(slots, fields):
        assert f.type == _SAMPLE_FIELDS[kind][0]
        assert word in ("", f.name)
    sample = rule(*(_SAMPLE_FIELDS[kind][1] for _, kind in slots))
    names = [f"p{i}" for i, (_, kind) in enumerate(form) if kind == "premise"]
    leaves = "".join(f"{n} = ax; " for n in names)
    text = f"proof t {{ {leaves}r = {_script_expr(sample, names)}; }}"
    root = parse_proof(text).bindings[-1]
    assert (root.name, root.rule, root.premises) == ("r", sample, tuple(names))


def _colliding_labels_tree() -> ProofNode:
    """A tree whose labels repeat, are keywords, or take the generated name
    `s<k>` of a later node, so that every rule of the naming is used."""
    h = Unitary(GateApplication(builtin("H"), (0,)))
    a = ProofNode.derive(Ax(), (), "s1")
    b = ProofNode.derive(Ax(), (), "s1")
    t = ProofNode.derive(Tensor(), (a, b), "s2")
    g = ProofNode.derive(h, (t,), "ax")
    d = ProofNode.derive(BornRule(), (g,))
    return ProofNode.derive(Measure(BasisState("00")), (d,), "s0")


def _render_script_sources():
    for name in GOLDEN_PROOFS:
        yield render_script(load_golden(name), name.removesuffix(".qmc"))
    for seed in range(200):
        for measured in (False, True):
            for mode in ("enumerate", "sample"):
                circuit = random_circuit(random.Random(seed), measured=measured)
                for proof in circuit_to_proof(circuit, mode, seed):
                    yield render_script(proof, f"c{seed}")
    yield render_script(_colliding_labels_tree(), "collide")


# Taken from the renderer that walked the tree twice, once to name the
# bindings and once to write them: the golden scripts, then 1351 proofs of
# translated random circuits, then the tree of colliding labels.
def test_render_script_output_is_pinned():
    digest = hashlib.sha256()
    for text in _render_script_sources():
        digest.update(text.encode())
    assert digest.hexdigest() == (
        "9b0d9930aef1970628c1b99ef015b1f52d8cdefbb1d0be1bdba987bb2b0dc3ab"
    )


def test_sequent_text_forms():
    proof = load_golden("bell_00.qmc")
    assert sequent_text(proof.conclusion) == (
        "(1/sqrt2)|00> + (1/sqrt2)|11> |-[1/2] |00>"
    )
    born = proof.premises[0]
    assert sequent_text(born.conclusion) == (
        "(1/sqrt2)|00> + (1/sqrt2)|11> => (1/2)|00> + (1/2)|11>"
    )


def test_a_latex_pass_formats_each_distinct_born_weight_once(monkeypatch):
    # A measured 9-wire circuit with one weight for its 512 outcomes: the
    # Born node formats it once and the measured node its probability once.
    from qmc.amplitude import ExactReal
    from qmc.translate import Circuit

    ops = [GateApplication(builtin(name), (w,)) for name in "HT" for w in range(9)]
    (proof,) = circuit_to_proof(Circuit(9, tuple(ops), measured=True), "sample", 5)
    expected = render_proof(proof, "latex")
    calls = []
    latex = ExactReal.latex

    def counted(self):
        calls.append(self)
        return latex(self)

    monkeypatch.setattr(ExactReal, "latex", counted)
    assert render_proof(proof, "latex") == expected
    assert len(calls) == 2
    assert r"\frac{1}{512}\ket{111111111}" in expected
