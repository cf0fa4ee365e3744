"""Front end for proof scripts (.qmc) and circuit descriptions (.qc).

Proof scripts are straight-line bindings elaborated into proof trees.  Each
binding but the last, the root, is consumed exactly once as a premise:
premises are physical resources, so consuming one twice would clone a
quantum state, and the calculus refuses weakening, so none may be dropped.
Every binding is therefore in the root's tree.  `weaken` is deliberately
part of the grammar so that its rejection is a checked error with a reason,
not a syntax error.

Both formats are UTF-8 with `#` comments.  Every parse failure carries a
1-based line and column into the original text.

A script has one lexical grammar, `_WORD_RE`, and is read at
regular-expression speed: each line, cut at its first `#`, goes through one
`findall` into plain token strings, which the parser reads by index.  The
text is lexically valid exactly when its tokens, joined, equal its cut lines
with the blanks removed; only a text that fails that test is searched, line
by line, for the first character that no token or blank holds, which raises
its error.  A binding's line and column, and an error's, are computed from
the tokens when needed.  A `Binding` and the `ProofScript` that holds them
are plain named tuples, the cheapest record to build once per binding.
Each parse builds one `GateApplication` per distinct gate and wires (in a
circuit, per distinct gate line) and shares it between the bindings or
operations that repeat it; a bad application fails where it first occurs.
An error quotes a token of more than 15 characters by its first 12 and
`...`, so its message stays one short line whatever the input.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from typing import Callable, NamedTuple

from . import calculus
from .calculus import (
    RULES,
    Ax,
    BornRule,
    Measure,
    ProofNode,
    RuleApp,
    RuleError,
    Tensor,
    Unitary,
    sequent_text,
    walk,
)
from .gates import BUILTIN_NAMES, GateApplication, builtin
from .state import BasisState, _clip
from .translate import Circuit


class SourceError(Exception):
    """A parse failure at a specific position in the input text."""

    def __init__(self, line: int, column: int, message: str, token: str = "") -> None:
        token = _clip(token)
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, column {column}: {message}"
        if token:
            where += f" (at {token!r})"
        super().__init__(where)


# ---------------------------------------------------------------------------
# Proof scripts
# ---------------------------------------------------------------------------

class Binding(NamedTuple):
    """`name = keyword operands;`: a rule and the names of its premises."""

    name: str
    rule: RuleApp
    premises: tuple[str, ...]
    line: int
    col: int


class ProofScript(NamedTuple):
    name: str
    bindings: tuple[Binding, ...]


# Each rule by keyword, with its form as (word, kind) pairs; word is "" unless
# the operand is written `word=...`.
_FORMS = {
    rule.keyword: (rule, tuple(slot.rpartition("=")[::2] for slot in rule.form))
    for rule in RULES
}
# Rule keywords, the words of `word=kind` operands, and `proof` itself.
_KEYWORDS = frozenset(
    ["proof", *_FORMS]
    + [word for _, form in _FORMS.values() for word, _ in form if word]
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")  # ASCII digits only, in both formats


def _number(text: str, line: int, column: int) -> int:
    """The value of an `_INT_RE` token; one too long for `int()` (by default
    more than 4300 digits) is a positioned error, not a traceback."""
    try:
        return int(text)
    except ValueError:
        raise SourceError(line, column, f"number too long ({len(text)} digits)", text) from None


_UNKNOWN_GATE = f"unknown gate name; expected one of {', '.join(BUILTIN_NAMES)}"


def _gate_application(
    name: str, wires: tuple[int, ...], where: Callable[[], tuple[int, int]]
) -> GateApplication:
    """The named builtin gate on the wires; a bad application (wrong arity,
    a repeated wire) is an error at the gate name, whose line and column
    `where` gives, so that only an error pays for its position."""
    try:
        return GateApplication(builtin(name), wires)
    except ValueError as err:
        raise SourceError(*where(), str(err), name) from None


def is_identifier(text: str) -> bool:
    """Whether the text can name a proof or a binding in a script."""
    return bool(_IDENT_RE.fullmatch(text)) and text not in _KEYWORDS


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

# The token alternatives: identifiers and keywords, wire numbers,
# punctuation and kets.  A token's first character tells its kind.  This is
# the script's one lexical grammar: it reads the tokens, decides whether a
# text is rejected, and positions a token or an error.
_WORD_RE = re.compile(rf"{_IDENT_RE.pattern}|{_INT_RE.pattern}|[{{}}=;\[\],]|\|[01]+>")
_IDENT_START = frozenset(string.ascii_letters + "_")
_BLANKS = " \t\r"
_NO_BLANKS = str.maketrans("", "", _BLANKS)


class _ScriptParser:
    """Reads a script's tokens, plain strings, by index.

    The tokens end in an empty one for the end of input.  Punctuation and
    keywords are matched by text alone: no other kind of token can carry
    that text, and the end's is empty, so no match ever moves past it.
    Positions are computed only for what keeps them, a binding or an error.
    """

    def __init__(self, text: str) -> None:
        self.lines = text.split("\n")
        self.tokens: list[str] = []
        self.starts: list[int] = []  # the index of each line's first token
        # The token columns of each line asked about a token past its first.
        self.columns: dict[int, list[int]] = {}
        codes: list[str] = []  # each line cut at its first '#'
        tokens, starts, findall = self.tokens, self.starts, _WORD_RE.findall
        for code in self.lines:
            starts.append(len(tokens))
            if "#" in code:  # a comment: no token holds a '#'
                code = code[: code.index("#")]
            codes.append(code)
            tokens += findall(code)
        # Valid exactly when the tokens hold every character but blanks.
        if "".join(tokens) != "".join(codes).translate(_NO_BLANKS):
            raise self.reject(codes)
        tokens.append("")
        self.pos = 0
        # One GateApplication per distinct (gate, wires) in this script.
        self.apps: dict[tuple[str, tuple[int, ...]], GateApplication] = {}

    def reject(self, codes: list[str]) -> SourceError:
        """The error at the first character of the cut lines that no token
        or blank holds, looked for in the first line that has one."""
        tokens, starts = self.tokens, self.starts + [len(self.tokens)]
        n = next(
            n
            for n, code in enumerate(codes)
            if "".join(tokens[starts[n] : starts[n + 1]]) != code.translate(_NO_BLANKS)
        )
        code, at = codes[n], 0
        for m in _WORD_RE.finditer(code):
            if code[at : m.start()].strip(_BLANKS):
                break
            at = m.end()
        c = len(code) - len(code[at:].lstrip(_BLANKS))  # that character's offset
        line = self.lines[n]
        if line[c] != "|":
            return SourceError(n + 1, c + 1, "unexpected character", line[c])
        # A '|' that starts no ket is quoted with its digits and the
        # character that stopped them, a newline at the end of a line.
        if n + 1 < len(self.lines):
            line += "\n"
        end = len(line) - len(line[c + 1 :].lstrip("01"))
        if end == len(line) and end > c + 1:  # digits up to the end of input
            return SourceError(n + 1, c + 1, "unterminated ket", line[c:])
        return SourceError(n + 1, c + 1, "ket digits must be 0 or 1", line[c : end + 1])

    def line(self, i: int) -> int:
        """The 1-based line of token i."""
        return bisect_right(self.starts, i)

    def column(self, i: int, line: int) -> int:
        """The 1-based column of token i; the end of input's is one past the
        last line's code."""
        code = self.lines[line - 1]
        if not self.tokens[i]:
            return len(code.split("#", 1)[0]) + 1
        k = i - self.starts[line - 1]
        if k == 0:
            return _WORD_RE.search(code).start() + 1
        columns = self.columns.get(line)
        if columns is None:
            columns = self.columns[line] = [m.start() + 1 for m in _WORD_RE.finditer(code)]
        return columns[k]

    def position(self, i: int) -> tuple[str, int, int]:
        """Token i's text, line and column."""
        line = self.line(i)
        return self.tokens[i], line, self.column(i, line)

    def fail(self, message: str, i: int | None = None) -> SourceError:
        """The error at token i, by default the next one."""
        text, line, col = self.position(self.pos if i is None else i)
        return SourceError(line, col, message, text)

    def expect(self, text: str) -> None:
        """Consume the next token, which must be the given punctuation or
        keyword."""
        if self.tokens[self.pos] != text:
            raise self.fail(f"expected {text!r}")
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _IDENT_START:
            raise self.fail(f"expected {what}")
        if tok in _KEYWORDS:
            raise self.fail(f"{tok!r} is a reserved word")
        self.pos += 1
        return tok

    def parse(self) -> ProofScript:
        self.expect("proof")
        name = self.expect_ident("a proof name")
        self.expect("{")
        bindings: list[Binding] = []
        bound: set[str] = set()
        consumed: set[str] = set()
        tokens = self.tokens
        while tokens[self.pos] != "}":
            i = self.pos
            bind = self.expect_ident("a binding name")
            if bind in bound:
                raise self.fail(f"identifier {_clip(bind)!r} is bound twice", i)
            self.expect("=")
            rule, premises = self.parse_rule(bound, consumed)
            self.expect(";")
            bound.add(bind)
            line = self.line(i)
            bindings.append(Binding(bind, rule, premises, line, self.column(i, line)))
        close = self.pos
        self.expect("}")
        if not bindings:
            raise self.fail("a proof needs at least one binding", close)
        if tokens[self.pos]:
            raise self.fail("unexpected input after closing '}'")
        # The root, bound last, is the one binding nothing can consume.
        if len(consumed) < len(bindings) - 1:
            unused = next(b for b in bindings if b.name not in consumed)
            raise SourceError(
                unused.line,
                unused.col,
                f"binding {_clip(unused.name)!r} is never consumed",
                unused.name,
            )
        return ProofScript(name, tuple(bindings))

    def parse_rule(
        self, bound: set[str], consumed: set[str]
    ) -> tuple[RuleApp, tuple[str, ...]]:
        """A rule keyword and its operands, read as the rule's form says."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok not in _FORMS:
            raise self.fail("expected a rule expression")
        self.pos += 1
        rule, form = _FORMS[tok]
        fields: list[object] = []
        premises: list[str] = []
        for word, kind in form:
            if word:
                self.expect(word)
                self.expect("=")
            if kind == "premise":
                i = self.pos
                premise = self.expect_ident("a premise identifier")
                if premise not in bound:
                    raise self.fail(f"unbound identifier {_clip(premise)!r}", i)
                if premise in consumed:
                    raise self.fail(
                        f"identifier {_clip(premise)!r} already consumed; premises are "
                        "linear resources",
                        i,
                    )
                consumed.add(premise)
                premises.append(premise)
            elif kind == "ket":
                tok = tokens[self.pos]
                if tok[:1] != "|":
                    raise self.fail("expected a ket like |01>")
                self.pos += 1
                fields.append(BasisState(tok[1:-1]))
            else:
                fields.append(self.parse_gate())
        return rule(*fields), tuple(premises)

    def parse_gate(self) -> GateApplication:
        i = self.pos
        gate = self.tokens[i]
        if gate not in BUILTIN_NAMES:
            raise self.fail(_UNKNOWN_GATE)
        self.pos += 1
        self.expect("[")
        wires = [self._wire()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            wires.append(self._wire())
        self.expect("]")
        key = (gate, tuple(wires))
        app = self.apps.get(key)
        if app is None:
            app = self.apps[key] = _gate_application(
                gate, key[1], lambda: self.position(i)[1:]
            )
        return app

    def _wire(self) -> int:
        tok = self.tokens[self.pos]
        if not tok[:1].isdigit():
            raise self.fail("expected a wire index")
        try:
            wire = int(tok)
        except ValueError:  # too long for int(): `_number` raises the error
            return _number(*self.position(self.pos))
        self.pos += 1
        return wire


def parse_proof(text: str) -> ProofScript:
    """Parse a proof script, validating binding order and linearity: every
    binding but the root is consumed exactly once."""
    return _ScriptParser(text).parse()


# ---------------------------------------------------------------------------
# Elaboration: script -> proof tree
# ---------------------------------------------------------------------------

class ElaborationError(Exception):
    """A rule application failed while building the proof tree.

    Carries the offending binding and every node elaborated before it, so
    callers can report per-binding verdicts up to the failure.
    """

    def __init__(
        self, binding: Binding, cause: Exception, completed: list[tuple[str, ProofNode]]
    ) -> None:
        self.binding = binding
        self.cause = cause
        self.completed = completed
        super().__init__(
            f"line {binding.line}: binding {binding.name!r}: "
            f"{type(cause).__name__}: {cause}"
        )


def elaborate(script: ProofScript) -> ProofNode:
    """Build the proof tree rooted at the final binding.

    A standalone `prep |x>` becomes an assumption leaf: its conclusion is
    taken as the recorded outcome of a measurement not shown in this script.
    """
    return elaborate_bindings(script)[-1][1]


def elaborate_bindings(script: ProofScript) -> list[tuple[str, ProofNode]]:
    """Each binding's name and node, in script order, as `elaborate` builds
    them; the last node is the root, and every other one lies under it."""
    nodes: dict[str, ProofNode] = {}
    completed: list[tuple[str, ProofNode]] = []
    for b in script.bindings:
        premises = tuple(nodes[name] for name in b.premises)
        try:
            node = ProofNode.derive(b.rule, premises, b.name)
        except (RuleError, ValueError) as cause:
            raise ElaborationError(b, cause, completed) from cause
        nodes[b.name] = node
        completed.append((b.name, node))
    return completed


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_proof(p: ProofNode, format: str = "ascii") -> str:
    """Render a proof tree for display, as an indented ascii tree or as
    inference-style prooftree markup."""
    texts: dict = {}  # the pass's rendering memo, in its one format
    if format == "ascii":
        lines: list[str] = []
        depth = 0
        for node, _, entering in walk(p):
            if entering:
                text = sequent_text(node.conclusion, texts) + f"  [{node.rule.label()}]"
                lines.append("  " * depth + text)
            depth += 1 if entering else -1
    elif format == "latex":
        lines = [r"\begin{prooftree}"]
        for node, _, entering in walk(p):
            if not entering:
                _latex(node, lines, texts)
        lines.append(r"\end{prooftree}")
    else:
        raise ValueError(f"unknown render format: {format}")
    return "\n".join(lines) + "\n"


def _latex_sequent(seq: calculus.Sequent, texts: dict) -> str:
    state = seq.state.latex(texts)
    if isinstance(seq, calculus.Coherent):
        return state + r" \Rightarrow"
    if isinstance(seq, calculus.BornAnnotated):
        return state + r" \Rightarrow " + seq.dist.latex(texts)
    return state + r" \vdash_{%s} \ket{%s}" % (seq.prob.latex(), seq.outcome.bits)


def _latex(node: ProofNode, lines: list[str], texts: dict) -> None:
    """Append one node's lines, which follow those of its premises; texts is
    the pass's rendering memo."""
    conclusion = r"$%s$" % _latex_sequent(node.conclusion, texts)
    if node.is_assumption:
        lines.append(r"\AxiomC{%s}" % conclusion)
        return
    if not node.premises:
        lines.append(r"\AxiomC{}")
    lines.append(r"\RightLabel{$%s$}" % node.rule.latex())
    inference = r"\BinaryInfC" if len(node.premises) == 2 else r"\UnaryInfC"
    lines.append(inference + "{%s}" % conclusion)


def render_script(p: ProofNode, name: str = "main") -> str:
    """Render a proof tree back to canonical script text.

    Binding labels are kept when present and valid; generated names fill the
    gaps.  Preparation nodes with a premise have no script form, because the
    grammar's `prep` is an assumption leaf.
    """
    names: dict[int, str] = {}
    used: set[str] = set()  # one name per node left so far
    lines = [f"proof {name} {{"]
    for node, _, entering in walk(p):
        if entering:
            continue
        chosen = node.label
        if not (chosen and chosen not in used and is_identifier(chosen)):
            k = len(used)
            while f"s{k}" in used:
                k += 1
            chosen = f"s{k}"
        names[id(node)] = chosen
        used.add(chosen)
        expr = _script_expr(node.rule, [names[id(q)] for q in node.premises])
        lines.append(f"  {chosen} = {expr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def script_writer(c: Circuit) -> Callable[[str, BasisState | None], str]:
    """The writer of the scripts that translate c, straight from the circuit.

    `script_writer(c)(name, outcome)` is the text that `render_script` gives
    the proof of `circuit_to_proof(c)` that measures outcome (None when c is
    unmeasured), under that proof name.  The proof's shape depends on the
    circuit alone: one axiom per wire, left-associated tensors, one gate step
    per gate, then `born` and `measure`.  So each binding is written from its
    rule and premise names, with the name `s<postorder index>` that an
    unlabeled tree gets, and no state is computed.  The bindings up to the
    Born annotation are written once; each outcome adds its header and its
    measurement.
    """
    ax = _script_expr(Ax(), [])
    lines = [f"  s0 = {ax};\n"]
    for k in range(2, 2 * c.width, 2):  # the tensor s<k> takes s<k-2> and s<k-1>
        lines.append(f"  s{k - 1} = {ax};\n")
        lines.append(f"  s{k} = {_script_expr(Tensor(), [f's{k - 2}', f's{k - 1}'])};\n")
    k = 2 * c.width - 2  # the register's last step so far
    for op in c.ops:
        lines.append(f"  s{k + 1} = {_script_expr(Unitary(op), [f's{k}'])};\n")
        k += 1
    if c.measured:
        lines.append(f"  s{k + 1} = {_script_expr(BornRule(), [f's{k}'])};\n")
    body = "".join(lines)

    def write(name: str, outcome: BasisState | None) -> str:
        if outcome is None:
            return f"proof {name} {{\n{body}}}\n"
        measure = _script_expr(Measure(outcome), [f"s{k + 1}"])
        return f"proof {name} {{\n{body}  s{k + 2} = {measure};\n}}\n"

    return write


def _script_expr(rule: RuleApp, premise_names: list[str]) -> str:
    """The rule's keyword and operands, as its form in `_FORMS` says."""
    premises = iter(premise_names)
    values = iter(vars(rule).values())  # the rule's fields, in order
    parts = [rule.keyword]
    for word, kind in _FORMS[rule.keyword][1]:
        if kind == "premise":
            text = next(premises)
        elif kind == "ket":
            text = str(next(values))
        else:
            text = next(values).label()
        parts.append(f"{word}={text}" if word else text)
    if next(premises, None) is not None:
        raise ValueError(
            "a preparation step with a premise has no script form; the "
            "grammar's prep is an assumption leaf"
        )
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Circuit format
# ---------------------------------------------------------------------------

_FIELD_RE = re.compile(r"\S+")

# The widest register a circuit header may ask for, checked before anything
# of that width is built: `qubits 3000000000` would otherwise exhaust memory
# on |0...0> alone, long before reporting anything.
MAX_QUBITS = 1 << 16


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    A `qubits N` header with 1 <= N <= MAX_QUBITS, one gate application per
    line, and an optional final `measure`.  Wire indices are checked against
    the header immediately.
    """
    width: int | None = None
    ops: list[GateApplication] = []
    # One GateApplication per distinct gate line, keyed by its words: a line
    # seen before was valid, or parsing would have stopped there.
    # `str.split` and `_FIELD_RE` cut at the same (Unicode) whitespace.
    apps: dict[tuple[str, ...], GateApplication] = {}
    measured = False
    # Only "\n" ends a line, as in a script, so a comment runs to it; any
    # other line break `str.splitlines` knows, "\r" too, is a blank.
    for lineno, raw in enumerate(text.split("\n"), 1):
        code = raw.split("#", 1)[0]
        words = tuple(code.split())
        if not words:
            continue
        app = apps.get(words)
        if app is not None and not measured:
            ops.append(app)
            continue
        fields = [(m.group(), m.start() + 1) for m in _FIELD_RE.finditer(code)]
        head, head_col = fields[0]
        if width is None:
            if head != "qubits":
                raise SourceError(lineno, head_col, "expected a 'qubits N' header", head)
            if len(fields) != 2 or not _INT_RE.fullmatch(fields[1][0]):
                raise SourceError(
                    lineno, head_col, "expected 'qubits N' with a single count", head
                )
            width = _number(fields[1][0], lineno, fields[1][1])
            if width < 1:
                raise SourceError(
                    lineno, fields[1][1], "qubit count must be at least 1", fields[1][0]
                )
            if width > MAX_QUBITS:
                raise SourceError(
                    lineno,
                    fields[1][1],
                    f"qubit count must be at most {MAX_QUBITS}",
                    fields[1][0],
                )
            continue
        if measured:
            raise SourceError(
                lineno, head_col, "no operations are allowed after measure", head
            )
        if head == "measure":
            if len(fields) != 1:
                raise SourceError(
                    lineno, fields[1][1], "measure takes no arguments", fields[1][0]
                )
            measured = True
            continue
        if head not in BUILTIN_NAMES:
            raise SourceError(lineno, head_col, _UNKNOWN_GATE, head)
        wires = []
        for text_w, col_w in fields[1:]:
            if not _INT_RE.fullmatch(text_w):
                raise SourceError(lineno, col_w, "expected a wire index", text_w)
            wire = _number(text_w, lineno, col_w)
            try:
                Circuit.check_wire(wire, width)
            except ValueError as err:
                raise SourceError(lineno, col_w, str(err), text_w) from None
            wires.append(wire)
        app = apps[words] = _gate_application(head, tuple(wires), lambda: (lineno, head_col))
        ops.append(app)
    if width is None:
        raise SourceError(1, 1, "empty circuit description; expected 'qubits N'")
    return Circuit(width, tuple(ops), measured)


def render_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.width}"]
    for op in c.ops:
        lines.append(op.gate.name + " " + " ".join(str(w) for w in op.wires))
    if c.measured:
        lines.append("measure")
    return "\n".join(lines) + "\n"
