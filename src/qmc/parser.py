"""Front end for proof scripts (.qmc) and circuit descriptions (.qc).

Proof scripts are straight-line bindings elaborated into proof trees.  Each
binding may be consumed at most once as a premise: premises are physical
resources, and consuming one twice would clone a quantum state.  `weaken` is
deliberately part of the grammar so that its rejection is a checked error
with a reason, not a syntax error.

Both formats are UTF-8 with `#` comments.  Every parse failure carries a
1-based line and column into the original text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import calculus
from .calculus import RULES, ProofNode, RuleApp, RuleError, sequent_text
from .gates import BUILTIN_NAMES, GateApplication, builtin
from .state import BasisState
from .translate import Circuit


class SourceError(Exception):
    """A parse failure at a specific position in the input text."""

    def __init__(self, line: int, column: int, message: str, token: str = "") -> None:
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

@dataclass(frozen=True)
class Binding:
    """`name = keyword operands;`: a rule and the names of its premises."""

    name: str
    rule: RuleApp
    premises: tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class ProofScript:
    name: str
    bindings: tuple[Binding, ...]


_RULES = {rule.keyword: rule for rule in RULES}
# Rule keywords, the words of `word=kind` operands, and `proof` itself.
_KEYWORDS = frozenset(
    ["proof", *_RULES]
    + [slot.split("=")[0] for rule in RULES for slot in rule.form if "=" in slot]
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")  # ASCII digits only, in both formats


def is_identifier(text: str) -> bool:
    """Whether the text can name a proof or a binding in a script."""
    return bool(_IDENT_RE.fullmatch(text)) and text not in _KEYWORDS


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT INT KET PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT = "{}=;[],"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "|":
            j = i + 1
            while j < n and text[j] in "01":
                j += 1
            if j == i + 1:
                bad = text[i : j + 1]
                raise SourceError(
                    start_line, start_col, "ket digits must be 0 or 1", bad
                )
            if j >= n or text[j] != ">":
                bad = text[i : min(j + 1, n)]
                message = (
                    "ket digits must be 0 or 1"
                    if j < n
                    else "unterminated ket"
                )
                raise SourceError(start_line, start_col, message, bad)
            tokens.append(_Token("KET", text[i : j + 1], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        for kind, pattern in (("INT", _INT_RE), ("IDENT", _IDENT_RE)):
            m = pattern.match(text, i)
            if m:
                tokens.append(_Token(kind, m.group(), start_line, start_col))
                col += m.end() - i
                i = m.end()
                break
        else:
            raise SourceError(start_line, start_col, "unexpected character", ch)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _ScriptParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> SourceError:
        tok = tok or self.peek()
        return SourceError(tok.line, tok.col, message, tok.text)

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != ch:
            raise self.fail(f"expected {ch!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise self.fail(f"expected {word!r}")
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"expected {what}")
        if tok.text in _KEYWORDS:
            raise self.fail(f"{tok.text!r} is a reserved word", tok)
        return self.advance()

    def expect_ket(self) -> _Token:
        tok = self.peek()
        if tok.kind != "KET":
            raise self.fail("expected a ket like |01>")
        return self.advance()

    def parse(self) -> ProofScript:
        self.expect_keyword("proof")
        name = self.expect_ident("a proof name").text
        self.expect_punct("{")
        bindings: list[Binding] = []
        bound: set[str] = set()
        consumed: set[str] = set()

        def use(tok: _Token) -> str:
            if tok.text not in bound:
                raise self.fail(f"unbound identifier {tok.text!r}", tok)
            if tok.text in consumed:
                raise self.fail(
                    f"identifier {tok.text!r} already consumed; premises are "
                    "linear resources",
                    tok,
                )
            consumed.add(tok.text)
            return tok.text

        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            name_tok = self.expect_ident("a binding name")
            if name_tok.text in bound:
                raise self.fail(
                    f"identifier {name_tok.text!r} is bound twice", name_tok
                )
            self.expect_punct("=")
            rule, premises = self.parse_rule(use)
            self.expect_punct(";")
            bound.add(name_tok.text)
            bindings.append(
                Binding(name_tok.text, rule, premises, name_tok.line, name_tok.col)
            )
        close = self.expect_punct("}")
        if not bindings:
            raise SourceError(
                close.line, close.col, "a proof needs at least one binding", "}"
            )
        tail = self.peek()
        if tail.kind != "EOF":
            raise self.fail("unexpected input after closing '}'", tail)
        return ProofScript(name, tuple(bindings))

    def parse_rule(self, use) -> tuple[RuleApp, tuple[str, ...]]:
        """A rule keyword and its operands, read as the rule's form says."""
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text not in _RULES:
            raise self.fail("expected a rule expression", tok)
        self.advance()
        rule = _RULES[tok.text]
        fields: list[object] = []
        premises: list[str] = []
        for slot in rule.form:
            word, _, kind = slot.rpartition("=")
            if word:
                self.expect_keyword(word)
                self.expect_punct("=")
            if kind == "premise":
                premises.append(use(self.expect_ident("a premise identifier")))
            elif kind == "ket":
                fields.append(BasisState(self.expect_ket().text[1:-1]))
            else:
                fields.append(self.parse_gate())
        return rule(*fields), tuple(premises)

    def parse_gate(self) -> GateApplication:
        gate_tok = self.peek()
        if gate_tok.kind != "IDENT" or gate_tok.text not in BUILTIN_NAMES:
            raise self.fail(
                f"unknown gate name; expected one of {', '.join(BUILTIN_NAMES)}",
                gate_tok,
            )
        self.advance()
        self.expect_punct("[")
        wires = [self._wire()]
        while self.peek().kind == "PUNCT" and self.peek().text == ",":
            self.advance()
            wires.append(self._wire())
        self.expect_punct("]")
        try:
            return GateApplication(builtin(gate_tok.text), tuple(wires))
        except ValueError as err:
            raise self.fail(str(err), gate_tok) from None

    def _wire(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise self.fail("expected a wire index")
        self.advance()
        return int(tok.text)


def parse_proof(text: str) -> ProofScript:
    """Parse a proof script, validating binding order and linearity."""
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
        self,
        binding: Binding,
        index: int,
        cause: Exception,
        completed: list[tuple[str, ProofNode]],
    ) -> None:
        self.binding = binding
        self.index = index
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
    nodes: dict[str, ProofNode] = {}
    completed: list[tuple[str, ProofNode]] = []
    for index, b in enumerate(script.bindings):
        premises = tuple(nodes[name] for name in b.premises)
        try:
            node = ProofNode.derive(b.rule, premises, b.name)
        except (RuleError, ValueError) as cause:
            raise ElaborationError(b, index, cause, completed) from cause
        nodes[b.name] = node
        completed.append((b.name, node))
    return nodes[script.bindings[-1].name]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_proof(p: ProofNode, format: str = "ascii") -> str:
    """Render a proof tree for display, as an indented ascii tree or as
    inference-style prooftree markup."""
    if format == "ascii":
        lines: list[str] = []
        _ascii(p, 0, lines)
        return "\n".join(lines) + "\n"
    if format == "latex":
        lines = [r"\begin{prooftree}"]
        _latex(p, lines)
        lines.append(r"\end{prooftree}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown render format: {format}")


def _ascii(node: ProofNode, depth: int, lines: list[str]) -> None:
    lines.append(
        "  " * depth + sequent_text(node.conclusion) + f"  [{node.rule.label()}]"
    )
    for prem in node.premises:
        _ascii(prem, depth + 1, lines)


def _latex_sequent(seq: calculus.Sequent) -> str:
    if isinstance(seq, calculus.Coherent):
        return seq.state.latex() + r" \Rightarrow"
    if isinstance(seq, calculus.BornAnnotated):
        return seq.state.latex() + r" \Rightarrow " + seq.dist.latex()
    return (
        seq.state.latex()
        + r" \vdash_{%s} \ket{%s}" % (seq.prob.latex(), seq.outcome.bits)
    )


def _latex(node: ProofNode, lines: list[str]) -> None:
    conclusion = r"$%s$" % _latex_sequent(node.conclusion)
    if node.is_assumption:
        lines.append(r"\AxiomC{%s}" % conclusion)
        return
    for prem in node.premises:
        _latex(prem, lines)
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
    order: list[ProofNode] = []

    def walk(node: ProofNode) -> None:
        for prem in node.premises:
            walk(prem)
        order.append(node)

    walk(p)
    names: dict[int, str] = {}
    used: set[str] = set()
    for i, node in enumerate(order):
        label = node.label
        if label and label not in used and is_identifier(label):
            chosen = label
        else:
            k = i
            while f"s{k}" in used:
                k += 1
            chosen = f"s{k}"
        names[id(node)] = chosen
        used.add(chosen)

    lines = [f"proof {name} {{"]
    for node in order:
        lines.append(f"  {names[id(node)]} = {_script_expr(node, names)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _script_expr(node: ProofNode, names: dict[int, str]) -> str:
    rule = node.rule
    if len(node.premises) != rule.form.count("premise"):
        raise ValueError(
            "a preparation step with a premise has no script form; the "
            "grammar's prep is an assumption leaf"
        )
    premises = iter(names[id(prem)] for prem in node.premises)
    values = iter(vars(rule).values())  # the rule's fields, in order
    parts = [rule.keyword]
    for slot in rule.form:
        word, eq, kind = slot.rpartition("=")
        if kind == "premise":
            text = next(premises)
        elif kind == "ket":
            text = str(next(values))
        else:
            text = next(values).label()
        parts.append(word + eq + text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Circuit format
# ---------------------------------------------------------------------------

def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    A `qubits N` header, one gate application per line, and an optional final
    `measure`.  Wire indices are checked against the header immediately.
    """
    width: int | None = None
    ops: list[GateApplication] = []
    measured = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        fields = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]
        if not fields:
            continue
        head, head_col = fields[0]
        if width is None:
            if head != "qubits":
                raise SourceError(lineno, head_col, "expected a 'qubits N' header", head)
            if len(fields) != 2 or not _INT_RE.fullmatch(fields[1][0]):
                raise SourceError(
                    lineno, head_col, "expected 'qubits N' with a single count", head
                )
            width = int(fields[1][0])
            if width < 1:
                raise SourceError(
                    lineno, fields[1][1], "qubit count must be at least 1", fields[1][0]
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
            raise SourceError(
                lineno,
                head_col,
                f"unknown gate name; expected one of {', '.join(BUILTIN_NAMES)}",
                head,
            )
        wires = []
        for text_w, col_w in fields[1:]:
            if not _INT_RE.fullmatch(text_w):
                raise SourceError(lineno, col_w, "expected a wire index", text_w)
            try:
                Circuit.check_wire(int(text_w), width)
            except ValueError as err:
                raise SourceError(lineno, col_w, str(err), text_w) from None
            wires.append(int(text_w))
        try:
            ops.append(GateApplication(builtin(head), tuple(wires)))
        except ValueError as err:
            raise SourceError(lineno, head_col, str(err), head) from None
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
