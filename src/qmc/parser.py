"""Front end for proof scripts (.qmc) and circuit descriptions (.qc).

Proof scripts are straight-line bindings.  Each binding but the last, the
root, is consumed exactly once as a premise: premises are physical
resources, so consuming one twice would clone a quantum state, and the
calculus refuses weakening, so none may be dropped.  Every binding is
therefore in the root's tree.  `weaken` is deliberately part of the grammar
so that its rejection is a checked error with a reason, not a syntax error.

`derive_bindings` derives the bindings in script order, each through
`calculus.apply_rule`, and drops each premise's conclusion once its
consumer is derived, so a pass holds only the live conclusions; `check`
prints each of them, and `elaborate` and `elaborate_bindings` build the
proof tree over it.  `conclude`, behind `dist` and `translate --to circuit`
of a script, needs only the root's conclusion.  It makes the same pass, but
runs each chain of gate steps as a circuit segment through
`translate.run_gates`, the kernel loop of `translate.final_state`, with one
sorted state per chain instead of one per gate; every binding that can
fail still goes through `apply_rule`.  `translate --to circuit` then reads
the circuit off the bindings themselves, in script order, through
`translate.steps_to_circuit`, with no tree.

A circuit's proof has a fixed shape, so two writers work from the circuit
without a tree: `script_writer`, behind `translate --to proof`, writes its
scripts, and `sampled_rows`, behind `run` of a circuit, its sampled proof's
ascii rows, from the state after each gate, derived once in circuit order.
Those rows and `proof_rows`' ascii rows share one row format, `_ascii_row`.

Both formats are UTF-8 with `#` comments.  Every parse failure carries a
1-based line and column into the original text.

A script has one lexical grammar, `_WORD_RE`, and is read in two passes of
C-level string methods and one binding loop.  The first pass cuts each line
at its first `#`, spaces out the punctuation and splits the lines at blanks
into pieces, and checks every distinct piece in one `findall` (`_rows`);
only a piece that is not one token is read with its own `findall`.  The
second tests that the text is lexically valid: exactly when its tokens,
joined, equal its cut lines with the blanks removed.  Only a text that
fails that test is searched, line by line, for the first character that no
token or blank holds, which raises its error.  The parser reads the plain
token strings by index, a binding at a time in one inline loop.  A
binding's line and column, and an error's, are computed from the tokens
when needed.  A `Binding` and the `ProofScript` that holds them are plain
named tuples, the cheapest record to build once per binding.  Each parse
builds one `GateApplication` per distinct gate and wires (in a circuit, per
distinct gate line) and shares it between the bindings or operations that
repeat it, in a script with the one gate rule on it; a bad application
fails where it first occurs.
An error quotes a token of more than 15 characters by its first 12 and
`...`, so its message stays one short line whatever the input.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import Callable, Iterator, NamedTuple

from . import calculus, dense, translate
from .amplitude import PACKED_ONE
from .calculus import (
    RULES,
    Ax,
    BornRule,
    Coherent,
    Measure,
    Measured,
    ProofNode,
    RuleApp,
    RuleError,
    Sequent,
    Tensor,
    Unitary,
    sample_outcome,
    sequent_text,
    walk,
)
from .gates import BUILTIN_NAMES, GateApplication, builtin
from .gates import apply as apply_gate
from .state import BasisState, Superposition, _clip
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
_PUNCTUATION = "{}=;[],"  # each a token of one character
_WORD_RE = re.compile(
    rf"{_IDENT_RE.pattern}|{_INT_RE.pattern}|[{re.escape(_PUNCTUATION)}]|\|[01]+>"
)
_IDENT_START = frozenset(string.ascii_letters + "_")
_BLANKS = " \t\r"
_NO_BLANKS = str.maketrans("", "", _BLANKS)
_BLANKS_TO_SPACES = str.maketrans(_BLANKS, " " * len(_BLANKS))


# The most lines lexed at once, so that the lexer's copies of the text (the
# spaced lines, their pieces, the distinct pieces) are one block's size.
_BLOCK = 4096


def _rows(codes: list[str]) -> list[list[str]]:
    """The tokens of each line of code, as `_WORD_RE.findall` reads it.

    Each line's pieces are its code split at blanks, with each punctuation
    mark spaced out first.  No token holds a blank or a punctuation mark but
    the mark itself, so a line's tokens are its pieces' tokens, in order, and
    a piece is almost always one token.  Every distinct piece is one token
    exactly when one `findall` over them, a line each, gives them back;
    otherwise each piece that is not among the tokens it gives is read with
    its own `findall`.
    """
    spaced = "\n".join(codes)
    for mark in _PUNCTUATION:
        spaced = spaced.replace(mark, f" {mark} ")
    rows = list(map(str.split, spaced.split("\n")))
    pieces = list(set(chain.from_iterable(rows)))
    words = _WORD_RE.findall("\n".join(pieces))
    if words != pieces:
        odd = set(pieces).difference(words)
        for n, row in enumerate(rows):
            if not odd.isdisjoint(row):
                rows[n] = [w for p in row for w in (_WORD_RE.findall(p) if p in odd else (p,))]
    return rows


class _ScriptParser:
    """Reads a script's tokens, plain strings, by index.

    The tokens end in an empty one for the end of input.  Punctuation and
    keywords are matched by text alone: no other kind of token can carry
    that text, and the end's is empty, so no match ever moves past it.
    Positions are computed only for what keeps them, a binding or an error.
    """

    def __init__(self, text: str) -> None:
        self.lines = text.split("\n")
        codes = self.lines  # each line cut at its first '#'
        if "#" in text:  # a comment: no token holds a '#'
            codes = [code.partition("#")[0] for code in codes]
        tokens: list[str] = []
        starts: list[int] = []  # the index of each line's first token
        for k in range(0, len(codes), _BLOCK):
            rows = _rows(codes[k : k + _BLOCK])
            starts += accumulate(map(len, rows[:-1]), initial=len(tokens))
            tokens += chain.from_iterable(rows)
        self.tokens = tokens
        self.starts = starts
        # The token columns of each line asked about a token past its first.
        self.columns: dict[int, list[int]] = {}
        # Valid exactly when the tokens hold every character but blanks.
        if "".join(tokens) != "".join(codes).translate(_NO_BLANKS):
            raise self.reject(codes)
        tokens.append("")
        self.pos = 0
        # One gate rule, on one GateApplication, per distinct (gate, wires)
        # in this script.
        self.apps: dict[tuple[str, tuple[int, ...]], Unitary] = {}

    def reject(self, codes: list[str]) -> SourceError:
        """The error at the first character of the cut lines that no token
        or blank holds, looked for in the first line that has one."""
        tokens, starts = self.tokens, self.starts + [len(self.tokens)]
        for n, code in enumerate(codes):
            solid = code.translate(_NO_BLANKS)
            joined = "".join(tokens[starts[n] : starts[n + 1]])
            if joined != solid:
                break
        # The line without blanks and its tokens joined agree up to its first
        # bad character, at offset `at`, and differ there unless that is a
        # '|' and the next token a ket, whose first digit (never bad) then
        # meets the '|' or bad character that follows.  So the prefixes agree
        # up to a length that `bisect` finds by C-level comparisons, and only
        # a '|' before it is stepped back over.
        agree = bisect_left(
            range(len(joined) + 1), True, key=lambda m: not solid.startswith(joined[:m])
        ) - 1
        at = agree - (agree > 0 and joined[agree - 1] == "|")
        # Its offset in the line: the first whose prefix, with its blanks
        # counted by C-level `count`, holds at + 1 characters that are not.
        spaced = code.translate(_BLANKS_TO_SPACES)
        c = bisect_left(
            range(len(code)), at + 1, key=lambda i: i + 1 - spaced.count(" ", 0, i + 1)
        )
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
        if k == 0:  # only blanks come before a line's first token
            return len(code) - len(code.lstrip(_BLANKS)) + 1
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
        """The header, then each binding in one pass over the tokens by
        index, with its rule read as the rule's form says.  Where an inline
        test fails, `expect`, `expect_ident` or `fail` is called at that
        token, and raises its error."""
        self.expect("proof")
        name = self.expect_ident("a proof name")
        self.expect("{")
        tokens, lines, starts, apps = self.tokens, self.lines, self.starts, self.apps
        ends = starts[1:] + [len(tokens)]  # past each line's last token
        bindings: list[Binding] = []
        record = tuple.__new__  # a Binding without its __new__'s Python frame
        bound: set[str] = set()
        consumed: set[str] = set()
        i, n = self.pos, 0  # a binding's first token; a cursor on the 0-based lines
        while (bind := tokens[i]) != "}":
            if bind[:1] not in _IDENT_START or bind in _KEYWORDS:
                self.pos = i
                self.expect_ident("a binding name")
            if bind in bound:
                raise self.fail(f"identifier {_clip(bind)!r} is bound twice", i)
            if tokens[i + 1] != "=":
                self.pos = i + 1
                self.expect("=")
            entry = _FORMS.get(tokens[i + 2])
            if entry is None:
                raise self.fail("expected a rule expression", i + 2)
            rule, form = entry
            made: RuleApp | None = None  # the binding's rule, once made
            fields: list[object] = []
            premises: list[str] = []
            j = i + 3
            for word, kind in form:
                if word:
                    if tokens[j] != word or tokens[j + 1] != "=":
                        self.pos = j
                        self.expect(word)
                        self.expect("=")
                    j += 2
                tok = tokens[j]
                if kind == "premise":
                    if tok not in bound:  # a bound name is an identifier
                        self.pos = j
                        self.expect_ident("a premise identifier")
                        raise self.fail(f"unbound identifier {_clip(tok)!r}", j)
                    if tok in consumed:
                        raise self.fail(
                            f"identifier {_clip(tok)!r} already consumed; premises are "
                            "linear resources",
                            j,
                        )
                    consumed.add(tok)
                    premises.append(tok)
                elif kind == "ket":
                    if tok[:1] != "|":
                        raise self.fail("expected a ket like |01>", j)
                    fields.append(BasisState(tok[1:-1]))
                else:  # a gate and its wires, `name [w, ...]`
                    at = j
                    if tok not in BUILTIN_NAMES:
                        raise self.fail(_UNKNOWN_GATE, j)
                    if tokens[j + 1] != "[":
                        self.pos = j + 1
                        self.expect("[")
                    wires = []
                    j += 2
                    while True:
                        wire = tokens[j]
                        if not wire[:1].isdigit():
                            raise self.fail("expected a wire index", j)
                        try:
                            wires.append(int(wire))
                        except ValueError:  # too long for int(): `_number` raises the error
                            _number(*self.position(j))
                        if tokens[j + 1] != ",":
                            break
                        j += 2
                    j += 1
                    if tokens[j] != "]":
                        self.pos = j
                        self.expect("]")
                    # The gate is its form's one field, so the bindings of
                    # one application share its rule.
                    key = (tok, tuple(wires))
                    made = apps.get(key)
                    if made is None:
                        made = apps[key] = rule(
                            _gate_application(tok, key[1], lambda: self.position(at)[1:])
                        )
                j += 1
            if tokens[j] != ";":
                self.pos = j
                self.expect(";")
            bound.add(bind)
            while ends[n] <= i:
                n += 1
            if i == starts[n]:  # only blanks come before a line's first token
                code = lines[n]
                col = len(code) - len(code.lstrip(_BLANKS)) + 1
            else:
                col = self.column(i, n + 1)
            if made is None:
                made = rule(*fields)
            bindings.append(record(Binding, (bind, made, tuple(premises), n + 1, col)))
            i = j + 1
        if not bindings:
            raise self.fail("a proof needs at least one binding", i)
        if tokens[i + 1]:
            raise self.fail("unexpected input after closing '}'", i + 1)
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


def parse_proof(text: str) -> ProofScript:
    """Parse a proof script, validating binding order and linearity: every
    binding but the root is consumed exactly once."""
    return _ScriptParser(text).parse()


# ---------------------------------------------------------------------------
# Elaboration: script -> proof tree
# ---------------------------------------------------------------------------

class ElaborationError(Exception):
    """A rule application failed while deriving a script's bindings.

    Carries the offending binding, the cause, and the script, so that a
    caller can report the verdicts up to the failure by deriving the script
    again (`cli._print_report`); it holds no conclusion of its own.
    """

    def __init__(self, binding: Binding, cause: Exception, script: ProofScript) -> None:
        self.binding = binding
        self.cause = cause
        self.script = script
        super().__init__(
            f"line {binding.line}: binding {binding.name!r}: "
            f"{type(cause).__name__}: {cause}"
        )


def derive_bindings(script: ProofScript) -> Iterator[tuple[Binding, Sequent]]:
    """Derive the script's bindings in script order: each binding with its
    conclusion, yielded as soon as it is derived.

    This is the derivation loop of every command that prints a node (see
    `conclude` for the root alone).  Each binding is derived once, through
    `calculus.apply_rule`, from its premises' conclusions.
    Linearity consumes each premise exactly once, so its conclusion is
    dropped there, and the pass keeps only the conclusions that a later
    binding still reads.  The first binding whose rule fails raises
    `ElaborationError`.
    """
    apply_rule = calculus.apply_rule  # as bound when the pass starts
    live: dict[str, Sequent] = {}
    pop = live.pop
    for b in script.bindings:
        try:
            conclusion = apply_rule(b.rule, list(map(pop, b.premises)))
        except (RuleError, ValueError) as cause:
            raise ElaborationError(b, cause, script) from cause
        live[b.name] = conclusion
        yield b, conclusion


def conclude(script: ProofScript) -> Sequent:
    """The root's conclusion, as the last of `derive_bindings`, derived in
    one pass in script order over the live conclusions.

    A chain of gate bindings runs as a circuit segment.  A gate binding
    whose one premise is a live coherent conclusion, whose gate is unitary
    and whose wires lie below the premise's width cannot fail, so it only
    appends its application to the gates pending on that conclusion.  Any
    other binding first applies each premise's pending gates in one call of
    `translate.run_gates`, the kernel loop of `translate.final_state`, and
    sorts one state per chain; then it derives through
    `calculus.apply_rule`, as `derive_bindings` does.  So every binding
    that can fail still fails there, at the same binding with the same
    cause, and raises `ElaborationError`.
    """
    apply_rule, run_gates = calculus.apply_rule, translate.run_gates  # as bound now
    live: dict[str, Sequent] = {}
    # The applications not yet applied to a live coherent conclusion, in
    # order, by the name of the binding whose conclusion they give.
    pending: dict[str, list[GateApplication]] = {}

    def take(name: str) -> Sequent:
        """The named premise's conclusion, its pending gates applied."""
        seq = live.pop(name)
        ops = pending.pop(name, None)
        if ops is None:
            return seq
        width = seq.state.width
        end = run_gates(width, seq.state.packed, ops)
        return Coherent._of(Superposition._of(width, dense.packed_of(end)))

    for b in script.bindings:
        rule = b.rule
        if type(rule) is Unitary and len(b.premises) == 1:
            (name,) = b.premises
            seq, app = live[name], rule.app
            width = seq.state.width
            if type(seq) is Coherent and app.gate.unitary and app.max_wire < width:
                del live[name]
                live[b.name] = seq
                ops = pending[b.name] = pending.pop(name, [])
                ops.append(app)
                continue
        premises = list(map(take, b.premises))
        try:
            live[b.name] = apply_rule(rule, premises)
        except (RuleError, ValueError) as cause:
            raise ElaborationError(b, cause, script) from cause
    return take(script.bindings[-1].name)


def elaborate(script: ProofScript) -> ProofNode:
    """Build the proof tree rooted at the final binding.

    A standalone `prep |x>` becomes an assumption leaf: its conclusion is
    taken as the recorded outcome of a measurement not shown in this script.
    """
    return elaborate_bindings(script)[-1][1]


def elaborate_bindings(script: ProofScript) -> list[tuple[str, ProofNode]]:
    """Each binding's name and node, in script order, each node built from
    `derive_bindings`' conclusion; the last node is the root, and every
    other one lies under it."""
    nodes: dict[str, ProofNode] = {}
    completed: list[tuple[str, ProofNode]] = []
    pop, of = nodes.pop, ProofNode._of
    for b, conclusion in derive_bindings(script):
        node = nodes[b.name] = of(b.rule, tuple(map(pop, b.premises)), conclusion, b.name)
        completed.append((b.name, node))
    return completed


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def proof_rows(p: ProofNode, format: str = "ascii") -> Iterator[str]:
    """A proof tree's display rows, each with its newline: an indented ascii
    tree, root first, or inference-style prooftree markup, a row per line.
    Each row is yielded as soon as it is made, so a caller that writes each
    one never holds the whole text."""
    texts: dict = {}  # the pass's rendering memo, in its one format
    if format == "ascii":
        depth = 0
        for node, _, entering in walk(p):
            if entering:  # no local keeps a row's text over the yield
                yield _ascii_row(depth, node.conclusion, node.rule.label(), texts)
                depth += 1
            else:
                depth -= 1
    elif format == "latex":
        yield "\\begin{prooftree}\n"
        for node, _, entering in walk(p):
            if not entering:
                yield from _latex(node, texts)
        yield "\\end{prooftree}\n"
    else:
        raise ValueError(f"unknown render format: {format}")


def _ascii_row(depth: int, seq: Sequent, label: str, texts: dict) -> str:
    """One row of an ascii proof, with its newline: the conclusion's text,
    indented two spaces per level of depth, then its rule's label; texts is
    the pass's rendering memo.  The one row format of `proof_rows` and
    `sampled_rows`."""
    return f"{'  ' * depth}{sequent_text(seq, texts)}  [{label}]\n"


def render_proof(p: ProofNode, format: str = "ascii") -> str:
    """Render a proof tree for display: its `proof_rows`, joined."""
    return "".join(proof_rows(p, format))


def _latex_sequent(seq: calculus.Sequent, texts: dict) -> str:
    state = seq.state.latex(texts)
    if isinstance(seq, calculus.Coherent):
        return state + r" \Rightarrow"
    if isinstance(seq, calculus.BornAnnotated):
        return state + r" \Rightarrow " + seq.dist.latex(texts)
    return state + r" \vdash_{%s} \ket{%s}" % (seq.prob.latex(), seq.outcome.bits)


def _latex(node: ProofNode, texts: dict) -> Iterator[str]:
    """One node's lines, which follow those of its premises; texts is the
    pass's rendering memo.  No local keeps the conclusion's text over a
    yield."""
    if node.is_assumption:
        yield "\\AxiomC{$%s$}\n" % _latex_sequent(node.conclusion, texts)
        return
    if not node.premises:
        yield "\\AxiomC{}\n"
    yield "\\RightLabel{$%s$}\n" % node.rule.latex()
    inference = "\\BinaryInfC" if len(node.premises) == 2 else "\\UnaryInfC"
    yield "%s{$%s$}\n" % (inference, _latex_sequent(node.conclusion, texts))


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
    measurement.  A gate step's text around its premise name is formatted
    once per distinct application, which a parse shares between the gate
    lines that repeat it.
    """
    ax = _script_expr(Ax(), [])
    lines = [f"  s0 = {ax};\n"]
    for k in range(2, 2 * c.width, 2):  # the tensor s<k> takes s<k-2> and s<k-1>
        lines.append(f"  s{k - 1} = {ax};\n")
        lines.append(f"  s{k} = {_script_expr(Tensor(), [f's{k - 2}', f's{k - 1}'])};\n")
    k = 2 * c.width - 2  # the register's last step so far
    # By application: its text before and after its premise's name, found by
    # writing a newline for the name, the last operand of the gate form.
    steps: dict[int, tuple[str, str]] = {}
    for op in c.ops:
        text = steps.get(id(op))
        if text is None:
            before, _, after = _script_expr(Unitary(op), ["\n"]).rpartition("\n")
            text = steps[id(op)] = before, after
        before, after = text
        lines.append(f"  s{k + 1} = {before}s{k}{after};\n")
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


def sampled_rows(c: Circuit, seed: int) -> tuple[Measured, Iterator[str]]:
    """The root conclusion and the ascii rows of the measured circuit c's
    sampled proof: the rows that `proof_rows` gives the tree of
    `translate.circuit_to_proof(c, "sample", seed)`, without the tree.

    The proof's shape depends on the circuit alone (see `script_writer`),
    so only its conclusions are derived, and all of them before this
    returns: in circuit order, each gate's state by `gates.apply` from the
    one before, a gate that is not unitary with the norm check that
    `Unitary.conclude` makes, then the Born annotation and the sampled
    measurement through `calculus.apply_rule`.  The rows go out root first:
    the measurement, the Born annotation, each gate from the last to the
    first, each state dropped as its row is yielded, then the register's
    left-associated tensors of |0...0> and its axioms, one per wire.
    """
    if not c.measured:
        raise ValueError("circuit has no terminal measure; nothing to sample")
    state = Superposition._of(c.width, {0: PACKED_ONE})
    seqs = [Coherent._of(state)]
    for op in c.ops:
        state = apply_gate(op, state)
        seqs.append(Coherent._of(state) if op.gate.unitary else Coherent(state))
    born_rule = BornRule()
    born = calculus.apply_rule(born_rule, [seqs[-1]])
    measure = Measure(sample_outcome(born.dist, seed)[0])
    root = calculus.apply_rule(measure, [born])

    def rows() -> Iterator[str]:
        texts: dict = {}  # the pass's rendering memo
        yield _ascii_row(0, root, measure.label(), texts)
        yield _ascii_row(1, born, born_rule.label(), texts)
        depth = 2
        for op in reversed(c.ops):
            yield _ascii_row(depth, seqs.pop(), op.text, texts)
            depth += 1
        tensor, ax = Tensor().label(), Ax().label()
        # The tensors, widest first: each the left premise of the one before.
        for width in range(c.width, 1, -1):
            zeros = Coherent._of(Superposition._of(width, {0: PACKED_ONE}))
            yield _ascii_row(depth, zeros, tensor, texts)
            depth += 1
        zero = Coherent._of(Superposition._of(1, {0: PACKED_ONE}))
        yield _ascii_row(depth, zero, ax, texts)  # the leftmost wire's
        for _ in range(c.width - 1):  # each tensor's right premise, innermost first
            yield _ascii_row(depth, zero, ax, texts)
            depth -= 1

    return root, rows()


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
    # By application: its line, formatted once; a parse shares one
    # application between the gate lines that repeat it.
    texts: dict[int, str] = {}
    for op in c.ops:
        line = texts.get(id(op))
        if line is None:
            line = texts[id(op)] = " ".join((op.gate.name, *map(str, op.wires)))
        lines.append(line)
    if c.measured:
        lines.append("measure")
    return "\n".join(lines) + "\n"
