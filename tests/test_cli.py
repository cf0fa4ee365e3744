"""CLI behavior: exit codes, report formats, determinism, file emission."""

import decimal
import hashlib
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmc import calculus, cli, oracle, parser, state, translate
from qmc.amplitude import PACKED_ONE

from qmc.cli import main
from qmc.parser import elaborate, parse_circuit, parse_proof, render_proof

from conftest import (
    GOLDEN, GOLDEN_PROOFS, PREP_LEAF_SCRIPT, VALID_SCRIPTS, brickwork, corrupted,
    load_golden,
)
from test_golden_cli import EXPECTED as GOLDEN_EXPECTED, golden_inputs, transcript


@pytest.fixture
def workdir(tmp_path):
    for name in ("bell.qc", "hh.qc", "ghz.qc", "bell_00.qmc", "hh.qmc", "bell_pre.qmc"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    return tmp_path


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_valid_golden(run_cli, workdir):
    code, out, err = run_cli("check", str(workdir / "bell_00.qmc"))
    assert code == 0
    assert out.rstrip().endswith("valid")
    assert "m: ok" in out
    assert err == ""


@pytest.mark.parametrize("name", ["bell_00.qmc", "hh.qmc", "prep_leaf.qmc"])
def test_check_derives_each_node_once(run_cli, monkeypatch, tmp_path, name):
    # An assumption leaf, too, is concluded by apply_rule.
    text = PREP_LEAF_SCRIPT if name == "prep_leaf.qmc" else (GOLDEN / name).read_text()
    (tmp_path / name).write_text(text)
    derived = sum(1 for _, _, entering in calculus.walk(elaborate(parse_proof(text))) if entering)
    calls = []
    apply_rule = calculus.apply_rule

    def counted(rule, premises):
        calls.append(rule)
        return apply_rule(rule, premises)

    monkeypatch.setattr(calculus, "apply_rule", counted)
    code, _, _ = run_cli("check", str(tmp_path / name))
    assert code == 0
    assert len(calls) == derived


@pytest.mark.parametrize("name", ["bell_00.qmc", "hh.qmc", "prep_leaf.qmc"])
@pytest.mark.parametrize("command", [("dist",), ("translate", "--to", "circuit")])
def test_dist_and_translate_derive_each_binding_once(
    run_cli, monkeypatch, tmp_path, command, name
):
    # Whatever the verdict after it (a measured root has nothing left to
    # distribute, an assumption leaf no circuit form), each binding is
    # derived once, and no tree is derived again: every binding but a gate
    # step goes through apply_rule once, in script order, and each gate
    # step's application through the kernel loop once, with the rest of its
    # chain.  In these scripts the chains are consumed in script order.
    text = PREP_LEAF_SCRIPT if name == "prep_leaf.qmc" else (GOLDEN / name).read_text()
    (tmp_path / name).write_text(text)
    calls, ran = [], []
    apply_rule, run_gates = calculus.apply_rule, translate.run_gates

    def counted(rule, premises):
        calls.append(rule)
        return apply_rule(rule, premises)

    def recorded(width, packed, ops):
        ops = list(ops)
        ran.extend(ops)
        return run_gates(width, packed, ops)

    monkeypatch.setattr(calculus, "apply_rule", counted)
    monkeypatch.setattr(translate, "run_gates", recorded)
    code, _, err = run_cli(command[0], str(tmp_path / name), *command[1:])
    assert code in (0, 1) and err.count("\n") <= 1
    rules = [b.rule for b in parse_proof(text).bindings]
    gate_steps = [rule.app for rule in rules if isinstance(rule, calculus.Unitary)]
    assert gate_steps == ran and ran
    assert [rule for rule in rules if not isinstance(rule, calculus.Unitary)] == calls


def test_each_pass_formats_each_distinct_amplitude_once(run_cli, monkeypatch):
    # check's report and each render format are one pass: a coefficient that
    # several nodes share (1/sqrt2 in five nodes of bell_00) is formatted once.
    distinct = {
        amp
        for node, _, entering in calculus.walk(load_golden("bell_00.qmc"))
        if entering
        for amp in node.conclusion.state.packed.values()
    } - {PACKED_ONE}
    path = str(GOLDEN / "bell_00.qmc")
    for formatter, argv in [
        ("_coeff_text", ("check", path)),
        ("_coeff_text", ("render", path, "--format", "ascii")),
        ("_latex", ("render", path, "--format", "latex")),
    ]:
        calls = []
        original = getattr(state, formatter)

        def counted(amp, original=original):
            calls.append(amp)
            return original(amp)

        monkeypatch.setattr(state, formatter, counted)
        code, _, _ = run_cli(*argv)
        monkeypatch.undo()
        assert code == 0
        assert sorted(calls) == sorted(distinct), argv


def test_check_weaken_is_a_check_failure(run_cli, tmp_path):
    path = tmp_path / "weak.qmc"
    path.write_text("proof weak { a = ax; w = weaken a |0>; }\n")
    code, out, _ = run_cli("check", str(path))
    assert code == 1
    assert "NonMonotonicityViolation" in out
    assert "invalid" in out


# Every command that elaborates a script, with its flags.
_SCRIPT_COMMANDS = (
    ("check",),
    ("dist",),
    ("run", "--seed", "1"),
    ("render",),
    ("render", "--format", "latex"),
    ("translate", "--to", "circuit"),
)


def _main_io(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _stdout_lines(*argv: str) -> tuple[int, list[str]]:
    code, out, _ = _main_io(*argv)
    return code, out.splitlines()


@settings(max_examples=40, deadline=None)
@given(VALID_SCRIPTS)
def test_a_failed_binding_reports_the_earlier_ones_as_check_does(text):
    # `check` lists the bindings in script order, the root last, so a
    # weakening of the root fails after all of them.
    lines = text.splitlines()
    root = lines[-2].split()[0]
    failing = "\n".join(lines[:-1] + [f"  w = weaken {root} |0>;", "}", ""])
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "ok.qmc").write_text(text, encoding="utf-8")
        (Path(tmp) / "fail.qmc").write_text(failing, encoding="utf-8")
        code, verdicts = _stdout_lines("check", str(Path(tmp) / "ok.qmc"))
        assert code == 0 and verdicts[-1] == "valid"
        for command, *flags in _SCRIPT_COMMANDS:
            code, out = _stdout_lines(command, str(Path(tmp) / "fail.qmc"), *flags)
            assert code == 1, command
            assert out[:-2] == verdicts[:-1], command
            assert out[-2].startswith("w: invalid  NonMonotonicityViolation: ")
            assert out[-1] == "invalid"


def _reference_report(script: parser.ProofScript) -> str:
    """`check`'s report as the tree-keeping printer made it: the rows of
    `elaborate_bindings`' nodes, then `valid`; or, when a binding fails, the
    rows of the nodes elaborated before it, the failed binding with the
    reason, and `invalid`."""
    try:
        completed, failure = parser.elaborate_bindings(script), None
    except parser.ElaborationError as err:
        before = script.bindings[: script.bindings.index(err.binding)]
        completed, failure = parser.elaborate_bindings(script._replace(bindings=before)), err
    texts: dict = {}
    rows = [
        f"{name}: {'assumed' if node.is_assumption else 'ok'}  "
        f"{calculus.sequent_text(node.conclusion, texts)}\n"
        for name, node in completed
    ]
    if failure is None:
        return "".join(rows) + "valid\n"
    detail = f"{type(failure.cause).__name__}: {failure.cause}"
    return "".join(rows) + f"{failure.binding.name}: invalid  {detail}\ninvalid\n"


def _tree_script(seed: int, faults: int) -> str:
    """A random script: `ax` and `prep` leaves (assumptions, of 1-2 wires),
    gates and tensors, then perhaps `born` and a `measure` of a random
    outcome (which may not be in the support).  Up to `faults` bindings of
    one premise are then broken: a weakening, a wire out of range, a
    measurement of a coherent premise, or a Born annotation that its
    consumer may not take.  The bindings are in a random order that binds
    each premise before its consumer, so often not in postorder."""
    rng = random.Random(seed)
    exprs: list[str] = []  # each binding's rule, "{}" for each premise name
    premises: list[tuple[int, ...]] = []

    def bind(expr: str, *of: int) -> int:
        exprs.append(expr)
        premises.append(of)
        return len(exprs) - 1

    subtrees = []  # (binding, width) of each one not yet consumed
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 2)))
            subtrees.append((bind(f"prep |{bits}>"), len(bits)))
        else:
            subtrees.append((bind("ax"), 1))
    steps = rng.randint(0, 6)
    while len(subtrees) > 1 or steps > 0:
        if len(subtrees) > 1 and (steps <= 0 or rng.random() < 0.4):
            (i, wi), (j, wj) = (subtrees.pop(rng.randrange(len(subtrees))) for _ in range(2))
            subtrees.append((bind("tensor {} {}", i, j), wi + wj))
            continue
        k = rng.randrange(len(subtrees))
        i, width = subtrees[k]
        gate = rng.choice(("H", "T", "S", "X", "Z", "CNOT")[: 6 if width > 1 else 5])
        wires = ",".join(map(str, rng.sample(range(width), 2 if gate == "CNOT" else 1)))
        subtrees[k] = (bind(f"gate {gate} [{wires}] {{}}", i), width)
        steps -= 1
    ((root, width),) = subtrees
    if rng.random() < 0.6:
        root = bind("born {}", root)
        if rng.random() < 0.6:
            bits = "".join(rng.choice("01") for _ in range(width))
            bind(f"measure {{}} outcome=|{bits}>", root)
    unary = [i for i, of in enumerate(premises) if len(of) == 1]
    for i in rng.sample(unary, min(faults, len(unary))):
        exprs[i] = rng.choice(
            ("weaken {} |0>", "gate H [9] {}", "measure {} outcome=|0>", "born {}")
        )
    # A random order in which each binding follows its premises.
    waiting = [len(of) for of in premises]
    consumer = {p: i for i, of in enumerate(premises) for p in of}
    ready = [i for i, n in enumerate(waiting) if not n]
    lines = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        names = [f"b{p}" for p in premises[i]]
        lines.append(f"b{i} = {exprs[i].format(*names)};")
        if i in consumer:
            waiting[consumer[i]] -= 1
            if not waiting[consumer[i]]:
                ready.append(consumer[i])
    return "proof t { " + " ".join(lines) + " }\n"


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        VALID_SCRIPTS, st.builds(_tree_script, st.integers(0, 2**32 - 1), st.integers(0, 2))
    )
)
def test_every_report_and_read_back_equals_the_tree_based_reference(text):
    script = parse_proof(text)
    report = _reference_report(script)
    valid = report.endswith("\nvalid\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.qmc"
        path.write_text(text, encoding="utf-8")
        assert _main_io("check", str(path)) == (0 if valid else 1, report, "")
        if not valid:
            # Before any verdict of its own (an untranslatable rule, a root
            # that has nothing left to distribute), each command reports
            # the failed binding as `check` does.
            for command, *flags in _SCRIPT_COMMANDS:
                assert _main_io(command, str(path), *flags) == (1, report, ""), command
            assert not (Path(tmp) / "s.qc").exists()
            return
        try:
            circuit = parser.render_circuit(translate.proof_to_circuit(elaborate(script)))
        except translate.UnsupportedTranslation as err:
            expected = (1, "", f"error: UnsupportedTranslation: {err}\n")
            assert _main_io("translate", str(path), "--to", "circuit") == expected
            assert not (Path(tmp) / "s.qc").exists()
        else:
            expected = (0, f"{Path(tmp) / 's.qc'}\n", "")
            assert _main_io("translate", str(path), "--to", "circuit") == expected
            assert (Path(tmp) / "s.qc").read_text(encoding="utf-8") == circuit


def _concluded(derive, script: parser.ProofScript):
    """What `derive(script)` gives: (root, None), or (None, its error)."""
    try:
        return derive(script), None
    except parser.ElaborationError as err:
        return None, err


def _last_conclusion(script: parser.ProofScript) -> calculus.Sequent:
    for _, conclusion in parser.derive_bindings(script):
        pass
    return conclusion


def _assert_concludes_as_derived(text: str) -> None:
    """`conclude`, which runs each chain of gate steps through
    `translate.run_gates`, gives the last conclusion of `derive_bindings`,
    state and key order alike, or fails at the same binding with the same
    cause."""
    script = parse_proof(text)
    expected, failure = _concluded(_last_conclusion, script)
    root, err = _concluded(parser.conclude, script)
    if failure is not None:
        assert err is not None and err.binding is failure.binding
        assert type(err.cause) is type(failure.cause)
        assert str(err.cause) == str(failure.cause)
        return
    assert err is None
    assert type(root) is type(expected) and root == expected
    assert list(root.state.packed.items()) == list(expected.state.packed.items())


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            "proof p { a = ax; b = ax; h = gate H [0] a; t1 = gate T [0] h; "
            "x = gate X [0] b; s = gate H [0] x; t = tensor t1 s; "
            "c = gate CNOT [0,1] t; h2 = gate H [1] c; }",
            id="sub-registers-before-a-tensor",
        ),
        pytest.param(
            "proof p { a = prep |10>; h = gate H [1] a; b = ax; t = tensor h b; "
            "c = gate CNOT [1,2] t; d = born c; m = measure d outcome=|101>; }",
            id="prep-leaves",
        ),
        pytest.param(
            "proof p { a = ax; h = gate H [0] a; g = gate H [3] h; b = ax; "
            "w = weaken b |0>; t = tensor g w; }",
            id="two-failing-bindings",
        ),
        pytest.param(
            "proof p { a = ax; h = gate H [0] a; g = gate CNOT [0,1] h; }",
            id="wire-out-of-range",
        ),
        pytest.param(
            "proof p { a = ax; h = gate H [0] a; d = born h; g = gate X [0] d; }",
            id="gate-fed-a-born-premise",
        ),
    ],
)
def test_conclude_equals_the_last_derived_conclusion(text):
    _assert_concludes_as_derived(text)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        VALID_SCRIPTS, st.builds(_tree_script, st.integers(0, 2**32 - 1), st.integers(0, 2))
    )
)
def test_conclude_equals_the_last_derived_conclusion_on_random_scripts(text):
    _assert_concludes_as_derived(text)


def test_a_non_unitary_gate_fails_at_its_own_binding(monkeypatch):
    # A gate that is not unitary may break the norm, so its step is not
    # deferred: it is derived through apply_rule, whose norm check fails.
    builtin = parser.builtin

    def faulty(name):
        return corrupted(builtin(name)) if name == "H" else builtin(name)

    monkeypatch.setattr(parser, "builtin", faulty)
    text = "proof p { a = ax; x = gate X [0] a; h = gate H [0] x; t = gate T [0] h; }"
    _assert_concludes_as_derived(text)
    with pytest.raises(parser.ElaborationError) as err:
        parser.conclude(parse_proof(text))
    assert err.value.binding.name == "h"
    assert isinstance(err.value.cause, calculus.UnnormalizedState)


def test_dist_of_a_dense_script_equals_dist_of_its_circuit(monkeypatch, tmp_path):
    # The unmeasured 10-wire brickwork fills its register, so its script's
    # gate chain goes through the dense hand-over, as its circuit does.
    circuit = tmp_path / "bw10.qc"
    circuit.write_text(parser.render_circuit(brickwork(10)), encoding="utf-8")
    assert _main_io("translate", str(circuit), "--to", "proof") == (
        0, f"{tmp_path / 'bw10.qmc'}\n", ""
    )
    went_dense = []
    run = translate.dense.run

    def counted(width, packed, ops):
        went_dense.append(width)
        return run(width, packed, ops)

    monkeypatch.setattr(translate.dense, "run", counted)
    from_circuit = _main_io("dist", str(circuit))
    from_script = _main_io("dist", str(tmp_path / "bw10.qmc"))
    assert from_circuit[0] == 0 and from_script == from_circuit
    assert went_dense == [10, 10]


def test_a_failed_binding_comes_before_every_other_verdict(tmp_path):
    # An assumption leaf has no circuit form, and a measured root leaves
    # nothing to distribute, but the failed binding before them is what
    # every command reports.  Two bindings fail; the first in script order
    # is the one reported.
    text = (
        "proof p { a = prep |1>; b = ax; g = gate H [9] b; t = tensor a g; "
        "w = weaken t |0>; d = born w; m = measure d outcome=|00>; }\n"
    )
    path = tmp_path / "p.qmc"
    path.write_text(text, encoding="utf-8")
    report = _reference_report(parse_proof(text))
    assert report.splitlines()[:2] == ["a: assumed  |1> =>", "b: ok  |0> =>"]
    assert report.splitlines()[2].startswith("g: invalid  ValueError: ")
    for command, *flags in _SCRIPT_COMMANDS:
        assert _main_io(command, str(path), *flags) == (1, report, ""), command


def test_check_lists_bindings_in_script_order(run_cli, tmp_path):
    # Postorder from the root would list h before b.
    path = tmp_path / "order.qmc"
    path.write_text("proof p { a = ax; b = ax; h = gate H [0] a; t = tensor h b; }\n")
    code, out, err = run_cli("check", str(path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["a", "b", "h", "t"]
    assert lines[-1] == "valid"


@pytest.mark.parametrize(
    "text, where",
    [
        ("proof p { a = ax; b = ax; h = gate H [0] b; }", "line 1, column 11: binding 'a'"),
        # A measurement chain that a later assumption leaf cuts off from the root.
        (
            "proof p { a = prep |0>; b = gate H [0] a; c = born b; "
            "d = measure c outcome=|1>; e = prep |1>; }",
            "line 1, column 55: binding 'd'",
        ),
    ],
    ids=["unused-axiom", "unused-measurement"],
)
def test_an_unconsumed_binding_exits_2_on_every_script_command(
    run_cli, tmp_path, text, where
):
    path = tmp_path / "unused.qmc"
    path.write_text(text + "\n")
    for command, *flags in _SCRIPT_COMMANDS:
        code, out, err = run_cli(command, str(path), *flags)
        assert (code, out) == (2, ""), command
        assert err.startswith(f"error: {where} is never consumed"), command
        assert err.count("\n") == 1, command


def test_check_parse_error_is_positioned(run_cli, tmp_path):
    path = tmp_path / "bad.qmc"
    path.write_text("proof bad { a = ax; m = measure a outcome=|2>; }\n")
    code, out, err = run_cli("check", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        ("dist", "sup.qc", "qubits \u00b2\n", "line 1, column 1"),
        ("dist", "sup.qc", "qubits 1\nH \u00b2\n", "line 2, column 3"),
        ("check", "sup.qmc", "proof p { a = ax; g = gate H [\u00b2] a; }\n", "line 1, column 31"),
    ],
)
def test_non_ascii_digits_are_positioned_parse_errors(
    run_cli, tmp_path, command, name, text, where
):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {where}: ")


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        ("dist", "big.qc", "qubits " + "1" * 4301 + "\n", "line 1, column 8"),
        ("dist", "big.qc", "qubits 2\nH " + "1" * 4301 + "\n", "line 2, column 3"),
        ("check", "big.qmc", "proof p { a = ax; g = gate H [" + "1" * 4301 + "] a; }\n",
         "line 1, column 31"),
    ],
    ids=["qc-header", "qc-wire", "qmc-wire"],
)
def test_oversized_numbers_exit_2_with_one_line(run_cli, tmp_path, command, name, text, where):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {where}: number too long (4301 digits) (at '111111111111...')\n"


_N = 10**5


@pytest.mark.parametrize(
    "name, text",
    [
        ("rule.qmc", "proof p { a = " + "r" * _N + "; }\n"),
        ("gate.qmc", "proof p { a = ax; g = gate " + "Q" * _N + " [0] a; }\n"),
        ("ket.qmc", "proof p { a = prep |" + "0" * _N + "\n"),
        ("premise.qmc", "proof p { a = ax; g = gate H [0] " + "b" * _N + "; }\n"),
        ("gate.qc", "qubits 1\n" + "Q" * _N + " 0\n"),
        ("wire.qc", "qubits 1\nH " + "w" * _N + "\n"),
        ("header.qc", "h" * _N + " 1\nH 0\n"),
    ],
    ids=["qmc-rule", "qmc-gate", "qmc-ket", "qmc-premise", "qc-gate", "qc-wire", "qc-header"],
)
def test_a_long_token_exits_2_with_one_short_line(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    command = "check" if name.endswith(".qmc") else "dist"
    proc = subprocess.run(
        [sys.executable, "-m", "qmc", command, str(path)],
        capture_output=True,
        env=_subprocess_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: line ")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
    assert len(proc.stderr) < 300


_MEASURED = "proof p { a = ax; h = gate H [0] a; d = born h; m = measure d outcome="


@pytest.mark.parametrize(
    "command, name, text, seed, code",
    [
        ("dist", "wire.qc", "qubits 1\nH " + "9" * 4000 + "\n", None, 2),
        ("run", "bell.qc", "qubits 1\nH 0\nmeasure\n", "5" * 5000, 2),
        ("check", "wire.qmc", "proof p { a = ax; g = gate H [" + "9" * 4000 + "] a; }\n", None, 1),
        ("check", "outcome.qmc", _MEASURED + "|" + "0" * _N + ">; }\n", None, 1),
    ],
    ids=["qc-wire-range", "qmc-seed", "qmc-wire-range", "qmc-outcome-width"],
)
def test_a_long_input_quoted_in_a_message_stays_short(tmp_path, command, name, text, seed, code):
    # A valid number or ket that a message quotes is cut as a token is.
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    env = _subprocess_env()
    env.pop("QMC_SEED", None)
    if seed is not None:
        env["QMC_SEED"] = seed
    proc = subprocess.run(
        [sys.executable, "-m", "qmc", command, str(path)],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
        assert len(proc.stderr) < 300
    else:
        assert proc.stderr == b""
        assert b"invalid" in proc.stdout
        assert max(map(len, proc.stdout.splitlines())) < 300


def _subprocess_env() -> dict[str, str]:
    """The environment for `python -m qmc` in a child process, with this
    checkout's source first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_width_over_the_limit_exits_2_with_one_line(run_cli, tmp_path):
    # Without the limit this header exhausts memory building |0...0>.
    path = tmp_path / "huge.qc"
    path.write_text("qubits 3000000000\nmeasure\n")
    code, out, err = run_cli("dist", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: line 1, column 8: qubit count must be at most 65536 "
        "(at '3000000000')\n"
    )


_TWO_WIRE_BORN = "proof w { a = ax; b = ax; t = tensor a b; h = gate H [0] t; e = born h; "


@pytest.mark.parametrize(
    "measure, verdict",
    [
        (
            "f = measure e outcome=|1>; }",
            "f: invalid  RuleError: outcome |1> has width 1 but the premise's "
            "state has width 2",
        ),
        (
            "f = measure e outcome=|01>; }",
            "f: invalid  OutcomeNotInSupport: outcome |01> has amplitude 0; "
            "only support components are measurable conclusions",
        ),
    ],
    ids=["other-width", "zero-amplitude"],
)
def test_check_names_why_a_measurement_fails(run_cli, tmp_path, measure, verdict):
    path = tmp_path / "w.qmc"
    path.write_text(_TWO_WIRE_BORN + measure + "\n")
    code, out, err = run_cli("check", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [verdict, "invalid"]


_MEASURED_ZERO = "a = ax; d = born a; m = measure d outcome=|0>; "


@pytest.mark.parametrize(
    "body, verdict",
    [
        (
            "a = ax; m = measure a outcome=|0>; }",
            "m: invalid  WrongPremiseShape: measurement needs one Born-annotated premise",
        ),
        (
            _MEASURED_ZERO + "g = gate H [0] m; }",
            "g: invalid  WrongPremiseShape: a gate rule needs one coherent premise",
        ),
        (
            _MEASURED_ZERO + "b = born m; }",
            "b: invalid  WrongPremiseShape: the Born rule needs one coherent premise",
        ),
    ],
    ids=["measure-a-coherent-premise", "gate-a-measured-premise", "born-a-measured-premise"],
)
def test_check_names_a_premise_of_the_wrong_shape(run_cli, tmp_path, body, verdict):
    path = tmp_path / "p.qmc"
    path.write_text("proof p { " + body + "\n")
    code, out, err = run_cli("check", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [verdict, "invalid"]


def test_a_script_of_invalid_utf8_exits_2_with_one_line(run_cli, tmp_path):
    path = tmp_path / "bad.qmc"
    path.write_bytes(b"proof p { a = ax; }\n# \xff\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid UTF-8: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _all_h_40() -> tuple[str, str]:
    """A 40-qubit circuit of H on every wire, measured, and a script of the
    same circuit: support 2^40, far past any memory."""
    circuit = "qubits 40\n" + "".join(f"H {w}\n" for w in range(40)) + "measure\n"
    lines = [f"  a{w} = ax;" for w in range(40)]
    last = "a0"
    for w in range(1, 40):
        lines.append(f"  t{w} = tensor {last} a{w};")
        last = f"t{w}"
    for w in range(40):
        lines.append(f"  h{w} = gate H [{w}] {last};")
        last = f"h{w}"
    script = "proof h40 {\n" + "\n".join(lines) + f"\n  d = born {last};\n}}\n"
    return circuit, script


# The child's address space: room for the interpreter and numpy, not for a
# state of some 2^21 terms.
_CHILD_MEMORY = 300 << 20


def _cap_child_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_MEMORY, _CHILD_MEMORY))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("command, name", [("dist", "h40.qc"), ("check", "h40.qmc")])
def test_running_out_of_memory_is_one_error_line(tmp_path, command, name):
    circuit, script = _all_h_40()
    path = tmp_path / name
    path.write_text(circuit if name.endswith(".qc") else script, encoding="utf-8")
    env = {**_subprocess_env(), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "qmc", command, str(path)],
        capture_output=True,
        env=env,
        preexec_fn=_cap_child_memory,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, b"error: out of memory\n")
    if command == "dist":
        assert proc.stdout == b""
        return
    # `check` writes each row as soon as its binding is derived, so the rows
    # before the one that ran out stay written: whole rows, each the one
    # `check` prints for its binding, in script order, and no verdict line.
    # The 79 bindings that build the register are cheap, so they are there.
    parsed = parse_proof(script)
    rows = proc.stdout.decode().splitlines(keepends=True)
    assert len(rows) >= 79
    prefix = parsed._replace(bindings=parsed.bindings[: len(rows)])
    assert "".join(rows) + "valid\n" == _reference_report(prefix)


def _bw16(width: int = 16) -> str:
    """`width` wires, 16 by default: H on every wire twice, then T, then H,
    then a CNOT chain, measured.  The proof of bw16 holds rows of up to
    2^16 terms: 50-72 MB of text."""
    ops = [f"{gate} {w}" for gate in ("H", "H", "T", "H") for w in range(width)]
    ops += [f"CNOT {w} {w + 1}" for w in range(width - 1)]
    return f"qubits {width}\n" + "\n".join(ops) + "\nmeasure\n"


# sha256 of each command's stdout on bw16 and its `--seed 1` script, taken
# without the cap from the renderer that joined a whole proof's text before
# writing any of it; under the cap, that renderer ran out of memory on the
# first three.
_BW16_STDOUT = {
    ("run", "{circuit}", "--seed", "1"): (
        "5dcbb03476c5a869545fece91fbcbd4283d8bc842b95bb92073519c52d5bc0e7"
    ),
    ("render", "{script}"): "56857fd077aef7ddab2903d8e31dfbd120d25e3535c72d3840e3f0684934b2d3",
    ("render", "{script}", "--format", "latex"): (
        "53db994d56cac28b77c62fe593e3ef0386b0b34f82d7240dac460bc143cc0ab6"
    ),
    ("check", "{script}"): "eb12c555da7d45f17588c693f75e5d09206be265e75b4cbef71192a6e9f0966d",
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
def test_a_wide_proof_prints_under_the_memory_cap(run_cli, tmp_path):
    # Each row goes out as it is made, so a command holds the tree (`run`
    # of the circuit, its gate states) and one row, never the whole proof's
    # text.
    circuit = tmp_path / "bw16.qc"
    circuit.write_text(_bw16(), encoding="utf-8")
    code, out, _ = run_cli("translate", str(circuit), "--to", "proof", "--seed", "1")
    assert code == 0
    env = {**_subprocess_env(), "OPENBLAS_NUM_THREADS": "1"}
    stdout = tmp_path / "stdout"
    for command, digest in _BW16_STDOUT.items():
        argv = [a.format(script=out.strip(), circuit=circuit) for a in command]
        with stdout.open("wb") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "qmc", *argv],
                stdout=sink,
                stderr=subprocess.PIPE,
                env=env,
                preexec_fn=_cap_child_memory,
                timeout=120,
            )
        assert (command, proc.returncode, proc.stderr) == (command, 0, b"")
        assert hashlib.sha256(stdout.read_bytes()).hexdigest() == digest, command


# sha256 of `check`'s stdout on the bw17 script (`translate --to proof
# --seed 1`), and of the circuit that `translate --to circuit` writes from
# it, taken without the cap from the commands that built the whole proof
# tree first; under the cap, both ran out of memory.
_BW17_DIGESTS = {
    "check": "3b321e02d80e59517e366051b84c2e74ce83e62566a17ad1f3129bac0dbf70f3",
    "translate": "2ed35c4317b3ed84af43dfcb49de1c2701186050f24633d30eec1c2c5d854fc6",
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
def test_a_wider_script_checks_and_reads_back_under_the_memory_cap(run_cli, tmp_path):
    # Both derive the script in one pass that keeps only the conclusions a
    # later binding reads, so they hold two states of 2^17 terms at most.
    circuit = tmp_path / "bw17.qc"
    circuit.write_text(_bw16(17), encoding="utf-8")
    code, out, _ = run_cli("translate", str(circuit), "--to", "proof", "--seed", "1")
    assert code == 0
    script = Path(out.strip())
    back = tmp_path / "back"
    back.mkdir()
    env = {**_subprocess_env(), "OPENBLAS_NUM_THREADS": "1"}
    stdout = tmp_path / "stdout"
    for argv, written in [
        (["check", str(script)], stdout),
        (["translate", str(script), "--to", "circuit", "--outdir", str(back)], None),
    ]:
        with stdout.open("wb") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "qmc", *argv],
                stdout=sink,
                stderr=subprocess.PIPE,
                env=env,
                preexec_fn=_cap_child_memory,
                timeout=120,
            )
        assert (argv[0], proc.returncode, proc.stderr) == (argv[0], 0, b"")
        if written is None:
            written = back / f"{script.stem}.qc"
            assert stdout.read_text(encoding="utf-8") == f"{written}\n"
        digest = hashlib.sha256(written.read_bytes()).hexdigest()
        assert digest == _BW17_DIGESTS[argv[0]], argv[0]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-str digits"
)
def test_exact_numbers_past_the_digit_limit_print_in_full(run_cli, tmp_path):
    # The Born weights of an HT^k chain have about k/2 bits, so at k = 5000
    # about 750 digits: past 640, the lowest limit CPython accepts.  Under it
    # each command prints what it prints with no limit, byte for byte.
    circuit = tmp_path / "ht.qc"
    circuit.write_text("qubits 1\n" + "H 0\nT 0\n" * 5000 + "measure\n", encoding="utf-8")
    code, out, _ = run_cli("translate", str(circuit), "--to", "proof", "--outdir", str(tmp_path))
    assert code == 0
    script = out.split()[0]
    code, out, _ = run_cli("dist", str(circuit))
    assert code == 0 and max(map(len, re.findall(r"\d+", out))) > 640
    stdout = tmp_path / "stdout"
    for argv in (["dist", str(circuit)], ["run", str(circuit), "--seed", "1"], ["check", script]):
        digests = []
        for limit in ("640", "0"):
            with stdout.open("wb") as sink:
                proc = subprocess.run(
                    [sys.executable, "-X", f"int_max_str_digits={limit}", "-m", "qmc", *argv],
                    stdout=sink,
                    stderr=subprocess.PIPE,
                    env=_subprocess_env(),
                    timeout=120,
                )
            assert (argv[0], proc.returncode, proc.stderr) == (argv[0], 0, b"")
            digest = hashlib.sha256()
            with stdout.open("rb") as printed:
                for chunk in iter(lambda: printed.read(1 << 20), b""):
                    digest.update(chunk)
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1], argv[0]


@pytest.mark.parametrize("command", ["render", "run --seed 1"])
def test_rows_written_before_running_out_of_memory_stay_written(
    run_cli, monkeypatch, workdir, command
):
    verb, *flags = command.split()
    path = str(workdir / ("bell.qc" if verb == "run" else "bell_00.qmc"))
    code, rows, _ = run_cli(verb, path, *flags)
    assert code == 0
    sequent_text = parser.sequent_text
    made = []

    def third_runs_out(seq, texts):
        made.append(seq)
        if len(made) == 3:
            raise MemoryError
        return sequent_text(seq, texts)

    monkeypatch.setattr(parser, "sequent_text", third_runs_out)
    code, out, err = run_cli(verb, path, *flags)
    assert (code, err) == (1, "error: out of memory\n")
    assert out == "".join(rows.splitlines(keepends=True)[:2])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
def test_an_unmeasured_circuit_translates_without_its_state(run_cli, tmp_path):
    # The 40-qubit state would hold 2^40 terms; the script is written from
    # the circuit alone.  Reading it back through `translate --to circuit`
    # would check every state, so at 40 qubits it is read back by its rules,
    # and through the command on the same circuit at 8 qubits.
    for n in (40, 8):
        circuit = f"qubits {n}\n" + "".join(f"H {w}\n" for w in range(n))
        directory = tmp_path / str(n)
        directory.mkdir()
        source = directory / f"h{n}.qc"
        source.write_text(circuit, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "qmc", "translate", str(source), "--to", "proof"],
            capture_output=True,
            env={**_subprocess_env(), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=_cap_child_memory,
            timeout=120,
        )
        script = directory / f"h{n}.qmc"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{script}\n".encode(), b"")
        bindings = parse_proof(script.read_text(encoding="utf-8")).bindings
        assert translate.steps_to_circuit(bindings) == parse_circuit(circuit)
    source.unlink()
    code, out, err = run_cli("translate", str(script), "--to", "circuit")
    assert (code, out, err) == (0, f"{source}\n", "")
    assert source.read_text(encoding="utf-8") == circuit


def test_check_rejects_circuit_files(run_cli, workdir):
    code, _, err = run_cli("check", str(workdir / "bell.qc"))
    assert code == 2
    assert "expects a .qmc" in err


def test_missing_file(run_cli):
    code, _, err = run_cli("check", "/nonexistent/path.qmc")
    assert code == 2
    assert "cannot read" in err
    assert err.count("/nonexistent/path.qmc") == 1


def test_unrecognized_extension(run_cli, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("hi")
    code, _, err = run_cli("dist", str(path))
    assert code == 2
    assert "extension" in err


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def test_dist_bell_exact_lines(run_cli, workdir):
    code, out, _ = run_cli("dist", str(workdir / "bell.qc"))
    assert code == 0
    assert out.splitlines() == ["|00> 1/2 0.5", "|11> 1/2 0.5"]


def test_dist_hh_is_certain(run_cli, workdir):
    code, out, _ = run_cli("dist", str(workdir / "hh.qc"))
    assert code == 0
    assert out.splitlines() == ["|0> 1 1.0"]


def test_dist_ghz(run_cli, workdir):
    code, out, _ = run_cli("dist", str(workdir / "ghz.qc"))
    assert code == 0
    assert out.splitlines() == ["|000> 1/2 0.5", "|111> 1/2 0.5"]


def test_dist_on_a_proof_script(run_cli, workdir):
    code, out, _ = run_cli("dist", str(workdir / "bell_pre.qmc"))
    assert code == 0
    assert out.splitlines() == ["|00> 1/2 0.5", "|11> 1/2 0.5"]


def test_dist_on_a_measured_proof_fails(run_cli, workdir):
    code, _, err = run_cli("dist", str(workdir / "bell_00.qmc"))
    assert code == 1
    assert "measurement" in err


def test_dist_on_a_born_terminated_script(run_cli, tmp_path):
    path = tmp_path / "pending.qmc"
    path.write_text(
        "proof pending { a = ax; b = ax; t = tensor a b;"
        " h = gate H [0] t; c = gate CNOT [0,1] h; d = born c; }\n"
    )
    code, out, _ = run_cli("dist", str(path))
    assert code == 0
    assert out.splitlines() == ["|00> 1/2 0.5", "|11> 1/2 0.5"]


def test_dist_of_a_long_chain_prints_floats_past_the_float_range(run_cli, tmp_path):
    # Each weight's p and q pass 2^1024, which `float` cannot hold.
    path = tmp_path / "chain.qc"
    path.write_text("qubits 1\n" + "H 0\nT 0\n" * 3000 + "measure\n")
    code, out, err = run_cli("dist", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["|0>", "|1>"]
    with decimal.localcontext() as exact_digits:
        exact_digits.prec = 400
        for line in lines:
            _, text, printed = line.split()
            match = re.fullmatch(r"\((-?\d+)([+-]\d+)\*sqrt2\)/(\d+)", text)
            p, q, denominator = map(int, match.groups())
            assert max(abs(p), abs(q)).bit_length() > 1024
            exact = (p + q * decimal.Decimal(2).sqrt()) / denominator
            assert abs(decimal.Decimal(float(printed)) / exact - 1) < decimal.Decimal("1e-12")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_is_byte_identical_per_seed(run_cli, workdir):
    first = run_cli("run", str(workdir / "bell.qc"), "--seed", "1")
    second = run_cli("run", str(workdir / "bell.qc"), "--seed", "1")
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "outcome |" in out
    assert "p=1/2" in out


def test_run_point_distribution_ignores_the_seed(run_cli, workdir):
    path = workdir / "hh_measured.qc"
    path.write_text("qubits 1\nH 0\nH 0\nmeasure\n")
    outs = set()
    for seed in ("0", "1", "99"):
        code, out, _ = run_cli("run", str(path), "--seed", seed)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert "outcome |0> p=1" in outs.pop()


def test_run_respects_qmc_seed_env(run_cli, workdir, monkeypatch):
    explicit = run_cli("run", str(workdir / "bell.qc"), "--seed", "7")
    monkeypatch.setenv("QMC_SEED", "7")
    via_env = run_cli("run", str(workdir / "bell.qc"))
    assert explicit == via_env


def test_a_seed_is_any_integer_reduced_modulo_2_to_the_64(run_cli, workdir, monkeypatch):
    bell = str(workdir / "bell.qc")
    low = run_cli("run", bell, "--seed", "-1")
    high = run_cli("run", bell, "--seed", str(2**64 - 1))
    assert low[0] == 0
    assert low == high
    monkeypatch.setenv("QMC_SEED", "-1")
    assert run_cli("run", bell) == high


def test_run_bad_env_seed(run_cli, workdir, monkeypatch):
    monkeypatch.setenv("QMC_SEED", "pi")
    code, _, err = run_cli("run", str(workdir / "bell.qc"))
    assert code == 2
    assert "QMC_SEED" in err


def test_a_seed_past_the_digit_limit_is_refused_as_too_long(run_cli, workdir, monkeypatch):
    # One more digit than int() converts by default, with a sign and blanks
    # that int() reads; a shorter one of the same form is a seed.
    monkeypatch.setenv("QMC_SEED", " -" + "7" * 4301 + " ")
    assert run_cli("run", str(workdir / "bell.qc")) == (
        2,
        "",
        "error: QMC_SEED: number too long (4301 digits)\n",
    )
    monkeypatch.setenv("QMC_SEED", " -" + "7" * 4300 + " ")
    assert run_cli("run", str(workdir / "bell.qc"))[0] == 0


@pytest.mark.parametrize("command", [["run"], ["translate", "--to", "proof"]], ids=["run", "translate"])
@pytest.mark.parametrize(
    "seed, message",
    # Past int()'s default conversion limit, 5000 digits are refused in the
    # words of the parsers' positioned error, not read as no integer.
    [
        ("pi", "--seed must be an integer, got 'pi'"),
        ("9" * 5000, "--seed: number too long (5000 digits)"),
    ],
    ids=["word", "5000-digits"],
)
def test_a_bad_seed_flag_is_one_short_usage_error(run_cli, workdir, command, seed, message):
    outdir = workdir / "out"
    outdir.mkdir()
    name, *flags = command
    if name == "translate":
        flags += ["--outdir", str(outdir)]
    code, out, err = run_cli(name, str(workdir / "bell.qc"), *flags, "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 300
    assert not any(outdir.iterdir())


def test_run_needs_a_measured_input(run_cli, workdir):
    code, _, err = run_cli("run", str(workdir / "hh.qmc"))
    assert code == 1
    assert "Born annotation" in err


def test_run_completes_a_born_terminated_script(run_cli, tmp_path):
    path = tmp_path / "pending.qmc"
    path.write_text(
        "proof pending { a = ax; b = ax; t = tensor a b;"
        " h = gate H [0] t; c = gate CNOT [0,1] h; d = born c; }\n"
    )
    code, out, _ = run_cli("run", str(path), "--seed", "4")
    assert code == 0
    assert "[measure |" in out
    assert "p=1/2" in out.splitlines()[-1]


def test_run_unmeasured_circuit(run_cli, workdir):
    code, _, err = run_cli("run", str(workdir / "hh.qc"))
    assert code == 1
    assert "no terminal measure" in err


def _tree_run(c: translate.Circuit, seed: int) -> str:
    """`run`'s stdout as the tree of `circuit_to_proof` prints it."""
    (proof,) = translate.circuit_to_proof(c, "sample", seed)
    root = proof.conclusion
    return render_proof(proof) + f"outcome {root.outcome} p={root.prob.text()}\n"


# Seeds over the whole integer range: negative, and at or past 2^64, too.
_ANY_SEED = st.one_of(
    st.integers(), st.integers(max_value=-1), st.integers(min_value=2**64)
)


@settings(max_examples=120, deadline=None)
@given(
    st.builds(
        lambda s: translate.random_circuit(random.Random(s), 6, 40, measured=True),
        st.integers(0, 2**32 - 1),
    ),
    _ANY_SEED,
)
@example(translate.Circuit(3, (), measured=True), 1)  # no gate at all
def test_run_of_a_circuit_prints_the_rows_of_its_sampled_tree(c, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.qc"
        path.write_text(parser.render_circuit(c), encoding="ascii")
        assert _main_io("run", str(path), "--seed", str(seed)) == (0, _tree_run(c, seed), "")


def test_run_of_a_circuit_builds_no_tree(monkeypatch, tmp_path):
    # Every golden circuit's transcript stays as it is with no tree to be
    # had, and `run` derives only the Born annotation and the measurement
    # through `apply_rule`, however many gates the circuit has.
    def refuse(*_):
        raise AssertionError("circuit_to_proof was called")

    calls = []
    apply_rule = calculus.apply_rule

    def counted(rule, premises):
        calls.append(type(rule))
        return apply_rule(rule, premises)

    monkeypatch.setattr(translate, "circuit_to_proof", refuse)
    monkeypatch.setattr(calculus, "apply_rule", counted)
    for name, text in golden_inputs().items():
        if name.endswith(".qc"):
            workdir = tmp_path / name
            workdir.mkdir()
            expected = (GOLDEN_EXPECTED / f"{name}.txt").read_bytes()
            assert transcript(name, text, workdir).encode() == expected, name
    chain = tmp_path / "chain.qc"
    chain.write_text("qubits 2\n" + "H 0\nCNOT 0 1\nT 1\n" * 300 + "measure\n")
    for path in sorted(GOLDEN.glob("*.qc")) + [chain]:
        if "measure" in path.read_text().split():
            calls.clear()
            code, out, _ = _main_io("run", str(path), "--seed", "1")
            assert code == 0 and out.endswith("\n"), path.name
            assert calls == [calculus.BornRule, calculus.Measure], path.name


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

def test_translate_enumerates_both_bell_branches(run_cli, workdir):
    code, out, _ = run_cli(
        "translate", str(workdir / "bell.qc"), "--to", "proof", "--enumerate"
    )
    assert code == 0
    written = out.splitlines()
    assert written == [str(workdir / "bell_00.qmc"), str(workdir / "bell_11.qmc")]
    for path in written:
        check_code, check_out, _ = run_cli("check", path)
        assert check_code == 0
        assert check_out.rstrip().endswith("valid")


def test_translate_proof_back_to_circuit(run_cli, workdir):
    code, out, _ = run_cli("translate", str(workdir / "bell_00.qmc"), "--to", "circuit")
    assert code == 0
    produced = (workdir / "bell_00.qc").read_text()
    golden = (GOLDEN / "bell.qc").read_text()
    # Same content up to the leading comment line.
    assert produced == "".join(
        line for line in golden.splitlines(keepends=True) if not line.startswith("#")
    )


def test_translate_round_trip_through_files(run_cli, workdir):
    run_cli("translate", str(workdir / "bell.qc"), "--to", "proof", "--enumerate")
    run_cli("translate", str(workdir / "bell_11.qmc"), "--to", "circuit")
    from qmc.parser import parse_circuit

    assert parse_circuit((workdir / "bell_11.qc").read_text()) == parse_circuit(
        (workdir / "bell.qc").read_text()
    )


def test_translate_prep_proof_fails_without_writing(run_cli, tmp_path):
    path = tmp_path / "seq.qmc"
    path.write_text("proof seq { a = prep |1>; }\n")
    code, _, err = run_cli("translate", str(path), "--to", "circuit")
    assert code == 1
    assert "UnsupportedTranslation" in err
    assert not (tmp_path / "seq.qc").exists()


def test_translate_sampled_single_branch(run_cli, workdir):
    code, out, _ = run_cli(
        "translate", str(workdir / "bell.qc"), "--to", "proof", "--seed", "1"
    )
    assert code == 0
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "flags", [("--enumerate", "--seed", "1"), ("--seed", "1", "--enumerate")]
)
def test_translate_enumerate_with_seed_is_a_usage_error(run_cli, workdir, tmp_path, flags):
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, out, err = run_cli(
        "translate", str(workdir / "bell.qc"), "--to", "proof", *flags,
        "--outdir", str(outdir),
    )
    assert (code, out) == (2, "")
    assert err == "error: --enumerate and --seed exclude each other\n"
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("name", ["bell.qc", "hh.qc"])
@pytest.mark.parametrize("flags", [(), ("--enumerate",), ("--seed", "1")])
def test_translate_to_proof_never_reads_qmc_seed(run_cli, workdir, monkeypatch, name, flags):
    # QMC_SEED is run's default seed; translate samples only on --seed.
    written = {}
    for seed in (None, "pi"):
        if seed is not None:
            monkeypatch.setenv("QMC_SEED", seed)
        outdir = workdir / f"out-{seed}"
        outdir.mkdir()
        code, _, err = run_cli(
            "translate", str(workdir / name), "--to", "proof", *flags, "--outdir", str(outdir)
        )
        assert (code, err) == (0, "")
        written[seed] = {path.name: path.read_text() for path in outdir.iterdir()}
    assert written["pi"] == written[None]


def test_translate_unmeasured_circuit_gives_one_proof(run_cli, workdir):
    code, out, _ = run_cli("translate", str(workdir / "hh.qc"), "--to", "proof")
    assert code == 0
    assert out.splitlines() == [str(workdir / "hh.qmc")]
    check_code, _, _ = run_cli("check", str(workdir / "hh.qmc"))
    assert check_code == 0


@pytest.mark.parametrize("stem", ["caf\u00e9", "proof"])
@pytest.mark.parametrize("circuit", ["qubits 1\nH 0\n", "qubits 1\nH 0\nmeasure\n"])
def test_translated_scripts_check_whatever_the_stem(run_cli, tmp_path, stem, circuit):
    source = tmp_path / f"{stem}.qc"
    source.write_text(circuit, encoding="utf-8")
    code, out, _ = run_cli("translate", str(source), "--to", "proof")
    assert code == 0
    written = out.splitlines()
    assert written
    for path in written:
        check_code, _, err = run_cli("check", path)
        assert (check_code, err) == (0, "")


def test_main_carries_no_state_between_calls(run_cli, workdir):
    # main parses with one parser per process; nothing one call parses or
    # decides may reach the next call.
    from qmc import cli

    bell = str(workdir / "bell.qc")
    calls = [
        ("translate", bell, "--to", "proof"),
        ("translate", bell, "--to", "proof", "--seed", "3"),
        ("dist", bell),
    ]

    def outcome(argv):
        for path in workdir.glob("bell_*.qmc"):
            path.unlink()
        result = run_cli(*argv)
        written = {p.name: p.read_text() for p in sorted(workdir.glob("bell_*.qmc"))}
        return result, written

    shared = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._argparser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [len(written) for _, written in shared] == [2, 1, 0]


def test_translate_outdir(run_cli, workdir, tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, out, _ = run_cli(
        "translate",
        str(workdir / "bell.qc"),
        "--to",
        "proof",
        "--enumerate",
        "--outdir",
        str(outdir),
    )
    assert code == 0
    assert (outdir / "bell_00.qmc").exists() and (outdir / "bell_11.qmc").exists()


@pytest.mark.parametrize(
    "name, args",
    [
        ("bell.qc", ["--to", "proof", "--enumerate"]),
        ("bell_00.qmc", ["--to", "circuit"]),
    ],
)
def test_translate_into_a_missing_outdir_is_a_usage_error(
    run_cli, workdir, tmp_path, name, args
):
    outdir = tmp_path / "missing" / "out"
    code, out, err = run_cli(
        "translate", str(workdir / name), *args, "--outdir", str(outdir)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {outdir}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "name, args, output",
    [
        ("bell.qc", ["--to", "proof"], "bell_00.qmc"),
        ("bell_00.qmc", ["--to", "circuit"], "bell_00.qc"),
    ],
)
def test_an_output_path_that_cannot_be_written_is_a_usage_error(
    run_cli, workdir, tmp_path, name, args, output
):
    outdir = tmp_path / "out"
    (outdir / output).mkdir(parents=True)
    code, out, err = run_cli("translate", str(workdir / name), *args, "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {outdir / output}: ")
    assert len(err.splitlines()) == 1
    assert err.count(str(outdir / output)) == 1


@pytest.mark.parametrize(
    "width, names",
    [
        # "w_" + 249 bits + ".qmc" is 255 bytes, the usual NAME_MAX.
        (249, ["w_0" + "0" * 248, "w_1" + "0" * 248]),
        (250, ["w_0", "w_1"]),
        (300, ["w_0", "w_1"]),
    ],
)
def test_branches_too_long_to_name_by_their_bits_are_named_by_rank(
    run_cli, tmp_path, width, names
):
    source = tmp_path / "w.qc"
    source.write_text(f"qubits {width}\nH 0\nmeasure\n", encoding="ascii")
    every, drawn = tmp_path / "every", tmp_path / "drawn"
    every.mkdir()
    drawn.mkdir()
    paths = [every / f"{name}.qmc" for name in names]
    assert run_cli("translate", str(source), "--to", "proof", "--outdir", str(every)) == (
        0,
        "".join(f"{path}\n" for path in paths),
        "",
    )
    for path in paths:
        code, out, err = run_cli("check", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("valid\n")
        assert f"proof {path.stem} " in path.read_text(encoding="ascii")
    # A drawn branch keeps the name and script it has among all of them.
    args = ("--to", "proof", "--seed", "3", "--outdir", str(drawn))
    code, out, err = run_cli("translate", str(source), *args)
    (path,) = drawn.iterdir()
    assert (code, out, err) == (0, f"{path}\n", "")
    assert path.read_text(encoding="ascii") == (every / path.name).read_text(encoding="ascii")


@pytest.mark.parametrize(
    "name, args, computes",
    [
        ("bell.qc", ["--to", "proof"], "final_state"),
        ("bell.qc", ["--to", "proof", "--seed", "1"], "final_state"),
        ("bell_00.qmc", ["--to", "circuit"], "elaborate"),
    ],
)
def test_translate_checks_the_outdir_before_computing(
    run_cli, workdir, tmp_path, monkeypatch, name, args, computes
):
    def computed(*_):
        raise AssertionError(f"{computes} was called")

    monkeypatch.setattr(cli, computes, computed)
    monkeypatch.setattr(translate, "final_state", computed)
    outdir = tmp_path / "missing"
    code, out, err = run_cli("translate", str(workdir / name), *args, "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {outdir}: not a directory\n"


@pytest.mark.parametrize(
    "name, text, args",
    [
        ("bad.qc", "qubits 2\nH 5\n", ["--to", "proof"]),
        ("bad.qmc", "proof p { a = ax; g = gate H [0]; }\n", ["--to", "circuit"]),
    ],
)
def test_a_parse_error_comes_before_a_bad_outdir(run_cli, tmp_path, name, text, args):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        "translate", str(path), *args, "--outdir", str(tmp_path / "missing")
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: line ")


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_ascii(run_cli, workdir):
    code, out, _ = run_cli("render", str(workdir / "bell_pre.qmc"))
    assert code == 0
    assert "(1/sqrt2)|00> + (1/sqrt2)|11> =>" in out


def test_render_latex(run_cli, workdir):
    code, out, _ = run_cli(
        "render", str(workdir / "bell_00.qmc"), "--format", "latex"
    )
    assert code == 0
    assert out.startswith("\\begin{prooftree}")
    assert "\\RightLabel{$M$}" in out


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes(run_cli):
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert "selftest passed" in out


def test_selftest_fault_injection_names_unitarity(run_cli, monkeypatch):
    builtin = cli.builtin

    def faulty(name):
        return corrupted(builtin(name)) if name == "H" else builtin(name)

    monkeypatch.setattr(cli, "builtin", faulty)
    assert run_cli("selftest") == (1, "", "selftest failure: unitarity: H is not unitary\n")


def test_selftest_reports_a_golden_proof_failure(run_cli, monkeypatch):
    # With `ket` handing back |1>, the double Hadamard's |0> reads as not
    # cancelling.
    ket = cli.ket
    monkeypatch.setattr(cli, "ket", lambda bits: ket("1"))
    assert run_cli("selftest") == (
        1,
        "unitarity: ok\n",
        "selftest failure: golden: double Hadamard did not cancel back to |0>\n",
    )


_FAILED_CHECK = calculus.CheckReport(
    valid=False,
    nodes=(calculus.NodeReport((), "measure |00>", "invalid", "forged"),),
    assumptions=(),
)


def _bell_gives(text, count):
    """A fault for `translate.circuit_to_proof`: the measured circuit, which
    in the golden suite is Bell's, gets the first `count` proofs of the
    circuit `text` instead of its own."""
    def fault(real):
        def translated(circuit, *args):
            if circuit.measured:
                return real(parse_circuit(text), *args)[:count]
            return real(circuit, *args)
        return translated
    return translate, "circuit_to_proof", fault


def _check_fails(picks):
    """A fault for `calculus.check`: a failing report for each proof that
    `picks` selects."""
    def fault(real):
        return lambda proof: _FAILED_CHECK if picks(proof) else real(proof)
    return calculus, "check", fault


@pytest.mark.parametrize(
    "patch, failure",
    [
        (
            _bell_gives("qubits 2\nH 0\nCNOT 0 1\nmeasure\n", 1),
            "Bell enumerates 1 branches, expected 2",
        ),
        (_check_fails(lambda proof: True), "Bell proof failed check: forged"),
        (
            # Two of the four equally likely branches of H on both wires.
            _bell_gives("qubits 2\nH 0\nH 1\nmeasure\n", 2),
            "Bell outcome probability 1/4, expected 1/2",
        ),
        (
            _check_fails(lambda proof: isinstance(proof.conclusion, calculus.Coherent)),
            "double-Hadamard proof failed check",
        ),
    ],
    ids=["bell-one-branch", "bell-invalid", "bell-probability", "hh-invalid"],
)
def test_selftest_names_each_golden_proof_failure(run_cli, monkeypatch, patch, failure):
    module, name, fault = patch
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert run_cli("selftest") == (
        1,
        "unitarity: ok\n",
        f"selftest failure: golden: {failure}\n",
    )


def test_selftest_sweep_catches_a_gate_that_breaks_the_norm(run_cli, monkeypatch):
    # A gate's conclusion skips the norm check, so the sweep's exact norm of
    # each final state is the runtime guard left against such a bug; it
    # speaks before the comparison with the oracle would.  The fault drops
    # the largest basis index of each gate result with two or more terms, at
    # the kernel that `final_state` runs every gate but a permutation through.
    apply_packed = translate.apply_packed

    def dropping(app, width, packed):
        out = apply_packed(app, width, packed)
        if len(out) >= 2:
            del out[max(out)]
        return out

    monkeypatch.setattr(translate, "apply_packed", dropping)
    assert run_cli("selftest") == (
        1,
        "unitarity: ok\ngolden proofs: ok\n",
        "selftest failure: differential: circuit 2: exact state has norm squared 1/4, "
        "expected 1\n",
    )


def test_selftest_sweep_catches_a_run_that_breaks_the_norm(run_cli, monkeypatch):
    # The same fault in the kernel that `final_state` runs each run of
    # permutation gates through: the sweep's norm guard covers it too.
    apply_run = translate.apply_run

    def dropping(run, width, packed):
        out = apply_run(run, width, packed)
        if len(out) >= 2:
            del out[max(out)]
        return out

    monkeypatch.setattr(translate, "apply_run", dropping)
    assert run_cli("selftest") == (
        1,
        "unitarity: ok\ngolden proofs: ok\n",
        "selftest failure: differential: circuit 2: exact state has norm squared 1/4, "
        "expected 1\n",
    )


def test_selftest_reports_oracle_norm_drift_as_a_failure(run_cli, monkeypatch):
    monkeypatch.setitem(
        oracle._MATRICES, "T", np.array([[1, 0], [0, 2]], dtype=complex)
    )
    code, out, err = run_cli("selftest")
    assert code == 1
    assert "differential sweep: ok" not in out
    assert len(err.splitlines()) == 1
    assert re.fullmatch(
        r"selftest failure: differential: circuit \d+: oracle norm drifted to \S+\n",
        err,
    )


def test_selftest_sweep_catches_a_wrong_unitary_answer(run_cli, monkeypatch):
    # S is unitary, so the oracle's norm check passes; only the comparison
    # with the exact engine can tell that T was applied wrongly.
    monkeypatch.setitem(oracle._MATRICES, "T", oracle._MATRICES["S"])
    code, out, err = run_cli("selftest")
    assert code == 1
    assert "differential sweep: ok" not in out
    assert err.startswith("selftest failure: differential: circuit ")


# ---------------------------------------------------------------------------
# deep proofs and closed pipes
# ---------------------------------------------------------------------------

def test_a_ten_thousand_gate_chain_passes_every_command(run_cli, tmp_path):
    # Far deeper than the default recursion limit, which stays as it is.
    assert sys.getrecursionlimit() == 1000
    ops = (["H 0"] + ["T 0"] * 8 + ["H 0"]) * 1000
    circuit = "qubits 1\n" + "\n".join(ops) + "\nmeasure\n"
    (tmp_path / "chain.qc").write_text(circuit)
    chain = str(tmp_path / "chain.qc")
    script = str(tmp_path / "chain_0.qmc")
    nodes = len(ops) + 3  # the axiom, the gates, born and measure

    assert run_cli("translate", chain, "--to", "proof")[0] == 0
    code, out, _ = run_cli("check", script)
    assert code == 0 and len(out.splitlines()) == nodes + 1
    code, out, _ = run_cli("render", script)
    assert code == 0 and len(out.splitlines()) == nodes
    code, out, _ = run_cli("render", script, "--format", "latex")
    assert code == 0 and out.count("InfC{") == nodes
    back = tmp_path / "back"
    back.mkdir()
    assert run_cli("translate", script, "--to", "circuit", "--outdir", str(back))[0] == 0
    assert (back / "chain_0.qc").read_text() == circuit
    code, out, _ = run_cli("run", chain, "--seed", "1")
    assert code == 0 and out.endswith("outcome |0> p=1\n")
    assert run_cli("dist", chain) == (0, "|0> 1 1.0\n", "")

    from qmc.parser import elaborate, parse_proof

    root = elaborate(parse_proof(Path(script).read_text()))
    assert hash(root) == hash(root)
    assert root == root and root != root.premises[0]
    assert repr(root).startswith("ProofNode(rule=Measure(")


def test_a_closed_pipe_ends_quietly_with_exit_1(tmp_path):
    # 4096 outcomes print more than a pipe holds, so the write that finds
    # the reader gone cannot be avoided.
    path = tmp_path / "wide.qc"
    path.write_text("qubits 12\n" + "".join(f"H {w}\n" for w in range(12)) + "measure\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmc", "dist", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    proc.stdout.read(1)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "command",
    [
        ("render", "{script}"),
        ("render", "{script}", "--format", "latex"),
        ("run", "{circuit}", "--seed", "1"),
        ("dist", "{circuit}"),
        ("check", "{script}"),
    ],
)
def test_a_large_output_into_a_closed_pipe_ends_with_exit_1(
    run_cli, tmp_path, command, unbuffered
):
    # Unbuffered, a write that a pipe takes only in part drops the rest and
    # raises nothing; one ascii line of this proof is 221 KB, so only a
    # writer that sends bounded pieces meets the closed pipe again.
    circuit = tmp_path / "wide.qc"
    circuit.write_text("qubits 12\n" + "".join(f"H {w}\n" for w in range(12)) + "measure\n")
    code, out, _ = run_cli(
        "translate", str(circuit), "--to", "proof", "--seed", "1", "--outdir", str(tmp_path)
    )
    assert code == 0
    argv = [a.format(script=out.strip(), circuit=circuit) for a in command]
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmc", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.read(1)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


class _Recorder:
    """A stdout that keeps each write apart, buffered or `write_through`."""

    def __init__(self, write_through: bool) -> None:
        self.write_through = write_through
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _golden_stdout(name: str, command: str) -> tuple[int, str]:
    """The exit code and stdout that the golden transcript of `name` holds
    for `qmc <command>`."""
    data = (GOLDEN / "expected" / f"{name}.txt").read_bytes()
    head = re.search(
        rb"\$ qmc %s\nexit (\d+)\n--- stdout \((\d+) bytes\)\n" % re.escape(command.encode()),
        data,
    )
    return int(head[1]), data[head.end() : head.end() + int(head[2])].decode()


_PROOF_COMMANDS = ("check", "render", "render --format latex")


@pytest.mark.parametrize("write_through", [True, False], ids=["write_through", "buffered"])
@pytest.mark.parametrize(
    "name, command",
    [("bell.qc", "run --seed 1")]
    + [
        (name, command)
        for name in (*GOLDEN_PROOFS, "prep_fail.qmc")
        for command in _PROOF_COMMANDS
    ],
)
def test_each_row_is_written_as_it_is_made(monkeypatch, tmp_path, name, command, write_through):
    # Buffered, each write is at most one row, so no command joins a whole
    # proof's text, a failure report's included; write_through, each write
    # fits `_WRITE_CHARS`.  Either way the writes make the golden stdout.
    from test_golden_cli import golden_inputs

    path = tmp_path / name
    path.write_text(golden_inputs()[name], encoding="utf-8")
    verb, *flags = command.split()
    stdout = _Recorder(write_through)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main([verb, str(path), *flags])
    monkeypatch.undo()
    expected = _golden_stdout(name, " ".join([verb, name, *flags]))
    assert (code, "".join(stdout.pieces)) == expected
    for piece in stdout.pieces:
        if write_through:
            assert len(piece) <= cli._WRITE_CHARS
        else:
            assert "\n" not in piece[:-1], piece


@pytest.mark.parametrize("command", _PROOF_COMMANDS)
def test_a_row_longer_than_a_pipe_write_goes_out_in_slices(
    monkeypatch, run_cli, tmp_path, command
):
    # A row of a 9-wire state is longer than `_WRITE_CHARS`, so
    # write_through slices it, and the slices join to the buffered rows.
    circuit = tmp_path / "h9.qc"
    circuit.write_text("qubits 9\n" + "".join(f"H {w}\n" for w in range(9)) + "measure\n")
    code, out, _ = run_cli("translate", str(circuit), "--to", "proof", "--seed", "1")
    assert code == 0
    verb, *flags = command.split()
    outputs = []
    for write_through in (True, False):
        stdout = _Recorder(write_through)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main([verb, out.strip(), *flags])
        monkeypatch.undo()
        assert code == 0
        outputs.append(stdout.pieces)
    sliced, rows = outputs
    assert max(map(len, rows)) > cli._WRITE_CHARS >= max(map(len, sliced))
    assert "".join(sliced) == "".join(rows)
