"""CLI behavior: exit codes, report formats, determinism, file emission."""

import decimal
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from qmc import calculus, cli, oracle, state, translate
from qmc.amplitude import PACKED_ONE

from qmc.cli import main
from qmc.parser import elaborate, parse_circuit, parse_proof

from conftest import GOLDEN, PREP_LEAF_SCRIPT, VALID_SCRIPTS, corrupted, load_golden


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


def _stdout_lines(*argv: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().splitlines()


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
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"error: out of memory\n")


def _script_tree(script) -> calculus.ProofNode:
    """A script's proof tree with no conclusions: its rules and premises
    alone, all that `proof_to_circuit` reads."""
    nodes: dict = {}
    for b in script.bindings:
        premises = tuple(nodes.pop(name) for name in b.premises)
        nodes[b.name] = calculus.ProofNode(b.rule, premises, None)
    (root,) = nodes.values()
    return root


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
        tree = _script_tree(parse_proof(script.read_text(encoding="utf-8")))
        assert translate.proof_to_circuit(tree) == parse_circuit(circuit)
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


@pytest.mark.parametrize("command", [["run"], ["translate", "--to", "proof"]], ids=["run", "translate"])
@pytest.mark.parametrize(
    "seed, quoted",
    # Past int()'s default conversion limit, 5000 digits read as no integer.
    [("pi", "'pi'"), ("9" * 5000, "'999999999999...'")],
    ids=["word", "5000-digits"],
)
def test_a_bad_seed_flag_is_one_short_usage_error(run_cli, workdir, command, seed, quoted):
    outdir = workdir / "out"
    outdir.mkdir()
    name, *flags = command
    if name == "translate":
        flags += ["--outdir", str(outdir)]
    code, out, err = run_cli(name, str(workdir / "bell.qc"), *flags, "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: --seed must be an integer, got {quoted}\n"
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
