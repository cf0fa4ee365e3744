"""CLI behavior: exit codes, report formats, determinism, file emission."""

import shutil

import pytest

from conftest import GOLDEN


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


def test_check_weaken_is_a_check_failure(run_cli, tmp_path):
    path = tmp_path / "weak.qmc"
    path.write_text("proof weak { a = ax; w = weaken a |0>; }\n")
    code, out, _ = run_cli("check", str(path))
    assert code == 1
    assert "NonMonotonicityViolation" in out
    assert "invalid" in out


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


def test_run_bad_env_seed(run_cli, workdir, monkeypatch):
    monkeypatch.setenv("QMC_SEED", "pi")
    code, _, err = run_cli("run", str(workdir / "bell.qc"))
    assert code == 2
    assert "QMC_SEED" in err


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


def test_selftest_fault_injection_names_unitarity(run_cli):
    code, _, err = run_cli("selftest", "--inject-fault", "H")
    assert code == 1
    assert "unitarity" in err and "H" in err
