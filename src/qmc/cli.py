"""Command-line surface: check, dist, run, translate, render, selftest.

Exit codes: 0 success, 1 check or validation failure, 2 usage or parse error.
Reports go to stdout, errors to stderr.  All commands are deterministic given
the input bytes, flags, and seed; QMC_SEED provides `run`'s default seed.
A seed may be any integer; sampling reduces it modulo 2^64.
When the reader of stdout goes away first (`qmc dist big.qc | head -1`), the
command stops quietly with exit 1: no message and no traceback.  A command
that runs out of memory prints `error: out of memory` and exits 1.

Every command that reads a .qmc script elaborates it first.  `qmc check`
prints one row per binding, in script order: `ok`, or `assumed` for an
assumption leaf, with its conclusion; then `valid`.  When a binding's rule
fails, any command prints the same rows up to the failure, then the failed
binding as `invalid` with the reason, then `invalid`, and exits 1.  A
binding that no later one consumes (the root aside) is a parse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys
from pathlib import Path
from typing import Iterable

from . import calculus, oracle, parser as frontend, translate
from .calculus import (
    BornAnnotated,
    Coherent,
    Measure,
    Measured,
    distribution,
    sample_outcome,
    sequent_text,
    verdict,
)
from .gates import BUILTIN_NAMES, builtin, is_unitary
from .parser import ElaborationError, SourceError, elaborate, parse_circuit, parse_proof
from .state import _clip, ket
from .translate import UnsupportedTranslation, final_state, random_circuit


class _UsageError(Exception):
    pass


class _ValidationError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise _UsageError(f"{path} is not valid UTF-8: {err}") from err


def _write(path: Path, content: str) -> None:
    try:
        path.write_text(content, encoding="utf-8")
    except OSError as err:
        raise _UsageError(f"cannot write {path}: {err}") from err


def _kind(path: str) -> str:
    suffix = Path(path).suffix
    if suffix in (".qmc", ".qc"):
        return suffix
    raise _UsageError(f"unrecognized input extension {suffix!r}; expected .qmc or .qc")


def _print_report(
    completed: Iterable[tuple[str, calculus.ProofNode]],
    failure: ElaborationError | None = None,
) -> None:
    """`qmc check`'s report: one `name: status  text` line per elaborated
    binding, in script order, with its conclusion; then, when elaboration
    failed, the failed binding with the reason; then the overall verdict."""
    texts: dict = {}  # one rendering memo for every node
    for name, node in completed:
        print(f"{name}: {verdict(node)}  {sequent_text(node.conclusion, texts)}")
    if failure is None:
        print("valid")
        return
    detail = f"{type(failure.cause).__name__}: {failure.cause}"
    print(f"{failure.binding.name}: {verdict(None, detail)}  {detail}")
    print("invalid")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    if _kind(args.path) != ".qmc":
        raise _UsageError("check expects a .qmc proof script")
    # Elaboration derived every node, so it was the check; linearity puts
    # every binding in the root's tree, so its list is the whole report.
    _print_report(frontend.elaborate_bindings(parse_proof(_read(args.path))))
    return 0


def _distribution_of(path: str) -> calculus.Distribution:
    kind = _kind(path)
    text = _read(path)
    if kind == ".qc":
        circuit = parse_circuit(text)
        return distribution(final_state(circuit))
    root = elaborate(parse_proof(text)).conclusion
    if isinstance(root, Coherent):
        return distribution(root.state)
    if isinstance(root, BornAnnotated):
        return root.dist
    raise _ValidationError(
        "the proof already ends in a measurement; nothing left to distribute"
    )


# A buffered stdout writes all it is given or raises.  An unbuffered one
# (`python -u`, PYTHONUNBUFFERED) drops what a pipe did not take of a write
# when its reader goes away, and raises nothing; only the next write fails.
# So `_emit` writes to it in pieces of PIPE_BUF characters (on Linux), which
# a pipe takes whole or fails, since the output is ASCII.
_WRITE_CHARS = 4096


def _emit(text: str) -> None:
    write = sys.stdout.write
    if not getattr(sys.stdout, "write_through", False):
        write(text)
        return
    for i in range(0, len(text), _WRITE_CHARS):
        write(text[i : i + _WRITE_CHARS])


def _dist_weight(p: calculus.ExactReal) -> str:
    return f"{p.text()} {p.to_float()}"


def cmd_dist(args: argparse.Namespace) -> int:
    # One `|bits> text float` line per outcome; each distinct weight is
    # formatted once.
    weights, kets = _distribution_of(args.path).formatted(_dist_weight, "|%s>")
    _emit("".join(map("%s %s\n".__mod__, zip(kets, weights))))
    return 0


def _seed(text: str, source: str) -> int:
    """The seed that `--seed` or QMC_SEED (the source) gives as text; an
    error quotes the text clipped, so its message stays one short line."""
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{source} must be an integer, got {_clip(text)!r}") from None


def cmd_run(args: argparse.Namespace) -> int:
    if args.seed is not None:
        seed = _seed(args.seed, "--seed")
    else:  # `run` is the one command that reads QMC_SEED
        seed = _seed(os.environ.get("QMC_SEED", "0"), "QMC_SEED")
    kind = _kind(args.path)
    text = _read(args.path)
    if kind == ".qc":
        circuit = parse_circuit(text)
        if not circuit.measured:
            raise _ValidationError("circuit has no terminal measure; nothing to run")
        (proof,) = translate.circuit_to_proof(circuit, "sample", seed)
    else:
        base = elaborate(parse_proof(text))
        root = base.conclusion
        if not isinstance(root, BornAnnotated):
            raise _ValidationError(
                "the proof must end in a Born annotation to be run"
            )
        outcome, _ = sample_outcome(root.dist, seed)
        proof = calculus.ProofNode.derive(Measure(outcome), (base,))
    _emit(frontend.render_proof(proof, "ascii"))
    conclusion = proof.conclusion
    assert isinstance(conclusion, Measured)
    print(f"outcome {conclusion.outcome} p={conclusion.prob.text()}")
    return 0


def _script_name(stem: str) -> str:
    """A proof name the script parser accepts, from a file stem."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", stem)
    if not frontend.is_identifier(cleaned):
        cleaned = "p_" + cleaned
    return cleaned


def _require_dir(outdir: Path) -> None:
    """Checked after parsing and before any computing, so a bad --outdir
    costs nothing."""
    if not outdir.is_dir():
        raise _UsageError(f"cannot write {outdir}: not a directory")


def cmd_translate(args: argparse.Namespace) -> int:
    seed = None if args.seed is None else _seed(args.seed, "--seed")
    if args.enumerate and seed is not None:
        raise _UsageError("--enumerate and --seed exclude each other")
    kind = _kind(args.path)
    text = _read(args.path)
    source = Path(args.path)
    outdir = Path(args.outdir) if args.outdir else source.parent
    stem = source.stem
    outputs: Iterable[tuple[Path, str]]
    if args.to == "proof":
        if kind != ".qc":
            raise _UsageError("translating to a proof expects a .qc circuit")
        circuit = parse_circuit(text)
        _require_dir(outdir)
        # Only the outcomes need a state.  Deterministic default: emit every
        # measurement branch; only an explicit --seed samples one, and
        # QMC_SEED is never read.
        if circuit.measured:
            dist = distribution(final_state(circuit))
            outcomes = dist.outcomes() if seed is None else [sample_outcome(dist, seed)[0]]
            branches = {f"{stem}_{outcome.bits}": outcome for outcome in outcomes}
        else:
            branches = {stem: None}
        script = frontend.script_writer(circuit)
        outputs = (
            (outdir / f"{name}.qmc", script(_script_name(name), outcome))
            for name, outcome in branches.items()
        )
    else:
        if kind != ".qmc":
            raise _UsageError("translating to a circuit expects a .qmc proof script")
        proof = parse_proof(text)
        _require_dir(outdir)
        circuit = translate.proof_to_circuit(elaborate(proof))
        outputs = [(outdir / f"{stem}.qc", frontend.render_circuit(circuit))]
    for path, content in outputs:
        _write(path, content)
        print(path)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    if _kind(args.path) != ".qmc":
        raise _UsageError("render expects a .qmc proof script")
    proof = elaborate(parse_proof(_read(args.path)))
    _emit(frontend.render_proof(proof, args.format))
    return 0


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

_SWEEP_CIRCUITS = 200  # random circuits in the differential sweep

def _selftest_unitarity() -> str | None:
    for name in BUILTIN_NAMES:
        if not is_unitary(builtin(name)):
            return f"unitarity: {name} is not unitary"
    return None


def _selftest_golden() -> str | None:
    proofs = translate.circuit_to_proof(parse_circuit("qubits 2\nH 0\nCNOT 0 1\nmeasure\n"))
    if len(proofs) != 2:
        return f"golden: Bell enumerates {len(proofs)} branches, expected 2"
    for proof in proofs:
        report = calculus.check(proof)
        if not report.valid:
            return f"golden: Bell proof failed check: {report.failures()[0].detail}"
        conclusion = proof.conclusion
        assert isinstance(conclusion, Measured)
        if conclusion.prob != calculus.ExactReal(1, 0, 1):
            return f"golden: Bell outcome probability {conclusion.prob}, expected 1/2"
    (proof,) = translate.circuit_to_proof(parse_circuit("qubits 1\nH 0\nH 0\n"))
    if not calculus.check(proof).valid:
        return "golden: double-Hadamard proof failed check"
    conclusion = proof.conclusion
    assert isinstance(conclusion, Coherent)
    if conclusion.state != ket("0"):
        return "golden: double Hadamard did not cancel back to |0>"
    return None


def _selftest_differential() -> str | None:
    rng = random.Random(0xD1FF)
    apps: dict = {}  # one GateApplication per distinct (gate, wires)
    for i in range(_SWEEP_CIRCUITS):
        circuit = random_circuit(rng, apps=apps)
        exact = final_state(circuit)
        try:
            floats = oracle.run_circuit(circuit)
        except ArithmeticError as err:
            return f"differential: circuit {i}: {err}"
        ok, deviation = oracle.compare(exact, floats, 1e-9)
        if not ok:
            return (
                f"differential: circuit {i} deviates by {deviation:.3e}:\n"
                + frontend.render_circuit(circuit)
            )
    return None


def cmd_selftest(args: argparse.Namespace) -> int:
    suites = (
        ("unitarity", _selftest_unitarity),
        ("golden proofs", _selftest_golden),
        ("differential sweep", _selftest_differential),
    )
    for name, suite in suites:
        failure = suite()
        if failure is not None:
            print(f"selftest failure: {failure}", file=sys.stderr)
            return 1
        print(f"{name}: ok")
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _argparser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    top = argparse.ArgumentParser(
        prog="qmc",
        description="Exact proof kernel for a sequent calculus of single "
        "quantum circuits.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a .qmc proof script")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dist", help="print the exact outcome distribution")
    p.add_argument("path")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("run", help="sample one measurement outcome")
    p.add_argument("path")
    p.add_argument("--seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("translate", help="translate between circuits and proofs")
    p.add_argument("path")
    p.add_argument("--to", required=True, choices=("proof", "circuit"))
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--seed")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("render", help="render a proof as ascii or latex")
    p.add_argument("path")
    p.add_argument("--format", default="ascii", choices=("ascii", "latex"))
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.set_defaults(func=cmd_selftest)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _argparser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except ElaborationError as err:
            _print_report(err.completed, err)
            code = 1
        sys.stdout.flush()  # a closed pipe shows up here, inside the guard
        return code
    except BrokenPipeError:
        # Whatever is still buffered goes to devnull, so that the flush at
        # interpreter shutdown does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SourceError, _UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (_ValidationError, UnsupportedTranslation) as err:
        kind = "" if isinstance(err, _ValidationError) else "UnsupportedTranslation: "
        print(f"error: {kind}{err}", file=sys.stderr)
        return 1
    except MemoryError:
        # The last resort for a state too wide for this process; the
        # failed allocation was the large one, so the message still fits.
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
