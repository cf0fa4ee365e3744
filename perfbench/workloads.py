"""The benchmark's workloads: seeded inputs and the qmc commands run on them.

Each workload writes `.qc` circuits and `.qmc` proof scripts with the
benchmark's own emitter and pairs every command with its known answer: the
exit code, and a checker for stdout and any file written.  One round runs
every task once, in this order: `selftest`; per input, `dist`, `run` and
`translate --to proof` on the circuit, then `check`, `render` (ascii, then
latex) and `translate --to circuit` on the script; `selftest` again.
README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import (
    ARITY,
    EPS,
    Script,
    close,
    emit_circuit,
    emit_script,
    probabilities,
    read_circuit,
    sample,
)

PERMUTE_OR_PHASE = ("X", "Z", "S", "T", "CNOT")
INVERSE = {"S": ("S",) * 3, "T": ("T",) * 7}  # X, Z, H and CNOT are self-inverse
WIDE_WIDTHS = (8, 9, 10)
SPARSE_WIDTHS = (24, 36, 48)
# Log-uniformly spaced chain lengths from 2*10^2 to 2*10^3, one per stratum,
# so every seed has the same number of scripts above the recursion limit.  An
# odd count puts each command's median on one script, not between two.
DEEP_GATES = tuple(round(200 * 10 ** ((i + 0.5) / 7)) for i in range(7))
DEEP_PLANTED = 1  # index of the mirror-closed script measuring a cancelled outcome


@dataclass
class Task:
    metric: str
    label: str
    argv: list[str]
    rc: int  # the known exit code
    gates: int  # circuit gates the command carries
    check: Callable[[str], str | None]  # stdout -> error message, or None


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    digest: str  # sha256 of every generated input file
    largest: tuple[int, list]  # (width, ops) of the circuit with the biggest proof
    notes: dict  # facts about the inputs, printed with the result


# ---------------------------------------------------------------------------
# Generators: (stem, width, ops, planted outcome or None)
# ---------------------------------------------------------------------------

def _gate(rng: random.Random, names, wires) -> tuple[str, tuple[int, ...]]:
    name = rng.choice(names)
    return name, tuple(rng.sample(list(wires), ARITY[name]))


def _inverse(ops) -> list:
    return [(g, w) for name, w in reversed(ops) for g in INVERSE.get(name, (name,))]


def _wide(rng: random.Random) -> list:
    """H on every wire, T or S on every wire, H again on a third of the wires,
    then a CNOT chain in random wire order and direction.  The support is 2^n
    from the first layer on, whatever the seed: after H T H or H S H both
    amplitudes of a wire are nonzero."""
    out = []
    for n in WIDE_WIDTHS:
        ops = [("H", (w,)) for w in range(n)] + [(rng.choice("TS"), (w,)) for w in range(n)]
        ops += [("H", (w,)) for w in sorted(rng.sample(range(n), (n + 2) // 3))]
        order = rng.sample(range(n), n)
        ops += [("CNOT", (a, b) if rng.random() < 0.5 else (b, a)) for a, b in zip(order, order[1:])]
        out.append((f"wide{n}", n, ops, None))
    return out


def _sparse(rng: random.Random) -> list:
    """A GHZ prefix, H on four more wires (support 32), random permutation and
    phase gates, then six mirror blocks U U^-1 on random six-wire subsets,
    each U holding one H, so the support peaks at 64 and cancels back."""
    out = []
    for n in SPARSE_WIDTHS:
        ops = [("H", (0,))] + [("CNOT", (w - 1, w)) for w in range(1, n)]
        ops += [("H", (w,)) for w in rng.sample(range(1, n), 4)]
        ops += [_gate(rng, PERMUTE_OR_PHASE, range(n)) for _ in range(n)]
        for _ in range(6):
            wires = rng.sample(range(n), 6)
            block = [_gate(rng, PERMUTE_OR_PHASE, wires) for _ in range(7)]
            block.insert(rng.randrange(8), ("H", (rng.choice(wires),)))
            ops += block + _inverse(block)
        out.append((f"sparse{n}", n, ops, None))
    return out


def _deep(rng: random.Random) -> list:
    """Random gate chains on 1-3 qubits.  The planted script is U U^-1, which
    returns to |0...0>, and measures |1...1>, an outcome that cancels."""
    out = []
    for i, size in enumerate(DEEP_GATES):
        width = 1 + i % 3
        names = ("H", "T", "S", "X", "Z") + (("CNOT",) if width > 1 else ())
        if i == DEEP_PLANTED:
            half: list = []
            length = 0
            while length < size:
                gate = _gate(rng, names, range(width))
                half.append(gate)
                length += 1 + len(INVERSE.get(gate[0], (gate[0],)))
            out.append((f"deep{i}", width, half + _inverse(half), "1" * width))
        else:
            ops = [_gate(rng, names, range(width)) for _ in range(size)]
            out.append((f"deep{i}", width, ops, None))
    return out


GENERATORS = {"wide": _wide, "sparse": _sparse, "deep": _deep}


# ---------------------------------------------------------------------------
# Output checkers
# ---------------------------------------------------------------------------

def _check_dist(out: str, probs: dict) -> str | None:
    seen = set()
    for line in out.splitlines():
        ket, exact, flt = line.split()
        expected = probs.get(ket[1:-1], 0.0)
        if not close(exact, expected) or abs(float(flt) - expected) > EPS:
            return f"{ket} has probability {exact}, expected {expected:.12g}"
        seen.add(ket[1:-1])
    missing = sorted(b for b, p in probs.items() if p > EPS and b not in seen)
    return f"outcomes missing from dist: {missing[:3]}" if missing else None


def _check_run(out: str, picks: set, probs: dict, nodes: int) -> str | None:
    lines = out.splitlines()
    m = re.fullmatch(r"outcome \|([01]+)> p=(\S+)", lines[-1])
    if m is None or m[1] not in picks:
        return f"run ended {lines[-1]!r}, expected an outcome in {sorted(picks)}"
    if not close(m[2], probs[m[1]]):
        return f"outcome {m[1]} has p={m[2]}, expected {probs[m[1]]:.12g}"
    if len(lines) != nodes + 1:
        return f"run rendered {len(lines) - 1} proof lines, expected {nodes}"
    return None


def _check_proof_file(out: str, width: int, ops: list, picks: set | None) -> str | None:
    script = Script(Path(out.strip()).read_text(encoding="utf-8"))
    if (script.width, script.ops) != (width, ops):
        return "translated proof describes another circuit"
    if picks is None:
        return "unmeasured circuit translated with a measurement" if script.born else None
    if script.outcome not in picks:
        return f"translated proof measures {script.outcome}, expected one of {sorted(picks)}"
    return None


def _check_valid(out: str, bindings: list) -> str | None:
    lines = out.splitlines()
    reported = sorted(line.split(": ok  ", 1)[0] for line in lines[:-1])
    if lines[-1] != "valid" or reported != sorted(bindings):
        return "valid proof not reported ok at every binding"
    return None


def _check_rejected(out: str, binding: str) -> str | None:
    lines = out.splitlines()
    bad = [line for line in lines if ": invalid  " in line]
    if (
        lines[-1] != "invalid"
        or len(bad) != 1
        or not bad[0].startswith(f"{binding}: invalid  OutcomeNotInSupport")
    ):
        return f"expected OutcomeNotInSupport at binding {binding}"
    return None


def _check_ascii(out: str, nodes: int, outcome: str | None) -> str | None:
    lines = out.splitlines()
    if len(lines) != nodes or not all(line.endswith("]") for line in lines):
        return f"ascii rendering has {len(lines)} lines, expected {nodes}"
    if outcome is not None and not lines[0].endswith(f"[measure |{outcome}>]"):
        return f"ascii rendering does not conclude with measuring |{outcome}>"
    return None


def _check_latex(out: str, nodes: int) -> str | None:
    lines = out.splitlines()
    inferences = sum("InfC{" in line for line in lines)
    if lines[0] != r"\begin{prooftree}" or lines[-1] != r"\end{prooftree}" or inferences != nodes:
        return f"latex rendering has {inferences} inferences, expected {nodes}"
    return None


def _check_circuit_file(out: str, width: int, ops: list, measured: bool) -> str | None:
    got = read_circuit(Path(out.strip()).read_text(encoding="utf-8"))
    return None if got == (width, ops, measured) else "translated circuit differs from the proof"


def _check_selftest(out: str) -> str | None:
    return None if out.rstrip().endswith("selftest passed") else "selftest did not pass"


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _circuit_tasks(path: Path, text: str, outdir: Path, seed: int, probs_of) -> list[Task]:
    width, ops, measured = read_circuit(text)
    probs = probs_of(width, ops)
    g, p, name = len(ops), str(path), path.name
    picks = sample(probs, seed) if measured else None
    nodes = 2 * width - 1 + g + 2
    run_check = (
        (lambda out: _check_run(out, picks, probs, nodes))
        if measured
        else (lambda out: None if not out else "run printed output for an unmeasured circuit")
    )
    return [
        Task("dist_s", f"dist {name}", ["dist", p], 0, g, lambda out: _check_dist(out, probs)),
        Task("run_s", f"run {name}", ["run", p, "--seed", str(seed)], 0 if measured else 1, g, run_check),
        Task(
            "translate_s",
            f"translate {name}",
            ["translate", p, "--to", "proof", "--seed", str(seed), "--outdir", str(outdir)],
            0,
            g,
            lambda out: _check_proof_file(out, width, ops, picks),
        ),
    ]


def _script_tasks(path: Path, text: str, outdir: Path, probs_of) -> list[Task]:
    script = Script(text)
    probs = probs_of(script.width, script.ops)
    g, p, name, nodes = script.gates, str(path), path.name, len(script.bindings)
    render = ["render", p, "--format"]
    untranslate = ["translate", p, "--to", "circuit", "--outdir", str(outdir)]
    if script.outcome is not None and script.outcome not in probs:
        verdict = lambda out: _check_rejected(out, script.bindings[-1])  # noqa: E731
        return [
            Task("check_s", f"check {name}", ["check", p], 1, g, verdict),
            Task("render_s", f"render ascii {name}", render + ["ascii"], 1, g, verdict),
            Task("render_s", f"render latex {name}", render + ["latex"], 1, g, verdict),
            Task("untranslate_s", f"untranslate {name}", untranslate, 1, g, verdict),
        ]
    return [
        Task("check_s", f"check {name}", ["check", p], 0, g, lambda out: _check_valid(out, script.bindings)),
        Task("render_s", f"render ascii {name}", render + ["ascii"], 0, g,
             lambda out: _check_ascii(out, nodes, script.outcome)),
        Task("render_s", f"render latex {name}", render + ["latex"], 0, g,
             lambda out: _check_latex(out, nodes)),
        Task("untranslate_s", f"untranslate {name}", untranslate, 0, g,
             lambda out: _check_circuit_file(out, script.width, script.ops, script.born)),
    ]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs into workdir/in and its tasks.  The
    same name and seed give byte-identical files and identical tasks."""
    rng = random.Random(f"{name}:{seed}")
    indir, outdir = workdir / "in", workdir / "out"
    indir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    cache: dict = {}

    def probs_of(width: int, ops: list) -> dict:
        key = (width, tuple(ops))
        if key not in cache:
            cache[key] = probabilities(width, ops)
        return cache[key]

    files: dict[str, str] = {}
    notes = {}
    for stem, width, ops, planted in GENERATORS[name](rng):
        probs = probs_of(width, ops)
        outcome = planted or min(probs, key=lambda b: (-round(probs[b], 9), b))
        files[f"{stem}.qc"] = emit_circuit(width, ops, True)
        files[f"{stem}.qmc"] = emit_script(stem, width, ops, outcome)
    selftest = Task("selftest_s", "selftest", ["selftest"], 0, 0, _check_selftest)
    tasks: list[Task] = [selftest]
    largest = (0, (1, []))
    for fname, text in files.items():
        path = indir / fname
        path.write_text(text, encoding="utf-8")
        if fname.endswith(".qc"):
            tasks += _circuit_tasks(path, text, outdir, rng.getrandbits(32), probs_of)
            width, ops, _ = read_circuit(text)
            largest = max(largest, (len(ops) * len(probs_of(width, ops)), (width, ops)))
        else:
            tasks += _script_tasks(path, text, outdir, probs_of)
    tasks.append(selftest)
    if name == "deep":
        nodes = [len(Script(t).bindings) for f, t in files.items() if f.endswith(".qmc")]
        notes["scripts_over_1000_nodes"] = sum(n > 1000 for n in nodes)
        notes["script_nodes"] = nodes
    digest = hashlib.sha256()
    for fname in sorted(files):
        digest.update(f"{fname}\0{files[fname]}\0".encode())
    return Workload(name, tasks, digest.hexdigest(), largest[1], notes)
