"""The benchmark's tracer still finds every hook it wraps.

`perfbench/tracer.py` wraps qmc's public functions, the ring methods of
`Amplitude` and `ExactReal`, and the `__post_init__` of `BasisState` and the
sequent classes.  A renamed or dropped hook, or a gate that can interfere
(one that can send two terms to the same basis state, such as H) no longer
going through `state.combine`, would otherwise surface only when the
benchmark runs.  So the test drives every command the benchmark runs, and
the one call it makes outside them, under the tracer.  The double Hadamard
in `hh.qc`/`hh.qmc` must show up as combines with at least one exact
cancellation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from conftest import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics that `perfbench/run.py` measures itself, outside a trace.
MEASURED_BY_RUNNER = {
    "translate.proof_tree_mb",
    "cli.interp_s",
    "cli.import_s",
    "trace.overhead_frac",
}


def test_tracer_hooks_cover_every_layer_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    from qmc import translate
    from qmc.cli import main
    from qmc.gates import GateApplication, builtin

    bell, script, out = str(GOLDEN / "bell.qc"), str(GOLDEN / "bell_00.qmc"), str(tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        assert main(["dist", str(GOLDEN / "hh.qc")]) == 0
        assert main(["check", str(GOLDEN / "hh.qmc")]) == 0
        assert main(["run", bell, "--seed", "1"]) == 0
        assert main(["translate", bell, "--to", "proof", "--seed", "1", "--outdir", out]) == 0
        assert main(["translate", script, "--to", "circuit", "--outdir", out]) == 0
        for format in ("ascii", "latex"):
            assert main(["render", script, "--format", format]) == 0
        assert main(["selftest"]) == 0
        # As `perfbench/run.py` measures the memory of a proof tree.
        ops = (("H", (0,)), ("CNOT", (0, 1)))
        circuit = translate.Circuit(
            2, tuple(GateApplication(builtin(n), w) for n, w in ops), True
        )
        assert translate.circuit_to_proof(circuit, "sample", 1)
    finally:
        t.uninstall()
    capsys.readouterr()

    metrics = tracer.layer_metrics(t.raw())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {entry["name"] for entry in declared}
    assert set(metrics) == names - MEASURED_BY_RUNNER
    assert all(math.isfinite(value) for value in metrics.values())
    for name in (
        "calculus.check_nodes",
        "translate.proof_nodes",
        "parser.bytes_in",
        "parser.bytes_out",
    ):
        assert metrics[name] > 0, name
    assert metrics["state.combine_calls"] > 0
    assert metrics["state.terms_cancelled"] >= 1
