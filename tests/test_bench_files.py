"""The committed benchmark results stay readable and name what they claim.

Each performance change commits a `BENCH_*.json` at the root of the
repository.  Every one must parse, and a non-null `claim` must name one of
the workloads and one of the end-to-end metrics that `BENCHMARK.json`
declares, so a claim can always be checked against the harness.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_each_bench_file_parses_and_claims_a_declared_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert "claim" in record, "a bench file states its claim, null when it makes none"
    claim = record["claim"]
    if claim is None:
        return
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    assert claim.get("workload") in workloads, claim
    assert claim.get("metric") in metrics, claim
