#!/usr/bin/env python3
"""qmc benchmark: every CLI command timed end to end on seeded workloads, and
every layer on its own in a traced run.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload deep --seed 1 --determinism
    python3 perfbench/run.py --compare A.json B.json

Run it from the root of a checkout; it imports qmc from ./src.  A run sets up
several times (input generation with the expected answers), warms up, then
runs whole rounds of its workload's tasks in one closed loop until
--seconds have passed.  The last line of stdout is the result,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The full record, with the
environment and every raw sample, goes to --record.  A wrong answer makes
the run exit 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT = 120
# Seconds the calibration loop takes at the reference speed; see speed().
CALIBRATION_S = 0.004

perf = time.perf_counter


class _Ring:
    """A stand-in for exact ring arithmetic: small slotted objects of ints."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d

    def mul(self, o: _Ring) -> _Ring:
        return _Ring(self.a * o.a - self.b * o.d, self.a * o.b + self.b * o.a, self.c * o.c, self.d + o.d)


def speed() -> float:
    """How slow the machine is right now, relative to the reference speed:
    the time of a fixed loop that churns objects as qmc does, over
    CALIBRATION_S.

    The 2-CPU host this was tuned on shares its CPUs with other tenants, and
    its speed drifts by tens of percent over seconds to minutes, in CPU time
    as in wall time.  End-to-end times are divided by the speed measured just
    before and just after them, which removes most of that drift.  The run
    record keeps the raw times and speeds.
    """
    start = perf()
    acc: dict[str, _Ring] = {}
    unit, one = _Ring(1, 2, 3, 4), _Ring(1, 0, 1, 0)
    for i in range(4000):
        key = format(i % 511, "010b")
        acc[key] = _Ring(i, i + 1, 3, 1).mul(unit) if key not in acc else acc[key].mul(one)
    return (perf() - start) / CALIBRATION_S


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) <= 10:
        return "p-: too few samples"
    ordered = sorted(values)
    return f"p{100 * (len(values) - 10) / len(values):.0f}={ordered[-11]:.6g}"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


class Runner:
    """Runs one workload's tasks through `qmc.cli.main` in this process."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        import qmc.cli
        import workloads
        from tracer import Tracer

        self.args = args
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli = qmc.cli
        self.tracer = Tracer()
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.setup: dict[str, list[float]] = {"generate_s": [], "speed": []}
        digests = set()
        for _ in range(SETUP_REPEATS):
            before = speed()
            start = perf()
            self.workload = workloads.build(args.workload, args.seed, workdir)
            self.setup["generate_s"].append(perf() - start)
            self.setup["speed"].append((before + speed()) / 2)
            digests.add(self.workload.digest)
        self.wrong: list[str] = []
        if len(digests) != 1:
            self.wrong.append("the same seed generated different inputs")

    def _python(self, code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True,
        )

    def fresh_import(self) -> float:
        code = "import time; t = time.perf_counter(); import qmc; print(time.perf_counter() - t)"
        return float(self._python(code).stdout)

    def interpreter_start(self) -> float:
        start = perf()
        self._python("pass")
        return perf() - start

    # -- one command --------------------------------------------------------

    def _in_process(self, argv: list[str]) -> tuple[object, str]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a benchmark error
            rc = type(exc).__name__
        return rc, out.getvalue()

    def execute(self, task) -> dict:
        start = perf()
        rc, out = self._in_process(task.argv)
        elapsed = perf() - start
        sample = {"label": task.label, "metric": task.metric, "rc": rc, "s": elapsed,
                  "failed": rc != task.rc}
        if sample["failed"]:
            return sample
        try:
            error = task.check(out)
        except Exception as exc:  # unreadable output is a wrong answer
            error = f"unreadable output: {exc!r}"
        if error is not None:
            self.wrong.append(f"{task.label}: {error}")
        return sample

    # -- rounds -------------------------------------------------------------

    def round(self, traced: bool) -> dict:
        from tracer import layer_metrics

        if traced:
            self.tracer.install()
        start = perf()
        try:
            speeds = [speed()]
            samples = []
            for task in self.workload.tasks:
                samples.append(self.execute(task))
                speeds.append(speed())
            for sample, before, after in zip(samples, speeds, speeds[1:]):
                sample["speed"] = (before + after) / 2
        finally:
            wall = perf() - start
            if traced:
                self.tracer.uninstall()
        result = {"traced": traced, "wall_s": wall, "samples": samples}
        if traced:
            result["layers"] = layer_metrics(self.tracer.raw())
            self.tracer.reset()
        return result

    def warm_up(self) -> None:
        seen = set()
        for task in self.workload.tasks:
            if task.metric not in seen:
                seen.add(task.metric)
                self.execute(task)

    def proof_tree_mb(self) -> float:
        """Memory held by the proof tree of the workload's biggest circuit."""
        from qmc.gates import GateApplication, builtin
        from qmc.translate import Circuit, circuit_to_proof

        width, ops = self.workload.largest
        circuit = Circuit(width, tuple(GateApplication(builtin(n), w) for n, w in ops), True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            proofs = circuit_to_proof(circuit, "sample", self.args.seed)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del proofs
        return held / 2**20


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, rounds: list[dict]) -> tuple[dict, dict]:
    samples = [s for r in rounds for s in r["samples"]]
    by_metric: dict[str, list[float]] = {}
    for s in samples:
        by_metric.setdefault(s["metric"], []).append(math.inf if s["failed"] else s["s"] / s["speed"])
    every = [v for values in by_metric.values() for v in values]
    gates = {t.label: t.gates for t in runner.workload.tasks}
    done = sum(gates[s["label"]] for s in samples if not s["failed"])
    failed = sum(s["failed"] for s in samples)
    setup = [g / sp for g, sp in zip(runner.setup["generate_s"], runner.setup["speed"])]
    wall = [math.inf if s["failed"] else s["s"] for s in samples]
    metrics = {name: _median(by_metric.get(name, [])) for name in (
        "dist_s", "check_s", "run_s", "translate_s", "untranslate_s", "render_s", "selftest_s")}
    metrics.update(
        gates_per_s=done / sum(s["s"] / s["speed"] for s in samples),
        completed_frac=1 - failed / len(samples),
        cli_ms=1000 * _median(every),
        setup_s=_median(setup),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    tails = {name: f"{_tail(values)} n={len(values)}" for name, values in by_metric.items()}
    tails["cli_ms"] = (f"{_tail([1000 * v for v in every])} n={len(every)}  "
                       f"uncalibrated {1000 * _median(wall):.6g} ms, median speed "
                       f"{_median([s['speed'] for s in samples]):.3f}")
    tails["setup_s"] = f"n={len(setup)}"
    tails["completed_frac"] = f"failed_frac={failed / len(samples):.4f} ({failed} of {len(samples)})"
    return metrics, tails


def per_layer(runner: Runner, rounds: list[dict]) -> tuple[dict, dict]:
    layered = [r["layers"] for r in rounds if r["traced"]]
    metrics = {
        name: _median([layers[name] for layers in layered]) if name.endswith("_s") else layered[0][name]
        for name in layered[0]
    }
    walls = {t: _median([r["wall_s"] for r in rounds if r["traced"] == t]) for t in (False, True)}
    metrics.update({
        "translate.proof_tree_mb": runner.proof_tree_mb(),
        "cli.interp_s": _median([runner.interpreter_start() for _ in range(SETUP_REPEATS)]),
        "cli.import_s": _median([runner.fresh_import() for _ in range(SETUP_REPEATS)]),
        "trace.overhead_frac": walls[True] / walls[False] - 1,
    })
    counts = [{k: v for k, v in layers.items() if not k.endswith("_s")} for layers in layered]
    if any(c != counts[0] for c in counts):
        runner.wrong.append("per-layer counts differ between identical traced rounds")
    return metrics, {}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run(args: argparse.Namespace) -> int:
    if not (SRC / "qmc" / "__init__.py").is_file():
        print(f"error: no qmc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    load_start = os.getloadavg()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args, workdir)
        runner.warm_up()
        rounds: list[dict] = []
        start = perf()
        while perf() - start < args.seconds or len(rounds) < (2 if args.trace else 1):
            rounds.append(runner.round(traced=bool(args.trace) and len(rounds) % 2 == 1))
        measured = [r for r in rounds if not r["traced"]]
        if args.trace:
            metrics, notes = per_layer(runner, rounds)
            specs = SPEC["per_layer"]
        else:
            metrics, notes = end_to_end(runner, measured)
            specs = SPEC["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    import numpy

    attempted = sum(len(r["samples"]) for r in rounds)
    failed = sum(s["failed"] for r in rounds for s in r["samples"])
    env = {
        "commit": _commit(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    print(f"qmc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} rounds={len(rounds)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in runner.workload.notes.items():
        print(f"note: {key}={value}")
    result_metrics = {}
    for spec in specs:
        value = metrics[spec["name"]]
        result_metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<32} {value:>14.6g} {spec['unit']:<6} {notes.get(spec['name'], '')}")
    for message in runner.wrong:
        print(f"WRONG: {message}")
    correct = not runner.wrong
    for spec in result_metrics.values():
        if not math.isfinite(spec["value"]):  # more than half of some command failed
            correct = False
            spec["value"] = None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "inputs_digest": runner.workload.digest, "correct": correct,
        "attempted": attempted, "failed": failed, "wrong": runner.wrong,
        "metrics": {k: v["value"] for k, v in result_metrics.items()},
        "setup": runner.setup, "rounds": rounds,
    }
    record_path = Path(args.record) if args.record else (
        ROOT / ".bench_results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"record: {record_path}")
    if not correct:
        print("error: wrong answers or a metric without a finite value", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


def _records(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: list[dict] = []
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        out += data if isinstance(data, list) else [data]
    return out


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a_path: str, b_path: str) -> int:
    """One row per workload and metric: both medians over runs, their ratio,
    and whether B moved by more than the metric's bound."""
    a, b = _records(a_path), _records(b_path)
    specs = SPEC["end_to_end"] + SPEC["per_layer"]
    print(f"{'workload':<8} {'metric':<30} {'A median':>12} {'B median':>12} {'B/A':>7}  verdict")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for spec in specs:
            name = spec["name"]
            va = [r["metrics"][name] for r in a if r["workload"] == workload and name in r["metrics"]]
            vb = [r["metrics"][name] for r in b if r["workload"] == workload and name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if spec["better"] == "lower" else -1
            bound = spec.get("bound")
            worse = sign * (mb - ma) / ma if ma else 0.0
            spreads = [_spread(va), _spread(vb)]
            if bound is None:
                verdict = "-"
            elif any(s is None or s > bound for s in spreads):
                wins = all(sign * (y - x) < 0 for x in va for y in vb)
                verdict = "better (every run)" if wins else "unresolved (spread > bound)"
            elif worse > bound:
                verdict = f"WORSE (bound {bound})"
            elif worse < -bound:
                verdict = f"better (bound {bound})"
            else:
                verdict = "within bound"
            ratio = f"{mb / ma:7.3f}" if ma else "      -"
            print(f"{workload:<8} {name:<30} {ma:>12.6g} {mb:>12.6g} {ratio}  {verdict}")
    return 0


def determinism(args: argparse.Namespace) -> int:
    """Two short traced runs of the same seed must generate byte-identical
    inputs and report identical per-layer counts."""
    outdir = ROOT / ".bench_work" / f"determinism-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        records = []
        for i in range(2):
            path = outdir / f"run{i}.json"
            subprocess.run(
                [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "1", "--trace", "1", "--record", str(path)],
                cwd=ROOT, capture_output=True, timeout=900, check=False,
            )
            records.append(json.loads(path.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()
    counts = [{k: v for k, v in r["metrics"].items() if not k.endswith("_s") and k not in (
        "translate.proof_tree_mb", "trace.overhead_frac")} for r in records]
    same_inputs = records[0]["inputs_digest"] == records[1]["inputs_digest"]
    diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    print(f"inputs identical: {same_inputs} ({records[0]['inputs_digest'][:16]})")
    print(f"per-layer counts identical: {not diff} ({len(counts[0])} counts)")
    for k in diff:
        print(f"  {k}: {counts[0][k]} vs {counts[1][k]}")
    return 0 if same_inputs and not diff and all(r["correct"] for r in records) else 1


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*names, "all"],
                    help="one workload, or all of them one after another in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="where to write the run record (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two run records, lists of records or directories of them")
    ap.add_argument("--determinism", action="store_true",
                    help="check that two traced runs of --seed agree exactly")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if args.determinism:
        return determinism(args)
    if args.workload == "all":
        return max([run(argparse.Namespace(**{**vars(args), "workload": name, "record": None}))
                    for name in names])
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
