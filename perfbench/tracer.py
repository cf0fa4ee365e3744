"""Per-layer tracing of qmc, installed from outside the program.

`Tracer.install` wraps every public function of each `qmc` module and
rebinds the wrapper wherever a module or class attribute binds the original,
because modules import names directly (`calculus.apply` is `gates.apply`).
A wrapped call is a span: its duration and its self time, which is the
duration minus the time its child spans cover.  Ring arithmetic methods are
too fine-grained for spans; they get counters and accumulated time.  The
wrappers' own bookkeeping is charged to no layer.

The wrappers call no Python function between entering the program and
leaving it again, and keep their state in plain dicts, so a RecursionError
raised inside the program unwinds through them without corrupting the span
stack.
"""

from __future__ import annotations

import importlib
import time
import types

MODULES = ("amplitude", "state", "gates", "calculus", "parser", "translate", "oracle", "cli")
# Ring methods traced as counters; those marked True also track coefficient growth.
RING = {
    "Amplitude": {"__add__": True, "__mul__": True, "mod_sq": False},
    "ExactReal": {"__add__": False, "__mul__": False, "sign": False},
}
# Constructors counted through their __post_init__ hook.
BUILT = {
    "BasisState": "basis_states_built",
    "Coherent": "sequents_built",
    "BornAnnotated": "sequents_built",
    "Measured": "sequents_built",
}
COUNTS = (
    "terms_in", "terms_distinct", "terms_out", "basis_states_built",
    "sequents_built", "check_nodes", "bytes_in", "bytes_out", "proof_nodes",
)
PEAKS = ("max_coeff_bits", "max_sqrt2_exp", "max_support")


def _proof_nodes(proofs) -> int:
    seen: set[int] = set()
    stack = list(proofs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.premises)
    return len(seen)


class Tracer:
    """Counters and span times for one process; `raw()` returns them as
    plain data."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.time: dict[str, float] = {}
        self.self_s: dict[str, float] = {m: 0.0 for m in MODULES}
        self.failed: dict[str, int] = {m: 0 for m in MODULES}
        self.count: dict[str, int] = {k: 0 for k in COUNTS}
        self.peak: dict[str, int] = {k: 0 for k in PEAKS}
        self._depth: dict[str, int] = {}
        self._last_exc: dict[str, BaseException | None] = {m: None for m in MODULES}
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import qmc

        mods = {m: importlib.import_module(f"qmc.{m}") for m in MODULES}
        classes = {
            name: cls
            for mod in mods.values()
            for name, cls in vars(mod).items()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
        }
        hooks = self._hooks()
        wrappers: dict[object, object] = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    key = f"{layer}.{name}"
                    wrappers[fn] = self._span(fn, layer, key, *hooks.get(key, (None, None)))
        for cls_name, methods in RING.items():
            for method, track in methods.items():
                fn = vars(classes[cls_name])[method]
                wrappers[fn] = self._ring(fn, f"{cls_name}.{method}", track)
        for cls_name, counter in BUILT.items():
            fn = vars(classes[cls_name])["__post_init__"]
            wrappers[fn] = self._counted(fn, counter)
        for owner in (qmc, *mods.values(), *classes.values()):
            for attr, value in list(vars(owner).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def reset(self) -> None:
        for table in (self.calls, self.time, self.self_s, self.failed, self.count, self.peak):
            for key in table:
                table[key] = 0
        for key in self._last_exc:
            self._last_exc[key] = None
        self._stack[:] = [0.0]

    def raw(self) -> dict:
        return {
            "calls": dict(self.calls),
            "time": dict(self.time),
            "self": dict(self.self_s),
            "failed": dict(self.failed),
            "count": dict(self.count),
            "peak": dict(self.peak),
        }

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer, key, before, after):
        perf = time.perf_counter
        stack, calls, times, depth = self._stack, self.calls, self.time, self._depth
        self_s, failed, last_exc = self.self_s, self.failed, self._last_exc
        calls[key] = 0
        times[key] = 0.0
        depth[key] = 0

        def wrapper(*args, **kwargs):
            enter = perf()
            if before is not None:
                args = before(args)
            stack.append(0.0)
            depth[key] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if last_exc[layer] is not exc:
                    failed[layer] += 1
                    last_exc[layer] = exc
                raise
            finally:
                duration = perf() - start
                depth[key] -= 1
                calls[key] += 1
                if not depth[key]:
                    times[key] += duration
                self_s[layer] += duration - stack.pop()
                stack[-1] += perf() - enter
            if after is not None:
                hook = perf()
                after(result, args)
                stack[-1] += perf() - hook
            return result

        return wrapper

    def _ring(self, fn, key, track):
        perf = time.perf_counter
        stack, calls, self_s, peak = self._stack, self.calls, self.self_s, self.peak
        calls[key] = 0

        def wrapper(*args):
            enter = perf()
            result = fn(*args)
            self_s["amplitude"] += perf() - enter
            calls[key] += 1
            if track:
                num = result.num
                bits = max(abs(num.a0).bit_length(), abs(num.a1).bit_length(),
                           abs(num.a2).bit_length(), abs(num.a3).bit_length())
                if bits > peak["max_coeff_bits"]:
                    peak["max_coeff_bits"] = bits
                if result.sqrt2_exp > peak["max_sqrt2_exp"]:
                    peak["max_sqrt2_exp"] = result.sqrt2_exp
            stack[-1] += perf() - enter
            return result

        return wrapper

    def _counted(self, fn, counter):
        count = self.count

        def wrapper(obj):
            count[counter] += 1
            return fn(obj)

        return wrapper

    def _hooks(self) -> dict:
        """Bookkeeping around particular spans, run outside their timing."""
        count, peak = self.count, self.peak

        def materialize(args):
            return (list(args[0]), *args[1:])

        def combined(result, args):
            parts = args[0]
            count["terms_in"] += len(parts)
            count["terms_distinct"] += len({basis for _, basis in parts})
            count["terms_out"] += len(result)
            peak["max_support"] = max(peak["max_support"], len(result))

        def tensored(result, args):
            peak["max_support"] = max(peak["max_support"], len(result))

        def checked(result, args):
            count["check_nodes"] += len(result.nodes)

        def parsed(result, args):
            count["bytes_in"] += len(args[0].encode())

        def rendered(result, args):
            count["bytes_out"] += len(result.encode())

        def translated(result, args):
            count["proof_nodes"] += _proof_nodes(result)

        return {
            "state.combine": (materialize, combined),
            "state.tensor": (None, tensored),
            "calculus.check": (None, checked),
            "parser.parse_circuit": (None, parsed),
            "parser.parse_proof": (None, parsed),
            "parser.render_proof": (None, rendered),
            "parser.render_script": (None, rendered),
            "parser.render_circuit": (None, rendered),
            "translate.circuit_to_proof": (None, translated),
        }


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics that one round's trace determines."""
    calls, times, count, peak = raw["calls"], raw["time"], raw["count"], raw["peak"]
    terms_in = count["terms_in"]
    return {
        "amplitude.mul_calls": calls["Amplitude.__mul__"],
        "amplitude.add_calls": calls["Amplitude.__add__"],
        "amplitude.mod_sq_calls": calls["Amplitude.mod_sq"],
        "amplitude.self_s": raw["self"]["amplitude"],
        "amplitude.max_coeff_bits": peak["max_coeff_bits"],
        "amplitude.max_sqrt2_exp": peak["max_sqrt2_exp"],
        "state.combine_calls": calls["state.combine"],
        "state.combine_s": times["state.combine"],
        "state.terms_in": terms_in,
        "state.terms_merged": terms_in - count["terms_distinct"],
        "state.terms_cancelled": count["terms_distinct"] - count["terms_out"],
        "state.useful_ratio": count["terms_out"] / terms_in if terms_in else 1.0,
        "state.norm_sq_calls": calls["state.norm_sq"],
        "state.norm_sq_s": times["state.norm_sq"],
        "state.basis_states_built": count["basis_states_built"],
        "state.max_support": peak["max_support"],
        "gates.apply_calls": calls["gates.apply"],
        "gates.apply_s": times["gates.apply"],
        "calculus.apply_rule_calls": calls["calculus.apply_rule"],
        "calculus.apply_rule_s": times["calculus.apply_rule"],
        "calculus.sequents_built": count["sequents_built"],
        "calculus.check_s": times["calculus.check"],
        "calculus.check_nodes": count["check_nodes"],
        "calculus.sequent_text_calls": calls["calculus.sequent_text"],
        "calculus.sequent_text_s": times["calculus.sequent_text"],
        "calculus.distribution_s": times["calculus.distribution"],
        "calculus.sample_outcome_s": times["calculus.sample_outcome"],
        "calculus.failed": raw["failed"]["calculus"],
        "parser.parse_circuit_s": times["parser.parse_circuit"],
        "parser.parse_proof_s": times["parser.parse_proof"],
        "parser.elaborate_s": times["parser.elaborate"],
        "parser.render_s": times["parser.render_proof"]
        + times["parser.render_script"]
        + times["parser.render_circuit"],
        "parser.bytes_in": count["bytes_in"],
        "parser.bytes_out": count["bytes_out"],
        "parser.failed": raw["failed"]["parser"],
        "translate.final_state_s": times["translate.final_state"],
        "translate.circuit_to_proof_s": times["translate.circuit_to_proof"],
        "translate.proof_to_circuit_s": times["translate.proof_to_circuit"],
        "translate.proof_nodes": count["proof_nodes"],
        "translate.failed": raw["failed"]["translate"],
        "oracle.run_circuit_s": times["oracle.run_circuit"],
        "cli.main_self_s": raw["self"]["cli"],
    }
