"""Sequents, proof rules, proof trees, the checker, and measurement.

A sequent is one of three variants.  A coherent sequent carries a normalized
superposition and an empty succedent: the register is mid-computation and any
measurement talk is counterfactual.  A Born-annotated sequent pairs the state
with its exact outcome distribution, the penultimate step before measuring.
A measured sequent commits to one outcome with its exact probability; the
turnstile form is terminal except for preparation, which turns the recorded
outcome into a fresh coherent antecedent.

Weakening is rejected on both sides.  On the right this is structural: no
sequent variant can hold a second succedent formula.  On the left it is a
checked error, because a state added to a superposition interferes with the
terms already present and can destroy previously available conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

from .amplitude import ExactReal, REAL_ONE, REAL_ZERO
from .gates import GateApplication, apply
from .state import BasisState, Superposition, ket, norm_sq, support, tensor


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class RuleError(Exception):
    """A proof rule was applied to premises it does not accept."""


class WrongPremiseShape(RuleError):
    pass


class BRNormalFormViolation(WrongPremiseShape):
    """A Born-annotated sequent was fed to a rule other than measurement."""


class OutcomeNotInSupport(RuleError):
    pass


class PrepOutcomeMismatch(RuleError):
    pass


class NonMonotonicityViolation(RuleError):
    pass


class UnnormalizedState(RuleError):
    pass


class WrongRootShape(Exception):
    pass


# ---------------------------------------------------------------------------
# Distributions and sequents
# ---------------------------------------------------------------------------

class Distribution:
    """Exact Born distribution: positive probabilities summing to exactly 1."""

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[BasisState, ExactReal]) -> None:
        ordered: dict[BasisState, ExactReal] = {}
        total = REAL_ZERO
        for basis in sorted(probs):
            p = probs[basis]
            if p.sign() <= 0:
                raise ValueError(f"probability of {basis} must be positive, got {p}")
            ordered[basis] = p
            total = total + p
        if total != REAL_ONE:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        self._probs = ordered

    def items(self) -> Iterator[tuple[BasisState, ExactReal]]:
        return iter(self._probs.items())

    def outcomes(self) -> list[BasisState]:
        return list(self._probs)

    def __getitem__(self, basis: BasisState) -> ExactReal:
        return self._probs[basis]

    def __contains__(self, basis: BasisState) -> bool:
        return basis in self._probs

    def __len__(self) -> int:
        return len(self._probs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Distribution):
            return self._probs == other._probs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._probs.items()))

    def render(self) -> str:
        return " + ".join(f"({p.text()}){basis}" for basis, p in self._probs.items())

    def latex(self) -> str:
        return " + ".join(
            p.latex() + r"\ket{%s}" % basis.bits for basis, p in self._probs.items()
        )

    def __repr__(self) -> str:
        return f"Distribution({self.render()})"


def distribution(s: Superposition) -> Distribution:
    """Born distribution of a normalized state: P(x) = |amplitude(x)|^2."""
    if norm_sq(s) != REAL_ONE:
        raise UnnormalizedState(
            f"state has norm squared {norm_sq(s).text()}, expected 1"
        )
    return Distribution({basis: amp.mod_sq() for basis, amp in s.terms()})


def _require_normalized(state: Superposition) -> None:
    if len(state) == 0:
        raise UnnormalizedState("sequent antecedent must have nonempty support")
    n = norm_sq(state)
    if n != REAL_ONE:
        raise UnnormalizedState(
            f"sequent antecedent has norm squared {n.text()}, expected 1"
        )


@dataclass(frozen=True)
class Coherent:
    """Sigma =>  : a coherent register, succedent empty."""

    state: Superposition

    def __post_init__(self) -> None:
        _require_normalized(self.state)


@dataclass(frozen=True)
class BornAnnotated:
    """Sigma => P(Sigma) : the state annotated with its Born distribution."""

    state: Superposition
    dist: Distribution

    def __post_init__(self) -> None:
        _require_normalized(self.state)
        if self.dist.outcomes() != support(self.state):
            raise ValueError("distribution keys must equal the state's support")


@dataclass(frozen=True)
class Measured:
    """Sigma |-_p |x> : the state has been measured as outcome x."""

    state: Superposition
    outcome: BasisState
    prob: ExactReal

    def __post_init__(self) -> None:
        if self.outcome.width != self.state.width:
            raise ValueError("measured outcome width differs from state width")
        if self.prob.sign() <= 0:
            raise ValueError("measured probability must be positive")
        if self.state.amplitude(self.outcome).mod_sq() != self.prob:
            raise ValueError(
                "measured probability must equal the outcome's Born weight"
            )


Sequent = Union[Coherent, BornAnnotated, Measured]


def sequent_text(seq: Sequent) -> str:
    if isinstance(seq, Coherent):
        return f"{seq.state.render()} =>"
    if isinstance(seq, BornAnnotated):
        return f"{seq.state.render()} => {seq.dist.render()}"
    return f"{seq.state.render()} |-[{seq.prob.text()}] {seq.outcome}"


# ---------------------------------------------------------------------------
# Rules and proof trees
# ---------------------------------------------------------------------------

class RuleApp:
    """One application of a proof rule.

    The subclasses below are the rule table: each is the one place that
    states its rule's premise count, labels, script keyword and form, and the
    conclusion it derives.  `form` lists the script operands after the
    keyword: `premise` is a premise binding, `ket` and `gate` give the rule's
    field (a basis state, a gate with its wires), and `word=kind` is an
    operand written `word=...`.
    """

    arity = 1
    keyword: str
    form: tuple[str, ...] = ("premise",)
    latex_name: str
    takes_born = False  # only measurement may consume a Born annotation
    assumable = False  # may stand without premises as an assumption leaf

    def label(self) -> str:
        return self.keyword

    def latex(self) -> str:
        return self.latex_name

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        """The conclusion from premises of the right count and normal form."""
        raise NotImplementedError


@dataclass(frozen=True)
class Ax(RuleApp):
    arity = 0
    keyword = "ax"
    form = ()
    latex_name = "Ax"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        return Coherent(ket("0"))


@dataclass(frozen=True)
class Prep(RuleApp):
    outcome: BasisState
    keyword = "prep"
    form = ("ket",)
    latex_name = "Prep"
    assumable = True

    def label(self) -> str:
        return f"prep {self.outcome}"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        for prem in premises:  # none for an assumption leaf
            if not isinstance(prem, Measured):
                raise WrongPremiseShape("prep needs a measured premise")
            if prem.outcome != self.outcome:
                raise PrepOutcomeMismatch(
                    f"prep of {self.outcome} but the premise measured {prem.outcome}"
                )
        return Coherent(ket(self.outcome))


@dataclass(frozen=True)
class Tensor(RuleApp):
    arity = 2
    keyword = "tensor"
    form = ("premise", "premise")
    latex_name = r"\otimes"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        left, right = premises
        if not isinstance(left, Coherent) or not isinstance(right, Coherent):
            raise WrongPremiseShape("tensor needs two coherent premises")
        return Coherent(tensor(left.state, right.state))


@dataclass(frozen=True)
class Unitary(RuleApp):
    app: GateApplication
    keyword = "gate"
    form = ("gate", "premise")

    def label(self) -> str:
        return self.app.label()

    def latex(self) -> str:
        return r"\mathbf{%s}" % self.app.gate.name

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        (prem,) = premises
        if not isinstance(prem, Coherent):
            raise WrongPremiseShape("a gate rule needs one coherent premise")
        return Coherent(apply(self.app, prem.state))


@dataclass(frozen=True)
class BornRule(RuleApp):
    keyword = "born"
    latex_name = "BR"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        (prem,) = premises
        if not isinstance(prem, Coherent):
            raise WrongPremiseShape("the Born rule needs one coherent premise")
        return BornAnnotated(prem.state, distribution(prem.state))


@dataclass(frozen=True)
class Measure(RuleApp):
    outcome: BasisState
    keyword = "measure"
    form = ("premise", "outcome=ket")
    latex_name = "M"
    takes_born = True

    def label(self) -> str:
        return f"measure {self.outcome}"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        (prem,) = premises
        if not isinstance(prem, BornAnnotated):
            raise WrongPremiseShape("measurement needs one Born-annotated premise")
        if self.outcome not in prem.dist:
            raise OutcomeNotInSupport(
                f"outcome {self.outcome} has amplitude 0; only support "
                "components are measurable conclusions"
            )
        return Measured(prem.state, self.outcome, prem.dist[self.outcome])


@dataclass(frozen=True)
class Weaken(RuleApp):
    # Constructible and parsable so scripts using it can be rejected with a
    # checked error instead of a syntax error; never checkable.
    extra: BasisState = BasisState("0")
    keyword = "weaken"
    form = ("premise", "ket")
    latex_name = "Weak"


RULES = (Ax, Prep, Tensor, Unitary, BornRule, Measure, Weaken)


@dataclass(frozen=True)
class ProofNode:
    """One rule application; premises are subproofs, the conclusion a sequent.

    A preparation node normally has one measured premise; with no premises it
    is an assumption leaf standing for a measurement concluded in some
    derivation not shown here, and the checker records it as such.
    """

    rule: RuleApp
    premises: tuple[ProofNode, ...]
    conclusion: Sequent
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.premises) != self.rule.arity and not self.is_assumption:
            raise ValueError(
                f"rule {self.rule.label()} takes {self.rule.arity} premises, "
                f"got {len(self.premises)}"
            )

    @property
    def is_assumption(self) -> bool:
        return self.rule.assumable and not self.premises

    @classmethod
    def derive(
        cls,
        rule: RuleApp,
        premises: tuple[ProofNode, ...] = (),
        label: str | None = None,
    ) -> ProofNode:
        """The node concluding what the rule derives from the premises; a
        premise-free preparation is an assumption leaf."""
        if rule.assumable and not premises:
            return cls(rule, (), rule.conclude(()), label)
        conclusion = apply_rule(rule, [p.conclusion for p in premises])
        return cls(rule, premises, conclusion, label)


def apply_rule(rule: RuleApp, premises: Sequence[Sequent]) -> Sequent:
    """Compute the conclusion a rule derives from the given premise sequents."""
    if isinstance(rule, Weaken):
        raise NonMonotonicityViolation(
            "weakening is rejected: an added state would interfere with the "
            "superposition already present, so prior conclusions need not survive"
        )
    if len(premises) != rule.arity:
        raise WrongPremiseShape(
            f"rule {rule.label()} takes {rule.arity} premises, got {len(premises)}"
        )
    if not rule.takes_born and any(isinstance(p, BornAnnotated) for p in premises):
        raise BRNormalFormViolation(
            "a Born-annotated sequent may only feed a measurement; "
            "the distribution is introduced at the penultimate step"
        )
    return rule.conclude(premises)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeReport:
    path: tuple[int, ...]
    rule: str
    status: str  # "ok" | "assumed" | "invalid"
    detail: str = ""
    conclusion: str = ""
    label: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != "invalid"


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    nodes: tuple[NodeReport, ...]  # postorder, premises before conclusions
    assumptions: tuple[tuple[tuple[int, ...], BasisState], ...]

    def failures(self) -> list[NodeReport]:
        return [n for n in self.nodes if not n.ok]

    def signature(self) -> tuple:
        """Label-independent identity of the report (paths, rules, verdicts)."""
        return tuple(
            (n.path, n.rule, n.status, n.detail, n.conclusion) for n in self.nodes
        )


def check(proof: ProofNode) -> CheckReport:
    """Recompute every conclusion from its premises and compare exactly.

    Each node is judged on its own inference: the stored premise conclusions
    are taken as given and the stored conclusion must equal what the rule
    derives from them.  A Born annotation is accepted at the root, where it
    awaits its concluding measurement; anywhere else it may only feed a
    measurement node.
    """
    nodes: list[NodeReport] = []
    assumptions: list[tuple[tuple[int, ...], BasisState]] = []

    def visit(node: ProofNode, path: tuple[int, ...]) -> None:
        for i, prem in enumerate(node.premises):
            visit(prem, path + (i,))
        label = node.label
        rule = node.rule.label()
        found = sequent_text(node.conclusion)
        try:
            if node.is_assumption:
                expected = node.rule.conclude(())
            else:
                expected = apply_rule(node.rule, [p.conclusion for p in node.premises])
        except (RuleError, ValueError) as err:
            detail = f"{type(err).__name__}: {err}"
            nodes.append(NodeReport(path, rule, "invalid", detail, found, label))
            return
        if expected != node.conclusion:
            detail = f"expected {sequent_text(expected)}, found {found}"
            nodes.append(NodeReport(path, rule, "invalid", detail, found, label))
        elif node.is_assumption:
            assumptions.append((path, node.rule.outcome))
            nodes.append(NodeReport(path, rule, "assumed", "", found, label))
        else:
            nodes.append(NodeReport(path, rule, "ok", "", found, label))

    visit(proof, ())
    return CheckReport(
        valid=all(n.ok for n in nodes),
        nodes=tuple(nodes),
        assumptions=tuple(assumptions),
    )


def enumerate_conclusions(proof: ProofNode) -> list[tuple[BasisState, ExactReal]]:
    """All measurement completions of a Born-annotated root, with exact
    probabilities, in lexicographic outcome order."""
    root = proof.conclusion
    if not isinstance(root, BornAnnotated):
        raise WrongRootShape(
            "only a proof ending in a Born-annotated sequent enumerates outcomes"
        )
    return list(root.dist.items())


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_outcome(dist: Distribution, seed: int) -> tuple[BasisState, ExactReal]:
    """Draw one outcome, reproducibly across platforms.

    One SplitMix64 output from the raw 64-bit seed is mapped to [0, 1) and
    inverted through the CDF over lexicographically ordered outcomes, using
    float views of the exact probabilities.
    """
    u = _splitmix64(seed & _MASK64) / 2.0**64
    acc = 0.0
    result = None
    for basis, p in dist.items():
        result = (basis, p)
        acc += p.to_float()
        if u < acc:
            return result
    assert result is not None
    return result  # float rounding left u at the tail; take the last outcome
