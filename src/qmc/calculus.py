"""Sequents, proof rules, proof trees, the checker, and measurement.

A sequent is one of three variants.  A coherent sequent carries a normalized
superposition and an empty succedent: the register is mid-computation and any
measurement talk is counterfactual.  A Born-annotated sequent pairs the state
with its exact outcome distribution, the penultimate step before measuring.
A measured sequent commits to one outcome with its exact probability; the
turnstile form is terminal except for preparation, which turns the recorded
outcome into a fresh coherent antecedent.  The state alone determines the
distribution, and the state and outcome the probability, so each sequent
computes its annotation and none can be built with a wrong one;
`distribution` is the one way to build a `Distribution`.

Weakening is rejected on both sides.  On the right this is structural: no
sequent variant can hold a second succedent formula.  On the left it is a
checked error, because a state added to a superposition interferes with the
terms already present and can destroy previously available conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse, repeat
from typing import Callable, Iterator, Sequence, Union

from .amplitude import ExactReal, REAL_ONE, _mod_sq, _sign
from .gates import GateApplication, apply
from .state import BasisState, Superposition, _clip, ket, norm_sq, tensor


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


# ---------------------------------------------------------------------------
# Distributions and sequents
# ---------------------------------------------------------------------------

class Distribution:
    """Exact Born distribution: positive probabilities summing to exactly 1.

    It is kept as a `Superposition` keeps its amplitudes: a register `width`
    and `weights`, a dict from basis index to packed probability in
    ascending order, read-only like the whole value.  A packed probability
    is the (p, q, k) of `ExactReal`, in its canonical form, so equal weights
    are equal triples.  `BasisState`s and `ExactReal`s are built only where
    the API hands them out: `items`, `outcomes`, `__getitem__`, the draw of
    `sample_outcome`, and the one text per distinct weight.  There is no
    public constructor: `distribution` derives the one value a state has.
    """

    __slots__ = ("width", "weights")

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError("a Distribution is derived from its state: use distribution(state)")

    @classmethod
    def _of(cls, width: int, weights: dict[int, tuple[int, int, int]]) -> Distribution:
        """The distribution of canonical triples by basis index, in
        ascending order, that `distribution` has checked."""
        dist = object.__new__(cls)
        dist.width = width
        dist.weights = weights
        return dist

    def items(self) -> Iterator[tuple[BasisState, ExactReal]]:
        width = self.width
        return ((BasisState.of(b, width), ExactReal(*t)) for b, t in self.weights.items())

    def outcomes(self) -> list[BasisState]:
        width = self.width
        return [BasisState.of(b, width) for b in self.weights]

    def __getitem__(self, basis: BasisState) -> ExactReal:
        if basis not in self:
            raise KeyError(basis)
        return ExactReal(*self.weights[basis.index])

    def __contains__(self, basis: BasisState) -> bool:
        return basis.width == self.width and basis.index in self.weights

    def __len__(self) -> int:
        return len(self.weights)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Distribution):
            return self.width == other.width and self.weights == other.weights
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, tuple(self.weights.items())))

    def render(self, texts: dict | None = None) -> str:
        weights, kets = self.formatted(ExactReal.text, "|%s>", texts)
        return " + ".join(map("(%s)%s".__mod__, zip(weights, kets)))

    def latex(self, texts: dict | None = None) -> str:
        weights, kets = self.formatted(ExactReal.latex, r"\ket{%s}", texts)
        return " + ".join(map(str.__add__, weights, kets))

    def formatted(
        self, weight: Callable[[ExactReal], str], ket: str, texts: dict | None = None
    ) -> tuple[list[str], list[str]]:
        """The weight texts and the ket texts of the outcomes, in order.

        texts is the memo of one rendering pass in one format, shared with
        `Superposition.render` or `latex`: the kets come from its width ->
        index memo, and each weight's text is kept under its (p, q, k),
        which no amplitude or width key equals.  So a pass formats each
        distinct weight and ket once.
        """
        if texts is None:
            texts = {}
        kets = texts.get(self.width)
        if kets is None:
            kets = texts[self.width] = {}
        new = list(filterfalse(kets.__contains__, self.weights))
        bits = map(format, new, repeat(f"0{self.width}b"))
        kets.update(zip(new, map(ket.__mod__, bits)))
        weights = self.weights.values()
        for t in set(weights).difference(texts):
            texts[t] = weight(ExactReal(*t))
        return list(map(texts.__getitem__, weights)), list(map(kets.__getitem__, self.weights))

    def __repr__(self) -> str:
        return f"Distribution({self.render()})"


def distribution(s: Superposition) -> Distribution:
    """Born distribution of a normalized state: P(x) = |amplitude(x)|^2.

    Each distinct amplitude's `_mod_sq` is computed once and each distinct
    weight's sign tested once: a wide state has far fewer distinct weights
    than terms (all 2^n outcomes of a brickwork circuit have one).  The
    triple of a canonical amplitude is canonical: num not divisible by
    sqrt2 makes num * conj(num) not divisible by 2, so p and q are not
    both even unless k = 0.  The weights sum to the norm, checked first.
    """
    _require_normalized(s)
    packed = s.packed
    by_amp = {amp: _mod_sq(amp) for amp in set(packed.values())}
    weights = dict(zip(packed, map(by_amp.__getitem__, packed.values())))
    for t in set(by_amp.values()):
        if _sign(t[0], t[1]) <= 0:
            b = next(b for b, u in weights.items() if u == t)
            raise ValueError(
                f"probability of {BasisState.of(b, s.width)} must be positive, "
                f"got {ExactReal(*t)}"
            )
    return Distribution._of(s.width, weights)


def _require_normalized(state: Superposition) -> None:
    """The one normalization check; an empty state has norm squared 0."""
    n = norm_sq(state)
    if n != REAL_ONE:
        raise UnnormalizedState(f"state has norm squared {n.text()}, expected 1")


@dataclass(frozen=True)
class Coherent:
    """Sigma =>  : a coherent register, succedent empty."""

    state: Superposition

    def __post_init__(self) -> None:
        _require_normalized(self.state)


@dataclass(frozen=True)
class BornAnnotated:
    """Sigma => P(Sigma) : the state annotated with its Born distribution,
    which the state alone determines, so it is derived, never given."""

    state: Superposition
    dist: Distribution = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dist", distribution(self.state))


@dataclass(frozen=True)
class Measured:
    """Sigma |-_p |x> : the state has been measured as outcome x, whose Born
    weight is the derived probability p."""

    state: Superposition
    outcome: BasisState
    prob: ExactReal = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.outcome.width != self.state.width:
            raise ValueError("measured outcome width differs from state width")
        if self.outcome not in self.state:
            raise ValueError(
                f"measured outcome {_clip(str(self.outcome))} is outside the state's support"
            )
        object.__setattr__(self, "prob", self.state.amplitude(self.outcome).mod_sq())


Sequent = Union[Coherent, BornAnnotated, Measured]


def sequent_text(seq: Sequent, texts: dict | None = None) -> str:
    """The sequent as ascii text; texts is the memo of a rendering pass that
    prints many sequents (see `Superposition.render`)."""
    state = seq.state.render(texts)
    if isinstance(seq, Coherent):
        return f"{state} =>"
    if isinstance(seq, BornAnnotated):
        return f"{state} => {seq.dist.render(texts)}"
    return f"{state} |-[{seq.prob.text()}] {seq.outcome}"


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
        return BornAnnotated(prem.state)


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
        if self.outcome.width != prem.state.width:
            raise RuleError(
                f"outcome {_clip(str(self.outcome))} has width {self.outcome.width} but the "
                f"premise's state has width {prem.state.width}"
            )
        if self.outcome not in prem.dist:
            raise OutcomeNotInSupport(
                f"outcome {_clip(str(self.outcome))} has amplitude 0; only support "
                "components are measurable conclusions"
            )
        return Measured(prem.state, self.outcome)


@dataclass(frozen=True)
class Weaken(RuleApp):
    # Constructible and parsable so scripts using it can be rejected with a
    # checked error instead of a syntax error; never checkable.
    extra: BasisState = BasisState("0")
    keyword = "weaken"
    form = ("premise", "ket")
    latex_name = "Weak"


RULES = (Ax, Prep, Tensor, Unitary, BornRule, Measure, Weaken)


@dataclass(frozen=True, eq=False)
class ProofNode:
    """One rule application; premises are subproofs, the conclusion a sequent.

    A preparation node normally has one measured premise; with no premises it
    is an assumption leaf standing for a measurement concluded in some
    derivation not shown here, and the checker records it as such.

    Nodes compare and hash by identity, and the repr leaves out the premises,
    so neither ever descends into the tree.
    """

    rule: RuleApp
    premises: tuple[ProofNode, ...] = field(repr=False)
    conclusion: Sequent
    label: str | None = None

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
        """The node concluding what the rule derives from the premises (see
        `apply_rule`)."""
        return cls(rule, premises, apply_rule(rule, [p.conclusion for p in premises]), label)


def walk(root: ProofNode) -> Iterator[tuple[ProofNode, int, bool]]:
    """Depth-first over a proof tree, with an explicit stack in place of
    recursion, so a proof of any depth can be walked.

    Yields (node, position, entering) twice per node: on entering it, before
    any event of its premises, and on leaving it, after all of them.  The
    position is the node's index among its parent's premises, 0 for the root.
    """
    stack = [(root, 0, True)]
    push, pop = stack.append, stack.pop
    while stack:
        event = pop()
        yield event
        node, position, entering = event
        if entering:
            push((node, position, False))
            premises = node.premises
            i = len(premises)
            while i:  # the last premise first, so the first comes off first
                i -= 1
                push((premises[i], i, True))


def apply_rule(rule: RuleApp, premises: Sequence[Sequent]) -> Sequent:
    """Compute the conclusion a rule derives from the given premise sequents;
    an assumable rule with none concludes as an assumption leaf."""
    if isinstance(rule, Weaken):
        raise NonMonotonicityViolation(
            "weakening is rejected: an added state would interfere with the "
            "superposition already present, so prior conclusions need not survive"
        )
    if len(premises) != rule.arity and (premises or not rule.assumable):
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

@dataclass(frozen=True, eq=False)
class NodeReport:
    """The verdict on one node.  Reports compare by identity, since a
    structural == would descend through the place as deep as the node;
    `CheckReport.signature` is the structural identity."""

    # () at the root, else (parent's place, position among the parent's
    # premises): one link per report, not a copy of the path.
    place: tuple = field(repr=False)
    rule: str
    status: str  # "ok" | "assumed" | "invalid"
    detail: str = ""
    conclusion: str = ""
    label: str | None = None

    @property
    def path(self) -> tuple[int, ...]:
        """Premise positions from the root down to this node."""
        path: list[int] = []
        place = self.place
        while place:
            place, position = place
            path.append(position)
        return tuple(reversed(path))

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


def verdict(node: ProofNode | None, detail: str = "") -> str:
    """A node's status: `invalid` when detail says why its rule does not
    derive it (node is None for a binding that derived no node), else
    `assumed` for an assumption leaf and `ok` for any other node."""
    if detail:
        return "invalid"
    return "assumed" if node.is_assumption else "ok"


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
    places: list[tuple] = []  # of the nodes entered and not yet left
    texts: dict = {}  # one rendering memo for the whole walk
    for node, position, entering in walk(proof):
        if entering:
            places.append((places[-1], position) if places else ())
            continue
        found = sequent_text(node.conclusion, texts)
        try:
            expected = apply_rule(node.rule, [p.conclusion for p in node.premises])
        except (RuleError, ValueError) as err:
            detail = f"{type(err).__name__}: {err}"
        else:
            detail = ""
            if expected != node.conclusion:
                detail = f"expected {sequent_text(expected, texts)}, found {found}"
        status = verdict(node, detail)
        nodes.append(
            NodeReport(places.pop(), node.rule.label(), status, detail, found, node.label)
        )
        if status == "assumed":
            assumptions.append((nodes[-1].path, node.rule.outcome))
    return CheckReport(
        valid=all(n.ok for n in nodes),
        nodes=tuple(nodes),
        assumptions=tuple(assumptions),
    )


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

    The seed may be any integer; it is reduced modulo 2^64, so -1 and
    2^64 - 1 draw alike.  One SplitMix64 output z from it is read as the dyadic
    u = z / 2^64 in [0, 1), and the CDF over lexicographically ordered
    outcomes is inverted exactly: the first outcome whose cumulative
    probability exceeds u is drawn, decided by an exact sign test.  The
    walk keeps the CDF as integers (p + q*sqrt2) over 2^k, with u over the
    same 2^k, and raises k when a weight needs it.
    """
    u, k = _splitmix64(seed & _MASK64), 64
    acc_p = acc_q = 0
    for b, (p, q, wk) in dist.weights.items():
        if wk > k:
            u <<= wk - k
            acc_p <<= wk - k
            acc_q <<= wk - k
            k = wk
        acc_p += p << (k - wk)
        acc_q += q << (k - wk)
        if _sign(acc_p - u, acc_q) > 0:
            return BasisState.of(b, dist.width), ExactReal(p, q, wk)
    raise AssertionError("probabilities sum to 1 and u < 1")
