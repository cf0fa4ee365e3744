"""Sequents, proof rules, proof trees, the checker, and measurement.

A sequent is one of three variants.  A coherent sequent carries a normalized
superposition and an empty succedent: the register is mid-computation and any
measurement talk is counterfactual.  A Born-annotated sequent pairs the state
with its exact outcome distribution, the penultimate step before measuring.
A measured sequent commits to one outcome with its exact probability; the
turnstile form is terminal except for preparation, which turns the recorded
outcome into a fresh coherent antecedent.  The state alone determines the
distribution, and the state and outcome the probability, so each sequent
computes its annotation and none can be built with a wrong one.
`_born` builds every `Distribution` and makes its one check: the weights
sum to exactly 1 and each is positive.  `distribution` feeds it from
a state's packed amplitudes, and `translate.final_distribution` from the
dense engine's arrays, when a circuit ends on them.

`apply_rule` is the one derivation: it tests a rule's premise count and
kinds, then concludes.  `ProofNode.derive` concludes through it and builds
the node with `ProofNode._of`, without repeating the count test that the
public `ProofNode(...)` makes.  A script's derivation loops conclude
through it for every binding but a gate step that cannot fail:
`parser.derive_bindings` runs such a step as one `gates.step`, and
`parser.conclude` with the rest of its chain on the circuit kernels.
`sequent_text`
writes a sequent's state through `Superposition.render`, whose coefficients
come from the one formatter, `amplitude._poly`.

Weakening is rejected on both sides.  On the right this is structural: no
sequent variant can hold a second succedent formula.  On the left it is a
checked error, because a state added to a superposition interferes with the
terms already present and can destroy previously available conclusions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, filterfalse, repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .amplitude import ExactReal, _mod_sq, _real_add, _real_canonical, _sign
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
    public constructor: `distribution` derives the one value a state has,
    and `translate.final_distribution` that of a circuit's final state,
    both through `_born`.
    """

    __slots__ = ("width", "weights")

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError("a Distribution is derived from its state: use distribution(state)")

    @classmethod
    def _of(cls, width: int, weights: dict[int, tuple[int, int, int]]) -> Distribution:
        """The distribution of canonical triples by basis index, in
        ascending order, that `_born` has checked."""
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

    Each distinct amplitude's `_mod_sq` is computed once, and `_born`
    checks and reduces each distinct weight once: a wide state has far fewer
    distinct weights than terms (all 2^n outcomes of a brickwork circuit
    have one).  `translate.final_distribution` feeds `_born` from the dense
    engine's arrays instead, one class per distinct |amplitude|^2.
    """
    packed = s.packed
    counts = Counter(packed.values())
    weights = {amp: _mod_sq(amp) for amp in counts}
    return _born(s.width, packed, packed.values(), weights, counts)


def _born(
    width: int,
    basis: Iterable[int],
    classes: Iterable[Hashable],
    weights: Mapping[Hashable, tuple[int, int, int]],
    counts: Mapping[Hashable, int] | Sequence[int],
) -> Distribution:
    """The one place that builds and checks a distribution: the outcome
    basis[i] (ascending) has the weight weights[classes[i]], a (p, q, k)
    triple for (p + q*sqrt2) / 2^k, not yet reduced, and counts[c] outcomes
    are of the class c.

    The weights sum to the norm, sum(counts[c] * weights[c]), which must be
    exactly 1 (checked first, with the message of the sequents' check).
    Each distinct triple is then brought to `ExactReal`'s canonical form and
    its sign tested, once, so equal weights are equal triples.
    """
    total = (0, 0, 0)
    for c, (p, q, k) in weights.items():
        n = counts[c]
        total = _real_add(total, (n * p, n * q, k))
    _require_unit_norm(*total)
    reduced = {t: _real_canonical(*t) for t in set(weights.values())}
    of = {c: reduced[t] for c, t in weights.items()}
    dist = Distribution._of(width, dict(zip(basis, map(of.__getitem__, classes))))
    for t in reduced.values():
        if _sign(t[0], t[1]) <= 0:
            b = next(b for b, u in dist.weights.items() if u == t)
            raise ValueError(
                f"probability of {BasisState.of(b, width)} must be positive, "
                f"got {ExactReal(*t)}"
            )
    return dist


def _require_unit_norm(p: int, q: int, k: int) -> None:
    """The one normalization check, of a state's norm squared
    (p + q*sqrt2) / 2^k (that of an empty state is 0): a sequent's, and a
    distribution's in `_born`."""
    if _real_canonical(p, q, k) != (1, 0, 0):
        n = ExactReal(p, q, k)
        raise UnnormalizedState(f"state has norm squared {n.text()}, expected 1")


@dataclass(frozen=True)
class Coherent:
    """Sigma =>  : a coherent register, succedent empty."""

    state: Superposition

    def __post_init__(self) -> None:
        n = norm_sq(self.state)
        _require_unit_norm(n.p, n.q, n.k)

    @classmethod
    def _of(cls, state: Superposition) -> Coherent:
        """The sequent of a state normalized by construction: the
        conclusion of a unitary gate or a tensor of coherent premises,
        whose norm is 1 because a unitary keeps the norm and a tensor
        multiplies its factors'.  The one constructor without the check."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "state", state)
        return seq


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
    states its rule's premise count and the sequent kind of its premises,
    labels, script keyword and form, and the conclusion it derives.  A
    premise of another kind fails with the message `needs`, or on the Born
    normal form when it is Born-annotated.  `form` lists the script operands
    after the keyword: `premise` is a premise binding, `ket` and `gate` give
    the rule's field (a basis state, a gate with its wires), and `word=kind`
    is an operand written `word=...`.
    """

    arity = 1
    keyword: str
    form: tuple[str, ...] = ("premise",)
    latex_name: str
    premise: type = Coherent
    needs: str
    assumable = False  # may stand without premises as an assumption leaf

    def label(self) -> str:
        return self.keyword

    def latex(self) -> str:
        return self.latex_name

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        """The conclusion from premises of the right count and kind."""
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
    premise = Measured
    needs = "prep needs a measured premise"
    assumable = True

    def label(self) -> str:
        return f"prep {self.outcome}"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        for prem in premises:  # none for an assumption leaf
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
    needs = "tensor needs two coherent premises"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        left, right = premises
        return Coherent._of(tensor(left.state, right.state))


@dataclass(frozen=True)
class Unitary(RuleApp):
    app: GateApplication
    keyword = "gate"
    form = ("gate", "premise")
    needs = "a gate rule needs one coherent premise"

    def label(self) -> str:
        return self.app.text

    def latex(self) -> str:
        return r"\mathbf{%s}" % self.app.gate.name

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        (prem,) = premises
        state = apply(self.app, prem.state)
        # A non-unitary custom gate may break the norm, so it is checked.
        return Coherent._of(state) if self.app.gate.unitary else Coherent(state)


@dataclass(frozen=True)
class BornRule(RuleApp):
    keyword = "born"
    latex_name = "BR"
    needs = "the Born rule needs one coherent premise"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        (prem,) = premises
        return BornAnnotated(prem.state)


@dataclass(frozen=True)
class Measure(RuleApp):
    outcome: BasisState
    keyword = "measure"
    form = ("premise", "outcome=ket")
    latex_name = "M"
    premise = BornAnnotated
    needs = "measurement needs one Born-annotated premise"

    def label(self) -> str:
        return f"measure {self.outcome}"

    def conclude(self, premises: Sequence[Sequent]) -> Sequent:
        (prem,) = premises
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
        return verdict(self.rule, len(self.premises)) == "assumed"

    @classmethod
    def derive(
        cls,
        rule: RuleApp,
        premises: tuple[ProofNode, ...] = (),
        label: str | None = None,
    ) -> ProofNode:
        """The node concluding what the rule derives from the premises (see
        `apply_rule`), which has made the premise-count test of
        `__post_init__`, so the node is built by `_of`."""
        return cls._of(rule, premises, apply_rule(rule, [p.conclusion for p in premises]), label)

    @classmethod
    def _of(
        cls,
        rule: RuleApp,
        premises: tuple[ProofNode, ...],
        conclusion: Sequent,
        label: str | None,
    ) -> ProofNode:
        """The node of a conclusion that `apply_rule` derived from the
        premises' conclusions, built without repeating its premise-count
        test: the one constructor without the check, as `Coherent._of` is
        for a sequent."""
        node = object.__new__(cls)
        node.__dict__.update(rule=rule, premises=premises, conclusion=conclusion, label=label)
        return node


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
    kind = rule.premise
    for p in premises:
        if not isinstance(p, kind):
            if any(isinstance(p, BornAnnotated) for p in premises):
                raise BRNormalFormViolation(
                    "a Born-annotated sequent may only feed a measurement; "
                    "the distribution is introduced at the penultimate step"
                )
            raise WrongPremiseShape(rule.needs)
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


def verdict(rule: RuleApp, premises: int, detail: str = "") -> str:
    """The status of an application of the rule to that many premises:
    `invalid` when detail says why the rule does not derive it, else
    `assumed` for an assumption leaf and `ok` for any other."""
    if detail:
        return "invalid"
    return "assumed" if rule.assumable and not premises else "ok"


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
        status = verdict(node.rule, len(node.premises), detail)
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
    walk adds the packed weights to -u with `_real_add`, so each running
    sum, CDF minus u, is integers (p + q*sqrt2) over 2^k.
    """
    z = _splitmix64(seed & _MASK64)
    sums = accumulate(dist.weights.values(), _real_add, initial=(-z, 0, 64))
    next(sums)  # -u itself, before any weight
    for (b, weight), (p, q, _) in zip(dist.weights.items(), sums):
        if _sign(p, q) > 0:
            return BasisState.of(b, dist.width), ExactReal(*weight)
    raise AssertionError("probabilities sum to 1 and u < 1")
