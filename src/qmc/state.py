"""Superpositions over n-qubit computational basis states.

A superposition is packed: a dict from each basis state's integer value to
its canonical packed amplitude (see `amplitude`).  Wire 0 is the most
significant bit, so ascending integer order is lexicographic order by
bitstring, and iteration always follows it; renderings and reports are
deterministic.  Only nonzero amplitudes are stored: the public constructor
drops zeros, and the sums that merge terms of like basis states drop any that
comes out exactly zero, which is where destructive interference eliminates
terms.  Those sums are made in three places: `merge`, here, for the proof
path and for every gate of the dict engine that is not a permutation but
one of H's shape; the paired loop of `gates.apply_packed`, which sums the
two terms a gate of H's shape mixes in one step; and on wide registers the
row sums of `dense._apply`, whose zero columns `dense._to_packed` drops.  Gates
that cannot make two terms meet (permutations and phases, see `gates`) need
no sum.  `merge` gives a dict in no set order, for `gates.apply_packed`, on
which (with `gates.apply_run` for runs of permutation gates)
`translate.run_gates` runs a circuit's gates, or a script's chain of gate
steps, and builds one state per run; `combine` wraps `merge` and sorts its
result, for the proof path's `gates.apply`, so every gate of a proof that
is not a permutation merges its terms here.

A wide state repeats a few amplitudes over its whole support (a 10-wire
register after a Hadamard layer: 1024 terms, at most 24 distinct amplitudes).
So `merge`, the paired loop and the products behind `gates.apply_packed`
and `gates.apply`, and the permutation loop of `gates.apply` each keep a
memo for one call, from each distinct input (an amplitude, a pair of
addends, a column pair) to its result, when the call has more than
`MEMO_TERMS` terms and its first `MEMO_ENTRIES` + 1 amplitudes, in the
order the call meets them, hold at most `MEMO_ENTRIES` // 2 distinct
values, and drop it once it holds more than `MEMO_ENTRIES` entries.  Packed
tuples are canonical and the memoized functions pure, so the memo is exact
whatever that order, and nothing is cached across calls.
`norm_sq` keeps none: its |amplitude|^2 costs little more than the lookup
would.  Nor does `gates.apply_run`: a full register leaves the dict engine
for `dense`, so its runs meet more than `MEMO_TERMS` terms only after an
int64 hand-back.

`render` and `latex` write each distinct amplitude once per rendering
pass (see `_join`), through `_coeff_text` and `amplitude._latex`, which share
the one coefficient formatter, `amplitude._poly`.

`BasisState` and `Amplitude` are the values the API shows: `terms()`,
`amplitude()` and the constructor take or give them, and the engine builds
them only there.  A Born distribution (`calculus.Distribution`) keeps the
same basis index keys, with each |amplitude|^2 as a packed (p, q, k)
triple, and renders its kets from the same memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .amplitude import (
    AMP_ZERO,
    PACKED_ONE,
    PACKED_ZERO,
    _POWER_NAMES,
    Amplitude,
    ExactReal,
    Packed,
    _add,
    _latex,
    _mul,
    _poly,
)

# The bound of the per-call memos (see the module docstring): wide 8- to
# 10-wire states need at most 48 entries per call, and their first 65 terms
# hold at most 24 distinct amplitudes.  Measured on a 2-CPU Intel Xeon under
# Python 3.11, translating a random 300-gate 10-wire circuit whose amplitudes
# mostly differ, against no memo: kept to the end of each call over
# MEMO_TERMS terms, 1.6x; dropped past MEMO_ENTRIES entries, 1.08x; also not
# started when the first MEMO_ENTRIES + 1 amplitudes are all distinct,
# 1.03-1.06x; started only when they hold at most MEMO_ENTRIES // 2, 0.95x.
# Used on every call, a memo made 3-qubit chains 1.34x slower.  On the
# benchmark's `wide` circuits, against a memo in `norm_sq` too, `translate`
# read 1.04x without that one (within the spread of the runs, so it is
# gone), 1.06x without the permutation memo of `gates.apply` instead (beyond
# it), 1.10x without both, and 1.18x without any memo but `combine`'s.
MEMO_ENTRIES = 64
MEMO_TERMS = 2 * MEMO_ENTRIES


def _memo(amps: Iterable[Packed]) -> dict | None:
    """A new memo for a call over more than MEMO_TERMS terms whose
    amplitudes come in the order of amps, or None when the first
    MEMO_ENTRIES + 1 of them hold more than MEMO_ENTRIES // 2 distinct
    values: a lookup that hits saves little more than a tuple hash costs, so
    the memo pays only where most of them hit."""
    return None if len(set(islice(amps, MEMO_ENTRIES + 1))) > MEMO_ENTRIES // 2 else {}


def _clip(text: str) -> str:
    """An input text as an error message quotes it: one longer than 15
    characters shows its first 12 and `...`, so every message stays one
    short line whatever the input."""
    return text if len(text) <= 15 else text[:12] + "..."


def _wire_text(wire: int) -> str:
    """A wire index's decimal text.  One too long for `str` (by default more
    than 4300 digits) is quoted as `_clip` quotes a long text, by its first
    12 digits and `...`, found without converting the whole wire."""
    try:
        return str(wire)
    except ValueError:
        pass
    # 10^digits <= wire, since 0.30102 < log10(2), so the quotient keeps at
    # least the 12 leading digits.
    digits = (wire.bit_length() - 1) * 30102 // 100000
    lead = wire // 10 ** (digits - 11)
    while lead >= 10**12:
        lead //= 10
    return f"{lead}..."


@dataclass(frozen=True, order=True)
class BasisState:
    """An n-bit computational basis state; wire 0 is the leftmost bit."""

    bits: str

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("basis state needs at least one bit")
        if set(self.bits) - {"0", "1"}:
            raise ValueError(f"basis state bits must be 0 or 1: {self.bits!r}")

    @classmethod
    def of(cls, index: int, width: int) -> BasisState:
        """The width-bit basis state whose integer value is index.

        For indices the engine has range-checked (`Superposition._init`), so
        the bits need no second check.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "bits", format(index, f"0{width}b"))
        return state

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """The integer value of the bits, wire 0 most significant."""
        return int(self.bits, 2)

    def __str__(self) -> str:
        return f"|{self.bits}>"


class Superposition:
    """Association from basis states to nonzero canonical amplitudes.

    `packed` maps basis indices to packed amplitudes in ascending order; it
    is read-only, like the whole value.
    """

    __slots__ = ("width", "packed")

    def __init__(self, width: int, terms: Mapping[BasisState, Amplitude]) -> None:
        packed: dict[int, Packed] = {}
        for basis, amp in terms.items():
            if basis.width != width:
                raise ValueError(
                    f"basis state {basis} has width {basis.width}, expected {width}"
                )
            if not amp.is_zero():
                packed[basis.index] = amp.packed
        self._init(width, packed)

    @classmethod
    def _of(cls, width: int, sums: dict[int, Packed]) -> Superposition:
        s = object.__new__(cls)
        s._init(width, sums)
        return s

    def _init(self, width: int, sums: dict[int, Packed]) -> None:
        """Store sums in ascending order of basis index; sums holds no zero
        amplitude, and the superposition owns it from here on.  Sums that
        are already in order (phase gates, `dense`) are kept as they are."""
        if width < 1:
            raise ValueError("register width must be at least 1")
        given = list(sums)
        keys = sorted(given)
        if keys and (keys[0] < 0 or keys[-1] >> width):
            bad = keys[0] if keys[0] < 0 else keys[-1]
            raise ValueError(f"basis index {bad} does not fit width {width}")
        self.width = width
        self.packed = sums if keys == given else {b: sums[b] for b in keys}

    def terms(self) -> Iterator[tuple[BasisState, Amplitude]]:
        width = self.width
        return (
            (BasisState.of(b, width), Amplitude.of(amp))
            for b, amp in self.packed.items()
        )

    def amplitude(self, basis: BasisState) -> Amplitude:
        if basis.width != self.width:
            return AMP_ZERO
        return Amplitude.of(self.packed.get(basis.index, PACKED_ZERO))

    def __contains__(self, basis: BasisState) -> bool:
        return basis.width == self.width and basis.index in self.packed

    def __len__(self) -> int:
        return len(self.packed)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Superposition):
            return self.width == other.width and self.packed == other.packed
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, tuple(self.packed.items())))

    def render(self, texts: dict | None = None) -> str:
        return self._join(_render_coeff, "|%s>", texts)

    def latex(self, texts: dict | None = None) -> str:
        return self._join(_latex, r"\ket{%s}", texts)

    def _join(self, coeff: Callable[[Packed], str], ket: str, texts: dict | None) -> str:
        """The terms as coefficient text before each ket; a unit amplitude
        shows the bare ket.

        texts is the memo of one rendering pass in one format: it maps each
        packed amplitude to its coefficient text and each register width to
        the ket texts of that width by index, so a pass formats each distinct
        amplitude and ket once.  Without it the memo is this call's own.
        """
        if not self.packed:
            return "0"
        if texts is None:
            texts = {}
        width = self.width
        kets = texts.get(width)
        if kets is None:
            kets = texts[width] = {}
        parts = []
        for b, amp in self.packed.items():
            text = texts.get(amp)
            if text is None:
                text = texts[amp] = "" if amp == PACKED_ONE else coeff(amp)
            ket_text = kets.get(b)
            if ket_text is None:
                ket_text = kets[b] = ket % format(b, f"0{width}b")
            parts.append(text + ket_text)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Superposition({self.width}, {self.render()})"


def _coeff_text(amp: Packed) -> str:
    """An amplitude as `render` shows it, before its parentheses: the
    numerator, over `sqrt2` or `sqrt2^k`; a numerator of other than one term
    takes parentheses before a denominator."""
    text, terms = _poly(amp, _POWER_NAMES, "*")
    k = amp[4]
    if k == 0:
        return text
    if terms != 1:
        text = f"({text})"
    return text + "/sqrt2" if k == 1 else f"{text}/sqrt2^{k}"


def _render_coeff(amp: Packed) -> str:
    return f"({_coeff_text(amp)})"


def ket(bits: str | BasisState) -> Superposition:
    """Single-term superposition |bits> with amplitude 1."""
    basis = bits if isinstance(bits, BasisState) else BasisState(bits)
    return Superposition._of(basis.width, {basis.index: PACKED_ONE})


def tensor(s1: Superposition, s2: Superposition) -> Superposition:
    """Tensor product; widths add, amplitudes multiply pairwise."""
    w2 = s2.width
    terms = {
        (b1 << w2) | b2: _mul(a1, a2)
        for b1, a1 in s1.packed.items()
        for b2, a2 in s2.packed.items()
    }
    return Superposition._of(s1.width + w2, terms)


def combine(parts: list[tuple[Packed, int]], width: int) -> Superposition:
    """Sum packed amplitudes of like basis indices; exact zero sums are removed.

    The superposition of `merge`'s sums, in ascending order of basis index.
    """
    return Superposition._of(width, merge(parts))


def merge(parts: list[tuple[Packed, int]]) -> dict[int, Packed]:
    """The nonzero sums of `combine`, by basis index in no set order.

    The proof path's interference happens here, and the dict engine's for
    every gate but one of H's shape, whose terms meet in the paired loop of
    `gates.apply_packed` (the dense engine's meet in `dense._apply`): two equal, oppositely signed contributions to the same
    basis state cancel and the term disappears from the support.  Over more
    than `MEMO_TERMS` parts that repeat amplitudes, each distinct pair of
    addends is added once (see the module docstring).
    """
    sums: dict[int, Packed] = {}
    memo = _memo(map(itemgetter(0), parts)) if len(parts) > MEMO_TERMS else None
    for amp, basis in parts:
        prev = sums.get(basis)
        if prev is not None:
            if memo is None:
                amp = _add(prev, amp)
            else:
                pair = prev, amp
                total = memo.get(pair)
                if total is None:
                    total = memo[pair] = _add(prev, amp)
                    if len(memo) > MEMO_ENTRIES:
                        memo = None
                amp = total
        if amp != PACKED_ZERO:
            sums[basis] = amp
        elif prev is not None:
            del sums[basis]
    return sums


def norm_sq(s: Superposition) -> ExactReal:
    """Sum of |amplitude|^2, one pass over the packed amplitudes per call."""
    # |num|^2 = p + q*sqrt2 as in `amplitude._mod_sq`, over 2^k; the running
    # sums p_total, q_total stand over 2^k_max.  This inlines `_mod_sq` and
    # `_real_add` because every checked sequent (`calculus.Coherent`) runs it
    # over its whole state: calling them per
    # term took about 700 us against 300 us for a 1024-term norm (Python
    # 3.11, 2-CPU Intel Xeon).
    p_total = q_total = k_max = 0
    for a0, a1, a2, a3, k in s.packed.values():
        p = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        q = a0 * a1 + a1 * a2 + a2 * a3 - a3 * a0
        if k == k_max:
            p_total += p
            q_total += q
        elif k < k_max:
            p_total += p << (k_max - k)
            q_total += q << (k_max - k)
        else:
            p_total = (p_total << (k - k_max)) + p
            q_total = (q_total << (k - k_max)) + q
            k_max = k
    return ExactReal(p_total, q_total, k_max)


def support(s: Superposition) -> list[BasisState]:
    """Basis states with nonzero amplitude, in lexicographic order."""
    return [BasisState.of(b, s.width) for b in s.packed]
