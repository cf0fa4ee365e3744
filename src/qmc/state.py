"""Superpositions over n-qubit computational basis states.

A superposition is packed: a dict from each basis state's integer value to
its canonical packed amplitude (see `amplitude`).  Wire 0 is the most
significant bit, so ascending integer order is lexicographic order by
bitstring, and iteration always follows it; renderings and reports are
deterministic.  Only nonzero amplitudes are stored: the public constructor
drops zeros, and `combine`, the only place where terms of like basis states
meet, drops a sum that comes out exactly zero.  That is where destructive
interference eliminates terms.  Gates that cannot make two terms meet
(permutations and phases, see `gates`) build their result without it.

`BasisState` and `Amplitude` are the values the API shows: `terms()`,
`amplitude()` and the constructor take or give them, and the engine builds
them only there.  A Born distribution (`calculus.Distribution`) keeps the
same basis index keys, with one shared exact weight per distinct
|amplitude|^2, and renders its kets from the same memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .amplitude import (
    AMP_ZERO,
    PACKED_ONE,
    PACKED_ZERO,
    Amplitude,
    ExactReal,
    Packed,
    _add,
    _latex,
    _mul,
    _poly_text,
)


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
    is read-only, like the whole value, so the norm is computed once and
    cached.
    """

    __slots__ = ("width", "packed", "_norm")

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
        amplitude."""
        if width < 1:
            raise ValueError("register width must be at least 1")
        keys = sorted(sums)
        if keys and (keys[0] < 0 or keys[-1] >> width):
            bad = keys[0] if keys[0] < 0 else keys[-1]
            raise ValueError(f"basis index {bad} does not fit width {width}")
        self.width = width
        self.packed = {b: sums[b] for b in keys}
        self._norm: ExactReal | None = None

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
        return self._join(lambda amp: f"({_coeff_text(amp)})", "|%s>", texts)

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
    poly = _poly_text(amp)
    k = amp[4]
    if k == 0:
        return poly
    single = sum(1 for c in amp[:4] if c) == 1
    base = poly if single else f"({poly})"
    if k == 1:
        return f"{base}/sqrt2"
    return f"{base}/sqrt2^{k}"


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


def combine(parts: Iterable[tuple[Packed, int]], width: int) -> Superposition:
    """Sum packed amplitudes of like basis indices; exact zero sums are removed.

    This is the single place where interference happens: two equal,
    oppositely signed contributions to the same basis state cancel and the
    term disappears from the support.
    """
    sums: dict[int, Packed] = {}
    for amp, basis in parts:
        prev = sums.get(basis)
        if prev is not None:
            amp = _add(prev, amp)
        if amp != PACKED_ZERO:
            sums[basis] = amp
        elif prev is not None:
            del sums[basis]
    return Superposition._of(width, sums)


def norm_sq(s: Superposition) -> ExactReal:
    """Sum of |amplitude|^2, computed once per superposition."""
    if s._norm is None:
        # |num|^2 = p + q*sqrt2 as in `amplitude._mod_sq`, over 2^k; the
        # running sums p_total, q_total stand over 2^k_max.  This inlines
        # `_mod_sq` and `_real_add` because every `Coherent` sequent checks
        # its norm: calling them per term took about 700 us against 300 us
        # for a 1024-term norm (Python 3.11, 2-CPU Intel Xeon).
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
        s._norm = ExactReal(p_total, q_total, k_max)
    return s._norm


def support(s: Superposition) -> list[BasisState]:
    """Basis states with nonzero amplitude, in lexicographic order."""
    return [BasisState.of(b, s.width) for b in s.packed]
