"""Unitary gate registry and exact gate application.

Gates are small matrices of exact amplitudes.  Application to a register
never materializes the 2^n x 2^n embedding.  Each gate precomputes a kernel
once: its nonzero entries per column, each written as w^j / sqrt2^e when it
has that form (every built-in entry does) and kept as a packed amplitude
otherwise, whether the gate is a permutation, and whether it is unitary,
exactly (`is_unitary`).

The dict engine has one kernel per job, each on packed dicts whose keys
come in any order.  A permutation gate (X, Z, S, T, CNOT, I) has one unit
entry w^j per column in distinct rows, so it sends each term to its own
basis index, rotated by w^j; no two terms meet, and no sum is needed.
`apply_run` takes a run of one or more such gates in a row: each term goes
through the whole run, one table lookup per gate, before it is stored, and
its amplitude is rotated once, by the run's total power of w.
`apply_packed` takes any other gate, and that is where interference between
computational paths takes effect.  A gate of H's shape, ((1, 1), (1, -1))
/ sqrt2^e (`Gate.pair`; H has e = 1 and is the only built-in that is not a
permutation), runs a paired loop: each basis index with the wire's bit
clear is taken with its partner, the index with the bit set, and their sum
and difference are each added at a common exponent and canonicalized once;
a sum that is exactly zero stores no term.  Every other gate that is not a
permutation emits, for every nonzero entry of a term's column, the
amplitude times the entry with the row's bits put in their place (a
unit-scaled entry rotates the amplitude, `_times_unit`, instead of
multiplying it), and `state.merge` sums those products by basis index; a
custom one-wire gate of unit form other than H's shape, such as S.H or
H.T, goes there too.  `translate.run_gates` runs a circuit's gates
(`final_state`), or a script's chain of gate steps (`parser.conclude`), on
these two kernels and sorts one state per run.

`apply`, the proof path's entry, gives one sorted `Superposition` per gate:
a permutation gate's terms moved and rotated in its own loop, any other
gate's products, a Hadamard's too, through `state.combine`, which wraps
`state.merge`.

Over more than `state.MEMO_TERMS` terms that repeat amplitudes, the paired
loop sums each distinct column pair once, and the products behind
`apply_packed` and `apply`, and `apply`'s permutation loop, rotate or
multiply each distinct amplitude once per kernel entry, through a memo that
lives for the call (see `state`).  `apply_run` keeps none: the runs that
reach the dict engine meet few terms, since a register that fills up goes
to `dense` and comes back only past its int64 bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .amplitude import (
    AMP_ONE,
    AMP_ZERO,
    INV_SQRT2,
    OMEGA,
    PACKED_ZERO,
    Amplitude,
    CycloInt,
    Packed,
    _canonical,
    _mul,
    _times_sqrt2,
    _times_unit,
)
from .state import (
    MEMO_ENTRIES,
    MEMO_TERMS,
    Superposition,
    _clip,
    _memo,
    _wire_text,
    combine,
    merge,
)

Matrix = tuple[tuple[Amplitude, ...], ...]


@dataclass(frozen=True)
class Gate:
    name: str
    arity: int
    matrix: Matrix  # matrix[row][col], col = input basis index
    # Computed once: kernel[col] lists (row, j, e, entry) for the nonzero
    # entries of a column.  An entry of the form w^j / sqrt2^e has entry
    # None; any other keeps its packed tuple in entry.  A permutation gate
    # has one entry w^j per column, and no two columns share a row.
    kernel: tuple[tuple[tuple[int, int, int, Packed | None], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    permutation: bool = field(init=False, repr=False, compare=False)
    # Computed once: whether U-dagger U = I exactly (`is_unitary`).  A
    # unitary gate keeps a normalized state normalized, so its rule's
    # conclusion needs no norm check (see `calculus.Unitary`).
    unitary: bool = field(init=False, repr=False, compare=False)
    # Computed once: e for a gate of H's shape, ((1, 1), (1, -1)) / sqrt2^e,
    # whose terms `apply_packed` sums in pairs; None for any other gate.
    pair: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 1 << self.arity
        if len(self.matrix) != size or any(len(row) != size for row in self.matrix):
            raise ValueError(f"{self.name} needs a {size}x{size} matrix")
        kernel = tuple(
            tuple(
                (row, *_unit_form(self.matrix[row][col].packed))
                for row in range(size)
                if not self.matrix[row][col].is_zero()
            )
            for col in range(size)
        )
        # Rows of the columns that hold a single entry w^j; a permutation
        # has size of them, all distinct.
        rows = {
            column[0][0]
            for column in kernel
            if len(column) == 1 and column[0][2:] == (0, None)
        }
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "permutation", len(rows) == size)
        object.__setattr__(self, "unitary", is_unitary(self))
        e = kernel[0][0][2] if kernel[0] else 0
        h_shape = (((0, 0, e, None), (1, 0, e, None)), ((0, 0, e, None), (1, 4, e, None)))
        object.__setattr__(self, "pair", e if kernel == h_shape else None)


def _unit_form(x: Packed) -> tuple[int, int, Packed | None]:
    """(j, e, None) when x = w^j / sqrt2^e, else (0, 0, x)."""
    nonzero = [i for i in range(4) if x[i]]
    if len(nonzero) == 1 and abs(x[nonzero[0]]) == 1:
        i = nonzero[0]
        return i if x[i] > 0 else i + 4, x[4], None
    return 0, 0, x


def is_unitary(g: Gate) -> bool:
    """True iff U-dagger times U is exactly the identity."""
    dim = 1 << g.arity
    for i in range(dim):
        for j in range(dim):
            acc = AMP_ZERO
            for k in range(dim):
                acc = acc + g.matrix[k][i].conj() * g.matrix[k][j]
            if acc != (AMP_ONE if i == j else AMP_ZERO):
                return False
    return True


@dataclass(frozen=True)
class GateApplication:
    """A gate bound to an ordered list of distinct target wires.

    For CNOT the first wire is the control, the second the target.
    """

    gate: Gate
    wires: tuple[int, ...]
    # `_plan` for each register width the application has met.  A parse
    # shares one application per distinct gate and wires, so the plan is
    # built once, not once per node.
    plans: dict[int, tuple[int, dict]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # `label()`, made once per application rather than once per rendered
    # node or written gate step.
    text: str = field(init=False, repr=False, compare=False)
    # The highest wire, so that a range check costs one comparison.
    max_wire: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.wires) != self.gate.arity:
            raise ValueError(
                f"{self.gate.name} takes {self.gate.arity} wire(s), "
                f"got {len(self.wires)}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise ValueError("duplicate wires")
        if any(w < 0 for w in self.wires):
            raise ValueError("wire indices must be nonnegative")
        object.__setattr__(
            self, "text", f"{self.gate.name} [{','.join(map(_wire_text, self.wires))}]"
        )
        object.__setattr__(self, "max_wire", max(self.wires, default=-1))

    def label(self) -> str:
        return self.text


_ONE = AMP_ONE
_ZERO = AMP_ZERO
_NEG_ONE = Amplitude(CycloInt(-1))
_I_UNIT = Amplitude(CycloInt(0, 0, 1))  # w^2 = i
_NEG_INV_SQRT2 = Amplitude(CycloInt(-1), 1)

_BUILTINS: dict[str, Gate] = {
    "I": Gate("I", 1, ((_ONE, _ZERO), (_ZERO, _ONE))),
    "X": Gate("X", 1, ((_ZERO, _ONE), (_ONE, _ZERO))),
    "Z": Gate("Z", 1, ((_ONE, _ZERO), (_ZERO, _NEG_ONE))),
    "S": Gate("S", 1, ((_ONE, _ZERO), (_ZERO, _I_UNIT))),
    "T": Gate("T", 1, ((_ONE, _ZERO), (_ZERO, OMEGA))),
    "H": Gate("H", 1, ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, _NEG_INV_SQRT2))),
    "CNOT": Gate(
        "CNOT",
        2,
        (
            (_ONE, _ZERO, _ZERO, _ZERO),
            (_ZERO, _ONE, _ZERO, _ZERO),
            (_ZERO, _ZERO, _ZERO, _ONE),
            (_ZERO, _ZERO, _ONE, _ZERO),
        ),
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Gate:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown gate name: {name}") from None


def apply(app: GateApplication, s: Superposition) -> Superposition:
    """Apply the gate to the designated wires of every basis term.

    Other wires are untouched.  A permutation gate moves each term to one
    new basis index, rotated by its column's w^j, so no two terms meet and
    the result is built directly.  Any other gate's rewritten terms are
    merged with `combine`, so exact cancellation between them happens there.
    """
    width = s.width
    packed = s.packed
    if not app.gate.permutation:
        return combine(_products(app, width, packed), width)
    mask, table = app.plans.get(width) or _plan(app, width)
    memo = _memo(packed.values()) if len(packed) > MEMO_TERMS else None
    out: dict[int, Packed] = {}
    for basis, amp in packed.items():
        wires = basis & mask
        row, j = table[wires]
        if j:
            if memo is None:
                amp = _times_unit(amp, j, 0)
            else:
                key = amp, j
                rotated = memo.get(key)
                if rotated is None:
                    rotated = memo[key] = _times_unit(amp, j, 0)
                    if len(memo) > MEMO_ENTRIES:
                        memo = None
                amp = rotated
        out[basis ^ wires | row] = amp
    return Superposition._of(width, out)


def apply_packed(
    app: GateApplication, width: int, packed: dict[int, Packed]
) -> dict[int, Packed]:
    """A gate that is not a permutation on a packed dict of the given width,
    whose keys may come in any order, as a new dict whose keys come in no
    set order.

    A gate of H's shape (`Gate.pair`) takes each basis index with its
    wire's bit clear together with its partner, the index with the bit set,
    and computes each of the pair's two outputs as one exact sum (see
    `_pair_sums`); a partner whose own partner is absent is taken alone.
    An output that sums to exactly zero is not stored.  Any other gate's
    products are merged by `state.merge`.  Over more than `MEMO_TERMS`
    terms that repeat amplitudes, each distinct column pair is summed once
    (see `state`)."""
    e = app.gate.pair
    if e is None:
        return merge(_products(app, width, packed))
    bit = (app.plans.get(width) or _plan(app, width))[0]
    memo = _memo(packed.values()) if len(packed) > MEMO_TERMS else None
    out: dict[int, Packed] = {}
    for basis, amp in packed.items():
        if basis & bit:
            low = basis ^ bit
            if low in packed:
                continue  # summed with its partner
            x, y = None, amp
        else:
            low = basis
            x, y = amp, packed.get(basis | bit)
        if memo is None:
            s0, s1 = _pair_sums(x, y, e)
        else:
            key = x, y
            sums = memo.get(key)
            if sums is None:
                sums = memo[key] = _pair_sums(x, y, e)
                if len(memo) > MEMO_ENTRIES:
                    memo = None
            s0, s1 = sums
        if s0 != PACKED_ZERO:
            out[low] = s0
        if s1 != PACKED_ZERO:
            out[low | bit] = s1
    return out


def _pair_sums(x: Packed | None, y: Packed | None, e: int) -> tuple[Packed, Packed]:
    """The two outputs of a gate of H's shape, ((1, 1), (1, -1)) / sqrt2^e,
    on the amplitudes x of the wire's 0 and y of its 1, None when absent:
    (x + y) / sqrt2^e and (x - y) / sqrt2^e, canonical, zero as
    PACKED_ZERO.  Both present, they are lifted to one exponent k once, and
    each output is summed there and canonicalized once, at k + e.  One
    alone is scaled by `_times_unit`."""
    if y is None:
        s = _times_unit(x, 0, e)
        return s, s
    if x is None:
        return _times_unit(y, 0, e), _times_unit(y, 4, e)
    # Lift the smaller exponent as `amplitude._add` does.
    x0, x1, x2, x3, k = x
    y0, y1, y2, y3, ky = y
    if k < ky:
        d = ky - k
        if d & 1:
            x0, x1, x2, x3 = _times_sqrt2(x0, x1, x2, x3)
        d >>= 1
        x0, x1, x2, x3, k = x0 << d, x1 << d, x2 << d, x3 << d, ky
    elif ky < k:
        d = k - ky
        if d & 1:
            y0, y1, y2, y3 = _times_sqrt2(y0, y1, y2, y3)
        d >>= 1
        y0, y1, y2, y3 = y0 << d, y1 << d, y2 << d, y3 << d
    k += e
    return (
        _canonical(x0 + y0, x1 + y1, x2 + y2, x3 + y3, k),
        _canonical(x0 - y0, x1 - y1, x2 - y2, x3 - y3, k),
    )


def apply_run(
    run: list[GateApplication], width: int, packed: dict[int, Packed]
) -> dict[int, Packed]:
    """One or more permutation applications in a row on a packed dict, as
    `apply` one after another would give them, but each term goes through
    the whole run before it is stored: its basis index is looked up once
    per gate, and its amplitude is rotated once, by the run's total power
    of w.  No table over the run's wires is built."""
    plans = [app.plans.get(width) or _plan(app, width) for app in run]
    out: dict[int, Packed] = {}
    for basis, amp in packed.items():
        power = 0
        for mask, table in plans:
            wires = basis & mask
            row, j = table[wires]
            basis ^= wires ^ row
            power += j
        power &= 7
        out[basis] = _times_unit(amp, power, 0) if power else amp
    return out


def _products(
    app: GateApplication, width: int, packed: dict[int, Packed]
) -> list[tuple[Packed, int]]:
    """Each term's products with its column's entries of a gate that is not
    a permutation, as (amplitude, basis index) parts still to be merged."""
    mask, table = app.plans.get(width) or _plan(app, width)
    memo = _memo(packed.values()) if len(packed) > MEMO_TERMS else None
    parts: list[tuple[Packed, int]] = []
    emit = parts.append
    for basis, amp in packed.items():
        wires = basis & mask
        rest = basis ^ wires
        if memo is None:
            for row, j, e, entry in table[wires]:
                part = _times_unit(amp, j, e) if entry is None else _mul(amp, entry)
                emit((part, rest | row))
            continue
        key = amp, wires
        products = memo.get(key)
        if products is None:
            products = memo[key] = []
            for row, j, e, entry in table[wires]:
                part = _times_unit(amp, j, e) if entry is None else _mul(amp, entry)
                products.append((part, row))
            if len(memo) > MEMO_ENTRIES:
                memo = None
        for part, row in products:
            emit((part, rest | row))
    return parts


def _plan(app: GateApplication, width: int) -> tuple[int, dict]:
    """(mask, table) for the application on a register of the given width,
    kept in `app.plans`.  mask selects the gate's wires in a basis index.
    For a permutation gate, table sends the wires' bits of a column to the
    row's bits and the unit's power j; otherwise it sends them to the
    column's (row bits, j, e, entry) list."""
    # The only range check a script's `gate H [3]` on a 1-qubit premise
    # meets; a width gets a plan only once its wires fit, so is checked once.
    for w in app.wires:
        if w >= width:
            raise ValueError(
                f"wire {_clip(_wire_text(w))} out of range for width-{width} register"
            )
    gate = app.gate
    # Wire w is bit width-1-w of a basis index, and row bit j (from the
    # most significant) belongs to wires[j].  place[row] puts a row's bits
    # there, so a term's column is found by masking its index.  Each wire
    # doubles the list: every entry without its bit, then with it.
    place = [0]
    for w in app.wires:
        bit = 1 << (width - 1 - w)
        place = [p | b for p in place for b in (0, bit)]
    mask = place[-1]  # the last row has every wire's bit set
    if gate.permutation:
        table: dict = {
            place[col]: (place[row], j)
            for col, ((row, j, _, _),) in enumerate(gate.kernel)
        }
    else:
        table = {
            place[col]: [(place[row], j, e, entry) for row, j, e, entry in column]
            for col, column in enumerate(gate.kernel)
        }
    app.plans[width] = (mask, table)
    return mask, table
