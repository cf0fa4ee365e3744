"""Dense exact engine for `translate.run_gates` on wide, nearly full registers.

The dict engine (`gates.apply_packed` and `gates.apply_run` on packed dicts)
pays one Python dict operation per term per gate.  Once a register of at
least `MIN_WIDTH` wires has at least 2^n / 2^`FILL_SHIFT` nonzero
amplitudes, `run_gates` hands its packed dict and the remaining gates to
`run`, which keeps the same exact values in arrays to the end of the run:

- The state is an array of shape (4, 2^n): column b holds the Z[w]
  numerator (a0, a1, a2, a3) of basis index b, and every column stands over
  one common sqrt2^K.  The array holds at most 2^`FILL_SHIFT` times as many
  columns as the dict held terms when it switched.
- A gate's step is read off its matrix.  Each entry
  (a0 + a1 w + a2 w^2 + a3 w^3) / sqrt2^e is one term per nonzero a_i,
  scaled by |a_i|, so an entry w^j / sqrt2^e is one term.  With E the
  largest e, each output row is the sum of its terms' input column slices,
  lifted by sqrt2^(E - e), scaled and rotated by w^j, and K grows by E: a
  Hadamard is a butterfly, T, S and Z rotate the slice where their wire is
  1, and X and CNOT move slices.
- Exactness: the array is int64 while every coefficient stays below
  2^`MAX_BITS` in absolute value, so no sum or difference of two leaves
  int64.  A bound on the coefficient bits grows with each gate's worst case
  (a Hadamard adds one) and is measured again from the array before it
  would pass the limit.  Before a gate that would pass it, the array
  becomes one of Python ints (`dtype=object`), exact at any size, once,
  and the run goes on there; a state that does not fit int64 starts there.
  When a gate has raised K and left every coefficient even, the factor 2
  is divided out and K falls by 2.
- The run returns its arrays as `Arrays`.  The boundary back to packed
  tuples (`packed_of`) is vectorized: one masked loop divides every term's
  numerator by sqrt2 while it can, which brings each to the Giles &
  Selinger normal form of `amplitude` (arXiv:1212.0506), then one `tolist`
  builds the packed dict, in ascending order of basis index.  Its terms
  equal the dict engine's.
- A caller that wants only the Born weights (`translate.final_distribution`)
  skips that boundary when every coefficient is below 2^`BORN_BITS`:
  `Arrays.born` computes each column's |amplitude|^2 over 2^K,
  p = a0^2 + a1^2 + a2^2 + a3^2 and q = a0*a1 + a1*a2 + a2*a3 - a3*a0 as in
  `amplitude._mod_sq`, in int64 (or Python ints, on an array that has
  switched), and groups equal (p, q) pairs with one `lexsort`.  `calculus`
  checks the weights and reduces each distinct one.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from . import amplitude
from .amplitude import Packed
from .gates import Gate, GateApplication

# Chosen by timing 20 random H/T/S/CNOT gates on both engines (Python 3.11,
# numpy 2.4, a 2-CPU Intel Xeon host): from 8 wires on, with a quarter of
# the register filled, the dense engine took 0.08-0.72x the dict engine's
# time (8 wires 0.72x, 10 wires 0.27x, 12 wires 0.08x); at 7 wires it won
# only on a full register.
MIN_WIDTH = 8
FILL_SHIFT = 2
# A sum or difference of two coefficients below 2^62 fits int64.  The gates'
# row sums grow no int64 coefficient past the bound, but `_to_packed`'s
# division by sqrt2 adds two of them once more, so a bound of 63 could wrap
# there.  Past the bound the arrays hold Python ints.
MAX_BITS = 62
# Below 2^30, a coefficient's square and a sum of four products of two stay
# below 2^62, so `Arrays.born` computes every |amplitude|^2 in int64.
BORN_BITS = 30


class Arrays(NamedTuple):
    """The state at the end of `run`: column b of c holds the numerator of
    basis index b, over sqrt2^k, in int64 or, past 2^MAX_BITS, Python
    ints."""

    c: np.ndarray
    k: int

    def born(
        self,
    ) -> tuple[list[int], list[int], dict[int, tuple[int, int, int]], list[int]] | None:
        """The Born weights of the nonzero columns, or None when a
        coefficient reaches 2^BORN_BITS.

        They come as (basis, classes, weights, counts): the basis indices
        in ascending order, and the class of each, one class per distinct
        |amplitude|^2.  weights[j] is the (p, q, k) of class j, standing for
        (p + q*sqrt2) / 2^k as `amplitude._mod_sq` gives it, not reduced,
        and counts[j] the number of its columns.
        """
        c, k = self
        if _bits(c) > BORN_BITS:
            return None
        basis = np.flatnonzero(c.any(axis=0))
        a0, a1, a2, a3 = c[:, basis]
        p = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        q = a0 * a1 + a1 * a2 + a2 * a3 - a3 * a0
        # Equal (p, q) pairs end up next to each other; `np.unique` over
        # the pairs as rows took longer than the whole of this.
        order = np.lexsort((q, p))
        p, q = p[order], q[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (p[1:] != p[:-1]) | (q[1:] != q[:-1])
        classes = np.empty_like(order)
        classes[order] = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        weights = dict(enumerate(zip(p[starts].tolist(), q[starts].tolist(), repeat(k))))
        counts = np.diff(starts, append=len(order))
        return basis.tolist(), classes.tolist(), weights, counts.tolist()


def packed_of(end: dict[int, Packed] | Arrays) -> dict[int, Packed]:
    """The packed dict of a state that `translate.run_gates` returned."""
    return _to_packed(*end) if isinstance(end, Arrays) else end


def suits(width: int, terms: int) -> bool:
    """Whether `run_gates` should hand the rest of its gates to `run`, once
    its width-wire state holds the given number of terms."""
    return width >= MIN_WIDTH and terms << FILL_SHIFT >= 1 << width


def run(width: int, packed: dict[int, Packed], ops: Iterator[GateApplication]) -> Arrays:
    """Apply the gates that ops yields to the width-wire packed dict, whose
    keys may come in any order, on arrays, and return the exact result as
    `Arrays`.

    The array is int64 while every coefficient stays below 2^MAX_BITS.
    Before a gate that could pass that bound it becomes an array of Python
    ints (`dtype=object`), once, and the run goes on there to the end.
    """
    c, k, bits = _from_packed(width, packed)
    steps: dict = {}  # by gate identity: a circuit repeats a few gates
    for op in ops:
        key = id(op.gate)
        if key not in steps:
            steps[key] = _step(op.gate)
        rows, growth, lift = steps[key]
        if bits + growth > MAX_BITS and c.dtype != object:
            bits = _bits(c)
            if bits + growth > MAX_BITS:
                c = c.astype(object)
        c = _apply(c, op, width, rows)
        k += lift
        bits += growth
        # A butterfly over sqrt2 often leaves a factor 2 in every
        # coefficient.  Dividing it out only keeps the bits low, so only a
        # gate that raised K is worth the test.
        while lift and k >= 2 and not (c & 1).any():
            c >>= 1
            k -= 2
            bits -= 1
    return Arrays(c, k)


def _bits(c: np.ndarray) -> int:
    """The bit length of the largest coefficient in absolute value."""
    return max(int(c.max()), -int(c.min())).bit_length()


def _from_packed(width: int, packed: dict[int, Packed]) -> tuple[np.ndarray, int, int]:
    """(array, K, bits) for the packed dict over its largest exponent K: on
    int64 when every coefficient stays below 2^MAX_BITS, else on Python
    ints."""
    values = list(packed.values())
    try:
        terms = np.array(values, dtype=np.int64)
    except OverflowError:
        terms = np.array(values, dtype=object)
    nums, ks = terms[:, :4].T, terms[:, 4].astype(np.int64)
    k = int(ks.max())
    lift = k - ks
    # num / sqrt2^k' = num * sqrt2^(K - k') / sqrt2^K, and sqrt2^d is
    # 2^(d // 2), times sqrt2 when d is odd: at most (d + 1) // 2 more bits.
    if _bits(nums) + (int(lift.max()) + 1) // 2 > MAX_BITS:
        nums = nums.astype(object)
    odd = (lift & 1).astype(bool)
    nums[:, odd] = _times_sqrt2(nums[:, odd])
    nums <<= lift >> 1
    c = np.zeros((4, 1 << width), dtype=nums.dtype)
    c[:, np.fromiter(packed, dtype=np.int64, count=len(packed))] = nums
    return c, k, _bits(c)


def _times_sqrt2(x: np.ndarray) -> np.ndarray:
    """The (4, ...) numerators times sqrt2, by the ring's own formula."""
    return np.stack(amplitude._times_sqrt2(*x))


def _step(gate: Gate) -> tuple[list, int, int]:
    """(rows, growth, lift) of the gate.

    rows[row] lists (col, j, d, scale) terms, each the column's slice lifted
    by sqrt2^d, times scale and rotated by w^j: an entry
    (a0 + a1 w + a2 w^2 + a3 w^3) / sqrt2^e gives one term per nonzero a_i,
    so an entry w^j / sqrt2^e gives one, of scale 1.  growth bounds the
    bits the step adds; lift is what K grows by.
    """
    terms = [
        [
            (col, i if a > 0 else i + 4, x[4], abs(a))
            for col, x in enumerate(entry.packed for entry in row)
            for i, a in enumerate(x[:4])
            if a
        ]
        for row in gate.matrix
    ]
    lift = max((e for row in terms for _, _, e, _ in row), default=0)
    rows = [[(col, j, lift - e, scale) for col, j, e, scale in row] for row in terms]
    # A slice lifted by sqrt2^d grows by a factor below 2^((d + 1) // 2), so
    # a row's sum grows by a factor below s = sum(scale 2^((d + 1) // 2)),
    # which (s - 1).bit_length() bits hold.
    growth = max(
        (
            (sum(scale << (d + 1) // 2 for _, _, d, scale in row) - 1).bit_length()
            for row in rows
            if row
        ),
        default=0,
    )
    return rows, growth, lift


def _apply(
    c: np.ndarray, op: GateApplication, width: int, rows: list
) -> np.ndarray:
    """The array after the gate: each row's slice is the sum of its terms'
    column slices, lifted, scaled and rotated."""
    # One axis per wire, wire 0 first (the most significant bit of a basis
    # index); a row or column of the gate fixes its wires' axes.  A state
    # that went dense had 2^(n - FILL_SHIFT) terms, so n stays far below
    # numpy's limit on axes.
    arity = len(op.wires)
    index = []
    for bits in range(1 << arity):
        at: list = [slice(None)] * (width + 1)
        for i, w in enumerate(op.wires):
            at[1 + w] = bits >> (arity - 1 - i) & 1
        index.append(tuple(at))
    view = c.reshape((4,) + (2,) * width)
    out = np.empty_like(view)
    for row, terms in enumerate(rows):
        acc = None
        for col, j, d, scale in terms:
            x = view[index[col]]
            if d & 1:
                x = _times_sqrt2(x)
            if d > 1:
                x = x << (d >> 1)
            if scale > 1:
                x = x * scale
            if j & 3:
                # w^j moves each coefficient j powers up; w^4 = -1 negates
                # what wraps around.
                x = np.concatenate((-x[4 - (j & 3):], x[: 4 - (j & 3)]))
            if acc is None:
                acc = -x if j & 4 else x
            else:
                acc = acc - x if j & 4 else acc + x
        out[index[row]] = 0 if acc is None else acc
    return out.reshape(4, -1)


def _to_packed(c: np.ndarray, k: int) -> dict[int, Packed]:
    """The packed dict of the array over sqrt2^k, in ascending order of
    basis index.

    Each nonzero column is divided by sqrt2 while its numerator allows it
    (a0 = a2 and a1 = a3 modulo 2, as in `amplitude._canonical`; then
    z / sqrt2 = z * sqrt2 / 2 is integral) and its exponent is positive.
    The columns still dividing share one exponent, so the loop runs at most
    k times over a shrinking set.
    """
    basis = np.flatnonzero(c.any(axis=0))
    nums = c[:, basis]
    ks = np.full(len(basis), k, dtype=np.int64)
    live = np.arange(len(basis))
    for _ in range(k):
        x = nums[:, live]
        divisible = ((x[0] ^ x[2]) | (x[1] ^ x[3])) & 1 == 0
        if not divisible.any():
            break
        live = live[divisible]
        x = x[:, divisible]
        nums[:, live] = _times_sqrt2(x) >> 1
        ks[live] -= 1
    return dict(zip(basis.tolist(), zip(*nums.tolist(), ks.tolist())))
