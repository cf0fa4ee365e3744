"""Dense exact engine for `translate.run_gates` on wide, nearly full registers.

The dict engine (`gates.apply_packed` and `gates.apply_run` on packed dicts)
pays one Python dict operation per term per gate.  Once a register of at
least `MIN_WIDTH` wires has at least 2^n / 2^`FILL_SHIFT` nonzero
amplitudes, `run_gates` hands its packed dict and the remaining gates to
`run`, which keeps the same exact values in arrays:

- The state is an int64 array of shape (4, 2^n): column b holds the Z[w]
  numerator (a0, a1, a2, a3) of basis index b, and every column stands over
  one common sqrt2^K.  The array holds at most 2^`FILL_SHIFT` times as many
  columns as the dict held terms when it switched.
- A gate's step is read off its `Gate.kernel`.  With E the largest e among
  its entries w^j / sqrt2^e, each output row is the sum over its entries of
  the input column's slice, lifted by sqrt2^(E - e) and rotated by w^j, and
  K grows by E: a Hadamard is a butterfly, T, S and Z rotate the slice
  where their wire is 1, and X and CNOT move slices.  A gate with an entry
  of no such form is left to the dict engine.
- Exactness: every coefficient stays below 2^`MAX_BITS` in absolute value,
  so no sum or difference of two leaves int64.  A bound on the coefficient
  bits grows with each gate's worst case (a Hadamard adds one) and is
  measured again from the array before it would pass the limit.  When a
  gate has raised K and left every coefficient even, the factor 2 is
  divided out and K falls by 2.  A gate
  that would pass the limit hands the state back to the dict engine, which
  applies it with `gates.apply_packed` and finishes the circuit.
- A run that ends on the arrays returns them as `Arrays`.  The boundary
  back to packed tuples (`packed_of`) is vectorized: one masked loop divides
  every term's numerator by sqrt2 while it can, which brings each to the
  Giles & Selinger normal form of `amplitude` (arXiv:1212.0506), then one
  `tolist` builds the packed dict, in ascending order of basis index.  Its
  terms equal the dict engine's.
- A caller that wants only the Born weights (`translate.final_distribution`)
  skips that boundary when every coefficient is below 2^`BORN_BITS`:
  `Arrays.born` computes each column's |amplitude|^2 over 2^K in int64,
  p = a0^2 + a1^2 + a2^2 + a3^2 and q = a0*a1 + a1*a2 + a2*a3 - a3*a0 as in
  `amplitude._mod_sq`, and groups equal (p, q) pairs with one `lexsort`.
  `calculus` checks the weights and reduces each distinct one.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from . import amplitude
from .amplitude import Packed
from .gates import Gate, GateApplication, apply_packed

# Chosen by timing 20 random H/T/S/CNOT gates on both engines (Python 3.11,
# numpy 2.4, a 2-CPU Intel Xeon host): from 8 wires on, with a quarter of
# the register filled, the dense engine took 0.08-0.72x the dict engine's
# time (8 wires 0.72x, 10 wires 0.27x, 12 wires 0.08x); at 7 wires it won
# only on a full register.
MIN_WIDTH = 8
FILL_SHIFT = 2
# A sum or difference of two coefficients below 2^62 fits int64.  The gates'
# row sums grow no coefficient past the bound, but `_to_packed`'s division by
# sqrt2 adds two of them once more, so a bound of 63 could wrap there.
MAX_BITS = 62
# Below 2^30, a coefficient's square and a sum of four products of two stay
# below 2^62, so `Arrays.born` computes every |amplitude|^2 in int64.
BORN_BITS = 30


class Arrays(NamedTuple):
    """The state of a run that ended on the arrays: column b of c holds the
    numerator of basis index b, over sqrt2^k."""

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
    """The packed dict of a state that `run` returned."""
    return _to_packed(*end) if isinstance(end, Arrays) else end


def suits(width: int, terms: int) -> bool:
    """Whether `run_gates` should hand the rest of its gates to `run`, once
    its width-wire state holds the given number of terms."""
    return width >= MIN_WIDTH and terms << FILL_SHIFT >= 1 << width


def run(
    width: int, packed: dict[int, Packed], ops: Iterator[GateApplication]
) -> dict[int, Packed] | Arrays:
    """Apply the gates that ops yields to the width-wire packed dict, whose
    keys may come in any order, on arrays, and return the exact result: its
    `Arrays` when every gate ran on them, else a packed dict.

    If the state does not fit the arrays, nothing is taken from ops and
    packed itself is returned.  If a gate does not (a coefficient could
    reach 2^MAX_BITS, or an entry has no w^j / sqrt2^e form), the state goes
    back to packed form and `gates.apply_packed` applies that gate: a
    permutation adds no bits and has only unit entries, so it is never the
    one.  Either way, the gates still in ops are the caller's to apply on
    the dict engine.
    """
    start = _from_packed(width, packed)
    if start is None:
        return packed
    c, k, bits = start
    steps: dict = {}  # by gate identity: a circuit repeats a few gates
    for op in ops:
        key = id(op.gate)
        if key not in steps:
            steps[key] = _step(op.gate)
        step = steps[key]
        if step is not None and bits + step[1] > MAX_BITS:
            bits = _bits(c)
        if step is None or bits + step[1] > MAX_BITS:
            return apply_packed(op, width, _to_packed(c, k))
        rows, growth, lift = step
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


def _from_packed(
    width: int, packed: dict[int, Packed]
) -> tuple[np.ndarray, int, int] | None:
    """(array, K, bits) for the packed dict over its largest exponent K, or
    None when a coefficient would not stay below 2^MAX_BITS."""
    try:
        terms = np.array(list(packed.values()), dtype=np.int64)
    except OverflowError:
        return None
    nums, ks = terms[:, :4].T, terms[:, 4]
    k = int(ks.max())
    lift = k - ks
    # num / sqrt2^k' = num * sqrt2^(K - k') / sqrt2^K, and sqrt2^d is
    # 2^(d // 2), times sqrt2 when d is odd: at most (d + 1) // 2 more bits.
    if _bits(nums) + (int(lift.max()) + 1) // 2 > MAX_BITS:
        return None
    odd = (lift & 1).astype(bool)
    nums[:, odd] = _times_sqrt2(nums[:, odd])
    nums <<= lift >> 1
    c = np.zeros((4, 1 << width), dtype=np.int64)
    c[:, np.fromiter(packed, dtype=np.int64, count=len(packed))] = nums
    return c, k, _bits(c)


def _times_sqrt2(x: np.ndarray) -> np.ndarray:
    """The (4, ...) numerators times sqrt2, by the ring's own formula."""
    return np.stack(amplitude._times_sqrt2(*x))


def _step(gate: Gate) -> tuple[list, int, int] | None:
    """(rows, growth, lift) of the gate, or None when an entry has no
    w^j / sqrt2^e form.

    rows[row] lists (col, j, d) for the row's entries, each to be lifted by
    sqrt2^d; growth bounds the bits the step adds; lift is what K grows by.
    """
    kernel = gate.kernel
    if any(entry is not None for column in kernel for *_, entry in column):
        return None
    lift = max((e for column in kernel for _, _, e, _ in column), default=0)
    rows: list[list[tuple[int, int, int]]] = [[] for _ in kernel]
    for col, column in enumerate(kernel):
        for row, j, e, _ in column:
            rows[row].append((col, j, lift - e))
    # A lift by sqrt2^d adds (d + 1) // 2 bits and a sum of m terms
    # (m - 1).bit_length().
    growth = max(
        (
            max((d + 1) // 2 for *_, d in terms) + (len(terms) - 1).bit_length()
            for terms in rows
            if terms
        ),
        default=0,
    )
    return rows, growth, lift


def _apply(
    c: np.ndarray, op: GateApplication, width: int, rows: list
) -> np.ndarray:
    """The array after the gate: each row's slice is the sum of its entries'
    column slices, lifted and rotated."""
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
        for col, j, d in terms:
            x = view[index[col]]
            if d & 1:
                x = _times_sqrt2(x)
            if d > 1:
                x = x << (d >> 1)
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
