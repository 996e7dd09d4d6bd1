"""Positive bounded weight sequences with structured tails.

A weight sequence is a finite prefix followed by a structured tail:
constant, periodic, or two alternating values in blocks of doubling length.
The structure is what makes the asymptotic window quantities of the
associated shift operators available in closed form:

  r1 = lim_n sup_k (w_k ... w_{k+n-1})^{1/n}   (outer radius)
  r2 = lim_n inf_k (w_k ... w_{k+n-1})^{1/n}   (inner radius)
  r3 = liminf_n (w_1 ... w_n)^{1/n}            (leading-window radius)

Window products of a whole array, ``window_products``, multiply the
weights by doubling, in place: a window length that is a power of two
allocates nothing past the weights array, and a window of one weight is
that array.  ``window_product``, ``log_kappa_forward_power`` (the inf
over all starts) and ``log_window_sup`` (the sup over the starts of a
buffer) read log windows one way, from the tail's structure instead of a
buffer: ``_log_window`` sums a window's prefix weights one by one and
takes its tail part in closed form from the tail's ``run(j, m)``, which
sums whole periods or counts a's.
``values_array`` fills its array by slices, one per a-block of doubling
blocks or one broadcast of the period and its doubling copies, so n weights
take O(log n) numpy calls.  Values are immutable and every function is
pure, apart from the scratch buffer a caller may lend ``window_products``;
each sequence keeps its closed-form radii and its tail's ``run``, both
built on first request.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Union

import numpy as np

__all__ = [
    "ConstantTail",
    "PeriodicTail",
    "TwoValueDoublingBlocks",
    "WeightSequence",
    "SpectralProfile",
    "window_product",
    "window_products",
    "spectral_profile",
    "kappa_forward_power",
    "log_kappa_forward_power",
    "log_window_sup",
]


def _check_positive(values, what: str) -> None:
    for v in values:
        if not (float(v) > 0.0 and math.isfinite(float(v))):
            raise ValueError(f"{what} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class ConstantTail:
    """Tail w_n = value for every n past the prefix."""
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _check_positive([self.value], "tail value")

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class PeriodicTail:
    """Tail that repeats ``values`` past the prefix, with period len(values)."""
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("periodic tail needs at least one value")
        _check_positive(vals, "tail values")
        object.__setattr__(self, "values", vals)

    def to_dict(self) -> dict:
        return {"kind": "periodic", "values": list(self.values)}


@dataclass(frozen=True)
class TwoValueDoublingBlocks:
    """Alternating blocks of a's and b's with lengths 1, 2, 4, 8, ...

    The first block (length 1) holds ``a``.  Blocks of both values grow
    without bound, which makes the sup- and inf-window radii split:
    r1 = max(a, b) and r2 = min(a, b).
    """

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        _check_positive([self.a, self.b], "block values")

    def to_dict(self) -> dict:
        return {"kind": "blocks", "a": self.a, "b": self.b}


Tail = Union[ConstantTail, PeriodicTail, TwoValueDoublingBlocks]


def _tail_from_dict(d: dict) -> Tail:
    kind = d.get("kind")
    if kind == "constant":
        return ConstantTail(d["value"])
    if kind == "periodic":
        return PeriodicTail(tuple(d["values"]))
    if kind == "blocks":
        return TwoValueDoublingBlocks(d["a"], d["b"])
    raise ValueError(f"unknown tail kind {kind!r}")


@dataclass(frozen=True)
class WeightSequence:
    """Finite prefix plus structured tail; 1-based total index access."""

    prefix: tuple[float, ...]
    tail: Tail

    def __post_init__(self):
        pref = tuple(float(v) for v in self.prefix)
        _check_positive(pref, "prefix values")
        object.__setattr__(self, "prefix", pref)
        if not isinstance(self.tail, (ConstantTail, PeriodicTail, TwoValueDoublingBlocks)):
            raise TypeError(f"unsupported tail {self.tail!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float, prefix=()) -> "WeightSequence":
        return cls(tuple(prefix), ConstantTail(c))

    @classmethod
    def periodic(cls, values, prefix=()) -> "WeightSequence":
        return cls(tuple(prefix), PeriodicTail(tuple(values)))

    @classmethod
    def doubling_blocks(cls, a: float, b: float, prefix=()) -> "WeightSequence":
        return cls(tuple(prefix), TwoValueDoublingBlocks(a, b))

    # -- indexing ----------------------------------------------------------

    def value(self, k: int) -> float:
        """w_k for k >= 1; total and deterministic."""
        if k < 1:
            raise IndexError("weight index starts at 1")
        p = len(self.prefix)
        if k <= p:
            return self.prefix[k - 1]
        j = k - p  # 1-based position inside the tail
        t = self.tail
        if isinstance(t, ConstantTail):
            return t.value
        if isinstance(t, PeriodicTail):
            return t.values[(j - 1) % len(t.values)]
        block = j.bit_length() - 1  # block m spans positions 2^m .. 2^(m+1)-1
        return t.a if block % 2 == 0 else t.b

    def values_array(self, n: int) -> np.ndarray:
        """First n weights as a float array, filled by slices: b everywhere
        and a on its doubling blocks, or a broadcast of the period and
        doubling copies."""
        if n <= 0:
            return np.empty(0)
        p = len(self.prefix)
        out = np.empty(n)
        head = min(p, n)
        if head:  # an empty slice assignment costs as much as a short fill
            out[:head] = self.prefix[:head]
        tail = out[head:]
        t = self.tail
        if isinstance(t, ConstantTail):
            tail[:] = t.value
        elif isinstance(t, PeriodicTail):
            # one broadcast over a (periods, period) view fills up to about
            # 256 weights; past that, copies of the filled whole periods,
            # doubling, which beat a broadcast with a short inner axis
            period = len(t.values)
            done = min(len(tail) // period, max(1, 256 // period)) * period
            if done:
                tail[:done].reshape(-1, period)[:] = t.values
            else:  # less than one period
                tail[:] = t.values[: len(tail)]
            while 0 < done < len(tail):
                step = min(done, len(tail) - done)
                tail[done : done + step] = tail[:step]
                done += step
        else:
            tail[:] = t.b
            start = 1  # a-block 2k holds tail positions 4^k .. 2 4^k - 1
            while start <= len(tail):
                tail[start - 1 : 2 * start - 1] = t.a
                start *= 4
        return out

    @cached_property
    def _profile(self) -> "SpectralProfile":
        """The closed-form radii, computed on first request; the instance
        is frozen, so they never go stale."""
        return _closed_form_profile(self.tail)

    @cached_property
    def _run(self) -> partial:
        """The tail's ``run(j, m)`` (see ``_tail_run``), built on first
        request and kept like the radii."""
        return _tail_run(self.tail)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"prefix": list(self.prefix), "tail": self.tail.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSequence":
        return cls(tuple(d.get("prefix", ())), _tail_from_dict(d["tail"]))


def _doubling_levels(a: np.ndarray):
    """a, then the products of its windows of length 2, 4, 8, ..., each
    level built on demand from two shifted copies of the one before and
    written over the front of it, so every level is a view of a's buffer and
    no other array is allocated (the output trails the input it reads, which
    numpy runs without a copy); a caller holds on to a level only until the
    next one is built."""
    length = 1
    while True:
        yield a
        a = np.multiply(a[:-length], a[length:], out=a[:-length])
        length *= 2


def window_products(w: WeightSequence, n: int, count: int, scratch=None) -> np.ndarray:
    """w_k ... w_{k+n-1} for k = 1..count as direct float products, returned
    in the array of the weights themselves; exact for power-of-two weights,
    overflowing only where a window's product leaves float range.

    The set bits of n pick the doubling levels that make up each window,
    and no level past the longest of them is built; every intermediate is
    the product of a sub-window.  A window of one weight is the weights
    array; any other power-of-two n is answered by its level, built in
    place there; any other n builds the levels in ``scratch`` (a float
    buffer of at least count + n - 1 values, else a fresh array) and
    multiplies the ones it selects into the weights' array, starting from a
    copy of the lowest one."""
    if n < 0:
        raise ValueError("window length must be >= 0")
    if n == 0:
        return np.ones(count)
    a = w.values_array(count + n - 1)
    if n == 1:
        return a
    if n & (n - 1):
        levels = np.empty_like(a) if scratch is None else scratch[: len(a)]
        levels[:] = a
    else:
        levels = a
    out, done, length = a[:count], 0, 1
    for level in _doubling_levels(levels):
        if n & length:
            window = level[done : done + count]
            if n == length:  # the only set bit: done is 0
                return window
            if done:
                np.multiply(out, window, out=out)
            else:  # the lowest set bit
                out[:] = window
            done += length
        if 2 * length > n:
            return out
        length *= 2


def _a_positions(x: int) -> int:
    """How many of the tail positions 1..x lie in a-blocks of doubling
    blocks: block m holds positions 2^m .. 2^(m+1) - 1, a for even m."""
    if x < 1:
        return 0
    top = x.bit_length() - 1  # the block that holds x
    below = (4 ** ((top + 1) // 2) - 1) // 3  # a-blocks 0, 2, ... before it
    return below + (x - (1 << top) + 1 if top % 2 == 0 else 0)


def _constant_run(log_c: float, j: int, m: int) -> float:
    return m * log_c


def _periodic_run(cycle: list, period: int, total: float, j: int, m: int) -> float:
    full, rest = divmod(m, period)
    phase = (j - 1) % period
    return full * total + sum(cycle[phase : phase + rest])


def _blocks_run(log_a: float, log_b: float, j: int, m: int) -> float:
    na = _a_positions(j + m - 1) - _a_positions(j - 1)
    return na * log_a + (m - na) * log_b


def _tail_run(t: Tail) -> partial:
    """run(j, m): the log product of tail positions j .. j+m-1, summed from
    whole periods or from the count of a's, so its rounding does not grow
    with j or m; a partial of a module function, so a sequence that keeps
    it still pickles."""
    if isinstance(t, ConstantTail):
        return partial(_constant_run, math.log(t.value))
    if isinstance(t, PeriodicTail):
        logs = [math.log(v) for v in t.values]
        return partial(_periodic_run, logs + logs, len(logs), sum(logs))
    return partial(_blocks_run, math.log(t.a), math.log(t.b))


def _log_window(w: WeightSequence, k: int, n: int) -> float:
    """log(w_k ... w_{k+n-1}): the window's prefix weights summed one by
    one, its tail part in closed form."""
    p = len(w.prefix)
    if k > p:
        return w._run(k - p, n)
    inside = w.prefix[k - 1 : k - 1 + n]
    return sum(math.log(v) for v in inside) + w._run(1, n - len(inside))


def window_product(w: WeightSequence, k: int, n: int) -> float:
    """w_k ... w_{k+n-1} for k, n >= 1, taken in log space."""
    if k < 1 or n < 1:
        raise ValueError("window indices must be >= 1")
    return math.exp(_log_window(w, k, n))


def _period(t: Tail) -> int:
    """The number of distinct window phases of a constant or periodic tail."""
    return len(t.values) if isinstance(t, PeriodicTail) else 1


def log_kappa_forward_power(w: WeightSequence, n: int) -> float:
    """log inf_k (w_k ... w_{k+n-1}); exact for every structured tail.

    Any window either overlaps the prefix (start k <= len(prefix)) or lies
    entirely in the tail, where the infimum has a closed form: the constant
    value, the minimum over the period phases, or min(a, b)^n for doubling
    blocks (blocks of the minimal value eventually exceed any window length,
    and mixed windows can only be larger).
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    t = w.tail
    if isinstance(t, TwoValueDoublingBlocks):
        best = n * math.log(min(t.a, t.b))
    else:
        best = min(w._run(j, n) for j in range(1, _period(t) + 1))
    return min([best, *(_log_window(w, k, n) for k in range(1, len(w.prefix) + 1))])


def kappa_forward_power(w: WeightSequence, n: int) -> float:
    """inf_k of the length-n window product (may overflow to inf for huge n)."""
    return math.exp(log_kappa_forward_power(w, n))


def log_window_sup(w: WeightSequence, n: int, count: int) -> float:
    """max log(w_k ... w_{k+n-1}) over k = 1..count in closed form, the sup
    counterpart of ``log_kappa_forward_power`` over a buffer of count + n - 1
    weights.

    Windows that start in the prefix are summed one by one.  The tail
    windows are all equal (constant), one per phase (periodic), or linear
    in the start between starts where a window edge meets a block edge
    (doubling blocks): the first start of the most weights of the larger
    value is 1, the last start, the start of such a block or that of a
    window that ends one, O(log count) starts.
    """
    if n < 1 or count < 1:
        raise ValueError("window length and count must be >= 1")
    p, t, run = len(w.prefix), w.tail, w._run
    best = -math.inf
    for k in range(1, min(p, count) + 1):
        best = max(best, _log_window(w, k, n))
    last = count - p  # the last window start in the tail, as a tail position
    if last < 1:
        return best
    if not isinstance(t, TwoValueDoublingBlocks):
        starts = range(1, min(_period(t), last) + 1)
    else:
        first = int(math.log(t.a) < math.log(t.b))
        hi_starts = [1 << m for m in range(first, (last + n).bit_length(), 2)]
        # a whole window fits in the last hi-block the buffer reaches or in
        # the one before it, if in any
        end = last + n - 1  # the buffer's last tail position
        if hi_starts and min(hi_starts[-1], end - hi_starts[-1] + 1) >= n:
            starts = hi_starts[-1:]
        elif len(hi_starts) > 1 and hi_starts[-2] >= n:
            starts = hi_starts[-2:-1]
        else:
            starts = {1, last} | {e for e in hi_starts if e <= last}
            starts |= {2 * e - n for e in hi_starts if 1 <= 2 * e - n <= last}
    for j in starts:
        best = max(best, run(j, n))
    return best


@dataclass(frozen=True)
class SpectralProfile:
    """The closed-form radii (r1, r2, r3) of a weight sequence."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        slack = 1e-9 * max(1.0, self.r1)
        if not (-slack <= self.r3 - self.r2 and -slack <= self.r1 - self.r3):
            raise ValueError(
                f"radius ordering violated: r2={self.r2} r3={self.r3} r1={self.r1}"
            )

    def to_dict(self) -> dict:
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3, "exactness": "EXACT"}


def spectral_profile(w: WeightSequence) -> SpectralProfile:
    """Closed-form radii, computed once per sequence and kept on it."""
    return w._profile


def _closed_form_profile(t: Tail) -> SpectralProfile:
    """The radii of any sequence with tail t.

    A finite prefix contributes O(1) to every cumulative log sum, so it
    vanishes in all three n-th-root limits; only the tail matters.  For
    doubling blocks the leading-window radius comes from the running log
    mean at ends of minimal-value blocks, where the value split is exactly
    one third max-blocks, two thirds min-blocks.
    """
    if isinstance(t, ConstantTail):
        c = t.value
        return SpectralProfile(c, c, c)
    if isinstance(t, PeriodicTail):
        g = math.exp(sum(math.log(v) for v in t.values) / len(t.values))
        return SpectralProfile(g, g, g)
    hi, lo = max(t.a, t.b), min(t.a, t.b)
    r3 = math.exp(math.log(hi) / 3.0 + 2.0 * math.log(lo) / 3.0)
    return SpectralProfile(hi, lo, r3)
