"""Positive bounded weight sequences with structured tails.

A weight sequence is a finite prefix followed by a structured tail:
constant, periodic, or two alternating values in blocks of doubling length.
The structure is what makes the asymptotic window quantities of the
associated shift operators available in closed form:

  r1 = lim_n sup_k (w_k ... w_{k+n-1})^{1/n}   (outer radius)
  r2 = lim_n inf_k (w_k ... w_{k+n-1})^{1/n}   (inner radius)
  r3 = liminf_n (w_1 ... w_n)^{1/n}            (leading-window radius)

Window products come from one doubling reduction, ``_windows``, over the
levels that ``_doubling_levels`` builds:
``window_products`` multiplies the weights (exact for power-of-two weights,
overflowing only where a window's product leaves float range) and
``log_window_products`` adds their logs, for kappa's windows of thousands
of weights.  ``window_products`` builds the levels in place, so a window
length that is a power of two allocates nothing past the weights array,
and a window of one weight is the weights array itself.  The extreme log
window sums, ``log_kappa_forward_power`` (inf) and ``log_window_sup``
(sup), read the tail's structure instead of a whole buffer.
``values_array`` fills its array by slices, one per a-block of doubling
blocks or one broadcast of the period and its doubling copies, so n weights
take O(log n) numpy calls.  Values
are immutable and every function is pure, apart from the scratch buffer a
caller may lend ``window_products``; the one thing kept is each sequence's
closed-form radii, computed on first request.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    "log_window_products",
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

    def upper_bound(self) -> float:
        t = self.tail
        if isinstance(t, ConstantTail):
            tail_max = t.value
        elif isinstance(t, PeriodicTail):
            tail_max = max(t.values)
        else:
            tail_max = max(t.a, t.b)
        return max((*self.prefix, tail_max))

    @cached_property
    def _profile(self) -> "SpectralProfile":
        """The closed-form radii, computed on first request; the instance
        is frozen, so they never go stale."""
        return _closed_form_profile(self.tail)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"prefix": list(self.prefix), "tail": self.tail.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSequence":
        return cls(tuple(d.get("prefix", ())), _tail_from_dict(d["tail"]))


def _doubling_levels(a: np.ndarray, op: np.ufunc, in_place: bool = False):
    """a, then the op-reductions of its windows of length 2, 4, 8, ...,
    each level built on demand from two shifted copies of the one before.
    With ``in_place`` each level overwrites the front of the one before, so
    every level is a view of a's buffer and no other array is allocated
    (the output trails the input it reads, which numpy runs without a
    copy); a caller holds on to a level only until the next one is built."""
    length = 1
    while True:
        yield a
        a = op(a[:-length], a[length:], out=a[:-length] if in_place else None)
        length *= 2


def _windows(a: np.ndarray, n: int, count: int, op: np.ufunc, levels=None, out=None) -> np.ndarray:
    """op-reductions of the windows a[k : k + n], k = 0..count-1, by doubling:
    the set bits of n pick the levels of ``_doubling_levels(a, op)`` that
    make up each window, and no level past the longest of them is built.
    ``levels``, if given, is an iterable of those same levels, for a caller
    that keeps them across window lengths or builds them in place.  Every
    intermediate reduces a sub-window, so with np.multiply nothing
    overflows unless a window of at most n values does.

    A window length with one set bit is answered by its level itself; that
    level is copied only when it is ``a`` and no ``levels`` were given, so
    without ``levels`` the result never shares memory with ``a``.  Other
    lengths start from a copy of the lowest selected level, made into
    ``out`` (count values) if given, else into a fresh array."""
    if n < 0:
        raise ValueError("window length must be >= 0")
    if n == 0:
        return np.full(count, float(op.identity))
    done, length = 0, 1
    for level in _doubling_levels(a, op) if levels is None else levels:
        if n & length:
            window = level[done : done + count]
            if n == length:  # the only set bit: done is 0
                return window if levels is not None or level is not a else window.copy()
            if done:
                op(out, window, out=out)
            elif out is None:  # the lowest set bit
                out = window.copy()
            else:
                out[:] = window
            done += length
        if 2 * length > n:
            return out
        length *= 2


def window_products(w: WeightSequence, n: int, count: int, scratch=None) -> np.ndarray:
    """w_k ... w_{k+n-1} for k = 1..count as direct float products, returned
    in the array of the weights themselves.  A window of one weight is that
    array; any other power-of-two n builds its doubling levels in place
    there; any other n builds them in ``scratch`` (a float buffer of at
    least count + n - 1 values, else a fresh array) and multiplies the ones
    it selects into the weights' array."""
    a = w.values_array(count + n - 1)
    if n == 1:
        return a
    if n & (n - 1) == 0:
        return _windows(a, n, count, np.multiply, _doubling_levels(a, np.multiply, in_place=True))
    levels = np.empty_like(a) if scratch is None else scratch[: len(a)]
    levels[:] = a
    return _windows(levels, n, count, np.multiply, _doubling_levels(levels, np.multiply, in_place=True),
                    a[:count])


def log_window_products(w: WeightSequence, n: int, count: int) -> np.ndarray:
    """log(w_k ... w_{k+n-1}) for k = 1..count; finite for any n."""
    return _windows(np.log(w.values_array(count + n - 1)), n, count, np.add)


def window_product(w: WeightSequence, k: int, n: int) -> float:
    """w_k ... w_{k+n-1} for k, n >= 1, taken in log space."""
    if k < 1 or n < 1:
        raise ValueError("window indices must be >= 1")
    logs = np.log(w.values_array(k + n - 1)[k - 1 :])
    return math.exp(float(_windows(logs, n, 1, np.add)[0]))


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
    p = len(w.prefix)
    t = w.tail
    if isinstance(t, ConstantTail):
        scan_to = p + 1
        tail_inf = n * math.log(t.value)
    elif isinstance(t, PeriodicTail):
        scan_to = p + len(t.values)
        tail_inf = math.inf  # phases covered by the scan
    else:
        scan_to = p
        tail_inf = n * math.log(min(t.a, t.b))
    best = tail_inf
    if scan_to >= 1:
        best = min(best, float(log_window_products(w, n, scan_to).min()))
    return best


def kappa_forward_power(w: WeightSequence, n: int) -> float:
    """inf_k of the length-n window product (may overflow to inf for huge n)."""
    return math.exp(log_kappa_forward_power(w, n))


def _a_positions(x: int) -> int:
    """How many of the tail positions 1..x lie in a-blocks of doubling
    blocks: block m holds positions 2^m .. 2^(m+1) - 1, a for even m."""
    if x < 1:
        return 0
    top = x.bit_length() - 1  # the block that holds x
    below = (4 ** ((top + 1) // 2) - 1) // 3  # a-blocks 0, 2, ... before it
    return below + (x - (1 << top) + 1 if top % 2 == 0 else 0)


def log_window_sup(w: WeightSequence, n: int, count: int) -> float:
    """max log(w_k ... w_{k+n-1}) over k = 1..count in closed form, the sup
    counterpart of ``log_kappa_forward_power`` over a buffer of count + n - 1
    weights; ``log_window_products(w, n, count).max()`` up to the order of
    summation.

    Windows that start in the prefix are summed one by one.  In the tail,
    ``run(j, m)`` sums the logs of positions j .. j+m-1 from whole periods
    or from the count of a's, so its rounding does not grow with j or m.
    The tail windows are all equal (constant), one per phase (periodic), or
    linear in the start between starts where a window edge meets a block
    edge (doubling blocks): the first start of the most weights of the
    larger value is 1, the last start, the start of such a block or that of
    a window that ends one, O(log count) starts.
    """
    if n < 1 or count < 1:
        raise ValueError("window length and count must be >= 1")
    p, t = len(w.prefix), w.tail
    last = count - p  # the last window start in the tail, as a tail position
    if isinstance(t, ConstantTail):
        log_c = math.log(t.value)
        run = lambda j, m: m * log_c  # noqa: E731
        starts = [1]
    elif isinstance(t, PeriodicTail):
        logs = [math.log(v) for v in t.values]
        period, total = len(logs), sum(logs)
        cycle = logs + logs

        def run(j, m):
            full, rest = divmod(m, period)
            phase = (j - 1) % period
            return full * total + sum(cycle[phase : phase + rest])

        starts = range(1, min(period, last) + 1)
    else:
        log_a, log_b = math.log(t.a), math.log(t.b)

        def run(j, m):
            na = _a_positions(j + m - 1) - _a_positions(j - 1)
            return na * log_a + (m - na) * log_b

        hi_starts = [1 << m for m in range(int(log_a < log_b), (last + n).bit_length(), 2)]
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
    best = -math.inf
    for k in range(1, min(p, count) + 1):
        inside = w.prefix[k - 1 : k - 1 + n]  # the window's weights in the prefix
        best = max(best, sum(math.log(v) for v in inside) + run(1, n - len(inside)))
    if last >= 1:
        best = max(best, max(run(j, n) for j in starts))
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
