"""Constructive dynamics on truncated vectors.

The ambient space (bounded sequences) has no faithful finite model, so
every vector here is a finite buffer plus an ``exact_prefix`` marker: the
coordinates up to the marker are exact values of the intended infinite
vector, everything past it is truncation-affected.  Operations shrink or
grow the marker according to which coordinates they consume, and all
claims in reports and tests are made on exact prefixes only.

Provided here: the shift-power action and its polynomial images, exact
preimage solvers (one function per factor kind on one affine scan, run
forward for inner factors and backward for outer ones; ``solve_poly``
routes each root to one of them, a zero root to ``preimage_power``), the
mixing-witness construction with its norm-decay certificate, explicit
eigenvectors with null-sequence decay, eigenvector span approximation, and
extended-limit-set membership experiments.
"""
from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .budget import Budget, Report
from .holo import Polynomial
from .jclass import JCLASS, Verdict, decide_geometric
from .spectra import OperatorSpec, UnsupportedMapError
from .weights import WeightSequence, log_window_sup, spectral_profile, window_products

__all__ = [
    "TruncatedVector",
    "MixingWitness",
    "WitnessStage",
    "SpanFit",
    "JSetReport",
    "RootInAnnulusError",
    "apply_operator",
    "shift_power",
    "preimage_power",
    "solve_factor_inner",
    "solve_factor_outer",
    "solve_poly",
    "mixing_witness",
    "eigenvector",
    "span_approximate",
    "jset_experiment",
    "orbit_envelope",
]


# stages over which mixing_witness fits its instance constant
_CALIBRATION_STAGES = 4
# prefix distance at which jset_experiment counts a target as reached
_MEMBERSHIP_ERROR = 1e-6
# log of the largest float, past which exp overflows
_LOG_MAX = math.log(float(np.finfo(float).max))


class RootInAnnulusError(ValueError):
    """A map root falls inside the annulus, so factor routing is impossible."""


@dataclass(frozen=True, eq=False)
class TruncatedVector(Report):
    """Finite buffer with an exact-prefix marker (coordinates are 1-based).

    ``coords[k]`` for k < exact_prefix equals the intended infinite
    vector's coordinate k+1 exactly; later buffer entries are polluted by
    the truncation and only used as scratch.
    """

    coords: np.ndarray
    exact_prefix: int

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=complex)
        object.__setattr__(self, "coords", arr)
        if arr.ndim != 1:
            raise ValueError("coordinates must be one-dimensional")
        if not (0 <= self.exact_prefix <= len(arr)):
            raise ValueError("exact prefix out of range")

    @property
    def size(self) -> int:
        return len(self.coords)

    def sup_norm(self) -> float:
        """Sup over the exact prefix (the only honestly known part)."""
        return float(np.abs(self.coords[: self.exact_prefix]).max(initial=0.0))

    def sup_norm_full(self, scratch: np.ndarray | None = None) -> float:
        """Sup over the whole buffer (NaN if a coordinate is NaN), its moduli
        written to the float buffer ``scratch`` if one is lent."""
        if scratch is not None:
            scratch = scratch[: self.size]
        return float(np.abs(self.coords, out=scratch).max(initial=0.0))

    def prefix_distance(self, other: "TruncatedVector") -> float:
        n = min(self.exact_prefix, other.exact_prefix)
        return float(np.abs(self.coords[:n] - other.coords[:n]).max(initial=0.0))

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "TruncatedVector":
        return cls(np.zeros(n, dtype=complex), n)

    @classmethod
    def ones(cls, n: int) -> "TruncatedVector":
        return cls(np.ones(n, dtype=complex), n)

    @classmethod
    def basis(cls, n: int, k: int) -> "TruncatedVector":
        if not 1 <= k <= n:
            raise ValueError("basis index out of range")
        c = np.zeros(n, dtype=complex)
        c[k - 1] = 1.0
        return cls(c, n)

    @classmethod
    def from_list(cls, values, exact_prefix: int | None = None) -> "TruncatedVector":
        arr = np.asarray(list(values), dtype=complex)
        return cls(arr, len(arr) if exact_prefix is None else exact_prefix)

    @classmethod
    def from_dict(cls, d: dict) -> "TruncatedVector":
        coords = np.array([complex(re, im) for re, im in d["coords"]])
        return cls(coords, int(d.get("exactPrefix", len(coords))))


def shift_power(w: WeightSequence, x: TruncatedVector, n: int) -> TruncatedVector:
    """n-fold weighted backward shift: coordinate k becomes
    (w_k ... w_{k+n-1}) x_{k+n}."""
    if n < 0:
        raise ValueError("shift power must be nonnegative")
    if n == 0:
        return x
    size = x.size
    out = np.empty(size, dtype=complex)
    prods = window_products(w, n, size - n, out.view(float))  # out is scratch until here
    out[size - n :] = 0.0
    np.multiply(prods, x.coords[n:], out=out[: size - n])
    return TruncatedVector(out, max(0, min(x.exact_prefix, size) - n))


def apply_operator(op: OperatorSpec, x: TruncatedVector, n: int = 1) -> TruncatedVector:
    """Apply the polynomial image of the shift n times.

    Each application consumes deg(f) exact coordinates.  An empty surviving
    prefix is allowed but flagged with a warning, since nothing exact can
    be asserted about the result.
    """
    if not isinstance(op.map, Polynomial):
        raise UnsupportedMapError("vector application needs a polynomial map")
    f, size = op.map, x.size
    term = np.empty(size, dtype=complex)  # scratch for every term
    # each power's window products, once per call (the size never changes)
    terms = [(a, j, window_products(op.weights, j, size - j, term.view(float)) if j else None)
             for j, a in enumerate(f.coeffs) if a != 0] if n else []
    out = x
    for _ in range(n):
        acc = np.zeros(size, dtype=complex)
        for a, j, prods in terms:
            if j:  # a times the j-fold shift, its last j coordinates zero
                np.multiply(prods, out.coords[j:], out=term[: size - j])
                term[size - j :] = 0.0
                np.multiply(a, term, out=term)
            else:
                np.multiply(a, out.coords, out=term)
            acc += term
        out = TruncatedVector(acc, max(0, out.exact_prefix - f.degree))
    if out.exact_prefix == 0 and x.exact_prefix > 0:
        warnings.warn("operator application exhausted the exact prefix", stacklevel=2)
    return out


def preimage_power(w: WeightSequence, z: TruncatedVector, n0: int) -> TruncatedVector:
    """The canonical preimage under the n0-fold shift: pad n0 zeros, divide
    by window products.  Applying the shift n0 times reproduces z exactly on
    its prefix, and the sup norm is at most ||z|| / inf_k(window product)."""
    if n0 < 1:
        raise ValueError("power must be >= 1")
    size = z.size
    out = np.empty(size, dtype=complex)
    prods = window_products(w, n0, size - n0, out.view(float))  # out is scratch until here
    out[:n0] = 0.0
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite coordinate
        np.divide(z.coords[: size - n0], prods, out=out[n0:])
    return TruncatedVector(out, min(size, z.exact_prefix + n0))


_SCAN_BLOCK = 64  # longest chunk of the affine scan


def _scan_chunk(steps: int) -> int:
    """Chunk length of the affine scan over `steps` steps: about sqrt(steps) / 4
    (4 at 255 steps, 16 at 4095, 64 at 65535), at most _SCAN_BLOCK."""
    return min(_SCAN_BLOCK, max(1, (math.isqrt(steps) + 2) // 4))


def _affine_scan(a: np.ndarray, x: np.ndarray) -> None:
    """x_{k+1} = a_k x_k + b_k for k = 1..len(a), in place: on entry x[0] is
    x_1 and x[k] is b_k, on return x[k] is x_{k+1}.

    The steps are cut into chunks of L = _scan_chunk(len(a)) consecutive
    steps, the rows of (C, L) views of a and x, so one numpy step on a
    column advances every chunk at once; fewer than L steps are left over
    at the end.  Pass 1 composes each chunk: the product of its a's and
    the image of 0.  A loop over chunk ends carries x into the next chunk
    and runs the leftover steps; a zero carry skips its chunk's product of
    a's, which may overflow where x does not (inf * 0 would be NaN).  Pass 2
    reruns the recurrence inside every chunk from its carry.  O(len(a))
    work, and no product spans more than _SCAN_BLOCK steps."""
    m = len(a)
    L = _scan_chunk(m)
    full = m - m % L
    A = a[:full].reshape(-1, L)
    X = x[1 : full + 1].reshape(-1, L)  # a 1-D slice reshapes to a view
    with np.errstate(over="ignore", invalid="ignore"):
        prod, img = A[:, 0].copy(), X[:, 0].copy()
        for j in range(1, L):
            img *= A[:, j]
            img += X[:, j]
            prod *= A[:, j]
        c = complex(x[0]) if len(x) else 0j  # an empty x has no steps
        carry = [c]
        for ak, bk in zip(prod.tolist() + a[full:].tolist(), img.tolist() + x[full + 1 :].tolist()):
            c = ak * c + bk if c else bk
            carry.append(c)
        x[full + 1 :] = carry[len(prod) + 1 :]
        X[:, 0] += A[:, 0] * np.array(carry[: len(prod)], dtype=complex)
        for j in range(1, L):
            X[:, j] += A[:, j] * X[:, j - 1]


def solve_factor_inner(w: WeightSequence, zeta: complex, y: TruncatedVector) -> TruncatedVector:
    """Solve (shift - zeta) x = y: the affine recurrence x_1 = 0,
    x_{k+1} = (zeta / w_k) x_k + y_k / w_k, taken by the chunked affine scan
    (sequential inside chunks of at most _SCAN_BLOCK steps, one carry per
    chunk, O(n) work) on the weights w_1 .. w_{n-1}.

    Needs |zeta| below the inner radius r2: x is the series
    sum_{l>=1} zeta^{l-1} F^l y of the right inverse F, (Fy)_{k+1} = y_k / w_k,
    with ||F^l|| = 1 / kappa(l) and kappa(l)^{1/l} -> r2, so ||x|| is at most
    ||y|| sum_l |zeta|^{l-1} / kappa(l) < inf and no guard is needed; only a
    transient past the float range spoils x, as non-finite coordinates."""
    r2 = spectral_profile(w).r2
    if abs(zeta) >= r2:
        raise ValueError(f"|zeta| = {abs(zeta)} must stay below the inner radius {r2}")
    ws = w.values_array(y.size - 1)
    x = np.empty(y.size, dtype=complex)
    x[:1] = 0.0
    with np.errstate(over="ignore"):  # as in the scan, an overflow is a non-finite x
        np.divide(y.coords[:-1], ws, out=x[1:])
        a = np.divide(zeta, ws)
    _affine_scan(a, x)
    return TruncatedVector(x, min(y.size, y.exact_prefix + 1))


def _series_cut(w: WeightSequence, n: int, az: float, y_norm: float, tol: float) -> int:
    """Least L with y_norm * max_k w_k ... w_{k+L-1} / az^L <= tol over the
    windows inside a buffer of n - 1 weights (none once L reaches n): an
    a-priori bound on the resolvent series' stop quantity ||B^L y|| / |zeta|^L,
    in log space, by an exponential search and a bisection.  Every probe
    reads the closed-form sup ``log_window_sup``, so it costs
    O(p + period + log n) whatever the buffer's length."""
    if y_norm == 0:
        return 1
    bound = (math.log(tol) if tol > 0 else -math.inf) - math.log(y_norm)

    def stops(L: int) -> bool:
        return L >= n or log_window_sup(w, L, n - L) - L * math.log(az) <= bound

    hi = 1
    while not stops(hi):
        hi *= 2
    return bisect.bisect_left(range(hi + 1), True, lo=hi // 2 + 1, key=stops)


def solve_factor_outer(
    w: WeightSequence, zeta: complex, y: TruncatedVector, tol: float = 1e-12
) -> TruncatedVector:
    """Solve (shift - zeta) x = y for |zeta| above the outer radius r1 by the
    backward recurrence x_k = (w_k x_{k+1} - y_k) / zeta from x_{N+1} = 0,
    the affine scan run on reversed arrays.  Its gain per step averages
    r1 / |zeta| < 1, and it returns the resolvent series
    -sum_j zeta^{-(j+1)} B^j y summed over the whole buffer.  |zeta| must
    clear r1 by more than tol, and tol sets only the exact prefix, which
    loses L - 1 coordinates (see _series_cut)."""
    r1, az = spectral_profile(w).r1, abs(zeta)
    if az - r1 < tol:
        raise ValueError(f"|zeta| = {az} must clear the outer radius {r1} by more than {tol}")
    ws = w.values_array(y.size - 1)
    x = np.empty(y.size, dtype=complex)
    y_norm = y.sup_norm_full(x.view(float))
    # x_k = (w_k x_{k+1} - y_k) / zeta from x_{N+1} = 0, scanned from the end
    # of a buffer of -y / zeta: the b_k, and x_N to start from
    np.divide(y.coords, -zeta, out=x)
    _affine_scan(np.divide(ws, zeta)[::-1], x[::-1])
    cut = _series_cut(w, y.size, az, y_norm, tol)
    return TruncatedVector(x, max(0, y.exact_prefix - (cut - 1)))


def _solver(op: OperatorSpec, tol: float):
    """Route the map's roots once, by the root disks of the polish; returns
    y -> x with f(shift) x = y, its ``routed`` attribute the pair (outer
    roots, inner roots) in the order it solves them."""
    if not isinstance(op.map, Polynomial):
        raise UnsupportedMapError("factor-routed solving needs a polynomial map")
    f = op.map
    if f.degree < 1:
        raise ValueError("map must have degree >= 1 to be solved")
    prof = spectral_profile(op.weights)
    roots, radii = f.roots(radii=True)
    inner = [z for z, rho in zip(roots, radii) if abs(z) + rho < prof.r2]
    outer = [z for z, rho in zip(roots, radii) if abs(z) - rho > prof.r1]
    stuck = [z for z in roots if z not in inner and z not in outer]
    if stuck:
        raise RootInAnnulusError(f"roots {stuck} lie in or near the annulus [{prof.r2}, {prof.r1}]")
    lead = f.coeffs[-1]
    # truncation errors made by one factor solve are amplified by every
    # factor applied afterwards (at most r1 + |root| each), so each outer
    # factor cuts its exact prefix at a tolerance shrunk by the total
    amp = abs(lead)
    for z in roots:
        amp *= prof.r1 + abs(z) + 1.0
    tol_eff = tol / max(1.0, amp)

    def solve(y: TruncatedVector) -> TruncatedVector:
        x = y if lead == 1 else TruncatedVector(y.coords / lead, y.exact_prefix)
        for z in outer:
            x = solve_factor_outer(op.weights, z, x, tol_eff)
        for z in inner:
            # a zero root is the plain preimage, which needs no scan
            x = preimage_power(op.weights, x, 1) if z == 0 else solve_factor_inner(op.weights, z, x)
        return x

    solve.routed = outer, inner
    return solve


def solve_poly(op: OperatorSpec, y: TruncatedVector, tol: float = 1e-9) -> TruncatedVector:
    """Solve f(shift) x = y by factoring f and routing each root.

    Every root must fall strictly inside the inner disk or strictly outside
    the outer one; a root inside the annulus (legitimate for operators
    whose annulus image meets the unit disk) makes the factor unsolvable
    and raises.  Outer inversions run first for numerical stability.  A
    transient past the float range comes back as non-finite coordinates.
    """
    return _solver(op, tol)(y)


@dataclass(frozen=True)
class WitnessStage:
    """Stage m: x_m, the stage z it maps back to, its norm and decay bound, the residual."""
    index: int
    x: TruncatedVector
    z: TruncatedVector
    norm: float
    norm_bound: float
    round_trip_residual: float

    def to_dict(self) -> dict:
        return {
            "m": self.index,
            "norm": self.norm,
            "normBound": self.norm_bound,
            "roundTripResidual": self.round_trip_residual,
        }


@dataclass(frozen=True)
class MixingWitness(Report):
    """Stages x_m with T^{m n0} x_m = y and geometric norm decay.

    The decay rate 1 + eps comes from the certified annulus bound for the
    map (the sharp asymptotic surjectivity rate), and each stage is checked
    against ||x_m|| <= C (1+eps)^{-m n0} ||y||, taken in logs where the
    power underflows (so 0 only below the float range).  The instance
    constant C is the largest ||x_m|| (1+eps)^{m n0} / ||y|| over the first
    ``_CALIBRATION_STAGES`` stages (and at least 1), so those stages meet
    the bound by construction and only later stages test the decay.  A
    stage whose norm (the solves overflowed) or round-trip residual is not
    finite, or a zero stage whose round trip misses the previous one (they
    underflowed), is not recorded: the witness stops there with ``ok``
    false.  A residual fails only past both 1e-6 max(1, ||y||) and
    ``_round_trip_allowance``.  Each stage also records z_m := T^{n0} x_m,
    the previous stage's vector by construction; these satisfy
    T^{(m-1) n0} z_m = y, converge to 0, and push forward to y, which is
    the mixing phenomenon being demonstrated.  (Both stage indexings for
    the pushforward identity are recorded: the verified one is over
    (m-1) n0 steps.)
    """

    n0: int
    epsilon: float
    constant: float
    target_norm: float
    stages: tuple[WitnessStage, ...]
    ok: bool
    failure: str | None = None

    def to_dict(self) -> dict:
        return {**super().to_dict(), "pushforwardIdentity":
                "(m-1)*n0 applications of the operator map z_m to the target"}


def _scaled_power(c: float, base: float, k: int) -> float:
    """c base^k for c >= 0 and base >= 1, computed as c * base**k (k >= 0) or
    c / base**-k; only where that power overflows is the product taken in
    logs, so it is inf only past the float range."""
    try:
        return c * base**k if k >= 0 else c / base**-k
    except OverflowError:
        log = math.log(c) + k * math.log(base) if c else -math.inf
        return math.exp(log) if log < _LOG_MAX else math.inf


def _decayed(c: float, rate: float, log_rate: float, m: int) -> float:
    """c rate^-m for c >= 0 and rate >= 1, computed as c * rate**-m; only
    where that power underflows past the normal floats (it is 0.0 wherever
    rate**m overflows) is the product taken in logs, with log_rate the log
    of the rate, so it is 0.0 only below the float range."""
    power = rate**-m
    if power >= sys.float_info.min or c == 0.0:
        return c * power
    return math.exp(math.log(c) - m * log_rate)


def _choose_n0(solve, y: TruncatedVector, eps: float):
    """Smallest block size n0 in (1, 2, 4, 8) for which n0 solves contract
    the norm at the certified rate, or 1 (the constant absorbs transients);
    returned with the probe chain [y, solve(y), solve(solve(y)), ...] of the
    solves made, which the witness chain continues instead of repeating.
    Probing stops at a link whose norm is not finite (the solves overflowed).
    A link of norm 0 meets no rate: y is not 0, so the solves underflowed or
    pushed y out of the buffer, and where the rate's power underflows the
    bar is 0 as well."""
    chain, base = [y], y.sup_norm()
    if base == 0.0:
        return 1, chain
    for cand in (1, 2, 4, 8):
        while len(chain) <= cand:
            chain.append(solve(chain[-1]))
            if not math.isfinite(norm := chain[-1].sup_norm()):
                return 1, chain
        if 0.0 < norm <= _scaled_power(base, 1.0 + eps, -cand) * (1.0 + 1e-9):
            return cand, chain
    return 1, chain


def mixing_witness(
    op: OperatorSpec,
    y: TruncatedVector,
    m_max: int,
    budget: Budget | None = None,
    verdict: Verdict | None = None,
) -> MixingWitness:
    """Construct the mixing stages for a certified JCLASS operator.

    Stage m is link m n0 of one solve chain y, solve(y), ..., whose first
    links come from the block-size probe, so no solve runs twice.  Raises
    ValueError when the operator is not certified JCLASS or m_max < 1.
    Decay violations and prefix exhaustion are reported in the witness
    rather than raised, so callers can inspect the partial construction.
    Solves run at ``budget.tol``.
    """
    if m_max < 1:
        raise ValueError(f"a mixing witness needs at least one stage, got {m_max}")
    budget = budget or Budget()
    verdict = verdict or decide_geometric(op, budget)
    if verdict.decision != JCLASS:
        raise ValueError(f"mixing witness needs a JCLASS operator, got {verdict.decision}")
    eps = verdict.condition_a.lower_bound - 1.0
    solve = _solver(op, budget.tol)
    return _witness(op, y, m_max, eps, solve, *_choose_n0(solve, y, eps))


def _round_trip_allowance(op, solve, prev, x, n0) -> float:
    """Rounding allowance for the round trip f(B)^{n0} x - prev of the stage
    x = solve^{n0}(prev), derived in the README.  With v_k = solve(v_{k-1}),
    v_0 = prev, u the unit roundoff, sigma_j the largest product of j
    consecutive buffer weights and N = sum_j |a_j| sigma_j, it is
    sum_k N^{k-1} ||D_k|| over the solves' backward errors
    D_k = f(B) v_k - v_{k-1}, plus n0 (2 deg + 4) u N^{n0} ||x|| for the float
    applications of f(B), where ||D_k|| <= 2 g |c| sum_i Q_i ||X_i|| +
    sum_j |e_j| sigma_j ||v_k||: c = a_deg, e = f - c prod (z - z_i) is the
    polished roots' defect, g = 16 (L + 1) u bounds a chunked scan's residual
    (chunk length L) per modulus of its terms, Q_i = prod_{j<=i}
    (sigma_1 + |z_j|), and X_i (X_0 = |v_{k-1}| / |c|) is factor i's
    recurrence on |z_i| and X_{i-1}, which majorizes those terms; |x_i| is
    far smaller where they cancel (a complex or negative root)."""
    f, w, u = op.map, op.weights, sys.float_info.epsilon / 2
    logs = [log_window_sup(w, j, x.size - j) for j in range(1, f.degree + 1)]
    sigma = [1.0] + [math.exp(s) if s < _LOG_MAX else math.inf for s in logs]
    outer, inner = solve.routed
    roots, c = outer + inner, f.coeffs[-1]
    norm_f, norm_e = (sum(abs(a) * s for a, s in zip(coeffs, sigma))
                      for coeffs in (f.coeffs, np.subtract(f.coeffs, c * np.poly(roots)[::-1])))
    g = 16 * (_scan_chunk(x.size - 1) + 1) * u
    total, amp, v = 0.0, 1.0, prev
    for k in range(1, n0 + 1):
        mag = TruncatedVector(np.abs(v.coords) / abs(c), v.exact_prefix)
        q, terms = 1.0, mag.sup_norm_full()
        for z in roots:
            mag = (solve_factor_inner(w, abs(z), mag) if z in inner else
                   solve_factor_outer(w, abs(z), TruncatedVector(-mag.coords, mag.exact_prefix), 0.0))
            q *= sigma[1] + abs(z)
            terms += q * mag.sup_norm_full()
        v = solve(v) if k < n0 else x
        total += amp * (2 * g * abs(c) * terms + norm_e * v.sup_norm_full())
        amp *= norm_f
    return total + n0 * (2 * f.degree + 4) * u * amp * x.sup_norm_full()


def _witness(op, y, m_max, eps, solve, n0, probe) -> MixingWitness:
    rate = _scaled_power(1.0, 1.0 + eps, n0)
    y_norm = y.sup_norm()

    ok, failure = True, None
    chain, norms, x = [y], [y_norm], y
    for m in range(1, m_max + 1):
        for k in range((m - 1) * n0 + 1, m * n0 + 1):
            x = probe[k] if k < len(probe) else solve(x)
        # the round trip consumes n0 deg coordinates; none left checks nothing
        if x.exact_prefix - n0 * op.map.degree < 1:
            ok, failure = False, f"exact prefix exhausted at stage {m}"
            break
        if not math.isfinite(norm := x.sup_norm()):  # the solves overflowed
            ok, failure = False, f"non-finite norm at stage {m}"
            break
        chain.append(x)
        norms.append(norm)

    # the calibration stages ride out the phase oscillation of the window
    # infima; a fitted value past the float range must not set the constant
    fitted = [_scaled_power(norm, rate, m) / y_norm if y_norm > 0 else 1.0
              for m, norm in enumerate(norms[1 : _CALIBRATION_STAGES + 1], 1)]
    constant = max([1.0] + [c for c in fitted if math.isfinite(c)])

    stages, log_rate = [], n0 * math.log(1.0 + eps)
    for m in range(1, len(chain)):
        xm, prev, norm = chain[m], chain[m - 1], norms[m]
        bound = _decayed(constant * y_norm, rate, log_rate, m)
        residual = apply_operator(op, xm, n0).prefix_distance(prev)
        if not math.isfinite(residual):
            ok, failure = False, f"non-finite round trip residual at stage {m}"
            break
        # the round trip of a zero stage is 0, so one that misses the
        # previous stage was solved to 0 by underflow
        if norm == 0.0 < residual:
            ok, failure = False, f"solve chain underflowed to the zero vector at stage {m}"
            break
        stages.append(WitnessStage(m, xm, prev, norm, bound, residual))
        # negated comparison, so that a NaN bound fails the check
        if not norm <= bound * (1.0 + 1e-9):
            ok, failure = False, f"norm decay violated at stage {m}"
            break
        # a residual fails only past the absolute bar and the allowance
        # (computed only past the bar); it is recorded as data either way
        if not (residual <= 1e-6 * max(1.0, y_norm)
                or residual <= _round_trip_allowance(op, solve, prev, xm, n0) < math.inf):
            ok, failure = False, f"round trip residual {residual} at stage {m}"
            break
    return MixingWitness(n0, eps, constant, y_norm, tuple(stages), ok, failure)


def eigenvector(w: WeightSequence, lam: complex, n: int) -> TruncatedVector:
    """Explicit eigenvector of the weighted shift for eigenvalue lam.

    Built from the recurrence w_k e_{k+1} = lam e_k seeded with
    e_1 = lam / w_1 (the affine scan with b = 0), so the shift identity
    holds coordinate by coordinate to rounding.  Requires |lam| below the
    leading-window radius r3, which makes the coordinates decay to 0 (a
    null sequence).  The exact prefix ends at the first coordinate that
    overflowed.
    """
    r3 = spectral_profile(w).r3
    if abs(lam) >= r3:
        raise ValueError(f"|lambda| = {abs(lam)} must stay below the eigenvalue radius {r3}")
    ws = w.values_array(max(1, n - 1))
    e = np.zeros(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite e
        e[0] = lam / ws[0]
        a = lam / ws[: n - 1]
    _affine_scan(a, e)
    finite = np.isfinite(e)
    return TruncatedVector(e, n if finite.all() else int(finite.argmin()))


@dataclass(frozen=True)
class SpanFit(Report):
    """Least-squares eigenvector coefficients with residuals and condition number."""
    coefficients: np.ndarray
    residual_sup: float
    residual_l2: float
    condition: float


def span_approximate(
    w: WeightSequence,
    target: TruncatedVector,
    lambda_grid,
    n: int,
) -> SpanFit:
    """Least-squares fit of the target by eigenvectors e_lambda on the grid.

    The l2 norm over the first n coordinates stands in for the sup norm.
    These systems are Vandermonde-like and degrade quickly, so the
    condition estimate is part of the answer rather than an error.
    """
    lams = [complex(l) for l in lambda_grid]
    if len(lams) == 0:
        raise ValueError("need at least one grid point")
    basis = np.column_stack([eigenvector(w, l, n).coords for l in lams])
    rhs = target.coords[:n]
    coeff, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    resid = rhs - basis @ coeff
    return SpanFit(
        coefficients=coeff,
        residual_sup=float(np.max(np.abs(resid))),
        residual_l2=float(np.linalg.norm(resid)),
        condition=float(np.linalg.cond(basis)),
    )


def orbit_envelope(op: OperatorSpec, x: TruncatedVector, steps: int):
    """(n, prefix sup, tail sup) rows along the orbit of x, exact coords only.

    The prefix sup covers the first quarter of the surviving exact prefix,
    the tail sup the rest; together they show where mass travels under
    iteration.  Stops early when the exact prefix runs out.
    """
    cur = x
    for n in range(steps + 1):
        m = cur.exact_prefix
        if m <= 0:
            return
        head = max(1, m // 4)
        mags = np.abs(cur.coords[:m])
        yield n, float(mags[:head].max()), float(mags[head:].max() if m > head else 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cur = apply_operator(op, cur, 1)


MEMBER = "MEMBER"
HEURISTIC_NONMEMBER = "HEURISTIC_NONMEMBER"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class MembershipCertificate:
    """Constructive evidence that a target lies in the extended limit set of
    the start vector: approximants x + u_m with u_m -> 0 whose pushforwards
    land on the target up to the recorded error (infinite, and null in the
    JSON, when no stage could be evaluated)."""

    target_index: int
    status: str
    stages: tuple
    final_error: float

    def to_dict(self) -> dict:
        return {
            "target": self.target_index,
            "status": self.status,
            "stages": [
                {"m": m, "approxDistance": d, "orbitError": e} for m, d, e in self.stages
            ],
            "finalError": self.final_error if math.isfinite(self.final_error) else None,
        }


@dataclass(frozen=True)
class GrowthDiagnostic(Report):
    """Tail growth evidence that a non-decaying start vector is not a
    universal limit point; heuristic only, never a certified negative."""

    measured_rate: float
    certified_rate: float
    steps: int
    trials: int


@dataclass(frozen=True)
class JSetReport(Report):
    """Membership certificates or a growth diagnostic, with the overall status."""
    mode: str  # "membership" | "growth"
    memberships: tuple[MembershipCertificate, ...]
    growth: GrowthDiagnostic | None
    status: str


def _is_null_like(x: TruncatedVector) -> bool:
    if x.exact_prefix < 8 or (head := x.sup_norm()) == 0.0:
        return True
    tail_start = (3 * x.exact_prefix) // 4
    tail = float(np.max(np.abs(x.coords[tail_start : x.exact_prefix])))
    return tail <= 0.05 * head or tail <= 1e-9


def jset_experiment(
    op: OperatorSpec,
    x: TruncatedVector,
    targets,
    budget: Budget | None = None,
    seed: int = 0,
    verdict: Verdict | None = None,
) -> JSetReport:
    """Membership experiments for the extended limit set of x.

    For a start vector with decaying coordinates, each target receives a
    constructive certificate: stage vectors u_m with pushforward exactly
    the target, so x + u_m -> x while the pushforward of x + u_m differs
    from the target only by the decaying orbit of x itself.  For a
    non-decaying start vector the experiment instead measures the tail
    growth rate of perturbed iterates against the certified annulus bound
    and reports heuristic non-membership (a certified negative is out of
    reach at finite truncation).  Solves run at ``budget.tol``.
    """
    budget = budget or Budget()
    verdict = verdict or decide_geometric(op, budget)
    if verdict.decision != JCLASS:
        raise ValueError(f"extended-limit-set experiment needs JCLASS, got {verdict.decision}")
    deg = op.map.degree

    if _is_null_like(x):
        eps = verdict.condition_a.lower_bound - 1.0
        memberships = []
        solve = _solver(op, budget.tol)
        for idx, y in enumerate(targets):
            n0, probe = _choose_n0(solve, y, eps)
            max_stages = max(1, (x.exact_prefix - 4) // max(1, n0 * deg))
            wit = _witness(op, y, max_stages, eps, solve, n0, probe)
            # a verified decay bound extrapolates the approach vectors to 0
            # beyond the computed stages; losing it voids the certificate
            decay_verified = wit.ok or (wit.failure or "").startswith("exact prefix")
            stages = []
            final = math.inf
            for s in wit.stages:
                combined_exact = min(x.exact_prefix, s.x.exact_prefix)
                if combined_exact - s.index * wit.n0 * deg <= 0:
                    break
                both = TruncatedVector(x.coords + s.x.coords, combined_exact)
                push = apply_operator(op, both, s.index * wit.n0)
                err = push.prefix_distance(y)
                stages.append((s.index, s.norm, err))
                final = min(final, err)
                if err <= _MEMBERSHIP_ERROR:
                    break
                if s.index > 4 and err > 10.0 * final:
                    break  # orbit of x is growing, more stages cannot help
            status = MEMBER if decay_verified and final <= _MEMBERSHIP_ERROR else INCONCLUSIVE
            memberships.append(MembershipCertificate(idx, status, tuple(stages), final))
        overall = MEMBER if all(m.status == MEMBER for m in memberships) else INCONCLUSIVE
        return JSetReport("membership", tuple(memberships), None, overall)

    # growth diagnostic for non-decaying start vectors
    rng = np.random.default_rng(seed)
    rate_bound = verdict.condition_a.lower_bound
    steps = max(4, min(20, (x.exact_prefix - 8) // max(1, deg)))
    # window spacing divisible by small weight periods, so phase-dependent
    # partial-window corrections cancel out of the measured rate
    lo = steps - 12 if steps >= 16 else steps // 2
    rates = []
    for _ in range(3):
        noise = 1e-3 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        cur = TruncatedVector(x.coords + noise, x.exact_prefix)
        sups = [cur.sup_norm()]
        for _ in range(steps):
            cur = apply_operator(op, cur, 1)
            sups.append(cur.sup_norm())
        rates.append((sups[steps] / sups[lo]) ** (1.0 / (steps - lo)))
    measured = float(np.median(rates))
    diag = GrowthDiagnostic(measured, rate_bound, steps, 3)
    return JSetReport("growth", (), diag, HEURISTIC_NONMEMBER)
