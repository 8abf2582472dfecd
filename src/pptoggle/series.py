"""Truncated formal series in q with half-integer exponents, and a transfer
evaluator for words of raising/lowering vertex operators.

Coefficients are plain Python ints throughout; exponents are stored doubled.
A word is evaluated by folding its operators from the ket side over a state
map (partition -> series). Raising and lowering steps alike take a size budget
from each state's lowest exponent, so successors that could only contribute
beyond the degree bound are never generated, and the successor lists of a
(partition, sign, budget) query come from a size-bounded memo. While negative
exponents are still to come, a state keeps terms past the bound only by as
much degree as those operators could take off from its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import DomainError, NonConvergenceError
from .halfint import HalfInt
from .partitions import (Partition, as_partition, interlacers_above,
                         interlacers_below, part, weight)
from .boundary import edge_power, edge_sign


class TruncatedSeries:
    """Map exponent -> integer coefficient, valid up to a degree bound."""

    __slots__ = ("bound2", "coeffs")

    def __init__(self, bound2: int, coeffs: dict[int, int] | None = None):
        self.bound2 = bound2
        self.coeffs = {e: c for e, c in (coeffs or {}).items()
                       if c != 0 and e <= bound2}

    @staticmethod
    def one(bound: HalfInt) -> "TruncatedSeries":
        return TruncatedSeries(bound.doubled, {0: 1})

    @staticmethod
    def zero(bound: HalfInt) -> "TruncatedSeries":
        return TruncatedSeries(bound.doubled, {})

    @staticmethod
    def from_terms(bound: HalfInt, terms: Iterable[tuple[HalfInt, int]]):
        return TruncatedSeries(bound.doubled,
                               {HalfInt.of(e).doubled: c for e, c in terms})

    @property
    def bound(self) -> HalfInt:
        return HalfInt(self.bound2)

    def coefficient(self, exponent) -> int:
        return self.coeffs.get(HalfInt.of(exponent).doubled, 0)

    def items(self) -> list[tuple[HalfInt, int]]:
        return [(HalfInt(e), c) for e, c in sorted(self.coeffs.items())]

    def pairs(self) -> list[list[int]]:
        """Serialisation form: sorted [doubled exponent, coefficient] pairs."""
        return [[e, c] for e, c in sorted(self.coeffs.items())]

    def min_exponent(self) -> HalfInt | None:
        return HalfInt(min(self.coeffs)) if self.coeffs else None

    def truncate(self, bound2: int) -> "TruncatedSeries":
        return TruncatedSeries(min(self.bound2, bound2), self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncatedSeries(min(self.bound2, other.bound2), out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return TruncatedSeries(min(self.bound2, other.bound2), out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound2 = min(self.bound2, other.bound2)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= bound2:
                    out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(bound2, out)

    def shift(self, by: HalfInt) -> "TruncatedSeries":
        d = HalfInt.of(by).doubled
        return TruncatedSeries(self.bound2, {e + d: c
                                             for e, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound2 = min(self.bound2, other.bound2)
        return ({e: c for e, c in self.coeffs.items() if e <= bound2}
                == {e: c for e, c in other.coeffs.items() if e <= bound2})

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*q^{HalfInt(e)}"
                           for e, c in sorted(self.coeffs.items())) or "0"
        return f"<{terms} (mod q^>{HalfInt(self.bound2)})>"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a * b


def geometric(step, bound) -> TruncatedSeries:
    """1 + q^a + q^2a + ... truncated; a must be positive to converge."""
    a2 = HalfInt.of(step).doubled
    if a2 <= 0:
        raise DomainError(f"geometric step must be positive: {step}")
    bound2 = HalfInt.of(bound).doubled
    return TruncatedSeries(bound2, {e: 1 for e in range(0, bound2 + 1, a2)})


# ---------------------------------------------------------------------------
# operator words

RAISE, LOWER = 1, -1


@dataclass(frozen=True)
class OperatorWord:
    """A finite product of vertex operators read left (bra side) to right.

    ops entries are ("step", sign, exponent) for an interlacing sum marked by
    q^exponent, or ("weigh", scale) multiplying a state by q^(scale * weight).
    """

    ops: tuple
    bra: Partition = ()
    ket: Partition = ()

    def size_cap(self, bound: HalfInt) -> int:
        # any contributing state is a diagonal of a configuration of weight
        # <= bound over the legs' floor, so its size is capped by this
        return max(0, bound.doubled // 2 + 1) + weight(self.bra) + weight(self.ket)


def step_op(sign: int, exponent) -> tuple:
    return ("step", sign, HalfInt.of(exponent))

def weigh_op(scale) -> tuple:
    return ("weigh", HalfInt.of(scale))


@lru_cache(maxsize=1 << 12)
def _successors(kappa: Partition, sign: int, budget: int
                ) -> tuple[tuple[Partition, int], ...]:
    """(mu, size change) for each mu interlacing kappa on the sign's side
    whose size moves by at most budget, in the generator's order."""
    w = weight(kappa)
    if sign == RAISE:
        return tuple((mu, weight(mu) - w)
                     for mu in interlacers_above(kappa, budget))
    return tuple((mu, w - weight(mu)) for mu in interlacers_below(kappa, budget))


def apply_vertex_op(state: dict[Partition, TruncatedSeries], sign: int,
                    exponent, bound, size_cap: int | None = None
                    ) -> dict[Partition, TruncatedSeries]:
    """One transfer step: fan each state out over interlacing partitions.

    sign +1 sums over mu >- kappa with factor q^(e*(|mu|-|kappa|)), sign -1
    over mu -< kappa with q^(e*(|kappa|-|mu|)). Terms beyond the bound are
    dropped, which keeps the step total. For e > 0 a state's lowest term
    caps how far its size may move, so successors that would only produce
    dropped terms are never generated; with e <= 0 raising is capped by
    size_cap alone and lowering is not capped. Successor lists come from a
    bounded memo keyed by (kappa, sign, cap).
    """
    e2 = HalfInt.of(exponent).doubled
    bound2 = HalfInt.of(bound).doubled
    if size_cap is None:
        size_cap = bound2 // 2 + max((weight(k) for k in state), default=0) + 1
    out: dict[Partition, TruncatedSeries] = {}
    for kappa, ser in state.items():
        if ser.is_zero():
            continue
        # lowering can lose at most |kappa|, so clipping there shares keys
        budget = size_cap - weight(kappa) if sign == RAISE else weight(kappa)
        if e2 > 0:
            budget = min(budget, (bound2 - min(ser.coeffs)) // e2)
        if budget < 0:
            continue
        for mu, delta in _successors(kappa, sign, budget):
            d = e2 * delta
            shifted = {x + d: c for x, c in ser.coeffs.items()
                       if x + d <= bound2}
            if not shifted:
                continue
            if mu in out:
                tgt = out[mu].coeffs
                for x, c in shifted.items():
                    tgt[x] = tgt.get(x, 0) + c
            else:
                out[mu] = TruncatedSeries(bound2, shifted)
    return {k: s for k, s in out.items() if not s.is_zero()}


def evaluate(word: OperatorWord, bound) -> TruncatedSeries:
    """Bra-ket coefficient of the word as a series truncated at the bound.

    Operators with negative exponents can lower accumulated degrees later in
    the fold, so intermediate truncation is loosened, for each state size, by
    the most degree the remaining operators could take off (`_step_bounds`).
    Words whose coefficients are genuinely infinite (weight-free loops) are
    detected by re-running with a larger state cap and reported.
    """
    bound = HalfInt.of(bound)
    cap = word.size_cap(bound)
    result = _evaluate_capped(word, bound.doubled, cap)
    if any(op[0] == "step" and op[2].doubled <= 0 for op in word.ops):
        if result != _evaluate_capped(word, bound.doubled, cap + 5):
            raise NonConvergenceError(
                "word has unboundedly many states below the degree bound")
    return result


def _step_bounds(word: OperatorWord, bound2: int, cap: int
                 ) -> list[tuple[int, list[int] | None]]:
    """For each i, the truncation of the fold's states while ops[:i] are
    still to come: (inner2, limits), limits[s] being the bound for a state
    of size s and inner2 the largest; limits is None if all are inner2.

    A state's terms are kept up to bound2 plus the most degree the remaining
    ops could still take off on the way to the bra. That is found over size
    paths: a raise moves a size s to any s' in [s, cap], a lower to any s'
    in [0, s], and a weigh adds scale * s, so every path of states up to the
    cap is one of these, and the least degree a size path adds bounds the
    degree of theirs from below. A word with no negative exponent or scale
    can take nothing off.
    """
    if all(op[-1].doubled >= 0 for op in word.ops):
        return [(bound2, None)] * (len(word.ops) + 1)
    f = [float("inf")] * (cap + 1)  # least degree from size s to the bra
    f[weight(word.bra)] = 0
    floors = [f]
    for op in word.ops:
        if op[0] == "weigh":
            f = [op[1].doubled * s + v for s, v in enumerate(f)]
        else:
            _, sign, exponent = op
            e2, f = exponent.doubled, list(f)
            sizes = range(cap - 1, -1, -1) if sign == RAISE else range(1, cap + 1)
            for s in sizes:
                f[s] = min(f[s], e2 + f[s + sign])
        floors.append(f)
    out = []
    for f in floors:
        limits = [bound2 - min(0, v) for v in f]
        top = max(limits)
        out.append((top, None if min(limits) == top else limits))
    return out


def _evaluate_capped(word: OperatorWord, bound2: int, cap: int
                     ) -> TruncatedSeries:
    """Fold the word from its ket over states of size <= cap, truncating
    each step as `_step_bounds` allows."""
    bounds = _step_bounds(word, bound2, cap)
    state: dict[Partition, TruncatedSeries] = {
        word.ket: TruncatedSeries(bounds[-1][0], {0: 1})}
    for idx in range(len(word.ops) - 1, -1, -1):
        op = word.ops[idx]
        inner2, limits = bounds[idx]
        if op[0] == "weigh":
            t2 = op[1].doubled
            state = {k: TruncatedSeries(
                        inner2, {x + t2 * weight(k): c
                                 for x, c in s.coeffs.items()
                                 if x + t2 * weight(k) <= inner2})
                     for k, s in state.items()}
            state = {k: s for k, s in state.items() if not s.is_zero()}
        else:
            _, sign, exponent = op
            state = apply_vertex_op(state, sign, exponent, HalfInt(inner2), cap)
        if limits is not None:
            trimmed = ((k, TruncatedSeries(inner2, {x: c for x, c in s.coeffs.items()
                                                    if x <= limits[weight(k)]}))
                       for k, s in state.items())
            state = {k: s for k, s in trimmed if not s.is_zero()}
    result = state.get(word.bra, TruncatedSeries(bound2, {}))
    return result.truncate(bound2)


# ---------------------------------------------------------------------------
# shape words

def one_leg_word(lam: Partition, cutoff: int) -> OperatorWord:
    """The word whose signs/exponents are the boundary data of `lam`,
    restricted to edges |n| < cutoff. Empty boundaries."""
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1: {cutoff}")
    lam = as_partition(lam)
    ops = tuple(step_op(edge_sign(lam, n), edge_power(lam, n))
                for n in range(-cutoff, cutoff))
    return OperatorWord(ops)


def macmahon_word(cutoff: int) -> OperatorWord:
    return one_leg_word((), cutoff)


def _fountain(sign_left: int, cutoff: int) -> tuple:
    """Exponents (2k+1)/2 decreasing into the centre then increasing out,
    with sign_left on the left block and its negation on the right."""
    left = [step_op(sign_left, HalfInt(2 * k + 1))
            for k in range(cutoff - 1, -1, -1)]
    right = [step_op(-sign_left, HalfInt(2 * k + 1)) for k in range(cutoff)]
    return tuple(left + right)


def two_leg_spp_word(lam: Partition, mu: Partition, cutoff: int) -> OperatorWord:
    """Counts fillings over the floor max(lam_col, mu_row); bra lam, ket mu."""
    return OperatorWord(_fountain(LOWER, cutoff), bra=as_partition(lam),
                        ket=as_partition(mu))


def two_leg_rpp_word(lam: Partition, mu: Partition, cutoff: int) -> OperatorWord:
    """Counts fillings under the ceiling min(lam_col, mu_row); bra mu, ket lam."""
    return OperatorWord(_fountain(RAISE, cutoff), bra=as_partition(mu),
                        ket=as_partition(lam))


def shape_word(kind: str, legs, cutoff: int) -> OperatorWord:
    """Build the operator word for a shape family.

    kind: "one-leg" (legs is a single partition), "two-leg-spp",
    "two-leg-rpp" (legs is a pair), or "macmahon".
    """
    if kind == "macmahon":
        return macmahon_word(cutoff)
    if kind == "one-leg":
        return one_leg_word(as_partition(legs), cutoff)
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    if kind == "two-leg-spp":
        return two_leg_spp_word(lam, mu, cutoff)
    if kind == "two-leg-rpp":
        return two_leg_rpp_word(lam, mu, cutoff)
    raise DomainError(f"unknown word kind {kind!r}")


def initial_cutoff(kind: str, legs, bound: HalfInt) -> int:
    degree = (bound.doubled + 1) // 2
    if kind in ("macmahon",):
        extent = 0
    elif kind == "one-leg":
        lam = as_partition(legs)
        extent = part(lam, 1) + len(lam)
    else:
        lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
        extent = part(lam, 1) + len(lam) + part(mu, 1) + len(mu)
    return 2 * degree + extent + 2


def evaluate_stable(kind: str, legs, bound) -> TruncatedSeries:
    """Evaluate a shape word, doubling the cutoff until coefficients settle."""
    bound = HalfInt.of(bound)
    cutoff = initial_cutoff(kind, legs, bound)
    prev = evaluate(shape_word(kind, legs, cutoff), bound)
    for _ in range(4):
        cutoff *= 2
        cur = evaluate(shape_word(kind, legs, cutoff), bound)
        if cur == prev:
            return cur
        prev = cur
    raise NonConvergenceError(
        f"series for {kind} {legs} did not stabilise at degree {bound}")


def minimal_exponent(kind: str, legs) -> HalfInt:
    """Lowest exponent with a nonzero coefficient of a two-leg shape series."""
    word_kind = "two-leg-spp" if kind == "spp" else "two-leg-rpp"
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    guess = weight(lam) + weight(mu) + 1
    for _ in range(6):
        ser = evaluate_stable(word_kind, (lam, mu), HalfInt.of(guess))
        low = ser.min_exponent()
        if low is not None:
            return low
        guess *= 2
    raise NonConvergenceError(f"no nonzero coefficient found for {kind} {legs}")


# ---------------------------------------------------------------------------
# hook products

def hook_product(region: str, lam: Partition, bound) -> TruncatedSeries:
    """Product of geometric(h(box)) over the region's boxes with h <= bound.

    region "plane" ignores lam; region "outside" uses the complement of lam
    and region "inside" the boxes of lam itself. Boxes with larger hooks
    contribute 1 at this truncation.
    """
    from .boundary import hook_pivots_inside, hook_pivots_outside
    bound = HalfInt.of(bound)
    degree = bound.doubled // 2
    out = TruncatedSeries.one(bound)
    pivots = hook_pivots_outside
    if region == "plane":
        lam = ()
    elif region == "inside":
        pivots = hook_pivots_inside
    elif region != "outside":
        raise DomainError(
            f"region must be 'plane', 'outside' or 'inside': {region!r}")
    for h in range(1, degree + 1):
        g = geometric(h, bound)
        for _ in pivots(lam, h):
            out = out * g
    return out


def macmahon_series(bound) -> TruncatedSeries:
    return hook_product("plane", (), bound)
