"""Truncated formal series in q with half-integer exponents, and a transfer
evaluator for words of raising/lowering vertex operators.

Coefficients are plain Python ints throughout; exponents are stored doubled.
A word is evaluated by folding its operators from the ket side over a state
map (partition -> series). Each step keeps a state's terms up to one limit
per size: the bound less the least degree the rest of the word must still
add from that size (`_size_floors`). The limit lies past the bound where
negative exponents are still to come and below it where positive ones are,
and a size with no way to the bra keeps nothing. Raising and lowering steps
alike take a size budget from each state's lowest exponent, so successors
that could only contribute past every limit are never generated, and the
successor lists of a (partition, sign, budget) query come from a size-bounded
memo.

A word is folded once, over states no larger than a cap stated from the word
and the bound (`_state_cap`). A word whose layers of size may cost nothing
first gets one exponent-free fold at cap |bra| + |ket|, which decides whether
it diverges; a divergent word is reported at every bound.
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
from .configurations import minimal_weight


# Most states one transfer step may carry forward. Memory grows with it:
# MacMahon's word at degree 40 peaks at 2,070 states in a 64 MiB process,
# while `verify --suite all` stays at 60.
MAX_STATES = 1 << 14


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
                    exponent, size_cap: int, limits: list
                    ) -> dict[Partition, TruncatedSeries]:
    """One transfer step: fan each state out over interlacing partitions.

    sign +1 sums over mu >- kappa with factor q^(e*(|mu|-|kappa|)), sign -1
    over mu -< kappa with q^(e*(|kappa|-|mu|)), raising to sizes up to
    size_cap. A successor of size s keeps its terms up to limits[s], so
    limits must cover size_cap and every state's size. For e > 0 a state's
    lowest term caps how far its size may move, so successors that could
    only produce terms past max(limits) are never generated; with e <= 0
    raising is capped by size_cap alone and lowering is not capped.
    Successor lists come from a bounded memo keyed by (kappa, sign, cap).
    """
    e2 = HalfInt.of(exponent).doubled
    bound2 = max(limits)
    out: dict[Partition, TruncatedSeries] = {}
    for kappa, ser in state.items():
        if ser.is_zero():
            continue
        w, low = weight(kappa), min(ser.coeffs)
        # lowering can lose at most |kappa|, so clipping there shares keys
        budget = size_cap - w if sign == RAISE else w
        if e2 > 0:
            budget = min(budget, (bound2 - low) // e2)
        if budget < 0:
            continue
        for mu, delta in _successors(kappa, sign, budget):
            d, top = e2 * delta, limits[w + sign * delta]
            if low + d > top:
                continue
            shifted = {x + d: c for x, c in ser.coeffs.items() if x + d <= top}
            if mu in out:
                tgt = out[mu].coeffs
                for x, c in shifted.items():
                    tgt[x] = c = tgt.get(x, 0) + c
                    if not c:  # signed inputs cancelled
                        del tgt[x]
            else:
                out[mu] = TruncatedSeries(top, shifted)
    return {k: s for k, s in out.items() if not s.is_zero()}


def evaluate(word: OperatorWord, bound) -> TruncatedSeries:
    """Bra-ket coefficient of the word as a series truncated at the bound,
    from one fold over the states `_state_cap` allows.

    Each step keeps a state's terms only up to the bound less the least
    degree the rest of the word must still add from the state's size
    (`_size_floors`). That limit sits past the bound where negative
    exponents are still to come and below it where positive ones are, and a
    size with no way to the bra keeps nothing. A divergent word is reported
    whatever the bound.
    """
    bound2 = HalfInt.of(bound).doubled
    return _evaluate_capped(word, bound2, _state_cap(word, bound2))


def _state_cap(word: OperatorWord, bound2: int) -> int:
    """The largest state size on a fold path of degree <= bound2.

    Cut a path's sizes into unit layers. Above h = max(|bra|, |ket|) each
    layer is made of runs, each entered by a raise and left by a lower to
    its left, and a run adds e_raise + e_lower + the weigh scales between.
    With rho the least such sum, a path reaching size h + k has degree at
    least L + k * rho, L being the least degree of a size path capped at h
    (its clipping). With no such pair the cap is h. With rho <= 0 adding
    cells to row 1 across that run gives infinitely many paths from any one,
    and clipping each part to bra | ket keeps a path, so the word diverges
    exactly when it has a path of states of size <= |bra| + |ket|.
    """
    h = max(weight(word.bra), weight(word.ket))
    rho = best = float("inf")  # best: least raise-plus-weighs open so far
    for op in reversed(word.ops):
        if op[0] == "weigh":
            best += op[1].doubled
        elif op[1] == RAISE:
            best = min(best, op[2].doubled)
        else:
            rho = min(rho, best + op[2].doubled)
    if rho == float("inf"):
        return h
    if rho > 0:
        low = _size_floors(word, h)[-1][weight(word.ket)]
        return h if low > bound2 else h + (bound2 - low) // rho
    paths = OperatorWord(tuple(step_op(op[1], 0) for op in word.ops
                               if op[0] == "step"), word.bra, word.ket)
    if _evaluate_capped(paths, 0, weight(word.bra) + weight(word.ket)).coeffs:
        raise NonConvergenceError(
            "word has unboundedly many states below the degree bound")
    return h


def _size_floors(word: OperatorWord, cap: int) -> list[list]:
    """floors[i][s]: the least degree a size path adds from size s, with
    ops[:i] still to come, on the way to the bra (inf if it cannot get
    there). A raise moves a size s to any s' in [s, cap], a lower to any s'
    in [0, s], and a weigh adds scale * s, so every path of states up to the
    cap is one of these, and the least degree a size path adds bounds the
    degree of theirs from below. The fold's limit for a state of size s is
    therefore the bound less floors[i][s], which drops only terms that end
    past the bound."""
    f = [float("inf")] * (cap + 1)
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
    return floors


def _evaluate_capped(word: OperatorWord, bound2: int, cap: int
                     ) -> TruncatedSeries:
    """Fold the word from its ket over states of size <= cap. While ops[:i]
    are still to come, a state of size s keeps a term x only if
    x <= bound2 - floors[i][s]: every way on to the bra adds at least
    floors[i][s], so a term past that limit ends past the bound, and a size
    with no way to the bra (floor inf) keeps nothing. A step that carries
    more than MAX_STATES states forward raises NonConvergenceError; the check
    runs once the step's output is built, so memory is bounded by one step's
    growth past the cap."""
    limits = [[bound2 - v for v in f] for f in _size_floors(word, cap)]
    state: dict[Partition, TruncatedSeries] = {
        word.ket: TruncatedSeries(limits[-1][weight(word.ket)], {0: 1})}
    for idx in range(len(word.ops) - 1, -1, -1):
        op, lim = word.ops[idx], limits[idx]
        if op[0] == "weigh":
            t2 = op[1].doubled
            state = {k: TruncatedSeries(lim[weight(k)],
                                        {x + t2 * weight(k): c
                                         for x, c in s.coeffs.items()})
                     for k, s in state.items()}
            state = {k: s for k, s in state.items() if not s.is_zero()}
        else:
            _, sign, exponent = op
            state = apply_vertex_op(state, sign, exponent, cap, lim)
        if len(state) > MAX_STATES:
            raise NonConvergenceError(
                f"transfer step {idx} holds {len(state)} states, over the "
                f"cap of {MAX_STATES}")
    return state.get(word.bra, TruncatedSeries(bound2, {}))


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
    """The shape series truncated at the bound: `evaluate` of its word at
    `initial_cutoff`, past which operators act trivially below the bound
    (checked by the `cutoff-stability` suite)."""
    bound = HalfInt.of(bound)
    return evaluate(shape_word(kind, legs, initial_cutoff(kind, legs, bound)),
                    bound)


def minimal_exponent(kind: str, legs) -> HalfInt:
    """Lowest exponent with a nonzero coefficient of a two-leg shape series,
    read off the series truncated at the telescoped `minimal_weight`."""
    word_kind = "two-leg-spp" if kind == "spp" else "two-leg-rpp"
    low = evaluate_stable(word_kind, legs,
                          minimal_weight(kind, legs)).min_exponent()
    if low is None:
        raise NonConvergenceError(
            f"no nonzero coefficient up to the minimal weight for {kind} {legs}")
    return low


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
