"""Invariant suites: every identity the package claims, run at desk scale.

Each suite returns CheckResult rows; a failed row names the invariant and the
first counterexample in enumeration order. The CLI `verify` verb and the
acceptance tests both drive these.
"""

from __future__ import annotations

import random
from collections import Counter

from . import bijections as bj
from . import boundary as bd
from . import configurations as cf
from . import oracle as oc
from . import series as sr
from .errors import DomainError, Record
from .halfint import HalfInt
from .partitions import (conjugate, contains, hook_cells,
                         hook_length, interlaces, interlacers_below,
                         outer_corners, part, removable_corners, remove_corner,
                         weight)
from .toggles import toggle_between, toggle_pop, toggle_push


class CheckResult(Record):
    """One row of a suite's report: its name, whether it passed, a detail,
    and a failed row's first counterexample. `run_suites` renames rows in
    place, so a row is mutable."""

    _fields = ("name", "passed", "detail", "counterexample")

    def __init__(self, name: str, passed: bool, detail: str = "",
                 counterexample: object = None):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.counterexample = counterexample

    def text(self) -> str:
        """The detail, then a failed row's counterexample."""
        if self.counterexample is None:
            return self.detail
        return f"{self.detail} counterexample={self.counterexample!r}"

    def line(self) -> str:
        """`PASS name: text` or `FAIL name: text`, without the colon when
        there is no text."""
        text = self.text()
        return (f"{'PASS' if self.passed else 'FAIL'} {self.name}"
                + (f": {text}" if text else ""))


def _row(name, reason, candidates, detail=""):
    """The row `name`: PASS with `detail` when `candidates` is empty, else
    FAIL with `reason` and the first candidate.

    `candidates` are counterexamples in enumeration order, so a generator
    runs only up to the first. A loop that checks several rows in one pass
    keeps each row's first as `found.setdefault(row, [counterexample])` and
    passes `found.get(row, ())`.
    """
    for bad in candidates:
        return CheckResult(name, False, reason, bad)
    return CheckResult(name, True, detail)


def _bijection_failures(objects, forward, inverse):
    """Counterexamples to the weight-preserving bijection `forward`, whose
    inverse takes the parts of its image, in enumeration order: each object
    whose image's weights (`cf.cfg_weight`) do not sum to its own or whose
    round trip fails, then each weight at which two objects share an
    image. An image is keyed by its parts' supports, the field each part's
    class names last in `_fields`."""
    images: dict = {}
    sizes = Counter()
    for obj in objects:
        image = forward(obj)
        parts = image if isinstance(image, tuple) else (image,)
        w = cf.cfg_weight(obj)
        if sum(map(cf.cfg_weight, parts)) != w or inverse(*parts) != obj:
            yield obj
        images.setdefault(w, set()).add(
            tuple(frozenset(getattr(p, p._fields[-1]).items()) for p in parts))
        sizes[w] += 1
    yield from (w for w in sizes if len(images[w]) != sizes[w])


# ---------------------------------------------------------------------------

def suite_partitions(max_weight: int = 12) -> list[CheckResult]:
    small = oc.partitions_up_to(10)
    cells = [(i, j) for i in range(1, 9) for j in range(1, 9)]
    return [
        _row(f"conjugate-involution(w<={max_weight})", "conjugate twice differs",
             (lam for lam in oc.partitions_up_to(max_weight)
              if conjugate(conjugate(lam)) != lam)),
        _row("hook-vs-cells(w<=10,coords<=8)", "arm+leg+1 disagrees with cell set",
             ((lam, c) for lam in small for c in cells
              if hook_length(lam, c, "inside" if contains(lam, c) else "outside")
              != len(hook_cells(lam, c)))),
        _row("outer-corners(w<=10)", "corner list malformed",
             (lam for lam in small for cs in [outer_corners(lam)]
              if len(cs) != len(set(lam)) + 1
              or any(contains(lam, c) for c in cs)
              or any(a != b and a[0] <= b[0] and a[1] <= b[1]
                     for a in cs for b in cs))),
        # side-by-side diagonals nu, mu, lam must satisfy the
        # decreasing-rows/columns inequalities
        _row("interlacing-placement(w<=6)", "inequality fails",
             ((nu, mu, lam, i) for nu in oc.partitions_up_to(6)
              for mu in interlacers_below(nu) for lam in interlacers_below(mu)
              for i in range(1, len(nu) + 2)
              if not (part(nu, i) >= part(mu, i) >= part(nu, i + 1)
                      and part(mu, i) >= part(lam, i) >= part(mu, i + 1)))),
    ]


def suite_toggles(max_part: int = 4, max_len: int = 4) -> list[CheckResult]:
    box = [lam for lam in oc.partitions_up_to(max_part * max_len)
           if len(lam) <= max_len and part(lam, 1) <= max_part]
    above = {nu: [p for p in box if interlaces(p, nu)] for nu in box}
    found: dict = {}
    for nu in box:
        for mu in interlacers_below(nu):
            for lam in above[nu]:
                t = toggle_between(lam, nu, mu)
                if toggle_between(lam, t, mu) != nu:
                    found.setdefault("between-involution", [(lam, nu, mu)])
                if weight(t) != weight(lam) + weight(mu) - weight(nu):
                    found.setdefault("between-weight-law", [(lam, nu, mu)])
                if not (interlaces(lam, t) and interlaces(t, mu)):
                    found.setdefault("between-interlacing", [(lam, nu, mu)])
    for nu in box:
        for lam in interlacers_below(nu):
            for mu in interlacers_below(nu):
                t, n = toggle_pop(lam, nu, mu)
                if n < 0 or weight(t) != weight(lam) + weight(mu) - weight(nu) + n:
                    found.setdefault("pop-weight-law", [(lam, nu, mu)])
                if not (interlaces(lam, t) and interlaces(mu, t)):
                    found.setdefault("pop-interlacing", [(lam, nu, mu)])
                if toggle_push(lam, t, mu, n) != nu:
                    found.setdefault("push-after-pop", [(lam, nu, mu)])
    return [
        _row(f"between-involution(parts<={max_part},len<={max_len})",
             "double toggle differs", found.get("between-involution", ())),
        _row("between-weight-law", "|T| != |lam|+|mu|-|nu|",
             found.get("between-weight-law", ())),
        _row("between-interlacing", "output not interlaced",
             found.get("between-interlacing", ())),
        _row("pop-weight-law", "|T| != |lam|+|mu|-|nu|+n",
             found.get("pop-weight-law", ())),
        _row("pop-interlacing", "pop output not interlaced",
             found.get("pop-interlacing", ())),
        _row("push-after-pop", "push(pop) differs", found.get("push-after-pop", ())),
        _row("pop-after-push", "pop(push) differs",
             ((lam, nu, mu, n) for nu in box
              for lam in above[nu] for mu in above[nu] for n in range(3)
              if toggle_pop(lam, toggle_push(lam, nu, mu, n), mu) != (nu, n))),
    ]


def suite_hook_edge(max_weight: int = 10) -> list[CheckResult]:
    lams = oc.partitions_up_to(max_weight)

    def bad_removals():
        for lam in lams:
            for corner in removable_corners(lam):
                # the corner's bottom/right edges carry labels k-1 and k,
                # where k is the vertical label of the corner's row
                k = part(lam, corner[0]) - corner[0]
                if (bd.edge_power(remove_corner(lam, corner), k - 1)
                        != bd.edge_power(lam, k) + 1):
                    yield lam, corner

    def bad_hooks():
        for lam in lams:
            conj = conjugate(lam)
            # p(k) depends on the row alone and p(l) on the column alone
            rows = [bd.edge_power(lam, part(lam, i) - i) for i in range(1, 11)]
            cols = [bd.edge_power(lam, j - 1 - part(conj, j))
                    for j in range(1, 11)]
            for i in range(1, 11):
                for j in range(1, 11):
                    total = rows[i - 1] + cols[j - 1]
                    if contains(lam, (i, j)):
                        want = -hook_length(lam, (i, j), "inside")
                    else:
                        want = hook_length(lam, (i, j), "outside")
                    if total != HalfInt.of(want):
                        yield lam, (i, j)

    return [_row(f"corner-removal(w<={max_weight})", "p_mu(k-1) != p_lam(k)+1",
                 bad_removals()),
            _row(f"hook-edge-identity(w<={max_weight},coords<=10)",
                 "p(k)+p(l) != +-h", bad_hooks())]


def suite_hook_census(max_weight: int = 10, max_hook: int = 8) -> list[CheckResult]:
    found: dict = {}
    for lam in oc.partitions_up_to(max_weight):
        for n in range(1, max_hook + 1):
            outside = bd.hook_pivots_outside(lam, n)
            inside = bd.hook_pivots_inside(lam, n)
            if len(outside) != n + len(inside):
                found.setdefault("count", [(lam, n)])
            targets = []
            for b in outside:
                t = bd.redistribute(lam, b)
                targets.append((t.region, t.cell))
                h = (hook_length(lam, t.cell, "inside") if t.region == "in-lambda"
                     else hook_length((), t.cell, "outside"))
                if h != n:
                    found.setdefault("length", [(lam, b)])
                if bd.redistribute_inverse(lam, t) != b:
                    found.setdefault("bijection", [(lam, b)])
            want = ({("in-lambda", c) for c in inside}
                    | {("in-plane", (n - r, r + 1)) for r in range(n)})
            if set(targets) != want or len(set(targets)) != len(targets):
                found.setdefault("bijection", [(lam, n)])
    return [_row(f"hook-census(w<={max_weight},n<={max_hook})",
                 "#outside != n + #inside", found.get("count", ())),
            _row("redistribute-hook-preserving", "hook changed",
                 found.get("length", ())),
            _row("redistribute-bijection", "not a bijection onto targets",
                 found.get("bijection", ()))]


# plane partitions of weight 0..6 (OEIS A000219)
PLANE_COUNTS = (1, 1, 3, 6, 13, 24, 48)


def suite_macmahon(degree: int = 12) -> list[CheckResult]:
    census = oc.census_series(oc.WeightCensus.take("plane", None, degree))
    word_eval = sr.evaluate_stable("macmahon", None, degree)
    product = sr.macmahon_series(degree)
    # the highest weight both the truncation and the stated counts reach
    k = min(degree, len(PLANE_COUNTS) - 1)
    want = PLANE_COUNTS[k]
    got = (word_eval.coefficient(k), census.coefficient(k))
    return [_row(f"box-count-word-vs-product(deg={degree})", "series differ",
                 (word_eval - product).pairs()),
            _row("box-count-vs-census", "series differ",
                 (word_eval - census).pairs()),
            _row(f"weight-{k}-count", f"expected {want}, got (word, census)",
                 [got] if got != (want, want) else [],
                 f"{got[0]} configurations")]


ONE_LEG_SHAPES = ((1,), (2, 1), (2, 2), (3, 1), (3, 2, 1))


def suite_ptdt_one_leg(degree: int = 10, shapes=ONE_LEG_SHAPES) -> list[CheckResult]:
    out = []
    m = sr.macmahon_series(degree)
    for lam in shapes:
        spp = oc.census_series(oc.WeightCensus.take("one-leg-spp", lam, degree))
        rpp = oc.census_series(oc.WeightCensus.take("one-leg-rpp", lam, degree))
        out.append(_row(f"one-leg-product(lam={lam},deg={degree})",
                        "census V != M * census W", (spp - m * rpp).pairs()))
    return out


def suite_ptdt_two_leg(degree: int = 6, leg_weight: int = 3,
                       census_bound: int = 5) -> list[CheckResult]:
    m = sr.macmahon_series(degree)
    pairs = [(lam, mu) for lam in oc.partitions_up_to(leg_weight)
             for mu in oc.partitions_up_to(leg_weight)]
    # whole series, so terms below the minimum or off-grid count
    caps = {(kind, pair): cf.minimal_weight(kind, pair) + census_bound
            for kind in ("spp", "rpp") for pair in pairs}
    # each (kind, legs) folded once, at the larger of its two bounds
    folded = {key: sr.evaluate_stable(f"two-leg-{key[0]}", key[1],
                                      max(cap, HalfInt.of(degree)))
              for key, cap in caps.items()}
    found: dict = {}
    for lam, mu in pairs:
        v = folded["spp", (lam, mu)].truncate(2 * degree)
        w = folded["rpp", (mu, lam)].truncate(2 * degree)
        if v != m * w:
            found.setdefault("product", [(lam, mu)])
        for kind in ("spp", "rpp"):
            cap = caps[kind, (lam, mu)]
            census = oc.WeightCensus.take(f"two-leg-{kind}", (lam, mu), cap)
            residual = (folded[kind, (lam, mu)].truncate(cap.doubled)
                        - oc.census_series(census))
            if not residual.is_zero():
                found.setdefault(kind, [(lam, mu, residual.pairs())])
    return [_row(f"two-leg-product(|legs|<={leg_weight},deg={degree})",
                 "V != M * W", found.get("product", ())),
            _row(f"two-leg-spp-census(excess<={census_bound})",
                 "series != census", found.get("spp", ())),
            _row(f"two-leg-rpp-census(deficit<={census_bound})",
                 "series != census", found.get("rpp", ()))]


def suite_goldens() -> list[CheckResult]:
    pi = cf.PlanePartition.from_rows([[3, 1], [2, 1]])
    t = bj.pp_to_tableau(pi)
    want = {(1, 1): 1, (1, 2): 1, (2, 1): 2}

    sigma = cf.OneLegSPP((2, 1), {(1, 3): 3, (2, 2): 4, (2, 3): 2,
                                  (3, 1): 5, (3, 2): 3, (3, 3): 2})
    rho, pp = bj.one_leg_forward(sigma)
    ok = (cf.cfg_weight(sigma) == HalfInt.of(19)
          and rho.entries == {(1, 2): 1, (2, 1): 2}
          and pp.rows() == [[4, 2], [3, 2], [3, 2]]
          and cf.cfg_weight(rho) == HalfInt.of(3)
          and cf.cfg_weight(pp) == HalfInt.of(16)
          and bj.one_leg_inverse(rho, pp) == sigma)

    sigma2 = cf.TwoLegSPP(((2, 2), (3, 1)),
                          {(1, 1): 3, (1, 2): 2, (2, 1): 3, (2, 2): 1,
                           (2, 3): 2, (3, 1): 1, (3, 2): 1, (3, 3): 2})
    n = bj.stabilization_index(sigma2)
    rho2, pp2 = bj.two_leg_forward(sigma2)
    ok2 = (cf.cfg_weight(sigma2) == HalfInt.of(16)
           and n == 3
           and rho2.deficit == {(1, 1): 1, (1, 2): 1}
           and cf.cfg_weight(rho2) == HalfInt.of(3)
           and pp2.rows() == [[4, 3], [3, 1], [1, 1]]
           and cf.cfg_weight(pp2) == HalfInt.of(13)
           and bj.two_leg_inverse(rho2, pp2) == sigma2)
    return [_row("golden-weight-7-tableau", "tableau differs",
                 [] if t.values == want else [t.values]),
            _row("golden-one-leg-weight-19", "decomposition differs (rho, pi)",
                 [] if ok else [(rho.entries, pp.rows())]),
            _row("golden-two-leg-weight-16", "decomposition differs (N, rho, pi)",
                 [] if ok2 else [(n, rho2.deficit, pp2.rows())],
                 f"stabilises at {n}")]


def suite_bijectivity(plane_weight: int = 8, one_leg_weight: int = 8,
                      two_leg_excess: int = 5) -> list[CheckResult]:
    pps = oc.enum_plane_partitions(plane_weight)
    lam = (2, 1)
    spps = oc.enum_one_leg_spp(lam, one_leg_weight)
    planes = oc.enum_plane_partitions(5)
    legs = ((2,), (1,))
    sigmas = oc.enum_two_leg_spp(legs, two_leg_excess)
    reason = "round trip or class count failed"
    return [
        _row(f"plane-round-trip(w<={plane_weight})", reason,
             _bijection_failures(pps, bj.pp_to_tableau, bj.tableau_to_pp),
             f"{len(pps)} objects"),
        _row(f"one-leg-round-trip(lam={lam},w<={one_leg_weight})", reason,
             _bijection_failures(spps, bj.one_leg_forward,
                                 bj.one_leg_inverse), f"{len(spps)} objects"),
        # inverse direction on all (rho, pi) pairs with |rho|+|pi| <= 5
        _row("one-leg-inverse-round-trip(|rho|+|pi|<=5)", "forward(inverse) differs",
             ((rho, pi) for rho in oc.enum_one_leg_rpp(lam, 5) for pi in planes
              if sum(rho.entries.values()) + sum(pi.entries.values()) <= 5
              and bj.one_leg_forward(bj.one_leg_inverse(rho, pi)) != (rho, pi))),
        _row(f"two-leg-round-trip(legs={legs},excess<={two_leg_excess})", reason,
             _bijection_failures(sigmas, bj.two_leg_forward,
                                 bj.two_leg_inverse), f"{len(sigmas)} objects"),
    ]


def suite_schedules(max_weight: int = 6, seeds: int = 20) -> list[CheckResult]:
    """Each object's hook tableau is the same under every pop order.

    The order enters the bijections only at the pop: the one-leg forward map
    is the pop followed by `redistribute`, `tableau_to_pp` and
    `shape_tableau_to_rpp`, none of which takes an order. So the popped
    tableau is the whole of what the order can change, and comparing
    tableaux is at least as strict as comparing images. That every order
    gives the same tableau is the schedule independence of Pak's toggles
    (cited at `bijections.ToggleGrid`), checked here on the off-diagonal,
    lexicographic and `seeds` seeded orders.
    """
    plans = ([bj.ToggleSchedule("off-diagonal"), bj.ToggleSchedule("lexicographic")]
             + [bj.ToggleSchedule("seeded", seed=s) for s in range(seeds)])

    def order_failures(objects, pop):
        """(*key, kind, seed) for each (key, object) and each order whose
        tableau differs from the first order's."""
        for key, obj in objects:
            reference = pop(obj, plans[0]).values
            for plan in plans[1:]:
                if pop(obj, plan).values != reference:
                    yield *key, plan.kind, plan.seed

    planes = (((pi.entries,), pi)
              for pi in oc.enum_plane_partitions(max_weight))
    one_legs = (((lam, sigma.entries), sigma) for lam in ((1,), (2, 1))
                for sigma in oc.enum_one_leg_spp(lam, max_weight))
    return [_row(f"plane-schedule-independence(w<={max_weight},{len(plans)} orders)",
                 "tableau depends on order",
                 order_failures(planes, bj.pp_to_tableau)),
            _row(f"one-leg-schedule-independence(w<={max_weight})",
                 "output depends on order",
                 order_failures(one_legs, bj.spp_to_tableau))]


def suite_commutation(samples: int = 40, degree: int = 8, seed: int = 7
                      ) -> list[CheckResult]:
    rng = random.Random(seed)
    found: dict = {}
    for _ in range(samples):
        length = rng.randint(2, 8)
        ops = tuple(sr.step_op(rng.choice((1, -1)),
                               HalfInt(2 * rng.randint(0, 3) + 1))
                    for _ in range(length))
        word = sr.OperatorWord(ops)
        base = sr.evaluate(word, degree)
        p = rng.randrange(length - 1)
        swapped = sr.OperatorWord(ops[:p] + (ops[p + 1], ops[p]) + ops[p + 2:])
        other = sr.evaluate(swapped, degree)
        s1, s2 = ops[p][1], ops[p + 1][1]
        e1, e2 = ops[p][2], ops[p + 1][2]
        if s1 == s2:
            if base != other:
                found.setdefault("same", [(ops, p)])
        elif s1 == -1 and s2 == 1:
            # lowering-then-raising equals the commutator factor times swapped
            if base != sr.geometric(e1 + e2, degree) * other:
                found.setdefault("opposite", [(ops, p)])
        else:
            if other != sr.geometric(e1 + e2, degree) * base:
                found.setdefault("opposite", [(ops, p)])
    return [_row(f"same-sign-commutation({samples} samples)",
                 "swap changed the series", found.get("same", ())),
            _row("opposite-sign-commutation", "commutator factor wrong",
                 found.get("opposite", ()))]


def _square_grid_word(n: int) -> sr.OperatorWord:
    ops = []
    for _ in range(n):
        ops.append(sr.weigh_op(1))
        ops.append(sr.step_op(-1, 0))
    ops.append(sr.weigh_op(1))
    for _ in range(n):
        ops.append(sr.step_op(1, 0))
        ops.append(sr.weigh_op(1))
    return sr.OperatorWord(tuple(ops))


def suite_q_commutation(degree: int = 8) -> list[CheckResult]:
    return [_row(f"weighing-commutation(n<=4,deg={degree})",
                 "Q-interleaved word differs",
                 (n for n in range(1, 5)
                  if sr.evaluate(_square_grid_word(n), degree)
                  != sr.evaluate(sr.macmahon_word(n), degree)))]


def suite_cutoff_stability(degree: int = 8) -> list[CheckResult]:
    cases = [("macmahon", None), ("one-leg", (2, 1)), ("one-leg", (3, 1)),
             ("two-leg-spp", ((2,), (1,))), ("two-leg-rpp", ((2, 1), (1, 1)))]
    return [_row(f"cutoff-stability(deg={degree})", "doubling changed coefficients",
                 ((kind, legs) for kind, legs in cases
                  for c0 in [sr.initial_cutoff(kind, legs, HalfInt.of(degree))]
                  if sr.evaluate(sr.shape_word(kind, legs, c0), degree)
                  != sr.evaluate(sr.shape_word(kind, legs, 2 * c0), degree)))]


def suite_two_leg_width_stability(two_leg_excess: int = 3) -> list[CheckResult]:
    legs = oc.partitions_up_to(3)
    sigmas = [sigma for lam in legs for mu in legs
              for sigma in oc.enum_two_leg_spp((lam, mu), two_leg_excess)]
    found: dict = {}
    for sigma in sigmas:
        n = bj.stabilization_index(sigma)
        pops = bj.two_leg_remnant(sigma, 2 * n)[1].values
        if any(max(c) > n for c in pops):
            found.setdefault("settle", [(sigma.legs, sigma.excess)])
        rho, pi = bj._two_leg_forward_at(sigma, n + 1)
        if bj._two_leg_forward_at(sigma, n + 4) != (rho, pi):
            found.setdefault("forward", [(sigma.legs, sigma.excess)])
        width = bj._two_leg_inverse_width(rho, pi)
        if (bj._two_leg_inverse_at(rho, pi, width)
                != bj._two_leg_inverse_at(rho, pi, width + 3)):
            found.setdefault("inverse", [(rho.legs, rho.deficit, pi.entries)])
    bounds = f"(|legs|<=3,excess<={two_leg_excess})"
    detail = f"{len(sigmas)} fillings"
    return [_row(f"pops-settle{bounds}", "nonzero pop past [1,N]^2 in [1,2N]^2",
                 found.get("settle", ()), detail),
            _row(f"forward-width-stability{bounds}", "N+1 and N+4 differ",
                 found.get("forward", ()), detail),
            _row(f"inverse-width-stability{bounds}", "width and width+3 differ",
                 found.get("inverse", ()), detail)]


def suite_configurations() -> list[CheckResult]:
    legs_list = [((2,), (1,)), ((2, 2), (3, 1)), ((1,), (1,)), ((), (2, 1))]
    return [
        _row("minimal-config-weight", "series exponent != minimal weight",
             ((kind, legs) for legs in legs_list for kind in ("spp", "rpp")
              if sr.minimal_exponent(kind, legs) != cf.minimal_weight(kind, legs))),
        _row("deficit-reconstruction", "rebuild differs",
             (rho.deficit for rho in oc.enum_two_leg_rpp(((2,), (1,)), 5)
              if cf.TwoLegRPP(rho.legs, dict(rho.deficit)) != rho)),
        _row("adjacent-diagonals-interlace", "diagonals unrelated",
             ((sigma.excess, d) for sigma in oc.enum_two_leg_spp(((2,), (1,)), 3)
              for d in range(-4, 4)
              for a, b in [(cf.diagonal(sigma, d), cf.diagonal(sigma, d + 1))]
              if not (interlaces(a, b) or interlaces(b, a)))),
    ]


def suite_oracle(bound: int = 10) -> list[CheckResult]:
    small = oc.census_series(oc.WeightCensus.take("plane", None, 3))
    want = sr.TruncatedSeries.from_terms(HalfInt.of(3),
                                         list(enumerate(PLANE_COUNTS[:4])))
    return [_row(f"partition-counts(w<={bound})",
                 "enumeration vs pentagonal recurrence",
                 (n for n in range(bound + 1)
                  if len(oc.enum_partitions(n)) != oc.count_partitions_pentagonal(n))),
            _row("plane-counts-0-3", "census minus counts", (small - want).pairs())]


SUITES = {
    "partitions": suite_partitions,
    "toggles": suite_toggles,
    "hook-edge": suite_hook_edge,
    "hook-census": suite_hook_census,
    "macmahon": suite_macmahon,
    "ptdt-one-leg": suite_ptdt_one_leg,
    "ptdt-two-leg": suite_ptdt_two_leg,
    "goldens": suite_goldens,
    "bijectivity": suite_bijectivity,
    "schedules": suite_schedules,
    "commutation": suite_commutation,
    "q-commutation": suite_q_commutation,
    "cutoff-stability": suite_cutoff_stability,
    "two-leg-width-stability": suite_two_leg_width_stability,
    "configurations": suite_configurations,
    "oracle": suite_oracle,
}


def suite_parameters(names) -> dict[str, tuple[str, ...]]:
    """{suite: the bounds it takes} for the named suites (or all)."""
    if names in (None, "all"):
        names = sorted(SUITES)
    if isinstance(names, str):
        names = [names]
    for name in names:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}")
    codes = {name: SUITES[name].__code__ for name in names}
    return {name: code.co_varnames[:code.co_argcount]
            for name, code in codes.items()}


def refuse_unread(names, keys, label=str) -> None:
    """Raise DomainError, naming it as label(key), at the first of keys that
    no named suite takes."""
    taken = set().union(*suite_parameters(names).values())
    for key in keys:
        if key not in taken:
            raise DomainError(f"{label(key)} is read by no requested suite")


def run_suites(names, **overrides) -> list[CheckResult]:
    """Run the named suites (or all), one after another, each with the
    overrides it takes; rows come back in suite-name order. An override
    that no named suite takes raises DomainError before any suite runs."""
    refuse_unread(names, overrides)
    jobs = [(name, SUITES[name], {k: v for k, v in overrides.items()
                                  if k in taken})
            for name, taken in suite_parameters(names).items()]
    results = [(name, fn(**kw)) for name, fn, kw in jobs]
    merged = []
    for name, rows in sorted(results, key=lambda r: r[0]):
        for row in rows:
            row.name = f"{name}/{row.name}"
            merged.append(row)
    return merged
