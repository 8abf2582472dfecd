"""Invariant suites: every identity the package claims, run at desk scale.

Each suite returns CheckResult rows; a failed row names the invariant and the
smallest counterexample found. The CLI `verify` verb and the acceptance tests
both drive these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bijections as bj
from . import boundary as bd
from . import configurations as cf
from . import oracle as oc
from . import series as sr
from .halfint import HalfInt
from .partitions import (conjugate, contains, hook_cells,
                         hook_length, interlaces, interlacers_below,
                         outer_corners, part, removable_corners, remove_corner,
                         weight)
from .toggles import toggle_between, toggle_pop, toggle_push


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    counterexample: object = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.counterexample!r}]" if self.counterexample is not None else ""
        return f"{status} {self.name}: {self.detail}{extra}"


def _ok(name, detail=""):
    return CheckResult(name, True, detail)


def _fail(name, detail, counterexample=None):
    return CheckResult(name, False, detail, counterexample)


# ---------------------------------------------------------------------------

def suite_partitions(max_weight: int = 12) -> list[CheckResult]:
    out = []
    bad = next((lam for lam in oc.partitions_up_to(max_weight)
                if conjugate(conjugate(lam)) != lam), None)
    out.append(_ok(f"conjugate-involution(w<={max_weight})") if bad is None
               else _fail("conjugate-involution", "conjugate twice differs", bad))

    bad = None
    for lam in oc.partitions_up_to(10):
        for i in range(1, 9):
            for j in range(1, 9):
                region = "inside" if contains(lam, (i, j)) else "outside"
                if hook_length(lam, (i, j), region) != len(hook_cells(lam, (i, j))):
                    bad = (lam, (i, j))
                    break
    out.append(_ok("hook-vs-cells(w<=10,coords<=8)") if bad is None
               else _fail("hook-vs-cells", "arm+leg+1 disagrees with cell set", bad))

    bad = None
    for lam in oc.partitions_up_to(10):
        cs = outer_corners(lam)
        parts_distinct = len(set(lam)) + 1
        if len(cs) != parts_distinct or any(contains(lam, c) for c in cs):
            bad = lam
            break
        for a in cs:
            for b in cs:
                if a != b and a[0] <= b[0] and a[1] <= b[1]:
                    bad = lam
        if bad:
            break
    out.append(_ok("outer-corners(w<=10)") if bad is None
               else _fail("outer-corners", "corner list malformed", bad))

    bad = None
    for nu in oc.partitions_up_to(6):
        for mu in interlacers_below(nu):
            for lam in interlacers_below(mu):
                # side-by-side diagonals nu, mu, lam must satisfy the
                # decreasing-rows/columns inequalities
                for i in range(1, len(nu) + 2):
                    if not (part(nu, i) >= part(mu, i) >= part(nu, i + 1)
                            and part(mu, i) >= part(lam, i) >= part(mu, i + 1)):
                        bad = (nu, mu, lam, i)
    out.append(_ok("interlacing-placement(w<=6)") if bad is None
               else _fail("interlacing-placement", "inequality fails", bad))
    return out


def suite_toggles(max_part: int = 4, max_len: int = 4) -> list[CheckResult]:
    box = [lam for lam in oc.partitions_up_to(max_part * max_len)
           if len(lam) <= max_len and part(lam, 1) <= max_part]
    out = []
    bad_inv = bad_weight = bad_rel = None
    for nu in box:
        for mu in interlacers_below(nu):
            for lam in [p for p in box if interlaces(p, nu)]:
                t = toggle_between(lam, nu, mu)
                if toggle_between(lam, t, mu) != nu:
                    bad_inv = (lam, nu, mu)
                if weight(t) != weight(lam) + weight(mu) - weight(nu):
                    bad_weight = (lam, nu, mu)
                if not (interlaces(lam, t) and interlaces(t, mu)):
                    bad_rel = (lam, nu, mu)
    out.append(_ok(f"between-involution(parts<={max_part},len<={max_len})")
               if bad_inv is None else
               _fail("between-involution", "double toggle differs", bad_inv))
    out.append(_ok("between-weight-law") if bad_weight is None else
               _fail("between-weight-law", "|T| != |lam|+|mu|-|nu|", bad_weight))
    out.append(_ok("between-interlacing") if bad_rel is None else
               _fail("between-interlacing", "output not interlaced", bad_rel))

    bad_pop = bad_push = bad_poplaw = bad_poprel = None
    for nu in box:
        for lam in interlacers_below(nu):
            for mu in interlacers_below(nu):
                t, n = toggle_pop(lam, nu, mu)
                if n < 0 or weight(t) != weight(lam) + weight(mu) - weight(nu) + n:
                    bad_poplaw = (lam, nu, mu)
                if not (interlaces(lam, t) and interlaces(mu, t)):
                    bad_poprel = (lam, nu, mu)
                if toggle_push(lam, t, mu, n) != nu:
                    bad_pop = (lam, nu, mu)
    for nu in box:
        for lam in [p for p in box if interlaces(p, nu)]:
            for mu in [p for p in box if interlaces(p, nu)]:
                for n in range(3):
                    t = toggle_push(lam, nu, mu, n)
                    if toggle_pop(lam, t, mu) != (nu, n):
                        bad_push = (lam, nu, mu, n)
    out.append(_ok("pop-weight-law") if bad_poplaw is None else
               _fail("pop-weight-law", "|T| != |lam|+|mu|-|nu|+n", bad_poplaw))
    out.append(_ok("pop-interlacing") if bad_poprel is None else
               _fail("pop-interlacing", "pop output not interlaced", bad_poprel))
    out.append(_ok("push-after-pop") if bad_pop is None else
               _fail("push-after-pop", "push(pop) differs", bad_pop))
    out.append(_ok("pop-after-push") if bad_push is None else
               _fail("pop-after-push", "pop(push) differs", bad_push))
    return out


def suite_hook_edge(max_weight: int = 10) -> list[CheckResult]:
    out = []
    bad = None
    for lam in oc.partitions_up_to(max_weight):
        for corner in removable_corners(lam):
            mu = remove_corner(lam, corner)
            # the corner's bottom/right edges carry labels k-1 and k, where
            # k is the vertical label of the corner's row
            i, j = corner
            k = part(lam, i) - i
            if bd.edge_power(mu, k - 1) != bd.edge_power(lam, k) + 1:
                bad = (lam, corner)
    out.append(_ok(f"corner-removal(w<={max_weight})") if bad is None else
               _fail("corner-removal", "p_mu(k-1) != p_lam(k)+1", bad))

    bad = None
    for lam in oc.partitions_up_to(max_weight):
        conj = conjugate(lam)
        for i in range(1, 11):
            for j in range(1, 11):
                k = part(lam, i) - i
                ell = j - 1 - part(conj, j)
                total = bd.edge_power(lam, k) + bd.edge_power(lam, ell)
                if contains(lam, (i, j)):
                    want = -hook_length(lam, (i, j), "inside")
                else:
                    want = hook_length(lam, (i, j), "outside")
                if total != HalfInt.of(want):
                    bad = (lam, (i, j))
    out.append(_ok(f"hook-edge-identity(w<={max_weight},coords<=10)")
               if bad is None else
               _fail("hook-edge-identity", "p(k)+p(l) != +-h", bad))
    return out


def suite_hook_census(max_weight: int = 10, max_hook: int = 8) -> list[CheckResult]:
    out = []
    bad_count = bad_bij = bad_len = None
    for lam in oc.partitions_up_to(max_weight):
        for n in range(1, max_hook + 1):
            outside = bd.hook_pivots_outside(lam, n)
            inside = bd.hook_pivots_inside(lam, n)
            if len(outside) != n + len(inside):
                bad_count = (lam, n)
            targets = []
            for b in outside:
                t = bd.redistribute(lam, b)
                targets.append((t.region, t.cell))
                h = (hook_length(lam, t.cell, "inside") if t.region == "in-lambda"
                     else hook_length((), t.cell, "outside"))
                if h != n:
                    bad_len = (lam, b)
                if bd.redistribute_inverse(lam, t) != b:
                    bad_bij = (lam, b)
            want = ({("in-lambda", c) for c in inside}
                    | {("in-plane", (n - r, r + 1)) for r in range(n)})
            if set(targets) != want or len(set(targets)) != len(targets):
                bad_bij = bad_bij or (lam, n)
    out.append(_ok(f"hook-census(w<={max_weight},n<={max_hook})")
               if bad_count is None else
               _fail("hook-census", "#outside != n + #inside", bad_count))
    out.append(_ok("redistribute-hook-preserving") if bad_len is None else
               _fail("redistribute-hook-preserving", "hook changed", bad_len))
    out.append(_ok("redistribute-bijection") if bad_bij is None else
               _fail("redistribute-bijection", "not a bijection onto targets",
                     bad_bij))
    return out


def suite_macmahon(degree: int = 12) -> list[CheckResult]:
    out = []
    census = oc.census_series(oc.WeightCensus.take("plane", None, degree))
    word_eval = sr.evaluate_stable("macmahon", None, degree)
    product = sr.macmahon_series(degree)
    out.append(_ok(f"box-count-word-vs-product(deg={degree})")
               if word_eval == product else
               _fail("box-count-word-vs-product", "series differ",
                     (word_eval - product).pairs()))
    out.append(_ok("box-count-vs-census") if word_eval == census else
               _fail("box-count-vs-census", "series differ",
                     (word_eval - census).pairs()))
    got = word_eval.coefficient(6)
    want = census.coefficient(6)
    out.append(_ok("weight-6-count", f"{got} configurations")
               if got == want and got == 48 else
               _fail("weight-6-count", f"expected 48, got {got} vs census {want}"))
    return out


ONE_LEG_SHAPES = ((1,), (2, 1), (2, 2), (3, 1), (3, 2, 1))


def suite_ptdt_one_leg(degree: int = 10, shapes=ONE_LEG_SHAPES) -> list[CheckResult]:
    out = []
    m = sr.macmahon_series(degree)
    for lam in shapes:
        spp = oc.census_series(oc.WeightCensus.take("one-leg-spp", lam, degree))
        rpp = oc.census_series(oc.WeightCensus.take("one-leg-rpp", lam, degree))
        residual = spp - m * rpp
        name = f"one-leg-product(lam={lam},deg={degree})"
        out.append(_ok(name) if residual.is_zero() else
                   _fail(name, "census V != M * census W", residual.pairs()))
    return out


def suite_ptdt_two_leg(degree: int = 6, leg_weight: int = 3,
                       census_bound: int = 5) -> list[CheckResult]:
    out = []
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
    bad_identity = None
    bad_census = {"spp": None, "rpp": None}
    for lam, mu in pairs:
        v = folded["spp", (lam, mu)].truncate(2 * degree)
        w = folded["rpp", (mu, lam)].truncate(2 * degree)
        if v != m * w:
            bad_identity = bad_identity or (lam, mu)
        for kind in bad_census:
            cap = caps[kind, (lam, mu)]
            census = oc.WeightCensus.take(f"two-leg-{kind}", (lam, mu), cap)
            residual = (folded[kind, (lam, mu)].truncate(cap.doubled)
                        - oc.census_series(census))
            if not residual.is_zero():
                bad_census[kind] = (bad_census[kind]
                                    or (lam, mu, residual.pairs()))
    out.append(_ok(f"two-leg-product(|legs|<={leg_weight},deg={degree})")
               if bad_identity is None else
               _fail("two-leg-product", "V != M * W", bad_identity))
    out.append(_ok(f"two-leg-spp-census(excess<={census_bound})")
               if bad_census["spp"] is None else
               _fail("two-leg-spp-census", "series != census", bad_census["spp"]))
    out.append(_ok(f"two-leg-rpp-census(deficit<={census_bound})")
               if bad_census["rpp"] is None else
               _fail("two-leg-rpp-census", "series != census", bad_census["rpp"]))
    return out


def suite_goldens() -> list[CheckResult]:
    out = []

    pi = cf.PlanePartition.from_rows([[3, 1], [2, 1]])
    t = bj.pp_to_tableau(pi)
    want = {(1, 1): 1, (1, 2): 1, (2, 1): 2}
    out.append(_ok("golden-weight-7-tableau") if t.values == want else
               _fail("golden-weight-7-tableau", f"got {t.values}"))

    sigma = cf.OneLegSPP((2, 1), {(1, 3): 3, (2, 2): 4, (2, 3): 2,
                                  (3, 1): 5, (3, 2): 3, (3, 3): 2})
    rho, pp = bj.one_leg_forward(sigma)
    ok = (cf.cfg_weight(sigma) == HalfInt.of(19)
          and rho.entries == {(1, 2): 1, (2, 1): 2}
          and pp.rows() == [[4, 2], [3, 2], [3, 2]]
          and cf.cfg_weight(rho) == HalfInt.of(3)
          and cf.cfg_weight(pp) == HalfInt.of(16)
          and bj.one_leg_inverse(rho, pp) == sigma)
    out.append(_ok("golden-one-leg-weight-19") if ok else
               _fail("golden-one-leg-weight-19",
                     f"rho={rho.entries} pi={pp.rows()}"))

    sigma2 = cf.TwoLegSPP(((2, 2), (3, 1)),
                          {(1, 1): 3, (1, 2): 2, (2, 1): 3, (2, 2): 1,
                           (2, 3): 2, (3, 1): 1, (3, 2): 1, (3, 3): 2})
    n = bj.stabilization_index(sigma2)
    rho2, pp2 = bj.two_leg_forward(sigma2)
    ok = (cf.cfg_weight(sigma2) == HalfInt.of(16)
          and n == 3
          and rho2.deficit == {(1, 1): 1, (1, 2): 1}
          and cf.cfg_weight(rho2) == HalfInt.of(3)
          and pp2.rows() == [[4, 3], [3, 1], [1, 1]]
          and cf.cfg_weight(pp2) == HalfInt.of(13)
          and bj.two_leg_inverse(rho2, pp2) == sigma2)
    out.append(_ok("golden-two-leg-weight-16", f"stabilises at {n}") if ok else
               _fail("golden-two-leg-weight-16",
                     f"N={n} rho={rho2.deficit} pi={pp2.rows()}"))
    return out


def suite_bijectivity(plane_weight: int = 8, one_leg_weight: int = 8,
                      two_leg_excess: int = 5) -> list[CheckResult]:
    out = []

    pps = oc.enum_plane_partitions(plane_weight)
    bad = None
    images: dict[int, set] = {}
    for pi in pps:
        t = bj.pp_to_tableau(pi)
        w = sum(pi.entries.values())
        if t.hook_weight() != w or bj.tableau_to_pp(t) != pi:
            bad = pi
            break
        images.setdefault(w, set()).add(frozenset(t.values.items()))
    counts_ok = all(len(images.get(w, ())) == sum(
        1 for p in pps if sum(p.entries.values()) == w)
        for w in range(plane_weight + 1))
    out.append(_ok(f"plane-round-trip(w<={plane_weight})",
                   f"{len(pps)} objects")
               if bad is None and counts_ok else
               _fail("plane-round-trip", "round trip or class count failed", bad))

    lam = (2, 1)
    spps = oc.enum_one_leg_spp(lam, one_leg_weight)
    bad = None
    seen: dict[int, set] = {}
    for sigma in spps:
        rho, pi = bj.one_leg_forward(sigma)
        w = sum(sigma.entries.values())
        if sum(rho.entries.values()) + sum(pi.entries.values()) != w:
            bad = sigma
            break
        if bj.one_leg_inverse(rho, pi) != sigma:
            bad = sigma
            break
        seen.setdefault(w, set()).add((frozenset(rho.entries.items()),
                                       frozenset(pi.entries.items())))
    counts_ok = all(len(seen.get(w, ())) == sum(
        1 for s in spps if sum(s.entries.values()) == w)
        for w in range(one_leg_weight + 1))
    out.append(_ok(f"one-leg-round-trip(lam={lam},w<={one_leg_weight})",
                   f"{len(spps)} objects")
               if bad is None and counts_ok else
               _fail("one-leg-round-trip", "round trip or class count failed",
                     getattr(bad, "entries", bad)))

    # inverse direction on all (rho, pi) pairs with |rho|+|pi| <= 5
    bad = None
    rpps = oc.enum_one_leg_rpp(lam, 5)
    planes = oc.enum_plane_partitions(5)
    for rho in rpps:
        for pi in planes:
            if sum(rho.entries.values()) + sum(pi.entries.values()) > 5:
                continue
            sigma = bj.one_leg_inverse(rho, pi)
            if bj.one_leg_forward(sigma) != (rho, pi):
                bad = (rho.entries, pi.entries)
    out.append(_ok("one-leg-inverse-round-trip(|rho|+|pi|<=5)")
               if bad is None else
               _fail("one-leg-inverse-round-trip", "forward(inverse) differs", bad))

    legs = ((2,), (1,))
    sigmas = oc.enum_two_leg_spp(legs, two_leg_excess)
    bad = None
    class_lhs: dict = {}
    class_rhs: dict = {}
    for sigma in sigmas:
        rho, pi = bj.two_leg_forward(sigma)
        w = cf.cfg_weight(sigma)
        if cf.cfg_weight(rho) + HalfInt.of(sum(pi.entries.values())) != w:
            bad = sigma
            break
        if bj.two_leg_inverse(rho, pi) != sigma:
            bad = sigma
            break
        class_lhs[w] = class_lhs.get(w, 0) + 1
        class_rhs.setdefault(w, set()).add((frozenset(rho.deficit.items()),
                                            frozenset(pi.entries.items())))
    counts_ok = all(len(class_rhs.get(w, ())) == c for w, c in class_lhs.items())
    out.append(_ok(f"two-leg-round-trip(legs={legs},excess<={two_leg_excess})",
                   f"{len(sigmas)} objects")
               if bad is None and counts_ok else
               _fail("two-leg-round-trip", "round trip or class count failed",
                     getattr(bad, "excess", bad)))
    return out


def suite_schedules(max_weight: int = 6, seeds: int = 20) -> list[CheckResult]:
    out = []
    plans = ([bj.ToggleSchedule("off-diagonal"), bj.ToggleSchedule("lexicographic")]
             + [bj.ToggleSchedule("seeded", seed=s) for s in range(seeds)])
    bad = None
    for pi in oc.enum_plane_partitions(max_weight):
        reference = bj.pp_to_tableau(pi, plans[0])
        for plan in plans[1:]:
            if bj.pp_to_tableau(pi, plan).values != reference.values:
                bad = (pi.entries, plan.kind, plan.seed)
    out.append(_ok(f"plane-schedule-independence(w<={max_weight},{len(plans)} orders)")
               if bad is None else
               _fail("plane-schedule-independence", "tableau depends on order", bad))

    bad = None
    for lam in ((1,), (2, 1)):
        for sigma in oc.enum_one_leg_spp(lam, max_weight):
            reference = bj.one_leg_forward(sigma, plans[0])
            for plan in plans[1:]:
                if bj.one_leg_forward(sigma, plan) != reference:
                    bad = (lam, sigma.entries, plan.kind, plan.seed)
    out.append(_ok(f"one-leg-schedule-independence(w<={max_weight})")
               if bad is None else
               _fail("one-leg-schedule-independence", "output depends on order",
                     bad))
    return out


def suite_commutation(samples: int = 40, degree: int = 8, seed: int = 7
                      ) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    bad_opp = bad_same = None
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
                bad_same = (ops, p)
        elif s1 == -1 and s2 == 1:
            # lowering-then-raising equals the commutator factor times swapped
            if base != sr.geometric(e1 + e2, degree) * other:
                bad_opp = (ops, p)
        else:
            if other != sr.geometric(e1 + e2, degree) * base:
                bad_opp = (ops, p)
    out.append(_ok(f"same-sign-commutation({samples} samples)")
               if bad_same is None else
               _fail("same-sign-commutation", "swap changed the series", bad_same))
    out.append(_ok("opposite-sign-commutation") if bad_opp is None else
               _fail("opposite-sign-commutation", "commutator factor wrong",
                     bad_opp))
    return out


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


def suite_q_commutation(max_n: int = 4, degree: int = 8) -> list[CheckResult]:
    out = []
    bad = None
    for n in range(1, max_n + 1):
        with_q = sr.evaluate(_square_grid_word(n), degree)
        shifted = sr.evaluate(sr.macmahon_word(n), degree)
        if with_q != shifted:
            bad = n
    out.append(_ok(f"weighing-commutation(n<={max_n},deg={degree})")
               if bad is None else
               _fail("weighing-commutation", "Q-interleaved word differs", bad))
    return out


def suite_cutoff_stability(degree: int = 8) -> list[CheckResult]:
    out = []
    bad = None
    cases = [("macmahon", None), ("one-leg", (2, 1)), ("one-leg", (3, 1)),
             ("two-leg-spp", ((2,), (1,))), ("two-leg-rpp", ((2, 1), (1, 1)))]
    for kind, legs in cases:
        c0 = sr.initial_cutoff(kind, legs, HalfInt.of(degree))
        a = sr.evaluate(sr.shape_word(kind, legs, c0), degree)
        b = sr.evaluate(sr.shape_word(kind, legs, 2 * c0), degree)
        if a != b:
            bad = (kind, legs)
    out.append(_ok(f"cutoff-stability(deg={degree})") if bad is None else
               _fail("cutoff-stability", "doubling changed coefficients", bad))
    return out


def suite_two_leg_width_stability(two_leg_excess: int = 4) -> list[CheckResult]:
    legs = ((2,), (1,))
    bad_settle = bad_fwd = bad_inv = None
    for sigma in oc.enum_two_leg_spp(legs, two_leg_excess):
        n = bj.stabilization_index(sigma)
        pops = bj._pop_region(bj._two_leg_grid(sigma), (), 2 * n, 2 * n,
                              bj.DEFAULT_SCHEDULE)
        if any(max(c) > n for c in pops):
            bad_settle = bad_settle or sigma.excess
        rho, pi = bj._two_leg_forward_at(sigma, n + 1)
        if bj._two_leg_forward_at(sigma, n + 4) != (rho, pi):
            bad_fwd = bad_fwd or sigma.excess
        width = bj._two_leg_inverse_width(rho, pi)
        if (bj._two_leg_inverse_at(rho, pi, width)
                != bj._two_leg_inverse_at(rho, pi, width + 3)):
            bad_inv = bad_inv or (rho.deficit, pi.entries)
    return [_ok(f"pops-settle(legs={legs},excess<={two_leg_excess})")
            if bad_settle is None else
            _fail("pops-settle", "nonzero pop past [1,N]^2 in [1,2N]^2",
                  bad_settle),
            _ok(f"forward-width-stability(legs={legs},excess<={two_leg_excess})")
            if bad_fwd is None else
            _fail("forward-width-stability", "N+1 and N+4 differ", bad_fwd),
            _ok("inverse-width-stability") if bad_inv is None else
            _fail("inverse-width-stability", "width and width+3 differ", bad_inv)]


def suite_configurations(bound: int = 8) -> list[CheckResult]:
    out = []
    legs_list = [((2,), (1,)), ((2, 2), (3, 1)), ((1,), (1,)), ((), (2, 1))]
    bad_min = None
    for legs in legs_list:
        for kind in ("spp", "rpp"):
            cfg, low = cf.minimal_config(kind, legs)
            if cf.cfg_weight(cfg) != low or cf.minimal_weight(kind, legs) != low:
                bad_min = (kind, legs)
    out.append(_ok("minimal-config-weight") if bad_min is None else
               _fail("minimal-config-weight",
                     "series exponent != telescoped weight", bad_min))

    bad_t = bad_round = None
    for rho in oc.enum_two_leg_rpp(((2,), (1,)), min(bound, 5)):
        flipped = cf.transpose(rho)
        if (cf.cfg_weight(flipped) != cf.cfg_weight(rho)
                or cf.transpose(flipped) != rho):
            bad_t = rho.deficit
        rebuilt = cf.TwoLegRPP(rho.legs, dict(rho.deficit))
        if rebuilt != rho:
            bad_round = rho.deficit
    out.append(_ok("transpose-involution-weight") if bad_t is None else
               _fail("transpose-involution-weight", "transpose broke", bad_t))
    out.append(_ok("deficit-reconstruction") if bad_round is None else
               _fail("deficit-reconstruction", "rebuild differs", bad_round))

    bad_diag = None
    for sigma in oc.enum_two_leg_spp(((2,), (1,)), 3):
        for d in range(-4, 4):
            a, b = cf.diagonal(sigma, d), cf.diagonal(sigma, d + 1)
            if not (interlaces(a, b) or interlaces(b, a)):
                bad_diag = (sigma.excess, d)
    out.append(_ok("adjacent-diagonals-interlace") if bad_diag is None else
               _fail("adjacent-diagonals-interlace", "diagonals unrelated",
                     bad_diag))
    return out


def suite_oracle(bound: int = 10) -> list[CheckResult]:
    out = []
    bad = next((n for n in range(bound + 1)
                if len(oc.enum_partitions(n)) != oc.count_partitions_pentagonal(n)),
               None)
    out.append(_ok(f"partition-counts(w<={bound})") if bad is None else
               _fail("partition-counts", "recursion vs recurrence", bad))

    small = oc.census_series(oc.WeightCensus.take("plane", None, 3))
    want = sr.TruncatedSeries.from_terms(HalfInt.of(3),
                                         [(HalfInt.of(k), c)
                                          for k, c in enumerate((1, 1, 3, 6))])
    out.append(_ok("plane-counts-0-3") if small == want else
               _fail("plane-counts-0-3", f"got {small.pairs()}"))
    return out


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


def run_suites(names, **overrides) -> list[CheckResult]:
    """Run the named suites (or all), one after another; rows come back in
    suite-name order."""
    if names in (None, "all"):
        names = sorted(SUITES)
    if isinstance(names, str):
        names = [names]
    if names == ["none"]:
        return []
    jobs = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        fn = SUITES[name]
        kwargs = {k: v for k, v in overrides.items()
                  if k in fn.__code__.co_varnames[:fn.__code__.co_argcount]}
        jobs.append((name, fn, kwargs))
    results = [(name, fn(**kw)) for name, fn, kw in jobs]
    merged = []
    for name, rows in sorted(results, key=lambda r: r[0]):
        for row in rows:
            row.name = f"{name}/{row.name}"
            merged.append(row)
    return merged
