"""Seeded job lists for the four workloads, and the checks on their outputs.

Each job is one call into pptoggle's public API. The checks run after the
timed loop and compare every output with a path that does not go through the
code being timed: reference hook products, the product identity between
paired outputs, round trips, and the verify suites' own PASS rows.

Job inputs are stratified so that a seed changes which shapes, objects and
degrees run but hardly changes the total amount of work: wall times from
different seeds are then comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref
from pptoggle import bijections as bj
from pptoggle import configurations as cf
from pptoggle import oracle as oc
from pptoggle import series as sr
from pptoggle import verify as vf
from pptoggle.halfint import HalfInt

# Every callable is reached through its module at call time, so probes
# installed for a traced pass see the calls.


@dataclass
class Job:
    kind: str
    legs: object
    run: Callable[[], object]
    bound2: int = 0
    items: Callable[[object], int] = lambda out: 1


@dataclass
class Plan:
    jobs: list[Job]
    check: Callable[[list], list[bool]]
    canon: Callable[[Job, object], object]
    warm_up: Callable[[], object]


def _partitions(max_weight: int, min_weight: int = 0):
    return [p for p in ref.partitions_up_to(max_weight) if sum(p) >= min_weight]


def _by_weight(parts):
    out: dict[int, list] = {}
    for p in parts:
        out.setdefault(sum(p), []).append(p)
    return out


def _half_of_each_class(rng, max_weight: int):
    """About half of the leg pairs (lam, mu) with |lam|, |mu| <= max_weight,
    sampled within each (|lam|, |mu|) class so that every class is present."""
    by_w = _by_weight(_partitions(max_weight))
    pairs = []
    for a in sorted(by_w):
        for b in sorted(by_w):
            cls = [(lam, mu) for lam in by_w[a] for mu in by_w[b]]
            pairs.extend(rng.sample(cls, math.ceil(len(cls) / 2)))
    return pairs


def _oriented_pairs(rng, max_weight: int):
    """Each unordered leg pair {lam, mu} with |lam|, |mu| <= max_weight once,
    as (lam, mu) or (mu, lam) by the seed."""
    parts = _partitions(max_weight)
    return [(lam, mu) if lam == mu or rng.random() < 0.5 else (mu, lam)
            for i, lam in enumerate(parts) for mu in parts[i:]]


def _balanced(rng, values, n):
    """n values cycling through `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _series_dict(ser) -> dict:
    return {e: c for e, c in ser.coeffs.items() if c}


def _census_dict(census) -> dict:
    return {w.doubled: c for w, c in census.counts.items() if c}


PARTNER = {"two-leg-spp": "two-leg-rpp", "two-leg-rpp": "two-leg-spp"}


def _product_identity(jobs, got) -> list[bool]:
    """Checks each output series (a dict, or None if the job raised).

    Pure shapes are compared with hook products. A two-leg job and its
    partner pass together iff V(lam, mu) = M * W(mu, lam), with M the
    MacMahon series; that needs no transfer step and no enumeration.
    """
    index = {(j.kind, j.legs, j.bound2): k for k, j in enumerate(jobs)}
    ok = []
    for job, out in zip(jobs, got):
        b2 = job.bound2
        if job.kind in PARTNER:
            lam, mu = job.legs
            other = got[index[(PARTNER[job.kind], (mu, lam), b2)]]
            if out is None or other is None:
                ok.append(False)
                continue
            v, w = (out, other) if job.kind == "two-leg-spp" else (other, out)
            out, want = v, ref.mul(ref.macmahon(b2), w, b2)
        elif out is None:
            ok.append(False)
            continue
        elif job.kind in ("macmahon", "plane"):
            want = ref.macmahon(b2)
        elif job.kind in ("one-leg", "one-leg-spp"):
            want = ref.hook_product(ref.outside_hooks(job.legs, b2 // 2), b2)
        else:  # one-leg-rpp
            want = ref.hook_product(ref.inside_hooks(job.legs), b2)
        ok.append(ref.truncated(out, b2) == want)
    return ok


# ---------------------------------------------------------------------------
# series: distinct shape words through evaluate_stable

def series_plan(rng: random.Random) -> Plan:
    def word(kind, legs, bound2):
        return Job(kind, legs,
                   lambda: sr.evaluate_stable(kind, legs, HalfInt(bound2)),
                   bound2)

    jobs = [word("macmahon", None, 2 * rng.choice((7, 8)))]
    by_w = _by_weight(_partitions(3, 1))
    jobs += [word("one-leg", rng.choice(by_w[w]), 8) for w in (1, 2, 3)]
    pairs = _half_of_each_class(rng, 3)
    for (lam, mu), b2 in zip(pairs, _balanced(rng, (7, 8), len(pairs))):
        jobs.append(word("two-leg-spp", (lam, mu), b2))
        jobs.append(word("two-leg-rpp", (mu, lam), b2))
    rng.shuffle(jobs)

    def check(outputs):
        got = [None if o is None else _series_dict(o) for o in outputs]
        return _product_identity(jobs, got)

    def canon(job, out):
        return [out.bound2, sorted(out.coeffs.items())]

    def warm_up():
        return sr.evaluate(sr.OperatorWord((sr.step_op(1, HalfInt(1)),)), 1)

    return Plan(jobs, check, canon, warm_up)


# ---------------------------------------------------------------------------
# census: WeightCensus.take over all five families

def census_plan(rng: random.Random) -> Plan:
    def census(kind, legs, bound2):
        return Job(kind, legs,
                   lambda: oc.WeightCensus.take(kind, legs, HalfInt(bound2)),
                   bound2, lambda out: sum(out.counts.values()))

    jobs = [census("plane", None, 2 * b) for b in rng.sample((7, 8, 9), 2)]
    by_w = _by_weight(_partitions(4, 1))
    for w, n in ((1, 1), (2, 1), (3, 2), (4, 2)):
        jobs += [census("one-leg-spp", lam, 12) for lam in rng.sample(by_w[w], n)]
    by_w = _by_weight(_partitions(6, 3))
    jobs += [census("one-leg-rpp", rng.choice(by_w[w]), 20) for w in (3, 4, 5, 6)]
    for lam, mu in _oriented_pairs(rng, 3):
        b2 = (cf.minimal_weight("spp", (lam, mu)) + 5).doubled
        jobs.append(census("two-leg-spp", (lam, mu), b2))
        jobs.append(census("two-leg-rpp", (mu, lam), b2))
    rng.shuffle(jobs)

    def check(outputs):
        got = [None if o is None else _census_dict(o) for o in outputs]
        return _product_identity(jobs, got)

    def canon(job, out):
        return [job.bound2, sorted(_census_dict(out).items())]

    def warm_up():
        return oc.WeightCensus.take("plane", None, 1)

    return Plan(jobs, check, canon, warm_up)


# ---------------------------------------------------------------------------
# biject: random objects, forward then inverse

def _grow(rng, cells_of, value, weight, store):
    """Add `weight` units one at a time, each at a uniformly chosen cell where
    one more unit keeps rows and columns weakly decreasing."""
    vals: dict = {}
    for _ in range(weight):
        options = [c for c in cells_of(vals)
                   if value(vals, *c) + 1 <= min(value(vals, c[0] - 1, c[1]),
                                                 value(vals, c[0], c[1] - 1))]
        cell = rng.choice(options)
        vals[cell] = vals.get(cell, 0) + 1
    return store(vals)


def _frontier(vals, start):
    cells = set(start)
    for (i, j) in vals:
        cells.update(((i, j), (i + 1, j), (i, j + 1)))
    return sorted(cells)


WALL = 1 << 60


def random_plane_partition(rng, weight):
    def value(vals, i, j):
        return WALL if i < 1 or j < 1 else vals.get((i, j), 0)

    return _grow(rng, lambda vals: _frontier(vals, [(1, 1)]), value, weight,
                 cf.PlanePartition)


def random_one_leg_spp(rng, lam, weight):
    def inside(i, j):
        return i < 1 or j < 1 or j <= (lam[i - 1] if i <= len(lam) else 0)

    def value(vals, i, j):
        return WALL if inside(i, j) else vals.get((i, j), 0)

    corners = [(i, (lam[i - 1] if i <= len(lam) else 0) + 1)
               for i in range(1, len(lam) + 2)]
    return _grow(rng, lambda vals: _frontier(vals, corners), value, weight,
                 lambda vals: cf.OneLegSPP(lam, vals))


def random_two_leg_spp(rng, legs, excess):
    lam, mu = legs

    def value(vals, i, j):
        if i < 1 or j < 1:
            return WALL
        floor = max(lam[j - 1] if j <= len(lam) else 0,
                    mu[i - 1] if i <= len(mu) else 0)
        return floor + vals.get((i, j), 0)

    reach = max(len(lam), len(mu), lam[0] if lam else 0, mu[0] if mu else 0) + 1
    box = [(i, j) for i in range(1, reach + 1) for j in range(1, reach + 1)]
    return _grow(rng, lambda vals: _frontier(vals, box), value, excess,
                 lambda vals: cf.TwoLegSPP(legs, vals))


def biject_plan(rng: random.Random) -> Plan:
    def schedule():
        # a quarter of forward calls pop in a seeded random order
        return (bj.ToggleSchedule("seeded", seed=rng.randrange(1 << 30))
                if rng.random() < 0.25 else bj.ToggleSchedule())

    def plane_job(pi, plan):
        def run():
            t = bj.pp_to_tableau(pi, plan)
            return t, bj.tableau_to_pp(t)
        return Job("plane", pi, run)

    def one_leg_job(sigma, plan):
        def run():
            rho, pi = bj.one_leg_forward(sigma, plan)
            return (rho, pi), bj.one_leg_inverse(rho, pi)
        return Job("one-leg", sigma, run)

    def two_leg_job(sigma):
        def run():
            rho, pi = bj.two_leg_forward(sigma)
            return (rho, pi), bj.two_leg_inverse(rho, pi)
        return Job("two-leg", sigma, run)

    shapes = _partitions(3, 1)
    legs = _partitions(2)
    jobs = []
    for _ in range(300):
        jobs.append(plane_job(random_plane_partition(rng, rng.randint(6, 14)),
                              schedule()))
        jobs.append(one_leg_job(random_one_leg_spp(rng, rng.choice(shapes),
                                                   rng.randint(4, 10)),
                                schedule()))
        jobs.append(two_leg_job(random_two_leg_spp(
            rng, (rng.choice(legs), rng.choice(legs)), rng.randint(2, 5))))
    rng.shuffle(jobs)

    def ok(job, out):
        image, back = out
        if back != job.legs:
            return False
        if job.kind == "plane":
            return (sum(v * (i + j - 1) for (i, j), v in image.values.items())
                    == sum(job.legs.entries.values()))
        rho, pi = image
        if job.kind == "one-leg":
            return (sum(job.legs.entries.values())
                    == sum(rho.entries.values()) + sum(pi.entries.values()))
        sigma = job.legs
        return (cf.minimal_weight("spp", sigma.legs) + sigma.excess_weight()
                == cf.minimal_weight("rpp", rho.legs) + rho.deficit_weight()
                + sum(pi.entries.values()))

    def check(outputs):
        return [out is not None and ok(job, out)
                for job, out in zip(jobs, outputs)]

    def canon(job, out):
        image, _ = out
        if job.kind == "plane":
            return sorted(image.values.items())
        rho, pi = image
        own = rho.entries if job.kind == "one-leg" else rho.deficit
        return [sorted(own.items()), sorted(pi.entries.items())]

    def warm_up():
        pi = cf.PlanePartition({(1, 1): 1})
        return bj.tableau_to_pp(bj.pp_to_tableau(pi))

    return Plan(jobs, check, canon, warm_up)


# ---------------------------------------------------------------------------
# gate: the acceptance criteria's suites at reduced bounds

GATE_SUITES = ("macmahon", "ptdt-one-leg", "ptdt-two-leg", "goldens",
               "bijectivity", "schedules", "toggles", "hook-edge",
               "hook-census", "commutation", "cutoff-stability")


def gate_plan(rng: random.Random) -> Plan:
    by_w = _by_weight(_partitions(4, 1))
    shapes = (rng.choice(by_w[1] + by_w[2]), rng.choice(by_w[3]),
              rng.choice(by_w[4]))
    # the fast algebraic suites (criteria 4, 6 and 8, plus commutation) share
    # one call: alone, each takes a few hundredths of a second, and the median
    # job would be one of them, at the mercy of sub-second timing noise
    calls = [
        (("macmahon",), {"degree": 8}),
        (("ptdt-one-leg",), {"degree": 7, "shapes": shapes}),
        (("ptdt-two-leg",), {"degree": 4, "leg_weight": 2, "census_bound": 4}),
        (("bijectivity",), {"plane_weight": 6, "one_leg_weight": 5,
                            "two_leg_excess": 3}),
        (("schedules",), {"max_weight": 4, "seeds": 10}),
        (("goldens", "toggles", "hook-edge", "hook-census", "commutation"),
         {"max_part": 3, "max_len": 3, "max_weight": 8, "max_hook": 6,
          "samples": 20, "degree": 6, "seed": rng.randrange(1 << 16)}),
        (("cutoff-stability",), {"degree": 4}),
    ]
    jobs = [Job("+".join(names), kwargs,
                lambda names=names, kwargs=kwargs: vf.run_suites(list(names),
                                                                 **kwargs),
                items=len)
            for names, kwargs in calls]

    def check(outputs):
        return [bool(rows) and all(r.passed for r in rows)
                for rows in (o or [] for o in outputs)]

    def canon(job, rows):
        return [r.line() for r in rows]

    def warm_up():
        return vf.run_suites(["oracle"], bound=3)

    return Plan(jobs, check, canon, warm_up)


PLANS = {"series": series_plan, "census": census_plan, "biject": biject_plan,
         "gate": gate_plan}


def build(workload: str, seed: int) -> Plan:
    return PLANS[workload](random.Random(f"{workload}:{seed}"))
