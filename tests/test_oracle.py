import ast
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pptoggle.configurations import WALL, TwoLegSPP, cfg_weight
from pptoggle.errors import DomainError
from pptoggle.halfint import HalfInt
from pptoggle import oracle
from pptoggle.oracle import (WeightCensus, _base_weight, _count, _family,
                             _fill, _run_fillings, _runs, census_series,
                             count_partitions_pentagonal,
                             enum_configs, enum_one_leg_rpp, enum_one_leg_spp,
                             enum_partitions, enum_plane_partitions,
                             enum_two_leg_rpp, enum_two_leg_spp,
                             partitions_up_to, weighed_members)
from pptoggle.partitions import part
from pptoggle.serialize import config_to_json
from pptoggle.series import geometric, hook_product, macmahon_series


def brute_plane_partitions_in_box(side, max_weight):
    """Independent fill of a side x side x side box, cell order fixed."""
    cells = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]

    def rec(idx, grid, left):
        if idx == len(cells):
            yield dict(grid)
            return
        i, j = cells[idx]
        up = grid.get((i - 1, j), 0) if i > 1 else max_weight
        west = grid.get((i, j - 1), 0) if j > 1 else max_weight
        cap = min(up, west, left)
        for v in range(cap + 1):
            if v:
                grid[(i, j)] = v
            yield from rec(idx + 1, grid, left - v)
            grid.pop((i, j), None)

    return list(rec(0, {}, max_weight))


def test_enum_partitions():
    assert enum_partitions(0) == [()]
    assert len(enum_partitions(4)) == 5
    assert len(enum_partitions(10)) == 42
    for n in range(13):
        assert len(enum_partitions(n)) == count_partitions_pentagonal(n)
    assert enum_partitions(3) == sorted(enum_partitions(3))


def test_enum_partitions_bound():
    with pytest.raises(DomainError):
        enum_partitions(41)


def test_partitions_up_to_refuses_the_requested_weight():
    # the cap is checked before weights 0..40 are enumerated, and the
    # message names the weight asked for, not the first one past the cap
    with pytest.raises(DomainError, match="capped at weight 40: 400$"):
        partitions_up_to(400)


def test_plane_partition_counts_small():
    # the census and the enumeration share one walk, so the members are
    # checked against a fill of their own: every plane partition of weight
    # <= 6 fits in a box of side 6
    got = enum_plane_partitions(6)
    brute = brute_plane_partitions_in_box(6, 6)
    assert len(got) == len(brute)
    assert ({frozenset(pp.entries.items()) for pp in got}
            == {frozenset(grid.items()) for grid in brute})
    by_weight = {}
    for pp in got:
        w = sum(pp.entries.values())
        by_weight[w] = by_weight.get(w, 0) + 1
    assert [by_weight.get(k, 0) for k in range(7)] == [1, 1, 3, 6, 13, 24, 48]


def test_one_leg_spp_census_matches_hook_product():
    census = census_series(WeightCensus.take("one-leg-spp", (2, 1), 5))
    assert census == hook_product("outside", (2, 1), 5)


def test_one_leg_rpp_census_matches_shape_hooks():
    census = census_series(WeightCensus.take("one-leg-rpp", (2, 1), 6))
    product = geometric(1, 6) * geometric(1, 6) * geometric(3, 6)
    assert census == product
    for lam in ((2, 1), (3, 1), (2, 2), (3, 2, 1)):
        census = census_series(WeightCensus.take("one-leg-rpp", lam, 6))
        assert census == hook_product("inside", lam, 6)


def test_two_leg_minimal_only_config():
    sigmas = enum_two_leg_spp(((2, 2), (3, 1)), 0)
    assert sigmas == [TwoLegSPP(((2, 2), (3, 1)))]


def test_two_leg_counts_saturate():
    # extending the enumeration budget must not change the small counts
    small = {cfg_weight(s) for s in enum_two_leg_spp(((2,), (1,)), 3)}
    big = [s for s in enum_two_leg_spp(((2,), (1,)), 4)
           if s.excess_weight() <= 3]
    assert len(big) == len(enum_two_leg_spp(((2,), (1,)), 3))
    assert {cfg_weight(s) for s in big} == small
    rpps3 = enum_two_leg_rpp(((2,), (1,)), 3)
    rpps4 = [r for r in enum_two_leg_rpp(((2,), (1,)), 4)
             if r.deficit_weight() <= 3]
    assert len(rpps3) == len(rpps4)


def test_census_series_and_plane_identity():
    census = WeightCensus.take("plane", None, 6)
    assert census_series(census) == macmahon_series(6)
    empty = WeightCensus("plane", None, {}, HalfInt.of(4))
    assert census_series(empty).is_zero()


def test_enum_configs_dispatch():
    assert enum_configs("plane", None, 2) == enum_plane_partitions(2)
    assert enum_configs("one-leg-rpp", (1,), 2) == enum_one_leg_rpp((1,), 2)
    with pytest.raises(DomainError):
        enum_configs("nonsense", None, 2)


CAP_MESSAGES = {
    "plane": "plane-partition enumeration capped at weight 12",
    "one-leg-spp": "one-leg enumeration capped at weight 12",
    "one-leg-rpp": "one-leg enumeration capped at weight 12",
    "two-leg-spp": "two-leg enumeration capped at excess 8",
    "two-leg-rpp": "two-leg enumeration capped at deficit 8"}


@pytest.mark.parametrize("kind, legs, cap", [
    ("plane", None, 12), ("one-leg-spp", (1,), 12), ("one-leg-rpp", (1,), 12),
    ("two-leg-spp", ((1,), (1,)), 8), ("two-leg-rpp", ((1,), (1,)), 8)])
def test_enumeration_is_capped(kind, legs, cap):
    message = CAP_MESSAGES[kind]
    with pytest.raises(DomainError, match=message):
        enum_configs(kind, legs, cap + 1)
    # the census counts up to the same cost over the family's base weight
    base = _base_weight(kind, legs)
    with pytest.raises(DomainError, match=message):
        WeightCensus.take(kind, legs, base + cap + 1)
    assert WeightCensus.take(kind, legs, base + cap).counts


SHAPES = partitions_up_to(3)
FAMILIES = st.one_of(
    st.just(("plane", None)),
    st.tuples(st.sampled_from(["one-leg-spp", "one-leg-rpp"]),
              st.sampled_from(SHAPES)),
    st.tuples(st.sampled_from(["two-leg-spp", "two-leg-rpp"]),
              st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES))))


@settings(max_examples=150, deadline=None)
@given(FAMILIES, st.integers(0, 6), st.integers(-1, 13))
def test_count_matches_the_enumeration(family, budget, doubled):
    kind, legs = family
    cells, zero, _ = _family(kind, legs, budget)
    enumerated = Counter(_fill(cells, zero, budget,
                               lambda costs: sum(costs.values())))
    counted = _count(cells, zero, budget)
    assert {k: n for k, n in enumerate(counted) if n} == enumerated
    # the census counts what the members' own weights tally, key for key
    bound = _base_weight(kind, legs) + HalfInt(doubled)
    want = Counter(w for w, _ in weighed_members(kind, legs, bound))
    counts = WeightCensus.take(kind, legs, bound).counts
    assert counts == want and all(counts.values())


def _support(cfg) -> dict:
    return next(cells for cells in (getattr(cfg, name, None) for name in
                                    ("entries", "excess", "deficit"))
                if cells is not None)


def test_the_cone_rule_keeps_exactly_the_cells_members_use():
    # a cell is kept iff some member is nonzero there: the rule prunes no
    # cell a member needs, and keeps none that is 0 in every member
    cases = ([("plane", None, budget) for budget in range(8)]
             + [(kind, lam, budget) for kind in ("one-leg-spp", "one-leg-rpp")
                for lam in partitions_up_to(4) for budget in range(6)]
             + [(kind, (lam, mu), budget)
                for kind in ("two-leg-spp", "two-leg-rpp")
                for lam in SHAPES for mu in SHAPES for budget in range(5)])
    assert len(cases) == 642
    for kind, legs, budget in cases:
        cells, zero, _ = _family(kind, legs, budget)
        kept = {x for run, _ in _runs(cells, zero, budget) for x in run}
        used = {x for cfg in enum_configs(kind, legs, budget)
                for x in _support(cfg)}
        assert kept == used, (kind, legs, budget)


def box_band(kind, legs, budget):
    """The band each family scanned before its band grew from the level's
    corners, written out as a reference: a box per family, each side
    `budget` cells past where its level last changes, in row order, and for
    the two-leg RPP only the cells under a positive ceiling."""
    if kind == "one-leg-rpp":
        return [(i, j) for i in range(len(legs), 0, -1)
                for j in range(legs[i - 1], max(0, legs[i - 1] - budget), -1)]
    if kind in ("plane", "one-leg-spp"):
        lam = legs or ()
        return [(i, j) for i in range(1, len(lam) + budget + 1)
                for j in range(part(lam, i) + 1, part(lam, i) + budget + 1)]
    lam, mu = legs
    if kind == "two-leg-spp":
        return [(i, j) for i in range(1, len(mu) + budget + 1)
                for j in range(1, len(lam) + budget + 1)]
    zero = _family(kind, legs, 0)[1]
    return [(i, j) for i in range(len(mu), -budget, -1)
            for j in range(len(lam), -budget, -1)
            if 0 < zero.at(i, j) < WALL]


def test_the_corner_band_keeps_the_box_band_table():
    # growing each band from its level's corners changes what `_runs`
    # scans, never what it returns: the same runs, cells and caps
    cases = ([("plane", None, budget) for budget in range(7)]
             + [(kind, lam, budget) for kind in ("one-leg-spp", "one-leg-rpp")
                for lam in partitions_up_to(4) for budget in range(7)]
             + [(kind, (lam, mu), budget)
                for kind in ("two-leg-spp", "two-leg-rpp")
                for lam in SHAPES for mu in SHAPES for budget in range(6)])
    assert len(cases) == 763
    for kind, legs, budget in cases:
        cells, zero, _ = _family(kind, legs, budget)
        assert (_runs(cells, zero, budget)
                == _runs(box_band(kind, legs, budget), zero, budget)), (
                    kind, legs, budget)


@pytest.mark.parametrize("kind", ["two-leg-spp", "two-leg-rpp"])
def test_a_two_leg_band_grows_with_the_corners_not_the_legs(kind):
    # legs of 1,500 rows of 1 have two corners each: their box held 2.26
    # million cells, of which the cone rule kept a handful
    leg = (1,) * 1500
    cells, _, _ = _family(kind, (leg, leg), 2)
    assert len(cells) <= 50


def test_oracle_is_independent_of_series_and_bijections():
    source = Path(__file__).resolve().parents[1] / "src/pptoggle/oracle.py"
    imported: dict[str, set] = {}
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module is None:  # from . import x
                for name in names:
                    imported.setdefault(name, set())
            else:
                module = node.module.removeprefix("pptoggle.")
                imported.setdefault(module, set()).update(names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.name.removeprefix("pptoggle."), set())
    assert not {"bijections", "toggles", "boundary"} & set(imported)
    assert imported["series"] == {"TruncatedSeries"}


def test_enumeration_is_deterministic():
    a = enum_one_leg_spp((1,), 4)
    b = enum_one_leg_spp((1,), 4)
    assert a == b


# every member of every family at small bounds, in enumeration order, and
# every census count: a verify row names the first counterexample in
# enumeration order, so a rewrite of the walk must keep the order too
ORACLE_PIN = "a7f0d6237355e55b2afea6263e50e5b8d859b06e1d50e456e94bf753ecbbba68"
PINNED_FAMILIES = ([("plane", None, 7)]
                   + [(kind, lam, 6) for kind in ("one-leg-spp", "one-leg-rpp")
                      for lam in partitions_up_to(3)]
                   + [(kind, (lam, mu), 3)
                      for kind in ("two-leg-spp", "two-leg-rpp")
                      for lam in partitions_up_to(2)
                      for mu in partitions_up_to(2)])


def _pinned_rows():
    for kind, legs, budget in PINNED_FAMILIES:
        members = [config_to_json(c) for c in enum_configs(kind, legs, budget)]
        bound = _base_weight(kind, legs) + HalfInt(2 * budget + 1)
        counts = sorted((w.doubled, n) for w, n in
                        WeightCensus.take(kind, legs, bound).counts.items())
        yield json.dumps([kind, legs, members, counts], sort_keys=True)


def test_members_and_counts_match_the_pin():
    blob = "\n".join(_pinned_rows()).encode()
    assert hashlib.sha256(blob).hexdigest() == ORACLE_PIN


def _partials_by_run(kind, legs, budget):
    """(spec, partials) for each run of a family's walk: partials counts, by
    (last run's costs, spent), the partial fillings with budget left that
    reach the run. The walk is the ungrouped one, which fills the run once
    for each of them."""
    cells, zero, _ = _family(kind, legs, budget)
    partials, out = Counter({((), 0): 1}), []
    for _, spec in _runs(cells, zero, budget):
        partials = Counter({key: n for key, n in partials.items()
                            if key[1] < budget})
        out.append((spec, partials))
        grown = Counter()
        for (prev, spent), n in partials.items():
            for costs, c in _run_fillings(spec, prev, budget - spent):
                grown[costs, spent + c] += n
        partials = grown
    return out


def test_a_run_filled_within_more_holds_the_fillings_within_less():
    # the grouped walks fill a run once, at the budget left by the least
    # spent partial, and hand each partial the fillings within its own:
    # exact when those are the larger fill's fillings of total <= its
    # budget, in the same order
    states = 0
    for kind, legs, budget in PINNED_FAMILIES:
        for spec, partials in _partials_by_run(kind, legs, budget):
            for prev in {prev for prev, _ in partials}:
                states += 1
                for big in range(budget + 1):
                    made = _run_fillings(spec, prev, big)
                    for small in range(big + 1):
                        assert (_run_fillings(spec, prev, small)
                                == [f for f in made if f[1] <= small]), (
                                    kind, legs, spec, prev, small, big)
    assert states == 642  # over 176 runs


@pytest.mark.parametrize("walk", ["count", "fill"])
@pytest.mark.parametrize("kind, legs, budget", [
    ("one-leg-spp", (2, 1), 8), ("two-leg-spp", ((2, 1), (1, 1)), 5)])
def test_each_run_is_filled_once_per_last_run_state(monkeypatch, walk, kind,
                                                     legs, budget):
    index, calls = {}, []

    def runs_spy(*args):
        table = _runs(*args)
        index.update((id(spec), r) for r, (_, spec) in enumerate(table))
        return table

    def run_fillings_spy(spec, prev, left):
        calls.append((index[id(spec)], prev))
        return _run_fillings(spec, prev, left)

    monkeypatch.setattr(oracle, "_runs", runs_spy)
    monkeypatch.setattr(oracle, "_run_fillings", run_fillings_spy)
    cells, zero, make = _family(kind, legs, budget)
    if walk == "count":
        oracle._count(cells, zero, budget)
    else:
        oracle._fill(cells, zero, budget, make)
    ungrouped = _partials_by_run(kind, legs, budget)
    states = {(r, prev) for r, (_, partials) in enumerate(ungrouped)
              for prev, _ in partials}
    assert len(calls) == len(set(calls)) and set(calls) == states
    # the ungrouped walk fills once per partial
    assert len(calls) < sum(sum(partials.values())
                            for _, partials in ungrouped)
