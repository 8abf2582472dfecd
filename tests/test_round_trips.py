"""Random round trips past the exhaustive bounds of the bijection suites.

Objects are grown one unit at a time, each unit going to a cell chosen by
hypothesis among those where it keeps rows and columns weakly decreasing;
tableaux are drawn directly, so most were never produced by a pop.
"""

from hypothesis import given, settings, strategies as st

from pptoggle.bijections import (DEFAULT_SCHEDULE, ToggleSchedule,
                                 one_leg_forward, one_leg_inverse,
                                 pp_to_tableau, spp_to_tableau, tableau_to_pp,
                                 tableau_to_spp, two_leg_forward,
                                 two_leg_inverse)
from pptoggle.configurations import (HookTableau, OneLegSPP, PlanePartition,
                                     TwoLegSPP, cfg_weight, two_leg_floor)
from pptoggle.halfint import HalfInt
from pptoggle.partitions import contains, part
from pptoggle.serialize import config_from_json, config_to_json

WALL = 1 << 60
SHAPES = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]  # weight <= 3
LEGS = [(), (1,), (2,), (1, 1)]  # weight <= 2
RELAXED = settings(max_examples=100, deadline=None)

schedules = st.one_of(st.just(DEFAULT_SCHEDULE),
                      st.integers(0, 1 << 20).map(
                          lambda s: ToggleSchedule("seeded", seed=s)))


def grow(picks, start, value):
    """Add one unit per pick at an addable cell: one in `start` or next to
    the support, whose value stays at most its upper and left neighbours'."""
    vals = {}
    for k in picks:
        cells = set(start)
        for (i, j) in vals:
            cells.update(((i, j), (i + 1, j), (i, j + 1)))
        options = [(i, j) for (i, j) in sorted(cells)
                   if value(vals, i, j) + 1 <= min(value(vals, i - 1, j),
                                                   value(vals, i, j - 1))]
        cell = options[k % len(options)]
        vals[cell] = vals.get(cell, 0) + 1
    return vals


def picks(max_units):
    return st.lists(st.integers(0, 1 << 10), max_size=max_units)


@st.composite
def plane_partitions(draw, max_weight=20):
    def value(vals, i, j):
        return WALL if i < 1 or j < 1 else vals.get((i, j), 0)

    return PlanePartition(grow(draw(picks(max_weight)), [(1, 1)], value))


@st.composite
def one_leg_spps(draw, max_weight=10):
    lam = draw(st.sampled_from(SHAPES))

    def value(vals, i, j):
        if i < 1 or j < 1 or contains(lam, (i, j)):
            return WALL
        return vals.get((i, j), 0)

    corners = [(i, part(lam, i) + 1) for i in range(1, len(lam) + 2)]
    return OneLegSPP(lam, grow(draw(picks(max_weight)), corners, value))


@st.composite
def two_leg_spps(draw, max_excess=6):
    legs = (draw(st.sampled_from(LEGS)), draw(st.sampled_from(LEGS)))

    def value(vals, i, j):
        if i < 1 or j < 1:
            return WALL
        return two_leg_floor(legs, i, j) + vals.get((i, j), 0)

    box = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    return TwoLegSPP(legs, grow(draw(picks(max_excess)), box, value))


@st.composite
def tableaux(draw, region):
    shape = () if region == "plane" else draw(st.sampled_from(SHAPES))
    cells = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
        lambda c: not contains(shape, c))
    values = draw(st.dictionaries(cells, st.integers(1, 5), max_size=4))
    return HookTableau(region, shape, values)


@RELAXED
@given(tableaux("plane"), schedules)
def test_plane_tableau_round_trip(t, schedule):
    pi = tableau_to_pp(t)
    assert sum(pi.entries.values()) == t.hook_weight()
    assert pp_to_tableau(pi, schedule) == t


@RELAXED
@given(tableaux("outside"), schedules)
def test_outside_tableau_round_trip(t, schedule):
    sigma = tableau_to_spp(t)
    assert sum(sigma.entries.values()) == t.hook_weight()
    assert spp_to_tableau(sigma, schedule) == t


@RELAXED
@given(plane_partitions(), schedules)
def test_plane_partition_round_trip(pi, schedule):
    t = pp_to_tableau(pi, schedule)
    assert t.hook_weight() == sum(pi.entries.values())
    assert tableau_to_pp(t) == pi


@RELAXED
@given(one_leg_spps(), schedules)
def test_one_leg_round_trip(sigma, schedule):
    rho, pi = one_leg_forward(sigma, schedule)
    assert (sum(rho.entries.values()) + sum(pi.entries.values())
            == sum(sigma.entries.values()))
    assert one_leg_inverse(rho, pi) == sigma


@RELAXED
@given(two_leg_spps())
def test_two_leg_round_trip(sigma):
    rho, pi = two_leg_forward(sigma)
    assert cfg_weight(rho) + HalfInt.of(sum(pi.entries.values())) == cfg_weight(sigma)
    assert two_leg_inverse(rho, pi) == sigma


@RELAXED
@given(plane_partitions(), one_leg_spps(), two_leg_spps(), tableaux("outside"))
def test_json_round_trip_every_type(pi, sigma, sigma2, t):
    rho, _ = one_leg_forward(sigma)
    rho2, _ = two_leg_forward(sigma2)
    for cfg in (pi, sigma, rho, sigma2, rho2, t, pp_to_tableau(pi),
                HookTableau("inside", rho.shape, dict(rho.entries))):
        assert config_from_json(config_to_json(cfg)) == cfg
