import random

import pytest

from pptoggle import bijections, toggles
from pptoggle.bijections import (ToggleSchedule, one_leg_forward,
                                 one_leg_inverse, pp_to_tableau,
                                 spp_to_tableau, stabilization_index,
                                 tableau_to_pp, tableau_to_spp,
                                 two_leg_forward, two_leg_inverse)
from pptoggle.boundary import redistribute
from pptoggle.configurations import (HookTableau, OneLegRPP, OneLegSPP,
                                     PlanePartition, TwoLegSPP, cfg_weight,
                                     diagonals)
from pptoggle.errors import DomainError, InvariantError, ScheduleError
from pptoggle.halfint import HalfInt
from pptoggle.oracle import (enum_one_leg_rpp, enum_one_leg_spp,
                             enum_plane_partitions, enum_two_leg_spp,
                             partitions_up_to)
from pptoggle.partitions import part
from pptoggle.verify import run_suites

FIG_SIGMA = OneLegSPP((2, 1), {(1, 3): 3, (2, 2): 4, (2, 3): 2,
                               (3, 1): 5, (3, 2): 3, (3, 3): 2})
FIG_TWOLEG = TwoLegSPP(((2, 2), (3, 1)),
                       {(1, 1): 3, (1, 2): 2, (2, 1): 3, (2, 2): 1,
                        (2, 3): 2, (3, 1): 1, (3, 2): 1, (3, 3): 2})


def test_weight_7_map():
    pi = PlanePartition.from_rows([[3, 1], [2, 1]])
    t = pp_to_tableau(pi)
    assert t.values == {(1, 1): 1, (1, 2): 1, (2, 1): 2}
    assert t.hook_weight() == 7


def test_empty_maps_to_empty():
    assert pp_to_tableau(PlanePartition()).values == {}
    assert tableau_to_pp(HookTableau("plane", ())).entries == {}


def test_single_cell_tableau_untoggles_to_column():
    for k in (1, 2, 5):
        pi = tableau_to_pp(HookTableau("plane", (), {(1, 1): k}))
        assert pi.entries == {(1, 1): k}


def test_untoggle_worked_example():
    t = HookTableau("plane", (), {(1, 1): 1, (2, 2): 2, (3, 1): 3})
    assert tableau_to_pp(t).rows() == [[4, 2], [3, 2], [3, 2]]


def test_plane_round_trip_small():
    for pi in enum_plane_partitions(4):
        t = pp_to_tableau(pi)
        assert t.hook_weight() == sum(pi.entries.values())
        assert tableau_to_pp(t) == pi


def test_one_leg_worked_example():
    t = spp_to_tableau(FIG_SIGMA)
    assert t.values == {(1, 3): 1, (2, 2): 1, (2, 3): 2, (3, 1): 2, (3, 2): 3}
    # the redistribution split of that tableau
    split = {cell: redistribute((2, 1), cell) for cell in t.values}
    in_shape = {tgt.cell: t.values[c] for c, tgt in split.items()
                if tgt.region == "in-lambda"}
    in_plane = {tgt.cell: t.values[c] for c, tgt in split.items()
                if tgt.region == "in-plane"}
    assert in_shape == {(1, 2): 1, (2, 1): 2}
    assert in_plane == {(1, 1): 1, (2, 2): 2, (3, 1): 3}

    rho, pi = one_leg_forward(FIG_SIGMA)
    assert rho.entries == {(1, 2): 1, (2, 1): 2}
    assert pi.rows() == [[4, 2], [3, 2], [3, 2]]
    assert sum(rho.entries.values()) + sum(pi.entries.values()) == 19
    assert one_leg_inverse(rho, pi) == FIG_SIGMA


def test_one_leg_zero_maps_to_zeros():
    rho, pi = one_leg_forward(OneLegSPP((3, 1)))
    assert rho == OneLegRPP((3, 1)) and pi == PlanePartition()
    assert one_leg_inverse(rho, pi) == OneLegSPP((3, 1))


def test_one_leg_round_trip_small():
    for sigma in enum_one_leg_spp((2, 1), 5):
        rho, pi = one_leg_forward(sigma)
        total = sum(rho.entries.values()) + sum(pi.entries.values())
        assert total == sum(sigma.entries.values())
        assert one_leg_inverse(rho, pi) == sigma


def test_one_leg_inverse_direction_small():
    planes = enum_plane_partitions(3)
    for rho in enum_one_leg_rpp((2, 1), 3):
        for pi in planes:
            if sum(rho.entries.values()) + sum(pi.entries.values()) > 3:
                continue
            sigma = one_leg_inverse(rho, pi)
            assert one_leg_forward(sigma) == (rho, pi)


def test_shape_tableau_must_lie_in_the_shape():
    # a cell past the shape, or off the quadrant, would turn to a cell off
    # the shape's bounding rectangle
    for values in ({(2, 2): 1}, {(0, 1): 1}):
        with pytest.raises(DomainError):
            bijections.shape_tableau_to_rpp((2, 1), values)


def test_spp_tableau_round_trip():
    for sigma in enum_one_leg_spp((1,), 4):
        t = spp_to_tableau(sigma)
        assert tableau_to_spp(t) == sigma


def test_schedules_agree():
    pi = PlanePartition.from_rows([[3, 2, 1], [2, 2], [1]])
    base = pp_to_tableau(pi).values
    for plan in (ToggleSchedule("lexicographic"),
                 ToggleSchedule("seeded", seed=5),
                 ToggleSchedule.parse("seeded:11")):
        assert pp_to_tableau(pi, plan).values == base


def _reference_order(schedule, shape, rows, cols):
    """Each schedule's order of [1,rows]x[1,cols] outside shape, built
    directly: sorted by diagonal or lexicographically, or, for a seeded
    schedule, each next corner drawn from Random(seed)."""
    region = [(i, j) for i in range(1, rows + 1)
              for j in range(part(shape, i) + 1, cols + 1)]
    if schedule.kind == "off-diagonal":
        return tuple(sorted(region, key=lambda c: (c[0] + c[1], c[0])))
    if schedule.kind == "lexicographic":
        return tuple(sorted(region))
    rng, extra, order = random.Random(schedule.seed), [0] * (rows + 1), []
    while len(order) < len(region):
        avail = []
        for i in range(1, rows + 1):
            j = part(shape, i) + extra[i] + 1
            if j <= cols and (i == 1 or part(shape, i - 1) + extra[i - 1] >= j):
                avail.append((i, j))
        cell = avail[rng.randrange(len(avail))]
        order.append(cell)
        extra[cell[0]] += 1
    return tuple(order)


def test_every_schedule_reads_one_order_memo():
    plans = ([ToggleSchedule("off-diagonal"), ToggleSchedule("lexicographic")]
             + [ToggleSchedule.parse(f"seeded:{s}") for s in range(5)])
    for plan in plans:
        for shape in partitions_up_to(3):
            for rows in range(5):
                for cols in range(5):
                    order = plan.order(shape, rows, cols)
                    assert order == _reference_order(plan, shape, rows, cols)
                    region = {(i, j) for i in range(1, rows + 1)
                              for j in range(part(shape, i) + 1, cols + 1)}
                    assert len(order) == len(region) and set(order) == region
                    at = {cell: k for k, cell in enumerate(order)}
                    for (i, j), k in at.items():
                        assert at.get((i - 1, j), -1) < k
                        assert at.get((i, j - 1), -1) < k
                    assert plan.order(shape, rows, cols) is order
    # an unknown kind is refused on every call, not only on the first
    for _ in range(2):
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            ToggleSchedule("bogus").order((), 2, 2)


def test_list_shape_is_accepted():
    # shapes built in Python may be lists; the seeded order memo must not
    # require them to be hashable
    entries = {(1, 2): 2, (2, 1): 1, (2, 2): 1}
    want = spp_to_tableau(OneLegSPP((1,), entries))
    for plan in (ToggleSchedule(), ToggleSchedule("seeded", seed=3)):
        t = spp_to_tableau(OneLegSPP([1], entries), plan)
        assert t.values == want.values
        assert tableau_to_spp(t).entries == entries


def test_list_shapes_and_legs_round_trip():
    # a shape or legs given as lists are stored as partitions, so the
    # inverse returns an object equal to the one given, and the two-leg
    # window compares its end diagonals with the legs as tuples
    e = {(1, 3): 2, (2, 2): 1, (3, 1): 1}
    sigma = OneLegSPP([2, 1], e)
    assert one_leg_inverse(*one_leg_forward(sigma)) == sigma
    listed = TwoLegSPP(([2], [1]), {(1, 1): 1})
    assert two_leg_forward(listed) == two_leg_forward(
        TwoLegSPP(((2,), (1,)), {(1, 1): 1}))
    assert two_leg_inverse(*two_leg_forward(listed)) == listed


def test_grid_refuses_out_of_order_pop_and_push():
    pi = PlanePartition.from_rows([[2, 1], [1]])
    grid = bijections.ToggleGrid((), diagonals(pi, range(-2, 3)))
    with pytest.raises(ScheduleError, match="not a poppable corner"):
        grid.pop(2, 2)  # before its upper and left neighbours
    with pytest.raises(ScheduleError, match="not pushable"):
        grid.push(1, 1, 0)  # nothing popped yet
    grid.pop(1, 1)
    grid.pop(2, 1)
    with pytest.raises(ScheduleError, match="still popped"):
        grid.push(1, 1, 2)  # before the cell below it


def test_schedule_parse_rejects_unknown():
    with pytest.raises(ScheduleError):
        ToggleSchedule.parse("sideways")


def test_stabilization_examples():
    assert stabilization_index(FIG_TWOLEG) == 3
    assert stabilization_index(TwoLegSPP(((2, 2), (3, 1)))) == 2
    assert stabilization_index(TwoLegSPP(((), ()))) == 1


def test_two_leg_worked_example():
    rho, pi = two_leg_forward(FIG_TWOLEG)
    assert pi.rows() == [[4, 3], [3, 1], [1, 1]]
    assert rho.legs == ((2, 2), (3, 1))
    assert rho.deficit == {(1, 1): 1, (1, 2): 1}
    assert cfg_weight(rho) == HalfInt.of(3)
    assert cfg_weight(rho) + sum(pi.entries.values()) == cfg_weight(FIG_TWOLEG)
    assert two_leg_inverse(rho, pi) == FIG_TWOLEG


def test_two_leg_width_stability_suite():
    # wider windows than the stated ones give the same images
    # and the pops past [1,N]^2 settle to zero
    rows = run_suites(["two-leg-width-stability"])
    assert rows and all(row.passed for row in rows)
    assert any(row.name.startswith("two-leg-width-stability/pops-settle(")
               for row in rows)


def test_two_leg_minimal_maps_to_minimal():
    sigma = TwoLegSPP(((2,), (1, 1)))
    rho, pi = two_leg_forward(sigma)
    assert pi == PlanePartition()
    assert rho.deficit == {}
    assert two_leg_inverse(rho, pi) == sigma


def test_two_leg_round_trip_small():
    for sigma in enum_two_leg_spp(((1,), (1,)), 3):
        rho, pi = two_leg_forward(sigma)
        assert cfg_weight(rho) + sum(pi.entries.values()) == cfg_weight(sigma)
        assert two_leg_inverse(rho, pi) == sigma


def _toggle_every_slot(chain, slots, width):
    """The palindromic pass with no skip: every slot toggles its diagonal."""
    for p in slots:
        left, mid, right = chain[p:p + 3]
        chain[p + 1] = (toggles.toggle_between(left, mid, right) if p < width
                        else toggles.toggle_between(right, mid, left))


def test_the_palindromic_pass_skips_equal_triples(monkeypatch):
    # toggle_between leaves three equal diagonals as they are, so the pass
    # skips them; on legs of 200 rows of 1 every slot is such a triple
    calls = []

    def spy(*args):
        calls.append(args)
        return toggles.toggle_between(*args)

    monkeypatch.setattr(bijections, "_between_step", spy)
    for legs, toggled in [(((1,) * 200, (1,) * 200), 0),
                          (((3, 2) + (1,) * 200, (2,) + (1,) * 150), 9027)]:
        sigma = TwoLegSPP(legs, {(1, 1): 2})
        calls.clear()
        rho, pi = two_leg_forward(sigma)
        assert len(calls) == toggled
        calls.clear()
        assert two_leg_inverse(rho, pi) == sigma
        assert len(calls) == toggled


def test_the_palindromic_pass_equals_a_pass_without_skips(monkeypatch):
    # on every filling with legs of weight <= 2 and excess <= 3, in both
    # directions, the chain each pass leaves is the one that toggling
    # every slot leaves
    passes = []
    skipping = bijections._toggle_slots

    def compared(chain, slots, width):
        slots = tuple(slots)
        expected = list(chain)
        _toggle_every_slot(expected, slots, width)
        skipping(chain, slots, width)
        assert chain == expected
        passes.append(width)

    monkeypatch.setattr(bijections, "_toggle_slots", compared)
    fillings = [sigma for lam in partitions_up_to(2)
                for mu in partitions_up_to(2)
                for sigma in enum_two_leg_spp((lam, mu), 3)]
    for sigma in fillings:
        assert two_leg_inverse(*two_leg_forward(sigma)) == sigma
    assert len(passes) == 2 * len(fillings)


def test_two_leg_inverse_direction_small():
    lam, mu = (1,), (1,)
    planes = enum_plane_partitions(2)
    from pptoggle.oracle import enum_two_leg_rpp
    for rho in enum_two_leg_rpp((lam, mu), 2):
        for pi in planes:
            sigma = two_leg_inverse(rho, pi)
            assert two_leg_forward(sigma) == (rho, pi)


def test_split_weight_consistency():
    # hook weight splits exactly across the redistribution targets
    for sigma in enum_one_leg_spp((2, 1), 4) + [FIG_SIGMA]:
        t = spp_to_tableau(sigma)
        lam = sigma.shape
        in_shape = in_plane = 0
        for cell, v in t.values.items():
            tgt = redistribute(lam, cell)
            h = t.cell_hook(cell)
            if tgt.region == "in-lambda":
                in_shape += v * h
            else:
                in_plane += v * h
        assert t.hook_weight() == in_shape + in_plane
        rho, pi = one_leg_forward(sigma)
        assert sum(rho.entries.values()) == in_shape
        assert sum(pi.entries.values()) == in_plane


def test_remnant_diagonals_stay_constant():
    # after the stabilised square is popped, popping a much larger square
    # leaves the near-centre diagonals unchanged
    from pptoggle.bijections import DEFAULT_SCHEDULE, _two_leg_grid
    sigma = FIG_TWOLEG
    n = stabilization_index(sigma)

    def chain_at(width):
        grid = _two_leg_grid(sigma, width)
        for cell in DEFAULT_SCHEDULE.order((), width, width):
            grid.pop(*cell)
        return [grid.diag(d) for d in range(-width, width + 1)]

    small = chain_at(n)
    large = chain_at(3 * n)
    # the diagonals at a fixed distance from either window edge are frozen
    for k in range(n + 1):
        assert small[k] == large[k]
        assert small[2 * n - k] == large[6 * n - k]
    # and the middle has gone constant
    center = large[3 * n]
    assert all(p == center for p in large[2:6 * n - 1])


def test_two_leg_remnant_structure():
    from pptoggle.bijections import two_leg_remnant
    n = stabilization_index(FIG_TWOLEG)
    window, tab = two_leg_remnant(FIG_TWOLEG, n)
    # diagonals -n..n, the legs at either end and (1, 1) in the centre
    assert len(window) == 2 * n + 1
    assert window[0] == FIG_TWOLEG.legs[0]
    assert window[-1] == FIG_TWOLEG.legs[1]
    assert window[n] == (1, 1)
    # the popped tableau carries the plane-partition part of the weight
    assert tab.hook_weight() == 13


def test_two_leg_windows_are_sized_by_the_legs_lengths(monkeypatch):
    # past a leg's length each diagonal equals the leg, whatever the size of
    # its parts, so a part of 10^9 widens neither map's window: both are
    # 2 wide here, and the spy fails on a wider read before it runs
    width = 2
    read = bijections.diagonals

    def spy(cfg, ds):
        assert len(ds) <= 2 * width + 1, f"{len(ds)} diagonals asked for"
        return read(cfg, ds)

    monkeypatch.setattr(bijections, "diagonals", spy)
    sigma = TwoLegSPP(((10 ** 9,), (1,)), {(1, 1): 1})
    assert stabilization_index(sigma) + 1 == width
    rho, pi = two_leg_forward(sigma)
    assert (rho.deficit, pi.entries) == ({}, {(1, 1): 1})
    assert two_leg_inverse(rho, pi) == sigma


def test_push_box_is_sized_by_the_support(monkeypatch):
    # a huge value on a small support must not grow the push grid, and a
    # one-row or one-column support must not grow a push or pop box into a
    # square: the spy fails on the requested rows or columns before any cell
    # list is built
    bound = {"rows": 0, "cols": 0}
    order = ToggleSchedule.order

    def spy(self, shape, rows, cols):
        assert rows <= bound["rows"] and cols <= bound["cols"], (
            f"push box {rows}x{cols} exceeds the support's "
            f"{bound['rows']}x{bound['cols']}")
        return order(self, shape, rows, cols)

    monkeypatch.setattr(ToggleSchedule, "order", spy)
    big = 10 ** 6
    bound.update(rows=1, cols=1)
    pi = tableau_to_pp(HookTableau("plane", (), {(1, 1): big}))
    assert pi.entries == {(1, 1): big}
    bound.update(rows=2, cols=3)
    t = HookTableau("outside", (2, 1), {(1, 3): big, (2, 2): 1})
    sigma = tableau_to_spp(t)
    assert sum(sigma.entries.values()) == t.hook_weight()
    bound.update(rows=1, cols=300)
    pi = tableau_to_pp(HookTableau("plane", (), {(1, 300): 1}))
    assert pi.entries == {(1, j): 1 for j in range(1, 301)}
    bound.update(rows=300, cols=1)
    assert pp_to_tableau(PlanePartition.from_rows([[1]] * 300)).values == {
        (300, 1): 1}


def _old_stabilization_index(sigma):
    # the search the stated index replaced: a fresh grid per n, popping
    # [1,2n]^2 in canonical order until no pop past [1,n]^2 is nonzero
    from pptoggle.bijections import DEFAULT_SCHEDULE, _two_leg_grid
    lam, mu = sigma.legs
    n = max([len(lam), len(mu), 1] + [max(c) for c in sigma.excess])
    while True:
        grid = _two_leg_grid(sigma, 2 * n)
        if not any(grid.pop(*cell) and max(cell) > n
                   for cell in DEFAULT_SCHEDULE.order((), 2 * n, 2 * n)):
            return n
        n += 1


def test_stated_index_matches_the_search():
    from pptoggle.bijections import _two_leg_forward_at
    from pptoggle.oracle import partitions_up_to
    legs = partitions_up_to(2)
    count = 0
    for lam in legs:
        for mu in legs:
            for sigma in enum_two_leg_spp((lam, mu), 4):
                n = _old_stabilization_index(sigma)
                assert stabilization_index(sigma) == n
                assert two_leg_forward(sigma) == _two_leg_forward_at(sigma, n + 1)
                count += 1
    assert count == 942  # every filling with legs of weight <= 2, excess <= 4


def test_forward_checks_its_window_edge(monkeypatch):
    # one short of the true index 3, the window [1,3]^2 pops 1 at (3, 1)
    monkeypatch.setattr(bijections, "stabilization_index", lambda sigma: 2)
    with pytest.raises(AssertionError, match="past the stabilised square"):
        two_leg_forward(FIG_TWOLEG)


def test_window_edge_failure_names_its_counterexample(monkeypatch):
    monkeypatch.setattr(bijections, "stabilization_index", lambda sigma: 2)
    with pytest.raises(InvariantError) as failure:
        two_leg_forward(FIG_TWOLEG)
    offending = (FIG_TWOLEG.legs, FIG_TWOLEG.excess)
    assert failure.value.counterexample == offending
    assert str(failure.value) == ("nonzero pop past the stabilised square: "
                                  f"{offending!r}")


def test_a_window_narrower_than_the_legs_is_an_invariant_failure():
    # at width 1 the end diagonals of legs ((1,), (1, 1, 1)) are not yet the
    # legs; no loop is failing to converge, the caller picked the width
    sigma = TwoLegSPP(((1,), (1, 1, 1)))
    rho, pi = two_leg_forward(sigma)
    with pytest.raises(InvariantError, match="pop window too small"):
        bijections._two_leg_forward_at(sigma, 1)
    with pytest.raises(InvariantError, match="window too small"):
        bijections._two_leg_inverse_at(rho, pi, 1)
    assert bijections._two_leg_inverse_at(rho, pi, 2) == sigma


def test_a_two_leg_square_over_the_box_cap_is_refused():
    # each map checks its square where it builds the grid, so a public
    # call at a chosen width is capped like the maps' own widths
    from pptoggle.bijections import two_leg_remnant
    sigma = TwoLegSPP(((1,), (1,)), {(1, 1): 1})
    rho, pi = two_leg_forward(sigma)
    with pytest.raises(DomainError, match="300x300 box .* over the cap"):
        two_leg_remnant(sigma, 300)
    with pytest.raises(DomainError, match="300x300 box .* over the cap"):
        bijections._two_leg_inverse_at(rho, pi, 300)


# ---------------------------------------------------------------------------
# the grid's step memos

STEP_MEMOS = (bijections._pop_step, bijections._push_step,
              bijections._between_step)
INVALID_STEPS = [(bijections._pop_step, ((1,), (), (1,))),
                 (bijections._push_step, ((), (1,), (), 0)),
                 (bijections._push_step, ((1,), (), (1,), -1)),
                 (bijections._between_step, ((), (1,), ()))]


@pytest.mark.parametrize("step, args", INVALID_STEPS,
                         ids=["pop", "push", "push-negative", "between"])
def test_an_invalid_step_raises_on_every_call(step, args):
    # lru_cache keeps no exceptions, so the kernel's check runs each time,
    # also once valid steps have filled the memo
    step.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError):
            step(*args)
    rho, pi = two_leg_forward(FIG_TWOLEG)
    assert two_leg_inverse(rho, pi) == FIG_TWOLEG
    assert step.cache_info().currsize > 0
    for _ in range(2):
        with pytest.raises(DomainError):
            step(*args)


def _plane_trips():
    """Each plane partition of weight <= 6 popped under every schedule of
    the schedules suite, with its tableau pushed back."""
    plans = ([ToggleSchedule("off-diagonal"), ToggleSchedule("lexicographic")]
             + [ToggleSchedule("seeded", seed=s) for s in range(20)])
    trips = []
    for pi in enum_plane_partitions(6):
        for plan in plans:
            t = pp_to_tableau(pi, plan)
            trips.append((pi, t.values, tableau_to_pp(t)))
    return trips


def test_cold_and_warm_step_memos_agree_with_the_kernel(monkeypatch):
    for memo in STEP_MEMOS:
        memo.cache_clear()
    cold = _plane_trips()
    hits = bijections._pop_step.cache_info().hits
    warm = _plane_trips()
    assert bijections._pop_step.cache_info().hits > hits
    monkeypatch.setattr(bijections, "_pop_step", toggles.toggle_pop)
    monkeypatch.setattr(bijections, "_push_step", toggles.toggle_push)
    assert cold == warm == _plane_trips()
    assert all(back == pi for pi, _, back in cold)


def test_a_step_memo_runs_the_kernel_by_its_module_name_on_a_miss(
        monkeypatch):
    # so a probe put in place of bijections.toggle_pop sees every toggle
    # computed, and a repeat is not computed again
    calls = []

    def spy(*args):
        calls.append(args)
        return toggles.toggle_pop(*args)

    monkeypatch.setattr(bijections, "toggle_pop", spy)
    bijections._pop_step.cache_clear()
    pi = PlanePartition.from_rows([[3, 2, 1], [2, 2], [1]])
    t = pp_to_tableau(pi)
    assert calls and len(set(calls)) == len(calls)
    computed = len(calls)
    assert pp_to_tableau(pi) == t and len(calls) == computed


def test_no_memo_on_the_public_toggles():
    # the memos' bounds are checked for every lru_cache in test_tooling
    for kernel in (toggles.toggle_pop, toggles.toggle_push,
                   toggles.toggle_between):
        assert not hasattr(kernel, "cache_info")
