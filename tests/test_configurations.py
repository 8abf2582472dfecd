import pytest
from hypothesis import given, settings, strategies as st

from pptoggle import configurations
from pptoggle.configurations import (FILLINGS, HookTableau, OneLegRPP,
                                     OneLegSPP, PlanePartition, TwoLegRPP,
                                     TwoLegSPP, _level_diagonals, cfg_weight,
                                     diagonal, diagonals, from_diagonals,
                                     minimal_weight, two_leg_ceiling,
                                     two_leg_floor)
from pptoggle.errors import DomainError, InvariantError
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import as_partition, part
from pptoggle.halfint import HalfInt
from pptoggle.serialize import config_from_json, config_to_json
from pptoggle.series import minimal_exponent

# the weight-31 grid: rows (5,4,3,3)/(4,4,2)/(2,1)/(2,1)
BIG_PP = PlanePartition.from_rows([[5, 4, 3, 3], [4, 4, 2], [2, 1], [2, 1]])

# weight-11 filling over the floor of columns (2,2) and rows (3,1)
SPP_11 = TwoLegSPP(((2, 2), (3, 1)),
                   {(1, 1): 2, (1, 2): 1, (2, 1): 3, (2, 2): 1, (2, 3): 1,
                    (3, 1): 1, (3, 3): 1})

# weight-7 tray with six boxes removed, columns (3,1) and rows (2,2)
RPP_7 = TwoLegRPP(((3, 1), (2, 2)),
                  {(0, 1): 1, (1, 1): 1, (1, 2): 1,
                   (2, 0): 1, (2, 1): 1, (2, 2): 1})


def test_plane_partition_weight_and_diagonals():
    assert cfg_weight(BIG_PP) == HalfInt.of(31)
    assert diagonal(BIG_PP, 0) == (5, 4)
    assert diagonal(BIG_PP, 1) == (4, 2)
    assert diagonal(BIG_PP, -1) == (4, 1)
    assert diagonal(BIG_PP, -2) == (2, 1)
    assert diagonal(BIG_PP, 9) == ()


def test_side_by_side_diagonal_placement():
    # a filling whose main diagonals realise the side-by-side placement
    pp = PlanePartition.from_rows([[5, 3, 2, 1], [3, 3, 2, 1],
                                   [2, 2, 1, 1], [1, 1, 1, 1]])
    assert diagonal(pp, 0) == (5, 3, 1, 1)
    assert diagonal(pp, 1) == (3, 2, 1)


def test_plane_partition_validation():
    with pytest.raises(DomainError):
        PlanePartition({(1, 2): 1})  # increases along the row
    with pytest.raises(DomainError):
        PlanePartition({(2, 1): 3})  # increases down the column
    with pytest.raises(DomainError):
        PlanePartition({(0, 1): 1})


def test_two_leg_spp_weights():
    assert TwoLegSPP(((2, 2), (3, 1))).excess_weight() == 0
    assert cfg_weight(SPP_11) == HalfInt.of(11)
    sigma16 = TwoLegSPP(((2, 2), (3, 1)),
                        {(1, 1): 3, (1, 2): 2, (2, 1): 3, (2, 2): 1,
                         (2, 3): 2, (3, 1): 1, (3, 2): 1, (3, 3): 2})
    assert cfg_weight(sigma16) == HalfInt.of(16)


def test_two_leg_rpp_weight():
    assert cfg_weight(RPP_7) == HalfInt.of(7)
    assert cfg_weight(TwoLegRPP(((3, 1), (2, 2)))) == HalfInt.of(1)


def test_two_leg_tail_diagonals():
    lam, mu = SPP_11.legs
    assert diagonal(SPP_11, 40) == mu
    assert diagonal(SPP_11, -40) == lam
    assert diagonal(RPP_7, 40) == RPP_7.legs[0]
    assert diagonal(RPP_7, -40) == RPP_7.legs[1]


def test_one_leg_diagonals_start_outside_the_shape():
    sigma = OneLegSPP((2, 1), {(1, 3): 3, (2, 2): 4, (2, 3): 2,
                               (3, 1): 5, (3, 2): 3, (3, 3): 2})
    assert [diagonal(sigma, d) for d in range(-3, 4)] == [
        (), (5,), (3,), (4, 2), (2,), (3,), ()]


def test_all_zero_configurations():
    assert cfg_weight(OneLegSPP((2, 1))) == HalfInt.of(0)
    assert cfg_weight(PlanePartition()) == HalfInt.of(0)


def test_minimal_config_examples():
    # the zero filling weighs the lowest exponent of its series
    spp, rpp = TwoLegSPP(((2, 2), (3, 1))), TwoLegRPP(((3, 1), (2, 2)))
    assert minimal_exponent("spp", spp.legs) == cfg_weight(spp) == HalfInt.of(1)
    assert minimal_exponent("rpp", rpp.legs) == cfg_weight(rpp) == HalfInt.of(1)
    assert (minimal_exponent("spp", ((), ())) == minimal_weight("spp", ((), ()))
            == HalfInt.of(0))
    # the one-leg shape read as a column leg starts at a half step
    assert minimal_weight("spp", ((1,), ())) == HalfInt(1)


def test_minimal_weight_matches_series_exponent():
    for kind in ("spp", "rpp"):
        for legs in (((2,), (1,)), ((1, 1), (2,)), ((), (1,))):
            assert minimal_exponent(kind, legs) == minimal_weight(kind, legs)


def test_weight_of_minimal_equals_lowest_exponent():
    zero = TwoLegSPP(((2,), (1, 1)))
    assert cfg_weight(zero) == minimal_exponent("spp", zero.legs)


def telescoped_weight(kind, legs):
    """The zero filling's weight as a telescope over its level diagonals:
    the step between diagonals n and n+1 costs (2n+1)/2 per unit of size
    difference, outward from the centre on both sides, with the filling's
    sign. Past a leg's length each level diagonal on its side is that leg,
    so the steps stop at max(len(lam), len(mu))."""
    cls = TwoLegSPP if kind == "spp" else TwoLegRPP
    legs = (as_partition(legs[0]), as_partition(legs[1]))
    reach = max(len(legs[0]), len(legs[1])) + 1
    size = {d: sum(nu) for d, nu in _level_diagonals(
        cls, legs, range(-reach, reach + 1)).items()}
    doubled = 0
    for n in range(reach):
        doubled += (2 * n + 1) * (size[n] - size[n + 1])
        doubled += (2 * n + 1) * (size[-n] - size[-n - 1])
    return HalfInt(FILLINGS[cls][1] * doubled)


def test_minimal_weight_is_the_level_telescope():
    legs = partitions_up_to(7)
    cases = [(lam, mu) for lam in legs for mu in legs]
    cases += [((10 ** 8, 5), (3,)), ((1,) * 300, (2, 1))]
    for kind in ("spp", "rpp"):
        for pair in cases:
            assert minimal_weight(kind, pair) == telescoped_weight(kind, pair), (
                kind, pair)
    assert len(cases) == 45 * 45 + 2
    with pytest.raises(DomainError, match="kind must be"):
        minimal_weight("pp", ((1,), ()))


def test_minimal_weight_reads_no_level(monkeypatch):
    # the weight is stated from the legs' parts: on legs of 1,500 rows it
    # reads no level diagonal and no cell
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(configurations, "_level_diagonal",
                        spy("_level_diagonal", configurations._level_diagonal))
    for cls in (TwoLegSPP, TwoLegRPP):
        monkeypatch.setattr(cls, "at", spy(f"{cls.__name__}.at", cls.at))
    leg = (1,) * 1500
    for kind in ("spp", "rpp"):
        # as for legs 1,1,1/1,1,1, the level weighs 0
        assert minimal_weight(kind, (leg, leg)) == HalfInt.of(0)
    assert not calls


def test_reconstruction_round_trip():
    for cfg in (SPP_11, RPP_7):
        blob = config_to_json(cfg)
        assert config_from_json(blob) == cfg


@pytest.mark.parametrize("blob", [
    {"type": "plane-partition", "entries": [[1, 1, 1], [1, 1, 2]]},
    {"type": "two-leg-spp", "legs": [[1], [1]],
     "excess": [[1, 1, 1], [2, 1, 1], [1, 1, 1]]},
])
def test_decoder_refuses_a_repeated_cell(blob):
    # keeping either triple would decode a filling the input does not state
    with pytest.raises(DomainError, match=r"cell \(1, 1\)"):
        config_from_json(blob)


def test_validation_rejects_bad_two_leg():
    with pytest.raises(DomainError):
        TwoLegSPP(((2,), (1,)), {(1, 1): 0})  # stored excess must be positive
    with pytest.raises(DomainError):
        # lone bump far from the legs breaks monotonicity
        TwoLegSPP(((2,), (1,)), {(4, 4): 1})
    with pytest.raises(DomainError):
        # reads ignore excess off the quadrant, so it would be phantom weight
        TwoLegSPP(((1,), (1,)), {(0, 1): 2})
    with pytest.raises(DomainError):
        TwoLegRPP(((2,), (1,)), {(1, 1): 5})  # deficit below zero
    with pytest.raises(DomainError):
        TwoLegRPP(((2,), (1,)), {(0, 0): 1})  # off the bent domain


WALL = 1 << 60


def window_accepts_spp(legs, excess):
    """Monotonicity over a span x span window around the legs and support."""
    def at(i, j):
        if i < 1 or j < 1:
            return WALL
        return two_leg_floor(legs, i, j) + excess.get((i, j), 0)

    lam, mu = legs
    span = 2 + max([len(lam), len(mu), part(lam, 1), part(mu, 1)]
                   + [max(i, j) for (i, j) in excess])
    return all(at(i, j) <= min(at(i - 1, j), at(i, j - 1))
               for i in range(1, span + 1) for j in range(1, span + 1))


def window_accepts_rpp(legs, deficit):
    """Domain checks, then monotonicity over a (2 span + 1)^2 window."""
    def at(i, j):
        c = two_leg_ceiling(legs, i, j)
        return WALL if c is None else c - deficit.get((i, j), 0)

    if any((i < 1 and j < 1) or at(i, j) < 0 for (i, j) in deficit):
        return False
    ext = max([0] + [abs(i) + abs(j) for (i, j) in deficit])
    span = 2 + ext + max(len(legs[0]), len(legs[1]), 1)
    window = range(-span, span + 1)
    return all(at(ni, nj) <= at(i, j)
               for i in window for j in window if i >= 1 or j >= 1
               for (ni, nj) in ((i + 1, j), (i, j + 1)))


def in_shape(lam, i, j):
    return i >= 1 and 1 <= j <= part(lam, i)


def window_accepts_pp(entries):
    """Quadrant check, then monotonicity over a window past the support."""
    def at(i, j):
        return WALL if i < 1 or j < 1 else entries.get((i, j), 0)

    if any(i < 1 or j < 1 for (i, j) in entries):
        return False
    span = 2 + max([0] + [max(c) for c in entries])
    return all(at(i, j) <= min(at(i - 1, j), at(i, j - 1))
               for i in range(1, span + 1) for j in range(1, span + 1))


def window_accepts_one_leg_spp(lam, entries):
    """Support in the quadrant past lam, then monotonicity over a window:
    a cell of lam, like one off the quadrant, caps nothing."""
    def off(i, j):
        return i < 1 or j < 1 or in_shape(lam, i, j)

    def at(i, j):
        return WALL if off(i, j) else entries.get((i, j), 0)

    if any(off(i, j) for (i, j) in entries):
        return False
    span = 2 + max([len(lam), part(lam, 1)] + [max(c) for c in entries])
    return all(at(i, j) <= min(at(i - 1, j), at(i, j - 1))
               for i in range(1, span + 1) for j in range(1, span + 1)
               if not off(i, j))


def window_accepts_one_leg_rpp(lam, entries):
    """Support in lam, then each box of lam at most its lower and right
    neighbours in lam."""
    if any(not in_shape(lam, i, j) for (i, j) in entries):
        return False
    boxes = [(i, j) for i in range(1, len(lam) + 1)
             for j in range(1, part(lam, i) + 1)]
    return all(entries.get((i, j), 0) <= entries.get(n, 0)
               for (i, j) in boxes for n in ((i + 1, j), (i, j + 1))
               if in_shape(lam, *n))


def accepts(cls, *args):
    try:
        cls(*args)
    except DomainError:
        return False
    return True


small_legs = st.sampled_from([(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])


def supports(lo, hi=5):
    cells = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
    return st.dictionaries(cells, st.integers(1, 3), max_size=5)


@settings(max_examples=300, deadline=None)
@given(small_legs, small_legs, supports(1), supports(-3))
def test_two_leg_checks_match_window_scan(lam, mu, excess, deficit):
    legs = (lam, mu)
    assert accepts(TwoLegSPP, legs, excess) == window_accepts_spp(legs, excess)
    assert accepts(TwoLegRPP, legs, deficit) == window_accepts_rpp(legs, deficit)


@settings(max_examples=300, deadline=None)
@given(small_legs, supports(-1), supports(0, 3))
def test_plane_and_one_leg_checks_match_window_scan(lam, cells, more):
    # the supports draw cells off the quadrant, on lam's boxes and off them
    assert accepts(PlanePartition, cells) == window_accepts_pp(cells)
    for entries in (cells, more):
        assert (accepts(OneLegSPP, lam, entries)
                == window_accepts_one_leg_spp(lam, entries))
        assert (accepts(OneLegRPP, lam, entries)
                == window_accepts_one_leg_rpp(lam, entries))


def test_tableau_weights():
    t = HookTableau("plane", (), {(1, 1): 1, (1, 2): 1, (2, 1): 2})
    assert t.hook_weight() == 1 + 2 + 4
    t2 = HookTableau("inside", (2, 1), {(1, 2): 1, (2, 1): 2})
    assert t2.hook_weight() == 3
    with pytest.raises(DomainError):
        HookTableau("inside", (2, 1), {(3, 3): 1})


def test_json_round_trip_all_kinds():
    samples = [BIG_PP, SPP_11, RPP_7,
               OneLegSPP((2, 1), {(1, 3): 2, (2, 2): 1}),
               OneLegRPP((2, 1), {(1, 2): 1, (2, 1): 1}),
               HookTableau("outside", (2, 1), {(1, 3): 4})]
    for cfg in samples:
        assert config_from_json(config_to_json(cfg)) == cfg


def read_cells(cfg, d):
    """Diagonal d of cfg, read down-right cell by cell until a zero: a
    decreasing filling from the diagonal's first cell in the quadrant past
    the shape, a two-leg RPP from its cell with column (d >= 0) or row
    (d < 0) index 1."""
    if isinstance(cfg, TwoLegRPP):
        i, j = (1 - d, 1) if d >= 0 else (1, 1 + d)
    else:
        i, j = (1, 1 + d) if d >= 0 else (1 - d, 1)
        while j <= part(getattr(cfg, "shape", ()), i):
            i, j = i + 1, j + 1
    cells = []
    while (min(i, j) >= 1 or isinstance(cfg, TwoLegRPP)) and cfg.at(i, j):
        cells.append(cfg.at(i, j))
        i, j = i + 1, j + 1
    return tuple(cells)


def test_level_diagonals_read_the_cell_levels():
    # diagonals() reads every filling in one pass over its support, and
    # from_diagonals() writes it back
    from pptoggle.oracle import (enum_one_leg_spp, enum_plane_partitions,
                                 enum_two_leg_rpp, enum_two_leg_spp,
                                 partitions_up_to)
    cases = [((), pp) for pp in enum_plane_partitions(5)]
    legs = partitions_up_to(4)
    for lam in legs:
        cases += [(lam, cfg) for cfg in enum_one_leg_spp(lam, 4)]
    for lam in legs:
        for mu in legs:
            bound = 3 if max(sum(lam), sum(mu)) <= 3 else 0
            cases += [((lam, mu), cfg)
                      for cfg in (enum_two_leg_spp((lam, mu), bound)
                                  + enum_two_leg_rpp((lam, mu), bound))]
    ds = range(-8, 9)
    for key, cfg in cases:
        diags = diagonals(cfg, ds)
        for d in ds:
            assert diags[d] == diagonal(cfg, d) == read_cells(cfg, d), (cfg, d)
        assert from_diagonals(type(cfg), key, diags) == cfg, cfg
    # plane partitions of weight <= 5, one-leg SPPs of weight <= 4 on
    # shapes of weight <= 4, two-leg SPPs and RPPs on legs of weight <= 3
    # with excess or deficit <= 3, and the zero-excess and zero-deficit
    # objects of legs of weight <= 4
    assert len(cases) == 760 + 2221
    # the floor and the ceiling of legs ((2,), (1,)) on diagonal 0 are (2,)
    # and (1,): a diagonal under the one or over the other is refused
    for cls, nu in ((TwoLegSPP, (1,)), (TwoLegRPP, (2,))):
        with pytest.raises(InvariantError) as failure:
            from_diagonals(cls, ((2,), (1,)), {0: nu})
        assert failure.value.name == "diagonal crosses its floor or ceiling"


def test_a_one_leg_rpp_has_no_diagonal_reading():
    # the bijections turn its cells into a one-leg SPP instead
    with pytest.raises(DomainError, match="no diagonal reading"):
        diagonal(OneLegRPP((2, 1)), 0)
    with pytest.raises(DomainError, match="no diagonal reading"):
        from_diagonals(OneLegRPP, (2, 1), {0: (1,)})


@pytest.mark.parametrize("build", [
    lambda shape: OneLegSPP(shape),
    lambda shape: OneLegRPP(shape),
    lambda shape: TwoLegSPP((shape, (1,))),
    lambda shape: TwoLegRPP(((1,), shape)),
    lambda shape: HookTableau("outside", shape),
], ids=["one-leg-spp", "one-leg-rpp", "two-leg-spp", "two-leg-rpp",
        "hook-tableau"])
def test_constructors_normalise_shapes_and_legs(build):
    # a list and a tuple with trailing zeros give the object built on the
    # partition itself, and a part sequence that rises is refused
    want = build((2, 1))
    assert build([2, 1]) == build((2, 1, 0)) == want
    assert all(type(p) is tuple for p in
               getattr(want, "legs", (getattr(want, "shape", None),)))
    with pytest.raises(DomainError):
        build((1, 2))


def test_a_list_shape_keeps_its_checks():
    # the checks read the normalised shape, so a list shape refuses the
    # same cells a tuple does
    with pytest.raises(DomainError):
        OneLegSPP([2, 1], {(1, 1): 1})
    with pytest.raises(DomainError):
        OneLegRPP([2, 1], {(2, 2): 1})
    with pytest.raises(DomainError):
        HookTableau("inside", [2, 1], {(3, 3): 1})
