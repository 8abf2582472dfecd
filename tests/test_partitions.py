import itertools

from hypothesis import given, strategies as st
import pytest

from pptoggle.errors import DomainError
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import (as_partition, conjugate, contains, hook_cells,
                                 hook_length, interlaces, interlacers_above,
                                 interlacers_below, outer_corners, part, weight)


def columns_oracle(lam):
    """Independent conjugate: count boxes per column of the drawn diagram."""
    boxes = {(i, j) for i in range(1, len(lam) + 1)
             for j in range(1, lam[i - 1] + 1)}
    cols = {}
    for _, j in boxes:
        cols[j] = cols.get(j, 0) + 1
    return tuple(cols[j] for j in sorted(cols))


def corners_oracle(lam, span=12):
    """Scan the quadrant for cells outside lam whose up/left neighbours are
    in lam or off-grid."""
    found = []
    for i in range(span, 0, -1):
        for j in range(1, span):
            if contains(lam, (i, j)):
                continue
            up_ok = i == 1 or contains(lam, (i - 1, j))
            left_ok = j == 1 or contains(lam, (i, j - 1))
            if up_ok and left_ok:
                found.append((i, j))
    return found


partitions = st.builds(
    lambda xs: as_partition(sorted(xs, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=6), max_size=6))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((4, 2, 1)) == columns_oracle((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((5, 3, 1, 1)) == columns_oracle((5, 3, 1, 1)) == (4, 2, 2, 1, 1)


def test_conjugate_involution_exhaustive():
    for lam in partitions_up_to(12):
        assert conjugate(conjugate(lam)) == lam


def test_interlaces_examples():
    assert interlaces((5, 3, 1, 1), (3, 2, 1))
    assert interlaces((3, 1), (3, 1))
    assert not interlaces((1,), (2,))


@given(partitions)
def test_interlaces_reflexive(lam):
    assert interlaces(lam, lam)


def test_hook_length_examples():
    assert hook_length((4, 2, 1), (1, 2), "inside") == 4
    assert hook_length((4, 2, 1), (5, 2), "outside") == 4
    assert hook_length((), (1, 1), "outside") == 1
    assert hook_length((), (3, 4), "outside") == 6


def test_hook_length_region_mismatch():
    with pytest.raises(DomainError):
        hook_length((4, 2, 1), (1, 2), "outside")
    with pytest.raises(DomainError):
        hook_length((4, 2, 1), (5, 2), "inside")


def test_hook_length_matches_cell_sets():
    for lam in partitions_up_to(10):
        for i in range(1, 9):
            for j in range(1, 9):
                region = "inside" if contains(lam, (i, j)) else "outside"
                assert hook_length(lam, (i, j), region) == len(hook_cells(lam, (i, j)))


def test_outer_corners_examples():
    assert outer_corners(()) == [(1, 1)] == corners_oracle(())
    assert outer_corners((2, 1)) == [(3, 1), (2, 2), (1, 3)] == corners_oracle((2, 1))
    assert outer_corners((4, 2, 1)) == [(4, 1), (3, 2), (2, 3), (1, 5)]
    assert outer_corners((4, 2, 1)) == corners_oracle((4, 2, 1))


@given(partitions)
def test_outer_corners_incomparable_and_outside(lam):
    cs = outer_corners(lam)
    assert len(cs) == len(set(lam)) + 1
    for c in cs:
        assert not contains(lam, c)
    for a in cs:
        for b in cs:
            if a != b:
                assert not (a[0] <= b[0] and a[1] <= b[1])


@given(partitions)
def test_interlacer_enumerations(lam):
    below = list(interlacers_below(lam))
    assert len(set(below)) == len(below)
    for mu in below:
        assert interlaces(lam, mu)
    for mu in interlacers_above(lam, 3):
        assert interlaces(mu, lam)
        assert weight(mu) - weight(lam) <= 3


@given(partitions, st.integers(min_value=-3, max_value=12))
def test_interlacers_below_budget_filters_in_order(lam, k):
    budgeted = list(interlacers_below(lam, k))
    assert budgeted == [mu for mu in interlacers_below(lam)
                        if weight(lam) - weight(mu) <= k]
    if k < 0:
        assert budgeted == []


def test_as_partition_validation():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(DomainError):
        as_partition([1, 2])


def _list_as_partition(seq):
    """as_partition before its tuple fast path: strip zeros off a list."""
    parts = list(seq)
    while parts and parts[-1] == 0:
        parts.pop()
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise DomainError(f"parts must weakly decrease: {seq!r}")
    if parts and parts[-1] < 0:
        raise DomainError(f"parts must be nonnegative: {seq!r}")
    return tuple(parts)


def _outcome(normalise, seq):
    try:
        return normalise(seq)
    except DomainError as exc:
        return str(exc)


def test_as_partition_matches_the_list_definition():
    # every sequence of length <= 4 over -1..3, as a tuple and as a list:
    # the same partition or the same error message; a tuple that already
    # is a partition comes back as the same object
    for seq in itertools.chain.from_iterable(
            itertools.product(range(-1, 4), repeat=k) for k in range(5)):
        for form in (seq, list(seq)):
            assert (_outcome(as_partition, form)
                    == _outcome(_list_as_partition, form))
        if seq == _outcome(_list_as_partition, seq):
            assert as_partition(seq) is seq


def test_part_indexing():
    assert part((3, 1), 1) == 3
    assert part((3, 1), 2) == 1
    assert part((3, 1), 7) == 0
