import pytest

from pptoggle import boundary, partitions
from pptoggle.boundary import (HookTarget, edge_power, edge_sign,
                               hook_pivots_inside, hook_pivots_outside,
                               n_quotient, redistribute, redistribute_inverse)
from pptoggle.configurations import OneLegSPP, _layout
from pptoggle.errors import DomainError
from pptoggle.halfint import HalfInt
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import (column_length, contains, hook_cells,
                                 hook_length, part, rows_past)


def test_edge_sign_patterns():
    # staircase of (4,2,1): read bottom-left to top-right
    signs = [edge_sign((4, 2, 1), n) for n in range(-5, 5)]
    assert signs == [-1, -1, 1, -1, 1, -1, 1, 1, -1, 1]
    for n in range(-6, 6):
        assert edge_sign((), n) == (1 if n >= 0 else -1)
    assert edge_sign((1,), 0) == -1
    assert edge_sign((1,), -1) == 1


def test_edge_power_examples():
    assert edge_power((4, 2, 1), 0) == HalfInt(-1)
    assert edge_power((4, 2, 1), 4) == HalfInt(9)
    for n in range(-5, 5):
        assert edge_power((), n) == HalfInt(abs(2 * n + 1))


def test_edge_power_corner_pair_sums_to_minus_one():
    # at any inner corner the two adjacent powers sum to -1
    for lam in partitions_up_to(8):
        for n in range(-8, 8):
            if edge_sign(lam, n) == 1 and edge_sign(lam, n + 1) == -1:
                assert edge_power(lam, n) + edge_power(lam, n + 1) == HalfInt(-2)


def test_quotient_examples():
    assert n_quotient((4, 2, 1), 4, 3) == (1,)
    assert [n_quotient((3, 3), 3, i) for i in range(3)] == [(), (1,), (1,)]
    for n in range(1, 5):
        for i in range(n):
            assert n_quotient((), n, i) == ()


def test_quotient_argument_checks():
    with pytest.raises(DomainError):
        n_quotient((2, 1), 0, 0)
    with pytest.raises(DomainError):
        n_quotient((2, 1), 3, 3)


def test_quotient_weight_law():
    # the quotients' boxes match lam's hooks of length divisible by n, one
    # to one (James and Kerber 2.7.30); for n=1 the quotient is lam itself
    for lam in partitions_up_to(10):
        assert n_quotient(lam, 1, 0) == lam
        cells = [(i, j) for i in range(1, len(lam) + 1)
                 for j in range(1, lam[i - 1] + 1)]
        for n in range(1, 7):
            boxes = sum(sum(n_quotient(lam, n, i)) for i in range(n))
            assert boxes == sum(1 for c in cells
                                if hook_length(lam, c, "inside") % n == 0)


def test_hook_pivot_census():
    for lam in partitions_up_to(10):
        for n in range(1, 9):
            outside = hook_pivots_outside(lam, n)
            inside = hook_pivots_inside(lam, n)
            assert len(outside) == n + len(inside)
            for b in outside:
                assert hook_length(lam, b, "outside") == n
            for b in inside:
                assert hook_length(lam, b, "inside") == n


def test_redistribute_worked_example():
    lam = (3, 3)
    assert redistribute(lam, (5, 1)) == HookTarget("in-lambda", (2, 1))
    assert redistribute(lam, (4, 2)) == HookTarget("in-lambda", (1, 2))
    assert redistribute(lam, (3, 3)) == HookTarget("in-plane", (3, 1))
    assert redistribute(lam, (2, 5)) == HookTarget("in-plane", (2, 2))
    assert redistribute(lam, (1, 6)) == HookTarget("in-plane", (1, 3))


def test_redistribute_identity_on_empty_shape():
    for i in range(1, 5):
        for j in range(1, 5):
            assert redistribute((), (i, j)) == HookTarget("in-plane", (i, j))


def test_redistribute_rejects_inside_cells():
    with pytest.raises(DomainError):
        redistribute((3, 3), (1, 1))


def test_redistribute_bijection_and_hooks():
    for lam in partitions_up_to(8):
        for n in range(1, 7):
            targets = []
            for b in hook_pivots_outside(lam, n):
                t = redistribute(lam, b)
                targets.append(t)
                assert redistribute_inverse(lam, t) == b
                if t.region == "in-lambda":
                    assert contains(lam, t.cell)
                    assert hook_length(lam, t.cell, "inside") == n
                else:
                    assert hook_length((), t.cell, "outside") == n
            assert len(set(targets)) == len(targets)
            in_plane = [t for t in targets if t.region == "in-plane"]
            assert len(in_plane) == n
            assert {t.cell for t in in_plane} == {(n - r, r + 1) for r in range(n)}


@pytest.mark.parametrize("cell", [(2, 0), (0, 1), (-1, 3), (0, 0)])
def test_redistribute_inverse_rejects_cells_off_the_quadrant(cell):
    with pytest.raises(DomainError):
        redistribute_inverse((2, 1), HookTarget("in-plane", cell))
    with pytest.raises(DomainError):
        redistribute_inverse((2, 1), HookTarget("in-lambda", cell))


def test_redistribute_inverse_rejects_unknown_regions():
    with pytest.raises(DomainError, match="unknown region"):
        redistribute_inverse((2, 1), HookTarget("elsewhere", (0, 1)))


@pytest.mark.parametrize("n", [0, -1, -3])
def test_hook_pivots_reject_lengths_below_one(n):
    with pytest.raises(DomainError):
        hook_pivots_outside((2, 1), n)
    with pytest.raises(DomainError):
        hook_pivots_inside((2, 1), n)


def _row_scan_edge_sign(lam, n):
    """edge_sign before the edge table: scan the rows for label n."""
    if n <= -len(lam) - 1:
        return -1
    for i in range(1, len(lam) + 1):
        if lam[i - 1] - i == n:
            return -1
    return 1


def _clear_shape_tables():
    partitions._rising.cache_clear()
    boundary._runner_tops.cache_clear()


HUGE_SHAPES = [(10 ** 8,), (1,) * 1500, (5, 5, 1)]


def _window(lam):
    """Columns j and diagonals d around lam's corners, where its counts
    change: two either side of each row's end and of each row's content,
    and of the column and the diagonal one past the last row."""
    rows = [(i, part(lam, i)) for i in range(1, len(lam) + 2)
            if i == 1 or part(lam, i - 1) > part(lam, i)]
    cols = {j for _, p in rows for j in range(max(1, p - 2), p + 3)}
    diags = {d for i, p in rows for d in range(p - i - 2, p - i + 3)}
    return sorted(cols), sorted(diags)


def _first_row_off(lam, d):
    """The first row i >= max(1, 1 - d) with (i, i + d) outside lam."""
    i = max(1, 1 - d)
    while contains(lam, (i, i + d)):
        i += 1
    return i


def test_shape_tables_match_the_per_cell_definitions():
    # every shape of weight <= 8, as a tuple and as a list, read through
    # cold tables and then through the warm ones they left behind; the row
    # counts and the codec's layout also on shapes whose first row or first
    # column is long, around their corners
    _clear_shape_tables()
    shapes = partitions_up_to(8)
    for _ in ("cold", "warm"):
        for shape in shapes + HUGE_SHAPES:
            for lam in (shape, list(shape)):
                cols, diags = _window(lam)
                for j in cols:
                    assert column_length(lam, j) == sum(p >= j for p in lam)
                first = _layout(OneLegSPP, lam)
                for d in diags:
                    assert rows_past(lam, d) == sum(
                        p - i > d for i, p in enumerate(lam, start=1))
                    assert first(d) == _first_row_off(lam, d)
                for n in range(-12, 12):
                    assert edge_sign(lam, n) == _row_scan_edge_sign(lam, n)
                if shape in HUGE_SHAPES:
                    continue
                for i in range(1, 11):
                    for j in range(1, 11):
                        inside = contains(lam, (i, j))
                        region = "inside" if inside else "outside"
                        assert (hook_length(lam, (i, j), region)
                                == len(hook_cells(lam, (i, j))))
                        if not inside:
                            target = redistribute(lam, (i, j))
                            assert redistribute_inverse(lam, target) == (i, j)
        assert (partitions._rising.cache_info().currsize
                == len(shapes) + len(HUGE_SHAPES))
