import pytest

from pptoggle.boundary import (HookTarget, edge_power, edge_sign,
                               hook_pivots_inside, hook_pivots_outside,
                               n_quotient, redistribute, redistribute_inverse)
from pptoggle.errors import DomainError
from pptoggle.halfint import HalfInt
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import contains, hook_length


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
