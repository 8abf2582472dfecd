import pytest
from hypothesis import example, given, strategies as st

from pptoggle.errors import DomainError
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import (as_partition, interlacers_below,
                                 interlaces, part, weight)
from pptoggle.toggles import toggle_between, toggle_pop, toggle_push


def test_between_worked_example():
    assert toggle_between((5, 3, 1, 1), (3, 2, 1), (3, 2)) == (5, 3, 1)


def test_between_entrywise():
    # each entry lands at the opposite end of its interval; the weight law
    # |T| = |lam| + |mu| - |nu| pins the value
    assert toggle_between((2, 1), (1, 1), (1,)) == (2,)


def test_between_is_involution():
    cases = [((5, 3, 1, 1), (3, 2, 1), (3, 2)), ((2, 1), (1, 1), (1,)),
             ((4, 4), (4, 2), (3,))]
    for lam, nu, mu in cases:
        assert toggle_between(lam, toggle_between(lam, nu, mu), mu) == nu


def test_pop_worked_example():
    assert toggle_pop((4, 2, 1), (5, 3, 1, 1), (3, 2, 1)) == ((2, 2), 1)


def test_pop_trivial_cases():
    assert toggle_pop((), (), ()) == ((), 0)
    for k in range(5):
        assert toggle_pop((), (k,) if k else (), ()) == ((), k)


def test_push_inverts_the_pop_example():
    assert toggle_push((4, 2, 1), (2, 2), (3, 2, 1), 1) == (5, 3, 1, 1)


def test_push_trivial_cases():
    for k in range(1, 4):
        assert toggle_push((), (), (), k) == (k,)
    # the weight law |T| = |lam| + |mu| - |nu| + n forces both entries
    assert toggle_push((1,), (), (1,), 0) == (1, 1)
    assert toggle_pop((1,), (1, 1), (1,)) == ((), 0)


def test_interlacing_violations_raise():
    with pytest.raises(DomainError):
        toggle_between((1,), (3,), (1,))
    with pytest.raises(DomainError):
        toggle_pop((3,), (1,), ())
    with pytest.raises(DomainError):
        toggle_push((1,), (3,), (1,), 0)
    with pytest.raises(DomainError):
        toggle_push((1,), (1,), (1,), -1)


def _box(max_part, max_len):
    return [lam for lam in partitions_up_to(max_part * max_len)
            if len(lam) <= max_len and part(lam, 1) <= max_part]


def test_exhaustive_small_triples():
    box = _box(3, 3)
    for nu in box:
        for mu in interlacers_below(nu):
            for lam in box:
                if not interlaces(lam, nu):
                    continue
                t = toggle_between(lam, nu, mu)
                assert toggle_between(lam, t, mu) == nu
                assert weight(t) == weight(lam) + weight(mu) - weight(nu)
                assert interlaces(lam, t) and interlaces(t, mu)
    for nu in box:
        for lam in interlacers_below(nu):
            for mu in interlacers_below(nu):
                t, n = toggle_pop(lam, nu, mu)
                assert n == part(nu, 1) - max(part(lam, 1), part(mu, 1)) >= 0
                assert weight(t) == weight(lam) + weight(mu) - weight(nu) + n
                assert interlaces(lam, t) and interlaces(mu, t)
                assert toggle_push(lam, t, mu, n) == nu


def _below(nu, slack):
    """A partition interlacing below nu: entry i in [nu_{i+1}, nu_i]."""
    return as_partition([part(nu, i + 1) + min(d, part(nu, i) - part(nu, i + 1))
                         for i, d in enumerate(slack[:len(nu)], start=1)])


def _above(nu, slack):
    """A partition interlacing above nu: entry 1 at least nu_1, entry
    i > 1 in [nu_i, nu_{i-1}], at most one part longer."""
    out = [part(nu, 1) + slack[0]]
    out += [part(nu, i) + min(d, part(nu, i - 1) - part(nu, i))
            for i, d in enumerate(slack[1:len(nu) + 1], start=2)]
    return as_partition(out)


nus = st.lists(st.integers(1, 4), max_size=5).map(
    lambda ps: tuple(sorted(ps, reverse=True)))
slacks = st.lists(st.integers(0, 3), min_size=6, max_size=6)


@given(nus, slacks, slacks, st.integers(0, 3))
def test_random_pop_push_round_trip(nu, slack_a, slack_b, n):
    # lam >- nu -< mu with lam and mu drawn independently: push then pop
    lam, mu = _above(nu, slack_a), _above(nu, slack_b)
    assert interlaces(lam, nu) and interlaces(mu, nu)
    t = toggle_push(lam, nu, mu, n)
    assert toggle_pop(lam, t, mu) == (nu, n)
    # lam -< nu >- mu, again independent: pop then push
    lam, mu = _below(nu, slack_a), _below(nu, slack_b)
    assert interlaces(nu, lam) and interlaces(nu, mu)
    t, popped = toggle_pop(lam, nu, mu)
    assert toggle_push(lam, t, mu, popped) == nu


# Reference formulas for the kernel: one part() read per index, with no
# padding and no length shortcut.

def _old_interlaces(lam, mu):
    return all(part(lam, i) >= part(mu, i) >= part(lam, i + 1)
               for i in range(1, max(len(lam), len(mu)) + 1))


def _old_between(lam, nu, mu):
    out = []
    for i in range(1, max(len(lam), len(nu), len(mu)) + 2):
        hi = part(lam, i) if i == 1 else min(part(lam, i), part(mu, i - 1))
        lo = max(part(lam, i + 1), part(mu, i))
        out.append(lo + hi - part(nu, i))
    return as_partition(out)


def _old_pop(lam, nu, mu):
    out = [min(part(lam, m), part(mu, m)) + max(part(lam, m + 1), part(mu, m + 1))
           - part(nu, m + 1)
           for m in range(1, max(len(lam), len(nu), len(mu)) + 2)]
    return as_partition(out), part(nu, 1) - max(part(lam, 1), part(mu, 1))


def _old_push(lam, nu, mu, n):
    out = [n + max(part(lam, 1), part(mu, 1))]
    out += [min(part(lam, m - 1), part(mu, m - 1)) + max(part(lam, m), part(mu, m))
            - part(nu, m - 1)
            for m in range(2, max(len(lam), len(nu), len(mu)) + 3)]
    return as_partition(out)


@st.composite
def _triples(draw):
    """nu, then lam and mu each above nu, below it, or any partition (mostly
    not interlacing)."""
    nu = draw(nus)

    def neighbour():
        how = draw(st.sampled_from((_above, _below, None)))
        return draw(nus) if how is None else how(nu, draw(slacks))

    return neighbour(), nu, neighbour()


@given(_triples(), st.integers(0, 3))
@example(((), (), ()), 0)
@example(((), (4,), ()), 0)
@example(((2,), (), ()), 1)
@example(((3, 1), (1,), (1,)), 2)
@example(((1, 1), (), ()), 0)
@example(((3, 1, 1), (2,), (2,)), 0)
def test_kernel_matches_part_formulas(triple, n):
    # empty and unequal-length partitions, interlacing or not: the kernel
    # agrees with the part() formulas and raises where they do not apply
    lam, nu, mu = triple
    for a, b in ((lam, nu), (nu, lam), (mu, nu), (nu, mu), (lam, mu), (mu, lam)):
        assert interlaces(a, b) == _old_interlaces(a, b)
    for new, old, args, ok in (
            (toggle_between, _old_between, (lam, nu, mu),
             _old_interlaces(lam, nu) and _old_interlaces(nu, mu)),
            (toggle_pop, _old_pop, (lam, nu, mu),
             _old_interlaces(nu, lam) and _old_interlaces(nu, mu)),
            (toggle_push, _old_push, (lam, nu, mu, n),
             _old_interlaces(lam, nu) and _old_interlaces(mu, nu))):
        if ok:
            assert new(*args) == old(*args)
        else:
            with pytest.raises(DomainError):
                new(*args)
