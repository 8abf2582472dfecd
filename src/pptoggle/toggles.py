"""Local toggle moves on a diagonal relative to its two neighbours.

Three variants, keyed by how the middle partition interlaces its neighbours:
a valley-to-valley involution, a peak toggle that pops off a nonnegative
integer, and its inverse that pushes one back on. Out-of-range parts read as
zero; the left neighbour of the first entry is unbounded.

These functions are not memoised: every call runs its checks. The grids in
`bijections` reach them through bounded memos of their own.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, InvariantError
from .partitions import Partition, as_partition, interlaces, weight


# toggled: the toggled partition; popped: the int popped off
ToggleResult = namedtuple("ToggleResult", ["toggled", "popped"])


def _require(cond: bool, lam, nu, mu, pattern: str):
    if not cond:
        raise DomainError(f"interlacing violation: need {pattern} for "
                          f"lam={lam} nu={nu} mu={mu}")


def _padded(lam: Partition, nu: Partition, mu: Partition):
    """The three partitions zero-padded to a common length one past the
    longest. Each toggle's result interlaces with lam, which is at most as
    long as the longest, so it has at most one part more: as far as the
    kernel reads."""
    size = max(len(lam), len(nu), len(mu)) + 1
    return ((*lam, *(0,) * (size - len(lam))), (*nu, *(0,) * (size - len(nu))),
            (*mu, *(0,) * (size - len(mu))))


def _peak_toggle(la, ma, vn) -> list[int]:
    """Entries min(lam_m, mu_m) + max(lam_{m+1}, mu_{m+1}) - vn_m, m >= 1
    (min and max written out: the builtins cost more than the arithmetic)."""
    return [(a if a < b else b) + (c if c > d else d) - v
            for a, b, c, d, v in zip(la, ma, la[1:], ma[1:], vn)]


def toggle_between(lam: Partition, nu: Partition, mu: Partition) -> Partition:
    """Toggle nu where lam >- nu >- mu; an involution preserving both relations.

    Entry i moves to the opposite end of its interval
    [max(lam_{i+1}, mu_i), min(lam_i, mu_{i-1})], with mu_0 read as infinity.
    """
    _require(interlaces(lam, nu) and interlaces(nu, mu), lam, nu, mu,
             "lam >- nu >- mu")
    la, vn, ma = _padded(lam, nu, mu)
    # mu_{i-1} for entry i: mu_0 is infinite, so lam_1 caps entry 1 alone
    above = (la[0], *ma)
    return as_partition([(c if c > d else d) + (a if a < b else b) - v
                         for a, b, c, d, v in zip(la, above, la[1:], ma, vn)])


def toggle_pop(lam: Partition, nu: Partition, mu: Partition) -> ToggleResult:
    """Toggle a peak: lam -< nu >- mu becomes lam >- T(nu) -< mu plus a popped
    value n = nu_1 - max(lam_1, mu_1) >= 0.

    Weights satisfy |T(nu)| = |lam| + |mu| - |nu| + n.
    """
    _require(interlaces(nu, lam) and interlaces(nu, mu), lam, nu, mu,
             "lam -< nu >- mu")
    la, vn, ma = _padded(lam, nu, mu)
    popped = vn[0] - max(la[0], ma[0])
    toggled = as_partition(_peak_toggle(la, ma, vn[1:]))
    if weight(toggled) != weight(lam) + weight(mu) - weight(nu) + popped:
        raise InvariantError("pop weight law |T| = |lam|+|mu|-|nu|+n",
                             (lam, nu, mu))
    return ToggleResult(toggled, popped)


def toggle_push(lam: Partition, nu: Partition, mu: Partition, n: int) -> Partition:
    """Inverse of toggle_pop: lam >- nu -< mu plus n >= 0 becomes the peak
    T with lam -< T >- mu, T_1 = n + max(lam_1, mu_1)."""
    if n < 0:
        raise DomainError(f"pushed value must be nonnegative: {n}")
    _require(interlaces(lam, nu) and interlaces(mu, nu), lam, nu, mu,
             "lam >- nu -< mu")
    la, vn, ma = _padded(lam, nu, mu)
    return as_partition([n + max(la[0], ma[0]), *_peak_toggle(la, ma, vn)])
