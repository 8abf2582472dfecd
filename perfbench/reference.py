"""Reference series for checking benchmark outputs, independent of pptoggle.

Series are plain dicts {doubled exponent: coefficient} truncated at a doubled
bound, so a q^(1/2) step is 1. Hook lengths are computed directly from the
diagram, not through the package's boundary or partition code.
"""

from __future__ import annotations


def partitions_up_to(n: int) -> list[tuple[int, ...]]:
    """All partitions of weight 0..n, smallest weight first."""
    out: list[tuple[int, ...]] = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    for k in range(n + 1):
        rec(k, k, [])
    return out


def conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def _part(lam, i: int) -> int:
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def inside_hooks(lam) -> list[int]:
    conj = conjugate(lam)
    return [(lam[i - 1] - j) + (conj[j - 1] - i) + 1
            for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]


def outside_hooks(lam, max_hook: int) -> list[int]:
    """Hook lengths <= max_hook of the cells of the quadrant outside lam.

    An outside cell (i, j) has arm j - lam_i - 1 and leg i - lam'_j - 1, so a
    hook of length h has j <= lam_1 + h and i <= len(lam) + h.
    """
    conj = conjugate(lam)
    hooks = []
    for i in range(1, len(lam) + max_hook + 1):
        for j in range(_part(lam, i) + 1, _part(lam, 1) + max_hook + 1):
            h = (j - _part(lam, i) - 1) + (i - _part(conj, j) - 1) + 1
            if h <= max_hook:
                hooks.append(h)
    return hooks


def mul(a: dict, b: dict, bound2: int) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 <= bound2:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def hook_product(hooks, bound2: int) -> dict:
    """Product of 1 / (1 - q^h) over the hooks, truncated at q^(bound2/2)."""
    coeffs = [1] + [0] * bound2
    for h in hooks:
        step = 2 * h
        for e in range(step, bound2 + 1):
            coeffs[e] += coeffs[e - step]
    return {e: c for e, c in enumerate(coeffs) if c}


def macmahon(bound2: int) -> dict:
    return hook_product(outside_hooks((), bound2 // 2), bound2)


def truncated(series: dict, bound2: int) -> dict:
    return {e: c for e, c in series.items() if c and e <= bound2}
