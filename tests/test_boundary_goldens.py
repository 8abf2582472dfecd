"""A digest of the boundary module's outputs on every small shape.

The hook map and the quotients can be computed several ways (label scans,
an edge table, the n-runner abacus); this pins what they return, so a
rewrite of any of them has to agree with the one before it exactly.
"""

import hashlib

from pptoggle.boundary import (hook_pivots_inside, hook_pivots_outside,
                               n_quotient, redistribute)
from pptoggle.oracle import partitions_up_to
from pptoggle.partitions import contains

GOLDEN = "84d84757a5e470d6cdf04d971b28b0a35e13fced974a014a3b1f82d73d86fcb1"


def _boundary_outputs():
    for lam in partitions_up_to(8):
        for cell in ((i, j) for i in range(1, 9) for j in range(1, 9)):
            if not contains(lam, cell):
                t = redistribute(lam, cell)
                yield "redistribute", lam, cell, t.region, t.cell
        for n in range(1, 9):
            yield "outside", lam, n, hook_pivots_outside(lam, n)
            yield "inside", lam, n, hook_pivots_inside(lam, n)
        for n in range(1, 6):
            yield "quotient", lam, n, [n_quotient(lam, n, i) for i in range(n)]


def test_boundary_outputs_match_the_golden_digest():
    blob = "\n".join(repr(row) for row in _boundary_outputs()).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN
