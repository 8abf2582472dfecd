"""A digest of the ASCII and SVG pictures of every small filling.

The pictures read each filling through `at`, so this pins which cells each
class shows (its domain) and what they hold, for every family: a rewrite of
how a picture finds its cells has to draw the same ones.
"""

import hashlib

from pptoggle.configurations import HookTableau
from pptoggle.oracle import (enum_one_leg_rpp, enum_one_leg_spp,
                             enum_plane_partitions, enum_two_leg_rpp,
                             enum_two_leg_spp, partitions_up_to)
from pptoggle.render import render_ascii, render_svg

GOLDEN = "f939221c9b5d39c72909d0f1ff7c0c3dcbba1384eec3eb085e671b21b737ff9e"


def _pictured():
    # plane partitions of weight <= 6; one-leg SPPs and RPPs on shapes of
    # weight <= 4 at bound 4; two-leg SPPs and RPPs on leg pairs of weight
    # <= 2 at bound 3; a few hook tableaux
    yield from enum_plane_partitions(6)
    for lam in partitions_up_to(4):
        yield from enum_one_leg_spp(lam, 4)
        yield from enum_one_leg_rpp(lam, 4)
    for lam in partitions_up_to(2):
        for mu in partitions_up_to(2):
            yield from enum_two_leg_spp((lam, mu), 3)
            yield from enum_two_leg_rpp((lam, mu), 3)
    yield HookTableau("plane", (), {(1, 1): 1, (1, 2): 3, (3, 1): 2})
    yield HookTableau("inside", (3, 2), {(1, 2): 1, (2, 1): 12})
    yield HookTableau("outside", (2, 1), {(1, 3): 4, (3, 1): 1, (2, 2): 5})
    yield HookTableau("outside", (2,))


def test_pictures_match_the_golden_digest():
    blob = "\n".join(render_ascii(cfg) + "\n" + render_svg(cfg)
                     for cfg in _pictured()).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN
