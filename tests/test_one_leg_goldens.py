"""A digest of the one-leg maps' images on every small filling.

The round trips check that the inverse undoes the forward map, which holds
for any bijection; this pins the images themselves, so a rewrite of how the
increasing filling is toggled (through which cells, read which way) has to
give the same filling, tableau and plane partition as the one before it.
"""

import hashlib

from pptoggle.bijections import (DEFAULT_SCHEDULE, ToggleSchedule,
                                 one_leg_forward, rpp_to_shape_tableau)
from pptoggle.oracle import enum_one_leg_rpp, enum_one_leg_spp, partitions_up_to

GOLDEN = "0d7d31abb552e1c915d9a146002df92a1521b3b103ea63dd126884f15709615c"


def _one_leg_outputs():
    # every filling of weight <= 4 on every shape of weight <= 4, under the
    # default order and one seeded order
    for lam in partitions_up_to(4):
        for plan in (DEFAULT_SCHEDULE, ToggleSchedule("seeded", seed=7)):
            for sigma in enum_one_leg_spp(lam, 4):
                rho, pi = one_leg_forward(sigma, plan)
                yield (sorted(sigma.entries.items()),
                       sorted(rho.entries.items()), sorted(pi.entries.items()))
            for rho in enum_one_leg_rpp(lam, 4):
                yield (lam, sorted(rho.entries.items()),
                       sorted(rpp_to_shape_tableau(rho, plan).items()))


def test_one_leg_images_match_the_golden_digest():
    blob = "\n".join(repr(row) for row in _one_leg_outputs()).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN
