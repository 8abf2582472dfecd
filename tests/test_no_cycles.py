"""Jobs free their memory by reference counting alone.

A recursive nested function is a reference cycle, so every call that
creates one leaves garbage that only the cyclic collector frees, and peak
memory then depends on when the collector happens to run. With the
collector off, a census, an enumeration and a few suites must leave no
cyclic garbage behind.
"""

import gc

from pptoggle import oracle, verify


def test_jobs_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        oracle.WeightCensus.take("two-leg-spp", ((2, 1), (1,)), 6)
        oracle.enum_two_leg_spp(((2,), (1,)), 3)
        verify.suite_ptdt_two_leg(degree=3, leg_weight=2, census_bound=3)
        verify.suite_hook_census(max_weight=5, max_hook=4)
        verify.suite_schedules(max_weight=3, seeds=3)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
