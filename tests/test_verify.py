from collections import Counter

import pytest

from pptoggle import bijections, boundary, oracle, series, verify
from pptoggle.cli import main
from pptoggle.configurations import HookTableau
from pptoggle.errors import DomainError
from pptoggle.verify import (suite_hook_census, suite_partitions,
                             suite_ptdt_two_leg, suite_schedules,
                             suite_two_leg_width_stability)


def test_two_leg_suite_folds_each_word_once(monkeypatch):
    calls = Counter()
    evaluate_stable = series.evaluate_stable

    def spy(kind, legs, bound):
        calls[kind, legs] += 1
        return evaluate_stable(kind, legs, bound)

    monkeypatch.setattr(series, "evaluate_stable", spy)
    rows = suite_ptdt_two_leg(degree=2, leg_weight=2, census_bound=2)
    assert [r.passed for r in rows] == [True, True, True]
    # 4 legs of weight <= 2, so 16 pairs of each kind
    assert len(calls) == 32 and set(calls.values()) == {1}


def test_schedule_suite_pops_each_object_once_per_order(monkeypatch):
    pops = Counter()
    forward_calls = []

    def spy(name):
        pop = getattr(bijections, name)

        def spied(cfg, schedule):
            pops[getattr(cfg, "shape", None),
                 frozenset(cfg.entries.items()), schedule] += 1
            return pop(cfg, schedule)
        monkeypatch.setattr(bijections, name, spied)

    spy("pp_to_tableau")
    spy("spp_to_tableau")
    monkeypatch.setattr(bijections, "one_leg_forward",
                        lambda *args: forward_calls.append(args))
    rows = suite_schedules(max_weight=3, seeds=3)
    assert [r.passed for r in rows] == [True, True]
    objects = (len(oracle.enum_plane_partitions(3))
               + len(oracle.enum_one_leg_spp((1,), 3))
               + len(oracle.enum_one_leg_spp((2, 1), 3)))
    assert forward_calls == []
    # off-diagonal, lexicographic and 3 seeded orders
    assert len(pops) == 5 * objects and set(pops.values()) == {1}


def _skew_wide_forward_window(monkeypatch):
    """Make every window wider than N+1 give a different image."""
    forward_at = bijections._two_leg_forward_at

    def skewed(sigma, width):
        rho, pi = forward_at(sigma, width)
        wide = width > bijections.stabilization_index(sigma) + 1
        return (rho, None) if wide else (rho, pi)

    monkeypatch.setattr(bijections, "_two_leg_forward_at", skewed)


def _skew_lexicographic_one_leg_pops(monkeypatch):
    """Make a lexicographic pop of a one-leg SPP give another tableau."""
    pop = bijections.spp_to_tableau

    def skewed(sigma, schedule):
        t = pop(sigma, schedule)
        if schedule.kind != "lexicographic":
            return t
        return HookTableau(t.region, t.shape, {**t.values, (9, 9): 1})

    monkeypatch.setattr(bijections, "spp_to_tableau", skewed)


def _break_hook_lengths(monkeypatch):
    monkeypatch.setattr(verify, "hook_length", lambda lam, cell, region: -1)


def _break_redistribute_inverse(monkeypatch):
    monkeypatch.setattr(boundary, "redistribute_inverse", lambda lam, t: None)


@pytest.mark.parametrize("breakage, suite, index, reason, first", [
    # the first filling enumerated is the floor of the first leg pair
    (_skew_wide_forward_window, lambda: suite_two_leg_width_stability(2), 1,
     "N+1 and N+4 differ", (((), ()), {})),
    (_break_hook_lengths, lambda: suite_partitions(0), 1,
     "arm+leg+1 disagrees with cell set", ((), (1, 1))),
    (_break_redistribute_inverse, lambda: suite_hook_census(2, 2), 2,
     "not a bijection onto targets", ((), (1, 1))),
    # the first SPP enumerated is the empty one on the first shape
    (_skew_lexicographic_one_leg_pops, lambda: suite_schedules(3, 3), 1,
     "output depends on order", ((1,), {}, "lexicographic", 0)),
], ids=["forward-width-stability", "hook-vs-cells", "redistribute-bijection",
        "one-leg-schedule-independence"])
def test_failing_row_keeps_its_name_and_reports_the_first_counterexample(
        monkeypatch, breakage, suite, index, reason, first):
    passing = suite()
    breakage(monkeypatch)
    rows = suite()
    assert [r.name for r in rows] == [r.name for r in passing]
    assert [r.passed for r in rows] == [i != index for i in range(len(rows))]
    assert rows[index].detail == reason
    assert rows[index].counterexample == first


def test_verify_exits_4_on_a_failing_row(monkeypatch, capsys):
    _skew_wide_forward_window(monkeypatch)
    assert main(["verify", "--suite", "two-leg-width-stability"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL two-leg-width-stability/forward-width-stability"
            "(|legs|<=3,excess<=3): N+1 and N+4 differ "
            "counterexample=(((), ()), {})") in lines


def test_cli_prints_a_failed_row_as_the_row_renders_itself(monkeypatch,
                                                          capsys):
    _skew_wide_forward_window(monkeypatch)
    failed = [row.line() for row in verify.run_suites(
        ["two-leg-width-stability"]) if not row.passed]
    assert main(["verify", "--suite", "two-leg-width-stability"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert failed and [line for line in lines if line.startswith("FAIL")] == failed


def test_macmahon_count_reads_within_the_degree(capsys):
    # below degree 6 the row checks the highest weight the series reaches
    assert main(["verify", "--suite", "macmahon", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS macmahon/weight-4-count: 13 configurations" in out.splitlines()
    assert verify.suite_macmahon(6)[2].line() == \
        "PASS weight-6-count: 48 configurations"


def test_run_suites_refuses_an_override_no_named_suite_takes(monkeypatch):
    # the run would drop the override and check at the defaults instead, so
    # it is refused, by name, before any suite runs
    ran = []

    def toggles(max_part=4, max_len=4):
        ran.append("toggles")
        return []

    def macmahon(degree=12):
        ran.append("macmahon")
        return []

    monkeypatch.setattr(verify, "SUITES", {"toggles": toggles,
                                           "macmahon": macmahon})
    with pytest.raises(DomainError, match="^degree is read by no requested"):
        verify.run_suites(["toggles"], max_part=2, degree=5)
    with pytest.raises(DomainError, match="^bogus is read by no requested"):
        verify.run_suites("all", degree=5, bogus=1)
    assert not ran
    assert verify.run_suites("all", max_part=2, degree=5) == []
    assert ran == ["macmahon", "toggles"]


@pytest.mark.parametrize("suite, key", [("configurations", "bound"),
                                        ("q-commutation", "max_n")])
def test_suites_take_no_bound_that_nothing_sets(suite, key):
    # the configurations suite's deficits and the q-commutation grid sizes
    # are constants, named in the suites' row names
    with pytest.raises(DomainError, match=f"^{key} is read by no requested"):
        verify.run_suites([suite], **{key: 3})
