from collections import Counter

from pptoggle import series
from pptoggle.verify import suite_ptdt_two_leg


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
