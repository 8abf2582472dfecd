"""The value classes' fields, defaults, repr, equality, hashing and
mutability. Counterexamples and invariant messages print these reprs, the
command line builds `CheckResult` rows by keyword, and `run_suites` renames
rows in place, so each of these is part of the package's behaviour."""

import copy
import pickle

import pytest

from pptoggle import bijections as bj
from pptoggle import boundary as bd
from pptoggle import configurations as cf
from pptoggle import oracle as oc
from pptoggle import series as sr
from pptoggle import verify as vf
from pptoggle.halfint import HalfInt

GOLDEN_REPRS = [
    (lambda: HalfInt(7), "HalfInt(7)"),
    (lambda: cf.PlanePartition({(1, 1): 2, (1, 2): 1}),
     "PlanePartition(entries={(1, 1): 2, (1, 2): 1})"),
    (lambda: cf.OneLegSPP([2, 1, 0], {(1, 3): 1}),
     "OneLegSPP(shape=(2, 1), entries={(1, 3): 1})"),
    (lambda: cf.OneLegRPP((2, 1), {(1, 2): 1, (2, 1): 1}),
     "OneLegRPP(shape=(2, 1), entries={(1, 2): 1, (2, 1): 1})"),
    (lambda: cf.TwoLegSPP(([1], (2,)), {(1, 1): 1}),
     "TwoLegSPP(legs=((1,), (2,)), excess={(1, 1): 1})"),
    (lambda: cf.TwoLegRPP(((2,), (1,)), {(1, 1): 1}),
     "TwoLegRPP(legs=((2,), (1,)), deficit={(1, 1): 1})"),
    (lambda: cf.HookTableau("inside", (2, 1), {(1, 1): 3}),
     "HookTableau(region='inside', shape=(2, 1), values={(1, 1): 3})"),
    (lambda: bd.HookTarget("in-plane", (1, 2)),
     "HookTarget(region='in-plane', cell=(1, 2))"),
    (lambda: bj.ToggleSchedule("seeded", 3),
     "ToggleSchedule(kind='seeded', seed=3)"),
    (lambda: sr.OperatorWord((sr.step_op(1, 1), sr.weigh_op(HalfInt(1))),
                             (1,)),
     "OperatorWord(ops=(('step', 1, HalfInt(2)), ('weigh', HalfInt(1))), "
     "bra=(1,), ket=())"),
    (lambda: oc.WeightCensus.take("plane", None, 3),
     "WeightCensus(family='plane', legs=None, counts={HalfInt(0): 1, "
     "HalfInt(2): 1, HalfInt(4): 3, HalfInt(6): 6}, bound=HalfInt(6))"),
    (lambda: vf.CheckResult("macmahon", False, "d",
                            cf.PlanePartition({(1, 1): 1})),
     "CheckResult(name='macmahon', passed=False, detail='d', "
     "counterexample=PlanePartition(entries={(1, 1): 1}))"),
]

NAMES = [text.split("(")[0] for _, text in GOLDEN_REPRS]

FROZEN = [
    (lambda: HalfInt(1), "doubled"),
    (lambda: cf.PlanePartition(), "entries"),
    (lambda: cf.OneLegSPP((1,)), "shape"),
    (lambda: cf.OneLegRPP((1,)), "entries"),
    (lambda: cf.TwoLegSPP(((1,), ())), "legs"),
    (lambda: cf.TwoLegRPP(((1,), ())), "deficit"),
    (lambda: cf.HookTableau("plane"), "region"),
    (lambda: bd.HookTarget("in-lambda", (1, 1)), "cell"),
    (lambda: bj.ToggleSchedule(), "seed"),
    (lambda: sr.OperatorWord(()), "ops"),
]


@pytest.mark.parametrize("build, text", GOLDEN_REPRS, ids=NAMES)
def test_each_value_class_prints_its_golden_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", GOLDEN_REPRS[1:], ids=NAMES[1:])
def test_each_record_holds_exactly_its_fields_in_order(build, text):
    # == and hash read the instance dict, and repr reads _fields
    value = build()
    assert tuple(vars(value)) == type(value)._fields


@pytest.mark.parametrize("build, text", GOLDEN_REPRS, ids=NAMES)
def test_each_value_survives_pickle_and_deepcopy(build, text):
    value = build()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and repr(twin) == text


@pytest.mark.parametrize("build, name", FROZEN,
                         ids=[f"{i}-{name}" for i, (_, name) in enumerate(FROZEN)])
def test_a_frozen_value_refuses_assignment_and_deletion(build, name):
    value = build()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == before


def test_equality_holds_only_within_one_class():
    assert cf.OneLegSPP((2, 1)) != cf.OneLegRPP((2, 1))
    assert cf.OneLegSPP([2, 1], {(1, 3): 1}) == cf.OneLegSPP((2, 1), {(1, 3): 1})
    assert cf.TwoLegSPP(((1,), ())) != cf.TwoLegRPP(((1,), ()))
    assert bd.HookTarget("in-plane", (1, 2)) != ("in-plane", (1, 2))
    assert cf.PlanePartition() != {}


def test_defaults_are_fresh_per_instance():
    assert cf.PlanePartition().entries is not cf.PlanePartition().entries
    assert cf.HookTableau("plane").values == {}
    assert cf.HookTableau("plane").shape == ()
    assert sr.OperatorWord(()) == sr.OperatorWord((), (), ())
    assert bj.ToggleSchedule() == bj.ToggleSchedule("off-diagonal", 0)
    row = vf.CheckResult("macmahon", True)
    assert (row.detail, row.counterexample) == ("", None)


def test_frozen_values_hash_by_their_fields():
    by_keyword = bj.ToggleSchedule("seeded", seed=3)
    assert by_keyword == bj.ToggleSchedule("seeded", 3)
    assert hash(by_keyword) == hash(bj.ToggleSchedule("seeded", 3))
    assert hash(by_keyword) == hash(("seeded", 3))
    word = sr.OperatorWord(ops=(sr.step_op(1, 1),), bra=(1,), ket=())
    assert {word, sr.OperatorWord((sr.step_op(1, 1),), (1,))} == {word}
    assert len({bd.HookTarget("in-plane", (1, 2)),
                bd.HookTarget("in-plane", (1, 2))}) == 1
    with pytest.raises(TypeError):
        hash(cf.PlanePartition())
    with pytest.raises(TypeError):
        hash(cf.OneLegSPP((1,)))


def test_mutable_rows_are_unhashable_and_renamable():
    census = oc.WeightCensus.take("plane", None, 2)
    with pytest.raises(TypeError):
        hash(census)
    census.family = "renamed"
    assert census.family == "renamed"
    row = vf.CheckResult(**{"name": "macmahon", "passed": True,
                            "detail": "ok", "counterexample": None})
    assert row == vf.CheckResult("macmahon", True, "ok")
    with pytest.raises(TypeError):
        hash(row)
    row.name = "macmahon@degree=4"
    assert row.line() == "PASS macmahon@degree=4: ok"
