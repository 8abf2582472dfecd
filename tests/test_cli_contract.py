"""The CLI's exit-code contract on generated input.

Valid payloads come from the oracle's small enumerations; each example gives
one of them at most one defect and runs `cli.main` in-process, so an
exception that escapes it fails the test. Exit codes must be 0, 2, 3 or 4,
a payload left valid must exit 0, and a `--round-trip` run that exits 0 must
print both rows as passing. Bounds: members of weight (or excess, deficit)
<= 3 on the shapes and legs below, tableaux of up to 3 cells on [1,3]^2,
150 examples for the payload verbs and 80 for the flag verbs: about 1.5 s
on a 2-vCPU VM.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pptoggle import oracle as oc
from pptoggle.cli import main
from pptoggle.configurations import HookTableau
from pptoggle.halfint import HalfInt
from pptoggle.serialize import config_to_json

SHAPES = [(), (1,), (2, 1)]
LEGS = [((1,), ()), ((1,), (1,)), ((2,), (1,))]
BOUND = 3


def _json(cfgs):
    return [config_to_json(cfg) for cfg in cfgs]


PLANES = _json(oc.enum_plane_partitions(BOUND))
ONE_LEG_SPPS = _json(c for lam in SHAPES
                     for c in oc.enum_one_leg_spp(lam, BOUND))
ONE_LEG_RPPS = _json(c for lam in SHAPES
                     for c in oc.enum_one_leg_rpp(lam, BOUND))
TWO_LEG_SPPS = _json(c for legs in LEGS
                     for c in oc.enum_two_leg_spp(legs, BOUND))
TWO_LEG_RPPS = _json(c for legs in LEGS
                     for c in oc.enum_two_leg_rpp(legs, BOUND))
TABLEAUX = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           st.integers(1, 3), max_size=3).map(
    lambda values: config_to_json(HookTableau("plane", (), values)))

# (argv, valid payloads) for each verb and direction that reads a payload
PAYLOADS = {
    "biject plane": st.sampled_from(PLANES),
    "biject plane --direction inverse": TABLEAUX,
    "biject one-leg": st.sampled_from(ONE_LEG_SPPS),
    "biject one-leg --direction inverse": st.fixed_dictionaries(
        {"rho": st.sampled_from(ONE_LEG_RPPS), "pi": st.sampled_from(PLANES)}),
    "biject two-leg": st.sampled_from(TWO_LEG_SPPS),
    "biject two-leg --direction inverse": st.fixed_dictionaries(
        {"rho": st.sampled_from(TWO_LEG_RPPS), "pi": st.sampled_from(PLANES)}),
    "render": st.sampled_from(PLANES + ONE_LEG_SPPS + ONE_LEG_RPPS
                              + TWO_LEG_SPPS + TWO_LEG_RPPS) | TABLEAUX,
}


@st.composite
def censuses(draw):
    """A census file's lines, as `enumerate` writes them."""
    family = draw(st.sampled_from(["plane", "one-leg-spp", "one-leg-rpp",
                                   "two-leg-spp", "two-leg-rpp"]))
    legs = (None if family == "plane"
            else draw(st.sampled_from(SHAPES)) if family.startswith("one")
            else draw(st.sampled_from(LEGS)))
    bound = HalfInt.of(draw(st.integers(0, 2)))
    members = oc.weighed_members(family, legs, bound)
    legs_json = ([] if legs is None else [list(legs)]
                 if family.startswith("one") else [list(p) for p in legs])
    head = {"family": family, "legs": legs_json,
            "bound": {"doubled": bound.doubled}, "count": len(members)}
    return [head] + _json(cfg for _, cfg in members)


def _objects(node):
    """Every JSON object in a payload, outermost first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _objects(child)


SUPPORT_KEYS = ("entries", "excess", "deficit", "values")
DEFECTS = ("none", "duplicated-cell", "wrong-type", "missing-key",
           "non-integer", "huge-value", "off-quadrant", "extra-leg",
           "missing-leg", "past-the-box-cap")


def spoil(draw, payload) -> str:
    """Give payload (in place) one defect; returns its name."""
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "none":
        return defect
    objects = list(_objects(payload))
    configs = [o for o in objects if "type" in o]
    if defect in ("wrong-type", "missing-key") or not configs:
        # the outermost object half the time: it holds the payload's parts
        target = objects[0] if draw(st.booleans()) else draw(
            st.sampled_from(objects))
        if not target:
            return "none"
        key = draw(st.sampled_from(sorted(target)))
        if defect == "missing-key":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(["x", 1.5, None, {}, [[1]], 7]))
        return defect
    cfg = draw(st.sampled_from(configs))
    support = next(cfg[k] for k in SUPPORT_KEYS if k in cfg)
    if defect == "duplicated-cell":
        i, j, v = support[0] if support else (1, 1, 1)
        support += [[i, j, v], [i, j, v + 1]]
    elif defect == "non-integer":
        support.append([1, 1, draw(st.sampled_from([1.5, "1", True, None]))])
    elif defect == "huge-value":
        if support:
            support[draw(st.integers(0, len(support) - 1))][2] = 10 ** 30
        else:
            support.append([1, 1, 10 ** 30])
    elif defect == "off-quadrant":
        support.append([draw(st.integers(-2, 0)), draw(st.integers(-2, 1)), 1])
    elif defect == "extra-leg":
        cfg["legs"].append([1])
    elif defect == "missing-leg":
        if cfg["legs"]:
            cfg["legs"].pop()
    elif defect == "past-the-box-cap":
        # a cell of a 257x257 box, or a leg that widens the two-leg window
        # to 301 (each just over 1 << 16 cells)
        if cfg["legs"] and draw(st.booleans()):
            cfg["legs"][0] = [300] + cfg["legs"][0][1:]
        else:
            support.append([257, 257, 1])
    return defect


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_payload_verbs_keep_the_exit_code_contract(workdir, data):
    verb = data.draw(st.sampled_from(sorted(PAYLOADS) + ["verify --census"]))
    if verb == "verify --census":
        payload = data.draw(censuses())
    else:
        payload = data.draw(PAYLOADS[verb])
    payload = copy.deepcopy(payload)  # the enumerations' objects are shared
    defect = spoil(data.draw, payload)
    src = workdir / "payload.json"
    if verb == "verify --census":
        src.write_text("".join(json.dumps(line) + "\n" for line in payload))
        argv = ["verify", "--json", "--census", str(src)]
    else:
        src.write_text(json.dumps(payload))
        argv = verb.split() + ["--input", str(src)]
        if verb.startswith("biject"):
            argv += ["--round-trip", "--json"]
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, payload, err)
    if defect == "none":
        assert code == 0, (argv, payload, err)
    if code == 0 and "--round-trip" in argv:
        checks = json.loads(out.splitlines()[-1])["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("round-trip", True), ("weight", True)]


# half the partitions and degrees are well formed
PARTS = (st.sampled_from(["", "1", "2,1", "2,2", "3,1,1"])
         | st.sampled_from(["1,2", "a", "2,-1", "1.5"]))
DEGREES = st.sampled_from(["0", "2", "5/2"]) | st.sampled_from(["-1", "x"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flag_verbs_keep_the_exit_code_contract(data):
    verb = data.draw(st.sampled_from(["series", "enumerate", "toggle"]))
    degree = data.draw(DEGREES)
    if verb == "series":
        shape = data.draw(st.sampled_from(
            ["--macmahon", "--one-leg", "--two-leg", "--two-leg-rpp"]))
        legs = data.draw(PARTS if shape == "--one-leg"
                         else st.builds("{}/{}".format, PARTS, PARTS))
        argv = ["series", shape, *([legs] if shape != "--macmahon" else []),
                "--degree", degree, "--cross-check"]
    elif verb == "enumerate":
        family = data.draw(st.sampled_from(["plane", "one-leg-spp",
                                            "one-leg-rpp", "two-leg-spp",
                                            "two-leg-rpp", "nosuch"]))
        legs = data.draw(PARTS | st.builds("{}/{}".format, PARTS, PARTS))
        argv = ["enumerate", "--family", family, "--legs", legs,
                "--bound", degree]
    else:
        argv = ["toggle", "--upper", data.draw(PARTS), "--middle",
                data.draw(PARTS), "--lower", data.draw(PARTS)]
        if data.draw(st.booleans()):
            argv += ["--push", data.draw(st.sampled_from(["0", "2", "-1"]))]
    code, _, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, err)
