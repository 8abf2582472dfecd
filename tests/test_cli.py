import hashlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pptoggle
from pptoggle import series
from pptoggle.cli import main
from pptoggle.errors import NonConvergenceError
from pptoggle.halfint import HalfInt
from pptoggle.serialize import config_from_json, config_to_json
from pptoggle.configurations import (OneLegSPP, PlanePartition, TwoLegSPP,
                                     cfg_weight)

FIG_SIGMA_JSON = config_to_json(
    OneLegSPP((2, 1), {(1, 3): 3, (2, 2): 4, (2, 3): 2,
                       (3, 1): 5, (3, 2): 3, (3, 3): 2}))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_series_macmahon(capsys):
    code, out = run(capsys, "series", "--macmahon", "--degree", "6")
    assert code == 0
    assert "48*q^6" in out and "13*q^4" in out


def test_series_one_leg_degree_zero(capsys):
    code, out = run(capsys, "series", "--one-leg", "2,1", "--degree", "0")
    assert code == 0
    assert out.strip() == "1*q^0"


def test_series_two_leg_cross_check(capsys):
    code, out = run(capsys, "series", "--two-leg", "2,2/3,1",
                    "--degree", "4", "--cross-check")
    assert code == 0
    assert "PASS product-identity" in out


def test_series_requires_a_shape(capsys):
    assert main(["series"]) == 2
    # and only one: a second shape flag is refused, not ignored
    assert main(["series", "--macmahon", "--one-leg", "2,1",
                 "--degree", "2"]) == 2
    assert "not allowed with argument --macmahon" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["series", "--macmahon"], "--degree"),
    (["enumerate", "--family", "plane"], "--bound"),
])
def test_a_negative_fraction_reaches_the_flags_own_check(capsys, argv, flag):
    # read as a value, as -1 is, not as an unknown option
    assert main(argv + [flag, "-1/2"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument {flag}: must be >= 0: '-1/2'\n")
    assert main(argv + [f"{flag}=-1/2"]) == 2
    assert capsys.readouterr().err == err


def test_biject_one_leg_round_trip(tmp_path, capsys):
    src = tmp_path / "sigma.json"
    src.write_text(json.dumps(FIG_SIGMA_JSON))
    code, out = run(capsys, "biject", "one-leg", "--direction", "forward",
                    "--input", str(src), "--round-trip")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    rho_weight = sum(v for _, _, v in payload["rho"]["entries"])
    pi_weight = sum(v for _, _, v in payload["pi"]["entries"])
    assert (rho_weight, pi_weight) == (3, 16)
    assert "PASS round-trip" in out and "PASS weight" in out


def test_biject_empty_plane(tmp_path, capsys):
    src = tmp_path / "pp.json"
    src.write_text(json.dumps(config_to_json(PlanePartition())))
    code, out = run(capsys, "biject", "plane", "--input", str(src))
    assert code == 0
    assert json.loads(out.splitlines()[0])["values"] == []


def test_biject_two_leg_round_trip(tmp_path, capsys):
    sigma = TwoLegSPP(((2,), (1,)), {(1, 1): 1, (1, 2): 1})
    src = tmp_path / "sigma2.json"
    src.write_text(json.dumps(config_to_json(sigma)))
    code, out = run(capsys, "biject", "two-leg", "--input", str(src),
                    "--round-trip")
    assert code == 0
    assert "FAIL" not in out


def test_biject_two_leg_round_trip_on_a_huge_part(tmp_path, capsys):
    # the windows are sized by the legs' lengths, not their parts
    src = tmp_path / "sigma.json"
    src.write_text(json.dumps({"type": "two-leg-spp",
                               "legs": [[10 ** 9], [1]],
                               "excess": [[1, 1, 1]]}))
    code, out = run(capsys, "biject", "two-leg", "--input", str(src),
                    "--round-trip")
    assert code == 0
    assert out.splitlines()[1:] == ["PASS round-trip", "PASS weight"]


BIJECT_SOURCES = {
    "plane": config_to_json(PlanePartition.from_rows([[3, 1], [2, 1]])),
    "one-leg": FIG_SIGMA_JSON,
    "two-leg": config_to_json(TwoLegSPP(((2,), (1,)), {(1, 1): 1, (1, 2): 1})),
}


def _forward_image(tmp_path, family):
    """The family's source and image files, the image written by `biject`."""
    src, image = tmp_path / "source.json", tmp_path / "image.json"
    src.write_text(json.dumps(BIJECT_SOURCES[family]))
    assert main(["biject", family, "--input", str(src),
                 "--output", str(image)]) == 0
    return src, image


@pytest.mark.parametrize("family", sorted(BIJECT_SOURCES))
def test_biject_inverse_round_trip(tmp_path, capsys, family):
    # forward(inverse(image)) == image, on the image of the source
    src, image = _forward_image(tmp_path, family)
    code, out = run(capsys, "biject", family, "--direction", "inverse",
                    "--input", str(image), "--round-trip")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == json.loads(src.read_text())
    assert lines[1:] == ["PASS round-trip", "PASS weight"]


def test_biject_inverse_round_trip_failure_exits_4(tmp_path, capsys,
                                                   monkeypatch):
    # a forward map that drops the plane partition cannot take the inverse's
    # output back to the image it came from
    from pptoggle import cli
    _, image = _forward_image(tmp_path, "one-leg")
    forward, *rest = cli._BIJECTIONS["one-leg"]
    monkeypatch.setitem(cli._BIJECTIONS, "one-leg",
                        (lambda sigma, schedule:
                         (forward(sigma, schedule)[0], PlanePartition()),
                         *rest))
    code, out = run(capsys, "biject", "one-leg", "--direction", "inverse",
                    "--input", str(image), "--round-trip")
    assert code == 4
    assert out.splitlines()[1:] == ["FAIL round-trip", "PASS weight"]


@pytest.mark.parametrize("family, direction", [
    ("two-leg", "forward"), ("two-leg", "inverse"), ("plane", "inverse"),
    ("one-leg", "inverse")])
def test_biject_schedule_without_pops_is_a_usage_error(tmp_path, capsys,
                                                       family, direction):
    # two-leg pops in the canonical order, and an inverse pushes in it
    src, image = _forward_image(tmp_path, family)
    payload = image if direction == "inverse" else src
    capsys.readouterr()
    assert main(["biject", family, "--direction", direction,
                 "--schedule", "seeded:3", "--input", str(payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --schedule orders the pops")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("family", ["plane", "one-leg"])
def test_biject_schedule_orders_forward_pops(tmp_path, capsys, family):
    # any pop order gives the default's image
    src, image = _forward_image(tmp_path, family)
    code, out = run(capsys, "biject", family, "--schedule", "seeded:3",
                    "--input", str(src))
    assert code == 0 and out == image.read_text()


def test_invariant_failure_exits_4(tmp_path, capsys, monkeypatch):
    # an index one short of the worked example's true 3 pops 1 at (3, 1),
    # past the stabilised square: exit 4 with a message, not a traceback
    from pptoggle import bijections
    monkeypatch.setattr(bijections, "stabilization_index", lambda sigma: 2)
    sigma = TwoLegSPP(((2, 2), (3, 1)),
                      {(1, 1): 3, (1, 2): 2, (2, 1): 3, (2, 2): 1,
                       (2, 3): 2, (3, 1): 1, (3, 2): 1, (3, 3): 2})
    src = tmp_path / "sigma.json"
    src.write_text(json.dumps(config_to_json(sigma)))
    assert main(["biject", "two-leg", "--input", str(src)]) == 4
    assert "invariant: nonzero pop past" in capsys.readouterr().err


def test_toggle_verbs(capsys):
    code, out = run(capsys, "toggle", "--upper", "5,3,1,1",
                    "--middle", "3,2,1", "--lower", "3,2")
    assert code == 0 and json.loads(out) == [5, 3, 1]
    code, out = run(capsys, "toggle", "--upper", "4,2,1",
                    "--middle", "5,3,1,1", "--lower", "3,2,1")
    assert code == 0 and json.loads(out) == {"toggled": [2, 2], "popped": 1}
    code, out = run(capsys, "toggle", "--upper", "4,2,1",
                    "--middle", "2,2", "--lower", "3,2,1", "--push", "1")
    assert code == 0 and json.loads(out) == [5, 3, 1, 1]


def test_enumerate_then_verify_census(tmp_path, capsys):
    census = tmp_path / "plane.jsonl"
    code, _ = run(capsys, "enumerate", "--family", "plane", "--bound", "4",
                  "--output", str(census))
    assert code == 0
    head = json.loads(census.read_text().splitlines()[0])
    assert head["count"] == 1 + 1 + 3 + 6 + 13
    code, out = run(capsys, "verify", "--census", str(census))
    assert code == 0 and "PASS census-plane" in out


def _census_lines(tmp_path, capsys, *argv):
    """A census written by `enumerate`, its path, its lines, and the weight
    of each member line."""
    path = tmp_path / "census.jsonl"
    assert run(capsys, "enumerate", *argv, "--output", str(path))[0] == 0
    lines = path.read_text().splitlines()
    weights = [None] + [sum(v for *_, v in json.loads(line)["entries"])
                        for line in lines[1:]]
    return path, lines, weights


@pytest.mark.parametrize("argv, member", [
    (["--family", "plane", "--bound", "2"],
     {"type": "one-leg-spp", "legs": [[1]], "entries": [[1, 2, 1]]}),
    (["--family", "one-leg-spp", "--legs", "1", "--bound", "2"],
     {"type": "one-leg-spp", "legs": [[2]], "entries": [[1, 3, 1]]}),
], ids=["other-type", "other-legs"])
def test_verify_census_rejects_a_foreign_member(tmp_path, capsys, argv, member):
    # the weight-1 member swapped for another family's: the tally by weight
    # still matches the series, so only the member check catches it
    path, lines, weights = _census_lines(tmp_path, capsys, *argv)
    lines[weights.index(1)] = json.dumps(member, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--census", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_census_fails_a_duplicate_member(tmp_path, capsys):
    path, lines, weights = _census_lines(tmp_path, capsys, "--family", "plane",
                                         "--bound", "2")
    first, second = [k for k, w in enumerate(weights) if w == 2][:2]
    lines[first] = lines[second]
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify", "--census", str(path))
    assert code == 4 and "FAIL census-plane" in out
    assert f"duplicate member {lines[second]}" in out


def test_verify_census_fails_a_member_over_the_bound(tmp_path, capsys):
    # the tally is truncated at the bound, so only the weight check sees it
    path, lines, _ = _census_lines(tmp_path, capsys, "--family", "plane",
                                   "--bound", "2")
    head = json.loads(lines[0])
    head["count"] += 1
    heavy = json.dumps({"entries": [[1, 1, 3]], "legs": [],
                        "type": "plane-partition"}, sort_keys=True)
    lines[0] = json.dumps(head, sort_keys=True)
    path.write_text("\n".join(lines + [heavy]) + "\n")
    code, out = run(capsys, "verify", "--census", str(path))
    assert code == 4 and "FAIL census-plane" in out
    assert f"member {heavy} of weight 3 over the bound 2" in out


def test_verify_census_fails_a_wrong_count(tmp_path, capsys):
    path, lines, _ = _census_lines(tmp_path, capsys, "--family", "plane",
                                   "--bound", "2")
    head = json.loads(lines[0])
    head["count"] = 99
    lines[0] = json.dumps(head, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify", "--census", str(path))
    assert code == 4 and "FAIL census-plane" in out
    assert "header count 99 for 5 members" in out


def test_verify_none_is_vacuous(capsys):
    code, out = run(capsys, "verify", "--suite", "none")
    assert code == 0
    assert "vacuous" in out


def test_verify_suite_with_bounds(capsys):
    code, out = run(capsys, "verify", "--suite", "toggles", "--max-part", "2")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("argv, flag", [
    (["--suite", "toggles", "--degree", "5"], "--degree"),
    (["--suite", "macmahon", "--max-part", "2"], "--max-part"),
    (["--suite", "configurations", "--max-weight", "3"], "--max-weight"),
    (["--suite", "toggles", "--lambda", "2,1"], "--lambda"),
    (["--census", "CENSUS", "--degree", "3"], "--degree"),
    (["--census", "CENSUS", "--max-part", "2"], "--max-part"),
    (["--census", "CENSUS", "--max-weight", "3"], "--max-weight"),
    (["--census", "CENSUS", "--lambda", "2,1"], "--lambda"),
    (["--suite", "none", "--degree", "3"], "--degree"),
    (["--census", "CENSUS", "--suite", "toggles"], "--suite"),
], ids=["toggles-degree", "macmahon-max-part", "configurations-max-weight",
        "toggles-lambda", "census-degree", "census-max-part",
        "census-max-weight", "census-lambda", "none-degree", "census-suite"])
def test_a_bound_no_requested_check_reads_is_a_usage_error(
        tmp_path, capsys, argv, flag):
    # the run would drop the bound and check at the defaults instead
    census = tmp_path / "census.jsonl"
    assert main(["enumerate", "--family", "plane", "--bound", "2",
                 "--output", str(census)]) == 0
    capsys.readouterr()
    argv = [str(census) if a == "CENSUS" else a for a in argv]
    assert main(["verify", *argv]) == 2
    assert flag in capsys.readouterr().err


def test_json_report_names_the_argv_main_parsed(capsys, monkeypatch):
    # main(argv) reports argv, not the arguments of the process it runs in
    monkeypatch.setattr(sys, "argv", ["host", "unrelated", "--flag"])
    code, out = run(capsys, "--json", "series", "--macmahon", "--degree", "2")
    assert code == 0
    assert json.loads(out)["command"] == "--json series --macmahon --degree 2"


def test_report_determinism(capsys):
    code1, out1 = run(capsys, "series", "--macmahon", "--degree", "5", "--json")
    code2, out2 = run(capsys, "series", "--macmahon", "--degree", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def stdout_under_hash_seeds(*argv, stdin=b""):
    """The CLI's stdout for argv, reading stdin, in fresh processes under
    PYTHONHASHSEED 1 and 2."""
    src = Path(pptoggle.__file__).resolve().parents[1]
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-m", "pptoggle.cli", *argv],
                              input=stdin, capture_output=True, env=env,
                              check=True)
        outs.append(proc.stdout)
    return outs


def test_report_determinism_across_processes():
    outs = stdout_under_hash_seeds("series", "--macmahon", "--degree", "3",
                                   "--json")
    assert outs[0] == outs[1]


def test_pruned_one_leg_fold_is_the_same_across_processes():
    # the per-size limits drop most of this word's states; which ones must
    # not depend on the hash seed
    outs = stdout_under_hash_seeds("series", "--one-leg", "5,4,3,2,1",
                                   "--degree", "12", "--json")
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["outputs"]


@pytest.mark.parametrize("argv, stdin", [
    (["enumerate", "--family", "two-leg-rpp", "--legs", "2,1/1,1",
      "--bound", "9/2"], None),
    (["biject", "plane", "--schedule", "seeded:7", "--round-trip", "--json"],
     {"type": "plane-partition", "legs": [],
      "entries": [[1, 1, 3], [1, 2, 2], [1, 3, 1], [2, 1, 2], [2, 2, 1],
                  [3, 1, 1]]}),
    (["verify", "--suite", "goldens", "--json"], None),
], ids=["enumerate", "seeded-biject", "verify-goldens"])
def test_verbs_are_the_same_across_processes(argv, stdin):
    outs = stdout_under_hash_seeds(
        *argv, stdin=b"" if stdin is None else json.dumps(stdin).encode())
    assert outs[0] == outs[1] and outs[0]


def test_usage_exit_code(capsys):
    assert main(["series", "--degree", "nonsense"]) == 2
    assert main(["biject", "sideways"]) == 2


def test_non_convergence_exit_code(monkeypatch, capsys):
    def diverge(*args):
        raise NonConvergenceError("series did not settle")

    monkeypatch.setattr(series, "evaluate_stable", diverge)
    assert main(["series", "--macmahon"]) == 3
    assert "non-convergence:" in capsys.readouterr().err


def test_state_cap_exits_non_convergence(monkeypatch, capsys):
    monkeypatch.setattr(series, "MAX_STATES", 5)
    assert main(["series", "--macmahon", "--degree", "6"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: transfer step")
    assert "states, over the cap of 5" in err


# a payload of the wrong family for the biject cases below
PP_PAYLOAD = {"type": "plane-partition", "legs": [], "entries": [[1, 1, 1]]}
SPP_PAYLOAD = {"type": "two-leg-spp", "legs": [[1], [1]], "excess": []}
RPP_PAYLOAD = {"type": "one-leg-rpp", "legs": [[1]], "entries": [[1, 1, 1]]}

EMPTY_PP = {"type": "plane-partition", "legs": [], "entries": []}
# one far tableau cell, and a two-leg window one past a leg of length 1000:
# each would walk a box of about a million cells, past
# bijections.MAX_BOX_CELLS
FAR_CELL = {"type": "hook-tableau", "region": "plane", "legs": [[]],
            "values": [[2000, 2000, 1]]}
WIDE_WINDOW = {"rho": {"type": "two-leg-rpp", "legs": [[1] * 1000, [1]],
                       "deficit": []}, "pi": EMPTY_PP}

# (argv, payload, the fault the error names) for inputs the decoder, a
# box cap or the picture cap refuses
NAMED_FAULTS = [
    (["biject", "plane", "--direction", "inverse"],
     {"type": "hook-tableau", "region": "plane", "legs": [[1]], "values": []},
     "a plane tableau has no shape: (1,)"),
    (["render"], {"type": "one-leg-spp", "legs": [[2, 1], [1]], "entries": []},
     "one-leg-spp needs 1 legs: [[2, 1], [1]]"),
    (["render"], {"type": "plane-partition", "legs": [[1]], "entries": []},
     "plane-partition needs 0 legs: [[1]]"),
    (["render"], {"type": "plane-partition", "legs": []},
     "plane-partition has no 'entries'"),
    (["render"], {"type": "hook-tableau", "legs": [[]], "values": []},
     "hook-tableau has no 'region'"),
    (["render"], {"type": "hook-tableau", "region": "plane", "legs": [],
                  "values": []},
     "hook-tableau needs 1 legs: []"),
    (["biject", "two-leg", "--direction", "inverse"], {"pi": EMPTY_PP},
     "an inverse two-leg input has no 'rho'"),
    (["biject", "plane", "--direction", "inverse"], FAR_CELL,
     "a 2000x2000 box of toggles is over the cap of 65536 cells"),
    (["biject", "two-leg", "--direction", "inverse"], WIDE_WINDOW,
     "a 1001x1001 box of toggles is over the cap of 65536 cells"),
    (["render"], {"type": "one-leg-spp", "legs": [[10 ** 6]],
                  "entries": [[2, 1, 1]]},
     "a 1000000x1000000 picture is over the cap of 262144 cells"),
    (["render"], {"type": "two-leg-spp", "legs": [[1] * 1000, [1]],
                  "excess": []},
     "a 1002x1002 picture is over the cap of 262144 cells"),
    (["render"], {"type": "hook-tableau", "region": "plane", "legs": [[]],
                  "values": [[1, 1, 1], [10 ** 5, 10 ** 5, 1]]},
     "a 100000x100000 picture is over the cap of 262144 cells"),
    (["verify", "--suite", "nosuch"], None, "unknown suite 'nosuch'"),
    (["enumerate", "--family", "plane", "--legs", "2,1", "--bound", "1"], None,
     "the plane family has no legs: '2,1'"),
]
NAMED_FAULT_IDS = [
    "plane-tableau-with-a-leg", "one-leg-spp-with-two-legs",
    "plane-partition-with-a-leg", "plane-partition-without-entries",
    "tableau-without-region", "tableau-without-its-empty-shape",
    "inverse-without-rho", "far-tableau-cell", "wide-two-leg-window",
    "long-shape-picture", "long-leg-picture", "far-tableau-picture",
    "unknown-suite", "plane-census-with-legs"]


def usage_error(tmp_path, capsys, argv, payload) -> str:
    """Run argv on payload, which must exit 2; returns stderr."""
    if payload is not None:
        # a string is the file's text; anything else is one JSON line
        src = tmp_path / "payload.json"
        src.write_text(payload if isinstance(payload, str)
                       else json.dumps(payload))
        flag = [] if argv[-1] == "--census" else ["--input"]
        argv = argv + flag + [str(src)]
    assert main(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv, payload", [
    (["series", "--one-leg", "a,b"], None),
    (["series", "--two-leg", "2,x/1"], None),
    (["render"], {"type": "plane-partition", "legs": [],
                  "entries": [[1, 1, "x"]]}),
    (["render"], {"type": "one-leg-rpp", "legs": [[1]],
                  "entries": [[1, 1]]}),
    (["biject", "one-leg"], {"type": "one-leg-spp", "legs": [["a"]],
                             "entries": []}),
    (["render"], {"type": "two-leg-spp", "excess": []}),
    (["biject", "two-leg"], {"type": "two-leg-spp", "legs": [[1]],
                             "excess": []}),
    (["render"], [1, 2]),
    (["render"], {"type": "plane-partition", "entries": 5}),
    (["biject", "two-leg", "--direction", "inverse"], [1]),
    (["biject", "two-leg", "--direction", "inverse"], {"rho": "x", "pi": {}}),
    (["render"], {"type": ["plane-partition"], "legs": []}),
    (["render"], {"type": "two-leg-spp", "legs": [[1], [1]],
                  "excess": [[0, 1, 2]]}),
    (["verify", "--census"], ""),
    (["verify", "--census"], [1]),
    (["verify", "--census"], {"family": "plane", "legs": [],
                              "bound": {"doubled": "x"}}),
    (["verify", "--census"], {"legs": [], "bound": {"doubled": 4}}),
    (["verify", "--census"], {"family": "plane", "legs": []}),
    (["verify", "--census"], {"family": "one-leg-spp", "legs": [],
                              "bound": {"doubled": 4}}),
    (["verify", "--census"], {"family": [], "legs": [],
                              "bound": {"doubled": 4}}),
    (["verify", "--census"], {"family": "plane", "legs": [],
                              "bound": {"doubled": 4}, "count": "5"}),
    (["verify", "--census"], {"family": "plane", "legs": [],
                              "bound": {"doubled": 4}}),
    (["biject", "plane", "--schedule", "seeded:abc"],
     {"type": "plane-partition", "legs": [], "entries": [[1, 1, 1]]}),
    (["biject", "plane", "--schedule", "seeded:"],
     {"type": "plane-partition", "legs": [], "entries": [[1, 1, 1]]}),
    (["verify", "--suite", "partitions", "--max-weight", "-3"], None),
    (["verify", "--suite", "hook-edge", "--max-weight", "-1"], None),
    (["verify", "--suite", "ptdt-one-leg", "--degree", "-2"], None),
    (["verify", "--suite", "macmahon", "--degree", "-1"], None),
    (["verify", "--suite", "toggles", "--max-part", "-1"], None),
    (["verify", "--suite", "macmahon", "--degree", "13/2"], None),
    (["--seed", "1", "series", "--macmahon"], None),
    (["series", "--macmahon", "--degree", "-1"], None),
    (["series", "--one-leg", "2,1", "--degree", "-1"], None),
    (["series", "--two-leg", "1/1", "--degree", "-1"], None),
    (["enumerate", "--family", "plane", "--bound", "-1"], None),
    (["render"], {"type": "plane-partition", "legs": [],
                  "entries": [[1, 1, 1], [1, 1, 2]]}),
    (["biject", "plane", "--direction", "inverse"], PP_PAYLOAD),
    (["biject", "one-leg"], PP_PAYLOAD),
    (["biject", "one-leg"], SPP_PAYLOAD),
    (["biject", "two-leg"], PP_PAYLOAD),
    (["biject", "two-leg", "--direction", "inverse"],
     {"rho": RPP_PAYLOAD, "pi": PP_PAYLOAD}),
    (["biject", "one-leg", "--direction", "inverse"],
     {"rho": RPP_PAYLOAD, "pi": SPP_PAYLOAD}),
    *((argv, payload) for argv, payload, _ in NAMED_FAULTS),
], ids=["letter-parts", "letter-leg", "string-value", "short-triple",
        "string-leg-part", "no-legs", "one-leg-of-two", "array-payload",
        "support-not-array", "array-pair", "rho-not-object", "array-type",
        "excess-off-quadrant",
        "census-empty", "census-array-header", "census-string-bound",
        "census-no-family", "census-no-bound", "census-no-leg",
        "census-array-family", "census-string-count", "census-no-count",
        "schedule-letter-seed", "schedule-empty-seed",
        "verify-negative-max-weight", "verify-negative-hook-weight",
        "verify-negative-degree", "verify-negative-macmahon-degree",
        "verify-negative-max-part", "verify-half-degree", "global-seed",
        "series-negative-macmahon-degree", "series-negative-one-leg-degree",
        "series-negative-two-leg-degree", "enumerate-negative-bound",
        "repeated-cell",
        "plane-inverse-of-a-plane-partition", "one-leg-of-a-plane-partition",
        "one-leg-of-a-two-leg-spp", "two-leg-of-a-plane-partition",
        "two-leg-inverse-of-a-one-leg-rho", "one-leg-inverse-of-a-two-leg-pi",
        *NAMED_FAULT_IDS])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, payload):
    assert "error:" in usage_error(tmp_path, capsys, argv, payload)


@pytest.mark.parametrize("argv, payload, fault", NAMED_FAULTS,
                         ids=NAMED_FAULT_IDS)
def test_usage_error_names_the_fault(tmp_path, capsys, argv, payload, fault):
    assert usage_error(tmp_path, capsys, argv, payload) == f"error: {fault}\n"


def test_render_ascii_and_svg(tmp_path, capsys):
    src = tmp_path / "pp.json"
    src.write_text(json.dumps(config_to_json(
        PlanePartition.from_rows([[2, 1], [1]]))))
    code, out = run(capsys, "render", "--input", str(src))
    assert code == 0 and out.splitlines()[0].split() == ["2", "1"]
    code, out = run(capsys, "render", "--input", str(src), "--format", "svg")
    assert code == 0 and out.startswith("<svg")


TWO_LEG_RPP_PAYLOAD = {"type": "two-leg-rpp", "legs": [[2, 1], [1, 1]],
                       "deficit": [[-1, 1, 1], [0, 1, 1]]}
# its picture is sized by the legs' lengths, not their parts: 3x3
LONG_PART_SPP_PAYLOAD = {"type": "two-leg-spp", "legs": [[10 ** 9], [1]],
                         "excess": [[1, 1, 1]]}


@pytest.mark.parametrize("argv, payload, digest", [
    (["enumerate", "--family", "two-leg-spp", "--legs", "2,1/1,1",
      "--bound", "9/2"], None, "5b3888315c19f3a4"),
    (["enumerate", "--family", "two-leg-rpp", "--legs", "2,1/1,1",
      "--bound", "9/2"], None, "f491f519b2d16cca"),
    (["render"], TWO_LEG_RPP_PAYLOAD, "498517e7e0880056"),
    (["enumerate", "--family", "plane", "--bound", "4"], None,
     "2fe67c2c43d78cb5"),
    (["enumerate", "--family", "one-leg-spp", "--legs", "2,1", "--bound", "4"],
     None, "beb65a8034f111d1"),
    (["enumerate", "--family", "one-leg-rpp", "--legs", "3,1", "--bound", "5"],
     None, "198dbbb3138d1328"),
    (["render"], LONG_PART_SPP_PAYLOAD, "9d81ae756e518aa2"),
])
def test_two_leg_golden_output(tmp_path, capsys, argv, payload, digest):
    if payload is not None:
        src = tmp_path / "cfg.json"
        src.write_text(json.dumps(payload))
        argv = argv + ["--input", str(src)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def run_capped(*argv, seconds=20):
    """(exit code, stdout, stderr) of the CLI on argv in a fresh process with
    its address space capped at 1 GiB and killed after `seconds`, so a
    regression fails the test instead of exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(pptoggle.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "pptoggle.cli", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          preexec_fn=cap)
    return proc.returncode, proc.stdout, proc.stderr


LONG_ROW, LONG_COLUMN = "100000000", ",".join(["1"] * 1500)


@pytest.mark.parametrize("family", ["one-leg-spp", "one-leg-rpp"])
@pytest.mark.parametrize("legs, corner", [(LONG_ROW, "3"),
                                          (LONG_COLUMN, "1,1,1")],
                         ids=["row-of-1e8", "1500-rows"])
def test_enumerate_on_a_long_leg(family, legs, corner):
    # at weight <= 2 only cells near the leg's far corner can be nonzero, so
    # the census is that of a short leg with the same corner
    tallies = []
    for shape in (legs, corner):
        code, out, err = run_capped("enumerate", "--family", family,
                                    "--legs", shape, "--bound", "2")
        assert code == 0 and "Traceback" not in err
        head, *members = map(json.loads, out.splitlines())
        assert head["count"] == len(members)
        tallies.append(Counter(sum(v for *_, v in m["entries"])
                               for m in members))
    assert tallies[0] == tallies[1] and tallies[0][2]


@pytest.mark.parametrize("family", ["two-leg-spp", "two-leg-rpp"])
def test_enumerate_two_legs_of_many_rows(family):
    # the bands grow from the few corners of the level, not over the
    # 1500 x 1500 box the legs span, and the level's weight is stated from
    # the legs: the members weigh what those of legs 1,1,1/1,1,1 weigh
    tally = {"two-leg-spp": {0: 1, 1: 2, 2: 6},
             "two-leg-rpp": {0: 1, 1: 1, 2: 2}}[family]
    code, out, err = run_capped("enumerate", "--family", family, "--legs",
                                f"{LONG_COLUMN}/{LONG_COLUMN}", "--bound", "2")
    assert code == 0 and "Traceback" not in err
    head, *members = map(json.loads, out.splitlines())
    assert head["count"] == len(members)
    assert Counter(cfg_weight(config_from_json(m)) for m in members) == {
        HalfInt.of(w): n for w, n in tally.items()}


@pytest.mark.parametrize("head, says", [
    ({"family": "plane", "legs": [], "bound": {"doubled": 26}, "count": 0},
     "plane-partition enumeration capped at weight 12"),
    ({"family": "one-leg-rpp", "legs": [[3, 1]],
      "bound": {"doubled": 10 ** 8}, "count": 0},
     "one-leg enumeration capped at weight 12"),
], ids=["plane", "one-leg-rpp"])
def test_verify_census_refuses_a_header_past_the_oracle_cap(tmp_path, head,
                                                             says):
    # `enumerate` refuses these bounds, so no census of them exists; the
    # reference series is not built
    path = tmp_path / "census.jsonl"
    path.write_text(json.dumps(head) + "\n")
    code, _, err = run_capped("verify", "--census", str(path), seconds=10)
    assert code == 2 and says in err and "Traceback" not in err


BIG = 10 ** 8
BIG_PP = {"type": "plane-partition", "legs": [], "entries": [[1, 1, 1]]}


# a leg part of 10^8 on the payload verbs: each ends in a result or a usage
# error, never a traceback or a blown memory cap. Exit codes are not pinned
# where a box or picture cap refuses the input today
@pytest.mark.parametrize("argv, payload", [
    (["biject", "two-leg", "--round-trip"],
     {"type": "two-leg-spp", "legs": [[BIG], [1]], "excess": [[1, 1, 1]]}),
    (["biject", "two-leg", "--direction", "inverse", "--round-trip"],
     {"rho": {"type": "two-leg-rpp", "legs": [[BIG], [1]], "deficit": []},
      "pi": BIG_PP}),
    (["biject", "one-leg", "--direction", "inverse", "--round-trip"],
     {"rho": {"type": "one-leg-rpp", "legs": [[BIG]], "entries": []},
      "pi": BIG_PP}),
    (["render"], {"type": "one-leg-spp", "legs": [[BIG]],
                  "entries": [[2, 1, 1]]}),
    (["render"], {"type": "one-leg-rpp", "legs": [[BIG]],
                  "entries": [[1, BIG, 1]]}),
    (["render"], {"type": "two-leg-spp", "legs": [[BIG], [1]],
                  "excess": [[1, 1, 1]]}),
    (["render"], {"type": "two-leg-rpp", "legs": [[BIG], [1]],
                  "deficit": [[1, 1, 1]]}),
], ids=["two-leg-forward", "two-leg-inverse", "one-leg-inverse",
        "render-one-leg-spp", "render-one-leg-rpp", "render-two-leg-spp",
        "render-two-leg-rpp"])
def test_payload_verbs_on_a_huge_leg_part(tmp_path, argv, payload):
    src = tmp_path / "cfg.json"
    src.write_text(json.dumps(payload))
    code, out, err = run_capped(*argv, "--input", str(src))
    assert code in (0, 2) and "Traceback" not in err
    if code == 0 and "--round-trip" in argv:
        assert "PASS round-trip\nPASS weight" in out


# the one-leg maps and a tableau's hook lengths count the shape's columns
# from its rows, so a row of 10^8 costs what a short one does
@pytest.mark.parametrize("argv, payload, want, says", [
    (["biject", "one-leg", "--round-trip"],
     {"type": "one-leg-spp", "legs": [[10 ** 8]], "entries": [[2, 1, 1]]},
     0, "PASS round-trip\nPASS weight"),
    (["biject", "plane", "--direction", "inverse"],
     {"type": "hook-tableau", "region": "outside", "legs": [[10 ** 8]],
      "values": [[2, 1, 1]]}, 2, "expected a tableau on the full quadrant"),
], ids=["one-leg-round-trip", "outside-tableau"])
def test_payload_verbs_on_a_long_row(tmp_path, argv, payload, want, says):
    src = tmp_path / "cfg.json"
    src.write_text(json.dumps(payload))
    code, out, err = run_capped(*argv, "--input", str(src))
    assert code == want and "Traceback" not in err
    assert says in out + err and "FAIL" not in out


@pytest.mark.parametrize("family", ["one-leg-spp", "one-leg-rpp"])
def test_verify_census_on_a_long_row(tmp_path, family):
    code, out, err = run_capped("enumerate", "--family", family,
                                "--legs", LONG_ROW, "--bound", "2")
    assert code == 0
    census = tmp_path / "census.jsonl"
    census.write_text(out)
    code, out, err = run_capped("verify", "--census", str(census))
    assert code == 0 and "Traceback" not in err
    assert f"PASS census-{family}" in out


@pytest.mark.parametrize("argv", [["--one-leg", LONG_ROW, "--degree", "2"],
                                  ["--macmahon", "--degree", "1000000"]])
def test_series_refuses_a_word_over_the_cap(argv):
    # series.MAX_WORD_OPS is checked before the word is built
    code, out, err = run_capped("series", *argv)
    assert code == 2 and "Traceback" not in err
    assert "operators is over the cap" in err


@pytest.mark.parametrize("argv, want", [
    (["--macmahon", "--degree", "50000"], 2),
    (["--macmahon", "--degree", "100000"], 2),
    (["--two-leg", "1/1", "--degree", "100000"], 2),
    (["--two-leg", "100000000/1", "--degree", "2"], 2),
    (["--two-leg", "1000000/1", "--degree", "2"], 0),
    (["--one-leg", "65536", "--degree", "2"], 0),
], ids=["macmahon-5e4", "macmahon-1e5", "two-leg-1e5", "two-leg-row-of-1e8",
        "two-leg-row-of-1e6", "one-leg-row-of-65536"])
def test_series_refuses_a_floor_table_over_the_cap(argv, want):
    # series.MAX_FLOOR_ENTRIES is checked before the size floors are built,
    # so a word under MAX_WORD_OPS may still be refused for its state cap
    code, out, err = run_capped("series", *argv)
    assert code == want and "Traceback" not in err
    assert ("floor table of" in err) == (want == 2)


@pytest.mark.parametrize("flag", ["--two-leg", "--two-leg-rpp"])
def test_two_leg_series_on_long_columns(flag):
    # a state's interlacers are built in one loop, not one call per part, so
    # legs of 1,500 parts run; up to degree 2 their series is that of three
    # rows of 1
    outs = []
    for leg in (LONG_COLUMN, "1,1,1"):
        code, out, err = run_capped("series", flag, f"{leg}/{leg}",
                                    "--degree", "2")
        assert code == 0 and "Traceback" not in err
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_one_leg_on_a_long_row():
    code, out, err = run_capped("verify", "--suite", "ptdt-one-leg",
                                "--lambda", LONG_ROW, "--degree", "2")
    assert code == 0 and "Traceback" not in err
    assert "PASS" in out and "FAIL" not in out
