import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pptoggle
from pptoggle.cli import main
from pptoggle.serialize import config_to_json
from pptoggle.configurations import OneLegSPP, PlanePartition, TwoLegSPP

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


def test_verify_none_is_vacuous(capsys):
    code, out = run(capsys, "verify", "--suite", "none")
    assert code == 0
    assert "vacuous" in out


def test_verify_suite_with_bounds(capsys):
    code, out = run(capsys, "verify", "--suite", "toggles", "--max-part", "2")
    assert code == 0
    assert "FAIL" not in out


def test_report_determinism(capsys):
    code1, out1 = run(capsys, "series", "--macmahon", "--degree", "5", "--json")
    code2, out2 = run(capsys, "series", "--macmahon", "--degree", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_determinism_across_processes():
    src = Path(pptoggle.__file__).resolve().parents[1]
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "pptoggle.cli", "series", "--macmahon",
             "--degree", "3", "--json"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_usage_exit_code(capsys):
    assert main(["series", "--degree", "nonsense"]) == 2
    assert main(["biject", "sideways"]) == 2


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
], ids=["letter-parts", "letter-leg", "string-value", "short-triple",
        "string-leg-part", "no-legs", "one-leg-of-two", "array-payload",
        "support-not-array", "array-pair", "rho-not-object", "array-type",
        "census-empty", "census-array-header", "census-string-bound",
        "census-no-family", "census-no-bound", "census-no-leg",
        "census-array-family"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, payload):
    if payload is not None:
        # a string is the file's text; anything else is one JSON line
        src = tmp_path / "payload.json"
        src.write_text(payload if isinstance(payload, str)
                       else json.dumps(payload))
        flag = [] if argv[-1] == "--census" else ["--input"]
        argv = argv + flag + [str(src)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, payload, digest", [
    (["enumerate", "--family", "two-leg-spp", "--legs", "2,1/1,1",
      "--bound", "9/2"], None, "5b3888315c19f3a4"),
    (["enumerate", "--family", "two-leg-rpp", "--legs", "2,1/1,1",
      "--bound", "9/2"], None, "f491f519b2d16cca"),
    (["render"], TWO_LEG_RPP_PAYLOAD, "498517e7e0880056"),
])
def test_two_leg_golden_output(tmp_path, capsys, argv, payload, digest):
    if payload is not None:
        src = tmp_path / "cfg.json"
        src.write_text(json.dumps(payload))
        argv = argv + ["--input", str(src)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
