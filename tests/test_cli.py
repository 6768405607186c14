"""Command-line and config-file behavior: exit codes, report shape, CSV
tables, thread determinism.

Everything here drives ``jumpform.cli.main`` in-process; one test at the
bottom checks the installed console script for real.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jumpform.cli import main
from jumpform.config import parse_config, report_to_json, run


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def stable_config(extra=None):
    cfg = {
        "kernel": {
            "type": "stable_like",
            "alpha": {"type": "constant", "value": 1.0},
        },
        "functions": {"u": {"type": "bump", "center": [0.0], "radius": 1.0}},
    }
    if extra:
        cfg.update(extra)
    return cfg


def variable_config():
    return {
        "kernel": {
            "type": "stable_like",
            "alpha": {
                "type": "expression",
                "expr": "0.8 + 0.2*sin(x)",
                "alpha1": 0.6,
                "alpha2": 1.0,
            },
        },
        "functions": {
            "u": {"type": "bump", "center": [0.0], "radius": 1.0},
            "v": {"type": "bump", "center": [0.2], "radius": 0.8},
        },
        "requests": [
            {"op": "apply", "operator": "L", "function": "u", "points": {"lattice": 7}},
            {"op": "form", "kind": "eta", "u": "u", "v": "v", "per_axis": 9},
            {"op": "kappa", "points": [0.0, 0.25], "eps_count": 16},
        ],
    }


# ============================================================================
# single-operation subcommands
# ============================================================================


def test_symbol_one_shot_needs_no_config(capsys):
    code, out, _ = invoke(["symbol", "--alpha", "1.5", "--xi", "2.0"], capsys)
    assert code == 0
    report = json.loads(out)
    (entry,) = report["results"]
    assert entry["ok"] and entry["op"] == "symbol"
    assert entry["result"]["relative_residual"] < 1e-3
    assert report["version"] == "0.1.0"


def test_symbol_without_any_order_is_a_config_error(capsys):
    code, _, err = invoke(["symbol", "--xi", "1.0"], capsys)
    assert code == 4
    assert "needs an 'alpha' value or a power-law kernel" in err


def test_apply_parses_semicolon_points(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, out, _ = invoke(
        ["apply", "--config", path, "--op", "L", "--function", "u", "--points", "0; 0.5"],
        capsys,
    )
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["points"] == [[0.0], [0.5]]
    assert all(v < 0 for v in result["values"])


def test_apply_parses_2d_coordinate_points(tmp_path, capsys):
    cfg = {
        "kernel": {
            "type": "stable_like",
            "alpha": {"type": "constant", "value": 1.2, "dim": 2},
        },
        "functions": {"u": {"type": "bump", "center": [0.0, 0.0], "radius": 1.0}},
    }
    path = write_config(tmp_path, "c2.json", cfg)
    code, out, _ = invoke(
        ["apply", "--config", path, "--op", "LTILDE", "--function", "u", "--points", "0,0; 0.3,0.1"],
        capsys,
    )
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["points"] == [[0.0, 0.0], [0.3, 0.1]]


def test_apply_rejects_blank_points(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, _, err = invoke(
        ["apply", "--config", path, "--op", "L", "--function", "u", "--points", " ; "],
        capsys,
    )
    assert code == 4
    assert "no points parsed" in err


def test_form_one_shot_truncated_kind(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, out, _ = invoke(
        ["form", "--config", path, "--kind", "eta_n", "--u", "u", "--v", "u", "--n", "4", "--per-axis", "9"],
        capsys,
    )
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["n"] == 4
    assert result["eta_n"] > 0


def test_kappa_one_shot_constant_order(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, out, _ = invoke(["kappa", "--config", path, "--points", "0.3"], capsys)
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["killing"]["values"] == [0.0]
    assert result["sign"]["verdict"] == "nonpositive"


# ============================================================================
# validate
# ============================================================================


def test_validate_clean_config_is_silent(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", variable_config())
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 0
    assert out == ""


def test_validate_names_every_offending_path(tmp_path, capsys):
    bad = {
        "kernel": {
            "type": "stable_like",
            "alpha": {"type": "expression", "expr": "x", "alpha1": 0.5, "alpha2": 2.5},
        },
        "requests": [{"op": "form", "kind": "eta", "u": "nope", "v": "alsono"}],
    }
    path = write_config(tmp_path, "bad.json", bad)
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert "kernel.alpha" in out and "(0, 2)" in out
    assert "requests[0].u: undefined function 'nope'" in out
    assert "requests[0].v: undefined function 'alsono'" in out


def test_validate_rejects_constant_order_at_two(tmp_path, capsys):
    bad = {"kernel": {"type": "stable_like", "alpha": {"type": "constant", "value": 2.0}}}
    path = write_config(tmp_path, "bad.json", bad)
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert "(0, 2)" in out


@pytest.mark.parametrize(
    "key, value, message",
    (
        ("tail_exponent", -1.0, "tail_exponent must be positive"),
        ("tail_amplitude", -1.35, "tail_amplitude must be nonnegative"),
        ("z_support", 0.0, "z_support must be positive"),
    ),
)
def test_validate_rejects_bad_tail_metadata(tmp_path, capsys, key, value, message):
    kernel = {"type": "expression", "dim": 1, "expr": "(1 + 0.3*tanh(y)) / (r**1.5 * (1 + r**2))",
              "tail_exponent": 2.5, "tail_amplitude": 1.35}
    kernel[key] = value
    path = write_config(tmp_path, "bad.json", {"kernel": kernel})
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert f"kernel: {message}" in out


@pytest.mark.parametrize(
    "expr, dim, where",
    (
        # reaches about 0.38 and 1.22 on the default region [-1, 1]
        ("0.8 + 0.5*sin(x)", 1, "x = (-1.0,)"),
        # stays inside on the region, leaves it only far out
        ("0.8 + 0.3*tanh(x2/100000)", 2, "x = (-92681.9"),
    ),
)
def test_validate_samples_the_declared_order_range(tmp_path, capsys, expr, dim, where):
    alpha = {"type": "expression", "expr": expr, "alpha1": 0.6, "alpha2": 1.0, "dim": dim}
    path = write_config(tmp_path, "bad.json", {"kernel": {"type": "stable_like", "alpha": alpha}})
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert "kernel.alpha: order" in out and "leaves the declared range [0.6, 1.0]" in out
    assert where in out


GENERIC_1D = {"type": "expression", "dim": 1, "expr": "(1 + 0.3*tanh(y)) / (r**1.5 * (1 + r**2))",
              "tail_exponent": 2.5, "tail_amplitude": 1.35}


@pytest.mark.parametrize(
    "override, where",
    (
        # decays like r^-3.5, not r^-4
        ({"tail_exponent": 3.0}, "x = (-1.0,), y = (1.0,)"),
        # reaches 0.5 at |x - y| = 1
        ({"tail_amplitude": 0.4}, "x = (-1.0,), y = (0.0,)"),
    ),
)
def test_validate_samples_the_declared_tail_bound(tmp_path, capsys, override, where):
    path = write_config(tmp_path, "bad.json", {"kernel": dict(GENERIC_1D, **override)})
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert "kernel.tail_amplitude: value" in out and where in out


def test_validate_accepts_a_tail_bound_that_holds(tmp_path, capsys):
    # (1 + 0.3 tanh y) / (r^1.5 (1 + r^2)) < 1.3 r^-3.5 <= 1.35 r^-3.5
    cfg = {"kernel": GENERIC_1D, "region": {"lo": [-2.0], "hi": [2.0]}}
    path = write_config(tmp_path, "c.json", cfg)
    assert invoke(["validate", "--config", path], capsys)[:2] == (0, "")


def test_validate_accepts_an_order_that_touches_its_bounds(tmp_path, capsys):
    # 0.8 + 0.2 sin x reaches 1.0 and 0.6 up to rounding
    alpha = {"type": "expression", "expr": "0.8 + 0.2*sin(x)", "alpha1": 0.6, "alpha2": 1.0}
    cfg = {"kernel": {"type": "stable_like", "alpha": alpha}, "region": {"lo": [-2.0], "hi": [2.0]}}
    path = write_config(tmp_path, "c.json", cfg)
    assert invoke(["validate", "--config", path], capsys)[0] == 0


def test_readme_config_validates(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Config files", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    path = write_config(tmp_path, "readme.json", json.loads(block))
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert (code, out) == (0, "")


def test_validate_flags_truncated_form_without_index(tmp_path, capsys):
    cfg = stable_config(
        {"requests": [{"op": "form", "kind": "eta_n", "u": "u", "v": "u"}]}
    )
    path = write_config(tmp_path, "c.json", cfg)
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert "truncation index" in out


@pytest.mark.parametrize(
    "request_, where",
    (
        ({"op": "check", "conditions": ["A0"], "per_axis": "x"}, "requests[0].per_axis: must be an integer >= 2"),
        ({"op": "check", "conditions": ["A0"], "per_axis": 2.7}, "requests[0].per_axis: must be an integer >= 2"),
        ({"op": "check", "conditions": ["A0"], "per_axis": True}, "requests[0].per_axis: must be an integer >= 2"),
        ({"op": "check", "conditions": ["A0"], "per_axis": 1}, "requests[0].per_axis: must be an integer >= 2"),
        ({"op": "form", "kind": "eta", "u": "u", "v": "u", "per_axis": 9.0}, "requests[0].per_axis: must be an integer >= 1"),
        ({"op": "form", "kind": "energy", "u": "u", "v": "u", "per_axis": 0}, "requests[0].per_axis: must be an integer >= 1"),
        ({"op": "check", "conditions": ["all"], "gamma": 0}, "requests[0].gamma: must be a number in (0, 1]"),
        ({"op": "check", "conditions": ["FU"], "gamma": 0.0}, "requests[0].gamma: must be a number in (0, 1]"),
        ({"op": "check", "conditions": ["FU"], "gamma": 1.5}, "requests[0].gamma: must be a number in (0, 1]"),
        ({"op": "check", "conditions": ["FU"], "gamma": "half"}, "requests[0].gamma: must be a number in (0, 1]"),
        ({"op": "check", "conditions": ["FU"], "gamma": True}, "requests[0].gamma: must be a number in (0, 1]"),
        ({"op": "kappa", "points": [0.0], "eps_count": 0}, "requests[0].eps_count: must be an integer >= 1"),
        ({"op": "kappa", "points": [0.0], "eps_count": 2.5}, "requests[0].eps_count: must be an integer >= 1"),
        ({"op": "kappa", "points": [0.0], "eps_count": "8"}, "requests[0].eps_count: must be an integer >= 1"),
    ),
)
def test_request_parameters_are_validated(tmp_path, capsys, request_, where):
    # a bad sample count, order or ladder length is a configuration error
    # (exit 4) naming its path, at validate and at run alike, and no result
    path = write_config(tmp_path, "c.json", stable_config({"requests": [request_]}))
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert (code, out) == (4, where + "\n")
    code, out, err = invoke(["run", "--config", path], capsys)
    assert (code, out) == (4, "") and where in err


def test_valid_request_parameters_pass_validation(tmp_path, capsys):
    # a form's cell lattice may have one cell per axis, and gamma is read
    # only by FU
    requests = [
        {"op": "check", "conditions": ["FU"], "gamma": 1, "per_axis": 2},
        {"op": "check", "conditions": ["A0"], "gamma": 0.25, "per_axis": None},
        {"op": "check", "conditions": ["H4"], "gamma": 1.5, "per_axis": 2},
        {"op": "form", "kind": "eta", "u": "u", "v": "u", "per_axis": 3},
        {"op": "form", "kind": "energy", "u": "u", "v": "u", "per_axis": 1},
        {"op": "kappa", "points": [0.0], "eps_count": 1},
    ]
    path = write_config(tmp_path, "c.json", stable_config({"requests": requests}))
    assert invoke(["validate", "--config", path], capsys)[:2] == (0, "")
    path = write_config(tmp_path, "d.json", stable_config({"requests": requests[2:5]}))
    code, out, _ = invoke(["run", "--config", path], capsys)
    assert code == 0 and [e["op"] for e in json.loads(out)["results"]] == ["check", "form", "form"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = invoke(["validate", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 4
    assert "cannot read config" in err


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = invoke(["run", "--config", str(path)], capsys)
    assert code == 4
    assert "not valid JSON" in err


# ============================================================================
# run: report shape and exit codes
# ============================================================================


def test_empty_run_is_a_clean_pass(capsys):
    code, out, _ = invoke(["run"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"] == []
    # digest of the canonical empty config, pinned so reports stay comparable
    assert report["config_digest"] == hashlib.sha256(b"{}").hexdigest()


def test_run_produces_one_entry_per_request(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", variable_config())
    code, out, _ = invoke(["run", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert [e["index"] for e in report["results"]] == [0, 1, 2]
    assert [e["op"] for e in report["results"]] == ["apply", "form", "kappa"]
    assert all(e["ok"] for e in report["results"])
    assert report["wall_time_s"] > 0


def test_report_json_round_trips():
    cfg = parse_config(variable_config())
    report = run(cfg)
    assert json.loads(report_to_json(report)) == report.to_dict()


def test_condition_failure_exits_two(tmp_path, capsys):
    # bounded-support kernel whose truncated antisymmetric mass blows up
    failing = {
        "kernel": {
            "type": "expression",
            "dim": 1,
            "expr": "(1 + sin(x) - sin(y)) / r**3",
            "z_support": 1.0,
        },
        "region": {"lo": [1.0], "hi": [2.0]},
        "requests": [{"op": "check", "conditions": ["H5"], "per_axis": 3}],
    }
    path = write_config(tmp_path, "fail.json", failing)
    code, out, _ = invoke(["run", "--config", path], capsys)
    assert code == 2
    report = json.loads(out)["results"][0]["result"]["reports"][0]
    assert report["verdict"] == "fail"
    assert report["witness_points"]


def test_embedded_numerical_failure_exits_three(tmp_path, capsys):
    sing = {
        "kernel": {
            "type": "expression",
            "dim": 1,
            "expr": "1 / r**4.5",
            "z_support": 1.0,
            "symmetric": True,
        },
        "functions": {"u": {"type": "bump", "center": [0.0], "radius": 1.0}},
        "requests": [{"op": "apply", "operator": "L", "function": "u", "points": [0.1]}],
    }
    path = write_config(tmp_path, "sing.json", sing)
    code, out, _ = invoke(["run", "--config", path], capsys)
    assert code == 3
    entry = json.loads(out)["results"][0]
    # the run itself succeeded; the failure lives in the point diagnostics
    assert entry["ok"]
    assert entry["result"]["values"] == ["nan"]
    assert "error" in entry["result"]["diagnostics"][0]


def test_unresolved_FU_sample_exits_three(tmp_path, capsys):
    # k_a = inf - inf is NaN on the shells of x = -0.5 where x + z == x: that
    # sample is unresolved, so the check is inconclusive, not failed
    cfg = {
        "kernel": {
            "type": "expression",
            "dim": 1,
            "expr": "(1 + 0.3*tanh(y)) / (r**1.5 * (1 + r**2))",
            "tail_exponent": 2.5,
            "tail_amplitude": 1.35,
        },
        "region": {"lo": [-1.0], "hi": [0.0]},
        "requests": [{"op": "check", "conditions": ["FU"], "gamma": 1.0, "per_axis": 3}],
    }
    path = write_config(tmp_path, "fu.json", cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        code, out, _ = invoke(["run", "--config", path], capsys)
    assert code == 3
    reports = json.loads(out)["results"][0]["result"]["reports"]
    assert [r["condition_id"] for r in reports] == ["A1", "A2", "A3"]
    assert {r["verdict"] for r in reports} == {"inconclusive"}
    assert all(r["details"]["point_values"][1] == "nan" for r in reports)


def test_unknown_top_level_key_is_reported(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config({"plotting": True}))
    code, out, _ = invoke(["validate", "--config", path], capsys)
    assert code == 4
    assert "plotting: unknown top-level key" in out


# ============================================================================
# output channels
# ============================================================================


def test_out_writes_the_report_to_disk(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = invoke(["symbol", "--alpha", "1.0", "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["results"][0]["result"]["residual"] < 1e-3


def test_unwritable_out_path(tmp_path, capsys):
    dest = tmp_path / "missing-dir" / "report.json"
    code, _, err = invoke(["symbol", "--alpha", "1.0", "--out", str(dest)], capsys)
    assert code == 4
    assert "cannot write report" in err


def test_csv_apply_table(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, out, _ = invoke(
        ["apply", "--config", path, "--op", "L", "--function", "u",
         "--points", "0; 0.5", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["point", "value", "flagged"]
    assert rows[2][0] == "0.0" and rows[2][2] == "False"
    assert float(rows[3][1]) < 0


def test_csv_check_table_carries_verdicts(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, out, _ = invoke(
        ["check", "--config", path, "--conditions", "A0,MISC", "--format", "csv"], capsys
    )
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    table = {r[0]: r for r in rows[2:]}
    assert set(table) == {"A0", "COND4", "H2", "H3"}
    assert all(r[2] == "pass" for r in table.values())
    # constant order one: the small/large-jump integrand sums to 4/pi
    assert math.isclose(float(table["A0"][1]), 4.0 / math.pi, rel_tol=1e-9)


def test_csv_kappa_table_ends_with_the_sign_verdict(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", stable_config())
    code, out, _ = invoke(
        ["kappa", "--config", path, "--points", "0.3", "--format", "csv"], capsys
    )
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[1] == ["point", "kappa", "converged"]
    assert rows[2] == ["0.3", "0.0", "True"]
    assert rows[3][:2] == ["sign_verdict", "nonpositive"]


def test_tolerance_override_lands_in_the_digest(capsys):
    code1, out1, _ = invoke(["symbol", "--alpha", "1.0"], capsys)
    code2, out2, _ = invoke(["symbol", "--alpha", "1.0", "--tol-abs", "1e-10"], capsys)
    assert code1 == 0 and code2 == 0
    assert json.loads(out1)["config_digest"] != json.loads(out2)["config_digest"]


# ============================================================================
# determinism across worker counts
# ============================================================================


def payload_without_wall_time(out):
    report = json.loads(out)
    report.pop("wall_time_s")
    return json.dumps(report, sort_keys=True)


def test_thread_count_never_changes_the_payload(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", variable_config())
    payloads = []
    for threads in ("1", "4", "8"):
        code, out, _ = invoke(["run", "--config", path, "--threads", threads], capsys)
        assert code == 0
        payloads.append(payload_without_wall_time(out))
    assert payloads[0] == payloads[1] == payloads[2]


def test_env_var_supplies_the_thread_count(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, "c.json", variable_config())
    code, out, _ = invoke(["run", "--config", path, "--threads", "1"], capsys)
    baseline = payload_without_wall_time(out)
    monkeypatch.setenv("JUMPFORM_THREADS", "4")
    code, out, _ = invoke(["run", "--config", path], capsys)
    assert code == 0
    assert payload_without_wall_time(out) == baseline


@pytest.mark.parametrize(
    "env, argv, config",
    (
        ("abc", [], {}),
        ("0", [], {}),
        (None, ["--threads", "-3"], {}),
        (None, ["--threads", "0"], {}),
        (None, [], {"threads": 0}),
    ),
    ids=("env-text", "env-zero", "flag-negative", "flag-zero", "config-zero"),
)
def test_every_thread_count_source_takes_one_rule(tmp_path, capsys, monkeypatch, env, argv, config):
    path = write_config(tmp_path, "c.json", {**variable_config(), **config})
    if env is None:
        monkeypatch.delenv("JUMPFORM_THREADS", raising=False)
    else:
        monkeypatch.setenv("JUMPFORM_THREADS", env)
    code, out, err = invoke(["run", "--config", path, *argv], capsys)
    assert (code, out) == (4, "")
    assert err.strip() == "error: threads: must be an integer >= 1"


def test_the_thread_count_stays_out_of_the_config_digest(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, "c.json", variable_config())
    monkeypatch.delenv("JUMPFORM_THREADS", raising=False)
    digests = []
    for argv in ([], ["--threads", "3"]):
        code, out, _ = invoke(["run", "--config", path, *argv], capsys)
        assert code == 0
        digests.append(json.loads(out)["config_digest"])
    monkeypatch.setenv("JUMPFORM_THREADS", "2")
    code, out, _ = invoke(["run", "--config", path], capsys)
    digests.append(json.loads(out)["config_digest"])
    assert digests[0] == digests[1] == digests[2]


def test_run_hands_the_resolved_thread_count_to_every_operator(monkeypatch):
    import jumpform.operators as ops

    seen = []
    real = ops.apply_L

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ops, "apply_L", spy)
    cfg = parse_config(
        stable_config({"threads": 2, "requests": [{"op": "apply", "operator": "L", "function": "u", "points": [0.0]}]})
    )
    run(cfg)
    run(cfg, threads=3)
    run(cfg, threads=0)
    assert seen == [2, 3, 1]


def test_installed_console_script():
    # the subprocess does not see pytest's pythonpath setting, so it gets src
    # on PYTHONPATH unless jumpform is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "jumpform.cli", "symbol", "--alpha", "1.0", "--xi", "1.0"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"][0]["ok"]


def test_canon_outputs_names_the_operations_that_differ():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "canon_outputs.py"
    spec = importlib.util.spec_from_file_location("canon_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    here = {"L_u": "aa", "eta_uv": "bb", "A0.0": "cc"}
    assert tool.differing(here, dict(here)) == []
    saved = {"L_u": "aa", "eta_uv": "b0", "H4.0": "dd"}
    assert tool.differing(here, saved) == ["eta_uv", "A0.0", "H4.0"]
