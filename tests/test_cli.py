"""CLI behavior: exit codes, JSON determinism, sweep output."""

import json
import os
import subprocess
import sys

import pytest

import ckn.cli
import ckn.probes
from ckn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--n", "3", "--p", "2", "--q", "2", "--r", "2", "--a", "0", "--b", "0"]


def test_classify_embeds_exit_zero(capsys):
    code, out, _ = run(capsys, "classify", *BASE, "--c", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "Embeds"
    assert payload["case"] == "III"


def test_classify_no_embed_exit_one(capsys):
    code, out, _ = run(
        capsys, "classify", "--n", "3", "--p", "2", "--q", "2", "--r", "7",
        "--a", "0", "--b", "0", "--c", "0",
    )
    assert code == 1
    assert json.loads(out)["reason"] == "ROutOfRange"


def test_decimal_input_rejected_exit_two(capsys):
    code, _, err = run(capsys, "classify", "--n", "3", "--p", "2.5", "--q", "2",
                       "--r", "2", "--a", "0", "--b", "0", "--c", "0")
    assert code == 2
    assert "--p" in err


def test_radial_classify(capsys):
    code, out, _ = run(
        capsys, "classify", "--radial", "--n", "2", "--p", "2", "--q", "1",
        "--r", "2", "--a", "-2", "--b", "0", "--c", "-2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "radial"
    assert payload["case"] == "V"
    assert payload["derived"]["theta_breve"] == "1/3"


def test_interval_output(capsys):
    code, out, _ = run(capsys, "interval", *BASE)
    assert code == 0
    payload = json.loads(out)
    interval = payload["admissible"]["interval"]
    assert (interval["lo"], interval["hi"]) == ("-2", "0")
    assert interval["lo_included"] and interval["hi_included"]


def test_theta_single(capsys):
    code, out, _ = run(capsys, "theta", *BASE, "--c", "-1")
    assert code == 0
    assert json.loads(out)["theta_set"] == {"kind": "Single", "theta": "1/2"}


def test_theta_empty_note(capsys):
    code, out, _ = run(
        capsys, "theta", "--n", "2", "--p", "2", "--q", "2", "--r", "4",
        "--a", "-2", "--b", "0", "--c", "-2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_set"]["kind"] == "Empty"
    assert "multiplicative" in payload["theta_set"]["note"]


def test_theta_on_non_embedding_instance(capsys):
    code, out, _ = run(
        capsys, "theta", "--n", "3", "--p", "2", "--q", "2", "--r", "7",
        "--a", "0", "--b", "0", "--c", "0",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["theta_set"] is None
    assert payload["reason"] == "ROutOfRange"


def test_byte_identical_output(capsys):
    _, out1, _ = run(capsys, "classify", *BASE, "--c", "-1")
    _, out2, _ = run(capsys, "classify", *BASE, "--c", "-1")
    assert out1 == out2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", *BASE, "--c", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["defect"] <= 1e-6

    code_bad, out_bad, _ = run(capsys, "verify", *BASE, "--c", "-1", "--theta", "9/10")
    assert code_bad == 3
    assert json.loads(out_bad)["defect"] > 1e-6


def test_falsify_cli(capsys):
    code, out, _ = run(
        capsys, "falsify", "--n", "3", "--p", "2", "--q", "2", "--r", "2",
        "--a", "0", "--b", "0", "--c", "-3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"] is True


def test_falsify_on_embedding_is_exit_one(capsys):
    code, _, _ = run(capsys, "falsify", *BASE, "--c", "0")
    assert code == 1


def test_multiweight_file(tmp_path, capsys):
    spec = {
        "n": 3, "p": "2", "q": "2", "r": "2",
        "singularities": [{"a": "0", "b": "0", "c": "-1"}],
        "infinity": {"a": "0", "b": "0", "c": "-1"},
    }
    path = tmp_path / "mw.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "classify", *BASE, "--c", "-1", "--multiweight", str(path))
    assert code == 0
    assert json.loads(out)["decision"] == "Embeds"


def test_sweep_csv_matches_classify(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "-3", "stop": "1", "step": "1/4"}],
        "format": "csv",
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "sweep", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,p,q,r,a,b,c,decision")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 17
    embeds_c = [row[6] for row in rows if row[7] == "Embeds"]
    # the admissible interval is exactly [-2, 0]
    assert embeds_c[0] == "-2" and embeds_c[-1] == "0"
    assert len(embeds_c) == 9


def test_sweep_empty_grid(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "1", "stop": "0", "step": "1"}],
        "format": "csv",
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "sweep", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


def test_sweep_cap(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "0", "stop": "100", "step": "1/1000"}],
        "cap": 1000,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "sweep", str(path))
    assert code == 2
    assert "cap" in err


def _sweep_error(tmp_path, capsys, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "sweep", str(path))
    return code, out, json.loads(err)


def test_sweep_unknown_axis_parameter_is_input_error(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0", "c": "0"},
        "axes": [{"param": "z", "start": "0", "stop": "1", "step": "1"}],
    }
    code, out, err = _sweep_error(tmp_path, capsys, spec)
    assert code == 2 and out == ""
    assert "z" in err["error"]


def test_sweep_spec_that_is_a_list_is_input_error(tmp_path, capsys):
    code, out, err = _sweep_error(tmp_path, capsys, [{"param": "c"}])
    assert code == 2 and out == ""
    assert "error" in err


def test_sweep_cap_is_checked_before_any_axis_is_built(tmp_path, capsys):
    # 10^12 points: building this axis would exhaust memory
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "0", "stop": "1", "step": "1/1000000000000"}],
        "cap": 10,
    }
    code, _, err = _sweep_error(tmp_path, capsys, spec)
    assert code == 2
    assert "1000000000001 points" in err["error"] and "cap" in err["error"]


def test_multiweight_singularities_not_a_list_is_input_error(tmp_path, capsys):
    spec = {
        "n": 3, "p": "2", "q": "2", "r": "2",
        "singularities": "x",
        "infinity": {"a": "0", "b": "0", "c": "-1"},
    }
    path = tmp_path / "mw.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "classify", *BASE, "--c", "-1", "--multiweight", str(path))
    assert code == 2 and out == ""
    assert "singularities" in json.loads(err)["error"]


def test_falsify_tiny_theta_defect_reports_instead_of_overflowing(capsys):
    # theta-condition defect 1e-4: the geometric base clamps to its cap
    code, out, _ = run(
        capsys, "falsify", "--n", "5", "--p", "7/2", "--q", "5/3", "--r", "14/5",
        "--a=-34/5", "--b", "5/3", "--c=-27/5",
    )
    assert code in (0, 3)
    assert json.loads(out)["reason"] == "ThetaConditionFails"


def test_falsify_far_indicator_band_is_not_an_empty_band(capsys):
    # EndpointC0WrongR with r > q: the indicator-band members reach m ~ e^37,
    # where the band (m, m + 1) has a log width below one ulp of log m
    code, out, _ = run(
        capsys, "falsify", "--n", "1", "--p", "13/5", "--q", "2", "--r", "8/3",
        "--a=-1", "--b=-1/4", "--c=-1",
    )
    payload = json.loads(out)
    assert payload["reason"] == "EndpointC0WrongR"
    assert code == 0 and payload["ok"]


def test_internal_error_exits_four(capsys, monkeypatch):
    import ckn.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ckn.cli, "cmd_classify", broken)
    code, out, err = run(capsys, "classify", *BASE, "--c", "0")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "internal error: RuntimeError: boom"}


def test_sweep_grid_rows_match_classify_with_either_job_count(tmp_path, capsys):
    from fractions import Fraction

    from ckn.classify import classify
    from ckn.params import Params

    # opposite sides (b - p < -N < a): every line has c1 = -9/2 < -N = -3 <
    # c0 = 9/q - 3; c is the first axis, so the rows of one q are not
    # contiguous
    fixed = {"n": "3", "p": "2", "r": "3", "a": "0", "b": "-2"}
    spec = {
        "fixed": fixed,
        "axes": [
            {"param": "c", "start": "-6", "stop": "7", "step": "1/4"},
            {"param": "q", "start": "1", "stop": "4", "step": "1/4"},
        ],
    }
    outputs = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"grid_{fmt}.json"
        path.write_text(json.dumps({**spec, "format": fmt}))
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "sweep", str(path), "--jobs", jobs)
            assert code == 0
            outputs[fmt, jobs] = out
    assert outputs["csv", "1"] == outputs["csv", "2"]
    assert outputs["json", "1"] == outputs["json", "2"]

    rows = json.loads(outputs["json", "1"])
    assert len(rows) == 53 * 13 > 256  # --jobs 2 takes the worker pool
    labels = set()
    for row in rows:
        params = Params(n=3, **{k: Fraction(row[k]) for k in ("p", "q", "r", "a", "b", "c")})
        verdict = classify(params)
        d = verdict.derived
        assert row["decision"] == verdict.decision.value, row
        assert row["case"] == (verdict.case.value if verdict.case else ""), row
        assert row["reason"] == (verdict.reason.value if verdict.reason else ""), row
        assert (row["c0"], row["c1"]) == (str(d.c0), str(d.c1))
        assert row["theta_c"] == (str(d.theta_c) if d.theta_c is not None else "")
        # the c axis crosses every mark of the line
        assert all(-6 < mark < 7 for mark in (d.c0, d.c1, -3, d.c_bar)), row
        labels.add(row["case"] or row["reason"])
    assert {"II", "COutsideHull", "COutsideOppositeSideWindow", "ThetaConditionFails"} <= labels


def test_classify_modes_are_mutually_exclusive(tmp_path, capsys):
    import pytest

    spec = tmp_path / "mw.json"
    spec.write_text(json.dumps({
        "n": 3, "p": "2", "q": "2", "r": "2",
        "singularities": [{"a": "0", "b": "0", "c": "0"}],
        "infinity": {"a": "0", "b": "0", "c": "0"},
    }))
    modes = (["--radial"], ["--w0"], ["--multiweight", str(spec)])
    for k, first in enumerate(modes):
        for second in modes[k + 1:]:
            with pytest.raises(SystemExit) as exc:
                main(["classify", *first, *second, *BASE, "--c", "0"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "not allowed with argument" in captured.err


def test_sweep_axis_crossing_below_one_exits_two_before_output(tmp_path, capsys):
    # p = 1/2, 3/4 are invalid, every later point is valid
    spec = {
        "fixed": {"n": "3", "q": "2", "r": "2", "a": "0", "b": "0", "c": "0"},
        "axes": [{"param": "p", "start": "1/2", "stop": "4", "step": "1/4"}],
    }
    for fmt in ("csv", "json"):
        code, out, err = _sweep_error(tmp_path, capsys, {**spec, "format": fmt})
        assert code == 2 and out == ""
        assert err == {"error": "full-space classification requires p >= 1, got p=1/2"}


def test_sweep_empty_grid_prints_header_or_empty_list(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "1", "stop": "0", "step": "1"}],
    }
    outputs = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"empty_{fmt}.json"
        path.write_text(json.dumps({**spec, "format": fmt}))
        code, outputs[fmt], _ = run(capsys, "sweep", str(path))
        assert code == 0
    assert outputs["csv"] == "n,p,q,r,a,b,c,decision,case,reason,c0,c1,theta_c\n"
    assert outputs["json"] == "[]\n"


def test_sweep_json_rows_are_written_as_one_indented_list(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "-3", "stop": "1", "step": "1/2"}],
        "format": "json",
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "sweep", str(path))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)) == 9


def _no_probe(*args, **kwargs):
    raise AssertionError("a probe ran")


@pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan", "abc"])
@pytest.mark.parametrize("command,c", [("verify", "-1"), ("falsify", "-3")])
def test_quad_tol_outside_unit_interval_exits_two_before_any_quadrature(
    capsys, monkeypatch, tol, command, c
):
    # inf used to give a false probe mismatch (exit 3); 0, -1 and nan kept
    # the panel walks subdividing without end
    monkeypatch.setenv("CKN_QUAD_TOL", tol)
    monkeypatch.setattr(ckn.probes, "verify_instance", _no_probe)
    monkeypatch.setattr(ckn.probes, "falsify_instance", _no_probe)
    code, out, err = run(capsys, command, *BASE, "--c", c)
    assert code == 2 and out == ""
    assert "CKN_QUAD_TOL" in json.loads(err)["error"]


def test_sweep_unknown_format_is_input_error(tmp_path, capsys):
    spec = {
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "-3", "stop": "1", "step": "1"}],
        "format": "xml",
    }
    code, out, err = _sweep_error(tmp_path, capsys, spec)
    assert code == 2 and out == ""
    assert "xml" in err["error"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "-inf"])
def test_defect_tol_outside_finite_nonnegative_exits_two_before_any_quadrature(
    capsys, monkeypatch, tol
):
    # nan used to pass every defect (exit 0 whatever the probe found)
    monkeypatch.setattr(ckn.probes, "verify_instance", _no_probe)
    code, out, err = run(capsys, "verify", *BASE, "--c", "-1", f"--defect-tol={tol}")
    assert code == 2 and out == ""
    assert "--defect-tol" in json.loads(err)["error"]


@pytest.mark.parametrize("index", ["-1", "-40"])
def test_negative_max_index_exits_two_before_any_quadrature(capsys, monkeypatch, index):
    # -1 used to walk no member and exit 3, a false probe mismatch
    monkeypatch.setattr(ckn.probes, "falsify_instance", _no_probe)
    code, out, err = run(capsys, "falsify", "--n", "3", "--p", "2", "--q", "2", "--r", "7",
                         "--a", "0", "--b", "0", "--c", "0", f"--max-index={index}")
    assert code == 2 and out == ""
    assert "--max-index" in json.loads(err)["error"]


def test_max_index_zero_is_accepted(capsys):
    code, out, _ = run(capsys, "falsify", "--n", "3", "--p", "2", "--q", "2", "--r", "7",
                       "--a", "0", "--b", "0", "--c", "0", "--max-index", "0")
    assert code in (0, 3)
    assert json.loads(out)["trace"][0]["index"] == 0


def test_exact_commands_do_not_import_numpy(tmp_path):
    # the probes, and numpy with them, are imported by verify and falsify alone
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "fixed": {"n": "3", "p": "2", "q": "2", "r": "2", "a": "0", "b": "0"},
        "axes": [{"param": "c", "start": "-3", "stop": "1", "step": "1/100"}],
    }))
    script = (
        "import json, sys\n"
        "import ckn.cli\n"
        f"codes = [ckn.cli.main({['classify', *BASE, '--c', '0']!r}), ckn.cli.main(['sweep', {str(spec)!r}])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(ckn.cli.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0], False]
