"""Command line behaviour, exercised in process via cli.main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorad2d
from lorad2d import cli, metrics, runner
from lorad2d.scenario import Scenario, load_bundled


def test_toa_single_data_rate(capsys):
    assert cli.main(["toa", "64", "--dr", "0"]) == 0
    out = capsys.readouterr().out
    assert "DR0 (SF12/BW125k): 64 PHY bytes -> 2.793472 s" in out


def test_toa_app_flag_adds_frame_overhead(capsys):
    assert cli.main(["toa", "12", "--app", "--dr", "0"]) == 0
    out = capsys.readouterr().out
    assert "25 PHY bytes -> 1.482752 s" in out


def test_toa_without_dr_prints_all_rows(capsys):
    assert cli.main(["toa", "64"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("DR0") and lines[7].startswith("DR7")
    assert "GFSK 50 kbps" in lines[7] and "0.011040 s" in lines[7]


def test_toa_oversized_payload_fails_cleanly(capsys):
    assert cli.main(["toa", "300", "--dr", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_duty_prints_band_table(capsys):
    assert cli.main(["duty"]) == 0
    out = capsys.readouterr().out
    assert "band" in out and "duty" in out
    assert "g1" in out and "g3" in out
    assert "10.0%" in out and "0.1%" in out


def test_duty_classifies_and_computes_off_time(capsys):
    assert cli.main(["duty", "--freq", "868100000", "--toa", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "band g1" in out
    assert "stay off 198.000000 s" in out
    assert "next start 200.000000 s" in out


def test_duty_rejects_unallocated_frequency(capsys):
    assert cli.main(["duty", "--freq", "864000000"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("toa", ["nan", "inf", "-1", "0", "1e302"])
def test_duty_rejects_an_airtime_it_cannot_use(toa, capsys):
    # nan and inf used to die with a ValueError or OverflowError traceback,
    # -1 printed "stay off -99.000000 s", and 1e302 overflowed the off time
    assert cli.main(["duty", "--freq", "868100000", "--toa", toa]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --toa must lie in (0, 3600] seconds")


def test_duty_takes_an_airtime_of_one_hour(capsys):
    assert cli.main(["duty", "--freq", "868100000", "--toa", "3600"]) == 0
    assert "stay off 356400.000000 s" in capsys.readouterr().out


def test_run_writes_metrics_and_trace(tmp_path, capsys):
    mpath = tmp_path / "metrics.json"
    tpath = tmp_path / "trace.jsonl"
    rc = cli.main(["run", "table2_d2d", "--seed", "5",
                   "--out", str(mpath), "--trace", str(tpath)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "d2d sessions complete: 1/1" in out
    assert f"metrics written to {mpath}" in out

    doc = metrics.load(mpath)
    assert doc["seed"] == 5
    for line in tpath.read_text().splitlines():
        assert "t_us" in json.loads(line)


def test_run_accepts_scenario_files(tmp_path, capsys):
    path = tmp_path / "scn.json"
    load_bundled("table2_d2d").save(path)
    assert cli.main(["run", str(path)]) == 0
    assert "scenario table2_d2d seed 0" in capsys.readouterr().out


def test_run_reports_scenario_validation_errors(tmp_path, capsys):
    doc = json.loads(load_bundled("table2_d2d").to_json())
    doc["devices"][0]["dr"] = 9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "dr" in err


def test_run_unknown_name_lists_bundled_scenarios(capsys):
    assert cli.main(["run", "nonexistent"]) == 2
    assert "table2_conventional" in capsys.readouterr().err


def test_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "table2_d2d", "--seeds", "3", "--jobs", "1",
                   "--out", str(path)])
    assert rc == 0
    assert "3 runs written" in capsys.readouterr().out
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,seed,")
    assert len(lines) == 4
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2"]


def test_sweep_to_stdout_with_seed_base(capsys):
    rc = cli.main(["sweep", "table2_d2d", "--seeds", "2", "--seed", "10",
                   "--jobs", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("scenario,")
    assert [line.split(",")[1] for line in lines[1:]] == ["10", "11"]


def test_table2_prints_comparison_and_saves_doc(tmp_path, capsys):
    path = tmp_path / "table2.json"
    assert cli.main(["table2", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "time to transfer 2400 bytes [s]" in out
    assert "conventional" in out and "scanner" in out and "ratios" in out
    doc = json.loads(path.read_text())
    assert set(doc["time_s"]) == {"conventional", "d2d"}


def test_console_script_is_installed():
    proc = subprocess.run(["lorad2d", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("run", "toa", "duty", "table2", "sweep"):
        assert sub in proc.stdout


def test_a_run_loads_no_numpy():
    # numpy is a test dependency only; the draws and the fit are pure Python
    code = ("import sys, lorad2d; lorad2d.runner.table2(0); "
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    src = str(Path(lorad2d.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_table2_prints_calibration_residuals(capsys):
    assert cli.main(["table2"]) == 0
    out = capsys.readouterr().out
    block = out.split("calibration residuals [J]\n")[1].splitlines()
    assert [line.split()[0] for line in block] == [
        "initiator", "receiver", "scanner", "transmitter"]
    assert all("ref" in line and "err" in line for line in block)


def test_calibrate_writes_a_loadable_profile(tmp_path, capsys):
    path = tmp_path / "profile.json"
    assert cli.main(["calibrate", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fitted profile" in out and "calibration residuals" in out
    assert f"profile written to {path}" in out
    saved = json.loads(path.read_text())
    # the file is a scenario's profile block, read as a user's file would be
    doc = load_bundled("table2_d2d").to_dict()
    doc["profile"] = saved
    scn = Scenario.from_dict(doc)
    assert scn.profile.name == "benchmark-fit"
    assert 0 < scn.profile.p_rx_w < scn.profile.p_tx14_w
    assert runner.run(scn, seed=0).document["profile"] == runner.table2(0)["profile"]


def test_sweep_duty_audit_reports_worst_usage_on_stderr(capsys):
    assert cli.main(["sweep", "duty-audit", "--seeds", "1", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("scenario,seed,")
    assert lines[1].startswith("duty-audit,0,")
    assert "worst per-band duty usage: 0.99" in captured.err
    assert "uplinks deferred by the duty ledger:" in captured.err


def test_sweep_fails_when_a_run_exceeds_the_duty_limit(capsys, monkeypatch):
    def overshoot(scn, seeds, jobs=None):
        return [dict(duty_max_fraction_of_limit=1.0 + 1e-6, duty_deferrals=0)]
    monkeypatch.setattr(cli.runner, "sweep", overshoot)
    monkeypatch.setattr(cli.runner, "write_csv", lambda rows, fh: None)
    assert cli.main(["sweep", "duty-audit", "--seeds", "1"]) == 1
    assert "1.000001 of the limit" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_sweep_of_no_seeds_is_an_error(seeds, capsys, monkeypatch):
    # it used to run nothing, print a worst duty usage of 0 and pass the audit
    monkeypatch.setattr(cli.runner, "sweep", lambda *a, **k: pytest.fail("ran a sweep"))
    assert cli.main(["sweep", "duty-audit", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --seeds must be at least 1, got {seeds}\n"
