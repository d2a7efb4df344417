import csv
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import admmplan
from admmplan import cli, harness
from admmplan.errors import ConfigError, PlannerError, UnknownScenario
from admmplan.harness import (
    emit_iterates,
    parse_snapshot_policy,
    run,
    run_trials,
    solve_scenario,
    write_trajectory_csv,
)
from admmplan.ilqr import Trajectory, rollout
from admmplan.scenarios import (
    builtin_scenario,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    with_overrides,
)
from admmplan.vehicle import BicycleModel, VehicleParams


def read_rows(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_builtin_scenario_1_matches_paper_setup():
    cfg = builtin_scenario(1)
    assert cfg.obstacles[0].center0 == (15.0, -1.0)
    assert cfg.obstacles[0].velocity == (0.0, 0.0)
    assert (cfg.obstacles[0].semi_major, cfg.obstacles[0].semi_minor) == (5.0, 2.5)
    assert cfg.initial_state.v == 4.0
    assert cfg.reference.py_ref == 0.0
    assert cfg.reference.v_ref == 8.0
    assert cfg.bounds.max_steer == 0.6
    assert (cfg.bounds.min_accel, cfg.bounds.max_accel) == (-3.0, 3.0)
    assert cfg.horizon == 60
    assert cfg.vehicle.timestep == 0.1
    assert cfg.admm.sigma == 10.0
    assert cfg.admm.max_admm_iters == 20
    assert cfg.admm.ilqr.max_iters == 100


def test_builtin_scenario_2_matches_paper_setup():
    cfg = builtin_scenario(2)
    lead, target_lane = cfg.obstacles
    assert lead.center0 == (20.0, 0.0)
    assert lead.velocity == (3.0, 0.0)
    assert target_lane.center0 == (0.0, 4.0)
    assert target_lane.velocity == (6.0, 0.0)
    assert cfg.initial_state.v == 8.0
    assert cfg.reference.py_ref == 4.0
    assert cfg.reference.v_ref is None


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        builtin_scenario(3)


def test_config_round_trip_through_yaml(tmp_path):
    for sid in (1, 2):
        cfg = builtin_scenario(sid)
        path = tmp_path / f"s{sid}.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg


def test_config_round_trip_with_polyline(tmp_path):
    from admmplan.costs import Reference

    cfg = replace(
        builtin_scenario(1),
        reference=Reference(polyline=((0.0, 0.0), (30.0, 2.0)), v_ref=5.0),
    )
    path = tmp_path / "poly.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_loads_files_with_retired_keys(tmp_path):
    # Files written before `seed` and the vehicle body size were dropped
    # still load; those keys are ignored.
    path = tmp_path / "old.yaml"
    path.write_text(
        "name: static_avoidance\nhorizon: 60\nseed: 7\n"
        "initial_state: {px: 0.0, py: 0.0, theta: 0.0, v: 4.0}\n"
        "vehicle: {wheelbase: 2.5, timestep: 0.1, body_length: 3.0, body_width: 2.0}\n"
        "reference: {py_ref: 0.0}\n"
    )
    cfg = load_config(path)
    assert cfg.vehicle == VehicleParams(wheelbase=2.5, timestep=0.1)
    assert cfg.horizon == 60


@pytest.mark.parametrize("solver", ["admm", "barrier"])
def test_config_rejects_ilqr_settings_that_hang(tmp_path, solver):
    # mu_init = 0 never grows, so the backward pass would restart forever.
    path = tmp_path / "hang.yaml"
    path.write_text(
        "horizon: 60\n"
        "initial_state: {px: 0.0, py: 0.0, theta: 0.0, v: 4.0}\n"
        "weights: {steering_weight: 0.0, accel_weight: 0.0}\n"
        "reference: {py_ref: 0.0}\n"
        f"{solver}: {{ilqr: {{mu_init: 0}}}}\n"
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_dict_round_trip():
    cfg = builtin_scenario(2)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_overrides():
    cfg = builtin_scenario(1)
    out = with_overrides(cfg, sigma=25.0, max_admm=7)
    assert out.admm.sigma == 25.0
    assert out.admm.max_admm_iters == 7
    assert cfg.admm.sigma == 10.0  # original untouched


def test_snapshot_policy_parsing(tmp_path):
    assert parse_snapshot_policy("all") == "all"
    assert parse_snapshot_policy("1,2,last") == {1, 2, "last"}
    assert parse_snapshot_policy(" 3 , last ") == {3, "last"}
    with pytest.raises(ValueError):
        parse_snapshot_policy("")
    with pytest.raises(ValueError):
        parse_snapshot_policy("1,x")
    # Indices are 1-based: 0 and negatives select nothing, so they are errors.
    for bad in ("0,-2", "0", "last,-1"):
        with pytest.raises(ValueError):
            parse_snapshot_policy(bad)
    out = tmp_path / "o"
    assert cli.main(["--scenario", "1", "--snapshots", "0,-2", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_warns_on_snapshots_past_last_iteration(tmp_path):
    # S1 converges in 6 ADMM iterations; the count is known only after the
    # solve, so indices past it are a warning on stderr, not a parse error.
    src = str(Path(admmplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "admmplan.cli", "--scenario", "1", "--method", "admm",
         "--snapshots", "2,99,120", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "UserWarning: snapshot indices [99, 120] are past the last iteration (6)" in done.stderr
    written = sorted(p.name for p in (out / "admm").iterdir())
    assert written == ["residuals.csv", "timings.csv", "trajectory_iter002.csv"]


def test_trajectory_csv_contents(tmp_path):
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((5, 2)))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, model, path)
    rows = read_rows(path)
    assert rows[0] == ["tau", "t", "px", "py", "theta", "v", "w", "a"]
    assert len(rows) == 7  # header + T+1
    assert rows[-1][6:] == ["", ""]  # controls blank on the final row
    assert float(rows[2][2]) == pytest.approx(0.4)
    assert float(rows[3][2]) == pytest.approx(0.8)


def test_trajectory_csv_rechecks_dynamics(tmp_path):
    model = BicycleModel(VehicleParams())
    traj = rollout(model, np.array([0.0, 0.0, 0.0, 4.0]), np.zeros((5, 2)))
    broken = Trajectory(traj.states.copy(), traj.controls.copy())
    broken.states[2, 1] += 1e-3
    with pytest.raises(PlannerError):
        write_trajectory_csv(broken, model, tmp_path / "bad.csv")


def test_emit_iterates_file_count(tmp_path):
    cfg = builtin_scenario(1)
    report = solve_scenario(cfg, "admm")
    model = BicycleModel(cfg.vehicle)
    paths = emit_iterates(report, model, tmp_path, policy="1,2,last")
    names = sorted(p.name for p in paths)
    expected_last = f"trajectory_iter{report.iterations:03d}.csv"
    assert "residuals.csv" in names
    assert "trajectory_iter001.csv" in names
    assert "trajectory_iter002.csv" in names
    assert expected_last in names
    assert len(names) == 4
    residual_rows = read_rows(tmp_path / "residuals.csv")
    assert residual_rows[0] == ["iter", "residual_inf", "residual_2", "cost",
                                "ilqr_iters", "seconds"]
    assert len(residual_rows) - 1 == report.iterations
    for traj_file in names:
        if traj_file.startswith("trajectory"):
            assert len(read_rows(tmp_path / traj_file)) - 1 == cfg.horizon + 1


def test_emit_iterates_all_policy(tmp_path):
    cfg = builtin_scenario(1)
    report = solve_scenario(cfg, "admm")
    model = BicycleModel(cfg.vehicle)
    paths = emit_iterates(report, model, tmp_path, policy="all")
    traj_files = [p for p in paths if p.name.startswith("trajectory")]
    assert len(traj_files) == report.iterations


def test_run_trials_counts_and_failures():
    cfg = builtin_scenario(1)
    records = run_trials(cfg, "admm", 2)
    assert [r.trial for r in records] == [1, 2]
    assert all(r.status == "converged" for r in records)
    assert all(r.report is not None and r.final_cost == r.report.final_cost for r in records)
    records = run_trials(cfg, "barrier", 3)
    assert all(r.status == "failed" for r in records)
    assert all(math.isnan(r.final_cost) for r in records)
    assert [r.report for r in records] == [None, None, None]


def test_run_writes_artifacts_and_timing_table(tmp_path):
    cfg = builtin_scenario(1)
    code = run(cfg, "admm", trials=2, out_dir=tmp_path)
    assert code == harness.EXIT_OK
    assert (tmp_path / "config.yaml").exists()
    assert load_config(tmp_path / "config.yaml") == cfg
    rows = read_rows(tmp_path / "admm" / "timings.csv")
    assert len(rows) == 4  # header + 2 trials + mean
    assert rows[-1][2] == "mean"
    seconds = [float(r[3]) for r in rows[1:]]
    assert seconds[-1] == pytest.approx(np.mean(seconds[:-1]))


def test_run_barrier_failure_exit_code(tmp_path):
    cfg = builtin_scenario(1)
    code = run(cfg, "barrier", trials=1, out_dir=tmp_path)
    assert code == harness.EXIT_SOLVER
    rows = read_rows(tmp_path / "barrier" / "timings.csv")
    assert rows[1][4] == "failed"


def test_run_compare_table(tmp_path):
    cfg = builtin_scenario(1)
    code = run(cfg, "admm", trials=2, out_dir=tmp_path, compare=True)
    assert code == harness.EXIT_SOLVER  # barrier fails on the default seed
    rows = read_rows(tmp_path / "compare.csv")
    assert rows[0] == ["trial", "admm_seconds", "admm_status",
                       "barrier_seconds", "barrier_status"]
    assert len(rows) == 4  # header + 2 trials + mean


def test_cli_export_scenario(tmp_path, capsys):
    code = cli.main(["--export-scenario", "2", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert load_config(Path(out)) == builtin_scenario(2)


def test_cli_run_and_byte_identical_outputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["--scenario", "1", "--method", "admm", "--out", str(a)]) == 0
    assert cli.main(["--scenario", "1", "--method", "admm", "--out", str(b)]) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "timings.csv":
            continue  # wall-clock differs between runs by design
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_cli_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon: [unclosed")
    assert cli.main(["--config", str(bad), "--method", "admm"]) == 2
    missing = tmp_path / "missing.yaml"
    assert cli.main(["--config", str(missing), "--method", "admm"]) == 2
    assert cli.main(["--scenario", "1", "--trials", "0"]) == 2
    assert cli.main(["--scenario", "1", "--snapshots", "bogus"]) == 2


def test_cli_rejects_malformed_obstacle(tmp_path):
    # A three-number center used to die in ConstraintSet's column reshape
    # (one obstacle) or be misread silently (eight obstacles).
    data = config_to_dict(builtin_scenario(1))
    bad = dict(data["obstacles"][0], center0=[15.0, 7.0, -1.0])
    for obstacles in ([bad], [bad] * 8):
        path = tmp_path / f"bad{len(obstacles)}.yaml"
        path.write_text(yaml.safe_dump(dict(data, obstacles=obstacles)))
        with pytest.raises(ConfigError, match="center0"):
            load_config(path)
        out = tmp_path / f"out{len(obstacles)}"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_rejects_nan_settings(tmp_path):
    # NaN fails every settings check, so it is a configuration error (exit
    # 2), not a solve that ends "failed".
    data = config_to_dict(builtin_scenario(1))
    for admm in (dict(data["admm"], sigma=math.nan),
                 dict(data["admm"], ilqr=dict(data["admm"]["ilqr"], cost_tolerance=math.nan))):
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(dict(data, admm=admm)))
        assert ".nan" in path.read_text()
        with pytest.raises(ConfigError):
            load_config(path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("value", [2.5, 60.0, True, "60"])
def test_horizon_must_be_an_integer(value):
    cfg = builtin_scenario(1)
    with pytest.raises(ConfigError, match="integer"):
        replace(cfg, horizon=value)
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict(dict(config_to_dict(cfg), horizon=value))


def test_cli_rejects_non_integer_iteration_counts(tmp_path):
    # A count of 2.5 is a configuration error (exit 2), not a crash inside
    # range() or a horizon truncated to 2.
    data = config_to_dict(builtin_scenario(1))
    ilqr = dict(data["admm"]["ilqr"], line_search_steps=2.5)
    for edit in ({"horizon": 2.5},
                 {"admm": dict(data["admm"], max_admm_iters=2.5)},
                 {"admm": dict(data["admm"], ilqr=ilqr)},
                 {"barrier": dict(data["barrier"], outer_iters=2.5)}):
        path = tmp_path / "count.yaml"
        path.write_text(yaml.safe_dump(dict(data, **edit)))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_solver_failure_exit_code(tmp_path):
    code = cli.main(
        ["--scenario", "1", "--method", "barrier", "--out", str(tmp_path)]
    )
    assert code == 3


def test_cli_io_error_exit_code(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = cli.main(
        ["--scenario", "1", "--method", "admm", "--out", str(target)]
    )
    assert code == 4


def test_cli_overrides_propagate(tmp_path):
    out = tmp_path / "o"
    assert cli.main([
        "--scenario", "1", "--method", "admm", "--out", str(out),
        "--sigma", "12.5", "--max-admm", "9",
    ]) == 0
    cfg = load_config(out / "config.yaml")
    assert cfg.admm.sigma == 12.5
    assert cfg.admm.max_admm_iters == 9


def test_cli_iter_timing_flag_populates_seconds(tmp_path):
    out = tmp_path / "timed"
    assert cli.main([
        "--scenario", "1", "--method", "admm", "--out", str(out), "--iter-timing",
    ]) == 0
    rows = read_rows(out / "admm" / "residuals.csv")
    assert all(row[5] != "" for row in rows[1:])

    plain = tmp_path / "plain"
    assert cli.main(["--scenario", "1", "--method", "admm", "--out", str(plain)]) == 0
    rows = read_rows(plain / "admm" / "residuals.csv")
    assert all(row[5] == "" for row in rows[1:])

