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
from admmplan.constraints import ConstraintSet
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


# The iLQR schedule keys every older export carries, at the values it wrote.
RETIRED_ILQR = {"mu_growth": 10.0, "mu_shrink": 0.5, "mu_max": 1e10, "line_search_steps": 11}


def _with_ilqr_keys(data, **keys):
    return dict(data, **{solver: dict(data[solver], ilqr=dict(data[solver]["ilqr"], **keys))
                         for solver in ("admm", "barrier")})


def test_config_loads_retired_ilqr_keys_at_their_fixed_values(tmp_path):
    cfg = builtin_scenario(1)
    data = _with_ilqr_keys(config_to_dict(cfg), **RETIRED_ILQR)
    assert config_from_dict(data) == cfg
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(data))
    assert "line_search_steps: 11" in path.read_text()
    assert load_config(path) == cfg


@pytest.mark.parametrize("key, value", [("mu_growth", 5), ("mu_max", math.inf),
                                        ("line_search_steps", 2.5)])
def test_config_rejects_retired_ilqr_keys_at_other_values(tmp_path, key, value):
    # The engine's schedule is fixed: a file asking for another one must not
    # run silently with the fixed one.
    data = config_to_dict(builtin_scenario(1))
    with pytest.raises(ConfigError, match=key):
        config_from_dict(_with_ilqr_keys(data, **dict(RETIRED_ILQR, **{key: value})))
    path = tmp_path / "retired.yaml"
    path.write_text(yaml.safe_dump(_with_ilqr_keys(data, **{key: value})))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_reference_docs_match_the_schema():
    # The YAML block of docs/config.md lists every key of an exported
    # config, section by section and in the exported order.
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    block = text.split("```yaml\n")[1].split("```")[0]
    block = block.replace("# polyline:", "polyline:")  # the commented alternative
    docs = yaml.safe_load(block)
    assert docs["barrier"]["ilqr"] == {"...": None}  # `{ ... }`: same keys as admm.ilqr
    docs["barrier"]["ilqr"] = docs["admm"]["ilqr"]
    assert _key_paths(docs) == _key_paths(config_to_dict(builtin_scenario(1)))


def _key_paths(value, prefix=()):
    if isinstance(value, dict):
        return [path for key, item in value.items() for path in _key_paths(item, prefix + (key,))]
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return _key_paths(value[0], prefix + ("-",))
    return [prefix]


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
    # S1 converges in 5 ADMM iterations; the count is known only after the
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
    assert "UserWarning: snapshot indices [99, 120] are past the last iteration (5)" in done.stderr
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
    states = traj.states.copy()
    states[2, 1] += 1e-3
    broken = Trajectory(states, traj.controls)
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


@pytest.mark.parametrize("polyline", [[[0, 0, 0], [40, 2, 0]], [[0], [40]]])
def test_cli_rejects_polyline_points_that_are_not_pairs(tmp_path, polyline):
    # Three numbers per point used to crash the solve with a broadcasting
    # error; one number per point was broadcast and planned against.
    data = _with_fields("reference", py_ref=None, polyline=polyline)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match="two finite numbers each"):
        load_config(path)
    out = tmp_path / "out"
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


def test_cli_rejects_infinite_caps_and_nan_weights(tmp_path):
    # The regularization cap mu_max is fixed in the engine, sigma must be
    # finite and the weights not NaN, and an infinite sharpness or tighten
    # factor drops the barrier terms, so each is rejected on load.
    data = config_to_dict(builtin_scenario(1))
    for edit in ({"admm": dict(data["admm"], ilqr=dict(data["admm"]["ilqr"], mu_max=math.inf))},
                 {"admm": dict(data["admm"], sigma=math.inf)},
                 {"barrier": dict(data["barrier"], initial_sharpness=math.inf)},
                 {"barrier": dict(data["barrier"], tighten_factor=math.inf)},
                 {"weights": dict(data["weights"], steering_weight=math.nan)}):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(dict(data, **edit)))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


def _with_fields(section, **fields):
    data = config_to_dict(builtin_scenario(1))
    return dict(data, **{section: dict(data[section], **fields)})


@pytest.mark.parametrize("section, edits", [
    ("bounds", [{"max_steer": math.nan}, {"max_accel": math.nan}, {"min_accel": math.nan}]),
    ("weights", [{name: math.nan} for name in ("position_weight", "velocity_weight",
                                               "steering_weight", "accel_weight",
                                               "terminal_scale")]),
    ("vehicle", [{"wheelbase": math.nan}, {"timestep": math.nan}, {"timestep": math.inf}]),
    ("reference", [{"py_ref": math.nan}, {"v_ref": math.nan},
                   {"py_ref": None, "polyline": [[0.0, 0.0], [math.nan, 1.0]]}]),
    ("initial_state", [{name: math.nan} for name in ("px", "py", "theta", "v")]),
], ids=["InputBounds", "CostWeights", "VehicleParams", "Reference", "State"])
def test_config_rejects_nan_model_inputs(section, edits):
    # NaN fails every model-input check, so the file is rejected on load
    # instead of failing late, inside the solve.
    for fields in edits:
        with pytest.raises(ConfigError):
            config_from_dict(_with_fields(section, **fields))


def test_config_rejects_infinite_semi_axes():
    data = config_to_dict(builtin_scenario(1))
    for fields in ({"semi_major": math.inf}, {"semi_major": math.inf, "semi_minor": math.inf},
                   {"semi_major": math.nan}):
        obstacles = [dict(data["obstacles"][0], **fields)]
        with pytest.raises(ConfigError, match="semi_major"):
            config_from_dict(dict(data, obstacles=obstacles))


def test_config_infinite_box_limit_is_absent():
    config = config_from_dict(_with_fields("bounds", max_steer=math.inf, min_accel=-math.inf))
    constraints = ConstraintSet(config.bounds, config.obstacles, config.vehicle.timestep)
    assert constraints.faces == [(1, 1.0, 3.0)]


@pytest.mark.parametrize("flag", [False, True])
def test_build_problem_passes_the_ego_heading_flag(flag):
    problem = harness.build_problem(replace(builtin_scenario(1), ego_heading_ellipses=flag))
    assert problem.constraints.use_ego_heading is flag


def test_problem_rejects_constraints_on_another_timestep():
    # The obstacles would move on a schedule that the dynamics do not keep.
    problem = harness.build_problem(builtin_scenario(1))
    h = problem.dynamics.params.timestep
    with pytest.raises(ValueError, match="timestep"):
        replace(problem, constraints=ConstraintSet(problem.constraints.bounds,
                                                   problem.constraints.obstacles, 2 * h))
    with pytest.raises(ValueError, match="timestep"):
        replace(problem, dynamics=BicycleModel(VehicleParams(timestep=2 * h)))


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
    ilqr = dict(data["admm"]["ilqr"], max_iters=2.5)
    for edit in ({"horizon": 2.5},
                 {"admm": dict(data["admm"], max_admm_iters=2.5)},
                 {"admm": dict(data["admm"], ilqr=ilqr)},
                 {"barrier": dict(data["barrier"], outer_iters=2.5)}):
        path = tmp_path / "count.yaml"
        path.write_text(yaml.safe_dump(dict(data, **edit)))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_ego_heading_ellipses_must_be_a_boolean(value):
    # bool("false") is True: a quoted YAML value must not switch the
    # keep-out convention silently.
    data = config_to_dict(builtin_scenario(1))
    with pytest.raises(ConfigError, match="ego_heading_ellipses"):
        config_from_dict(dict(data, ego_heading_ellipses=value))
    with pytest.raises(ConfigError, match="ego_heading_ellipses"):
        replace(builtin_scenario(1), ego_heading_ellipses=value)
    for flag in (False, True):
        assert config_from_dict(dict(data, ego_heading_ellipses=flag)).ego_heading_ellipses is flag
    assert config_from_dict({k: v for k, v in data.items()
                             if k != "ego_heading_ellipses"}).ego_heading_ellipses is False


def test_cli_rejects_quoted_ego_heading_flag(tmp_path):
    data = config_to_dict(builtin_scenario(1))
    path = tmp_path / "quoted.yaml"
    path.write_text(yaml.safe_dump(dict(data, ego_heading_ellipses="false")))
    assert "ego_heading_ellipses: 'false'" in path.read_text()
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def _obstacle_with(**fields):
    data = config_to_dict(builtin_scenario(1))
    return dict(data, obstacles=[dict(data["obstacles"][0], **fields)])


@pytest.mark.parametrize("data, field", [
    (_obstacle_with(center0=[True, 0.0]), "center0"),
    (_obstacle_with(velocity=[0.0, True]), "velocity"),
    (_with_fields("reference", py_ref=None, polyline=[[True, 0.0], [40.0, 2.0]]), "polyline"),
    (_obstacle_with(heading=True), "heading"),
    (_with_fields("weights", steering_weight=True), "steering_weight"),
], ids=["center0", "velocity", "polyline", "heading", "weight"])
def test_cli_rejects_a_boolean_where_a_number_is_read(tmp_path, data, field):
    # float(True) is 1.0: a YAML true must not be planned against as a
    # coordinate, an angle or a weight.
    path = tmp_path / "boolean.yaml"
    path.write_text(yaml.safe_dump(data))
    assert path.read_text().count("true") == 1
    with pytest.raises(ConfigError, match=field):
        load_config(path)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def _with_nested(section, **fields):
    data = config_to_dict(builtin_scenario(1))
    if section == "obstacle":
        return _obstacle_with(**fields)
    if section == "ilqr":
        return dict(data, admm=dict(data["admm"], ilqr=dict(data["admm"]["ilqr"], **fields)))
    return _with_fields(section, **fields)


@pytest.mark.parametrize("section, name", [
    ("initial_state", "px"), ("initial_state", "v"), ("reference", "py_ref"),
    ("reference", "v_ref"), ("vehicle", "wheelbase"), ("vehicle", "timestep"),
    ("bounds", "max_steer"), ("bounds", "min_accel"), ("admm", "sigma"),
    ("admm", "primal_tolerance"), ("ilqr", "cost_tolerance"), ("ilqr", "mu_init"),
    ("barrier", "initial_sharpness"), ("barrier", "tighten_factor"), ("barrier", "margin"),
    ("weights", "position_weight"), ("weights", "terminal_scale"),
    ("obstacle", "semi_major"), ("obstacle", "semi_minor"),
])
def test_config_rejects_a_boolean_real(section, name):
    # True compares as 1 and False as 0; neither is read as a number.
    for flag in (True, False):
        with pytest.raises(ConfigError, match=name):
            config_from_dict(_with_nested(section, **{name: flag}))


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

