import csv
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from admmplan import cli, harness
from admmplan.admm import PROBE_ILQR
from admmplan.constraints import ConstraintSet, Obstacle
from admmplan.costs import Reference
from admmplan.errors import ConfigError, PlannerError, UnknownScenario
from admmplan.harness import (
    emit_iterates,
    run,
    run_trials,
    solve_scenario,
    write_trajectory_csv,
)
from admmplan.ilqr import Trajectory, rollout
from admmplan.scenarios import (
    ScenarioConfig,
    builtin_scenario,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from admmplan.vehicle import BicycleModel, State, VehicleParams


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
    assert PROBE_ILQR.max_iters == 100


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
    # A library caller's one configuration handler catches it too.
    with pytest.raises(ConfigError, match="no built-in scenario"):
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


def test_config_reference_docs_match_the_schema():
    # The YAML block of docs/config.md lists every key of an exported
    # config, section by section and in the exported order.
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    block = text.split("```yaml\n")[1].split("```")[0]
    block = block.replace("# polyline:", "polyline:")  # the commented alternative
    docs = yaml.safe_load(block)
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
    # One trajectory file per record, and the residual history.
    cfg = builtin_scenario(1)
    report = solve_scenario(cfg, "admm")
    model = BicycleModel(cfg.vehicle)
    paths = emit_iterates(report, model, tmp_path)
    names = [f"trajectory_iter{i:03d}.csv" for i in range(1, report.iterations + 1)]
    assert [p.name for p in paths] == names + ["residuals.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["residuals.csv"])
    residual_rows = read_rows(tmp_path / "residuals.csv")
    assert residual_rows[0] == ["iter", "residual_inf", "residual_2", "cost",
                                "ilqr_iters", "seconds"]
    assert len(residual_rows) - 1 == report.iterations
    for name in names:
        assert len(read_rows(tmp_path / name)) - 1 == cfg.horizon + 1


def test_emit_iterates_all_policy(tmp_path):
    # Writing every iterate is the only behaviour: one file per iteration.
    cfg = builtin_scenario(1)
    report = solve_scenario(cfg, "admm")
    model = BicycleModel(cfg.vehicle)
    paths = emit_iterates(report, model, tmp_path)
    traj_files = [p for p in paths if p.name.startswith("trajectory")]
    assert len(traj_files) == report.iterations


def test_run_writes_one_trajectory_per_residual_row(tmp_path):
    # S2 by ADMM takes 7 iterations; the barrier refuses its zero-control
    # seed, so its one trial fails and it emits no report.
    assert run(builtin_scenario(2), "all", 1, tmp_path) == harness.EXIT_SOLVER
    report = solve_scenario(builtin_scenario(2), "admm")
    residual_rows = read_rows(tmp_path / "admm" / "residuals.csv")[1:]
    assert len(residual_rows) == report.iterations == 7
    names = [f"trajectory_iter{i:03d}.csv" for i in range(1, 8)]
    assert sorted(p.name for p in (tmp_path / "admm").glob("trajectory_iter*.csv")) == names
    for name, record in zip(names, report.records):
        rows = read_rows(tmp_path / "admm" / name)[1:]
        states = np.array([[float(v) for v in row[2:6]] for row in rows])
        controls = np.array([[float(v) for v in row[6:]] for row in rows[:-1]])
        assert np.array_equal(states, record.trajectory.states)
        assert np.array_equal(controls, record.trajectory.controls)
        assert rows[-1][6:] == ["", ""]
    assert sorted(p.name for p in (tmp_path / "barrier").iterdir()) == ["timings.csv"]
    assert read_rows(tmp_path / "barrier" / "timings.csv")[1][4] == "failed"


def test_run_into_a_reused_directory_keeps_no_stale_artifacts(tmp_path):
    # S2 by ADMM writes 7 iterates and S1 then 5 into the same directory; a
    # file the run did not write stays.
    assert run(builtin_scenario(2), "admm", 1, tmp_path) == harness.EXIT_OK
    (tmp_path / "admm" / "notes.txt").write_text("kept")
    assert run(builtin_scenario(1), "admm", 1, tmp_path) == harness.EXIT_OK
    assert len(read_rows(tmp_path / "admm" / "residuals.csv")) - 1 == 5
    names = [f"trajectory_iter{i:03d}.csv" for i in range(1, 6)]
    assert sorted(p.name for p in (tmp_path / "admm").iterdir()) == sorted(
        names + ["notes.txt", "residuals.csv", "timings.csv"])
    # A converged barrier run from standstill, then the refused S1 seed: the
    # failed method holds only its timings.csv.
    standstill = replace(builtin_scenario(1), initial_state=State(0.0, 0.0, 0.0, 0.0))
    assert run(standstill, "barrier", 1, tmp_path) == harness.EXIT_OK
    assert len(list((tmp_path / "barrier").glob("trajectory_iter*.csv"))) == 16
    assert run(builtin_scenario(1), "barrier", 1, tmp_path) == harness.EXIT_SOLVER
    assert sorted(p.name for p in (tmp_path / "barrier").iterdir()) == ["timings.csv"]
    assert read_rows(tmp_path / "barrier" / "timings.csv")[1][4] == "failed"
    # One method after every method: no artifact of the other method's earlier
    # scenario stays beside the new config.yaml.
    out = tmp_path / "d"
    assert cli.main(["--scenario", "2", "--method", "all", "--out", str(out)]) == 3
    (out / "barrier" / "notes.txt").write_text("kept")
    assert cli.main(["--scenario", "1", "--method", "admm", "--out", str(out)]) == 0
    assert load_config(out / "config.yaml").name == "static_avoidance"
    assert [p.name for p in (out / "barrier").iterdir()] == ["notes.txt"]
    assert {row[1] for row in read_rows(out / "admm" / "timings.csv")[1:]} == {
        "static_avoidance"}


def test_run_trials_counts_and_failures():
    cfg = builtin_scenario(1)
    records = run_trials(cfg, "admm", 2)
    assert [r.trial for r in records] == [1, 2]
    assert all(r.report.status == "converged" for r in records)
    assert all(r.report.trajectory is not None for r in records)
    records = run_trials(cfg, "barrier", 3)
    assert all(r.report.status == "failed" for r in records)
    assert all(math.isnan(r.report.final_cost) for r in records)
    assert all(math.isnan(r.report.max_violation) for r in records)
    assert [r.report.trajectory for r in records] == [None, None, None]
    assert all("not strictly feasible at time index" in r.report.message for r in records)


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


def test_run_all_methods_writes_a_timing_table_per_method(tmp_path):
    cfg = builtin_scenario(1)
    code = run(cfg, "all", trials=2, out_dir=tmp_path)
    assert code == harness.EXIT_SOLVER  # barrier fails on the default seed
    for method in harness.METHODS:
        rows = read_rows(tmp_path / method / "timings.csv")
        assert len(rows) == 4  # header + 2 trials + mean
        assert [row[0] for row in rows[1:]] == [method] * 3
    assert not (tmp_path / "compare.csv").exists()


def test_cli_method_all_names_the_barrier_failure(tmp_path, capsys):
    out = tmp_path / "o"
    args = ["--scenario", "1", "--method", "all", "--trials", "1", "--out", str(out)]
    assert cli.main(args) == harness.EXIT_SOLVER
    printed = capsys.readouterr().out
    assert "admm trial 1: converged" in printed
    assert "barrier trial 1: failed" in printed
    assert "not strictly feasible at time index 27" in printed
    assert sorted(p.name for p in out.iterdir()) == ["admm", "barrier", "config.yaml"]


def test_run_config_is_the_scenario_export(tmp_path):
    # A run's config.yaml is the complete scenario: it loads back equal, is
    # what save_config writes, and planning from it writes it again unchanged.
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--scenario", "2", "--out", str(a)]) == harness.EXIT_OK
    assert load_config(a / "config.yaml") == builtin_scenario(2)
    save_config(builtin_scenario(2), tmp_path / "saved.yaml")
    assert (a / "config.yaml").read_bytes() == (tmp_path / "saved.yaml").read_bytes()
    assert cli.main(["--config", str(a / "config.yaml"), "--out", str(b)]) == harness.EXIT_OK
    assert (b / "config.yaml").read_bytes() == (a / "config.yaml").read_bytes()


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
    out = tmp_path / "o"
    assert cli.main(["--scenario", "1", "--trials", "0", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, -1, 2.0, True])
def test_run_rejects_trials_before_writing_any_file(tmp_path, trials):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="trials"):
        run(builtin_scenario(1), "admm", trials, out)
    assert not out.exists()


def test_run_rejects_an_unknown_method_before_writing_any_file(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=r"'ADMM'.*'admm', 'barrier', 'all'"):
        run(builtin_scenario(1), "ADMM", 1, out)
    assert not out.exists()


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
    for edit in ({"admm": dict(data["admm"], sigma=math.nan)},
                 {"barrier": dict(data["barrier"],
                                  ilqr=dict(data["barrier"]["ilqr"], cost_tolerance=math.nan))}):
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(dict(data, **edit)))
        assert ".nan" in path.read_text()
        with pytest.raises(ConfigError):
            load_config(path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_rejects_infinite_caps_and_nan_weights(tmp_path):
    # The iteration caps must be integers, sigma must be finite and the
    # weights not NaN, and an infinite sharpness or tighten factor drops the
    # barrier terms, so each is rejected on load, for its own reason.
    data = config_to_dict(builtin_scenario(1))
    for edit, message in (
            ({"barrier": dict(data["barrier"],
                              ilqr=dict(data["barrier"]["ilqr"], max_iters=math.inf))},
             "max_iters must be an integer of at least 1"),
            ({"admm": dict(data["admm"], max_admm_iters=math.inf)},
             "max_admm_iters must be an integer of at least 1"),
            ({"admm": dict(data["admm"], sigma=math.inf)},
             "sigma must be positive and finite"),
            ({"barrier": dict(data["barrier"], initial_sharpness=math.inf)},
             "initial_sharpness must be positive and finite"),
            ({"barrier": dict(data["barrier"], tighten_factor=math.inf)},
             "tighten_factor must exceed 1 and be finite"),
            ({"weights": dict(data["weights"], steering_weight=math.nan)},
             "cost weight steering_weight must be finite and nonnegative")):
        assert _refused(tmp_path, dict(data, **edit), message)


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
    assert constraints.face_index.tolist() == [1]
    assert constraints.face_signs.tolist() == [1.0]
    assert (-constraints.box(np.zeros(2))).tolist() == [3.0]
    assert [limits.tolist() for limits in constraints.control_box] == [
        [-math.inf, -math.inf], [math.inf, 3.0]]


@pytest.mark.parametrize("flag", [False, True])
def test_build_problem_passes_the_ego_heading_flag(flag):
    problem = harness.build_problem(replace(builtin_scenario(1), ego_heading_ellipses=flag))
    assert problem.constraints.use_ego_heading is flag


def test_problem_rejects_constraints_on_another_timestep():
    # The obstacles would move on a schedule that the dynamics do not keep.
    cfg = builtin_scenario(1)
    problem = harness.build_problem(cfg)
    h = problem.dynamics.params.timestep
    with pytest.raises(ValueError, match="timestep"):
        replace(problem, constraints=ConstraintSet(cfg.bounds, cfg.obstacles, 2 * h))
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
    ilqr = dict(data["barrier"]["ilqr"], max_iters=2.5)
    for edit in ({"horizon": 2.5},
                 {"admm": dict(data["admm"], max_admm_iters=2.5)},
                 {"barrier": dict(data["barrier"], ilqr=ilqr)},
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


@pytest.mark.parametrize("value", [None, [1, 2], "x", 3])
def test_cli_rejects_a_vehicle_section_that_is_not_a_mapping(tmp_path, value):
    # Every other section is a configuration error (exit 2) when it is not a
    # mapping; the vehicle section's key filter used to crash on it instead.
    data = config_to_dict(builtin_scenario(1))
    path = tmp_path / "vehicle.yaml"
    path.write_text(yaml.safe_dump(dict(data, vehicle=value)))
    with pytest.raises(ConfigError, match="vehicle"):
        load_config(path)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


# Every section of a configuration file by its dotted path ("" is the top
# level and "obstacles.0" the first obstacle), as error messages name it.
SECTIONS = ["", "initial_state", "vehicle", "weights", "reference", "bounds", "obstacles.0",
            "admm", "barrier", "barrier.ilqr"]


def _set_at(data, path, value):
    """`data` with the entry at the dotted `path` set to `value`, in place."""
    keys = [int(key) if key.isdigit() else key for key in path.split(".")]
    section = data
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    return data


def _shown(path):
    return path.replace(".0", "[0]")


def _refused(tmp_path, data, message):
    """Whether load_config and the CLI both refuse `data` with `message`."""
    path = tmp_path / "bad.yaml"
    path.write_text(data if isinstance(data, str) else yaml.safe_dump(data, sort_keys=False))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    out = tmp_path / "out"
    return cli.main(["--config", str(path), "--out", str(out)]) == 2 and not out.exists()


@pytest.mark.parametrize("section", SECTIONS)
def test_cli_rejects_an_unknown_key_at_every_level(tmp_path, capsys, section):
    # A misspelt top-level key was ignored: S1 with `obstacle:` for
    # `obstacles:` planned through the parked car and exited 0.
    key = f"{section}.colour".lstrip(".")
    data = _set_at(config_to_dict(builtin_scenario(1)), key, "red")
    assert _refused(tmp_path, data, f"unknown key {_shown(key)}")
    assert capsys.readouterr().err == f"configuration error: unknown key {_shown(key)}\n"


@pytest.mark.parametrize("value", [None, [1.0, 2.0], "x", 3])
@pytest.mark.parametrize("section", SECTIONS[1:])
def test_cli_rejects_a_section_that_is_not_a_mapping(tmp_path, section, value):
    data = _set_at(config_to_dict(builtin_scenario(1)), section, value)
    assert _refused(tmp_path, data, f"{_shown(section)} must be a mapping, got {value!r}")


# The keys older versions wrote, at the values they wrote: each is no field of
# the schema, so a file that carries one is refused like any unknown key.
RETIRED = {"seed": 0, "vehicle.body_length": 3.0, "vehicle.body_width": 2.0,
           "admm.primal_tolerance": 0.001,
           "admm.ilqr": {"max_iters": 100, "cost_tolerance": 0.0001, "mu_init": 1e-06},
           "barrier.margin": 1e-06, "barrier.ilqr.mu_growth": 10.0,
           "barrier.ilqr.mu_shrink": 0.5, "barrier.ilqr.mu_max": 1e10,
           "barrier.ilqr.line_search_steps": 11}


@pytest.mark.parametrize("path", RETIRED)
def test_cli_rejects_a_key_older_versions_wrote(tmp_path, path):
    data = _set_at(config_to_dict(builtin_scenario(1)), path, RETIRED[path])
    assert _refused(tmp_path, data, f"unknown key {path}")
    with pytest.raises(ConfigError, match=f"^unknown key {re.escape(path)}$"):
        config_from_dict(data)


@pytest.mark.parametrize("value", [None, {"center0": [15.0, -1.0]}, "x"])
def test_cli_rejects_obstacles_that_are_not_a_list(tmp_path, value):
    data = dict(config_to_dict(builtin_scenario(1)), obstacles=value)
    assert _refused(tmp_path, data, f"obstacles must be a list, got {value!r}")


def test_cli_rejects_a_top_level_that_is_not_a_mapping(tmp_path):
    assert _refused(tmp_path, "- 1\n- 2\n", "does not contain a configuration mapping")


@pytest.mark.parametrize("edit", ["rename", "repeat"])
def test_cli_rejects_an_exported_scenario_that_loses_its_obstacles(tmp_path, edit):
    # Both edits used to load with no obstacles and plan through the car.
    run_dir = tmp_path / "run"
    assert cli.main(["--scenario", "1", "--out", str(run_dir)]) == 0
    text = (run_dir / "config.yaml").read_text()
    assert text.count("\nobstacles:\n") == 1
    if edit == "rename":
        text, message = text.replace("\nobstacles:\n", "\nobstacle:\n"), "unknown key obstacle"
    else:
        text += "obstacles: []\n"
        message = f"repeated key 'obstacles' at line {len(text.splitlines())}"
    assert _refused(tmp_path, text, message)


@pytest.mark.parametrize("text, key, line", [
    ("horizon: 60\ninitial_state: {v: 4.0}\nhorizon: 30\n", "horizon", 3),
    ("horizon: 60\ninitial_state: {v: 4.0}\nvehicle:\n  wheelbase: 2.0\n  wheelbase: 3.0\n",
     "wheelbase", 5),
    ("horizon: 60\ninitial_state: {v: 4.0, v: 8.0}\n", "v", 2),
])
def test_cli_rejects_a_repeated_key_at_any_level(tmp_path, text, key, line):
    assert _refused(tmp_path, text, f"repeated key {key!r} at line {line}")


def test_config_key_may_override_a_merged_one(tmp_path):
    # The repeated-key check reads the keys as written: a YAML merge (`<<`)
    # still takes the keys given next to it over the merged ones.
    path = tmp_path / "merge.yaml"
    path.write_text("horizon: 60\ninitial_state: {v: 4.0}\nreference: {py_ref: 0.0}\n"
                    "obstacles:\n- &car {center0: [15.0, -1.0], semi_major: 4.0}\n"
                    "- {<<: *car, center0: [30.0, 1.0]}\n")
    first, second = load_config(path).obstacles
    assert (first.center0, second.center0) == ((15.0, -1.0), (30.0, 1.0))
    assert first.semi_major == second.semi_major == 4.0


def test_config_without_a_section_takes_its_default(tmp_path):
    # Every omitted section is its ScenarioConfig default, the reference too
    # (py_ref 0, no speed term), as docs/config.md says.
    path = tmp_path / "short.yaml"
    path.write_text("horizon: 60\ninitial_state: {v: 4.0}\n")
    assert load_config(path) == ScenarioConfig("custom", State(v=4.0), 60)


def _moving_polyline_config():
    # A polyline reference, ego-heading ellipses and moving, rotated traffic.
    return replace(
        builtin_scenario(2), name="polyline_traffic", ego_heading_ellipses=True,
        reference=Reference(polyline=((0.0, 0.0), (20.0, 1.5), (45.0, 4.0)), v_ref=6.5),
        obstacles=[Obstacle((18.0, 0.5), (2.5, 0.25), 0.1, 4.5, 2.0),
                   Obstacle((5.0, 4.0), (6.0, -0.5), -0.3, 5.0, 2.5)],
    )


@pytest.mark.parametrize("cfg", [builtin_scenario(1), builtin_scenario(2),
                                 _moving_polyline_config()], ids=["S1", "S2", "polyline"])
def test_config_round_trips_through_the_strict_reader(tmp_path, cfg):
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


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
        ilqr = dict(data["barrier"]["ilqr"], **fields)
        return dict(data, barrier=dict(data["barrier"], ilqr=ilqr))
    return _with_fields(section, **fields)


@pytest.mark.parametrize("section, name", [
    ("initial_state", "px"), ("initial_state", "v"), ("reference", "py_ref"),
    ("reference", "v_ref"), ("vehicle", "wheelbase"), ("vehicle", "timestep"),
    ("bounds", "max_steer"), ("bounds", "min_accel"), ("bounds", "max_accel"),
    ("initial_state", "theta"), ("admm", "sigma"), ("ilqr", "cost_tolerance"),
    ("ilqr", "mu_init"), ("barrier", "initial_sharpness"), ("barrier", "tighten_factor"),
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


def test_cli_prints_the_reason_of_a_reported_failure(tmp_path, capsys):
    # S2 traffic whose ellipses overlap between the lanes while passing
    # (the benchmark corpus's known projection failure): the consensus
    # solver reports the failure, and each trial line names its reason.
    cfg = replace(
        builtin_scenario(2), name="corpus48", initial_state=State(0.0, 0.0, 0.0, 8.49),
        obstacles=[Obstacle((4.91, 3.905), (5.514, 0.0), -0.053, 4.416, 1.586),
                   Obstacle((23.55, 0.495), (1.375, 0.0), -0.212, 5.319, 2.221),
                   Obstacle((46.279, 4.08), (2.769, 0.0), -0.201, 4.897, 1.559)],
    )
    path = tmp_path / "corpus48.yaml"
    save_config(cfg, path)
    code = cli.main(["--config", str(path), "--method", "admm", "--trials", "2",
                     "--out", str(tmp_path / "out")])
    assert code == harness.EXIT_SOLVER
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.endswith(
            "(cyclic ellipse projection did not converge at time index 29)")
    # A failed report with records has a trajectory, so its iterates are written.
    admm_dir = tmp_path / "out" / "admm"
    assert len(read_rows(admm_dir / "residuals.csv")) - 1 == 7
    assert sorted(p.name for p in admm_dir.glob("trajectory_iter*.csv")) == [
        f"trajectory_iter{i:03d}.csv" for i in range(1, 8)]


def test_cli_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = cli.main(
        ["--scenario", "1", "--method", "admm", "--out", str(target)]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot prepare output directory {target}: ")


def test_cli_artifact_write_failure_exit_code(tmp_path, capsys):
    # The method's directory is taken by a file: config.yaml is written,
    # the trial's artifacts are not.
    (tmp_path / "admm").write_text("a file, not a directory")
    code = cli.main(["--scenario", "1", "--method", "admm", "--out", str(tmp_path)])
    assert code == 4
    captured = capsys.readouterr()
    assert "I/O failure" not in captured.out
    assert captured.err.startswith("I/O failure while writing artifacts: ")
    assert load_config(tmp_path / "config.yaml") == builtin_scenario(1)


@pytest.mark.parametrize("flag", [["--compare"], ["--export-scenario", "1"]])
def test_cli_has_no_compare_or_export_flags(tmp_path, capsys, flag):
    # `--method all` runs every method, and every run writes its config.yaml.
    assert flag[0] not in cli.build_parser().format_help()
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        cli.main(["--scenario", "1", "--out", str(out)] + flag)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--sigma", "12"], ["--max-admm", "9"]])
def test_cli_has_no_solver_setting_flags(tmp_path, capsys, flag):
    # The scenario file is the one way to set sigma and max_admm_iters.
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        cli.main(["--scenario", "1", "--out", str(out)] + flag)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_has_no_snapshots_flag(tmp_path, capsys):
    # Every run writes every iterate, so no flag picks which.
    flags = [a.option_strings[0] for a in cli.build_parser()._actions
             if a.option_strings and a.dest != "help"]
    assert flags == ["--scenario", "--config", "--method", "--trials", "--out", "--iter-timing"]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        cli.main(["--scenario", "1", "--out", str(out), "--snapshots", "all"])
    assert info.value.code == 2
    assert "unrecognized arguments: --snapshots all" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sets_sigma_and_the_iteration_cap_from_the_file(tmp_path):
    data = _with_fields("admm", sigma=12.5, max_admm_iters=3)
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "o"
    assert cli.main(["--config", str(path), "--out", str(out)]) == harness.EXIT_OK
    cfg = load_config(out / "config.yaml")
    assert (cfg.admm.sigma, cfg.admm.max_admm_iters) == (12.5, 3)
    assert len(read_rows(out / "admm" / "residuals.csv")) - 1 <= 3


def test_cli_iter_timing_flag_populates_seconds(tmp_path):
    out = tmp_path / "timed"
    assert cli.main([
        "--scenario", "1", "--method", "admm", "--out", str(out), "--iter-timing",
    ]) == 0
    rows = read_rows(out / "admm" / "residuals.csv")
    seconds = [float(row[5]) for row in rows[1:]]
    assert seconds and all(s >= 0.0 for s in seconds)
    # Each record's seconds run from the end of the previous record, so the
    # records account for no more than the trial's own time.
    trial = read_rows(out / "admm" / "timings.csv")[1]
    assert sum(seconds) <= float(trial[3])

    plain = tmp_path / "plain"
    assert cli.main(["--scenario", "1", "--method", "admm", "--out", str(plain)]) == 0
    rows = read_rows(plain / "admm" / "residuals.csv")
    assert all(row[5] == "" for row in rows[1:])

