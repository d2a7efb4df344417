"""Scenario configurations: built-in driving setups and YAML round-tripping.

Files load by one schema, the dataclass fields, and one rule at every level: a
key that is no field, a repeated key, a section that is not a mapping or a value
its dataclass refuses is a ConfigError that names its dotted path.
The two built-in scenarios:

  1. Static avoidance: a vehicle parked at (15, -1) m blocks the lane; the
     ego starts at rest-lane speed 4 m/s, tracks the lane center py = 0 and a
     reference speed of 8 m/s.
  2. Dynamic avoidance / lane change: a slow lead vehicle starts at (20, 0) m
     moving at 3 m/s, a faster vehicle occupies the target lane from (0, 4) m
     at 6 m/s; the ego starts at 8 m/s and tracks py = 4 with no speed
     reference.

Both use steering limits of +-0.6 rad, acceleration limits of +-3 m/s^2,
5 x 2.5 m keep-out semi-axes, horizon 60 at 0.1 s and the barrier's
benchmark ladder (`BENCHMARK_BARRIER`).
"""

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin

import yaml

from .barrier import BarrierSettings
from .constraints import InputBounds, Obstacle
from .costs import CostWeights, Reference
from .errors import ConfigError
from .ilqr import is_count, require
from .vehicle import State, VehicleParams


# Conservative interior-point continuation: a cautious initial weight and
# a gentle tightening ladder. With the early stages centered only to
# their duality gap, the criterion-7 starts take 52 (S1, v0 = 0) and 74
# (S2, v0 = 4) inner iterations, about 2.4 times the consensus solver's
# 22 and 31 (its probe plus 20 one-step iterations).
BENCHMARK_BARRIER = BarrierSettings(
    initial_sharpness=0.05,
    tighten_factor=2.0,
    outer_iters=16,
    cost_tolerance=1e-5,
)


@dataclass
class ScenarioConfig:
    name: str
    initial_state: State
    horizon: int
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    weights: CostWeights = field(default_factory=CostWeights)
    reference: Reference = field(default_factory=lambda: Reference(py_ref=0.0))
    bounds: InputBounds = field(default_factory=InputBounds)
    obstacles: list[Obstacle] = field(default_factory=list)
    barrier: BarrierSettings = field(default_factory=BarrierSettings)
    ego_heading_ellipses: bool = False

    def __post_init__(self):
        require(self.horizon, "horizon", is_count, "be an integer of at least 1")
        if not isinstance(self.ego_heading_ellipses, bool):  # YAML "false" is a string
            raise ValueError("ego_heading_ellipses must be true or false, "
                             f"got {self.ego_heading_ellipses!r}")
        self.name = str(self.name)
        self.obstacles = list(self.obstacles)


def builtin_scenario(scenario_id) -> ScenarioConfig:
    """Return one of the two built-in driving scenarios; any other id is a ConfigError."""
    if scenario_id in (1, "1"):
        return ScenarioConfig(
            name="static_avoidance",
            initial_state=State(px=0.0, py=0.0, theta=0.0, v=4.0),
            horizon=60,
            reference=Reference(py_ref=0.0, v_ref=8.0),
            obstacles=[
                Obstacle(center0=(15.0, -1.0), velocity=(0.0, 0.0), heading=0.0,
                         semi_major=5.0, semi_minor=2.5),
            ],
            barrier=BENCHMARK_BARRIER,
        )
    if scenario_id in (2, "2"):
        return ScenarioConfig(
            name="dynamic_avoidance",
            initial_state=State(px=0.0, py=0.0, theta=0.0, v=8.0),
            horizon=60,
            reference=Reference(py_ref=4.0),
            obstacles=[
                Obstacle(center0=(20.0, 0.0), velocity=(3.0, 0.0), heading=0.0,
                         semi_major=5.0, semi_minor=2.5),
                Obstacle(center0=(0.0, 4.0), velocity=(6.0, 0.0), heading=0.0,
                         semi_major=5.0, semi_minor=2.5),
            ],
            barrier=BENCHMARK_BARRIER,
        )
    raise ConfigError(f"no built-in scenario with id {scenario_id!r}")


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> ScenarioConfig:
    return _read(ScenarioConfig, {"name": "custom", **data}, "")


def _read(kind, data, path):
    """The value of type `kind` at the dotted `path`, by the one rule above."""
    if get_origin(kind) is list:
        if not isinstance(data, list):
            raise ConfigError(f"{path} must be a list, got {data!r}")
        return [_read(get_args(kind)[0], item, f"{path}[{i}]") for i, item in enumerate(data)]
    if not is_dataclass(kind):
        return data
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a mapping, got {data!r}")
    kinds = {f.name: f.type for f in fields(kind)}
    paths = {key: f"{path}.{key}" if path else str(key) for key in data}
    for key in data:
        if key not in kinds:
            raise ConfigError(f"unknown key {paths[key]}")
    try:
        return kind(**{key: _read(kinds[key], value, paths[key]) for key, value in data.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path or 'scenario configuration'}: {exc}") from exc


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, but a key given twice in one mapping is an error."""

    def construct_mapping(self, node, deep=False):
        for i, (key, _) in enumerate(node.value):
            if key.value in [other.value for other, _ in node.value[:i]]:
                raise ConfigError(f"repeated key {key.value!r} at line {key.start_mark.line + 1}")
        return super().construct_mapping(node, deep)


def save_config(config: ScenarioConfig, path):
    with open(path, "w") as handle:
        yaml.safe_dump(config_to_dict(config), handle, sort_keys=False)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as handle:
            data = yaml.load(handle, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a configuration mapping")
    return config_from_dict(data)
