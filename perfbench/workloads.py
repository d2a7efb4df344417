"""Workload inputs: the paper's scenarios, a random corpus and the baseline cells.

Every instance is a ScenarioConfig plus a method name. Each config is sent
through the YAML schema and back before the planner sees it, so the solver
only ever receives the generated, serialized inputs.

A workload plans whole *units*, each a list of instance indices, in a closed
loop with one client, so every instance is planned equally often whatever the
run length.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import yaml

from admmplan import BarrierSettings, Obstacle, Reference, State, builtin_scenario
from admmplan.scenarios import config_from_dict, config_to_dict

from checks import keepout_margins

# Corpus slots. The slot fixes an instance's structure and a fixed design
# stream draws its geometry and speeds (see `corpus_config`).
CORPUS_SIZE = 48
# Chosen once when the corpus was defined and not tuned since.
DESIGN_SEED = 20201101


@dataclass
class Instance:
    name: str
    config: object
    method: str


@dataclass
class Workload:
    instances: list
    unit: list  # indices into `instances`, planned in this order
    trace_units: int  # units planned by a traced run
    tail_percentile: int  # highest percentile with >= 10 plans beyond it
    properties: dict
    roundtrip_s: float = 0.0  # YAML round trips of every config


def roundtrip(config):
    """Serialize a config to YAML text and load it back."""
    return config_from_dict(yaml.safe_load(yaml.safe_dump(config_to_dict(config), sort_keys=False)))


def paper(seed):
    # The paper's own instances; the seed only picks which scenario of the
    # pair is planned first.
    first, second = (1, 2) if seed % 2 == 0 else (2, 1)
    instances = [Instance(f"S{sid}", builtin_scenario(sid), "admm") for sid in (first, second)]
    return Workload(instances, [0, 1], 10, 85, {})


def baseline(seed):
    # Criterion-7 cells, each solved by ADMM, by the barrier with the
    # benchmark ladder and by the barrier at library defaults. The seed
    # rotates the order of the six cells within a round.
    instances = []
    for sid, v0 in ((1, 0.0), (2, 4.0)):
        cfg = replace(builtin_scenario(sid), initial_state=State(0.0, 0.0, 0.0, v0))
        tag = f"S{sid}v{v0:g}"
        instances.append(Instance(f"{tag}/admm", cfg, "admm"))
        instances.append(Instance(f"{tag}/barrier-ladder", cfg, "barrier"))
        instances.append(
            Instance(f"{tag}/barrier-defaults", replace(cfg, barrier=BarrierSettings()), "barrier")
        )
    shift = seed % len(instances)
    order = list(range(shift, len(instances))) + list(range(shift))
    return Workload(instances, order, 1, 70, {})


def _design_stream():
    """Uniform draws from the corpus design stream, as plain floats."""
    rng = np.random.default_rng(DESIGN_SEED)
    return lambda lo, hi: float(rng.uniform(lo, hi))


def _ellipse(draw, center, velocity, spin=0.4, turn=0.0):
    return Obstacle(
        center0=center,
        velocity=velocity,
        heading=turn + draw(-spin, spin),
        semi_major=draw(3.5, 5.5),
        semi_minor=draw(1.5, 2.5),
    )


def _overlapping(draw, anchor, velocity):
    """An ellipse whose center lies inside `anchor` and that crosses it.

    Crossing ellipses are where alternating projections out of each ellipse
    can cycle without clearing both.
    """
    phi = draw(0.0, 2.0 * math.pi)
    r = draw(0.4, 0.8)
    c, s = math.cos(anchor.heading), math.sin(anchor.heading)
    lx, ly = r * anchor.semi_major * math.cos(phi), r * anchor.semi_minor * math.sin(phi)
    center = (anchor.center0[0] + c * lx - s * ly, anchor.center0[1] + s * lx + c * ly)
    return _ellipse(draw, center, velocity, turn=anchor.heading + 0.5 * math.pi)


def corpus_config(slot, draw):
    """One corpus instance: a perturbation of S1 (even slots) or S2 (odd).

    The slot fixes the structure: the base scenario, 1-3 ellipses, whether
    the second ellipse overlaps the first, whether S1's ellipses move, the
    reference kind (lane target or polyline) and ego-heading ellipses.
    `draw(lo, hi)` gives positions, sizes, rotations, speeds and the start
    speed.
    """
    base_id = 1 + slot % 2
    count = 1 + (slot // 2) % 3
    polyline = (slot // 6) % 2 == 1
    overlap = count >= 2 and (slot // 2 + slot // 6) % 2 == 1
    ego_heading = slot % 4 == 3

    if base_id == 1:
        # Lane keeping at py = 0 past obstacles in or near the lane.
        v0 = max(0.0, draw(0.0, 8.0))
        moving = slot % 4 == 2
        velocity = (draw(1.0, 4.0), draw(-0.3, 0.3)) if moving else (0.0, 0.0)
        lead = _ellipse(draw, (draw(12.0, 22.0), draw(-1.5, 1.5)), velocity)
        obstacles = [lead]
        if count >= 2 and overlap:
            obstacles.append(_overlapping(draw, lead, velocity))
        while len(obstacles) < count:
            ahead = obstacles[-1].center0[0] + draw(12.0, 20.0)
            obstacles.append(_ellipse(draw, (ahead, draw(-4.0, 4.0)), velocity))
        v_ref = draw(6.0, 10.0)
        if polyline:
            waypoints = ((-5.0, 0.0), (25.0, draw(-1.0, 1.0)), (70.0, draw(-1.0, 1.0)))
            reference = Reference(polyline=waypoints, v_ref=v_ref)
        else:
            reference = Reference(py_ref=0.0, v_ref=v_ref)
    else:
        # Lane change to py = 4 into traffic that moves in the target lane.
        v0 = draw(4.0, 10.0)
        merge = _ellipse(
            draw, (draw(-5.0, 5.0), 4.0 + draw(-0.5, 0.5)), (draw(5.0, 8.0), 0.0), spin=0.2
        )
        obstacles = [merge]
        if count >= 2 and overlap:
            obstacles.append(_overlapping(draw, merge, merge.velocity))
        if len(obstacles) < count:
            lead = (draw(15.0, 25.0), draw(-0.5, 0.5))
            obstacles.append(_ellipse(draw, lead, (draw(1.0, 5.0), 0.0), spin=0.2))
        if len(obstacles) < count:
            ahead = (draw(35.0, 50.0), 4.0 + draw(-0.5, 0.5))
            obstacles.append(_ellipse(draw, ahead, (draw(2.0, 5.0), 0.0), spin=0.2))
        if polyline:
            bend = draw(10.0, 20.0)
            waypoints = ((-5.0, 0.0), (bend, 0.0), (bend + draw(15.0, 25.0), 4.0), (90.0, 4.0))
            reference = Reference(polyline=waypoints)
        else:
            reference = Reference(py_ref=4.0)

    return replace(
        builtin_scenario(base_id),
        name=f"corpus{slot:02d}",
        initial_state=State(0.0, 0.0, 0.0, v0),
        reference=reference,
        obstacles=obstacles,
        ego_heading_ellipses=ego_heading,
    )


def _overlaps(config) -> bool:
    """Do two keep-out ellipses intersect at some stamp?

    Tested on 64 boundary points of each ellipse against every other one,
    with the obstacles' own headings.
    """
    h = config.vehicle.timestep
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for tau in range(config.horizon + 1):
        # Each obstacle frozen at this stamp, so keepout_margins sees stamp 0.
        frozen = [
            replace(o, center0=tuple(np.array(o.center0) + tau * h * np.array(o.velocity)),
                    velocity=(0.0, 0.0))
            for o in config.obstacles
        ]
        for i, a in enumerate(frozen):
            c, s = math.cos(a.heading), math.sin(a.heading)
            lx, ly = a.semi_major * np.cos(phi), a.semi_minor * np.sin(phi)
            ring = np.array(a.center0) + np.column_stack([c * lx - s * ly, s * lx + c * ly])
            others = frozen[:i] + frozen[i + 1:]
            if others and np.any(keepout_margins(ring, None, others, h) > 0.0):
                return True
    return False


def _seed_infeasible(config) -> bool:
    """Does the zero-control rollout violate a keep-out ellipse?"""
    x = config.initial_state
    v, h = x.v, config.vehicle.timestep
    stamps = np.arange(config.horizon + 1)
    states = np.column_stack(
        [x.px + math.cos(x.theta) * h * v * stamps, x.py + math.sin(x.theta) * h * v * stamps,
         np.full(len(stamps), x.theta)]
    )
    headings = states[:, 2] if config.ego_heading_ellipses else None
    margins = keepout_margins(states[:, :2], headings, config.obstacles, h)
    return bool(np.any(margins > 0.0))


def _projection_failure():
    """S2 traffic whose ellipses overlap between the lanes while passing.

    A seeded perturbation of slot 5, tried while the corpus was defined,
    gave this instance; the planner's cyclic projection fails on it at time
    index 28. It keeps one case of that known failure in the corpus.
    """
    return replace(
        builtin_scenario(2),
        name="corpus48",
        initial_state=State(0.0, 0.0, 0.0, 8.49),
        obstacles=[
            Obstacle((4.91, 3.905), (5.514, 0.0), -0.053, 4.416, 1.586),
            Obstacle((23.55, 0.495), (1.375, 0.0), -0.212, 5.319, 2.221),
            Obstacle((46.279, 4.08), (2.769, 0.0), -0.201, 4.897, 1.559),
        ],
    )


def corpus(seed):
    # The instances do not depend on the seed, only the order of the pass
    # does: seeded perturbations, even of a few centimetres, flipped
    # knife-edge instances between a feasible probe and 20 ADMM iterations
    # and moved the solved share and median plan time of a pass by 10-30 %
    # between seeds.
    draw = _design_stream()
    configs = [corpus_config(slot, draw) for slot in range(CORPUS_SIZE)] + [_projection_failure()]
    instances = [Instance(c.name, c, "admm") for c in configs]
    size = len(configs)
    properties = {
        "overlapping_ellipses": sum(map(_overlaps, configs)) / size,
        "moving_obstacles": sum(any(any(o.velocity) for o in c.obstacles) for c in configs) / size,
        "polyline_reference": sum(c.reference.polyline is not None for c in configs) / size,
        "ego_heading": sum(c.ego_heading_ellipses for c in configs) / size,
        "infeasible_seed": sum(map(_seed_infeasible, configs)) / size,
    }
    order = [int(i) for i in np.random.default_rng(seed).permutation(size)]
    return Workload(instances, order, 1, 75, properties)


WORKLOADS = {"paper": paper, "corpus": corpus, "baseline": baseline}


def build(name, seed):
    """Generate a workload and round-trip every config through YAML.

    Raises RuntimeError if a config does not load back equal to itself.
    """
    workload = WORKLOADS[name](seed)
    start = time.perf_counter()
    for inst in workload.instances:
        loaded = roundtrip(inst.config)
        if loaded != inst.config:
            raise RuntimeError(f"{inst.name}: config changed in the YAML round trip")
        inst.config = loaded
    workload.roundtrip_s = time.perf_counter() - start
    return workload
