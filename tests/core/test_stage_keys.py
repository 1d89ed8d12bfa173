"""The stage-key chain: what each flow stage's content key covers.

A stage record may be served to any run whose key matches, so a key
must change whenever something that can change the record changes, and
every field of the flow's four configuration classes is either in a
stage key or on :data:`repro.core.flow.NON_RESULT_FIELDS`.
"""

from __future__ import annotations

import functools
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.flow as flow_module
from repro.cache import input_key
from repro.core.flow import NON_RESULT_FIELDS, ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.seeded import SeededPlacementConfig
from repro.core.vpr import (
    MLShapeSelector,
    RandomShapeSelector,
    UniformShapeSelector,
    VPRConfig,
    VPRShapeSelector,
)
from repro.designs import DesignSpec, generate_design
from repro.eco import apply_edits, parse_edits

CONFIGS = (FlowConfig, PPAClusteringConfig, VPRConfig, SeededPlacementConfig)

#: The stage that reads each result field (its own key changes, and
#: every key downstream of it).
STAGE_OF = {
    "FlowConfig.clustering": "clustering",
    "FlowConfig.clustering_config": "clustering",
    "FlowConfig.seed": "clustering",
    "FlowConfig.shape_selector": "vpr",
    "FlowConfig.vpr_config": "vpr",
    "FlowConfig.tool": "seeded",
    "FlowConfig.timing_weighted_cluster_nets": "seeded",
    "FlowConfig.power_emphasis": "seeded",
    "FlowConfig.run_routing": "metrics",
    **{
        f"PPAClusteringConfig.{f.name}": "clustering"
        for f in fields(PPAClusteringConfig)
    },
    **{f"VPRConfig.{f.name}": "vpr" for f in fields(VPRConfig)},
    **{
        f"SeededPlacementConfig.{f.name}": "seeded"
        for f in fields(SeededPlacementConfig)
    },
}
STAGE_OF = {
    name: stage for name, stage in STAGE_OF.items() if name not in NON_RESULT_FIELDS
}

ORDER = ("clustering", "vpr", "vpr_digests", "seeded", "eco_base", "metrics")
DOWNSTREAM = {
    "clustering": set(ORDER),
    "vpr": {"vpr", "vpr_digests", "seeded", "eco_base", "metrics"},
    "seeded": {"seeded", "eco_base", "metrics"},
    "metrics": {"metrics"},
}


@functools.lru_cache(maxsize=None)
def _design():
    return generate_design(DesignSpec("keys", 300, seed=5))


def _keys(config: FlowConfig, seeded=None):
    flow = ClusteredPlacementFlow(config)
    selector = config.shape_selector or VPRShapeSelector(flow._vpr_config())
    if seeded is None:
        return flow.stage_keys(_design(), selector)[0]
    original = flow_module.SeededPlacementConfig
    flow_module.SeededPlacementConfig = seeded
    try:
        return flow.stage_keys(_design(), selector)[0]
    finally:
        flow_module.SeededPlacementConfig = original


def _changed(value, draw):
    """A different value of the same kind."""
    if is_dataclass(value):
        owner = type(value).__name__
        field = draw(
            st.sampled_from(
                [
                    f.name
                    for f in fields(value)
                    if f"{owner}.{f.name}" not in NON_RESULT_FIELDS
                ]
            )
        )
        return replace(value, **{field: _changed(getattr(value, field), draw)})
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + draw(st.integers(1, 5))
    if isinstance(value, float):
        return value + draw(st.floats(0.01, 2.0))
    if isinstance(value, str):
        return value + "_x"
    if isinstance(value, list):
        return value[:-1]
    if value is None:
        return draw(st.integers(1, 5))
    raise AssertionError(f"no mutation for {value!r}")


def _mutated(name: str, draw):
    """``(FlowConfig, seeded-config factory or None)`` with the one
    field ``name`` changed from the default."""
    owner, field = name.split(".")
    if owner == "FlowConfig":
        base = FlowConfig()
        if field == "shape_selector":
            value = draw(
                st.sampled_from([UniformShapeSelector(), RandomShapeSelector(seed=3)])
            )
        elif field == "tool":
            value = "innovus"
        elif field == "clustering":
            value = draw(st.sampled_from(["mfc", "leiden", "louvain", "bc", "ec"]))
        else:
            value = _changed(getattr(base, field), draw)
        return replace(base, **{field: value}), None
    if owner == "PPAClusteringConfig":
        inner = _changed_field(PPAClusteringConfig(), field, draw)
        return FlowConfig(clustering_config=inner), None
    if owner == "VPRConfig":
        return FlowConfig(vpr_config=_changed_field(VPRConfig(), field, draw)), None

    def seeded(tool):
        return _changed_field(SeededPlacementConfig(tool=tool), field, draw)

    return FlowConfig(), seeded


def _changed_field(config, field, draw):
    if field == "tool":
        return replace(config, tool="innovus")
    return replace(config, **{field: _changed(getattr(config, field), draw)})


def test_every_config_field_is_keyed_or_named_result_free():
    """The ratchet: a new field of any of the four classes fails here
    until it is put in a stage key (and ``STAGE_OF``) or on
    ``NON_RESULT_FIELDS``."""
    every = {f"{c.__name__}.{f.name}" for c in CONFIGS for f in fields(c)}
    assert NON_RESULT_FIELDS <= every
    assert every - NON_RESULT_FIELDS == set(STAGE_OF)


@pytest.mark.parametrize("name", sorted(STAGE_OF))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_keyed_field_changes_its_stage_and_everything_downstream(name, data):
    default = _keys(FlowConfig())
    config, seeded = _mutated(name, data.draw)
    changed = _keys(config, seeded)
    moved = {stage for stage in ORDER if changed[stage] != default[stage]}
    assert moved == DOWNSTREAM[STAGE_OF[name]], name


@pytest.mark.parametrize("name", sorted(NON_RESULT_FIELDS))
def test_result_free_fields_change_no_key(name, tmp_path):
    owner, field = name.split(".")
    values = {
        "jobs": 3,
        "checkpoint_dir": str(tmp_path),
        "resume": True,
        "cache_dir": str(tmp_path),
        "artifacts_dir": str(tmp_path),
        "chunk_size": 7,
        "item_timeout": 9.0,
        "fleet_listen": "127.0.0.1:0",
        "seed": 99,
    }
    if owner == "FlowConfig":
        extra = {"checkpoint_dir": str(tmp_path)} if field == "resume" else {}
        config = FlowConfig(**{field: values[field]}, **extra)
    elif owner == "VPRConfig":
        config = FlowConfig(vpr_config=VPRConfig(**{field: values[field]}))
    else:
        config = FlowConfig(
            clustering_config=PPAClusteringConfig(**{field: values[field]})
        )
    assert _keys(config) == _keys(FlowConfig())


def test_selector_without_identity_is_not_shared():
    config = FlowConfig(shape_selector=MLShapeSelector(lambda sub, cands: None))
    flow = ClusteredPlacementFlow(config)
    keys, shared = flow.stage_keys(_design(), config.shape_selector)
    assert not shared
    assert keys["vpr"] != _keys(FlowConfig())["vpr"]
    assert keys["clustering"] == _keys(FlowConfig())["clustering"]
    assert ClusteredPlacementFlow(FlowConfig()).stage_keys(
        _design(), VPRShapeSelector()
    )[1]


class TestInputKey:
    def _fresh(self, **overrides):
        spec = dict(name="inkey", num_instances=300, num_macros=2, seed=8)
        spec.update(overrides)
        return generate_design(DesignSpec(**spec))

    def test_identical_generator_calls_share_it(self):
        assert input_key(self._fresh()) == input_key(self._fresh())
        assert input_key(self._fresh()) != input_key(self._fresh(seed=9))

    def test_one_changed_master(self):
        design = self._fresh()
        before = input_key(design)
        for inst in design.instances:
            base, _, strength = inst.master.name.rpartition("_X")
            other = f"{base}_X{'2' if strength == '1' else '1'}"
            if base and other in design.masters:
                edit = {"kind": "resize", "instance": inst.name, "master": other}
                apply_edits(design, parse_edits([edit]))
                break
        assert input_key(design) != before

    def test_one_moved_fixed_macro(self):
        design = self._fresh()
        before = input_key(design)
        macro = next(i for i in design.instances if i.fixed)
        macro.x += 1.0
        assert input_key(design) != before

    def test_a_new_clock_period(self):
        design = self._fresh()
        before = input_key(design)
        design.clock_period = design.clock_period * 1.5
        assert input_key(design) != before

    def test_one_net_weight(self):
        design = self._fresh()
        before = input_key(design)
        design.nets[len(design.nets) // 2].weight *= 2.0
        assert input_key(design) != before


def test_no_store_builds_no_key(monkeypatch):
    """``sweep_cold`` and ``backend_ml`` run with neither a checkpoint
    nor a cache: they must pay nothing for keys."""

    def refuse(*args, **kwargs):
        raise AssertionError("a stage key was built")

    monkeypatch.setattr(flow_module, "input_key", refuse)
    monkeypatch.setattr(flow_module, "stage_key", refuse)
    monkeypatch.setattr(flow_module, "encode_stage", refuse)
    result = ClusteredPlacementFlow(FlowConfig(run_routing=False)).run(
        generate_design(DesignSpec("nokey", 300, seed=4))
    )
    assert result.metrics.hpwl > 0
