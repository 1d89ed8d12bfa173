"""Spec validation, argv compilation, and the deterministic-QoR view."""

from __future__ import annotations

import pytest

from repro.serve import (
    JobSpec,
    SpecError,
    deterministic_qor,
    parse_job_spec,
    spec_to_argv,
)

from tests.serve.conftest import TINY_DESIGN


class TestParseJobSpec:
    def test_benchmark_spec_defaults(self):
        spec = parse_job_spec({"design": "aes"})
        assert spec.design == "aes"
        assert spec.flow == "ours"
        assert spec.routing is True
        assert spec.jobs == 1
        assert spec.seed == 0
        assert spec.env == {}
        assert spec.design_label() == "aes"

    def test_generator_spec(self):
        spec = parse_job_spec({"design": dict(TINY_DESIGN)})
        assert spec.design == TINY_DESIGN
        assert spec.design_label() == "gen:tiny"

    def test_round_trips_through_to_dict(self):
        spec = parse_job_spec({"design": "aes", "seed": 7, "jobs": 2})
        assert parse_job_spec(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "payload",
        [
            "aes",  # not an object
            {},  # no design
            {"design": "aes", "turbo": True},  # unknown field
            {"design": "no-such-bench"},
            {"design": 7},
            {"design": {"name": "t"}},  # generator missing num_instances
            {"design": {"name": "t", "num_instances": 10, "warp": 1}},
            {"design": "aes", "flow": "quantum"},
            {"design": "aes", "clustering": "psychic"},
            {"design": "aes", "routing": "yes"},
            {"design": "aes", "jobs": 0},
            {"design": "aes", "jobs": True},
            {"design": "aes", "seed": -1},
            {"design": "aes", "env": {"PATH": "/evil"}},
            {"design": "aes", "env": {"REPRO_FAULTS": 3}},
            {"design": "aes", "env": "REPRO_FAULTS"},
            # Generator values the runner could not build (or would
            # build as something else).
            *(
                {"design": {"name": "t", "num_instances": 200, **bad}}
                for bad in (
                    {"num_instances": "5"},
                    {"num_instances": True},
                    {"num_instances": 0},
                    {"name": ""},
                    {"hierarchy_depth": -1},
                    {"hierarchy_branching": 0},
                    {"logic_depth": 0},
                    {"seq_fraction": -0.5},
                    {"seq_fraction": 7.0},
                    {"locality": float("nan")},
                    {"sibling_bias": 1.5},
                    {"target_utilization": 0.0},
                    {"target_utilization": 1.01},
                    {"num_macros": -1},
                    {"high_fanout_nets": -1},
                    {"critical_chains": -1},
                    {"num_ports": -1},
                    {"clock_period": 0},
                    {"clock_period": float("inf")},
                    {"enablement": "tsmc3"},
                    {"seed": 1.5},
                    {"seed": None},
                )
            ),
        ],
    )
    def test_rejects_bad_specs(self, payload):
        with pytest.raises(SpecError):
            parse_job_spec(payload)

    def test_allows_fault_injection_env(self):
        spec = parse_job_spec(
            {"design": "aes", "env": {"REPRO_FAULTS": "raise:flow.clustering"}}
        )
        assert spec.env == {"REPRO_FAULTS": "raise:flow.clustering"}


class TestSpecToArgv:
    def test_benchmark_argv(self):
        spec = parse_job_spec({"design": "aes", "seed": 5})
        argv = spec_to_argv(spec, "/jobs/j1", "/shared/cache")
        assert argv[0] == "flow"
        assert ["--benchmark", "aes"] == argv[1:3]
        assert "--monitor" in argv
        assert "--no-routing" not in argv
        i = argv.index("--telemetry")
        assert argv[i + 1] == "/jobs/j1"
        i = argv.index("--cache")
        assert argv[i + 1] == "/shared/cache"
        i = argv.index("--seed")
        assert argv[i + 1] == "5"
        i = argv.index("--report")
        assert argv[i + 1] == "/jobs/j1/result.json"

    def test_generator_and_no_routing(self):
        spec = parse_job_spec(
            {"design": dict(TINY_DESIGN), "routing": False}
        )
        argv = spec_to_argv(spec, "/jobs/j2", None)
        assert "--generator" in argv
        assert "--no-routing" in argv
        assert "--cache" not in argv  # no shared cache configured

    def test_baseline_flows_skip_cache(self):
        # The shared cache holds "ours"-flow shape evaluations only;
        # baseline flows must not be pointed at it.
        spec = JobSpec(design="aes", flow="default")
        argv = spec_to_argv(spec, "/jobs/j3", "/shared/cache")
        assert "--cache" not in argv


class TestDeterministicQor:
    def test_strips_wall_clock_fields(self):
        report = {
            "metrics": {"hpwl": 1.0},
            "runtimes_s": {"total": 3.2},
            "placement_runtime_s": 1.1,
            "shape_selection": {"method": "vpr", "runtime_s": 0.4},
            "design": {"name": "tiny"},
        }
        out = deterministic_qor(report)
        assert out == {
            "metrics": {"hpwl": 1.0},
            "shape_selection": {"method": "vpr"},
            "design": {"name": "tiny"},
        }
        # The input report is not mutated.
        assert report["shape_selection"]["runtime_s"] == 0.4
