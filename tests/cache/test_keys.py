"""Content-address derivation: stability and sensitivity.

A key must change whenever anything that changes the evaluation result
changes — and for nothing else (scheduling knobs, delta, coordinates).
"""

import pytest

from repro.cache import cache_key, netlist_digest
from repro.cache.keys import config_fingerprint
from repro.core.shapes import ShapeCandidate
from repro.core.vpr import VPRConfig, extract_subnetlist
from repro.designs import DesignSpec, generate_design


@pytest.fixture(scope="module")
def design():
    return generate_design(
        DesignSpec("keys", 200, clock_period=0.8, logic_depth=8, seed=3)
    )


@pytest.fixture(scope="module")
def sub(design):
    return extract_subnetlist(design, range(0, 80))


class TestNetlistDigest:
    def test_deterministic_across_inductions(self, design):
        a = extract_subnetlist(design, range(0, 80))
        b = extract_subnetlist(design, range(0, 80))
        assert a is not b
        assert netlist_digest(a) == netlist_digest(b)

    def test_different_members_different_digest(self, design):
        a = extract_subnetlist(design, range(0, 80))
        b = extract_subnetlist(design, range(40, 120))
        assert netlist_digest(a) != netlist_digest(b)

    def test_coordinates_do_not_matter(self, design):
        a = extract_subnetlist(design, range(0, 80))
        b = extract_subnetlist(design, range(0, 80))
        for inst in b.to_design().instances:  # b's object view
            inst.x += 100.0
            inst.y += 50.0
        assert netlist_digest(a) == netlist_digest(b)

    def test_net_weight_matters(self, design):
        a = extract_subnetlist(design, range(0, 80))
        b = extract_subnetlist(design, range(0, 80))
        target = next(n for n in b.to_design().nets if not n.is_clock)
        target.weight *= 2.0  # a live weight, read through b's object view
        assert netlist_digest(a) != netlist_digest(b)


class TestConfigFingerprint:
    def test_evaluation_relevant_knobs_included(self):
        base = config_fingerprint(VPRConfig())
        changed = config_fingerprint(VPRConfig(placer_iterations=99))
        assert base != changed
        assert base == config_fingerprint(VPRConfig())

    def test_scheduling_knobs_excluded(self):
        base = config_fingerprint(VPRConfig())
        assert base == config_fingerprint(VPRConfig(jobs=8, chunk_size=2))
        assert base == config_fingerprint(VPRConfig(item_timeout=5.0))

    def test_delta_excluded(self):
        """delta only weighs costs at selection time; sweeping it must
        re-use every cached evaluation."""
        assert config_fingerprint(VPRConfig(delta=0.1)) == config_fingerprint(
            VPRConfig(delta=0.9)
        )


class TestGoldenAddresses:
    """Captured before ``route_target_cells`` / ``die_margin`` became
    constants: the key payload is derived from ``VPRConfig``'s field
    declaration now, and every existing cache entry keeps its address."""

    def test_default_config_fingerprint(self):
        assert config_fingerprint(VPRConfig()) == {
            "top_x_percent": 10.0,
            "placer_iterations": 6,
            "route_target_cells": 144,
            "die_margin": 1.0,
            "seed": 0,
        }

    @pytest.mark.parametrize(
        "config, key",
        [
            (
                VPRConfig(),
                "cdb8a2a56b7604b57f2fa1091695429690ed568a2ff86a4850fc22a0e9c1d367",
            ),
            (
                VPRConfig(placer_iterations=3, seed=7, top_x_percent=5.0),
                "9b5f65b20202b70a163f18eb0681fb68eefed1767281f4843e84c97bfbc4cbb2",
            ),
        ],
    )
    def test_cache_key(self, config, key):
        candidate = ShapeCandidate(aspect_ratio=1.25, utilization=0.8)
        assert cache_key("ab" * 32, candidate, config, cell_area=123.5) == key


class TestCacheKey:
    CAND = ShapeCandidate(aspect_ratio=1.0, utilization=0.9)

    def test_key_is_hex_sha256(self, sub):
        key = cache_key(netlist_digest(sub), self.CAND, VPRConfig(), cell_area=10.0)
        assert len(key) == 64
        int(key, 16)

    def test_candidate_changes_key(self, sub):
        digest = netlist_digest(sub)
        config = VPRConfig()
        a = cache_key(digest, self.CAND, config, cell_area=10.0)
        b = cache_key(
            digest,
            ShapeCandidate(aspect_ratio=2.0, utilization=0.9),
            config,
            cell_area=10.0,
        )
        assert a != b

    def test_cell_area_changes_key(self, sub):
        digest = netlist_digest(sub)
        config = VPRConfig()
        a = cache_key(digest, self.CAND, config, cell_area=10.0)
        b = cache_key(digest, self.CAND, config, cell_area=11.0)
        assert a != b

    def test_seed_changes_key(self, sub):
        digest = netlist_digest(sub)
        a = cache_key(digest, self.CAND, VPRConfig(seed=0), cell_area=10.0)
        b = cache_key(digest, self.CAND, VPRConfig(seed=1), cell_area=10.0)
        assert a != b
