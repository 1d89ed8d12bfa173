"""Additional QoR reporting coverage."""

from repro.core import default_flow


class TestQorText:
    def test_dict_serialisable(self, small_design_fresh):
        import json

        from repro.core.reporting import flow_result_to_dict

        result = default_flow(small_design_fresh)
        # Must not raise: everything JSON-native.
        json.dumps(flow_result_to_dict(result, small_design_fresh))
