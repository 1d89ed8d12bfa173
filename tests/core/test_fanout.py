"""Zero-copy state publication: the fork-inherited, id-keyed global."""

import pytest

import repro.core.fanout as fanout
from repro.core.fanout import StatePublisher, attach_state, publish_state

PAYLOAD = {"config": {"jobs": 2}, "clusters": {0: [1, 2, 3]}, "text": "x" * 1000}


@pytest.fixture(autouse=True)
def _clean_publications():
    yield
    fanout._INHERITED.clear()


class TestForkPublication:
    def test_publish_parks_payload_in_global(self):
        with publish_state(PAYLOAD) as token:
            assert fanout._INHERITED[token] is PAYLOAD

    def test_attach_resolves_inherited_payload(self):
        with publish_state(PAYLOAD) as token:
            # The very object, every time: what a worker stashes in it
            # on its first chunk is there for its next one.
            assert attach_state(token) is PAYLOAD
            assert attach_state(token) is PAYLOAD

    def test_close_releases_global(self):
        with publish_state(PAYLOAD):
            pass
        assert not fanout._INHERITED

    def test_attach_without_publication_raises(self):
        with pytest.raises(RuntimeError, match="no fork-inherited"):
            attach_state("12345")

    def test_legacy_unkeyed_token_raises(self):
        with publish_state(PAYLOAD):
            with pytest.raises(RuntimeError, match="no fork-inherited"):
                attach_state(("inherit",))


class TestInterleavedPublishers:
    """Two concurrent sweeps in one process (the `repro serve` shape)."""

    def test_close_clears_only_own_payload(self):
        payload_a = {"sweep": "a"}
        payload_b = {"sweep": "b"}
        publisher_a = publish_state(payload_a)
        publisher_b = publish_state(payload_b)
        # Closing A mid-flight must not destroy B's published payload.
        publisher_a.close()
        assert attach_state(publisher_b.token) is payload_b
        with pytest.raises(RuntimeError, match="no fork-inherited"):
            attach_state(publisher_a.token)
        publisher_b.close()
        assert not fanout._INHERITED

    def test_publications_get_distinct_tokens(self):
        publisher_a = publish_state({"sweep": "a"})
        publisher_b = publish_state({"sweep": "b"})
        try:
            assert publisher_a.token != publisher_b.token
        finally:
            publisher_a.close()
            publisher_b.close()

    def test_double_close_does_not_touch_others(self):
        payload_b = {"sweep": "b"}
        publisher_a = publish_state({"sweep": "a"})
        publisher_b = publish_state(payload_b)
        publisher_a.close()
        publisher_a.close()  # idempotent, still leaves B alone
        assert attach_state(publisher_b.token) is payload_b
        publisher_b.close()


class TestTokens:
    def test_unknown_token_rejected(self):
        with publish_state(PAYLOAD):
            with pytest.raises(RuntimeError, match="no fork-inherited"):
                attach_state(("carrier-pigeon", "x"))

    def test_publisher_close_is_idempotent(self):
        publisher = publish_state(PAYLOAD)
        publisher.close()
        publisher.close()
        assert isinstance(publisher, StatePublisher)
        assert not fanout._INHERITED
