"""Tests for repro.cluster.message."""

import pytest

from repro.cluster.message import MessageCounter, MessageType


class TestMessageCounter:
    def test_record_and_get(self):
        counter = MessageCounter()
        counter.record(MessageType.PRE_ROUTING, 5)
        assert counter.get(MessageType.PRE_ROUTING) == 5

    def test_default_count_is_one(self):
        counter = MessageCounter()
        counter.record(MessageType.AFTER_ROUTING)
        assert counter.after_routing == 1

    def test_accumulation(self):
        counter = MessageCounter()
        counter.record(MessageType.INTRA_NODE, 3)
        counter.record(MessageType.INTRA_NODE, 4)
        assert counter.intra_node == 7

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            MessageCounter().record(MessageType.PRE_ROUTING, -1)

    def test_inter_node_total(self):
        counter = MessageCounter()
        counter.record(MessageType.PRE_ROUTING, 10)
        counter.record(MessageType.AFTER_ROUTING, 40)
        counter.record(MessageType.INTRA_NODE, 100)
        assert counter.inter_node_total == 50
        assert counter.total == 150

    def test_as_dict(self):
        counter = MessageCounter()
        counter.record(MessageType.PRE_ROUTING, 2)
        counter.record(MessageType.AFTER_ROUTING, 6)
        assert counter.as_dict() == {"pre_routing": 2, "after_routing": 6}

    def test_empty_counter_zeroes(self):
        counter = MessageCounter()
        assert counter.total == 0
        assert counter.pre_routing == 0
        assert counter.after_routing == 0
        assert counter.intra_node == 0
