"""The soak harness's routing gate: served counts must equal the ring's."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _load_soak():
    spec = importlib.util.spec_from_file_location(
        "serve_soak", os.path.join(ROOT, "tools", "serve_soak.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


soak = _load_soak()


class _Ring:
    """Routes by table name, like the fleet routes by table content."""

    def __init__(self, owners):
        self.owners = owners

    def route(self, task, payload):
        return self.owners[payload["table"]]


def test_ring_counts_follow_the_route_of_every_scheduled_request():
    payloads = {"column_type": [{"table": "a"}, {"table": "b"}]}
    schedule = [("column_type", 0), ("column_type", 1), ("column_type", 0)]
    fleet = _Ring({"a": "worker0", "b": "worker1"})
    assert soak.ring_counts(fleet, payloads, schedule) == {"worker0": 2,
                                                           "worker1": 1}


def test_routing_gate_passes_when_every_table_hashes_to_one_worker():
    # Two test tables, both owned by worker0: an idle worker1 is correct.
    assert soak.routing_matches_ring({"worker0": 2000},
                                     {"worker0": 2000, "worker1": 0})


def test_routing_gate_fails_when_served_counts_differ_from_the_ring():
    expected = {"worker0": 1200, "worker1": 800}
    assert soak.routing_matches_ring(expected,
                                     {"worker0": 1200, "worker1": 800})
    assert not soak.routing_matches_ring(expected,
                                         {"worker0": 2000, "worker1": 0})
    assert not soak.routing_matches_ring(expected,
                                         {"worker0": 1199, "worker1": 801})
    assert not soak.routing_matches_ring({"worker0": 2000},
                                         {"worker0": 1000, "worker1": 1000})
