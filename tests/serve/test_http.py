"""HTTP round-trips through the in-process Client: every task answers over
a real loopback socket, error paths return typed statuses, /metrics
reflects traffic, and concurrent clients get deterministic answers — for
a bare predictor (served as a fleet of one) and a 2-worker fleet.
"""

import threading

import pytest

from repro.serve import Client, PredictorFleet

TASKS = ("entity_linking", "column_type", "relation_extraction",
         "row_population", "cell_filling", "schema_augmentation")


@pytest.fixture(scope="module")
def client(predictor):
    with Client(predictor) as active:
        yield active


@pytest.fixture(scope="module")
def fleet_client(bundle):
    fleet = PredictorFleet(bundle.predictor, workers=2, max_queue=16)
    with Client(fleet=fleet) as active:
        yield active


def test_healthz_reports_all_tasks(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert sorted(health["tasks"]) == sorted(TASKS)


@pytest.mark.parametrize("task", TASKS)
def test_round_trip_matches_in_process_prediction(bundle, client, task):
    adapter = bundle.predictor.adapter_for(task)
    instance = bundle.examples[task][0]
    expected = adapter.predict_one(instance)
    answer = client.predict(task, adapter.encode_instance(instance))
    assert answer == {"task": task, "output": expected.output}


def test_batch_request_round_trips(bundle, client):
    adapter = bundle.predictor.adapter_for("column_type")
    instances = bundle.examples["column_type"][:3]
    payloads = [adapter.encode_instance(instance) for instance in instances]
    answers = client.predict_batch("column_type", payloads)
    expected = adapter.predict_batch(instances)
    assert [a["output"] for a in answers] == [p.output for p in expected]


def test_unknown_task_is_404(client):
    status, body = client.post("no_such_task", {"instance": {}})
    assert status == 404
    assert sorted(body["tasks"]) == sorted(TASKS)


def test_malformed_payload_is_400(client):
    status, body = client.post("entity_linking", {"instance": {"row": 0}})
    assert status == 400 and "bad request" in body["error"]
    status, body = client.post("entity_linking", {"wrong_key": []})
    assert status == 400
    status, body = client.post("entity_linking", {"instances": "not-a-list"})
    assert status == 400


# (task, field) pairs that index into the payload's table.
CELL_INDEX_FIELDS = [("entity_linking", "row"), ("entity_linking", "col"),
                     ("column_type", "col"),
                     ("relation_extraction", "subject_col"),
                     ("relation_extraction", "object_col")]


@pytest.mark.parametrize("value", [-1, "edge"])
@pytest.mark.parametrize("task,field", CELL_INDEX_FIELDS)
def test_out_of_range_cell_index_is_400(bundle, client, fleet_client,
                                        task, field, value):
    """-1, or the first index past the table's edge, is a bad request —
    not a 200 answered for some other cell."""
    instance = bundle.examples[task][0]
    payload = bundle.predictor.adapter_for(task).encode_instance(instance)
    extent = (instance.table.n_rows if field == "row"
              else instance.table.n_columns)
    payload[field] = extent if value == "edge" else value
    for active in (client, fleet_client):
        status, body = active.post(task, {"instance": payload})
        assert status == 400, (status, body)
        assert "out of range" in body["error"]


def test_prediction_time_key_error_is_500(bundle, exploding_predictor):
    """Decode-class exceptions raised by a head while predicting are
    server faults: 500, not the 400 kept for undecodable payloads."""
    adapter = bundle.predictor.adapter_for("entity_linking")
    payload = adapter.encode_instance(bundle.examples["entity_linking"][0])
    with Client(exploding_predictor(KeyError("head lookup"))) as active:
        status, body = active.post("entity_linking", {"instance": payload})
    assert status == 500
    assert "prediction failed" in body["error"]


def test_metrics_expose_requests_latency_and_cache(bundle, client):
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(bundle.examples["schema_augmentation"][0])
    client.predict("schema_augmentation", payload)
    client.predict("schema_augmentation", payload)  # repeat: cache material
    metrics = client.metrics()
    names = metrics["metrics"]
    assert names["serve.requests.schema_augmentation"]["value"] >= 2
    assert names["serve.latency.schema_augmentation"]["count"] >= 2
    assert metrics["encode_cache"]["enabled"] == 1.0
    assert metrics["encode_cache"]["hits"] > 0
    assert 0.0 < metrics["encode_cache"]["hit_rate"] <= 1.0


def test_fleet_healthz_lists_workers(fleet_client):
    health = fleet_client.healthz()
    assert sorted(health["tasks"]) == sorted(TASKS)
    assert health["workers"] == ["worker0", "worker1"]


@pytest.mark.parametrize("task", TASKS)
def test_fleet_round_trip_matches_single_worker(bundle, fleet_client, task):
    adapter = bundle.predictor.adapter_for(task)
    instance = bundle.examples[task][0]
    expected = adapter.predict_one(instance)
    answer = fleet_client.predict(task, adapter.encode_instance(instance))
    assert answer == {"task": task, "output": expected.output}


def test_fleet_error_statuses(fleet_client):
    status, body = fleet_client.post("no_such_task", {"instance": {}})
    assert status == 404
    status, body = fleet_client.post("entity_linking", {"wrong_key": []})
    assert status == 400
    status, body = fleet_client.post("entity_linking",
                                     {"instance": {"row": 0}})
    assert status == 400 and "bad request" in body["error"]


def test_fleet_metrics_expose_per_worker_caches(bundle, fleet_client):
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(
        bundle.examples["schema_augmentation"][0])
    fleet_client.predict("schema_augmentation", payload)
    fleet_client.predict("schema_augmentation", payload)  # repeat: a hit
    metrics = fleet_client.metrics()
    cache = metrics["encode_cache"]
    assert sorted(cache["per_worker"]) == ["worker0", "worker1"]
    assert cache["hits"] >= 1
    assert cache["hits"] == sum(s["hits"]
                                for s in cache["per_worker"].values())
    text, content_type = fleet_client.metrics_prometheus()
    assert content_type.startswith("text/plain")
    assert "serve_worker0_cache_hit_rate" in text
    assert "serve_worker1_cache_hit_rate" in text
    assert "serve_encode_cache_hit_rate" in text


def test_fleet_draining_returns_503_and_resume_recovers(bundle,
                                                        fleet_client):
    adapter = bundle.predictor.adapter_for("schema_augmentation")
    payload = adapter.encode_instance(
        bundle.examples["schema_augmentation"][0])
    fleet = fleet_client.server.fleet
    assert fleet.drain(timeout=10)
    status, body = fleet_client.post("schema_augmentation",
                                     {"instance": payload})
    assert status == 503
    assert body["error_class"] == "FleetUnavailable"
    fleet.resume()
    assert fleet_client.predict("schema_augmentation", payload)


def test_concurrent_requests_are_deterministic(bundle, client):
    """Hammer the server from threads; every answer must equal the serial
    single-threaded prediction for its instance."""
    adapter = bundle.predictor.adapter_for("entity_linking")
    instances = bundle.examples["entity_linking"]
    expected = [p.output for p in adapter.predict_batch(instances)]
    payloads = [adapter.encode_instance(instance) for instance in instances]

    answers = {}
    def worker(i):
        answers[i] = client.predict("entity_linking",
                                    payloads[i % len(payloads)])["output"]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert answers == {i: expected[i % len(expected)] for i in range(12)}
