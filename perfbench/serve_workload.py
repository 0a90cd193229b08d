"""``serve_hot`` and ``serve_cold``: the six-task mix over keep-alive HTTP.

The benchmark process writes a sharded corpus and an (untrained)
checkpoint -- one deployment, from ``CORPUS_SEED`` whatever the seed --
then starts ``server.py`` -- a 2-worker ``PredictorFleet``
behind ``PredictionServer`` -- as a separate interpreter and talks to it
over two persistent loopback connections, one per load thread.

- ``serve_hot`` takes the six tasks in seeded shuffled rounds (equal
  counts, so the mix does not vary between seeds) and each table by a
  seeded Zipf law from a fixed pool of ``HOT_ITEMS_PER_TASK`` items per
  task, which fits in the fleet's encode caches; the pool is sent once
  before timing, so timed requests repeat cached tables.
- ``serve_cold`` sends every request on a table not used before in the
  run, drawn from the whole corpus (well above the 2 x 256 cache entries).

Every answer is compared with the answer an in-process template
``Predictor`` built from the same checkpoint gives for the same payload;
those reference answers are computed before anything is timed.

The untraced run measures an open loop -- seeded Poisson arrivals at
``RATE_RPS``, latency timed from each request's due time -- then a closed
loop over the same two connections.  The traced run splits the open loop
into thirds -- plain, with the timing probes installed in the server,
plain again -- and turns the probe totals into per-request layer times.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (CORPUS_SEED, HERE, TASKS, WORKERS, BenchmarkError,
                    WorkDir, chunked_rate, hit_rate, median, percentile,
                    ratio, repeat_fraction)

N_TABLES = 2000
N_SHARDS = 4
CONNECTIONS = 2
SETUPS = 3
#: Open-loop arrival rate, about a third of the seed's capacity.  At half,
#: the median flips between fast answers and answers stalled by delayed ACK
#: (see README.md).
RATE_RPS = 15.0
#: An answer slower than this (from its due time) misses the limit.
LATENCY_LIMIT_MS = 100.0
#: A generator that sends later than this (p99) makes the run invalid.
LATE_LIMIT_MS = 50.0
#: Share of ``--seconds`` the open loop lasts, at ``RATE_RPS``.
OPEN_SHARE = 0.8
#: Closed-loop requests per second of ``--seconds``, and per chunk of the
#: reported capacity (a median over chunks).
CLOSED_PER_SECOND = 6
CLOSED_CHUNK = 25
#: The hot traffic law of the repository's soak harness
#: (``tools/serve_soak.py`` defaults): 4 distinct tables per task, drawn with
#: probability proportional to ``1 / (rank + 1) ** 1.2``.
HOT_ITEMS_PER_TASK = 4
ZIPF_S = 1.2
#: Fresh tables sent before timing in ``serve_cold``: as many as the hot pool.
COLD_PREFILL = HOT_ITEMS_PER_TASK * len(TASKS)
REPLY_TIMEOUT_S = 120.0
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Item:
    """One request: task, table, encoded body and the reference answer."""

    task: str
    table_id: str
    body: bytes
    payload: Dict[str, Any]
    expected: Any = None


@dataclass
class Outcome:
    """Clock readings of one request -- when it was due, when its
    connection was free to send it, when it was sent, when its answer
    arrived -- plus the answer."""

    due: float
    free: float
    sent: float
    done: float
    status: int
    data: bytes


# -- the program under test ------------------------------------------------------

def prepare_program(work: str):
    """Corpus on disk, an untrained checkpoint, and the template predictor."""
    from repro.config import TURLConfig
    from repro.core.context import pretrain_streaming
    from repro.core.linearize import Linearizer
    from repro.core.pretrain import load_checkpoint, save_checkpoint
    from repro.data.shards import write_sharded_corpus
    from repro.data.synthesis import SynthesisConfig
    from repro.kb.generator import WorldConfig, generate_world
    from repro.serve import build_serving_bundle

    corpus_dir = os.path.join(work, "corpus")
    checkpoint_dir = os.path.join(work, "checkpoint")
    kb = generate_world(WorldConfig(seed=CORPUS_SEED))
    dataset = write_sharded_corpus(
        kb, SynthesisConfig(seed=CORPUS_SEED, n_tables=N_TABLES),
        corpus_dir, n_shards=N_SHARDS)
    model, tokenizer, entity_vocab, _ = pretrain_streaming(
        dataset, TURLConfig(), pretrain_epochs=0, seed=CORPUS_SEED)
    save_checkpoint(checkpoint_dir, model, tokenizer, entity_vocab)

    # The template is built exactly as the server builds its fleet template.
    model, tokenizer, entity_vocab = load_checkpoint(checkpoint_dir)
    splits = dataset.splits()
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    template = build_serving_bundle(model, linearizer, kb, splits,
                                    seed=CORPUS_SEED, n_examples=0).predictor
    return kb, splits, template, checkpoint_dir, corpus_dir


def instances_by_task(kb, splits) -> Dict[str, List[Tuple[str, Any]]]:
    """``(table_id, make_instance)`` pairs, at most one per (task, table).

    Entity linking takes the first linked cell of each table, as
    ``build_linking_dataset`` would, but looks its candidates up only when
    the item is drawn: looking up every mention of the corpus is slow.
    """
    from functools import partial

    from repro.kb.lookup import LookupService
    from repro.tasks.cell_filling import build_filling_instances
    from repro.tasks.column_type import build_column_type_dataset
    from repro.tasks.relation_extraction import build_relation_dataset
    from repro.tasks.row_population import build_population_instances
    from repro.tasks.schema_augmentation import (build_header_vocabulary,
                                                 build_schema_instances)

    tables = list(splits.train) + list(splits.validation) + list(splits.test)
    types = build_column_type_dataset(kb, splits.train, splits.validation,
                                      splits.test, min_type_instances=5)
    relations = build_relation_dataset(kb, splits.train, splits.validation,
                                       splits.test, min_relation_instances=5)
    vocabulary = build_header_vocabulary(splits.train, min_tables=2)
    built = {
        "column_type": types.train + types.validation + types.test,
        "relation_extraction": (relations.train + relations.validation
                                + relations.test),
        "row_population": build_population_instances(
            tables, n_seed=1, min_subject_entities=3),
        "cell_filling": build_filling_instances(tables),
        "schema_augmentation": build_schema_instances(tables, vocabulary,
                                                      n_seed=1),
    }
    result = {"entity_linking": []}
    lookup = LookupService(kb)
    for table in tables:
        for row, col, cell in table.all_entity_cells():
            if cell.is_linked:
                result["entity_linking"].append((table.table_id, partial(
                    _linking_instance, lookup, table, row, col, cell)))
                break
    for task, instances in built.items():
        first: Dict[str, Any] = {}
        for instance in instances:
            first.setdefault(instance.table.table_id, instance)
        result[task] = [(table_id, partial(_same, instance))
                        for table_id, instance in first.items()]
    return result


def _same(instance):
    return instance


def _linking_instance(lookup, table, row, col, cell):
    from repro.tasks.entity_linking import LinkingInstance

    results = lookup.lookup(cell.mention, k=50)
    return LinkingInstance(table, row, col, cell.mention, cell.entity_id,
                           [r.entity_id for r in results],
                           [r.score for r in results])


def make_item(template, task: str, entry: Tuple[str, Any]) -> Item:
    table_id, make_instance = entry
    payload = template.adapter_for(task).encode_instance(make_instance())
    return Item(task, table_id, json.dumps({"instance": payload}).encode(),
                payload)


def add_references(template, items: Sequence[Item]) -> None:
    """The template's answer for every distinct item, as JSON would carry
    it."""
    for item in items:
        if item.expected is None:
            answer = template.predict_payloads(item.task, [item.payload])[0]
            item.expected = json.loads(json.dumps(answer))


# -- the request schedule ----------------------------------------------------------

class Schedule:
    """Seeded request lists for one run; every item is drawn in advance."""

    def __init__(self, workload: str, seed: int, template, by_task):
        self.rng = np.random.default_rng(seed)
        # The hot pool and its popularity ranks belong to the deployment,
        # like the corpus; the seed draws requests from it.
        deployment_rng = np.random.default_rng(CORPUS_SEED)
        self.cold = workload == "serve_cold"
        self.template = template
        self.sent: List[Item] = []
        self._round: List[str] = []
        if self.cold:
            self._fresh = {}
            for task in TASKS:
                order = self.rng.permutation(len(by_task[task]))
                self._fresh[task] = [by_task[task][int(i)] for i in order]
            self._used = set()
        else:
            self.hot = {}
            for task in TASKS:
                pool = by_task[task]
                chosen = deployment_rng.choice(len(pool), size=min(
                    HOT_ITEMS_PER_TASK, len(pool)), replace=False)
                self.hot[task] = [make_item(template, task, pool[int(i)])
                                  for i in chosen]
            ranks = np.arange(HOT_ITEMS_PER_TASK)
            weights = 1.0 / (ranks + 1.0) ** ZIPF_S
            self._zipf = weights / weights.sum()

    def draw(self, count: int) -> List[Item]:
        items = [self._draw_one() for _ in range(count)]
        add_references(self.template, items)
        self.sent.extend(items)
        return items

    def prefill(self) -> List[Item]:
        """Hot: every pool item once.  Cold: a few fresh tables."""
        if self.cold:
            return self.draw(COLD_PREFILL)
        items = [item for task in TASKS for item in self.hot[task]]
        items = [items[int(i)] for i in self.rng.permutation(len(items))]
        add_references(self.template, items)
        self.sent.extend(items)
        return items

    def one_per_task(self) -> List[Item]:
        if self.cold:
            items = [self._fresh_item(task) for task in TASKS]
        else:
            items = [self.hot[task][0] for task in TASKS]
        add_references(self.template, items)
        self.sent.extend(items)
        return items

    def _draw_one(self) -> Item:
        if not self._round:
            self._round = [TASKS[int(i)]
                           for i in self.rng.permutation(len(TASKS))]
        task = self._round.pop()
        if self.cold:
            return self._fresh_item(task)
        pool = self.hot[task]
        return pool[int(self.rng.choice(len(pool), p=self._zipf[:len(pool)]
                                        / self._zipf[:len(pool)].sum()))]

    def _fresh_item(self, task: str) -> Item:
        candidates = self._fresh[task]
        while candidates:
            entry = candidates.pop()
            if entry[0] not in self._used:
                self._used.add(entry[0])
                return make_item(self.template, task, entry)
        raise BenchmarkError(f"cold pool ran out of {task} tables")

    def arrivals(self, count: int) -> np.ndarray:
        """Seeded Poisson arrival offsets (seconds) at ``RATE_RPS``."""
        return np.cumsum(self.rng.exponential(1.0 / RATE_RPS, size=count))

    def shape(self) -> Dict[str, float]:
        """Workload shape from the schedule, not from the program."""
        tasks = Counter(item.task for item in self.sent)
        values = {"workload.repeat_frac": repeat_fraction(
                      item.table_id for item in self.sent),
                  "workload.distinct_tables": float(len(
                      {item.table_id for item in self.sent}))}
        values.update({f"workload.requests.{task}": float(tasks[task])
                       for task in TASKS})
        return values


# -- the server process and the client -------------------------------------------------

class ServerProcess:
    """``server.py`` in its own interpreter, driven over its stdin/stdout."""

    def __init__(self, checkpoint: str, corpus: str):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--checkpoint", checkpoint, "--corpus", corpus],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.port = int(self._read()["port"])
        except BaseException:
            self.close()
            raise

    def _read(self) -> Dict[str, Any]:
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    REPLY_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            raise BenchmarkError("the server process stopped answering")
        return json.loads(line)

    def ask(self, op: str) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps({"op": op}).encode() + b"\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.process.stdin.write(b'{"op": "quit"}\n')
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Connection:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, item: Item) -> Tuple[int, bytes]:
        try:
            self.http.request("POST", "/v1/" + item.task, body=item.body,
                              headers=HEADERS)
            response = self.http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.http.close()  # reconnects on the next request
            return 0, b""

    def cache_stats(self) -> Dict[str, float]:
        self.http.request("GET", "/metrics")
        response = self.http.getresponse()
        return json.loads(response.read())["encode_cache"]

    def close(self) -> None:
        self.http.close()


def drive(connections: Sequence[Connection], items: Sequence[Item],
          offsets: Optional[np.ndarray] = None) -> List[Outcome]:
    """Send ``items`` over the connections, one thread per connection.

    With ``offsets`` this is an open loop: item ``i`` is due ``offsets[i]``
    seconds after the start and waits for a free connection if none is.
    Without, each thread sends its next item as soon as its last answer
    arrived (a closed loop).
    """
    outcomes: List[Optional[Outcome]] = [None] * len(items)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.02

    def worker(connection: Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(items):
                return
            free = time.perf_counter()
            due = free if offsets is None else start + offsets[index]
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            status, data = connection.post(items[index])
            outcomes[index] = Outcome(due, free, sent, time.perf_counter(),
                                      status, data)

    threads = [threading.Thread(target=worker, args=(connection,))
               for connection in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes  # type: ignore[return-value]


def check(items: Sequence[Item], outcomes: Sequence[Outcome]) -> List[bool]:
    """Whether each answer is a 200 equal to the reference answer."""
    good = []
    for item, outcome in zip(items, outcomes):
        ok = outcome.status == 200
        if ok:
            predictions = json.loads(outcome.data)["predictions"]
            ok = predictions == [item.expected]
        good.append(ok)
    return good


class Tally:
    """Attempted and failed requests over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, items, outcomes) -> List[bool]:
        good = check(items, outcomes)
        self.attempted += len(good)
        self.failed += good.count(False)
        return good


# -- the run -----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool):
    """Returns ``(values, attempted, failed, correct, notes)``."""
    from repro.serve.cache import ENCODE_CACHE_SIZE

    n_open = max(20, int(round(RATE_RPS * OPEN_SHARE * seconds)))
    n_closed = max(10, CLOSED_PER_SECOND * seconds)
    with WorkDir(f"{workload}-{seed}") as work:
        kb, splits, template, checkpoint, corpus = prepare_program(work)
        schedule = Schedule(workload, seed, template,
                            instances_by_task(kb, splits))
        tally = Tally()
        notes = [f"{workload}: {WORKERS} workers x {ENCODE_CACHE_SIZE} cache "
                 f"entries, {CONNECTIONS} keep-alive connections, open loop "
                 f"{n_open} requests at {RATE_RPS:g}/s"]
        setup_seconds = []
        server = connections = None
        try:
            for _ in range(1 if trace else SETUPS):
                if server is not None:
                    for connection in connections:
                        connection.close()
                    server.close()
                    server = connections = None
                warmup = schedule.one_per_task()
                start = time.perf_counter()
                server = ServerProcess(checkpoint, corpus)
                connections = [Connection(server.port)
                               for _ in range(CONNECTIONS)]
                outcomes = drive(connections, warmup)
                setup_seconds.append(time.perf_counter() - start)
                tally.add(warmup, outcomes)
            prefill = schedule.prefill()
            tally.add(prefill, drive(connections, prefill))
            if trace:
                values, late_ms = _traced(schedule, server, connections,
                                          tally, n_open, notes)
            else:
                values, late_ms = _untraced(schedule, server, connections,
                                            tally, n_open, n_closed,
                                            setup_seconds, notes)
        finally:
            if server is not None:
                for connection in connections or []:
                    connection.close()
                server.close()
    shape = schedule.shape()
    notes.append("schedule: repeat_frac {:.3f}, {:.0f} distinct tables, "
                 "requests per task {}".format(
                     shape["workload.repeat_frac"],
                     shape["workload.distinct_tables"],
                     {task: int(shape[f"workload.requests.{task}"])
                      for task in TASKS}))
    if trace:
        values.update(shape)
    # A generator that sent late measured a different arrival process.
    on_time = late_ms <= LATE_LIMIT_MS
    if not on_time:
        notes.append(f"invalid run: generator late p99 {late_ms:.1f} ms "
                     f"exceeds {LATE_LIMIT_MS:g} ms")
    return (values, tally.attempted, tally.failed,
            tally.failed == 0 and on_time, notes)


def _open_loop(schedule, connections, tally, n_open):
    items = schedule.draw(n_open)
    offsets = schedule.arrivals(n_open)
    before = connections[0].cache_stats()
    outcomes = drive(connections, items, offsets)
    after = connections[0].cache_stats()
    good = tally.add(items, outcomes)
    late_ms = [(o.sent - max(o.due, o.free)) * 1e3 for o in outcomes]
    return items, outcomes, good, cache_delta(before, after), late_ms


def cache_delta(before, after) -> Dict[str, float]:
    """Hit rate and evictions of the fleet's encode caches over a phase;
    every miss inserts an entry, so inserts not still held were evicted."""
    misses = after["misses"] - before["misses"]
    return {"hit_rate": hit_rate(before, after),
            "evictions": misses - (after["entries"] - before["entries"])}


def _untraced(schedule, server, connections, tally, n_open, n_closed,
              setup_seconds, notes):
    items, outcomes, good, cache, late_ms = _open_loop(schedule, connections,
                                                       tally, n_open)
    latency_ms = [(o.done - o.due) * 1e3 for o in outcomes]
    closed_items = schedule.draw(n_closed)
    start = time.perf_counter()
    closed = drive(connections, closed_items)
    closed_good = tally.add(closed_items, closed)
    # Correct answers in completion order, with the time each one took.
    finished = sorted((o.done, ok) for o, ok in zip(closed, closed_good))
    answered = [float(ok) for _, ok in finished]
    gaps = np.diff([start] + [done for done, _ in finished])
    late_p99 = percentile(late_ms, 99)
    notes.append(f"open loop: program-observed cache hit rate "
                 f"{cache['hit_rate']:.3f}, generator late p99 "
                 f"{late_p99:.3f} ms; set-ups "
                 + ", ".join(f"{s:.2f}s" for s in setup_seconds))
    return {
        "setup_s": median(setup_seconds),
        "peak_rss_mib": server.ask("stats")["peak_rss_mib"],
        "p50_ms": median(latency_ms),
        "p95_ms": percentile(latency_ms, 95),
        "throughput_per_s": chunked_rate(answered, gaps, CLOSED_CHUNK),
        "within_limit_frac": sum(
            1 for ok, ms in zip(good, latency_ms)
            if ok and ms <= LATENCY_LIMIT_MS) / len(items),
    }, late_p99


def _traced(schedule, server, connections, tally, n_open, notes):
    """Open loop in thirds: plain, with the server's probes, plain again.

    The probed third is compared with the plain thirds around it, so a
    drift over the run does not read as probe overhead.
    """
    third = n_open // 3
    _, first, _, _, _ = _open_loop(schedule, connections, tally, third)
    server.ask("probes_on")
    before = server.ask("stats")["visibility"]
    _, traced, _, cache, late_ms = _open_loop(schedule, connections, tally,
                                              n_open - 2 * third)
    after = server.ask("stats")["visibility"]
    snapshot = server.ask("probes_off")
    _, last, _, _, _ = _open_loop(schedule, connections, tally, third)

    plain_p50 = median([(o.done - o.due) * 1e3 for o in first + last])
    traced_p50 = median([(o.done - o.due) * 1e3 for o in traced])
    values = serving_layers(snapshot, traced)
    late_p99 = percentile(late_ms, 99)
    values.update({
        "cache.hit_rate": cache["hit_rate"],
        "cache.evictions": float(cache["evictions"]),
        "visibility.hit_rate": hit_rate(before, after),
        "loadgen.late_ms": late_p99,
        "trace_overhead_frac": traced_p50 / plain_p50 - 1.0,
    })
    notes.append(f"traced open loop: p50 plain {plain_p50:.2f} ms, traced "
                 f"{traced_p50:.2f} ms; program-observed cache hit rate "
                 f"{cache['hit_rate']:.3f}")
    return values, late_p99


def serving_layers(snapshot, outcomes: Sequence[Outcome]):
    """Per-request layer metrics from the server's probe totals."""
    self_s, total_s = snapshot["self_s"], snapshot["total_s"]
    counts = snapshot["counts"]
    n = snapshot["calls"].get("http.handler", 0)
    if n != len(outcomes):
        raise BenchmarkError(f"server handled {n} requests, client sent "
                             f"{len(outcomes)}")
    client_ms = sum(o.done - o.sent for o in outcomes) / n * 1e3
    layers = ("http.handler", "ring.route", "fleet.lane", "adapters.decode",
              "adapters.encode", "cache.key", "tasks.head", "linearize.encode",
              "batching.collate", "visibility.build", "model.encode")
    values = {f"{layer}_ms": self_s.get(layer, 0.0) / n * 1e3
              for layer in layers}
    values["fleet.queue_wait_ms"] = ratio(counts, "fleet.queue_wait_s",
                                          "fleet.lane_calls") * 1e3
    covered = sum(values.values())
    values.update({
        "http.wire_ms": client_ms - total_s.get("http.handler", 0.0) / n * 1e3,
        "fleet.batch_items": ratio(counts, "fleet.items", "fleet.lane_calls"),
        "fleet.rejected": counts.get("fleet.rejected", 0.0),
        "batching.pad_frac": ratio(counts, "batching.padded",
                                   "batching.slots"),
        "serve.attributed_frac": covered / client_ms,
    })
    return values
