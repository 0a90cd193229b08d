"""``pretrain_stream``: MLM + MER pre-training streamed off a sharded corpus.

One set-up generates the world, writes it as a sharded corpus (both from
``CORPUS_SEED``), builds the vocabularies, the seeded model and a
:class:`repro.train.Trainer` over a
``TableInstanceStream`` (``shuffle="shard"``, default ``TURLConfig``, batch
8), and runs a few warm-up steps.  The timed region is a fixed number of
optimisation steps, each driven through ``Trainer.fit(max_steps=1)`` and
timed from outside.

The untraced run (``--trace 0``) sets up several times and reports the
median set-up time.  The traced run (``--trace 1``) trains three times
from the same seed for a third as many steps each -- plain, with the
timing probes installed, plain again -- and requires all three to produce
the same loss sequence.
"""

from __future__ import annotations

import gc
import math
import os
import time
from typing import Dict, List, Tuple

# The program is imported once, before the first timed set-up, so every
# set-up times the same work.
from repro.config import TURLConfig
from repro.core.candidates import CandidateBuilder
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.core.pretrain import PretrainObjective, Pretrainer
from repro.core.stream import TableInstanceStream
from repro.core.visibility import (clear_visibility_cache,
                                   visibility_cache_stats)
from repro.data.shards import ShardedDataset, write_sharded_corpus
from repro.data.synthesis import SynthesisConfig
from repro.kb.generator import WorldConfig, generate_world
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import EntityVocabulary
from repro.train import Trainer, TrainSpec

from common import (CORPUS_SEED, BenchmarkError, WorkDir, chunked_rate,
                    hit_rate, median, peak_rss_mib, percentile, ratio,
                    repeat_fraction)
from probes import Probes, install_training_probes

N_TABLES = 2000
N_SHARDS = 4
EPOCHS = 3
SETUPS = 5
WARMUP_STEPS = 3
#: Timed steps per second of ``--seconds``.
STEPS_PER_SECOND = 24
#: A step slower than this misses the limit (``within_limit_frac``).
STEP_LIMIT_MS = 150.0
#: Steps per chunk of the reported throughput (a median over chunks).
CHUNK_STEPS = 50


class System:
    """Everything one streamed pre-training run is built from."""

    def __init__(self, seed: int, directory: str):
        self.seed = seed
        self.config = TURLConfig()
        kb = generate_world(WorldConfig(seed=CORPUS_SEED))
        self.dataset = write_sharded_corpus(
            kb, SynthesisConfig(seed=CORPUS_SEED, n_tables=N_TABLES),
            directory, n_shards=N_SHARDS)
        self.tokenizer = WordPieceTokenizer.train(
            self.dataset.metadata_texts("train"), vocab_size=4000)
        self.entity_vocab = EntityVocabulary.build_from_counts(
            self.dataset.entity_counts("train"), min_frequency=2)
        linearizer = Linearizer(self.tokenizer, self.entity_vocab, self.config)
        self.candidates = CandidateBuilder(self.dataset.instances("train"),
                                           self.entity_vocab, self.config)
        self.stream = TableInstanceStream(self.dataset, linearizer,
                                          split="train")

    def trainer(self):
        """A fresh model and trainer; equal seeds give equal runs."""
        config = self.config
        model = TURLModel(len(self.tokenizer.vocab), len(self.entity_vocab),
                          config, seed=self.seed)
        pretrainer = Pretrainer(model, self.stream, self.candidates, config,
                                seed=self.seed, shuffle="shard")
        # The paper's recipe, as Pretrainer.train configures it.
        spec = TrainSpec(epochs=EPOCHS, learning_rate=config.learning_rate,
                         weight_decay=config.weight_decay, schedule="linear",
                         final_lr_fraction=0.1,
                         gradient_clip=config.gradient_clip,
                         batch_size=config.batch_size, shuffle="shard",
                         seed=self.seed)
        return Trainer(PretrainObjective(pretrainer), spec,
                       rng=pretrainer.rng)


class Steps:
    """Per-step wall seconds, token counts and losses."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.tokens: List[int] = []
        self.losses: List[float] = []

    @property
    def tokens_per_s(self) -> float:
        return chunked_rate(self.tokens, self.seconds, CHUNK_STEPS)

    @property
    def failed(self) -> int:
        return sum(1 for loss in self.losses if not math.isfinite(loss))


def run_steps(trainer, count: int) -> Steps:
    steps = Steps()
    for _ in range(count):
        start = time.perf_counter()
        stats = trainer.fit(max_steps=1)
        elapsed = time.perf_counter() - start
        if stats.steps != 1:
            raise BenchmarkError("the trainer ran out of epochs")
        steps.seconds.append(elapsed)
        steps.tokens.append(int(stats.extras["tokens"][0]))
        steps.losses.append(stats.losses[0])
    return steps


def set_up(seed: int, directory: str) -> Tuple[System, object, Steps]:
    """Build the system and a trainer, then run the warm-up steps."""
    clear_visibility_cache()
    system = System(seed, directory)
    trainer = system.trainer()
    return system, trainer, run_steps(trainer, WARMUP_STEPS)


def run(workload: str, seed: int, seconds: int, trace: bool):
    """Returns ``(values, attempted, failed, correct, notes)``."""
    count = max(4, STEPS_PER_SECOND * seconds)
    with WorkDir(f"pretrain-{seed}") as work:
        if trace:
            return _traced(seed, count // 3, work)
        return _untraced(seed, count, work)


def _untraced(seed: int, count: int, work: str):
    setup_seconds, warmups = [], []
    for attempt in range(SETUPS):
        # Free the previous system first, so the peak RSS is one system's.
        system = trainer = None
        gc.collect()
        start = time.perf_counter()
        system, trainer, warmup = set_up(seed, os.path.join(work,
                                                            f"s{attempt}"))
        setup_seconds.append(time.perf_counter() - start)
        warmups.append(warmup.losses)
    steps = run_steps(trainer, count)
    step_ms = [s * 1e3 for s in steps.seconds]
    values = {
        "setup_s": median(setup_seconds),
        "peak_rss_mib": peak_rss_mib(),
        "p50_ms": median(step_ms),
        "p95_ms": percentile(step_ms, 95),
        "throughput_per_s": steps.tokens_per_s,
        "within_limit_frac": sum(
            1 for ms, loss in zip(step_ms, steps.losses)
            if ms <= STEP_LIMIT_MS and math.isfinite(loss)) / count,
    }
    # Every set-up trains the same seed, so its warm-up losses must agree.
    deterministic = all(losses == warmups[0] for losses in warmups)
    failed = steps.failed
    notes = [f"pretrain_stream: {count} timed steps, mean loss "
             f"{sum(steps.losses) / count:.4f}, set-ups "
             + ", ".join(f"{s:.2f}s" for s in setup_seconds),
             f"warm-up losses equal across set-ups: {deterministic}"]
    return values, count, failed, deterministic and failed == 0, notes


def _traced(seed: int, count: int, work: str):
    """Plain, probed, plain again: three fresh trainers from one seed.

    The probed phase is compared with the mean of the plain phases around
    it, since a process runs its first phase slower than later ones.
    """
    system, trainer, warmup = set_up(seed, os.path.join(work, "s0"))
    plain = [(warmup, run_steps(trainer, count))]

    probes = Probes()
    records: List[int] = []

    def recording(original):
        def table(dataset, index, *args, **kwargs):
            records.append(int(index))
            return original(dataset, index, *args, **kwargs)
        return table

    clear_visibility_cache()
    trainer = system.trainer()
    install_training_probes(probes)
    probes.patch(ShardedDataset, "table", recording)
    try:
        warmup = run_steps(trainer, WARMUP_STEPS)
        probes.reset()
        del records[:]
        before = visibility_cache_stats()
        traced = run_steps(trainer, count)
        after = visibility_cache_stats()
        snapshot = probes.snapshot()
    finally:
        probes.uninstall()
    probed = (warmup, traced)

    clear_visibility_cache()
    trainer = system.trainer()
    warmup = run_steps(trainer, WARMUP_STEPS)
    plain.append((warmup, run_steps(trainer, count)))

    losses = [w.losses + s.losses for w, s in plain + [probed]]
    same = all(sequence == losses[0] for sequence in losses)
    plain_rate = sum(steps.tokens_per_s for _, steps in plain) / len(plain)
    values = training_layers(snapshot, traced, before, after)
    values["trace_overhead_frac"] = 1.0 - traced.tokens_per_s / plain_rate
    values["workload.repeat_frac"] = repeat_fraction(str(r) for r in records)
    values["workload.distinct_tables"] = float(len(set(records)))
    failed = traced.failed + sum(steps.failed for _, steps in plain)
    notes = [f"pretrain_stream traced: {count} steps per phase, tokens/s "
             f"plain {plain_rate:.0f} traced {traced.tokens_per_s:.0f}",
             f"loss sequences equal with and without probes: {same}"]
    return values, 3 * count, failed, same and failed == 0, notes


def training_layers(snapshot, steps: Steps, before: Dict, after: Dict):
    """Per-step layer metrics from a probe snapshot over ``steps``."""
    n = len(steps.seconds)
    self_s, counts = snapshot["self_s"], snapshot["counts"]

    def per_step_ms(layer: str) -> float:
        return self_s.get(layer, 0.0) / n * 1e3

    layers = ("shards.decode", "linearize.encode", "batching.collate",
              "masking.apply", "visibility.build", "candidates.build",
              "model.encode_fwd", "model.encode", "model.loss", "nn.backward",
              "optim.clip", "optim.adam")
    values = {f"{layer}_ms": per_step_ms(layer) for layer in layers}
    values.update({
        "engine.self_ms": per_step_ms("engine"),
        "train.attributed_frac": (sum(self_s.get(layer, 0.0)
                                      for layer in layers)
                                  / sum(steps.seconds)),
        "batching.pad_frac": ratio(counts, "batching.padded",
                                   "batching.slots"),
        "visibility.hit_rate": hit_rate(before, after),
        "candidates.per_batch": ratio(counts, "candidates.ids",
                                      "candidates.batches"),
        "nn.tape_ops": snapshot["tape_ops"] / n,
        "train.loss": sum(steps.losses) / n,
    })
    return values
