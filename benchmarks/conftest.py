"""Shared benchmark fixtures.

The full pipeline (synthetic world -> corpus -> vocabularies -> 25 epochs of
pre-training) is built once and cached on disk under ``.bench_cache/`` so
repeated benchmark runs skip the ~3 minutes of pre-training.  Delete the
cache directory to force a rebuild.

Every experiment writes its result table through the ``report`` fixture,
which both prints it (bypassing pytest capture so it lands in the terminal /
``bench_output.txt``) and appends it to ``benchmarks/results/``.
"""

import os
import sys

import numpy as np
import pytest

from repro.config import TURLConfig
from repro.core.candidates import CandidateBuilder
from repro.core.context import TURLContext, build_context
from repro.core.linearize import Linearizer
from repro.core.pretrain import load_checkpoint, save_checkpoint
from repro.data.corpus import CorpusSplits, TableCorpus
from repro.data.synthesis import SynthesisConfig
from repro.kb.generator import WorldConfig
from repro.kb.knowledge_base import KnowledgeBase

# ---------------------------------------------------------------------------
# Frozen benchmark configuration (calibrated; see DESIGN.md section 6).
# ---------------------------------------------------------------------------
BENCH_SEED = 0
WORLD = WorldConfig(seed=1).scaled(2.0)
SYNTHESIS = SynthesisConfig(seed=2, n_tables=900,
                            typo_probability=0.08, alias_probability=0.45)
MODEL = TURLConfig()
PRETRAIN_EPOCHS = 25

_CACHE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, ".bench_cache")
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _cache_paths():
    base = os.path.abspath(_CACHE_DIR)
    return {
        "base": base,
        "kb": os.path.join(base, "kb.json"),
        "train": os.path.join(base, "train.jsonl"),
        "validation": os.path.join(base, "validation.jsonl"),
        "test": os.path.join(base, "test.jsonl"),
        "checkpoint": os.path.join(base, "checkpoint"),
        "stamp": os.path.join(base, "stamp.txt"),
    }


#: bump when generator/synthesizer code changes in ways that alter the corpus
#: without touching the config objects, or when a config repr could match a
#: stamp left by an older cache.
_STAMP_VERSION = 3


def _config_stamp() -> str:
    return repr((_STAMP_VERSION, WORLD, SYNTHESIS, MODEL, PRETRAIN_EPOCHS, BENCH_SEED))


def _load_cached_context():
    paths = _cache_paths()
    if not os.path.exists(paths["stamp"]):
        return None
    with open(paths["stamp"]) as handle:
        if handle.read() != _config_stamp():
            return None
    kb = KnowledgeBase.load(paths["kb"])
    splits = CorpusSplits(
        train=TableCorpus.load_jsonl(paths["train"]),
        validation=TableCorpus.load_jsonl(paths["validation"]),
        test=TableCorpus.load_jsonl(paths["test"]),
    )
    model, tokenizer, entity_vocab = load_checkpoint(paths["checkpoint"])
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    builder = CandidateBuilder(splits.train, entity_vocab, model.config)
    return TURLContext(kb=kb, splits=splits, tokenizer=tokenizer,
                       entity_vocab=entity_vocab, config=model.config,
                       model=model, linearizer=linearizer,
                       candidate_builder=builder)


def _store_context(context: TURLContext) -> None:
    paths = _cache_paths()
    os.makedirs(paths["base"], exist_ok=True)
    context.kb.save(paths["kb"])
    context.splits.train.save_jsonl(paths["train"])
    context.splits.validation.save_jsonl(paths["validation"])
    context.splits.test.save_jsonl(paths["test"])
    save_checkpoint(paths["checkpoint"], context.model, context.tokenizer,
                    context.entity_vocab)
    with open(paths["stamp"], "w") as handle:
        handle.write(_config_stamp())


@pytest.fixture(scope="session")
def bench_context() -> TURLContext:
    """The pre-trained pipeline shared by all benchmarks (disk-cached)."""
    cached = _load_cached_context()
    if cached is not None:
        return cached
    context = build_context(WORLD, SYNTHESIS, MODEL,
                            pretrain_epochs=PRETRAIN_EPOCHS, seed=BENCH_SEED)
    _store_context(context)
    return context


@pytest.fixture(scope="session")
def report():
    """Print an experiment table to the real stdout and persist it."""
    os.makedirs(_RESULTS_DIR, exist_ok=True)

    def _report(name: str, body: str) -> None:
        text = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{body}\n"
        sys.__stdout__.write(text)
        sys.__stdout__.flush()
        slug = name.split()[0].lower() + "_" + name.split()[1].rstrip(":").lower()
        with open(os.path.join(_RESULTS_DIR, f"{slug}.txt"), "w") as handle:
            handle.write(text)

    return _report


@pytest.fixture
def bench_rng():
    return np.random.default_rng(BENCH_SEED)


# ---------------------------------------------------------------------------
# Task-level session fixtures shared between benchmark files
# (e.g. Tables 5 and 6 reuse the same fine-tuned annotators; Table 7 and
# Figure 6 reuse the same relation extractors and their MAP histories).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def column_type_setup(bench_context):
    from repro.baselines.sherlock import SherlockModel
    from repro.tasks.column_type import TURLColumnTypeAnnotator, build_column_type_dataset
    from repro.tasks.encoding import InputAblation

    ctx = bench_context
    dataset = build_column_type_dataset(
        ctx.kb, ctx.splits.train, ctx.splits.validation, ctx.splits.test,
        min_type_instances=10)

    variants = {
        "full": InputAblation.full(),
        "only entity mention": InputAblation.only_mention(),
        "w/o table metadata": InputAblation.without_metadata(),
        "w/o learned embedding": InputAblation.without_entity_embedding(),
        "only table metadata": InputAblation.only_metadata(),
        "only learned embedding": InputAblation.only_entity_embedding(),
    }
    annotators = {}
    for name, ablation in variants.items():
        annotator = TURLColumnTypeAnnotator(
            ctx.clone_model(), ctx.linearizer, len(dataset.type_names),
            ablation=ablation)
        annotator.finetune(dataset, epochs=3, max_instances=400)
        annotators[name] = annotator

    sherlock = SherlockModel(len(dataset.type_names))
    sherlock.fit(dataset, epochs=30, validation_patience=5)
    return {"dataset": dataset, "annotators": annotators, "sherlock": sherlock}


@pytest.fixture(scope="session")
def relation_setup(bench_context):
    from repro.baselines.bert_re import BertStyleRelationExtractor
    from repro.tasks.relation_extraction import (
        TURLRelationExtractor,
        build_relation_dataset,
    )

    ctx = bench_context
    dataset = build_relation_dataset(
        ctx.kb, ctx.splits.train, ctx.splits.validation, ctx.splits.test,
        min_relation_instances=10)
    turl = TURLRelationExtractor(ctx.clone_model(), ctx.linearizer,
                                 len(dataset.relation_names))
    turl_history = turl.finetune(dataset, epochs=1, max_instances=400,
                                 map_every=25, map_instances=30)
    bert = BertStyleRelationExtractor(ctx.tokenizer, len(dataset.relation_names),
                                      dim=ctx.config.dim,
                                      num_layers=ctx.config.num_layers,
                                      num_heads=ctx.config.num_heads,
                                      intermediate_dim=ctx.config.intermediate_dim)
    bert_history = bert.finetune(dataset, epochs=1, max_instances=400,
                                 map_every=25, map_instances=30)
    return {"dataset": dataset, "turl": turl, "bert": bert,
            "turl_history": turl_history, "bert_history": bert_history}


@pytest.fixture(scope="session")
def linking_setup(bench_context):
    from repro.kb.lookup import LookupService
    from repro.kb.schema import all_types
    from repro.tasks.entity_linking import TURLEntityLinker, build_linking_dataset

    ctx = bench_context
    lookup = LookupService(ctx.kb)
    test_instances = build_linking_dataset(ctx.splits.test, lookup,
                                           max_instances=400, seed=BENCH_SEED)
    train_instances = build_linking_dataset(ctx.splits.train, lookup,
                                            require_truth=True,
                                            max_instances=600, seed=BENCH_SEED)

    linkers = {}
    for name, kwargs in {
        "full": {},
        "w/o entity description": {"use_description": False},
        "w/o entity type": {"use_types": False},
    }.items():
        linker = TURLEntityLinker(ctx.clone_model(), ctx.linearizer, ctx.kb,
                                  all_types(), **kwargs)
        linker.finetune(train_instances, epochs=5, lr=5e-4)
        linkers[name] = linker
    return {"lookup": lookup, "test": test_instances, "train": train_instances,
            "linkers": linkers}


@pytest.fixture(scope="session")
def population_setup(bench_context):
    from repro.baselines.entitables import EntiTablesRowPopulator
    from repro.baselines.table2vec import Table2VecRowPopulator, train_entity_embeddings
    from repro.tasks.row_population import (
        PopulationCandidateGenerator,
        TURLRowPopulator,
        build_population_instances,
    )

    ctx = bench_context
    generator = PopulationCandidateGenerator(ctx.splits.train, k_tables=30)
    entitables = EntiTablesRowPopulator(ctx.splits.train)
    table2vec = Table2VecRowPopulator(train_entity_embeddings(ctx.splits.train))
    setups = {}
    for n_seed in (0, 1):
        eval_instances = build_population_instances(ctx.splits.test, n_seed=n_seed,
                                                    min_subject_entities=5)
        train_instances = build_population_instances(ctx.splits.train, n_seed=n_seed,
                                                     min_subject_entities=3)
        populator = TURLRowPopulator(ctx.clone_model(), ctx.linearizer)
        populator.seed_weight.data[:] = 3.0
        populator.finetune(train_instances, generator, epochs=12)
        setups[n_seed] = {"eval": eval_instances, "turl": populator}
    return {"generator": generator, "entitables": entitables,
            "table2vec": table2vec, "seeds": setups}


@pytest.fixture(scope="session")
def filling_setup(bench_context):
    from repro.tasks.cell_filling import (
        CellFillingCandidates,
        HeaderStatistics,
        TURLCellFiller,
        build_filling_instances,
    )

    ctx = bench_context
    instances = build_filling_instances(ctx.splits.test)[:400]
    statistics = HeaderStatistics(ctx.splits.train)
    candidates = CellFillingCandidates(ctx.splits.train, statistics)
    filler = TURLCellFiller(ctx.model, ctx.linearizer)
    return {"instances": instances, "statistics": statistics,
            "candidates": candidates, "turl": filler}


@pytest.fixture(scope="session")
def schema_setup(bench_context):
    from repro.baselines.entitables import KNNSchemaAugmenter
    from repro.tasks.schema_augmentation import (
        TURLSchemaAugmenter,
        build_header_vocabulary,
        build_schema_instances,
    )

    ctx = bench_context
    vocabulary = build_header_vocabulary(ctx.splits.train, min_tables=3)
    knn = KNNSchemaAugmenter(ctx.splits.train)
    setups = {}
    for n_seed in (0, 1):
        eval_instances = build_schema_instances(ctx.splits.test, vocabulary,
                                                n_seed=n_seed)
        train_instances = build_schema_instances(ctx.splits.train, vocabulary,
                                                 n_seed=n_seed)
        augmenter = TURLSchemaAugmenter(ctx.clone_model(), ctx.linearizer,
                                        vocabulary)
        augmenter.finetune(train_instances, epochs=5)
        setups[n_seed] = {"eval": eval_instances, "turl": augmenter}
    return {"vocabulary": vocabulary, "knn": knn, "seeds": setups}
