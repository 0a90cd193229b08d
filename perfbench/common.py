"""Helpers shared by the workloads: paths, statistics and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space for corpora, checkpoints and server logs; one subdirectory
#: per run, removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Seed of the generated world and corpus, the same for every ``--seed``:
#: seeding them too makes each seed work on a different mix of table sizes,
#: which moves the figures more than the program does.  ``--seed`` draws
#: everything else -- model weights, batch order, requests, arrivals.
CORPUS_SEED = 7

#: Lanes of the served ``PredictorFleet``: one per core of a 2-core host.
WORKERS = 2

TASKS = ("entity_linking", "column_type", "relation_extraction",
         "row_population", "cell_filling", "schema_augmentation")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing program, bad config)."""


def require_program() -> None:
    """Make ``src/`` importable, or fail when the checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str):
        self.path = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")

    def __enter__(self) -> str:
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
        return False


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def chunked_rate(amounts: Sequence[float], seconds: Sequence[float],
                 chunk: int) -> float:
    """Median over consecutive chunks of ``chunk`` operations of
    ``sum(amounts) / sum(seconds)``: a sustained rate that a short stall of
    the host moves less than the run's overall ratio."""
    rates = [sum(amounts[i:i + chunk]) / sum(seconds[i:i + chunk])
             for i in range(0, len(seconds) - chunk + 1, chunk)]
    if not rates:
        return sum(amounts) / sum(seconds)
    return median(rates)


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hit_rate(before: Dict[str, float], after: Dict[str, float]) -> float:
    """Hits over lookups between two ``{"hits", "misses"}`` snapshots."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def ratio(counts: Dict[str, float], numerator: str, denominator: str) -> float:
    """``counts[numerator] / counts[denominator]``, 0 when nothing counted."""
    return counts.get(numerator, 0.0) / max(counts.get(denominator, 0.0), 1.0)


def repeat_fraction(keys: Iterable[str]) -> float:
    """Share of ``keys`` that already appeared earlier in the sequence."""
    seen = set()
    repeats = total = 0
    for key in keys:
        total += 1
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / total if total else 0.0


# -- the result line -------------------------------------------------------------

def declared_metrics(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    try:
        with open(BENCHMARK_FILE) as handle:
            config = json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {BENCHMARK_FILE}: {error}")
    return {entry["name"]: entry["unit"] for entry in config[kind]}


def with_idle_layers(values: Dict[str, float]) -> Dict[str, float]:
    """``values`` plus a 0 for every declared layer metric the workload
    never exercised (a serving layer during pre-training, and so on)."""
    declared = declared_metrics("per_layer")
    extra = sorted(set(values) - set(declared))
    if extra:
        raise BenchmarkError(f"undeclared layer metrics: {extra}")
    return {**dict.fromkeys(declared, 0.0), **values}


def emit(values: Dict[str, float], trace: bool, attempted: int, failed: int,
         correct: bool, notes: Optional[List[str]] = None) -> None:
    """Print a readable summary, then the JSON result as the last line.

    ``values`` must hold exactly the metrics ``BENCHMARK.json`` declares for
    this mode; units come from there, so the file is the one source of
    metric names and units.
    """
    units = declared_metrics("per_layer" if trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchmarkError(f"metrics do not match BENCHMARK.json: "
                             f"missing {missing}, undeclared {extra}")
    bad = sorted(name for name, value in values.items()
                 if not math.isfinite(value))
    if bad:
        raise BenchmarkError(f"non-finite metric values: {bad}")
    for line in notes or []:
        print(line)
    for name in sorted(values):
        print(f"  {name:32s} {values[name]:>14.6g} {units[name]}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}),
          flush=True)
