"""The serving process the ``serve_*`` workloads talk to.

Started by ``serve_workload.py`` as its own interpreter, so the load
generator never holds the server's interpreter lock.  It builds a 2-worker
``PredictorFleet`` behind a ``PredictionServer`` the way ``repro serve
--workers 2`` does, prints ``{"port": N}`` once it accepts requests, then
obeys one JSON command per line on standard input:

- ``{"op": "probes_on"}`` -- install the timing probes;
- ``{"op": "probes_off"}`` -- remove them and reply with their totals;
- ``{"op": "stats"}`` -- reply with peak RSS and visibility-cache counters;
- ``{"op": "quit"}`` (or end of input) -- shut the server down and exit.

Every reply is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import CORPUS_SEED, WORKERS, peak_rss_mib, require_program


def build_server(checkpoint: str, corpus: str):
    from repro.core.linearize import Linearizer
    from repro.core.pretrain import load_checkpoint
    from repro.data.shards import ShardedDataset
    from repro.kb.generator import WorldConfig, generate_world
    from repro.serve import PredictionServer, build_serving_fleet

    model, tokenizer, entity_vocab = load_checkpoint(checkpoint, mmap="auto")
    kb = generate_world(WorldConfig(seed=CORPUS_SEED))
    splits = ShardedDataset(corpus).splits()
    linearizer = Linearizer(tokenizer, entity_vocab, model.config)
    fleet, _ = build_serving_fleet(model, linearizer, kb, splits,
                                   workers=WORKERS, seed=CORPUS_SEED,
                                   n_examples=0)
    return PredictionServer(fleet=fleet).start()


def reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--corpus", required=True)
    args = parser.parse_args(argv)

    require_program()
    from probes import Probes, install_serving_probes
    from repro.core.visibility import visibility_cache_stats

    server = build_server(args.checkpoint, args.corpus)
    probes = None
    try:
        reply({"port": server.address[1]})
        for line in iter(sys.stdin.readline, ""):
            op = json.loads(line)["op"]
            if op == "quit":
                break
            if op == "probes_on":
                probes = Probes()
                install_serving_probes(probes)
                reply({"ok": True})
            elif op == "probes_off":
                probes.uninstall()
                reply(probes.snapshot())
                probes = None
            elif op == "stats":
                reply({"peak_rss_mib": peak_rss_mib(),
                       "visibility": visibility_cache_stats()})
            else:
                reply({"error": f"unknown op {op!r}"})
    finally:
        if probes is not None:
            probes.uninstall()
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
