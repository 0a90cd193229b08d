"""Serving-bundle construction: a bundle built without examples (what a
server start asks for) does no example extraction, so it makes no
candidate lookups over the test split."""

from repro.kb.lookup import LookupService
from repro.serve import build_serving_bundle


def test_no_examples_makes_no_lookups(context, monkeypatch):
    calls = []
    lookup = LookupService.lookup

    def counting_lookup(self, *args, **kwargs):
        calls.append(args)
        return lookup(self, *args, **kwargs)

    monkeypatch.setattr(LookupService, "lookup", counting_lookup)
    bundle = build_serving_bundle(context.clone_model(), context.linearizer,
                                  context.kb, context.splits, seed=0,
                                  n_examples=0)
    assert calls == []
    assert bundle.examples == {task: [] for task in bundle.predictor.tasks}
