"""Differential tests for canonicalization and content-keyed caches.

The dead-branch rewriter (and the other canonicalizing passes) must be
*inference-transparent*: running the canonicalized module through every
fuzz mode yields byte-identical outcome fingerprints.  The canonical
hash must also be the content key actually stamped on the evaluation and
synthesis caches.
"""

from repro.analysis.canon import canonical_hash
from repro.core.hanoi import HanoiInference
from repro.gen.diff import fuzz_module
from repro.gen.modgen import generate_module
from repro.suite.registry import get_benchmark


def canonicalization_mismatches(definition, config, **kwargs):
    return fuzz_module(definition, config=config, require_success=(),
                       check_oracle=False, checks=("canonical",),
                       **kwargs).mismatches


def test_canonicalization_transparent_on_benchmark(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    mismatches = canonicalization_mismatches(definition, config=fast_config)
    assert mismatches == []


def test_canonicalization_transparent_on_generated_module(fast_config):
    module = generate_module(7)
    mismatches = canonicalization_mismatches(module.definition,
                                             modes=("hanoi", "oneshot"),
                                             config=fast_config)
    assert mismatches == [], [m.describe() for m in mismatches]


def test_fuzz_module_check_canonical_counts_runs(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    plain = fuzz_module(definition, modes=("hanoi",), config=fast_config)
    checked = fuzz_module(definition, modes=("hanoi",), config=fast_config,
                          checks=("cache", "canonical"))
    assert checked.mismatches == []
    assert checked.runs == plain.runs + 2


def test_caches_stamped_with_canonical_hash(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    inference = HanoiInference(definition, config=fast_config)
    expected = canonical_hash(definition)
    assert inference.content_key == expected
    assert inference.eval_cache is not None
    assert inference.eval_cache.content_key == expected
    assert inference.pool_cache is not None
    assert inference.pool_cache.content_key == expected


def test_cache_snapshot_carries_content_key(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    inference = HanoiInference(definition, config=fast_config)
    inference.infer()
    assert inference.eval_cache.snapshot()["content_key"] == \
        inference.content_key
    assert inference.pool_cache.snapshot()["content_key"] == \
        inference.content_key
