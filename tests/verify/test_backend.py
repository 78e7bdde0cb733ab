"""The verifier-backend ladder: selection, trajectory identity, and stats.

The ladder's contract (docs/verification.md): statically PROVEN obligations
are skipped, everything else runs through the paper's bounded enumerative
tester in the original operation order, so the loop's trajectory - the
candidates visited, the counterexamples found, the final invariant - is
identical to a pure enumerative run.
"""

import pytest

from repro.experiments.runner import quick_config, run_module
from repro.gen.diff import outcome_fingerprint
from repro.verify.backend import BACKEND_NAMES, make_backend


def test_backend_names_cover_the_config_surface():
    assert BACKEND_NAMES == ("enumerative", "ladder")


def test_make_backend_rejects_unknown_names(listset_instance):
    with pytest.raises(ValueError):
        make_backend("no-such-backend", instance=listset_instance,
                     verifier=None, checker=None)


def test_ladder_matches_enumerative_outcome(listset_definition):
    config = quick_config()
    enumerative = run_module(listset_definition, mode="hanoi",
                             config=config.with_verifier_backend("enumerative"))
    ladder = run_module(listset_definition, mode="hanoi",
                        config=config.with_verifier_backend("ladder"))
    assert enumerative.succeeded and ladder.succeeded
    assert outcome_fingerprint(ladder) == outcome_fingerprint(enumerative)


def test_ladder_discharges_obligations_statically(listset_definition):
    config = quick_config().with_verifier_backend("ladder")
    result = run_module(listset_definition, mode="hanoi", config=config)
    assert result.succeeded
    assert result.stats.static_proofs > 0
    assert result.stats.static_unknowns > 0
    # The counters survive the result round-trip (Figure-7 columns).
    as_dict = result.stats.as_dict()
    assert as_dict["static_proofs"] == result.stats.static_proofs
    assert as_dict["static_refutations"] == result.stats.static_refutations
    assert as_dict["static_unknowns"] == result.stats.static_unknowns


def test_enumerative_backend_keeps_static_counters_at_zero(listset_definition):
    result = run_module(listset_definition, mode="hanoi", config=quick_config())
    assert result.succeeded
    assert result.stats.static_proofs == 0
    assert result.stats.static_refutations == 0
    assert result.stats.static_unknowns == 0


def test_ladder_emits_static_proof_events(listset_definition):
    from repro.obs.events import CountingClock, Emitter
    from repro.obs.sinks import InMemorySink
    from repro.core.hanoi import HanoiInference

    sink = InMemorySink()
    emitter = Emitter(sinks=[sink], run="listset/ladder",
                      clock=CountingClock())
    config = quick_config().with_verifier_backend("ladder")
    result = HanoiInference(listset_definition, config,
                            emitter=emitter).infer()
    assert result.succeeded
    names = {r["name"] for r in sink.records}
    assert "static-proof" in names
    assert "static-check" in names
