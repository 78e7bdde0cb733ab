"""Outside-in layer tracing for the benchmark.

The tracer wraps the public entry point of each ``repro`` layer from the
benchmark's side (no program file changes) and records one span per call:
name, start, end, parent span and the module run it belongs to.  Spans are
kept in memory and written out when the run ends.  Self time is computed
as each span's duration minus the time its child spans cover.

``install()`` patches the entry points and returns a function that undoes
every patch.  Functions the program imports by name (``canonical_hash``,
``load_module_text``) are replaced in every module that bound them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names, one per wrapped boundary.  Each becomes ``<name>.calls`` and
#: ``<name>.self_s`` in the per-layer report.
LAYERS = (
    "module",
    "core.loop",
    "lang.eval",
    "enumeration.values",
    "verify.sufficiency",
    "inductive.visible",
    "inductive.full",
    "static",
    "synth",
    "synth.result_cache",
    "setup.load",
    "canon",
    "instantiate",
    "disk.get",
    "disk.put",
    "disk.restore",
    "disk.persist",
    "obs.emit",
)


class _Frame:
    __slots__ = ("span_id", "name", "start", "child")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Spans and counters of one traced run, grouped by module run."""

    def __init__(self) -> None:
        #: (span id, parent id, run id, name, start, end), in closing order.
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.stack: List[_Frame] = []
        self.run_id = 0
        self.next_id = 1
        self.unbalanced = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Evaluation budgets of the open ``lang.eval`` spans: a nested call
        #: on the same budget is already inside its caller's step delta.
        self.budgets: List[object] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> _Frame:
        frame = _Frame(self.next_id, name, time.perf_counter())
        self.next_id += 1
        self.calls[name] += 1
        self.stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        now = time.perf_counter()
        stack = self.stack
        while stack and stack[-1] is not frame:
            # A frame left open by an abandoned generator; close it here so
            # the rest of the run keeps a consistent parent chain.
            self.unbalanced += 1
            self.end(stack[-1])
        stack.pop()
        duration = now - frame.start
        self.self_s[frame.name] += duration - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        self.spans.append((frame.span_id, parent.span_id if parent else 0,
                           self.run_id, frame.name, frame.start, now))
        return duration

    # -- per-module snapshots ----------------------------------------------

    def take(self) -> Dict[str, float]:
        """The layer totals accumulated since the last call, then reset."""
        out: Dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        # Cleared in place: the installed wrappers hold these objects.
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line (id, parent, run,
        name, start, end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- wrappers -------------------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
    """A wrapper recording one span per call; ``after(result, args, kwargs)``
    runs outside the span to record counts."""
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(result, args, kwargs)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every traced boundary; returns the function that restores them."""
    from repro.analysis import absint, canon
    from repro.core import hanoi, module
    from repro.enumeration import values
    from repro.inductive import relation
    from repro.lang import eval as lang_eval
    from repro.lang.errors import FuelExhausted
    from repro.obs import events
    from repro.serve import diskcache
    from repro.spec import loader
    from repro.suite import registry
    from repro.synth import cache, myth
    from repro.synth.base import SynthesisFailure
    from repro.verify import tester
    from repro.verify.result import InductivenessCounterexample

    undo: List[Tuple[object, str, object]] = []
    counts = tracer.counts

    def patch(owner: object, attr: str, replacement: object) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(home: object, attr: str, replacement: Callable) -> None:
        original = getattr(home, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                patch(mod, attr, replacement)

    # lang.eval: steps are the budget delta of the outermost call per budget.
    evaluator = lang_eval.Evaluator
    EvalBudget = lang_eval.EvalBudget

    def evaluate(budget, call):
        """Run ``call(budget)`` as one ``lang.eval`` span."""
        outer = not any(b is budget for b in tracer.budgets)
        before = budget.remaining
        tracer.budgets.append(budget)
        frame = tracer.begin("lang.eval")
        try:
            return call(budget)
        except FuelExhausted:
            if outer:
                counts["lang.eval.fuel_exhausted"] += 1
            raise
        finally:
            tracer.end(frame)
            tracer.budgets.pop()
            if outer:
                counts["lang.eval.steps"] += before - budget.remaining

    original_eval, original_apply = evaluator.eval, evaluator.apply

    def traced_eval(self, expr, env=None, budget=None):
        return evaluate(budget if budget is not None else EvalBudget(self.default_fuel),
                        lambda b: original_eval(self, expr, env, b))

    def traced_apply(self, fn, *args, budget=None):
        return evaluate(budget if budget is not None else EvalBudget(self.default_fuel),
                        lambda b: original_apply(self, fn, *args, budget=b))

    patch(evaluator, "eval", traced_eval)
    patch(evaluator, "apply", traced_apply)

    # enumeration: time spent inside next() of each enumeration.
    enumerate_values = values.ValueEnumerator.enumerate

    def timed_enumerate(self, *args, **kwargs):
        counts["enumeration.values.enumerations"] += 1
        inner = enumerate_values(self, *args, **kwargs)

        def timed():
            while True:
                frame = tracer.begin("enumeration.values")
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(frame)
                counts["enumeration.values.yielded"] += 1
                yield value
        return timed()

    patch(values.ValueEnumerator, "enumerate", timed_enumerate)

    # verify: sufficiency calls, structures and eval-cache traffic.
    check_sufficiency = tester.Verifier.check_sufficiency

    def traced_sufficiency(self, invariant):
        stats = self.stats
        before = (stats.structures_tested, stats.eval_cache_hits, stats.eval_cache_misses)
        frame = tracer.begin("verify.sufficiency")
        try:
            return check_sufficiency(self, invariant)
        finally:
            tracer.end(frame)
            counts["verify.sufficiency.structures"] += stats.structures_tested - before[0]
            counts["verify.evalcache.hits"] += stats.eval_cache_hits - before[1]
            counts["verify.evalcache.misses"] += stats.eval_cache_misses - before[2]

    patch(tester.Verifier, "check_sufficiency", traced_sufficiency)

    # inductive: visible (V+ pool given) vs full checks.
    check_inductive = relation.ConditionalInductivenessChecker.check

    def traced_inductive(self, p, q, p_pool=None, operations=None):
        name = "inductive.visible" if p_pool is not None else "inductive.full"
        frame = tracer.begin(name)
        try:
            result = check_inductive(self, p, q, p_pool, operations)
        finally:
            tracer.end(frame)
        if isinstance(result, InductivenessCounterexample):
            counts["inductive.counterexamples"] += 1
        return result

    patch(relation.ConditionalInductivenessChecker, "check", traced_inductive)

    # static tier: abstract-interpretation consultations and their proofs.
    checker = absint.AbstractChecker
    proven = absint.PROVEN

    def count_sufficiency(result, args, kwargs):
        counts["static.obligations"] += 1
        counts["static.proven"] += result == proven

    def count_inductiveness(result, args, kwargs):
        verdicts = list(result.values()) if isinstance(result, dict) else []
        counts["static.obligations"] += len(verdicts)
        counts["static.proven"] += sum(1 for v in verdicts if v == proven)

    patch(checker, "sufficiency_verdict",
          _wrap_call(tracer, "static", checker.sufficiency_verdict, count_sufficiency))
    patch(checker, "inductiveness_verdicts",
          _wrap_call(tracer, "static", checker.inductiveness_verdicts, count_inductiveness))

    # synth: synthesizer calls, failures, pool-cache and result-cache traffic.
    synthesize = myth.MythSynthesizer.synthesize

    def traced_synthesize(self, *args, **kwargs):
        stats = self.stats
        before = (stats.pool_cache_hits, stats.pool_cache_misses)
        frame = tracer.begin("synth")
        try:
            return synthesize(self, *args, **kwargs)
        except SynthesisFailure:
            counts["synth.failures"] += 1
            raise
        finally:
            tracer.end(frame)
            counts["synth.poolcache.hits"] += stats.pool_cache_hits - before[0]
            counts["synth.poolcache.misses"] += stats.pool_cache_misses - before[1]

    patch(myth.MythSynthesizer, "synthesize", traced_synthesize)

    def count_lookup(result, args, kwargs):
        counts["synth.result_cache.hits"] += result is not None

    patch(cache.SynthesisResultCache, "lookup",
          _wrap_call(tracer, "synth.result_cache", cache.SynthesisResultCache.lookup,
                     count_lookup))

    # spec / analysis.canon / core.module: loading, hashing, instantiation.
    patch_function(loader, "load_module_text",
                   _wrap_call(tracer, "setup.load", loader.load_module_text))
    patch_function(registry, "get_benchmark",
                   _wrap_call(tracer, "setup.load", registry.get_benchmark))
    patch_function(canon, "canonical_hash",
                   _wrap_call(tracer, "canon", canon.canonical_hash))
    patch(module.ModuleDefinition, "instantiate",
          _wrap_call(tracer, "instantiate", module.ModuleDefinition.instantiate))

    # serve.diskcache: entry reads and writes, with their sizes on disk.
    store = diskcache.DiskCacheStore

    def entry_bytes(self, section, key) -> int:
        try:
            return os.path.getsize(self.entry_path(section, key))
        except OSError:
            return 0

    def count_get(result, args, kwargs):
        counts["disk.get.hits"] += result is not None
        if result is not None:
            counts["disk.get.bytes"] += entry_bytes(*args[:3])

    def count_put(result, args, kwargs):
        if result:
            counts["disk.put.bytes"] += entry_bytes(*args[:3])

    patch(store, "get", _wrap_call(tracer, "disk.get", store.get, count_get))
    patch(store, "put", _wrap_call(tracer, "disk.put", store.put, count_put))
    binding = diskcache.PersistentCacheBinding
    patch(binding, "restore", _wrap_call(tracer, "disk.restore", binding.restore))
    patch(binding, "persist", _wrap_call(tracer, "disk.persist", binding.persist))

    # obs: every event the run emits (the legacy recorder when untraced).
    for cls in (events.LegacyRecorder, events.Emitter):
        patch(cls, "emit", _wrap_call(tracer, "obs.emit", cls.emit))

    # core.hanoi: the CEGIS loop itself.
    def count_iterations(result, args, kwargs):
        counts["core.iterations"] += result.iterations

    patch(hanoi.HanoiInference, "infer",
          _wrap_call(tracer, "core.loop", hanoi.HanoiInference.infer, count_iterations))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from summed layer totals."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    get = totals.get
    return {
        "lang.eval.calls": get("lang.eval.calls", 0),
        "lang.eval.steps": get("lang.eval.steps", 0),
        "lang.eval.self_s": get("lang.eval.self_s", 0.0),
        "lang.eval.fuel_exhausted": get("lang.eval.fuel_exhausted", 0),
        "enumeration.values.calls": get("enumeration.values.enumerations", 0),
        "enumeration.values.yielded": get("enumeration.values.yielded", 0),
        "enumeration.values.self_s": get("enumeration.values.self_s", 0.0),
        "verify.sufficiency.calls": get("verify.sufficiency.calls", 0),
        "verify.sufficiency.self_s": get("verify.sufficiency.self_s", 0.0),
        "verify.sufficiency.structures": get("verify.sufficiency.structures", 0),
        "verify.evalcache.hit_ratio": ratio(
            get("verify.evalcache.hits", 0),
            get("verify.evalcache.hits", 0) + get("verify.evalcache.misses", 0)),
        "inductive.visible.calls": get("inductive.visible.calls", 0),
        "inductive.visible.self_s": get("inductive.visible.self_s", 0.0),
        "inductive.full.calls": get("inductive.full.calls", 0),
        "inductive.full.self_s": get("inductive.full.self_s", 0.0),
        "inductive.counterexample_ratio": ratio(
            get("inductive.counterexamples", 0),
            get("inductive.visible.calls", 0) + get("inductive.full.calls", 0)),
        "static.calls": get("static.calls", 0),
        "static.self_s": get("static.self_s", 0.0),
        "static.proven_ratio": ratio(get("static.proven", 0), get("static.obligations", 0)),
        "synth.calls": get("synth.calls", 0),
        "synth.self_s": get("synth.self_s", 0.0),
        "synth.failures": get("synth.failures", 0),
        "synth.poolcache.hit_ratio": ratio(
            get("synth.poolcache.hits", 0),
            get("synth.poolcache.hits", 0) + get("synth.poolcache.misses", 0)),
        "synth.result_cache.hit_ratio": ratio(
            get("synth.result_cache.hits", 0), get("synth.result_cache.calls", 0)),
        "canon.calls": get("canon.calls", 0),
        "canon.self_s": get("canon.self_s", 0.0),
        "instantiate.self_s": get("instantiate.self_s", 0.0),
        "disk.get.calls": get("disk.get.calls", 0),
        "disk.get.bytes": get("disk.get.bytes", 0),
        "disk.get.self_s": get("disk.get.self_s", 0.0),
        "disk.put.calls": get("disk.put.calls", 0),
        "disk.put.bytes": get("disk.put.bytes", 0),
        "disk.put.self_s": get("disk.put.self_s", 0.0),
        "disk.hit_ratio": ratio(get("disk.get.hits", 0), get("disk.get.calls", 0)),
        "obs.emit.calls": get("obs.emit.calls", 0),
        "obs.emit.self_s": get("obs.emit.self_s", 0.0),
        "core.loop.self_s": get("core.loop.self_s", 0.0),
        "core.iterations": get("core.iterations", 0),
    }
