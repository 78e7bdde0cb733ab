"""Differential fuzzing: cross-check modes and cache configurations.

Every module (generated or hand-written) is run through a set of inference
modes, and each mode through the runs of one or more *checks*.  A check
(:data:`CHECKS`) is a named, ordered list of runs of the same module under
variants that advertise "identical outcomes"; the harness holds them to it
by requiring byte-identical outcome *fingerprints* (status, rendered
invariant, size, iteration count, message) across the runs:

* ``cache`` - the 2x2 matrix of the verification evaluation cache
  (``--no-eval-cache``) and the synthesis term-pool cache
  (``--no-pool-cache``).  Always run; the CLI runs it through the parallel
  runner and the result store.
* ``canonical`` - the module and its canonicalized form
  (:mod:`repro.analysis.canon`).
* ``verifier`` - the enumerative and the ladder backend, plus the
  obligation-level soundness check of the abstract proof tier
  (:func:`verifier_soundness_mismatches`; see docs/verification.md).
* ``persistence`` - no persistence, then a cold, a warm and a corrupted
  persistent disk-cache store (:mod:`repro.serve.diskcache`; see
  docs/service.md).

Two more properties are checked on the cache matrix's reference run:

* **Ground-truth agreement** - for generated modules the expected invariant
  is known by construction (:mod:`repro.gen.modgen`); the bounded tester
  checks it is sufficient and inductive (a generator self-check), and that
  every *inferred* invariant implies it (inference may find a stronger
  invariant than the ground truth, never an incomparable one, because the
  generated specification's leading conjunct is the ground truth itself).
* **Mode success** - modes listed in ``require_success`` (by default just
  ``hanoi``) must solve every generated module: the invariant is a single
  application of a helper the synthesizer is handed as a component, so a
  failure is a real regression, not an unlucky search.

Mismatches are reported as :class:`DifferentialMismatch` records; the CLI
hands them to :mod:`repro.gen.shrink` to minimize into reproducers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from ..core.config import HanoiConfig
from ..core.module import ModuleDefinition
from ..core.predicate import Predicate, always_true
from ..core.result import InferenceResult
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.ast import Branch, ECtor, EMatch, EVar, PCtor, PWild
from ..lang.types import TData
from ..verify.result import InductivenessCounterexample, VALID, Valid
from ..verify.tester import Verifier

__all__ = [
    "CACHE_VARIANTS",
    "CHECKS",
    "DEFAULT_FUZZ_MODES",
    "FAULT_ENV_VAR",
    "Check",
    "variant_config",
    "outcome_fingerprint",
    "DifferentialMismatch",
    "OracleFailure",
    "FuzzReport",
    "verifier_soundness_mismatches",
    "fuzz_module",
    "fuzz_corpus",
    "compare_stored",
]

#: The 2x2 cache matrix: variant tag -> (eval cache on, pool cache on).
#: A tuple of pairs (not a dict comprehension over a set) so iteration order
#: is fixed: the all-on configuration first, the all-off one last.
CACHE_VARIANTS: Tuple[Tuple[str, Tuple[bool, bool]], ...] = (
    ("ec+pc", (True, True)),
    ("ec-only", (True, False)),
    ("pc-only", (False, True)),
    ("no-caches", (False, False)),
)

#: Variant tags in matrix order.
VARIANT_NAMES: Tuple[str, ...] = tuple(name for name, _ in CACHE_VARIANTS)

#: The modes the fuzzer exercises by default: Hanoi plus the three baselines.
DEFAULT_FUZZ_MODES: Tuple[str, ...] = (
    "hanoi", "conj-str", "linear-arbitrary", "oneshot")

#: Test-only fault injection (see docs/fuzzing.md): when this environment
#: variable names a module operation, fingerprints of the ``no-caches``
#: variant are corrupted for every module defining that operation.  It exists
#: so the shrinker pipeline can be exercised end to end without a real bug.
FAULT_ENV_VAR = "REPRO_FUZZ_FAULT_OPERATION"

#: Signature of a fault hook: (benchmark, mode, tag, fingerprint) -> fingerprint.
FaultHook = Callable[[str, str, str, dict], dict]

#: One run of a check: (tag, module, configuration).
Run = Tuple[str, ModuleDefinition, HanoiConfig]


def variant_config(config: HanoiConfig, variant: str) -> HanoiConfig:
    """The base configuration with one cache matrix cell applied."""
    for name, (eval_on, pool_on) in CACHE_VARIANTS:
        if name == variant:
            if not eval_on:
                config = config.without_evaluation_caching()
            if not pool_on:
                config = config.without_synthesis_evaluation_caching()
            return config
    raise KeyError(f"unknown cache variant {variant!r}; known: {VARIANT_NAMES}")


def outcome_fingerprint(result: InferenceResult) -> dict:
    """The cache-independent facts of one run, as a JSON-safe dict.

    Timing, cache counters, and event traces are deliberately excluded: they
    legitimately differ across cache configurations.  Everything else - the
    status, the invariant itself, the iteration count, and the failure
    message - must not.
    """
    return {
        "status": result.status,
        "invariant": (None if result.invariant is None
                      else result.render_invariant()),
        "size": result.invariant_size,
        "iterations": result.iterations,
        "message": result.message,
    }


def _fingerprint_bytes(fingerprint: dict) -> str:
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


def _env_fault_hook(definitions: Dict[str, ModuleDefinition]) -> Optional[FaultHook]:
    """The environment-driven fault hook, when the test-only variable is set."""
    operation = os.environ.get(FAULT_ENV_VAR)
    if not operation:
        return None

    def hook(benchmark: str, mode: str, variant: str, fingerprint: dict) -> dict:
        definition = definitions.get(benchmark)
        if (definition is not None and variant == "no-caches"
                and any(op.name == operation for op in definition.operations)):
            corrupted = dict(fingerprint)
            corrupted["status"] = "fault-injected"
            return corrupted
        return fingerprint

    return hook


# -- the check table ---------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One differential check: runs that must produce identical outcomes.

    ``runs(definition, config)`` is a generator of :data:`Run` triples in
    ``tags`` order.  The :class:`InferenceResult` of each run is sent back
    into it, and it may return ``{tag: reason}`` for runs that made the
    comparison vacuous; the harness adds the reason to that run's
    fingerprint, so a vacuous check fails like a disagreeing one.
    """

    #: How :meth:`DifferentialMismatch.describe` names what disagreed.
    label: str
    tags: Tuple[str, ...]
    #: Only modes built on the Hanoi loop (baselines never consult the
    #: verifier backend or create the caches the check exercises).
    hanoi_only: bool
    runs: Callable[[ModuleDefinition, HanoiConfig],
                   Generator[Run, InferenceResult, Optional[Dict[str, str]]]]
    #: Module-level mismatches beyond the fingerprint comparison, computed
    #: once per module and reported under the first applicable mode.
    obligations: Optional[Callable[..., List["DifferentialMismatch"]]] = None

    def applies(self, mode: str) -> bool:
        return not self.hanoi_only or mode.startswith("hanoi")


def _cache_runs(definition: ModuleDefinition, config: HanoiConfig):
    for variant in VARIANT_NAMES:
        yield variant, definition, variant_config(config, variant)


def _canonical_runs(definition: ModuleDefinition, config: HanoiConfig):
    """The canonicalizing rewrites (constant folding, dead-branch
    elimination, alpha-normalization) advertise behaviour preservation."""
    from ..analysis.canon import canonicalize_definition

    yield "original", definition, config
    yield "canonical", canonicalize_definition(definition), config


def _verifier_runs(definition: ModuleDefinition, config: HanoiConfig):
    """The ladder advertises trajectory identity: static proofs only
    discharge obligations the bounded tester would have passed anyway."""
    config = config.with_verifier_backend("enumerative")
    yield "enumerative", definition, config
    yield "ladder", definition, config.with_verifier_backend("ladder")


def _corrupt_store(directory: str) -> int:
    """Flip one mid-payload byte in every disk-cache entry; returns count."""
    flipped = 0
    for root, _, files in os.walk(directory):
        for name in files:
            if not name.endswith(".bin"):
                continue
            path = os.path.join(root, name)
            with open(path, "r+b") as handle:
                blob = bytearray(handle.read())
                if not blob:
                    continue
                blob[len(blob) // 2] ^= 0xFF
                handle.seek(0)
                handle.write(blob)
            flipped += 1
    return flipped


def _persistence_runs(definition: ModuleDefinition, config: HanoiConfig):
    """Without persistence, then against a fresh store: empty (cold), as
    the cold run left it (warm), and with one byte flipped in every entry
    (every entry must be skipped with a warning, never crash or change the
    outcome).  The check is vacuous unless the cold run misses, the warm
    run hits, and corruption flips at least one entry."""
    import shutil
    import tempfile

    plain = config.without_persistent_caching()
    directory = tempfile.mkdtemp(prefix="repro-fuzz-diskcache-")
    store = plain.with_cache_dir(directory)
    try:
        yield "no-persistence", definition, plain
        cold = yield "cold-store", definition, store
        warm = yield "warm-store", definition, store
        flipped = _corrupt_store(directory)
        yield "corrupt-store", definition, store
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    vacuous = {}
    if not cold.stats.disk_cache_misses:
        vacuous["cold-store"] = "the cold run recorded no disk-cache miss"
    if not warm.stats.disk_cache_hits:
        vacuous["warm-store"] = "the warm run recorded no disk-cache hit"
    if not flipped:
        vacuous["corrupt-store"] = "corruption flipped no store entry"
    return vacuous


def _soundness_candidates(instance) -> List[Tuple[str, Predicate]]:
    """Candidate invariants spanning the verdict space.

    Trivially true and trivially false bracket the lattice; the module's
    expected invariant (when present) is a realistic candidate; and for a
    data-typed concrete representation, one single-constructor discriminator
    per constructor exercises the ctor-set refinement of the match transfer.
    """
    program = instance.program
    concrete = instance.concrete_type
    candidates: List[Tuple[str, Predicate]] = [
        ("always-true", always_true(concrete, program)),
        ("always-false", Predicate.from_body(
            ECtor("False"), "x", concrete, program, recursive=False)),
    ]
    if instance.definition.expected_invariant:
        try:
            candidates.append(("oracle", Predicate.from_source(
                instance.definition.expected_invariant, program)))
        except Exception:
            pass
    if isinstance(concrete, TData) and program.types.is_datatype(concrete):
        for info in program.types.datatype_ctors(concrete.name):
            body = EMatch(EVar("x"), (
                Branch(PCtor(info.name,
                             PWild() if info.payload is not None else None),
                       ECtor("True")),
                Branch(PWild(), ECtor("False")),
            ))
            candidates.append((f"is-{info.name}", Predicate.from_body(
                body, "x", concrete, program, recursive=False)))
    return candidates


def verifier_soundness_mismatches(definition: ModuleDefinition,
                                  config: Optional[HanoiConfig] = None,
                                  mode: str = "hanoi",
                                  ) -> List[DifferentialMismatch]:
    """Obligation-level soundness check of the abstract tier.

    The abstract interpreter claims over-approximation: a statically PROVEN
    obligation can never have a concrete counterexample within any bound.
    For a spread of candidate invariants (:func:`_soundness_candidates`),
    every operation the abstract checker proves is re-checked by the bounded
    enumerative tester; an enumerated counterexample landing on a proven
    operation - or on a proven sufficiency obligation - is reported as a
    ``verifier`` mismatch under ``mode`` (a real bug in the static tier,
    never an unlucky search).  The fingerprints name the obligation: the
    ladder's verdict (``proven``) against the enumerative one.
    """
    from ..analysis.absint import PROVEN, AbstractChecker
    from ..experiments.runner import quick_config

    bounds = (config or quick_config()).verifier_bounds
    instance = definition.instantiate()
    abstract = AbstractChecker(instance)
    verifier = Verifier(instance, bounds=bounds)
    checker = ConditionalInductivenessChecker(instance, bounds=bounds)
    mismatches: List[DifferentialMismatch] = []

    def unsound(obligation: dict) -> None:
        mismatches.append(_compare("verifier", definition.name, mode, {
            "enumerative": dict(obligation, verdict="counterexample"),
            "ladder": dict(obligation, verdict="proven"),
        }))

    # Sufficiency is candidate-independent on the abstract side (the spec is
    # evaluated over type tops), so one PROVEN verdict promises enumerative
    # validity for *every* candidate.
    sufficiency_proven = abstract.sufficiency_verdict() == PROVEN
    for tag, predicate in _soundness_candidates(instance):
        if sufficiency_proven:
            try:
                verdict = verifier.check_sufficiency(predicate)
            except Exception:
                # A crashing specification aborts the enumerative check but
                # never reaches the abstract PROVEN verdict (may_fail blocks
                # it), so there is nothing to compare.
                verdict = VALID
            if not isinstance(verdict, Valid):
                unsound({"obligation": f"sufficiency/{tag}"})
        verdicts = abstract.inductiveness_verdicts(predicate.decl, None)
        result = checker.check(predicate, predicate)
        if (isinstance(result, InductivenessCounterexample)
                and verdicts.get(result.operation) == PROVEN):
            unsound({"obligation": f"inductiveness/{tag}",
                     "operation": result.operation})
    return mismatches


#: Every differential check, in the order the harness runs them.
CHECKS: Dict[str, Check] = {
    "cache": Check("cache variants", VARIANT_NAMES, False, _cache_runs),
    "canonical": Check("canonicalization", ("original", "canonical"), False,
                       _canonical_runs),
    "verifier": Check("verifier backends", ("enumerative", "ladder"), True,
                      _verifier_runs, verifier_soundness_mismatches),
    "persistence": Check("persistent cache", ("no-persistence", "cold-store",
                                              "warm-store", "corrupt-store"),
                         True, _persistence_runs),
}


# -- reports -----------------------------------------------------------------------


@dataclass(frozen=True)
class DifferentialMismatch:
    """One ``(benchmark, mode)`` pair whose runs under a check disagree."""

    benchmark: str
    mode: str
    #: run tag -> fingerprint (missing runs are absent).
    fingerprints: Dict[str, dict]
    #: The :data:`CHECKS` entry that produced the mismatch.
    kind: str = "cache"

    def describe(self) -> str:
        check = CHECKS[self.kind]
        lines = [f"{self.benchmark} [{self.mode}]: {check.label} disagree"]
        for tag in check.tags:
            fingerprint = self.fingerprints.get(tag)
            rendered = ("(missing)" if fingerprint is None
                        else _fingerprint_bytes(fingerprint))
            lines.append(f"  {tag:10s} {rendered}")
        return "\n".join(lines)


@dataclass(frozen=True)
class OracleFailure:
    """A ground-truth check that failed for one ``(benchmark, mode, variant)``."""

    benchmark: str
    mode: str
    variant: str
    reason: str

    def describe(self) -> str:
        return f"{self.benchmark} [{self.mode}/{self.variant}]: {self.reason}"


@dataclass
class FuzzReport:
    """The aggregated outcome of one differential sweep."""

    benchmarks: List[str] = field(default_factory=list)
    runs: int = 0
    mismatches: List[DifferentialMismatch] = field(default_factory=list)
    oracle_failures: List[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.oracle_failures

    def merge(self, other: "FuzzReport") -> None:
        self.benchmarks.extend(name for name in other.benchmarks
                               if name not in self.benchmarks)
        self.runs += other.runs
        self.mismatches.extend(other.mismatches)
        self.oracle_failures.extend(other.oracle_failures)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"differential fuzz {status}: {len(self.benchmarks)} module(s), "
                f"{self.runs} run(s), {len(self.mismatches)} mismatch(es), "
                f"{len(self.oracle_failures)} oracle failure(s)")


# -- the comparator and the reference-run checks -----------------------------------


def _compare(check: str, benchmark: str, mode: str,
             fingerprints: Dict[str, dict]) -> Optional[DifferentialMismatch]:
    """A mismatch when a tag of ``check`` has no fingerprint or two differ."""
    rendered = {_fingerprint_bytes(fp) for fp in fingerprints.values()}
    if len(rendered) == 1 and all(tag in fingerprints
                                  for tag in CHECKS[check].tags):
        return None
    return DifferentialMismatch(benchmark=benchmark, mode=mode,
                                fingerprints=dict(fingerprints), kind=check)


def _check_ground_truth(definition: ModuleDefinition, bounds,
                        report: FuzzReport) -> Optional[Predicate]:
    """Validate the module's expected invariant; return it as a predicate.

    For generated modules this is a generator self-check: the invariant is
    sufficient and inductive *by construction*, so a failure here means the
    generator (not the inference stack) is wrong.
    """
    if not definition.expected_invariant:
        return None
    instance = definition.instantiate()
    oracle = Predicate.from_source(definition.expected_invariant, instance.program)
    verifier = Verifier(instance, bounds=bounds)
    if not isinstance(verifier.check_sufficiency(oracle), Valid):
        report.oracle_failures.append(OracleFailure(
            definition.name, "-", "-",
            "ground-truth invariant is not sufficient for the specification"))
        return None
    checker = ConditionalInductivenessChecker(instance, bounds=bounds)
    if not isinstance(checker.check(oracle, oracle), Valid):
        report.oracle_failures.append(OracleFailure(
            definition.name, "-", "-",
            "ground-truth invariant is not inductive"))
        return None
    return oracle


def _check_inferred_against_oracle(definition: ModuleDefinition,
                                   oracle: Optional[Predicate], bounds,
                                   mode: str, variant: str,
                                   rendered_invariant: Optional[str],
                                   report: FuzzReport) -> None:
    """Bounded check that an inferred invariant implies the ground truth."""
    if oracle is None or not rendered_invariant:
        return
    program = oracle.program  # the instantiated module's program
    try:
        inferred = Predicate.from_source(rendered_invariant, program)
    except Exception as exc:
        report.oracle_failures.append(OracleFailure(
            definition.name, mode, variant,
            f"inferred invariant does not re-parse: {exc}"))
        return
    verifier = Verifier(definition.instantiate(), bounds=bounds)
    verdict = verifier.check_predicate(lambda v: (not inferred(v)) or oracle(v))
    if not isinstance(verdict, Valid):
        report.oracle_failures.append(OracleFailure(
            definition.name, mode, variant,
            "inferred invariant accepts a value the ground-truth invariant "
            f"rejects (witness: {verdict.witnesses[0]})"))


def _check_reference(definition: ModuleDefinition, mode: str,
                     reference: Optional[dict],
                     require_success: Sequence[str],
                     oracles: Optional[Dict[str, Optional[Predicate]]],
                     bounds, report: FuzzReport) -> None:
    """Hold the cache matrix's reference run (``ec+pc``) to mode success and
    the ground truth.

    One run is enough: identical fingerprints mean an identical invariant,
    and non-identical ones are already a mismatch.  ``oracles`` memoizes the
    validated ground truth per benchmark; ``None`` skips the ground-truth
    checks.
    """
    if reference is None:
        return
    if mode in require_success and reference["status"] != "success":
        report.oracle_failures.append(OracleFailure(
            definition.name, mode, VARIANT_NAMES[0],
            f"expected success on a generated module, got "
            f"{reference['status']!r}: {reference['message']}"))
    if oracles is not None and reference["status"] == "success":
        if definition.name not in oracles:
            oracles[definition.name] = _check_ground_truth(
                definition, bounds, report)
        _check_inferred_against_oracle(
            definition, oracles[definition.name], bounds, mode,
            VARIANT_NAMES[0], reference["invariant"], report)


# -- in-process sweeps -----------------------------------------------------------


def _run_check(check: str, definition: ModuleDefinition, mode: str,
               config: HanoiConfig, fault: Optional[FaultHook],
               report: FuzzReport) -> Dict[str, dict]:
    """Execute one check's runs of ``definition`` under ``mode``; returns
    tag -> fingerprint, with any vacuity reason folded in."""
    from ..experiments.runner import run_module

    runs = CHECKS[check].runs(definition, config)
    fingerprints: Dict[str, dict] = {}
    result = None
    while True:
        try:
            tag, candidate, run_config = runs.send(result)
        except StopIteration as stop:
            for tag, reason in (stop.value or {}).items():
                fingerprints[tag] = dict(fingerprints[tag], vacuous=reason)
            return fingerprints
        result = run_module(candidate, mode=mode, config=run_config)
        report.runs += 1
        fingerprint = outcome_fingerprint(result)
        if fault is not None:
            fingerprint = fault(definition.name, mode, tag, fingerprint)
        fingerprints[tag] = fingerprint


def fuzz_module(definition: ModuleDefinition,
                modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                config: Optional[HanoiConfig] = None,
                require_success: Sequence[str] = ("hanoi",),
                fault: Optional[FaultHook] = None,
                check_oracle: bool = True,
                checks: Sequence[str] = ("cache",)) -> FuzzReport:
    """Run one module through each of ``checks`` (:data:`CHECKS` names)
    under each applicable mode, in process.

    Mode success and the ground truth are checked on the ``cache`` check's
    reference run, so they need ``"cache"`` among ``checks``."""
    from ..experiments.runner import quick_config

    base = config or quick_config()
    report = FuzzReport(benchmarks=[definition.name])
    oracles: Optional[Dict[str, Optional[Predicate]]] = {} if check_oracle else None
    if fault is None:
        fault = _env_fault_hook({definition.name: definition})

    for name in checks:
        check = CHECKS[name]
        applicable = [mode for mode in modes if check.applies(mode)]
        for mode in applicable:
            fingerprints = _run_check(name, definition, mode, base, fault, report)
            mismatch = _compare(name, definition.name, mode, fingerprints)
            if mismatch is not None:
                report.mismatches.append(mismatch)
            if name == "cache":
                _check_reference(definition, mode,
                                 fingerprints.get(VARIANT_NAMES[0]),
                                 require_success, oracles,
                                 base.verifier_bounds, report)
        if check.obligations is not None and applicable:
            report.mismatches.extend(
                check.obligations(definition, config=base, mode=applicable[0]))
    return report


def fuzz_corpus(definitions: Sequence[ModuleDefinition],
                modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                config: Optional[HanoiConfig] = None,
                require_success: Sequence[str] = ("hanoi",),
                fault: Optional[FaultHook] = None,
                check_oracle: bool = True,
                checks: Sequence[str] = ("cache",),
                progress: Optional[Callable[[str, FuzzReport], None]] = None,
                ) -> FuzzReport:
    """Run a corpus serially through :func:`fuzz_module`, merging reports.

    Accepts bare :class:`ModuleDefinition`\\ s or the generator's
    :class:`~repro.gen.modgen.GeneratedModule` wrappers.
    """
    total = FuzzReport()
    for definition in definitions:
        definition = getattr(definition, "definition", definition)
        report = fuzz_module(definition, modes=modes, config=config,
                             require_success=require_success, fault=fault,
                             check_oracle=check_oracle, checks=checks)
        total.merge(report)
        if progress is not None:
            progress(definition.name, report)
    return total


# -- stored-result comparison (the parallel-runner path) -------------------------


def compare_stored(results: Sequence[InferenceResult],
                   definitions: Dict[str, ModuleDefinition],
                   modes: Sequence[str],
                   require_success: Sequence[str] = ("hanoi",),
                   fault: Optional[FaultHook] = None,
                   check_oracle: bool = True,
                   config: Optional[HanoiConfig] = None) -> FuzzReport:
    """The ``cache`` check over rows a :class:`ResultStore` persisted.

    This is the CLI path: the sweep itself ran through the parallel runner
    (each ``(benchmark, mode, variant)`` cell as one task), and the stored
    rows are grouped and compared here afterwards.
    """
    from ..experiments.runner import quick_config

    bounds = (config or quick_config()).verifier_bounds
    report = FuzzReport(benchmarks=list(definitions), runs=len(results))
    if fault is None:
        fault = _env_fault_hook(definitions)

    by_cell: Dict[Tuple[str, str], Dict[str, dict]] = {}
    for result in results:
        fingerprint = outcome_fingerprint(result)
        if fault is not None:
            fingerprint = fault(result.benchmark, result.mode,
                                result.variant or "", fingerprint)
        by_cell.setdefault((result.benchmark, result.mode), {})[
            result.variant or ""] = fingerprint

    oracles: Optional[Dict[str, Optional[Predicate]]] = {} if check_oracle else None
    for name, definition in definitions.items():
        for mode in modes:
            fingerprints = by_cell.get((name, mode), {})
            mismatch = _compare("cache", name, mode, fingerprints)
            if mismatch is not None:
                report.mismatches.append(mismatch)
            _check_reference(definition, mode, fingerprints.get(VARIANT_NAMES[0]),
                             require_success, oracles, bounds, report)
    return report
