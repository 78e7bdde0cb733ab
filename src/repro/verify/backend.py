"""Pluggable verifier backends: the verification ladder.

The paper's ``Verify`` is a size-bounded enumerative tester (Section 4.3).
This module makes that one rung of a ladder (ROADMAP: "pluggable verifier
backends").  A backend answers the Hanoi loop's two obligation families -
sufficiency and conditional inductiveness - through one small interface:

* :class:`EnumerativeBackend` - the paper's behaviour, verbatim: every
  obligation goes to the bounded tester / checker.
* :class:`LadderVerifier` - the abstract interpreter
  (:mod:`repro.analysis.absint`) first, enumeration for the rest.  A
  statically ``PROVEN`` obligation skips enumeration outright (sound: the
  abstract semantics over-approximates every concrete execution, so no
  enumerated counterexample can exist).  A ``REFUTED`` or ``UNKNOWN``
  obligation falls through to the enumerative rung, restricted to the
  undischarged operations *in interface order*, so the counterexample the
  loop sees - and therefore the whole inference trajectory - is identical
  to the enumerative backend's.

Static outcomes are tallied in :class:`~repro.core.stats.InferenceStats`
(``static_proofs`` / ``static_refutations`` / ``static_unknowns``) and, when
tracing is on, emitted as ``static-proof`` / ``static-refute`` events inside
a ``static-check`` span.  See docs/verification.md.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.absint import AbstractChecker, PROVEN, REFUTED, TRIVIAL, UNKNOWN
from ..core.predicate import Predicate
from ..core.stats import InferenceStats
from ..obs.events import NULL_EMITTER
from .result import VALID, CheckResult, InductivenessCounterexample

__all__ = [
    "PROVEN",
    "REFUTED",
    "UNKNOWN",
    "TRIVIAL",
    "VerifierBackend",
    "EnumerativeBackend",
    "LadderVerifier",
    "BACKEND_NAMES",
    "make_backend",
]


class VerifierBackend:
    """The obligation interface extracted from ``verify.tester`` /
    ``inductive.relation``: what the Hanoi loop needs from verification."""

    name = "backend"

    def check_sufficiency(self, candidate) -> CheckResult:
        raise NotImplementedError

    def check_inductiveness(self, p, q, p_pool=None) -> CheckResult:
        raise NotImplementedError


class EnumerativeBackend(VerifierBackend):
    """The paper's bounded enumerative tier, unchanged."""

    name = "enumerative"

    def __init__(self, verifier, checker):
        self.verifier = verifier
        self.checker = checker

    def check_sufficiency(self, candidate) -> CheckResult:
        return self.verifier.check_sufficiency(candidate)

    def check_inductiveness(self, p, q, p_pool=None) -> CheckResult:
        return self.checker.check(p=p, q=q, p_pool=p_pool)


class LadderVerifier(VerifierBackend):
    """Abstract-first with enumerative fallback - the production ladder.

    Sound with respect to the enumerative backend: it skips exactly the
    obligations on which enumeration cannot find a counterexample, and runs
    the enumerative rung on everything else in the original operation order,
    so inference outcomes are identical (pinned by the verifier-diff tests).
    """

    name = "ladder"

    def __init__(self, instance, verifier, checker,
                 stats: Optional[InferenceStats] = None,
                 emitter: object = NULL_EMITTER):
        self.instance = instance
        self.verifier = verifier
        self.checker = checker
        self.stats = stats or InferenceStats()
        self.emitter = emitter
        self._abstract: Optional[AbstractChecker] = None
        self._sufficiency: Optional[str] = None

    @property
    def abstract(self) -> AbstractChecker:
        if self._abstract is None:
            self._abstract = AbstractChecker(self.instance)
        return self._abstract

    # -- consultations (never raise: a static-tier failure means UNKNOWN) -------

    def sufficiency_verdict(self) -> str:
        # The sufficiency obligation is abstracted candidate-independently
        # (the specification over its argument-type tops), so the verdict is
        # computed once per run.
        if self._sufficiency is None:
            try:
                verdict = self.abstract.sufficiency_verdict()
            except Exception:
                verdict = UNKNOWN
            self._sufficiency = verdict
        return self._sufficiency

    def inductiveness_verdicts(self, q, p_pool) -> Optional[Dict[str, str]]:
        if not isinstance(q, Predicate):
            return None  # a membership lambda has no declaration to analyze
        try:
            return self.abstract.inductiveness_verdicts(q.decl, p_pool)
        except Exception:
            return None

    # -- bookkeeping ------------------------------------------------------------

    def _record_sufficiency(self, verdict: str) -> None:
        emitter = self.emitter
        if verdict == PROVEN:
            self.stats.static_proofs += 1
            if emitter.enabled:
                emitter.emit("static-proof", {"obligation": "sufficiency"},
                             cat="analysis")
        else:
            self.stats.static_unknowns += 1

    def _record_operations(self, verdicts: Dict[str, str]) -> None:
        emitter = self.emitter
        for name, verdict in verdicts.items():
            if verdict == PROVEN:
                self.stats.static_proofs += 1
                if emitter.enabled:
                    emitter.emit("static-proof",
                                 {"obligation": "inductiveness",
                                  "operation": name}, cat="analysis")
            elif verdict in (REFUTED, UNKNOWN):
                # A refutation is only *counted* once the enumerative rung
                # confirms it with a concrete witness (`_record_refutation`).
                self.stats.static_unknowns += 1

    def _record_refutation(self, result: CheckResult,
                           verdicts: Dict[str, str]) -> CheckResult:
        if (isinstance(result, InductivenessCounterexample)
                and verdicts.get(result.operation) == REFUTED):
            self.stats.static_refutations += 1
            self.stats.static_unknowns -= 1  # it was provisionally counted
            if self.emitter.enabled:
                self.emitter.emit("static-refute",
                                  {"obligation": "inductiveness",
                                   "operation": result.operation},
                                  cat="analysis")
        return result

    def _span(self, obligation: str):
        return self.emitter.span("static-check", {"obligation": obligation},
                                 cat="analysis")

    # -- obligations ------------------------------------------------------------

    def check_sufficiency(self, candidate) -> CheckResult:
        if self.emitter.enabled:
            with self._span("sufficiency"):
                verdict = self.sufficiency_verdict()
        else:
            verdict = self.sufficiency_verdict()
        self._record_sufficiency(verdict)
        if verdict == PROVEN:
            return VALID
        return self.verifier.check_sufficiency(candidate)

    def check_inductiveness(self, p, q, p_pool=None) -> CheckResult:
        if self.emitter.enabled:
            with self._span("inductiveness"):
                verdicts = self.inductiveness_verdicts(q, p_pool)
        else:
            verdicts = self.inductiveness_verdicts(q, p_pool)
        if verdicts is None:
            return self.checker.check(p=p, q=q, p_pool=p_pool)
        self._record_operations(verdicts)
        remaining = tuple(
            operation for operation in self.instance.operations
            if verdicts.get(operation.name) not in (PROVEN,)
        )
        if not remaining:
            return VALID
        result = self.checker.check(p=p, q=q, p_pool=p_pool,
                                    operations=remaining)
        return self._record_refutation(result, verdicts)


BACKEND_NAMES: Tuple[str, ...] = ("enumerative", "ladder")


def make_backend(name: str, *, instance, verifier, checker,
                 stats: Optional[InferenceStats] = None,
                 emitter: object = NULL_EMITTER) -> VerifierBackend:
    """Construct the backend selected by ``HanoiConfig.verifier_backend``."""
    if name == "enumerative":
        return EnumerativeBackend(verifier, checker)
    if name == "ladder":
        return LadderVerifier(instance, verifier, checker, stats, emitter)
    raise ValueError(
        f"unknown verifier backend {name!r} (expected one of {BACKEND_NAMES})")
