"""Reference oracle: the object language's original tree-walking evaluator.

``repro.lang.eval`` compiles expressions to closures.  This module keeps the
direct environment-passing interpreter it replaced, one ``isinstance`` case
per node, so the tests can check the compiled evaluator against it: the same
value or exception type, and the same remaining budget, on every call.

The oracle has no application memo.  The memo is meant to be invisible (a
hit charges exactly the steps the application took), so comparing against a
memo-free walker checks that as well.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lang.ast import (
    EApp,
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    Expr,
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
)
from repro.lang.errors import EvalError, MatchFailure
from repro.lang.eval import EvalBudget
from repro.lang.values import Value, VClosure, VCtor, VNative, VTuple


class ReferenceEvaluator:
    """Evaluates expressions in a global environment of top-level values."""

    def __init__(self, globals_: Dict[str, Value], fuel: int):
        self.globals = globals_
        self.default_fuel = fuel

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None,
             budget: Optional[EvalBudget] = None) -> Value:
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        return self._eval(expr, env or {}, budget)

    def apply(self, fn: Value, *args: Value, budget: Optional[EvalBudget] = None) -> Value:
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        result = fn
        for arg in args:
            result = self._apply(result, arg, budget)
        return result

    def _eval(self, expr: Expr, env: Dict[str, Value], budget: EvalBudget) -> Value:
        budget.spend()

        if isinstance(expr, EVar):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.globals:
                return self.globals[expr.name]
            raise EvalError(f"unbound variable at runtime: {expr.name}")

        if isinstance(expr, ECtor):
            payload = self._eval(expr.payload, env, budget) if expr.payload is not None else None
            return VCtor(expr.ctor, payload)

        if isinstance(expr, ETuple):
            return VTuple(tuple(self._eval(e, env, budget) for e in expr.items))

        if isinstance(expr, EProj):
            value = self._eval(expr.expr, env, budget)
            if not isinstance(value, VTuple) or expr.index >= len(value.items):
                raise EvalError(f"invalid projection from {value}")
            return value.items[expr.index]

        if isinstance(expr, EApp):
            fn = self._eval(expr.fn, env, budget)
            arg = self._eval(expr.arg, env, budget)
            return self._apply(fn, arg, budget)

        if isinstance(expr, EFun):
            return VClosure(expr.param, expr.param_type, expr.body, dict(env))

        if isinstance(expr, ELet):
            value = self._eval(expr.value, env, budget)
            inner = dict(env)
            inner[expr.name] = value
            return self._eval(expr.body, inner, budget)

        if isinstance(expr, EMatch):
            scrutinee = self._eval(expr.scrutinee, env, budget)
            for branch in expr.branches:
                bindings = match_pattern(branch.pattern, scrutinee)
                if bindings is not None:
                    inner = dict(env)
                    inner.update(bindings)
                    return self._eval(branch.body, inner, budget)
            raise MatchFailure(f"no branch matched value {scrutinee}")

        raise EvalError(f"unknown expression node: {expr!r}")

    def _apply(self, fn: Value, arg: Value, budget: EvalBudget) -> Value:
        budget.spend()
        if isinstance(fn, VClosure):
            env = dict(fn.env)
            env[fn.param] = arg
            if fn.rec_name is not None:
                env[fn.rec_name] = fn
            return self._eval(fn.body, env, budget)
        if isinstance(fn, VNative):
            return fn.fn(arg)
        raise EvalError(f"application of non-function value {fn}")


def match_pattern(pattern: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """Return the bindings produced by matching ``value`` against ``pattern``,
    or ``None`` when the pattern does not match."""
    if isinstance(pattern, PWild):
        return {}
    if isinstance(pattern, PVar):
        return {pattern.name: value}
    if isinstance(pattern, PCtor):
        if not isinstance(value, VCtor) or value.ctor != pattern.ctor:
            return None
        if pattern.payload is None:
            return {}
        if value.payload is None:
            return None
        return match_pattern(pattern.payload, value.payload)
    if isinstance(pattern, PTuple):
        if not isinstance(value, VTuple) or len(value.items) != len(pattern.items):
            return None
        bindings: Dict[str, Value] = {}
        for sub_pattern, sub_value in zip(pattern.items, value.items):
            sub_bindings = match_pattern(sub_pattern, sub_value)
            if sub_bindings is None:
                return None
            bindings.update(sub_bindings)
        return bindings
    raise EvalError(f"unknown pattern node: {pattern!r}")
