"""Programs: parsed, type-checked, and evaluated collections of declarations.

A :class:`Program` bundles together

* the :class:`~repro.lang.typecheck.TypeEnvironment` produced by checking the
  declarations,
* the global runtime environment mapping every top-level name to its value,
* an :class:`~repro.lang.eval.Evaluator` for running code against that
  environment.

Benchmark modules are built by parsing the shared prelude followed by the
benchmark's own source; the synthesizer and the Hanoi loop then interact with
the resulting :class:`Program` (looking up operation closures, evaluating
candidate invariants, enumerating values of declared types).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .ast import EFun, Expr, FunDecl, TypeDecl, expr_size
from .errors import TypeError_
from .eval import DEFAULT_FUEL, EvalBudget, Evaluator
from .parser import parse_program
from .prelude import PRELUDE_SOURCE
from .typecheck import TypeChecker, TypeEnvironment
from .types import Type
from .values import Value, VClosure

__all__ = ["Program"]


class Program:
    """A type-checked, evaluated program (prelude plus module source)."""

    def __init__(self, fuel: int = DEFAULT_FUEL):
        self.types = TypeEnvironment()
        self.evaluator = Evaluator({}, fuel=fuel)
        self.declarations: List[object] = []
        self._checker = TypeChecker(self.types)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, include_prelude: bool = True,
                    fuel: int = DEFAULT_FUEL) -> "Program":
        """Parse, check, and load a program.

        When ``include_prelude`` is true (the default) the shared prelude is
        loaded first, exactly as every benchmark program in the paper includes
        the standard prelude.
        """
        program = cls(fuel=fuel)
        if include_prelude:
            program.extend(PRELUDE_SOURCE)
        program.extend(source)
        return program

    def extend(self, source: str) -> None:
        """Parse and load additional declarations on top of this program."""
        self.extend_declarations(parse_program(source))

    def extend_declarations(self, decls: List[object]) -> None:
        """Type check and install already-parsed declarations.

        This is the parse-free half of :meth:`extend`; the ``.hanoi`` spec-file
        loader uses it to check declarations one at a time so type errors can
        be anchored to the declaration's source line.
        """
        self._checker.check_declarations(decls)
        for decl in decls:
            self.declarations.append(decl)
            if isinstance(decl, FunDecl):
                self.evaluator.bind(decl.name, self._compile_fun(decl))

    def define_function(self, decl: FunDecl) -> Value:
        """Type check and install a programmatically-built function declaration."""
        self._checker.check_declarations([decl])
        self.declarations.append(decl)
        value = self._compile_fun(decl)
        self.evaluator.bind(decl.name, value)
        return value

    def _compile_fun(self, decl: FunDecl) -> Value:
        """Turn a top-level definition into a runtime value.

        Definitions with parameters become curried closures; recursion is
        resolved through the global environment (the evaluator falls back to
        globals for unbound names), so mutually recursive top-level functions
        work without extra machinery.
        """
        if not decl.params:
            return self.evaluator.eval(decl.body)
        body: Expr = decl.body
        for name, ty in reversed(decl.params[1:]):
            body = EFun(name, ty, body)
        first_name, first_type = decl.params[0]
        return VClosure(first_name, first_type, body, {})

    # -- queries ------------------------------------------------------------------

    def global_value(self, name: str) -> Value:
        try:
            return self.evaluator.globals[name]
        except KeyError:
            raise TypeError_(f"unknown global: {name}") from None

    def global_type(self, name: str) -> Type:
        try:
            return self.types.globals[name]
        except KeyError:
            raise TypeError_(f"unknown global: {name}") from None

    def has_global(self, name: str) -> bool:
        return name in self.evaluator.globals

    def datatype(self, name: str) -> TypeDecl:
        try:
            return self.types.datatypes[name]
        except KeyError:
            raise TypeError_(f"unknown data type: {name}") from None

    # -- execution -------------------------------------------------------------------

    def call(self, name: str, *args: Value, fuel: Optional[int] = None) -> Value:
        """Apply a top-level function to argument values."""
        fn = self.global_value(name)
        budget = EvalBudget(fuel if fuel is not None else self.evaluator.default_fuel)
        return self.evaluator.apply(fn, *args, budget=budget)

    def apply(self, fn: Value, *args: Value, fuel: Optional[int] = None) -> Value:
        """Apply an arbitrary function value to argument values."""
        budget = EvalBudget(fuel if fuel is not None else self.evaluator.default_fuel)
        return self.evaluator.apply(fn, *args, budget=budget)

    def eval_expr(self, expr: Expr, env: Optional[Dict[str, Value]] = None,
                  fuel: Optional[int] = None) -> Value:
        """Evaluate an expression against the program's globals."""
        budget = EvalBudget(fuel if fuel is not None else self.evaluator.default_fuel)
        return self.evaluator.eval(expr, env, budget)

    # -- reporting ---------------------------------------------------------------------

    def function_size(self, name: str) -> int:
        """AST size of a top-level definition (body plus one node per parameter)."""
        for decl in self.declarations:
            if isinstance(decl, FunDecl) and decl.name == name:
                return expr_size(decl.body) + len(decl.params) + 1
        raise TypeError_(f"unknown global: {name}")
