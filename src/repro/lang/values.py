"""Runtime values of the object language.

Values are the closed normal forms of the call-by-value semantics:

* :class:`VCtor` - a constructor applied to an optional payload value
  (booleans, Peano naturals, lists, trees, options, ...);
* :class:`VTuple` - a tuple of values;
* :class:`VClosure` - a (possibly recursive) function closure;
* :class:`VNative` - a function implemented in Python.  Native values never
  appear in user programs; they are used by the synthesizer (to interpret a
  recursive call against an example oracle), by the higher-order contract
  machinery (Section 4.2), and by the enumerator of functional arguments.

First-order values (constructors and tuples of them) are hashable and
structurally comparable, which the Hanoi loop relies on to maintain the
example sets V+ and V- as Python sets.  Closures compare by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .ast import Expr
from .types import Type

__all__ = [
    "Value",
    "VCtor",
    "VTuple",
    "VClosure",
    "VNative",
    "value_size",
    "value_order",
    "is_first_order",
    "nat_of_int",
    "int_of_nat",
    "v_bool",
    "bool_of_value",
    "v_list",
    "list_of_value",
]


#: Per-object caches of first-order values (see :class:`VCtor`).
_CACHED = ("_hash", "_first_order")


class Value:
    """Base class for runtime values."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return str(self)

    def __getstate__(self):
        # The cached hash depends on the process's string hash seed, so the
        # caches never travel in a pickle.
        return {k: v for k, v in self.__dict__.items() if k not in _CACHED}


@dataclass(frozen=True)
class VCtor(Value):
    """A data constructor value with an optional payload."""

    ctor: str
    payload: Optional[Value] = None

    def __hash__(self) -> int:
        # Values are immutable and hashed over and over (the evaluator's memo
        # keys, the example sets), so the dataclass hash is computed once.
        # A missing payload is left out of the hash: before Python 3.12,
        # hash(None) is the address of None, which differs from process to
        # process even under a fixed PYTHONHASHSEED.
        cached = self.__dict__.get("_hash")
        if cached is None:
            if self.payload is None:
                cached = hash((self.ctor,))
            else:
                cached = hash((self.ctor, self.payload))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        rendered = _render_sugar(self)
        if rendered is not None:
            return rendered
        if self.payload is None:
            return self.ctor
        return f"{self.ctor} ({self.payload})"


@dataclass(frozen=True)
class VTuple(Value):
    """A tuple value."""

    items: Tuple[Value, ...]

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.items,))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.items) + ")"


@dataclass(frozen=True, eq=False)
class VClosure(Value):
    """A function closure.

    ``rec_name`` is the name under which the closure refers to itself for
    recursive definitions; the evaluator re-binds it on every application.
    """

    param: str
    param_type: Optional[Type]
    body: Expr
    env: Dict[str, Value] = field(repr=False)
    rec_name: Optional[str] = None

    def __str__(self) -> str:
        return f"<fun {self.param}>"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(frozen=True, eq=False)
class VNative(Value):
    """A function value implemented by a Python callable of one argument."""

    fn: Callable[[Value], Value]
    name: str = "<native>"

    def __str__(self) -> str:
        return f"<native {self.name}>"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


# ---------------------------------------------------------------------------
# Measurement and classification
# ---------------------------------------------------------------------------


def value_size(value: Value) -> int:
    """The number of constructor/tuple nodes of a first-order value.

    This is the "AST nodes" size used by the verifier bounds in Section 4.3
    (for example, the Peano natural ``3`` has size 4: ``S (S (S O))``).
    Function values count as a single node.
    """
    if isinstance(value, VCtor):
        return 1 + (value_size(value.payload) if value.payload is not None else 0)
    if isinstance(value, VTuple):
        return 1 + sum(value_size(v) for v in value.items)
    return 1


def value_order(value: Value):
    """A hash-seed-independent total order on first-order values.

    Sorting by :func:`value_size` alone leaves equal-size values in whatever
    order the source container iterates - for Python sets, an order that
    varies with the interpreter's hash seed.  Everything that sorts example
    values (the synthesizer's oracle, the result cache's example logs) uses
    this key so runs are reproducible across seeds.
    """
    return (value_size(value), str(value))


def is_first_order(value: Value) -> bool:
    """True when the value contains no function values (cached per value)."""
    if not isinstance(value, (VCtor, VTuple)):
        return False
    cached = value.__dict__.get("_first_order")
    if cached is None:
        if isinstance(value, VCtor):
            cached = value.payload is None or is_first_order(value.payload)
        else:
            cached = all(is_first_order(v) for v in value.items)
        object.__setattr__(value, "_first_order", cached)
    return cached


# ---------------------------------------------------------------------------
# Conversions between Python data and prelude values
# ---------------------------------------------------------------------------

TRUE = VCtor("True")
FALSE = VCtor("False")


def v_bool(flag: bool) -> VCtor:
    """The prelude boolean value for a Python bool."""
    return TRUE if flag else FALSE


def bool_of_value(value: Value) -> bool:
    """Interpret a prelude ``bool`` value as a Python bool."""
    if isinstance(value, VCtor):
        if value.ctor == "True":
            return True
        if value.ctor == "False":
            return False
    raise ValueError(f"not a boolean value: {value}")


def nat_of_int(n: int) -> VCtor:
    """The Peano natural ``S (S (... O))`` for a non-negative Python int."""
    if n < 0:
        raise ValueError("naturals cannot be negative")
    value = VCtor("O")
    for _ in range(n):
        value = VCtor("S", value)
    return value


def int_of_nat(value: Value) -> int:
    """The Python int denoted by a Peano natural value."""
    count = 0
    while isinstance(value, VCtor) and value.ctor == "S":
        count += 1
        value = value.payload
    if not (isinstance(value, VCtor) and value.ctor == "O"):
        raise ValueError("not a natural number value")
    return count


def v_list(items, nil: str = "Nil", cons: str = "Cons") -> VCtor:
    """Build a prelude-style list value from an iterable of values."""
    result = VCtor(nil)
    for item in reversed(list(items)):
        result = VCtor(cons, VTuple((item, result)))
    return result


def list_of_value(value: Value, nil: str = "Nil", cons: str = "Cons"):
    """Flatten a prelude-style list value into a Python list of values."""
    items = []
    while isinstance(value, VCtor) and value.ctor == cons:
        payload = value.payload
        if not (isinstance(payload, VTuple) and len(payload.items) == 2):
            raise ValueError("malformed list value")
        items.append(payload.items[0])
        value = payload.items[1]
    if not (isinstance(value, VCtor) and value.ctor == nil):
        raise ValueError("not a list value")
    return items


# ---------------------------------------------------------------------------
# Pretty-printing sugar for common prelude shapes
# ---------------------------------------------------------------------------


def _render_sugar(value: VCtor) -> Optional[str]:
    """Render naturals as digits and lists with bracket notation when possible."""
    if value.ctor in ("O", "S"):
        try:
            return str(int_of_nat(value))
        except ValueError:
            return None
    if value.ctor in ("Nil", "Cons"):
        try:
            items = list_of_value(value)
        except ValueError:
            return None
        return "[" + "; ".join(str(v) for v in items) + "]"
    return None
