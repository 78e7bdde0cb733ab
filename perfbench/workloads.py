"""The benchmark's three module sets (see README.md for why each exists).

A workload is a list of :class:`Item` - one module the timed region infers
per pass - plus, for ``warm-restart``, the persistent store every pass starts
from.  Everything here runs in set-up, before the first timed module.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

EXAMPLES_DIR = os.path.join("examples", "modules")


@dataclass
class Item:
    """One module of a workload."""

    name: str
    definition: object
    #: How an independent checker re-creates the module: ("builtin", name)
    #: or ("text", .hanoi source).
    kind: str
    reference: str
    #: How a success is confirmed: "spec" (sufficient and inductive) or
    #: "oracle" (implies the generator's ground truth); see recheck.py.
    rule: str = "spec"
    #: For an edited module, the name of the module it was edited from.
    edited_from: Optional[str] = None


def seeded_order(items: List[Item], seed: int) -> List[Item]:
    """The workload's module order for ``seed`` (set-up is order-free)."""
    ordered = list(items)
    random.Random(seed).shuffle(ordered)
    return ordered


# -- suite-quick ------------------------------------------------------------------


def suite_items(root: str) -> List[Item]:
    """The 28 built-in benchmarks and the ``examples/modules`` packs."""
    from repro.spec.loader import load_module_text
    from repro.suite.registry import all_benchmark_names, get_benchmark

    items = [Item(name, get_benchmark(name), "builtin", name)
             for name in all_benchmark_names()]
    directory = os.path.join(root, EXAMPLES_DIR)
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".hanoi"):
            continue
        path = os.path.join(directory, filename)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        definition = load_module_text(text, path=path)
        items.append(Item(definition.name, definition, "text", text))
    return items


# -- warm-restart -----------------------------------------------------------------

#: Semantics-preserving edits of one operation each, in the style of the
#: persistence tests: (pack file, text replaced, replacement).  Re-inferring
#: the edited module misses exactly the edited operation's store section.
EDITS: Tuple[Tuple[str, str, str], ...] = (
    ("bounded-stack.hanoi", "  | Nil -> Nil\n", "  | Nil -> empty\n"),
    ("two-list-queue.hanoi", "       | Nil -> (Nil, Nil)\n", "       | Nil -> empty\n"),
    ("lru-cache.hanoi", "let lookup (c : entries) (key : nat) : natoption =\n  find c key\n",
     "let lookup (c : entries) (key : nat) : natoption =\n"
     "  match find c key with\n  | NoneN -> NoneN\n  | SomeN v -> SomeN v\n"),
)


def edited_items(root: str) -> List[Item]:
    """The modules of :data:`EDITS`, each with one operation edited."""
    from repro.spec.loader import load_module_text

    items = []
    for filename, old, new in EDITS:
        path = os.path.join(root, EXAMPLES_DIR, filename)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(old) != 1:
            raise ValueError(f"edit of {filename} no longer applies")
        edited = text.replace(old, new)
        definition = load_module_text(edited, path=path)
        items.append(Item(f"{definition.name}~edited", definition, "text", edited,
                          edited_from=definition.name))
    return items


# -- gen-corpus -------------------------------------------------------------------

#: Modules per stratum of the generated corpus: (family, size parameter,
#: specification signature) -> count.  The counts are the generator's own
#: mix scaled to 148 modules (family weights 30/25/15/18/12, parameters
#: uniform over 1..3, spec shapes as ``repro.gen.modgen`` draws them).
#: Fixing the mix keeps seed-to-seed spread down: in an unstratified corpus
#: of 200 the share of slow bounded-3 containers alone moves
#: ``modules_per_s`` by about 15 % between seeds.
STRATA: Dict[Tuple[str, str, str], int] = {}
for _param in ("1", "2", "3"):
    STRATA[("bounded", _param, "t -> bool")] = 9
    STRATA[("bounded", _param, "t -> nat -> bool")] = 4
    STRATA[("bounded", _param, "t -> t -> bool")] = 2
    STRATA[("capped", _param, "t -> bool")] = 8
    STRATA[("capped", _param, "t -> nat -> bool")] = 4
    STRATA[("conserved", _param, "t -> bool")] = 6
STRATA[("parity", "", "t -> bool")] = 22
STRATA[("ordered", "", "t -> bool")] = 22
STRATA[("ordered", "", "t -> t -> bool")] = 5

#: Generator draws allowed before a corpus counts as unfillable.
MAX_DRAWS = 5000

_PARAMETERISED = ("bounded", "capped", "conserved")


def _stratum(module) -> Tuple[str, str, str]:
    """(family, size parameter, spec signature) of a generated module."""
    lines = module.text.splitlines()
    description = next(line for line in lines if line.startswith("description "))
    spec = next(line for line in lines if line.startswith("spec "))
    parameter = ""
    if module.family in _PARAMETERISED:
        parameter = re.search(r"\d+", description).group(0)
    return module.family, parameter, spec.split(":", 1)[1].strip()


def corpus_items(seed: int) -> List[Item]:
    """The stratified corpus of ``seed``: generator modules ``0, 1, 2, ...``
    of ``generate_corpus(seed, ...)`` in order, each kept while its stratum
    still has room, until every stratum is full."""
    from repro.gen.modgen import generate_module

    room = dict(STRATA)
    left = sum(room.values())
    items: List[Item] = []
    for index in range(MAX_DRAWS):
        # Module ``index`` of generate_corpus(seed, n) for any n > index.
        module = generate_module((seed * 1_000_003 + index) % (2 ** 31))
        stratum = _stratum(module)
        if room.get(stratum, 0) == 0:
            continue
        room[stratum] -= 1
        left -= 1
        items.append(Item(module.name, module.definition, "text", module.text, "oracle"))
        if left == 0:
            return items
    raise RuntimeError(f"corpus of seed {seed} did not fill its strata in {MAX_DRAWS} draws")
