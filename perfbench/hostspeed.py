"""Host-speed reference: scales measured times to a host of fixed speed.

The shared host this benchmark was tuned on drifts in speed by up to ~40 %
over seconds to minutes, so the same work takes very different wall times
from one run to the next.  The reference workload is a small tree-walking
interpreter in this file - pure Python, recursive, dispatching on tuple tags
and looking up names in dicts, like the program's own evaluator - so it
drifts with the program while no change to the program can change it.  The
benchmark times it right before and right after every module and scales the
module's time by :func:`speed`.

Measured on a 2-vCPU shared VM, over 6 passes of the suite with the
reference timed before each module: a module's log time moved with the
reference's at slope 0.71 and correlation 0.74, against 0.72 and 0.67 for a
plain integer loop; scaling by the loops on both sides of a module cut the
spread of pass times from 0.23 to 0.05 (quartile distance / median).
"""

import gc
import statistics
import time
from typing import List

#: Interpreted evaluations per reference run, and the time they take on a
#: host at the nominal speed (about the median on the VM above).
REFERENCE_EVALS = 150
REFERENCE_S = 0.06


def _tree(depth: int, seed: int) -> tuple:
    if depth == 0:
        return ("lit", seed % 7) if seed % 3 else ("var", "xyz"[seed % 3])
    op = ("add", "mul", "sub", "let")[seed % 4]
    return (op, _tree(depth - 1, seed * 5 + 1), _tree(depth - 1, seed * 3 + 2))


_TREE = _tree(10, 1)


def _eval(node: tuple, env: dict) -> int:
    tag = node[0]
    if tag == "lit":
        return node[1]
    if tag == "var":
        return env[node[1]]
    left = _eval(node[1], env)
    if tag == "let":
        return _eval(node[2], {**env, "x": left % 11})
    right = _eval(node[2], env)
    if tag == "add":
        return (left + right) % 1009
    if tag == "mul":
        return (left * right) % 1009
    return (left - right) % 1009


def reference_s() -> float:
    """Time one run of the reference workload.  The garbage collector is
    off meanwhile, so the size of the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(REFERENCE_EVALS):
            _eval(_TREE, {"x": i, "y": 2, "z": 3})
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def speed(references: List[float]) -> float:
    """How much faster than nominal the host ran while ``references`` were
    timed: ``REFERENCE_S`` over their mean.  A time multiplied by it is in
    seconds at the nominal speed."""
    return REFERENCE_S / statistics.fmean(references)
