"""Benchmark: serial, closed-loop Hanoi inference over one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-quick --seed 0 --seconds 10 --trace 0

One process sets up the workload's modules, then runs
``HanoiInference(module, quick_config()).infer()`` on each in turn - whole
passes over the module set, at least ``MIN_PASSES`` and until ``--seconds``
have elapsed - and reports the end-to-end metrics.  Times are scaled to a
host of fixed speed by a reference workload timed next to each module (see
``hostspeed.py``).  ``--trace 1`` instead runs one untraced and one traced
pass and reports the per-layer metrics (see ``tracer.py``).  Every run
re-checks each inferred invariant independently (``recheck.py``) outside the
timed region.  Per-module rows and an info line precede the result, which is
the last line of standard output.  See README.md for the workloads and
metrics.
"""

import time

import hostspeed  # the script's directory is on sys.path

_REFERENCE_AT_START = hostspeed.reference_s()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("suite-quick", "gen-corpus", "warm-restart")
#: The seed later performance claims must also hold on; never used while
#: tuning a change.
HELD_OUT_SEED = 7919
#: Set-ups, each in a fresh process, whose median is ``setup_s``.
SETUP_REPEATS = 5
#: Fewest timed passes per workload: every module run is one sample of the
#: verdict-time percentiles, so a second pass doubles the samples they rest
#: on.  gen-corpus runs once (README.md, "Workloads").
MIN_PASSES = {"suite-quick": 2, "warm-restart": 2}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _digest(data: object) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _unit(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("bytes", "B"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def quantile(samples: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``samples``.

    A mean of all order statistics, the i-th weighted by the Beta((n+1)p,
    (n+1)(1-p)) mass on [(i-1)/n, i/n].  Module times cluster with gaps
    between them, so a single order statistic jumps from one cluster to the
    next as modules swap places; over ten suite-quick runs this estimate
    spread 0.05 where the order statistic spread 0.10 (tail) and 0.035
    against 0.050 (median)."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(samples: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it, p = (n -
    10) / n, estimated by :func:`quantile`."""
    n = len(samples)
    p = max(n - 10, n // 2) / n
    return {"value": quantile(samples, p), "percentile": round(100 * p, 1), "samples": n}


class Workload:
    """Set-up, per-pass hooks and checks of one workload."""

    def __init__(self, name: str, seed: int, digest: str) -> None:
        self.name = name
        self.seed = seed
        self.digest = digest
        #: warm-restart: the filled store, the copy a pass works on, and the
        #: cold outcome digest of every module.
        self.pristine: Optional[str] = None
        self.work: Optional[str] = None
        self.cold: Dict[str, str] = {}
        self.fill_s: Optional[float] = None

    def fill(self) -> None:
        """warm-restart: the store a cold pass over the suite leaves behind.

        Filled once per program (the store is keyed by the program digest),
        in a fixed module order so that every run starts from the same store
        state; ``fill_s`` is set only by the run that filled it.
        """
        if self.name != "warm-restart":
            return
        import workloads
        from repro.core.hanoi import HanoiInference
        from repro.experiments.runner import quick_config
        from repro.gen.diff import outcome_fingerprint

        root = os.path.join(STATE, "stores", self.digest)
        if not os.path.isdir(root):
            os.makedirs(os.path.dirname(root), exist_ok=True)
            staging = tempfile.mkdtemp(prefix="fill-", dir=os.path.dirname(root))
            config = quick_config().with_cache_dir(os.path.join(staging, "store"))
            started = time.perf_counter()
            cold = {}
            for item in sorted(workloads.suite_items(ROOT), key=lambda i: i.name):
                result = HanoiInference(item.definition, config=config).infer()
                cold[item.name] = _digest(outcome_fingerprint(result))
            self.fill_s = time.perf_counter() - started
            with open(os.path.join(staging, "cold.json"), "w", encoding="utf-8") as handle:
                json.dump(cold, handle, sort_keys=True)
            try:
                os.rename(staging, root)
            except OSError:  # filled meanwhile by another run
                shutil.rmtree(staging, ignore_errors=True)
        with open(os.path.join(root, "cold.json"), encoding="utf-8") as handle:
            self.cold = json.load(handle)
        self.pristine = os.path.join(root, "store")
        self.work = tempfile.mkdtemp(prefix="warm-", dir=STATE)

    def prepare(self) -> list:
        """Load the workload's modules.  The working store is reset before
        each pass (:meth:`before_pass`), outside set-up: that is the
        benchmark's own file work, which a user's set-up does not have."""
        import workloads

        if self.name == "gen-corpus":
            return workloads.corpus_items(self.seed)
        items = workloads.suite_items(ROOT)
        if self.name == "warm-restart":
            items += workloads.edited_items(ROOT)
        return items

    def config(self):
        from repro.experiments.runner import quick_config

        if self.work is None:
            return quick_config()
        return quick_config().with_cache_dir(os.path.join(self.work, "store"))

    def before_pass(self) -> None:
        """Reset the store a pass works on to the filled state.

        The copy is a tree of hard links to the filled store's files: the
        store writes an entry to a temporary file and renames it over the
        old one, never into an existing file, so a pass cannot change the
        filled store, and no pass waits on 4 MB of disk writes."""
        if self.work is not None:
            store = os.path.join(self.work, "store")
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(self.pristine, store, copy_function=os.link)

    def check(self, item, row: dict) -> List[str]:
        """Workload-specific expectations on one module's first pass."""
        if self.work is None:
            return []
        problems = []
        if row["fingerprint"] != self.cold[item.edited_from or item.name]:
            problems.append("warm outcome differs from the cold fill")
        misses = 1 if item.edited_from else 0
        if row["disk_misses"] != misses:
            problems.append(f"{row['disk_misses']} store misses, expected {misses}")
        return problems

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


def run_pass(items: list, config, tracer=None) -> List[dict]:
    """Infer every module once; one row per module (time excludes rows).

    ``wall_s`` is the module's wall time; ``verdict_s`` scales it by the
    host speed the reference workload measured just before and just after
    it (``hostspeed.py``)."""
    from repro.core.hanoi import HanoiInference
    from repro.gen.diff import outcome_fingerprint

    rows = []
    before = hostspeed.reference_s()
    for item in items:
        frame = None
        if tracer is not None:
            tracer.run_id += 1
            frame = tracer.begin("module")
        started = time.perf_counter()
        error = None
        try:
            result = HanoiInference(item.definition, config=config).infer()
        except Exception as exc:  # recorded as a failed module, run continues
            result, error = None, repr(exc)
        wall = time.perf_counter() - started
        row = {"module": item.name, "wall_s": wall}
        if tracer is not None:
            row["wall_s"] = tracer.end(frame)
            row["layers"] = tracer.take()
        after = hostspeed.reference_s()
        row["verdict_s"] = row["wall_s"] * hostspeed.speed([before, after])
        before = after
        if result is None:
            row.update(status="error", error=error, iterations=0, fingerprint=None,
                       invariant=None, disk_hits=0, disk_misses=0)
        else:
            row.update(status=result.status, iterations=result.iterations,
                       fingerprint=_digest(outcome_fingerprint(result)),
                       invariant=(result.render_invariant()
                                  if result.invariant is not None else None),
                       disk_hits=result.stats.disk_cache_hits,
                       disk_misses=result.stats.disk_cache_misses)
        rows.append(row)
        # Each module starts on a collected heap, as in a fresh process, so
        # its time does not depend on which modules ran before it.
        result = None
        gc.collect()
    return rows


def _determinism(key: str, record: dict, digest: str) -> List[str]:
    """Compare deterministic outputs with an earlier run of the same seed
    and program; the first run of a key records them."""
    path = os.path.join(STATE, "determinism", key + ".json")
    try:
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
    except (OSError, ValueError):
        earlier = None
    if earlier is not None and earlier.get("program") == digest:
        return [f"determinism: {name} differs from an earlier run of this seed"
                for name in sorted(record) if earlier["record"].get(name) != record[name]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"program": digest, "record": record}, handle, sort_keys=True)
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up only and print the set-up time (see ``measure_setup``).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A termination signal unwinds like an exception, so the ``finally``
    # blocks that kill and wait for child processes run on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for needed in ("src/repro", "examples/modules"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            _fail(f"{needed} not found under {ROOT}: run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    import recheck
    import workloads
    import repro.core.hanoi  # noqa: F401  (import cost belongs to set-up)
    import repro.experiments.runner  # noqa: F401
    import repro.gen.diff  # noqa: F401
    import_s = time.perf_counter() - _STARTED

    references = [_REFERENCE_AT_START, hostspeed.reference_s()]
    workload = Workload(args.workload, args.seed, recheck.program_digest(ROOT))
    try:
        workload.fill()
        started = time.perf_counter()
        items = workload.prepare()
        setup_wall_s = import_s + time.perf_counter() - started
        if args.setup_only:
            references.append(hostspeed.reference_s())
            print(json.dumps({"wall_s": setup_wall_s,
                              "speed": hostspeed.speed(references)}))
            return 0
        setup_s, setup_wall_s = measure_setup(args) if not args.trace else (None, None)
        items = workloads.seeded_order(items, args.seed)
        return report(args, workload, items, setup_s, setup_wall_s)
    finally:
        workload.close()


def measure_setup(args) -> Tuple[float, float]:
    """``setup_s`` and its unscaled wall time: the medians over
    ``SETUP_REPEATS`` fresh processes that import the program and prepare
    the workload (the warm-restart store is filled already)."""
    scaled, walls = [], []
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        # run() waits for the child, and kills and waits for it on timeout.
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        walls.append(probe["wall_s"])
        scaled.append(probe["wall_s"] * probe["speed"])
    return statistics.median(scaled), statistics.median(walls)


def timed(items, workload: Workload, seconds: float, passes: int = 1,
          tracer=None) -> List[List[dict]]:
    """Whole passes over ``items``: at least ``passes``, and until
    ``seconds`` have elapsed."""
    runs: List[List[dict]] = []
    elapsed = 0.0
    while len(runs) < passes or elapsed < seconds:
        workload.before_pass()
        gc.collect()
        rows = run_pass(items, workload.config(), tracer)
        elapsed += sum(row["wall_s"] for row in rows)
        runs.append(rows)
    return runs


def report(args, workload: Workload, items, setup_s: Optional[float],
           setup_wall_s: Optional[float]) -> int:
    """Run the timed region, check its outputs and print the result."""
    import recheck
    import tracer as tracing

    problems: List[str] = []
    tracer = None
    overhead = None
    if args.trace:
        # One untraced pass is the overhead baseline; the traced pass gives
        # every per-layer number.  Set-up loading is traced once more.
        baseline = timed(items, workload, 0.0)[0]
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            workload.prepare()
            load = tracer.take()
            runs = timed(items, workload, 0.0, tracer=tracer)
        finally:
            restore()
        untraced_s = sum(row["verdict_s"] for row in baseline)
        traced_s = sum(row["verdict_s"] for row in runs[0])
        overhead = {"untraced_s": untraced_s, "traced_s": traced_s}
        if tracer.unbalanced:
            problems.append(f"trace: {tracer.unbalanced} spans closed out of order")
    else:
        runs = timed(items, workload, args.seconds, MIN_PASSES.get(args.workload, 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness: fingerprints stable across passes, workload checks,
    # -- independent recheck of every success.
    first = runs[0]
    by_name = {item.name: item for item in items}
    for rows in runs[1:]:
        for a, b in zip(first, rows):
            if a["fingerprint"] != b["fingerprint"]:
                problems.append(f"{a['module']}: outcome changed between passes")
    for row in first:
        if row["status"] == "error":
            problems.append(f"{row['module']}: {row['error']}")
        problems.extend(f"{row['module']}: {p}"
                        for p in workload.check(by_name[row["module"]], row))
    tasks = {}
    for row in first:
        if row["status"] == "success":
            item = by_name[row["module"]]
            tasks[item.name] = (item.kind, item.reference, item.rule, row["invariant"])
    checker = recheck.Rechecker(os.path.join(STATE, "recheck"), workload.digest)
    try:
        verdicts = checker.verdicts(list(tasks.values()))
    except Exception as exc:  # a crashed checker leaves the run unverified
        problems.append(f"recheck failed: {exc!r}")
        verdicts = {}
    successes = rejected = failed_modules = 0
    for row in first:
        verdict = verdicts.get(tasks.get(row["module"]))
        row["recheck"] = verdict[0] if verdict else None
        row["recheck_detail"] = verdict[1] if verdict else None
        successes += row["status"] == "success"
        rejected += row["recheck"] == recheck.REJECTED
        row["failed"] = row["status"] != "success" or row["recheck"] != recheck.CONFIRMED
        failed_modules += row["failed"]

    # -- per-module verdict times: median over passes, one sample per module.
    times = {row["module"]: [] for row in first}
    walls = {row["module"]: [] for row in first}
    for rows in runs:
        for row in rows:
            times[row["module"]].append(row["verdict_s"])
            walls[row["module"]].append(row["wall_s"])
    for row in first:
        row["verdict_s_passes"] = times[row["module"]]
        row["wall_s_passes"] = walls[row["module"]]
        row["verdict_s"] = statistics.median(times[row["module"]])
        row["wall_s"] = statistics.median(walls[row["module"]])
    # Every module run is one operation and one sample.
    samples = [value for values in times.values() for value in values]
    attempted = len(first) * len(runs)
    failed = failed_modules * len(runs)
    total_s = sum(sum(values) for values in times.values())
    wall_s = sum(sum(values) for values in walls.values())
    verdict_tail = tail(samples)

    record = {row["module"]: [row["fingerprint"], row["recheck"]] for row in first}
    if tracer is not None:
        # Self times must account for no more than each module's wall time.
        for row in first:
            layer_total = sum(v for k, v in row["layers"].items() if k.endswith(".self_s"))
            if layer_total > row["wall_s"] * (1 + 1e-9) + 1e-9:
                problems.append(f"{row['module']}: layer self time exceeds wall time")
        totals: Dict[str, float] = {}
        for row in first:
            for key, value in row["layers"].items():
                totals[key] = totals.get(key, 0) + value
        layers = tracing.layer_metrics(totals)
        for counter in ("lang.eval.steps", "verify.sufficiency.structures",
                        "synth.calls", "core.iterations"):
            record[counter] = layers[counter]
        trace_path = os.path.join(
            STATE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems.extend(_determinism(key, record, checker.digest))

    info = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "passes": len(runs), "modules": len(first),
        "verdict_s.tail": {"percentile": verdict_tail["percentile"],
                           "samples": verdict_tail["samples"]},
        "failed_ratio": failed / attempted,
        "unconfirmed_ratio": rejected / successes if successes else 0.0,
        "rechecks_computed": checker.computed, "store_fill_s": workload.fill_s,
        "wall": {"setup_s": setup_wall_s, "modules_per_s": attempted / wall_s,
                 "speed": total_s / wall_s},
        "problems": problems,
    }
    for row in first:
        print(json.dumps({"row": row}, sort_keys=True))
    print(json.dumps({"info": info}, sort_keys=True))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "modules_per_s": (attempted / total_s, "1/s"),
            "verdict_s.p50": (quantile(samples, 0.5), "s"),
            "verdict_s.tail": (verdict_tail["value"], "s"),
            "confirmed_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
        metrics["setup.load_s"] = (
            sum(v for k, v in load.items() if k.endswith(".self_s")), "s")
        metrics["failed_ratio"] = (info["failed_ratio"], "ratio")
        metrics["unconfirmed_ratio"] = (info["unconfirmed_ratio"], "ratio")
        metrics["trace.modules_per_s"] = (len(first) / overhead["traced_s"], "1/s")
        metrics["trace.overhead_ratio"] = (overhead["traced_s"] / overhead["untraced_s"],
                                           "ratio")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
