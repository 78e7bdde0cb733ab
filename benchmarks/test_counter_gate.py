"""The perfbench counter gate (check_counters.py) reports every difference."""

import json
import os

from check_counters import BASELINE, counter_diff, main


def _metrics(counters):
    return {name: {"value": value, "unit": "count"} for name, value in counters.items()}


def test_baseline_names_the_gated_counters():
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert (baseline["workload"], baseline["seed"]) == ("suite-quick", 0)
    assert set(baseline["counters"]) == {
        "lang.eval.steps", "lang.eval.calls", "verify.sufficiency.structures",
        "synth.calls", "core.iterations"}


def test_diff_lists_changed_and_missing_counters():
    baseline = {"lang.eval.steps": 100, "synth.calls": 5, "core.iterations": 7}
    assert counter_diff(baseline, _metrics(baseline)) == []
    measured = _metrics({"lang.eval.steps": 103, "synth.calls": 5})
    assert counter_diff(baseline, measured) == [
        "core.iterations: baseline 7, measured None",
        "lang.eval.steps: baseline 100, measured 103 (+3)",
    ]


def test_main_fails_on_a_moved_counter(tmp_path, capsys):
    with open(BASELINE, encoding="utf-8") as handle:
        counters = dict(json.load(handle)["counters"])
    output = os.path.join(str(tmp_path), "result.jsonl")
    for moved, status in ((0, 0), (1, 1)):
        counters["synth.calls"] += moved
        with open(output, "w", encoding="utf-8") as handle:
            handle.write('{"info": {}}\n')
            handle.write(json.dumps({"correct": True, "metrics": _metrics(counters)}) + "\n")
        assert main([output]) == status
    assert "synth.calls: baseline" in capsys.readouterr().out
