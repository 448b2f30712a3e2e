"""Self-test of the flowpipe benchmark: determinism, trace sanity and the
agreement of BENCHMARK.json with spec.py.

    python3 -m pytest -q perfbench

Runs every timed model a few times in child processes (about a minute on
a 2-core machine).
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

# Entry points that no timed model reaches at seed, with the reason; they
# stay wrapped so a change that reaches them shows up in the trace.
UNREACHED = {
    "events.resolve_hull_only": "no timed model has a hull-only activation",
}

# The workload built to exercise each layer (see spec.WORKLOADS).
EXERCISED_BY = {
    "integrator.guaranteed_step": "flow",
    "integrator.picard_enclosure": "flow",
    "integrator.rk_stages": "flow",
    "integrator.truncation_bound": "flow",
    "integrator.embedded_error": "flow",
    "integrator.env_condense": "flow",
    "events.classify": "events",
    "events.tight_interval": "events",
    "events.cross": "events",
    "events.chain_immediate": "events",
    "events.edge_cannot_fire": "events",
    "interpolator.build_gpoly": "events",
    "interpolator.eval_gpoly": "events",
    "expr.eval_affine_many": "flow",
    "dsl.parse_dsl": "flow",
    "jsonmodel.parse_json_automaton": "tank",
    "expr.prepare_automaton": "tank",
}
NARROWING = ("interpolator.eval_gpoly", "events.tight_interval",
             "interpolator.build_gpoly", "events.cross")


def child(model: str, trace: bool, hash_seed: str = "0") -> dict:
    job = {"model": model, "box_seed": f"1:{model}", "mc_seed": 1,
           "validate": False, "trace": trace}
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           json.dumps(job)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """One traced instance of every timed model, grouped by workload."""
    return {w: [child(m, trace=True) for m in d["models"]]
            for w, d in spec.WORKLOADS.items()}


def calls(outs, layer) -> int:
    return sum(o["trace"]["layers"].get(layer, {}).get("calls", 0)
               for o in outs)


def cpu(outs, layer) -> float:
    return sum(o["trace"]["layers"].get(layer, {}).get("cpu_s", 0.0)
               for o in outs)


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_mirrors_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, d["why"]) for name, d in spec.WORKLOADS.items()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == {
        n: (unit, better) for n, (unit, better, _) in spec.PER_LAYER.items()}


def test_every_layer_metric_has_a_source():
    layers = {layer for _, _, layer in layertrace.ENTRY_POINTS}
    layers |= {layertrace.SIMULATE, layertrace.PREPARE}
    for name in spec.PER_LAYER:
        if name.endswith(".cpu_s"):
            assert name[:-len(".cpu_s")] in layers, name


# ------------------------------------------------------------- trace sanity


def _code_objects(mod):
    todo = []
    for obj in vars(mod).values():
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
            todo.append(obj.__code__)
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            todo.extend(f.__code__ for f in vars(obj).values()
                        if isinstance(f, types.FunctionType))
    while todo:
        code = todo.pop()
        yield code
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))


def misplaced(entry_points) -> list:
    """Entry points patched in a module that never calls them by that
    global name, so the wrapper would silently see no calls."""
    import importlib

    out = []
    for mod_name, attr, layer in entry_points:
        mod = importlib.import_module(mod_name)
        if not any(attr in c.co_names for c in _code_objects(mod)):
            out.append(layer)
    return out


def test_entry_points_are_patched_where_they_are_called():
    assert misplaced(layertrace.ENTRY_POINTS) == []


def test_a_wrap_on_the_wrong_module_is_caught():
    """Patching `eval_gpoly` where it is defined instead of where it is
    called is flagged statically and sees no calls at run time."""
    from hyflow import benchmarks, engine

    wrong = (("hyflow.interpolator", "eval_gpoly", "wrong.eval_gpoly"),)
    assert misplaced(wrong) == ["wrong.eval_gpoly"]
    tracer = layertrace.Tracer()
    restore = tracer.install(layertrace.ENTRY_POINTS + wrong)
    try:
        ha, cfg = benchmarks.load(benchmarks.REGISTRY["bouncing_ball"])
        engine.simulate(ha, cfg)
    finally:
        restore()
    layers = tracer.summary()
    assert layers["interpolator.eval_gpoly"]["calls"] > 0
    assert "wrong.eval_gpoly" not in layers


def test_every_entry_point_is_called_on_its_workload(traced):
    for layer in [e[2] for e in layertrace.ENTRY_POINTS] + [layertrace.PREPARE]:
        if layer in UNREACHED:
            everywhere = [o for outs in traced.values() for o in outs]
            assert calls(everywhere, layer) == 0, (
                f"{layer} is now reached: drop it from UNREACHED")
            continue
        workload = EXERCISED_BY[layer]
        assert calls(traced[workload], layer) > 0, (layer, workload)


def test_no_narrowing_on_flow(traced):
    for layer in NARROWING:
        assert calls(traced["flow"], layer) == 0, layer


def test_self_times_add_up_to_simulate(traced):
    for o in (o for outs in traced.values() for o in outs):
        t = o["trace"]
        assert t["nesting_errors"] == [], o["model"]
        assert t["self_sum_s"] == pytest.approx(t["simulate_s"], abs=1e-6)
        assert t["simulate_s"] == pytest.approx(o["cpu_s"], rel=1e-3)


def test_trace_reproduces_the_seed_profile_shape(traced):
    flow, events, tank = traced["flow"], traced["events"], traced["tank"]
    integ = ("picard_enclosure", "rk_stages", "truncation_bound",
             "embedded_error", "env_condense")
    shares = {n: cpu(flow, f"integrator.{n}") for n in integ}
    assert max(shares, key=shares.get) == "truncation_bound", shares
    assert (cpu(events, "events.tight_interval")
            > cpu(events, "integrator.guaranteed_step"))
    per_call = {w: cpu(outs, "interpolator.eval_gpoly")
                / calls(outs, "interpolator.eval_gpoly")
                for w, outs in (("events", events), ("tank", tank))}
    assert per_call["tank"] > per_call["events"], per_call


# -------------------------------------------------------------- determinism


DETERMINISTIC = ("steps", "rejections", "crossings", "final_width",
                 "peak_width", "zc_window_s", "fingerprint")


@pytest.mark.parametrize("model", ["thermostat", "bouncing_ball", "vanderpol"])
def test_outputs_repeat_across_runs_and_hash_seeds(traced, model):
    first = next(o for outs in traced.values() for o in outs
                 if o["model"] == model)
    for again in (child(model, trace=True, hash_seed="0"),
                  child(model, trace=True, hash_seed="4242"),
                  child(model, trace=False, hash_seed="77")):
        for key in DETERMINISTIC:
            assert again[key] == first[key], (model, key)
        if "trace" in again:
            assert (calls([again], "interpolator.eval_gpoly")
                    == calls([first], "interpolator.eval_gpoly"))
            assert again["trace"]["counts"] == first["trace"]["counts"]


# -------------------------------------------------------- harness behaviour


def test_limit_and_gate_failures_are_counted():
    ok = {"model": "m", "traced": False, "gate": {"failed": True,
          "reason": "1 of 16 samples escaped"},
          **{k: 1 for k in run.DETERMINISTIC}}
    again = {k: v for k, v in ok.items() if k != "gate"}
    limited = {"model": "m", "limit": "signal 24", "traced": False}
    attempted, failed, correct, notes = run.check({"m": [ok, again, limited]})
    assert (attempted, failed, correct) == (1, 1, True)
    assert any("resource limit" in n for n in notes)
    passed = dict(ok, gate={"failed": False, "reason": ""})
    # the counts follow the models, not how many repeats fit into a run
    assert run.check({"m": [passed]})[:2] == (1, 0)
    assert run.check({"m": [passed, again, again]})[:2] == (1, 0)
    assert run.check({"m": [passed, limited], "n": [limited]})[:2] == (2, 2)
    differs = dict(again, steps=2)
    assert run.check({"m": [ok, differs]})[2] is False


def test_child_limits_stop_a_runaway_allocation():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import child; "
            "child._limit()\ntry:\n    bytearray(4 * child.spec.MEM_LIMIT_MB"
            " << 20)\nexcept MemoryError:\n    print('contained')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "contained"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "events",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "events",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == list(table)
    assert result["correct"] is True
    assert result["attempted"] == len(spec.WORKLOADS["events"]["models"])
