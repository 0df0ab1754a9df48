"""Tests of the benchmark's tracer, statistics and failure accounting.

They import the program from ``src/`` (as the rest of the suite does) and
write only under pytest's temporary directories.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import layers, run, stats, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that only moves when the test advances it."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_on_nested_spans():
    # MemoryAdaptiveTrainer.fit -> Trainer.fit -> train_step -> install, with
    # the time each level spends outside its children set by the fake clock
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def install():
        clock.advance(3)

    def train_step():
        clock.advance(5)
        install()

    def trainer_fit(steps):
        clock.advance(7)
        for _ in range(steps):
            train_step()

    def mat_fit():
        clock.advance(11)
        trainer_fit(2)

    install = t.wrap(install, "matic.masking.install")
    train_step = t.wrap(train_step, "matic.training.train_step")
    trainer_fit = t.wrap(trainer_fit, "nn.trainer.fit")
    mat_fit = t.wrap(mat_fit, "matic.training.fit")
    t.op = 0
    mat_fit()
    trainer_fit(1)  # a float baseline fit, outside MAT

    totals = tracer.aggregate(t.spans)
    ns = 1e-9
    assert totals["matic.training.fit"].calls == 1
    assert totals["matic.training.fit"].busy_s == pytest.approx(34 * ns)
    assert totals["matic.training.fit"].self_s == pytest.approx(11 * ns)
    assert totals["matic.training.train_step"].calls == 3
    assert totals["matic.training.train_step"].self_s == pytest.approx(15 * ns)
    assert totals["matic.masking.install"].busy_s == pytest.approx(9 * ns)
    # the super().fit inside MAT is not a float baseline fit
    assert totals["nn.trainer.fit"].calls == 1
    assert totals["nn.trainer.fit"].busy_s == pytest.approx(15 * ns)
    assert totals["nn.trainer.fit"].self_s == pytest.approx(7 * ns)
    tree = tracer.stage_tree(t.spans)
    top_level = sum(entry.busy_s for path, entry in tree.items() if len(path) == 1)
    assert top_level == pytest.approx(49 * ns)
    mat_path = ("matic.training.fit", "nn.trainer.fit", "matic.training.train_step")
    assert tree[mat_path].calls == 2
    assert tree[mat_path + ("matic.masking.install",)].busy_s == pytest.approx(6 * ns)
    assert tree[("nn.trainer.fit",)].busy_s == pytest.approx(15 * ns)


def test_same_name_nesting_counts_one_call():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def quantize_to_code():
        clock.advance(2)

    def quantize():
        clock.advance(1)
        quantize_to_code()

    quantize_to_code = t.wrap(quantize_to_code, "quant.fixed_point")
    quantize = t.wrap(quantize, "quant.fixed_point")
    quantize()
    totals = tracer.aggregate(t.spans)["quant.fixed_point"]
    assert (totals.calls, totals.busy_s, totals.self_s) == (
        1,
        pytest.approx(3e-9),
        pytest.approx(3e-9),
    )
    assert list(tracer.stage_tree(t.spans)) == [("quant.fixed_point",)]


def test_notes_and_exceptions_close_spans():
    t = tracer.Tracer()

    def get(hit):
        if hit is None:
            raise KeyError("boom")
        return "value" if hit else None

    get = t.wrap(get, "experiments.cache.get", note=lambda first, result: int(result is not None))
    get(True)
    get(False)
    with pytest.raises(KeyError):
        get(None)
    totals = tracer.aggregate(t.spans)["experiments.cache.get"]
    assert totals.calls == 3
    assert totals.notes == [1, 0]
    assert None not in t.spans  # every span closed


@pytest.mark.parametrize(
    "count, keys",
    [
        (1, {"n", "p50"}),
        (99, {"n", "p50"}),
        (100, {"n", "p50", "p90"}),
        (1000, {"n", "p50", "p90"}),
    ],
)
def test_latency_summary_keys_follow_sample_count(count, keys):
    summary = stats.latency_summary([float(i) for i in range(count)])
    assert set(summary) == keys
    assert summary["n"] == count


def test_percentiles_interpolate_like_numpy():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 0.5) == 3.0
    assert stats.percentile(samples, 0.9) == pytest.approx(4.6)
    assert stats.percentile([7.0], 0.9) == 7.0
    summary = stats.latency_summary([float(i) for i in range(1, 101)])
    assert summary == {"n": 100, "p50": 50.5, "p90": pytest.approx(90.1)}
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def _originals() -> list:
    found = []
    for _name, module, qualname, _note in tracer.TARGETS:
        owner, attr = tracer.resolve(module, qualname)
        found.append(vars(owner)[attr])
    return found


class ProbeWorkload(workloads.Workload):
    """Records, per op, whether any traced target was wrapped during it."""

    name = "probe"
    max_ops = 4

    def op(self, index):
        import numpy as np
        from repro.nn.network import Network

        self.seen = getattr(self, "seen", {})
        self.seen[index] = _originals() != ORIGINALS
        Network("2-2-1", seed=0).forward(np.full((1, 2), 0.5))
        return index

    def check(self, index, output):
        return output == index


ORIGINALS: list = []


def test_traced_run_removes_every_wrapper(tmp_path):
    ORIGINALS[:] = _originals()
    workload = ProbeWorkload(tmp_path, 1, None)
    traced = run.Run(workload, seconds=60.0, traced=True)
    traced.loop()
    assert workload.seen == {0: False, 1: True, 2: False, 3: True}
    assert _originals() == ORIGINALS
    assert traced.tracer.installed == 0
    forward = tracer.aggregate(traced.tracer.spans)["nn.network.forward"]
    assert forward.calls == 2  # one per traced op

    workload = ProbeWorkload(tmp_path, 1, None)
    untraced = run.Run(workload, seconds=60.0, traced=False)
    untraced.loop()
    assert untraced.tracer is None
    assert not any(workload.seen.values())
    assert _originals() == ORIGINALS


def test_missing_target_is_skipped(capsys):
    t = tracer.Tracer()
    t.install([("nn.gone", "repro.nn.network", "Network.no_such_method", None)])
    t.install([("nn.gone", "repro.nn.network", "Network.no_such_method", None)])
    assert t.installed == 0
    assert capsys.readouterr().err.count("Network.no_such_method") == 1


class FlakyWorkload(workloads.Workload):
    """Op 1 renders a wrong output, op 2 raises, op 3 is wrong at the end."""

    name = "flaky"
    max_ops = 5

    def op(self, index):
        if index == 2:
            raise RuntimeError("op failed")
        return "wrong" if index == 1 else "right"

    def check(self, index, output):
        return output == "right"

    def finish(self, outputs):
        return {3}


def test_mismatched_output_counts_as_failed_op(tmp_path):
    loop = run.Run(FlakyWorkload(tmp_path, 1, None), seconds=60.0, traced=False)
    loop.loop()
    assert len(loop.op_s) == 5
    assert loop.failed == {1, 2, 3}
    metrics = loop.end_to_end(setup_s=0.5)
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 / sum(loop.op_s.values()))


def test_driver_workload_rejects_a_mismatched_table(tmp_path):
    warm = workloads.Fig10Warm(tmp_path, 1, None)
    warm.cold = "table"
    assert warm.check(0, (0, "table"))
    assert not warm.check(0, (0, "other table"))
    assert not warm.check(0, (1, "table"))
    queue = workloads.SweepQueue(tmp_path, 5, None)
    queue.serial = "serial table"
    assert not queue.check(0, (0, "queue table"))


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _value in layers.PER_LAYER
    ]
    loop = run.Run(FlakyWorkload(tmp_path, 1, None), seconds=60.0, traced=False)
    loop.loop()
    produced = loop.end_to_end(setup_s=0.5)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, value["unit"]) for name, value in produced.items()
    ]
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
