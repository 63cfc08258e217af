"""Tests of the benchmark itself: reduced-size runs and tracer hygiene.

From the repository root:

    python3 -m pytest perfbench
"""

import dataclasses
import importlib
import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def small(name: str) -> harness.Workload:
    """The named workload at a size that runs in well under a second."""
    w = harness.WORKLOADS[name]
    if name == "crowd":
        return dataclasses.replace(w, scene=dict(w.scene, num_identities=30, num_frames=8))
    if name == "census":
        return dataclasses.replace(w, videos=3, identities=(10, 15))
    return dataclasses.replace(w, videos=2, scene=dict(w.scene, num_identities=60, num_frames=5))


def originals() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.TARGETS}


def unchanged(before: dict) -> bool:
    return all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_reduced_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    result = harness.run(small(name), 3, 0.2, trace, str(tmp_path))
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        metrics = result["metrics"]
        assert metrics["loss.sinkhorn_unconverged"] == 0
        assert abs(metrics["trace.unaccounted_s"]) < 0.01
        assert os.path.exists(tmp_path / "spans.npz")
    else:
        assert all(v > 0 for v in result["metrics"].values())


def test_untraced_run_installs_no_wrappers(monkeypatch, tmp_path):
    before = originals()
    seen = []
    run_op = harness.run_op

    def spy(op, tr=None):
        seen.append(unchanged(before))
        return run_op(op, tr)

    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(harness, "run_op", spy)
    monkeypatch.setattr(tracer.Tracer, "installed", refuse)
    harness.run(small("transport"), 1, 0.0, False, str(tmp_path))
    assert seen and all(seen)
    assert unchanged(before)


def test_tracer_wraps_every_target_and_restores_it():
    before = originals()
    t = tracer.Tracer()
    with t.installed():
        for (m, a), f in before.items():
            wrapped = getattr(importlib.import_module(m), a)
            assert wrapped is not f and getattr(wrapped, tracer.MARKER)
    assert unchanged(before) and not t.missing
    with pytest.raises(RuntimeError), t.installed():
        raise RuntimeError("body failed")
    assert unchanged(before)


def test_tracer_skips_a_missing_target_and_survives_a_changed_return(monkeypatch):
    counting = importlib.import_module("vicount.counting")
    monkeypatch.delattr(counting, "template_cost")
    monkeypatch.setattr(counting, "step", lambda memory, detections, cfg: None)
    t = tracer.Tracer()
    with t.installed():
        assert counting.step(None, (), None) is None
    assert t.missing == ["vicount.counting.template_cost"]
    assert t.unobserved == {"counting.step": 1}
    assert not hasattr(counting, "template_cost")


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer()
    with t.span("cli.count"):
        with t.span("a"), t.span("b"):
            sum(range(10000))
        with t.span("c"):
            sum(range(10000))
    kind, parent, dur, self_time, root = t.summary()
    assert list(parent) == [-1, 0, 1, 0]
    assert list(root) == [0, 0, 0, 0]
    assert self_time[0] == pytest.approx(dur[0] - dur[1] - dur[3])
    assert self_time.sum() == pytest.approx(dur[0])
    assert (self_time >= 0).all()


def test_failed_check_is_counted_and_the_run_goes_on(tmp_path):
    w = small("census")
    refs = {"reports": [{"sha256": "0" * 64, "total": -1}] * w.videos}
    result = harness.run(w, 3, 0.0, False, str(tmp_path), refs)
    assert not result["correct"]
    assert result["failed"] == w.videos + 1  # every count, and eval over them
    assert result["attempted"] == w.videos + 1


def test_timed_calls_are_paced_by_the_reference_kernel(monkeypatch, tmp_path):
    w = dataclasses.replace(small("crowd"), videos=1)  # one count call, then eval
    inputs, _, _ = harness.set_up(w, 3, str(tmp_path))
    assert all(o.ref_s == 0 for o in harness.run_pass(w, inputs, str(tmp_path)))
    times = iter([0.3, 0.1])
    monkeypatch.setattr(harness, "reference_seconds", lambda: next(times, 0.2))
    monkeypatch.setattr(harness, "REFERENCE_INTERVAL_S", 100.0)  # only the sample before each call
    paced = harness.run_pass(w, inputs, str(tmp_path), paced=True)
    assert [o.ref_s for o in paced] == [0.3, 0.1]


def test_reference_samples_fill_during_the_block_and_restore_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with harness.reference_samples() as samples:
        deadline = time.perf_counter() + 2.0
        while len(samples) < 3 and time.perf_counter() < deadline:
            sum(range(1000))
    assert len(samples) >= 3 and all(t > 0 for t in samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
