"""The layer trace: self-time accounting and complete restoration."""

from __future__ import annotations

import inspect
import sys

import pytest

import workloads  # noqa: F401  (imports every module the trace wraps)
from layers import LAYERS, LayerTrace, event_span


def _program_attributes():
    """id() of every attribute of every loaded repro module and of
    every class those modules define."""
    seen = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            seen[(module_name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == module_name:
                for class_attr, member in vars(value).items():
                    seen[(module_name, attr, class_attr)] = id(member)
    return seen


def test_uninstall_restores_every_wrapped_attribute():
    from repro.net import messages
    from repro.sim.kernel import Simulator

    before = _program_attributes()
    original_run = Simulator.run
    trace = LayerTrace()
    trace.install()
    try:
        assert Simulator.run is not original_run
        assert hasattr(messages.encode_message, "perf_span")
        assert _program_attributes() != before
    finally:
        trace.uninstall()
    assert _program_attributes() == before
    assert Simulator.run is original_run


def test_self_time_excludes_child_spans():
    trace = LayerTrace()

    def inner():
        return sum(range(20_000))

    wrapped_inner = trace.wrap("codec.encode", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = trace.wrap("sim.run", outer)
    wrapped_outer()
    assert not trace.calls, "spans record only while recording"

    trace.start()
    wrapped_outer()
    trace.stop()
    assert trace.calls == {"sim.run": 1, "codec.encode": 2}
    total = trace.self_s["sim.run"] + trace.self_s["codec.encode"]
    assert total == pytest.approx(trace.top_level_s, rel=1e-9)
    assert 0 <= trace.self_s["sim.run"] < trace.top_level_s


def test_every_event_label_maps_to_a_layer_span():
    spans = {name for names in LAYERS.values() for name in names}
    for label in (
        "net:a->b", "rpc:serve:tx.confirm", "loadgen:arrival",
        "rebalance.flip_up", "autoscaler.tick", "fault:crash:x", "other",
    ):
        assert event_span(label) in spans


def test_layers_partition_the_spans():
    names = [name for spans in LAYERS.values() for name in spans]
    assert len(names) == len(set(names))
