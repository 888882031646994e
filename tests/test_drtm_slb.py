"""SLB measurement: code identity derivation."""

from __future__ import annotations

import gc
import inspect
import weakref
from typing import Dict

import pytest

from repro.core import ConfirmationPal, SetupPal
from repro.drtm import slb as slb_module
from repro.drtm.pal import Pal, PalServices
from repro.drtm.session import FlickerSession
from repro.drtm.slb import SecureLoaderBlock, measured_image
from repro.os.malware import _ImpostorPal


class _PalA(Pal):
    name = "a"

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        return {"tag": b"a"}


class _PalB(Pal):
    name = "b"

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        return {"tag": b"b"}


class _PalASubclass(_PalA):
    """Overrides nothing new except this docstring — still different code."""


class _ConfiguredPal(Pal):
    def __init__(self, version: bytes) -> None:
        self.version = version

    def config_bytes(self) -> bytes:
        return self.version

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        return {}


class TestMeasuredImage:
    def test_deterministic(self):
        assert measured_image(_PalA()) == measured_image(_PalA())

    def test_different_classes_differ(self):
        assert measured_image(_PalA()) != measured_image(_PalB())

    def test_subclass_differs_from_base(self):
        # Behaviour inherited but identity changed: the measurement
        # must cover the whole MRO.
        assert measured_image(_PalASubclass()) != measured_image(_PalA())

    def test_config_bytes_included(self):
        assert measured_image(_ConfiguredPal(b"v1")) != measured_image(
            _ConfiguredPal(b"v2")
        )
        assert measured_image(_ConfiguredPal(b"v1")) == measured_image(
            _ConfiguredPal(b"v1")
        )

    def test_setup_and_confirmation_pal_share_identity(self):
        """The protocol requires one identity for both phases — that is
        why SetupPal subclasses ConfirmationPal and the client launches
        SetupPal for both (see repro.core.setup)."""
        setup_measurement = SecureLoaderBlock.package(SetupPal()).measurement()
        confirmation_measurement = SecureLoaderBlock.package(
            ConfirmationPal()
        ).measurement()
        # They are different classes, hence different measurements — the
        # client must launch the *same* class for both phases.
        assert setup_measurement != confirmation_measurement
        assert (
            SecureLoaderBlock.package(SetupPal()).measurement()
            == setup_measurement
        )


def _uncached_image(pal: Pal) -> bytes:
    """The measured image computed from scratch: the reference the
    per-class source cache must reproduce byte for byte."""
    sources = []
    for cls in type(pal).__mro__:
        if cls is object:
            continue
        try:
            sources.append(inspect.getsource(cls))
        except (OSError, TypeError):
            sources.append(f"<unsourced:{cls.__module__}.{cls.__qualname__}>")
    return "\n".join(sources).encode("utf-8") + b"\x00CONFIG\x00" + pal.config_bytes()


def _local_pal_class():
    class LocalPal(Pal):
        name = "local"

        def run(self, services: PalServices, inputs: Dict[str, bytes]):
            return {"tag": b"local"}

    return LocalPal


@pytest.fixture
def cold_source_cache(monkeypatch):
    """An empty per-class source cache for this test only."""
    monkeypatch.setattr(slb_module, "_CLASS_SOURCES", weakref.WeakKeyDictionary())


class TestSourceCache:
    @pytest.mark.parametrize(
        "make_pal",
        [SetupPal, ConfirmationPal, _ImpostorPal, lambda: _local_pal_class()()],
        ids=["SetupPal", "ConfirmationPal", "_ImpostorPal", "local"],
    )
    def test_cached_image_matches_uncached_reference(self, make_pal):
        pal = make_pal()
        reference = _uncached_image(pal)
        assert measured_image(pal) == reference
        assert measured_image(pal) == reference  # served from the cache

    def test_subclass_defined_after_base_is_cached_differs(self):
        base = _local_pal_class()
        base_image = measured_image(base())

        class LateSubclass(base):
            """Defined only after its base's source was cached."""

        assert measured_image(LateSubclass()) != base_image
        assert measured_image(LateSubclass()) == _uncached_image(LateSubclass())
        assert measured_image(base()) == base_image

    def test_config_bytes_stay_per_instance(self):
        first, second = _ConfiguredPal(b"v1"), _ConfiguredPal(b"v2")
        assert measured_image(first).endswith(b"\x00CONFIG\x00v1")
        assert measured_image(second).endswith(b"\x00CONFIG\x00v2")
        first.version = b"v3"
        assert measured_image(first).endswith(b"\x00CONFIG\x00v3")

    def test_function_local_class_is_collectable(self, cold_source_cache):
        cls = _local_pal_class()
        measured_image(cls())
        assert cls in slb_module._CLASS_SOURCES
        ref = weakref.ref(cls)
        del cls
        gc.collect()
        assert ref() is None
        # Only the module-level bases (Pal and its own bases) stay cached.
        assert set(slb_module._CLASS_SOURCES) == set(Pal.__mro__) - {object}

    def test_source_read_once_per_class(
        self, cold_source_cache, monkeypatch, simulator, machine
    ):
        """Timing-free guard: 20 sessions of one PAL class read each
        class of its MRO (``object`` excepted) exactly once."""
        calls = []
        original = inspect.getsource

        def counting(obj):
            calls.append(obj)
            return original(obj)

        monkeypatch.setattr(inspect, "getsource", counting)
        cls = _local_pal_class()
        session = FlickerSession(simulator, machine)
        for _ in range(20):
            record = session.run(cls(), {})
            assert not record.aborted, record.abort_reason
        assert len(calls) == len(cls.__mro__) - 1
        assert set(calls) == set(cls.__mro__) - {object}


class TestSecureLoaderBlock:
    def test_padding_floor_is_image_size(self):
        slb = SecureLoaderBlock.package(_PalA(), padded_size=1)
        assert slb.padded_size == len(slb.image)

    def test_padding_respected_when_larger(self):
        slb = SecureLoaderBlock.package(_PalA(), padded_size=1 << 20)
        assert slb.padded_size == 1 << 20

    def test_measurement_is_sha1_of_image(self):
        from repro.crypto.sha1 import sha1

        slb = SecureLoaderBlock.package(_PalA())
        assert slb.measurement() == sha1(slb.image)

    def test_measurement_independent_of_padding(self):
        small = SecureLoaderBlock.package(_PalA(), padded_size=4096)
        large = SecureLoaderBlock.package(_PalA(), padded_size=1 << 20)
        assert small.measurement() == large.measurement()
