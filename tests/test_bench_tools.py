"""Bench utilities: tables, workloads, and the world builder."""

from __future__ import annotations

import pytest

from repro.bench.tables import format_series, format_table
from repro.bench.workloads import transfer_stream
from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.sim import Simulator


class TestTables:
    def test_format_table_aligns_and_titles(self):
        rows = [
            {"vendor": "infineon", "ms": 331.0},
            {"vendor": "broadcom", "ms": 972.1234},
        ]
        rendered = format_table("Quote latency", rows, notes="shape check")
        lines = rendered.splitlines()
        assert lines[0] == "== Quote latency =="
        assert "vendor" in lines[1] and "ms" in lines[1]
        assert "infineon" in rendered and "972.1" in rendered
        assert rendered.endswith("note: shape check\n")

    def test_empty_rows(self):
        assert "(no rows)" in format_table("empty", [])

    def test_explicit_column_order(self):
        rows = [{"b": 2, "a": 1}]
        rendered = format_table("t", rows, columns=["b", "a"])
        header = rendered.splitlines()[1]
        assert header.index("b") < header.index("a")

    def test_format_series(self):
        rendered = format_series(
            "F1", "size", ["skinit"], [(4096, 0.02), (65536, 0.03)]
        )
        assert "size" in rendered and "4096" in rendered

    def test_float_rendering_scales(self):
        rows = [{"x": 0.00012}, {"x": 3.14159}, {"x": 1234.5}]
        rendered = format_table("fmt", rows)
        assert "0.0001" in rendered and "3.142" in rendered and "1234.5" in rendered


class TestWorkloads:
    def test_transfer_stream_deterministic(self):
        sim_a, sim_b = Simulator(seed=4), Simulator(seed=4)
        a = list(transfer_stream("alice", sim_a.rng.stream("w"), 10))
        b = list(transfer_stream("alice", sim_b.rng.stream("w"), 10))
        assert a == b

    def test_transfer_amounts_sane(self):
        sim = Simulator(seed=4)
        for tx in transfer_stream("alice", sim.rng.stream("w"), 50):
            assert 100 <= tx.fields["amount"] <= 500_000
            assert tx.kind == "transfer" and tx.account == "alice"


class TestWorldBuilder:
    def test_world_without_providers_rejected_on_use(self):
        world = TrustedPathWorld(WorldConfig(with_bank=False, with_shop=False))
        with pytest.raises(RuntimeError):
            world.default_provider()

    def test_policy_prewired(self, shared_ready_world):
        world = shared_ready_world
        assert world.policy.ca_public_keys == [world.ca.public_key]
        assert (
            world.client.published_pal_measurement()
            in world.policy.approved_pal_measurements
        )

    def test_ready_is_chainable_and_complete(self, shared_ready_world):
        creds = shared_ready_world.client.credentials
        assert creds is not None
        assert creds.sealed_credential is not None
        account = shared_ready_world.bank.accounts[
            shared_ready_world.config.account
        ]
        assert account.registered_key is not None
        assert account.aik_certificate is not None
