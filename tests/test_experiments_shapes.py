"""Experiment shape tests: small-parameter runs of every experiment in
DESIGN.md's index, asserting the *shapes* EXPERIMENTS.md documents.

E4's shape lives in ``tests/test_elasticity.py`` and R3's in
``tests/test_chaos.py``, next to their determinism tests."""

from __future__ import annotations

import pytest

from repro.baselines.adversary import AttackOutcome
from repro.bench.experiments import (
    a1_defense_ablation,
    f6_open_loop_rows,
    fig1_latency_vs_pal_size,
    f3s_sharded_scaling,
    fig2_server_throughput,
    fig4_amortization,
    fig5_noncedb_scalability,
    table1_tpm_microbench,
    table2_session_breakdown,
    table3_end_to_end,
    table4_security_matrix,
    r1_loss_robustness,
    r2_crash_availability,
)
from repro.bench.experiments.amortization import crossover_k
from repro.bench.experiments.captcha_comparison import (
    captcha_attack_rows,
    human_overhead_rows,
    trusted_path_forgery_rows,
)
from repro.bench.experiments.extensions import (
    a2_latency_hiding,
    e1_attention_sweep,
    e3_batch_amortization,
)
from repro.bench.experiments.session_breakdown import setup_phase_rows
from repro.bench.fleet import e2_fleet_rows


class TestT1Microbench:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1_tpm_microbench(vendors=("infineon", "broadcom"))

    def _mean(self, rows, vendor, command):
        return next(
            r["mean_ms"] for r in rows
            if r["vendor"] == vendor and r["command"] == command
        )

    def test_quote_among_most_expensive_per_transaction_ops(self, rows):
        for vendor in ("infineon", "broadcom"):
            quote = self._mean(rows, vendor, "quote")
            for cheap in ("extend", "pcr_read", "get_random", "seal"):
                assert quote > 5 * self._mean(rows, vendor, cheap)

    def test_vendor_variance_on_quote_is_large(self, rows):
        assert self._mean(rows, "broadcom", "quote") > 2.5 * self._mean(
            rows, "infineon", "quote"
        )

    def test_context_free_commands_about_a_millisecond(self, rows):
        for vendor in ("infineon", "broadcom"):
            assert self._mean(rows, vendor, "extend") < 3.0

    def test_quote_dominates_seal_on_every_vendor(self):
        rows = table1_tpm_microbench(vendors=("atmel", "stmicro"), max_samples=5)
        for vendor in ("atmel", "stmicro"):
            assert self._mean(rows, vendor, "quote") > 5 * self._mean(
                rows, vendor, "seal"
            )


class TestT2Breakdown:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2_session_breakdown(
            vendors=("infineon", "broadcom"), repetitions=3
        )

    def _row(self, rows, vendor, variant):
        return next(
            r for r in rows if r["vendor"] == vendor and r["variant"] == variant
        )

    def test_tpm_dominates_machine_phases(self, rows):
        for row in rows:
            machine_phases = (
                row["suspend"] + row["skinit"] + row["cap"] + row["resume"]
            )
            assert row["pal_tpm"] > machine_phases

    def test_signed_variant_lower_perceived_overhead(self, rows):
        for vendor in ("infineon", "broadcom"):
            signed = self._row(rows, vendor, "signed")["perceived_overhead"]
            quote = self._row(rows, vendor, "quote")["perceived_overhead"]
            assert signed < quote

    def test_launch_plumbing_is_milliseconds(self, rows):
        for row in rows:
            assert row["suspend"] < 0.01
            assert row["skinit"] < 0.05
            assert row["resume"] < 0.05

    def test_setup_phase_is_seconds_not_minutes(self):
        rows = setup_phase_rows(vendors=("infineon", "broadcom"))
        assert all(row["setup_total_s"] < 10 for row in rows)


class TestT3EndToEnd:
    def test_practicality_claim(self):
        rows = table3_end_to_end(vendors=("broadcom",), repetitions=3)
        for row in rows:
            assert row["executed"] == row["of"]
            # Machine-added latency within a couple of seconds even on
            # the slowest TPM: the paper's "practical" claim.
            assert row["machine_added_s"] < 2.5


class TestF1PalSize:
    def test_skinit_grows_linearly(self):
        sizes = (16 * 1024, 256 * 1024)
        rows = fig1_latency_vs_pal_size(sizes=sizes, vendors=("infineon",))
        small, large = rows[0], rows[1]
        assert large["skinit_s"] > small["skinit_s"]
        # Slope check: the delta matches the hash rate within 20%.
        from repro.tpm.timing import vendor_profile

        rate = vendor_profile("infineon").slb_hash_bytes_per_second
        expected_delta = (sizes[1] - sizes[0]) / rate
        measured_delta = large["skinit_s"] - small["skinit_s"]
        assert measured_delta == pytest.approx(expected_delta, rel=0.2)


class TestF2Throughput:
    def test_saturation_knee(self):
        rows = fig2_server_throughput(
            offered_loads=(100, 800), workers_options=(1,), duration=3.0
        )
        light, heavy = rows[0], rows[1]
        assert light["rejected"] == 0 and heavy["rejected"] == 0
        # Under light load the server keeps up...
        assert light["completed_rps"] == pytest.approx(100, rel=0.25)
        # ...past saturation it plateaus near 1/service_time (~416rps)
        assert heavy["completed_rps"] < 500
        # ...and queueing delay explodes.
        assert heavy["p95_latency_ms"] > 20 * light["p95_latency_ms"]

    def test_more_workers_raise_the_ceiling(self):
        rows = fig2_server_throughput(
            offered_loads=(800,), workers_options=(1, 4), duration=3.0
        )
        one, four = rows[0], rows[1]
        assert four["completed_rps"] > 1.5 * one["completed_rps"]


class TestF3Captcha:
    def test_captcha_bypass_tracks_solve_rate(self):
        rows = captcha_attack_rows(bot_rates=(0.1, 0.6), attempts=300)
        low, high = rows[0], rows[1]
        assert low["bypass_fraction"] == pytest.approx(0.1, abs=0.06)
        assert high["bypass_fraction"] == pytest.approx(0.6, abs=0.08)

    def test_captcha_farm_bypasses_almost_always(self):
        rows = captcha_attack_rows()
        assert rows[-1]["bypass_fraction"] > 0.9  # the farm setting

    def test_trusted_path_forgeries_all_rejected(self):
        rows = trusted_path_forgery_rows(attempts=150)
        assert rows[0]["bypassed"] == 0

    def test_human_overhead_comparable(self):
        rows = human_overhead_rows(repetitions=3)
        by_scheme = {row["scheme"]: row["human_seconds_per_action"] for row in rows}
        # Confirmation reading is not slower than captcha solving.
        assert by_scheme["trusted-path"] < by_scheme["captcha"] * 1.5


class TestF3Sharding:
    @pytest.fixture(scope="class")
    def rows(self):
        return f3s_sharded_scaling(
            shard_counts=(1, 2, 4), offered=350, duration=1.0, accounts=8,
            seed=17,
        )

    def test_throughput_monotone_in_shard_count(self, rows):
        """At saturating load, completed rps never decreases as shards
        are added — the CI gate on the scale-out claim."""
        on = sorted(
            (r for r in rows if r["cache"] == "on"),
            key=lambda r: r["shards"],
        )
        completed = [r["completed_rps"] for r in on]
        assert completed == sorted(completed)
        assert completed[-1] >= 2 * completed[0]

    def test_cache_changes_wall_clock_only(self, rows):
        """Virtual-time results are bit-identical with the memo on or
        off; only the hit counters (and wall-clock) differ."""
        on = {r["shards"]: r for r in rows if r["cache"] == "on"}
        off = {r["shards"]: r for r in rows if r["cache"] == "off"}
        assert set(on) == set(off)
        for shards, row in on.items():
            for field in (
                "completed_rps", "p95_latency_ms", "failed",
                "store_live", "store_retired",
            ):
                assert row[field] == off[shards][field], (shards, field)
            assert row["cache_hits"] > 0
            assert off[shards]["cache_hits"] == 0

    def test_no_flow_fails_and_store_is_swept(self, rows):
        for row in rows:
            assert row["failed"] == 0, row
            assert row["store_retired"] > 0, row
            assert row["store_live"] == 0, row


class TestF4Amortization:
    def test_signed_wins_after_small_k(self):
        for vendor in ("infineon", "broadcom"):
            k = crossover_k(vendor)
            assert k <= 5, f"{vendor} crossover at {k}"

    def test_cumulative_rows_consistent(self):
        rows = fig4_amortization(vendors=("infineon",), k_values=(1, 10))
        k1 = next(r for r in rows if r["k"] == 1)
        k10 = next(r for r in rows if r["k"] == 10)
        assert k10["quote_cum_s"] == pytest.approx(10 * k1["quote_cum_s"], rel=0.01)
        assert k10["signed_wins"] == 1


class TestF5NonceDb:
    def test_flat_per_op_cost(self):
        rows = fig5_noncedb_scalability(populations=(1_000, 20_000))
        small, large = rows[0], rows[1]
        # O(1): per-op cost does not scale with population (3x headroom
        # for wall-clock noise).
        assert large["issue_us_per_op"] < 3 * small["issue_us_per_op"]
        assert large["live_after_evict"] == 0


class TestA1Ablation:
    @pytest.fixture(scope="class")
    def rows(self):
        return a1_defense_ablation()

    def test_every_defense_is_load_bearing(self, rows):
        assert len(rows) == 4
        for row in rows:
            assert row["with_defense"] == "prevented", row
            assert row["without_defense"] == "succeeded", row


class TestR1Robustness:
    @pytest.fixture(scope="class")
    def rows(self):
        return r1_loss_robustness(
            loss_rates=(0.0, 0.2), offered=100, workers=2, duration=1.5,
            seed=7,
        )

    def test_retry_rows_never_hang_and_never_double_execute(self, rows):
        for row in rows:
            if row["policy"] != "retry":
                continue
            assert row["hung"] == 0, row
            assert row["duplicate_executions"] == 0, row
            assert row["success_rate"] >= 0.99, row

    def test_no_retry_ablation_shows_the_hang(self, rows):
        lossy = next(
            r for r in rows
            if r["policy"] == "no-retry" and r["loss_pct"] > 0
        )
        assert lossy["hung"] > 0, lossy
        assert lossy["success_rate"] < 0.99, lossy

    def test_clean_link_identical_across_policies(self, rows):
        clean = [r for r in rows if r["loss_pct"] == 0]
        assert len(clean) == 2
        retry, no_retry = clean
        assert retry["retransmits"] == 0
        assert retry["success_rate"] == no_retry["success_rate"] == 1.0
        assert retry["goodput_rps"] == pytest.approx(
            no_retry["goodput_rps"]
        )


class TestR2Availability:
    @pytest.fixture(scope="class")
    def rows(self):
        return r2_crash_availability(
            crash_rates=(0.0, 0.7), recovery_s=0.35, offered=120.0,
            duration=1.2, accounts=8, seed=7,
        )

    def test_no_caller_ever_hangs(self, rows):
        for row in rows:
            assert row["hung"] == 0, row

    def test_no_arm_double_executes_a_flow(self, rows):
        """Even without the journal, the live dedup cache keeps every
        workload flow at-most-once; only the replay probe re-executes."""
        for row in rows:
            assert row["duplicate_executions"] == 0, row

    def test_journaled_arm_survives_crashes_exactly_once(self, rows):
        for row in rows:
            if row["journal"] != "on":
                continue
            assert row["success_rate"] >= 0.99, row
            assert row["duplicate_executions"] == 0, row
            assert row["probe_idempotent"] == 1, row
            assert row["probe_duplicates"] == 0, row
            if row["crash_rate"] > 0:
                assert row["journal_restores"] >= 1, row

    def test_journal_off_ablation_re_executes_the_replay_probe(self, rows):
        for row in rows:
            if row["journal"] != "off":
                continue
            assert row["probe_idempotent"] == 0, row
            assert row["probe_duplicates"] >= 1, row
            assert row["journal_appends"] == 0, row

    def test_crash_free_arms_identical_across_journal_modes(self, rows):
        """The journal must change durability only: with no crashes the
        client-visible workload columns agree between the two arms."""
        on = next(r for r in rows if r["journal"] == "on"
                  and r["crash_rate"] == 0)
        off = next(r for r in rows if r["journal"] == "off"
                   and r["crash_rate"] == 0)
        for field in ("flows", "goodput_rps", "success_rate",
                      "p95_latency_ms", "failed", "resubmits"):
            assert on[field] == off[field], field

    def test_crashes_degrade_the_unjournaled_arm(self, rows):
        crashed_off = next(
            r for r in rows
            if r["journal"] == "off" and r["crash_rate"] > 0
        )
        assert crashed_off["success_rate"] < 1.0, crashed_off
        assert (
            crashed_off["relogins"] > 0 or crashed_off["reflows"] > 0
        ), crashed_off


class TestT4SecurityMatrix:
    def test_trusted_path_prevents_every_structural_attack(self):
        rows = table4_security_matrix(seed=7)
        by_scheme = {row["scheme"]: row for row in rows}
        tp = by_scheme["trusted-path"]
        for attack in (
            "transaction-generation", "credential-theft-reuse",
            "evidence-replay", "ui-spoofing", "pal-substitution",
        ):
            assert tp[attack] == AttackOutcome.PREVENTED.value, attack
        assert tp["transaction-alteration"] == AttackOutcome.USER_DEPENDENT.value
        assert tp["session-suppression"] == AttackOutcome.DEGRADED.value
        # The baselines all lose to transaction generation or alteration.
        assert by_scheme["password"]["transaction-generation"] == "succeeded"
        assert by_scheme["captcha"]["transaction-generation"] == "succeeded"
        assert by_scheme["iTAN"]["transaction-alteration"] == "succeeded"


class TestF6OpenLoop:
    def test_population_inside_capacity_is_absorbed(self):
        (row,) = f6_open_loop_rows(populations=(1_000,), seed=7)
        assert row["shed"] == 0 and row["dropped_cap"] == 0, row
        assert row["completed"] >= 0.99 * row["arrivals"], row
        # Accounting balances: every arrival ends somewhere.
        assert row["completed"] + row["failed"] <= row["arrivals"], row


class TestExtensions:
    def test_a2_latency_hiding_removes_most_perceived_overhead(self):
        rows = a2_latency_hiding(repetitions=1)
        for vendor in {row["vendor"] for row in rows}:
            by_hiding = {
                r["latency_hiding"]: r["perceived_overhead_s"]
                for r in rows if r["vendor"] == vendor
            }
            assert by_hiding[1] < 0.6 * by_hiding[0], vendor

    def test_e1_attention_decides_the_alteration_residual(self):
        rows = e1_attention_sweep(attention_levels=(0.0, 1.0), transactions=3)
        careless, attentive = rows
        assert attentive["altered_executed"] == 0
        assert attentive["stolen_cents"] == 0
        assert careless["altered_executed"] > 0
        assert careless["stolen_cents"] > 0

    def test_e3_batch_amortizes_machine_cost(self):
        rows = e3_batch_amortization(batch_sizes=(1, 8))
        by_k = {row["batch_size"]: row for row in rows}
        assert by_k[8]["per_tx_overhead_s"] < 0.3 * by_k[1]["per_tx_overhead_s"]
        assert by_k[8]["human_per_tx_s"] < by_k[1]["human_per_tx_s"]

    def test_e2_fleet_executes_honest_volume_and_no_fraud(self):
        (row,) = e2_fleet_rows(clients=4, infected=1)
        assert row["honest_executed"] == row["honest_tx"]
        assert row["fraud_executed"] == 0
        assert row["stolen_cents"] == 0
