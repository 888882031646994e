"""The fleet scenario: many clients, one provider, some infected."""

from __future__ import annotations

import pytest

from repro.bench.fleet import MULE, FleetWorld


@pytest.fixture(scope="module")
def fleet() -> FleetWorld:
    return FleetWorld(clients=4, infected=2, seed=1400)


@pytest.fixture(scope="module")
def report(fleet):
    return fleet.run_day(transactions_per_client=2, fraud_per_infected=3)


class TestFleetDay:
    def test_all_honest_transactions_execute(self, report):
        assert report.honest_transactions == 8
        assert report.honest_executed == 8

    def test_no_fraud_executes(self, report):
        assert report.fraud_attempts == 6
        assert report.fraud_executed == 0
        assert report.stolen_cents == 0

    def test_fraud_is_denied_not_ignored(self, report):
        assert sum(report.denials.values()) >= 6

    def test_every_client_has_own_key(self, fleet):
        keys = {
            member.client.credentials.providers["bank.example"].signing_public.n
            for member in fleet.clients
        }
        assert len(keys) == len(fleet.clients)

    def test_one_measurement_covers_the_fleet(self, fleet):
        measurements = {
            member.client.published_pal_measurement()
            for member in fleet.clients
        }
        assert len(measurements) == 1

    def test_mule_balance_zero(self, fleet):
        assert fleet.bank.balance_of(MULE) == 0

    def test_infected_param_validated(self):
        with pytest.raises(ValueError):
            FleetWorld(clients=2, infected=3)


class TestShardedFleetDay:
    """The same trading day through a 2-shard provider pool: business
    outcomes identical, state partitioned across replicas."""

    @pytest.fixture(scope="class")
    def sharded(self) -> FleetWorld:
        return FleetWorld(clients=4, infected=1, seed=1405, shards=2)

    @pytest.fixture(scope="class")
    def sharded_report(self, sharded):
        return sharded.run_day(transactions_per_client=2, fraud_per_infected=3)

    def test_honest_volume_executes_through_the_router(self, sharded_report):
        assert sharded_report.honest_transactions == 8
        assert sharded_report.honest_executed == 8

    def test_fraud_still_blocked(self, sharded_report):
        assert sharded_report.fraud_attempts == 3
        assert sharded_report.fraud_executed == 0
        assert sharded_report.stolen_cents == 0

    def test_denials_aggregate_across_shards(self, sharded_report):
        assert sum(sharded_report.denials.values()) >= 3

    def test_traffic_spread_over_both_shards(self, sharded, sharded_report):
        assert all(count > 0 for count in sharded.bank.forwards_by_shard.values())
        assert sharded.bank.unroutable == 0

    def test_accounts_partitioned_not_replicated(self, sharded, sharded_report):
        for member in sharded.clients:
            owner = sharded.bank.shard_for_account(member.name)
            others = [s for s in sharded.bank.shards if s is not owner]
            assert member.name in owner.accounts
            assert all(member.name not in shard.accounts for shard in others)
