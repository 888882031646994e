"""A fleet of client platforms against one provider (experiment E2).

The deployment the paper's abstract sells — "service providers gain
assurance that users' transactions were indeed submitted by a human" —
is inherently many-clients-one-provider.  :class:`FleetWorld` builds N
independent simulated platforms (each with its own TPM, OS, browser and
human; a subset infected with transaction-generator malware) sharing
one network, one Privacy CA and one bank, and runs a trading day.
The provider-side ground truth then answers the aggregate question:
how much legitimate volume executed, and how much fraud.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.workloads import transfer_stream
from repro.core import TrustedPathClient
from repro.core.protocol import build_transaction_request
from repro.drtm.session import FlickerSession
from repro.hardware.machine import build_machine
from repro.net.network import LinkSpec, Network
from repro.net.rpc import RpcError
from repro.os import Browser, UntrustedOS
from repro.server import BankServer, VerifierPolicy
from repro.sim import Simulator
from repro.tpm.ca import PrivacyCa
from repro.user import HumanUser

BANK_HOST = "bank.example"
MULE = "fleet-mule"


@dataclass
class FleetClient:
    """One platform + its user, fully enrolled."""

    name: str
    client: TrustedPathClient
    human: HumanUser
    infected: bool


@dataclass
class FleetReport:
    """Outcome of a fleet run, from provider-side ground truth."""

    honest_transactions: int = 0
    honest_executed: int = 0
    fraud_attempts: int = 0
    fraud_executed: int = 0
    stolen_cents: int = 0
    denials: Dict[str, int] = field(default_factory=dict)
    virtual_seconds: float = 0.0


class FleetWorld:
    """N client platforms, one bank, one CA, one shared network."""

    def __init__(
        self,
        clients: int = 6,
        infected: int = 2,
        seed: int = 1001,
        vendor: str = "infineon",
        server_workers: int = 2,
        shards: int = 1,
    ) -> None:
        if infected > clients:
            raise ValueError("cannot infect more clients than exist")
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator)
        self.network.attach(BANK_HOST, LinkSpec.lan())
        self.policy = VerifierPolicy()
        if shards > 1:
            # Scale-out deployment: N independent bank replicas behind
            # the consistent-hash router, presented on the same host.
            # The router duck-types the provider surface run_day uses.
            from repro.server.router import build_sharded_pool

            self.bank = build_sharded_pool(
                self.simulator, self.network, BANK_HOST, self.policy,
                shard_count=shards, provider_factory=BankServer,
                workers_per_shard=server_workers,
            )
        else:
            self.bank = BankServer(
                self.simulator, self.network, BANK_HOST, self.policy,
                workers=server_workers,
            )
        self.ca = PrivacyCa(seed=self.simulator.rng.derive_seed("fleet-ca"))
        self.policy.trust_ca(self.ca.public_key)
        self.clients: List[FleetClient] = []

        for index in range(clients):
            name = f"user-{index}"
            host = f"host-{index}"
            machine = build_machine(self.simulator, vendor=vendor, name=host)
            self.network.attach(host, LinkSpec.wan())
            os_instance = UntrustedOS(self.simulator, machine, hostname=host)
            browser = Browser(os_instance)
            human = HumanUser(
                machine.keyboard, self.simulator.rng.stream(f"human:{index}")
            )
            flicker = FlickerSession(self.simulator, machine, human=human)
            os_instance.register_flicker(flicker)
            client = TrustedPathClient(self.simulator, machine, os_instance, browser)
            if index == 0:
                # One published PAL measurement covers the whole fleet:
                # every client runs the same ConfirmationPal class.
                self.policy.approve_pal(client.published_pal_measurement())
            self.ca.register_manufacturer_ek(
                machine.chipset.tpm_command_as_os("read_pubek")
            )
            client.enroll_with_ca(self.ca)
            client.register_and_login(self.bank.endpoint, name, f"pw-{index}")
            client.enroll_aik(self.bank.endpoint)
            client.run_setup_phase(self.bank.endpoint)
            self.clients.append(
                FleetClient(
                    name=name,
                    client=client,
                    human=human,
                    infected=index < infected,
                )
            )

    # ------------------------------------------------------------------
    def run_day(self, transactions_per_client: int = 3,
                fraud_per_infected: int = 4) -> FleetReport:
        """Every user transacts; infected hosts also forge to the mule."""
        report = FleetReport()
        started = self.simulator.now
        for index, member in enumerate(self.clients):
            rng = self.simulator.rng.stream(f"workload:{member.name}")
            for transaction in transfer_stream(
                member.name, rng, transactions_per_client
            ):
                member.human.intend(transaction)
                report.honest_transactions += 1
                outcome = member.client.confirm_transaction(
                    self.bank.endpoint, transaction
                )
                if outcome.executed:
                    report.honest_executed += 1
            if member.infected:
                report.fraud_attempts += fraud_per_infected
                self._forge_batch(member, fraud_per_infected, index)
        self.simulator.clock.advance(self.policy.nonce_lifetime_seconds + 1)
        self.bank.expire_stale_transactions()
        report.fraud_executed = sum(
            1
            for transfer in self.bank.executed_transfers
            if transfer.destination == MULE
        )
        report.stolen_cents = self.bank.total_stolen_by(MULE)
        report.denials = dict(self.bank.denials)
        report.virtual_seconds = self.simulator.now - started
        return report

    def _forge_batch(self, member: FleetClient, count: int, salt: int) -> None:
        """The resident generator forges transactions with junk evidence."""
        from repro.core import Transaction

        for attempt in range(count):
            forged = Transaction(
                kind="transfer",
                account=member.name,
                fields={"to": MULE, "amount": 50_000 + attempt},
            )
            try:
                response = member.client.browser.call(
                    self.bank.endpoint, "tx.request",
                    build_transaction_request(forged),
                )
                member.client.browser.call(
                    self.bank.endpoint, "tx.confirm",
                    {
                        "tx_id": response["tx_id"],
                        "decision": b"accept",
                        "evidence": "signed",
                        "signature": bytes([salt, attempt]) * 32,
                    },
                )
            except RpcError:
                continue  # denied, as it must be


def e2_fleet_rows(
    clients: int = 6, infected: int = 2, seed: int = 1001
) -> List[Dict]:
    """One-row summary of a fleet day (bench/test entry point)."""
    fleet = FleetWorld(clients=clients, infected=infected, seed=seed)
    report = fleet.run_day()
    return [
        {
            "clients": clients,
            "infected": infected,
            "honest_tx": report.honest_transactions,
            "honest_executed": report.honest_executed,
            "fraud_attempts": report.fraud_attempts,
            "fraud_executed": report.fraud_executed,
            "stolen_cents": report.stolen_cents,
            "virtual_s": report.virtual_seconds,
        }
    ]
