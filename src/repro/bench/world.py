"""One-call construction of a complete trusted-path deployment.

Every experiment needs the same cast: a simulated machine with a TPM, an
untrusted OS with a browser, a human, a Privacy CA, and one or more
service providers that trust the CA and whitelist the PAL.
:class:`TrustedPathWorld` builds and wires all of it deterministically
from a seed, then exposes convenience flows (enroll, setup, confirm) so
an experiment reads as its protocol, not as plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core import Transaction, TrustedPathClient
from repro.core.protocol import EVIDENCE_SIGNED
from repro.core.client import ConfirmOutcome
from repro.drtm.session import FlickerSession, SessionRecord
from repro.hardware.machine import Machine, build_machine
from repro.net.network import LinkSpec, Network
from repro.os import Browser, UntrustedOS
from repro.server import BankServer, ShopServer, VerifierPolicy
from repro.server.provider import ServiceProvider
from repro.sim import Simulator
from repro.tpm.ca import PrivacyCa
from repro.user import HumanUser, UserProfile

BANK_HOST = "bank.example"
SHOP_HOST = "shop.example"
CLIENT_HOST = "client-host"


@dataclass
class WorldConfig:
    """Knobs shared by all experiments."""

    seed: int = 7
    vendor: str = "infineon"
    account: str = "alice"
    password: str = "correct horse"
    user_profile: Optional[UserProfile] = None
    with_bank: bool = True
    with_shop: bool = False
    client_link: LinkSpec = field(default_factory=LinkSpec.wan)
    server_workers: int = 1
    #: serve the protocol over the TLS-lite channel (slower to simulate;
    #: the trust analysis is unchanged — the endpoint is the adversary).
    tls: bool = False


class TrustedPathWorld:
    """A fully wired deployment, ready to confirm transactions."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        cfg = self.config

        self.simulator = Simulator(seed=cfg.seed)
        self.machine: Machine = build_machine(self.simulator, vendor=cfg.vendor)
        self.os = UntrustedOS(self.simulator, self.machine, hostname=CLIENT_HOST)
        self.browser = Browser(self.os)
        self.network = Network(self.simulator)
        self.network.attach(CLIENT_HOST, cfg.client_link)

        self.human = HumanUser(
            self.machine.keyboard,
            self.simulator.rng.stream("human"),
            profile=cfg.user_profile,
        )
        self.flicker = FlickerSession(self.simulator, self.machine, human=self.human)
        self.os.register_flicker(self.flicker)

        self.client = TrustedPathClient(
            self.simulator, self.machine, self.os, self.browser
        )

        self.ca = PrivacyCa(seed=self.simulator.rng.derive_seed("privacy-ca"))
        self.ca.register_manufacturer_ek(
            self.machine.chipset.tpm_command_as_os("read_pubek")
        )

        self.policy = VerifierPolicy()
        self.policy.trust_ca(self.ca.public_key)
        self.policy.approve_pal(self.client.published_pal_measurement())

        self.bank: Optional[BankServer] = None
        self.shop: Optional[ShopServer] = None
        if cfg.with_bank:
            self.network.attach(BANK_HOST, LinkSpec.lan())
            self.bank = BankServer(
                self.simulator,
                self.network,
                BANK_HOST,
                self.policy,
                workers=cfg.server_workers,
            )
        if cfg.with_shop:
            self.network.attach(SHOP_HOST, LinkSpec.lan())
            self.shop = ShopServer(
                self.simulator,
                self.network,
                SHOP_HOST,
                self.policy,
                workers=cfg.server_workers,
            )
        if cfg.tls:
            for provider in self.providers():
                provider.enable_tls()

    # ------------------------------------------------------------------
    # Convenience flows
    # ------------------------------------------------------------------
    def enroll_everywhere(self) -> None:
        """CA enrollment plus register/login/AIK-enroll at each provider."""
        cfg = self.config
        self.client.enroll_with_ca(self.ca)
        for provider in self.providers():
            self.client.register_and_login(
                provider.endpoint, cfg.account, cfg.password
            )
            self.client.enroll_aik(provider.endpoint)

    def run_setup(self, provider: Optional[ServiceProvider] = None) -> SessionRecord:
        provider = provider or self.default_provider()
        return self.client.run_setup_phase(provider.endpoint)

    def confirm(
        self,
        transaction: Transaction,
        mode: str = EVIDENCE_SIGNED,
        provider: Optional[ServiceProvider] = None,
        intend: bool = True,
    ) -> ConfirmOutcome:
        """The user initiates and (if attentive) confirms a transaction."""
        provider = provider or self.default_provider()
        if intend:
            self.human.intend(transaction)
        return self.client.confirm_transaction(provider.endpoint, transaction, mode)

    def ready(self, mode: str = EVIDENCE_SIGNED) -> "TrustedPathWorld":
        """Full bring-up: enrollment plus (for signed mode) setup."""
        self.enroll_everywhere()
        if mode == EVIDENCE_SIGNED:
            self.run_setup()
        return self

    # ------------------------------------------------------------------
    def providers(self):
        return [p for p in (self.bank, self.shop) if p is not None]

    def default_provider(self) -> ServiceProvider:
        provider = self.bank or self.shop
        if provider is None:
            raise RuntimeError("world was built without any provider")
        return provider

    def sample_transfer(
        self, amount_cents: int = 12_500, to: str = "bob"
    ) -> Transaction:
        return Transaction(
            kind="transfer",
            account=self.config.account,
            fields={"to": to, "amount": amount_cents},
        )
