"""An online bank: the paper's motivating service provider.

Balances are integers in cents; transfers move real ledger state, so
experiments measure attack outcomes in money that did or did not move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.errors import ProtocolError
from repro.core.transaction import Transaction
from repro.net.messages import Message, decode_message, encode_message
from repro.server.provider import AccountRecord, ServiceProvider

DEFAULT_OPENING_BALANCE_CENTS = 500_000  # 5000.00


@dataclass
class Transfer:
    source: str
    destination: str
    amount_cents: int


def _encode_transfer(transfer: Transfer) -> bytes:
    return encode_message({
        "s": transfer.source,
        "d": transfer.destination,
        "v": transfer.amount_cents,
    })


def _decode_transfer(encoded: bytes) -> Transfer:
    msg = decode_message(encoded)
    return Transfer(str(msg["s"]), str(msg["d"]), int(msg["v"]))


def _encode_balance(name: str, cents: int) -> bytes:
    return encode_message({"a": name, "v": cents})


def _decode_balance(encoded: bytes) -> Tuple[str, int]:
    msg = decode_message(encoded)
    return str(msg["a"]), int(msg["v"])


class TransferLog:
    """The append-only executed-transfer log: the entries a capture has
    encoded, as their ``xf`` snapshot elements, then the transfers
    executed since.  A capture encodes each transfer once, a restore
    keeps the elements it read, and only :meth:`transfers` decodes."""

    def __init__(self, elements: Iterable[bytes] = ()) -> None:
        self._elements = list(elements)
        self._pending: List[Transfer] = []

    def extend(self, transfers: Iterable[Transfer]) -> None:
        self._pending.extend(transfers)

    def elements(self) -> List[bytes]:
        """Every entry's ``xf`` element, in execution order."""
        if self._pending:
            self._elements.extend(map(_encode_transfer, self._pending))
            self._pending = []
        return list(self._elements)

    def absorb(self, elements: Iterable[bytes]) -> None:
        """Append a drained peer's entries, held as their elements."""
        self._elements = self.elements() + list(elements)

    def transfers(self) -> List[Transfer]:
        return [*map(_decode_transfer, self._elements), *self._pending]


class BankServer(ServiceProvider):
    """Transfers between accounts (external destinations auto-created
    with zero balance, representing other banks).

    The executed-transfer log is a :class:`TransferLog`: executing a
    transfer only appends it, so an unjournaled bank never encodes one,
    and a journaled bank's snapshot re-encodes none it encoded before.
    A restore decodes balances and keeps the log's elements undecoded
    until :attr:`executed_transfers` is read."""

    SUPPORTED_KINDS = ("transfer",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.balances: Dict[str, int] = {}
        self.transfer_log = TransferLog()

    @property
    def executed_transfers(self) -> List[Transfer]:
        """Every executed transfer in execution order, as a new list."""
        return self.transfer_log.transfers()

    # -- hooks ------------------------------------------------------------
    def on_account_created(self, record: AccountRecord, request: Message) -> None:
        opening = request.get("opening_balance", DEFAULT_OPENING_BALANCE_CENTS)
        self.balances[record.name] = int(opening)

    def validate_transaction(self, transaction: Transaction) -> None:
        if transaction.kind not in self.SUPPORTED_KINDS:
            raise ProtocolError(f"bank does not support {transaction.kind!r}")
        destination = transaction.fields.get("to")
        amount = transaction.fields.get("amount")
        if not isinstance(destination, str) or not destination:
            raise ProtocolError("transfer needs a destination ('to')")
        if not isinstance(amount, int) or amount <= 0:
            raise ProtocolError("transfer amount must be a positive integer (cents)")
        if self.balances.get(transaction.account, 0) < amount:
            raise ProtocolError("insufficient funds")

    def execute_transactions(self, transactions: List[Transaction]) -> List[str]:
        """Apply the transfers in order on staged balances; commit them
        only if every one is covered, so a batch never half-executes."""
        staged: Dict[str, int] = {}
        transfers = []
        for transaction in transactions:
            source = transaction.account
            destination = str(transaction.fields["to"])
            amount = int(transaction.fields["amount"])
            available = staged.get(source, self.balances.get(source, 0))
            if available < amount:
                raise ProtocolError("insufficient funds at execution time")
            staged[source] = available - amount
            staged[destination] = (
                staged.get(destination, self.balances.get(destination, 0))
                + amount
            )
            transfers.append(Transfer(source, destination, amount))
        self.balances.update(staged)
        self.transfer_log.extend(transfers)
        return [
            f"transferred {t.amount_cents} cents {t.source}->{t.destination}"
            for t in transfers
        ]

    # -- durability hooks --------------------------------------------------
    def capture_business_state(self) -> Message:
        """Ledger state for the provider journal snapshot: balances in
        canonical (name) order — a migration round-trip re-inserts
        entries, and insertion history must not change the state digest
        — plus the executed-transfer log in execution order (the log is
        what the R2 ablation counts duplicate executions in)."""
        return {
            "bal": [
                _encode_balance(name, self.balances[name])
                for name in sorted(self.balances)
            ],
            "xf": self.transfer_log.elements(),
        }

    def restore_business_state(self, state: Message) -> None:
        self.balances = dict(map(_decode_balance, state["bal"]))
        self.transfer_log = TransferLog(state["xf"])

    # -- account-slice migration hooks ------------------------------------
    def capture_business_slice(self, accounts) -> Message:
        """The migrated accounts' balances.  The executed-transfer log
        stays on the shard that executed the transfers: it is a record
        of where work happened, and duplicate-execution accounting must
        keep seeing every historical entry exactly once."""
        return {
            "bal": [
                _encode_balance(name, self.balances[name])
                for name in sorted(accounts)
                if name in self.balances
            ],
        }

    def install_business_slice(self, state: Message) -> None:
        self.balances.update(map(_decode_balance, state["bal"]))

    def drop_business_slice(self, accounts) -> None:
        for name in accounts:
            self.balances.pop(name, None)

    def capture_business_residual(self) -> Message:
        """Everything the slice protocol leaves behind when this shard
        is drained away: external counterparty balances (destinations
        auto-created by transfers, never owned accounts) and the
        executed-transfer log.  Destroying either with the shard would
        break pool-wide ledger conservation and duplicate-execution
        accounting, so a drain ships this residual to a survivor."""
        external = sorted(set(self.balances) - set(self.accounts))
        return {
            "bal": [_encode_balance(name, self.balances[name]) for name in external],
            "xf": self.transfer_log.elements(),
        }

    def install_business_residual(self, state: Message) -> None:
        """Additive absorb: external balances sum (the survivor may hold
        its own balance for the same counterparty) and the transfer log
        extends — each historical entry still appears exactly once
        pool-wide."""
        for name, cents in map(_decode_balance, state.get("bal", [])):
            self.balances[name] = self.balances.get(name, 0) + cents
        self.transfer_log.absorb(state.get("xf", []))

    # -- experiment accessors ----------------------------------------------
    def balance_of(self, account: str) -> int:
        return self.balances.get(account, 0)

    def total_stolen_by(self, mule_account: str) -> int:
        """Money that reached a mule account via executed transfers."""
        return sum(
            transfer.amount_cents
            for transfer in self.executed_transfers
            if transfer.destination == mule_account
        )
