"""An e-commerce shop: the paper's second deployment scenario.

Orders have stock and a per-account spending limit; the interesting
adversary here is the *bulk buyer bot* the abstract's captcha
discussion targets — an automated client draining limited stock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.errors import ProtocolError
from repro.core.transaction import Transaction
from repro.net.messages import Message
from repro.server.provider import AccountRecord, ServiceProvider


@dataclass
class Order:
    account: str
    item: str
    quantity: int
    unit_price_cents: int


class ShopServer(ServiceProvider):
    """Sells items from a finite stock."""

    SUPPORTED_KINDS = ("order",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stock: Dict[str, int] = {}
        self.prices: Dict[str, int] = {}
        self.orders: List[Order] = []
        self.per_account_limit = 10

    def add_product(self, item: str, stock: int, unit_price_cents: int) -> None:
        self.stock[item] = stock
        self.prices[item] = unit_price_cents

    # -- hooks ------------------------------------------------------------
    def on_account_created(self, record: AccountRecord, request: Message) -> None:
        pass

    def validate_transaction(self, transaction: Transaction) -> None:
        if transaction.kind not in self.SUPPORTED_KINDS:
            raise ProtocolError(f"shop does not support {transaction.kind!r}")
        item = transaction.fields.get("item")
        quantity = transaction.fields.get("quantity")
        if not isinstance(item, str) or item not in self.stock:
            raise ProtocolError(f"unknown item {item!r}")
        if not isinstance(quantity, int) or quantity <= 0:
            raise ProtocolError("quantity must be a positive integer")
        if quantity > self.per_account_limit:
            raise ProtocolError(
                f"quantity {quantity} exceeds per-account limit "
                f"{self.per_account_limit}"
            )
        if self.stock[item] < quantity:
            raise ProtocolError(f"only {self.stock[item]} x {item!r} left")

    def execute_transactions(self, transactions: List[Transaction]) -> List[str]:
        """Fill the orders in order on staged stock; commit them only if
        every one is in stock, so a batch never half-ships."""
        staged: Dict[str, int] = {}
        orders = []
        for transaction in transactions:
            item = str(transaction.fields["item"])
            quantity = int(transaction.fields["quantity"])
            left = staged.get(item, self.stock.get(item, 0))
            if left < quantity:
                raise ProtocolError("out of stock at execution time")
            staged[item] = left - quantity
            orders.append(
                Order(transaction.account, item, quantity, self.prices[item])
            )
        self.stock.update(staged)
        self.orders.extend(orders)
        return [f"shipped {o.quantity} x {o.item}" for o in orders]

    # -- experiment accessors ----------------------------------------------
    def units_sold_to(self, account: str) -> int:
        return sum(order.quantity for order in self.orders if order.account == account)
