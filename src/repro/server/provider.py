"""The trusted-path service provider endpoint.

Implements the protocol of `repro.core.protocol` over an
:class:`~repro.net.rpc.RpcEndpoint`.  The provider is the party the
paper gives the security guarantee to, so this class owns the decision
sequence for every confirmation challenge:

1. ``tx.request`` / ``tx.request_batch`` — authenticate the session,
   validate every transaction against business rules, **canonicalize
   them server-side**, mint one challenge nonce, and hold the
   :class:`Challenge` PENDING.  A single transaction is a batch of one
   whose member tx id is the challenge id.
2. ``tx.confirm`` / ``tx.confirm_batch`` — consume the nonce
   (single-use, fresh), verify the attestation evidence against the
   canonical text *the provider itself issued*, and only then execute
   every member or none.

Both request shapes run through the same state machine (issue,
confirm, rechallenge, expire, settle) and the same journal and snapshot
codecs; each RPC name accepts only its own shape.  Nothing the client
sends after step 1 can change what text the evidence must bind — that
server-authoritativeness is what defeats the man-in-the-browser.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union,
)

from repro.core.errors import ProtocolError
from repro.core.protocol import transaction_from_request
from repro.core.transaction import Transaction, account_of
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPublicKey
from repro.net.messages import (
    Message,
    MessageError,
    decode_message,
    encode_message,
    read_field,
)
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint, error_response
from repro.os.disk import UntrustedDisk
from repro.server.journal import (
    JournalError,
    ProviderJournal,
    pack_time,
    unpack_time,
)
from repro.server.noncedb import NonceDatabase, NonceState
from repro.server.policy import VerifierPolicy
from repro.server.verifier import (
    AttestationVerifier,
    VerificationCache,
    VerificationResult,
)
from repro.sim.kernel import Simulator
from repro.tpm.ca import (
    AikCertificate,
    deserialize_certificate,
    serialize_certificate,
)
from repro.tpm.quote import QuoteBundle


class TxStatus(enum.Enum):
    """Lifecycle of a transaction held by a provider."""

    PENDING = "pending"
    EXECUTED = "executed"
    REJECTED_BY_USER = "rejected_by_user"
    DENIED = "denied"  # evidence failed verification
    EXPIRED = "expired"


#: Final statuses: a challenge here moves again only under the
#: ``allow_reconfirmation`` ablation.  (EXPIRED is not final — a
#: rechallenge re-opens it.)
_SETTLED = frozenset(
    (TxStatus.EXECUTED, TxStatus.REJECTED_BY_USER, TxStatus.DENIED)
)

# Modeled server-side compute per request (seconds); the RSA checks in
# tx.confirm dominate.  Used as RPC service times.
SERVICE_TIMES = {
    "register": 0.0008,
    "login": 0.0009,
    "tp.enroll_aik": 0.0021,
    "tp.setup_begin": 0.0007,
    "tp.setup_complete": 0.0032,
    "tx.request": 0.0011,
    "tx.confirm": 0.0024,
    "tx.rechallenge": 0.0011,
    "tx.status": 0.0004,
    "tx.request_batch": 0.0019,
    "tx.confirm_batch": 0.0026,
}

#: Denial reason when an authenticated session touches a transaction it
#: does not own.  A dedicated reason (not a generic "unknown") so the
#: denial ledger separates cross-account probing from client bugs.
DENIAL_NOT_OWNER = "transaction not owned by session"

#: Client-visible refusals; the ownership fence answers with the same.
BAD_CREDENTIALS = "bad credentials"
NOT_LOGGED_IN = "not logged in"

#: Response key of a pool shard's ``moved`` answer: the request names an
#: account or session it neither holds nor owns, so nothing executed.
MOVED_KEY = "moved"

#: Methods routed by the account they name; all others by session cookie.
ACCOUNT_ROUTED = ("register", "login")

#: A ``moved`` answer's error text per account-routed method (others:
#: the endpoint's rendering of ``_authenticate``'s ProtocolError).
_MOVED_ERRORS = {
    "register": "account not owned by this shard",
    "login": BAD_CREDENTIALS,
}

#: A confirm against an expired nonce: recoverable via tx.rechallenge.
_RECHALLENGE_HINT = {
    "error": "nonce expired: re-challenge required", "rechallenge": 1,
}

#: Observability counters carried in ``capture_state()["stats"]`` as
#: (wire key, attribute): the provider's own, then its nonce DB's.
_PROVIDER_STATS = (
    ("ri", "rechallenges_issued"), ("rr", "rechallenges_required"),
    ("dc", "duplicate_confirms"), ("ci", "cookies_invalidated"),
    ("tr", "transactions_retired"), ("br", "batches_retired"),
    ("tp", "transactions_peak"),
)
_NONCE_STATS = (
    ("ni", "issued"), ("nc", "consumed"), ("nrr", "rejected_replays"),
    ("nre", "rejected_expired"), ("nru", "rejected_unknown"),
    ("nev", "evictions"), ("niv", "invalidated"),
)

#: Sentinel distinguishing "caller passed no cache argument" (build a
#: private default cache) from an explicit ``None`` (disable caching —
#: the ablation arm of experiment F3-S).
_DEFAULT_CACHE = object()


@dataclass
class AccountRecord:
    name: str
    password: str
    cookie: Optional[bytes] = None
    aik_certificate: Optional[AikCertificate] = None
    registered_key: Optional[RsaPublicKey] = None
    pending_setup_nonce: Optional[bytes] = None
    #: highest monotonic counter value seen (anti-rollback extension).
    last_counter: int = 0
    #: The account's snapshot element, kept by the decode or encode that
    #: produced it while no field has changed since.
    encoded: Optional[bytes] = field(default=None, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        # Every field write drops the held element, so no mutation site
        # has to remember to.
        object.__setattr__(self, name, value)
        if name != "encoded":
            object.__setattr__(self, "encoded", None)

    @classmethod
    def holding(cls, encoded: bytes, **fields) -> "AccountRecord":
        """The record decoded from ``encoded``, every field given,
        holding ``encoded``.  The fields go straight into the instance
        dict: a build is no write to drop it for."""
        record = cls.__new__(cls)
        record.__dict__.update(fields, encoded=encoded)
        return record


def _settlement(msg: Message) -> tuple:
    """The status, detail and settle time of a store element."""
    return TxStatus(str(msg["st"])), str(msg["dt"]), unpack_time(msg["sa"])


class _Entry:
    """A store entry that a restore or slice install may build from its
    snapshot element alone (``held``), setting only its ids.  The entry
    classes are slotted and set every field in ``__init__``, so an unset
    field has no class-level default to fall back on: reading it raises
    AttributeError, which lands in :meth:`__getattr__` and thaws the
    entry.  A writer thaws the entry first — ``_set_status`` and
    ``_expire``, the only transitions, do, and every other write follows
    one of them — so a held element is exactly what
    :meth:`ServiceProvider._encode_store` would write for the entry."""

    __slots__ = ()

    def __getattr__(self, name: str):
        # Only an unset field of a held entry lands here.
        if name.startswith("__") or self.held is None:
            raise AttributeError(name)
        self.thaw()
        return getattr(self, name)

    def thaw(self) -> None:
        """Fill the entry from its element, if it still holds one."""
        if self.held is not None:
            self.fill(decode_message(self.held))

    def fill(self, msg: Message) -> None:
        """Set every field from the decoded element ``msg`` and drop the
        held one.  A malformed element raises MessageError and sets
        nothing: each ``_fill`` evaluates every value before it assigns
        one."""
        try:
            self._fill(msg)
        except MessageError:
            raise
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise MessageError(f"malformed store element: {exc!r}") from None
        self.held = None


class TxRecord(_Entry):
    """One transaction under a challenge: only what it needs for itself.

    ``tx`` is the transaction's canonical bytes.  A member issued here
    also holds its :class:`Transaction`; a restored or installed one
    decodes ``tx`` on first read of :attr:`transaction` — only execution
    reads it, and a settled member executes again only under
    ``allow_reconfirmation``."""

    __slots__ = ("tx", "status", "detail", "settled_at", "decoded", "held")

    def __init__(self, tx: bytes, decoded: Optional[Transaction] = None) -> None:
        self.tx = tx
        self.status = TxStatus.PENDING
        self.detail = ""
        #: Virtual time the transaction left PENDING (None while live).
        self.settled_at: Optional[float] = None
        self.decoded = decoded
        #: The ``txs`` element of a restored or installed member until it
        #: thaws.
        self.held: Optional[bytes] = None

    @staticmethod
    def holding(element: bytes) -> "TxRecord":
        record = object.__new__(TxRecord)
        record.decoded = None
        record.held = element
        return record

    def _fill(self, msg: Message) -> None:
        self.tx, self.status, self.detail, self.settled_at = (
            msg["tx"], *_settlement(msg)
        )

    @property
    def transaction(self) -> Transaction:
        if self.decoded is None:
            self.decoded = Transaction.from_canonical_bytes(self.tx)
        return self.decoded


class Challenge(_Entry):
    """One confirmation challenge: one canonical text, one nonce, one
    evidence blob, settled all-or-nothing for every member.

    ``tx.request`` issues a challenge whose single member's tx id *is*
    the challenge id; ``tx.request_batch`` issues one over N fresh
    member ids that clients never learn."""

    __slots__ = (
        "challenge_id", "account", "tx_ids", "canonical_text", "nonce",
        "issued_at", "status", "detail", "settled_at", "evidence_digest",
        "final", "encoded", "held",
    )

    def __init__(
        self, challenge_id: bytes, account: str, tx_ids: List[bytes],
        canonical_text: bytes, nonce: bytes, issued_at: float,
    ) -> None:
        self.challenge_id = challenge_id
        self.account = account
        self.tx_ids = tx_ids
        self.canonical_text = canonical_text
        self.nonce = nonce
        self.issued_at = issued_at
        self.status = TxStatus.PENDING
        self.detail = ""
        #: Virtual time the challenge left PENDING (None while live).  The
        #: retention sweep retires settled challenges after
        #: ``settled_retention_seconds`` so shard memory stays O(active).
        self.settled_at: Optional[float] = None
        #: Digest of the evidence that settled the challenge, plus the
        #: response it produced — resubmitting the *same* evidence (a
        #: client whose transport gave up mid-confirm) replays the stored
        #: outcome instead of re-running verification or execution.
        self.evidence_digest: Optional[bytes] = None
        #: The response, or its canonical bytes until a duplicate confirm
        #: first reads :attr:`final_response` (a restore or install holds
        #: the bytes it decoded the challenge from).
        self.final: Union[None, bytes, Message] = None
        #: The challenge's snapshot elements, i.e. its ``batches`` element
        #: (None for a single transaction) and one ``txs`` element per
        #: member in ``tx_ids`` order.  Held once settled by the first
        #: capture that has them, and by the restore or install that read
        #: them (a single transaction whatever its status); any later
        #: transition drops them.
        self.encoded: Optional[Tuple[Optional[bytes], List[bytes]]] = None
        #: A restored or installed single transaction's ``txs`` element
        #: until it thaws (an install fills a batch from its element at
        #: once).
        self.held: Optional[bytes] = None

    @staticmethod
    def holding(
        challenge_id: bytes, tx_ids: List[bytes], element: bytes
    ) -> "Challenge":
        challenge = object.__new__(Challenge)
        challenge.challenge_id = challenge_id
        challenge.tx_ids = tx_ids
        challenge.encoded = None
        challenge.held = element
        return challenge

    def _fill(self, msg: Message) -> None:
        # A batch element names its account; a single transaction's is
        # its transaction's.
        account = str(msg["a"]) if "ids" in msg else account_of(msg["tx"])
        (
            self.account, self.canonical_text, self.nonce, self.issued_at,
            self.status, self.detail, self.settled_at, self.evidence_digest,
            self.final,
        ) = (
            account, msg["ct"], msg["n"], unpack_time(msg["ia"]) or 0.0,
            *_settlement(msg), msg.get("dg"), msg.get("fr"),
        )

    @property
    def is_batch(self) -> bool:
        return self.tx_ids != [self.challenge_id]

    @property
    def final_response(self) -> Optional[Message]:
        if isinstance(self.final, bytes):
            self.final = decode_message(self.final)
        return self.final


class ServiceProvider:
    """Base provider; subclasses add business semantics."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        host: str,
        policy: VerifierPolicy,
        workers: int = 1,
        verification_cache=_DEFAULT_CACHE,
    ) -> None:
        self.simulator = simulator
        self.host = host
        self.policy = policy
        # Verification fast path: memoize the RSA signature checks (AIK
        # certificate per CA, quote bundles, PKCS#1 confirmations).  On
        # by default; pass verification_cache=None for the cold-verify
        # ablation — verdicts are identical either way.
        if verification_cache is _DEFAULT_CACHE:
            verification_cache = VerificationCache()
        self.verification_cache: Optional[VerificationCache] = verification_cache
        self.verifier = AttestationVerifier(policy, cache=verification_cache)
        self._drbg = HmacDrbg(
            simulator.rng.derive_seed(f"provider:{host}").to_bytes(8, "big")
        )
        self.nonces = NonceDatabase(
            self._drbg.fork(b"nonces"),
            lifetime_seconds=policy.nonce_lifetime_seconds,
        )
        self.endpoint = RpcEndpoint(simulator, network, host, workers=workers)
        self.accounts: Dict[str, AccountRecord] = {}
        self._cookies: Dict[bytes, str] = {}
        self.challenges: Dict[bytes, Challenge] = {}
        #: Member transactions by tx id, in issue order (a single
        #: transaction's tx id is also its challenge id).
        self.transactions: Dict[bytes, TxRecord] = {}
        self.denials: Dict[str, int] = {}
        self.allow_reconfirmation = False  # ablation-only; see tx.confirm
        # -- recovery accounting -------------------------------------------
        self.rechallenges_issued = 0
        self.rechallenges_required = 0
        self.duplicate_confirms = 0
        # -- session accounting --------------------------------------------
        self.cookies_invalidated = 0
        # -- bounded transaction/session store ------------------------------
        #: How long a settled (executed/denied/rejected/expired) record
        #: stays queryable via tx.status before the sweep retires it.
        self.settled_retention_seconds = 3600.0
        #: Minimum spacing between opportunistic sweeps (piggybacked on
        #: tx.request traffic; callers may also sweep explicitly).
        self.store_sweep_interval = 60.0
        self._last_store_sweep = 0.0
        self.transactions_retired = 0
        self.batches_retired = 0
        self.transactions_peak = 0
        # -- durability (crash-stop recovery) -------------------------------
        #: Write-ahead journal; None means volatile (a crash loses the
        #: nonce DB, sessions, transactions and counters — the R2
        #: ablation arm).  Attach with :meth:`attach_journal`.
        self.journal: Optional[ProviderJournal] = None
        self._replaying = False
        self.crashes = 0
        self.restarts = 0
        self.journal_restores = 0
        # -- live rebalancing (account-slice migration) ---------------------
        #: Active migration taps: while a slice copy is in flight, every
        #: mutation record is mirrored into each tap so the coordinator
        #: can ship the WAL tail at ring-flip time (`repro.server
        #: .rebalance`).  Taps work with or without a disk journal.
        self._migration_taps: List[list] = []
        #: True while replaying a migration WAL tail (live apply or
        #: journal recovery of a ``mig_tail`` record): business effects
        #: of window settles are suppressed — the flip-time ``mig_biz``
        #: refresh delivers them instead.
        self._migration_replay = False
        # -- pool ownership (installed by repro.server.router) ----------
        #: The ring the pool's router routes by; ``None`` outside a pool.
        self.ring = None
        #: Names granted off the ring range (a register failed over here).
        self.granted: Set[str] = set()
        self._register_handlers()

    def enable_tls(self) -> None:
        """Serve over the TLS-lite secure channel (`repro.net.channel`).

        Off by default in the simulation to keep whole-suite runs fast;
        the protocol's security does not depend on it (the endpoint OS
        is the adversary), matching the paper's trust analysis.
        """
        from repro.crypto.rsa import generate_rsa_keypair

        keypair = generate_rsa_keypair(512, self._drbg.fork(b"tls-key"))
        self.endpoint.enable_tls(keypair)

    def _register_handlers(self) -> None:
        handlers = {
            "register": self._handle_register,
            "login": self._handle_login,
            "tp.enroll_aik": self._handle_enroll_aik,
            "tp.setup_begin": self._handle_setup_begin,
            "tp.setup_complete": self._handle_setup_complete,
            "tx.request": self._handle_tx_request,
            "tx.confirm": self._handle_tx_confirm,
            "tx.rechallenge": self._handle_tx_rechallenge,
            "tx.status": self._handle_tx_status,
            "tx.request_batch": self._handle_tx_request_batch,
            "tx.confirm_batch": self._handle_tx_confirm_batch,
        }
        for method, handler in handlers.items():
            self.endpoint.register(
                method, self._fenced(method, handler), SERVICE_TIMES[method]
            )

    def _fenced(self, method: str, handler):
        """``handler`` behind the ownership fence: in a pool, a request
        for an account this shard neither holds nor owns, or for a
        session it does not hold, gets the ``moved`` answer before
        anything executes."""
        error = _MOVED_ERRORS.get(method) or error_response(
            ProtocolError(NOT_LOGGED_IN)
        )["error"]

        def handle(request: Message) -> Message:
            if self.ring is None or self._holds_or_owns(method, request):
                return handler(request)
            return {"error": error, MOVED_KEY: 1}

        return handle

    def _holds_or_owns(self, method: str, request: Message) -> bool:
        if method in ACCOUNT_ROUTED:
            name = str(request.get("account", ""))
            return (
                name in self.accounts or name in self.granted
                or self.ring.host_for(name) == self.host
            )
        return self._holds_session(request.get("session"))

    # ------------------------------------------------------------------
    # Business hooks for subclasses
    # ------------------------------------------------------------------
    def validate_transaction(self, transaction: Transaction) -> None:
        """Raise ProtocolError if the transaction is not well-formed for
        this provider (amounts, recipients, stock...)."""

    def execute_transactions(self, transactions: List[Transaction]) -> List[str]:
        """Perform a confirmed challenge's transactions, all or none:
        raise ProtocolError *before* mutating anything if any of them
        cannot execute; otherwise return one receipt per transaction."""
        return ["ok"] * len(transactions)

    def on_account_created(self, record: AccountRecord, request: Message) -> None:
        """Subclass hook (e.g. set the opening balance)."""

    # ------------------------------------------------------------------
    # Account handlers
    # ------------------------------------------------------------------
    def _handle_register(self, request: Message) -> Message:
        name = str(request["account"])
        if name in self.accounts:
            return {"error": f"account {name!r} exists"}
        self._register(request)
        return {"ok": 1}

    def _register(self, request: Message) -> None:
        """The ``reg`` transition, live and in replay.  The business hook
        may refuse the request (a malformed opening balance): it runs
        before the account exists."""
        record = AccountRecord(str(request["account"]), str(request["password"]))
        self.on_account_created(record, request)
        self.accounts[record.name] = record
        self.granted.discard(record.name)
        self._journal_append({"t": "reg", "req": encode_message(request)})

    def _handle_login(self, request: Message) -> Message:
        record = self.accounts.get(str(request["account"]))
        if record is None or record.password != str(request["password"]):
            return {"error": BAD_CREDENTIALS}
        self._login(record, self._drbg.generate(16))
        return {"ok": 1, "set_session": record.cookie}

    def _login(self, record: AccountRecord, cookie: bytes) -> None:
        """The ``login`` transition, live and in replay.  Re-login evicts
        the previous cookie, so the map stays O(accounts)."""
        if record.cookie is not None:
            self._cookies.pop(record.cookie, None)
            self.cookies_invalidated += 1
        record.cookie = cookie
        self._cookies[cookie] = record.name
        self._journal_append({"t": "login", "a": record.name, "c": cookie})

    def _holds_session(self, cookie) -> bool:
        return isinstance(cookie, bytes) and cookie in self._cookies

    def _authenticate(self, request: Message) -> AccountRecord:
        cookie = request.get("session")
        if not self._holds_session(cookie):
            raise ProtocolError(NOT_LOGGED_IN)
        return self.accounts[self._cookies[cookie]]

    def _deny_not_owner(self) -> Message:
        """An authenticated session touched another account's
        transaction.  Counted, refused — and the transaction's own state
        is untouched: a prober must not be able to settle, expire or
        otherwise perturb someone else's pending confirmation."""
        self._count_denial(DENIAL_NOT_OWNER)
        return {"error": f"denied: {DENIAL_NOT_OWNER}"}

    def _count_denial(self, reason: str) -> None:
        self.denials[reason] = self.denials.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Trusted-path enrollment / setup
    # ------------------------------------------------------------------
    def _handle_enroll_aik(self, request: Message) -> Message:
        record = self._authenticate(request)
        certificate = deserialize_certificate(request["aik_certificate"])
        result = self.verifier.verify_aik_certificate(certificate)
        if not result.ok:
            return self._denial_response(result)
        self._enroll(record, certificate, request["aik_certificate"])
        return {"ok": 1}

    def _enroll(self, record: AccountRecord, cert: AikCertificate, raw: bytes) -> None:
        """The ``cert`` transition, live and in replay."""
        record.aik_certificate = cert
        self._journal_append({"t": "cert", "a": record.name, "cert": raw})

    def _handle_setup_begin(self, request: Message) -> Message:
        record = self._authenticate(request)
        if record.aik_certificate is None:
            return {"error": "enroll an AIK certificate first"}
        self._begin_setup(record, self._drbg.generate(20))
        return {"ok": 1, "nonce": record.pending_setup_nonce}

    def _begin_setup(self, record: AccountRecord, nonce: bytes) -> None:
        """The ``sbegin`` transition, live and in replay."""
        record.pending_setup_nonce = nonce
        self._journal_append({"t": "sbegin", "a": record.name, "n": nonce})

    def _handle_setup_complete(self, request: Message) -> Message:
        record = self._authenticate(request)
        if record.aik_certificate is None or record.pending_setup_nonce is None:
            return {"error": "no setup in progress"}
        try:
            public_key = RsaPublicKey.from_bytes(request["public_key"])
            quote = QuoteBundle.from_bytes(request["quote"])
        except Exception as exc:
            return {"error": f"malformed setup evidence: {exc}"}
        result = self.verifier.verify_setup(
            aik_public=record.aik_certificate.aik_public,
            presented_public_key=public_key,
            quote=quote,
            expected_nonce=record.pending_setup_nonce,
        )
        if not result.ok:
            self._end_setup(record, None)
            return self._denial_response(result)
        self._end_setup(record, request["public_key"])
        return {"ok": 1}

    def register_signing_key(self, account: str, public_key: RsaPublicKey) -> None:
        """Experiment/test shortcut for the setup phase: install a
        confirmed signing key directly, exactly as a completed
        ``tp.setup_complete`` does, so it survives a crash the same way."""
        self._end_setup(self.accounts[account], public_key.to_bytes())

    def _end_setup(self, record: AccountRecord, key: Optional[bytes]) -> None:
        """The ``skey`` transition, live and in replay: spend the pending
        setup nonce and install ``key`` (None after a failed setup)."""
        record.pending_setup_nonce = None
        entry: Message = {"t": "skey", "a": record.name}
        if key is not None:
            record.registered_key = RsaPublicKey.from_bytes(key)
            entry["k"] = key
        self._journal_append(entry)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def _handle_tx_request(self, request: Message) -> Message:
        record = self._authenticate(request)
        transaction = transaction_from_request(request)
        if transaction.account != record.name:
            return {"error": "transaction account does not match session"}
        self.validate_transaction(transaction)
        tx_id = self._drbg.generate(16)
        self._maybe_sweep_store(self.simulator.now)
        return self._issue(tx_id, [tx_id], [transaction])

    def _handle_tx_request_batch(self, request: Message) -> Message:
        """Validate N transactions, issue ONE challenge for all of them."""
        record = self._authenticate(request)
        encoded_list = request.get("transactions")
        if not isinstance(encoded_list, list) or not encoded_list:
            return {"error": "batch needs a non-empty transaction list"}
        if len(encoded_list) > 16:
            return {"error": "batch too large (max 16)"}
        transactions = []
        for encoded in encoded_list:
            transaction = transaction_from_request(decode_message(encoded))
            if transaction.account != record.name:
                return {"error": "batch member account mismatch"}
            self.validate_transaction(transaction)
            transactions.append(transaction)
        self._maybe_sweep_store(self.simulator.now)
        batch_id = self._drbg.generate(16)
        tx_ids = [self._drbg.generate(16) for _ in transactions]
        return self._issue(batch_id, tx_ids, transactions)

    def _issue(
        self, challenge_id: bytes, tx_ids: List[bytes],
        transactions: List[Transaction],
    ) -> Message:
        """Mint the nonce for a new PENDING challenge."""
        now = self.simulator.now
        nonce = self.nonces.issue(challenge_id, now)
        return self._challenge_response(
            self._add_challenge(challenge_id, tx_ids, transactions, nonce, now)
        )

    def _add_challenge(
        self, challenge_id: bytes, tx_ids: List[bytes],
        transactions: List[Transaction], nonce: bytes, issued_at: float,
    ) -> Challenge:
        """Install a PENDING challenge and its member records, journaled
        as ``txreq`` (one transaction) or ``breq`` (a batch) — shared by
        the live handlers and journal replay, so a restored challenge
        binds evidence to byte-identical text."""
        count = len(transactions)
        if tx_ids == [challenge_id]:
            lines = list(transactions[0].display_lines())
        else:
            lines = [f"BATCH CONFIRMATION — {count} transactions", ""]
            for position, transaction in enumerate(transactions, start=1):
                lines.append(f"--- [{position}/{count}] ---")
                lines.extend(transaction.display_lines())
        challenge = Challenge(
            challenge_id, transactions[0].account, list(tx_ids),
            "\n".join(lines).encode("utf-8"), nonce, issued_at,
        )
        encoded = [t.canonical_bytes() for t in transactions]
        for tx_id, tx, transaction in zip(tx_ids, encoded, transactions):
            self.transactions[tx_id] = TxRecord(tx, decoded=transaction)
        self.challenges[challenge_id] = challenge
        self.transactions_peak = max(self.transactions_peak, len(self.transactions))
        if challenge.is_batch:
            record: Message = {
                "t": "breq", "a": challenge.account, "ids": list(tx_ids),
                "txs": encoded,
            }
        else:
            record = {"t": "txreq", "tx": encoded[0]}
        record.update({"id": challenge_id, "n": nonce, "at": pack_time(issued_at)})
        self._journal_append(record)
        return challenge

    @staticmethod
    def _challenge_response(challenge: Challenge) -> Message:
        return {"ok": 1, "tx_id": challenge.challenge_id,
                "nonce": challenge.nonce, "text": challenge.canonical_text}

    def _find(
        self, request: Message, batch: Optional[bool]
    ) -> Tuple[AccountRecord, Union[Challenge, Message]]:
        """The session's challenge that ``request`` names, or the error
        response.  ``batch`` is the shape the RPC method accepts (None:
        either); a batch member's tx id names no challenge."""
        record = self._authenticate(request)
        challenge = self.challenges.get(request.get("tx_id", b""))
        if challenge is None or batch not in (None, challenge.is_batch):
            return record, {"error": f"unknown {'batch' if batch else 'transaction'}"}
        if challenge.account != record.name:
            return record, self._deny_not_owner()
        return record, challenge

    def _members(self, challenge: Challenge) -> List[Transaction]:
        return [self.transactions[tx_id].transaction for tx_id in challenge.tx_ids]

    def _handle_tx_confirm(self, request: Message) -> Message:
        return self._confirm(request, batch=False)

    def _handle_tx_confirm_batch(self, request: Message) -> Message:
        return self._confirm(request, batch=True)

    def _confirm(self, request: Message, batch: bool) -> Message:
        """Consume the nonce, verify the evidence against the text this
        provider issued, then execute every member or none.

        Resubmitting the *same* evidence for a settled challenge replays
        the stored outcome (never a second execution); an expired nonce
        answers with a re-challenge hint and the challenge survives for
        ``tx.rechallenge``; a consumed nonce with different evidence
        stays the hard replay deny.
        """
        record, challenge = self._find(request, batch)
        if not isinstance(challenge, Challenge):
            return challenge
        digest = self._confirm_digest(request)
        if challenge.status is not TxStatus.PENDING:
            # Idempotent resubmission: a client whose transport gave up
            # mid-confirm re-sends the *same* evidence and gets the
            # *same* outcome.  Disabled under allow_reconfirmation, which
            # exists only so the replay ablation (A1) can observe the
            # undefended double execution; a production provider never
            # re-opens an executed challenge.
            if (
                not self.allow_reconfirmation
                and challenge.final is not None
                and challenge.evidence_digest == digest
            ):
                self.duplicate_confirms += 1
                return dict(challenge.final_response)
            if challenge.status is TxStatus.EXPIRED:
                # The expiry sweep got here first; same recovery as an
                # expired nonce observed at consume time.
                self.rechallenges_required += 1
                return dict(_RECHALLENGE_HINT)
            executed = challenge.status is TxStatus.EXECUTED
            if not (self.allow_reconfirmation and executed):
                return self._already(challenge)
        decision = request.get("decision", b"")
        if decision not in (b"accept", b"reject"):
            return {"error": f"bad decision {decision!r}"}

        # Anti-rollback extension: when the policy demands it, evidence
        # must carry a strictly increasing TPM counter value.  ``record``
        # is the session's account — proven above to own the challenge.
        counter = request.get("counter", -1)
        if self.policy.require_monotonic_counter:
            if not isinstance(counter, int) or counter <= record.last_counter:
                response = self._deny(
                    challenge,
                    f"counter rollback ({counter} <= {record.last_counter})",
                )
                self._journal_settle(challenge, consumed=0)
                return response

        if self.policy.check_nonce_freshness:
            accepted, state = self.nonces.consume(
                challenge.nonce, challenge.challenge_id, self.simulator.now
            )
            if not accepted:
                if state is NonceState.EXPIRED:
                    # Recoverable: the challenge aged out (slow network,
                    # retransmit storms, user walked away).  It survives
                    # — the client re-challenges via tx.rechallenge and
                    # confirms against a fresh nonce.  A *consumed* nonce
                    # stays a hard deny: that is the replay defense, not
                    # a network fault.
                    self.rechallenges_required += 1
                    reason = "nonce expired; re-challenge required"
                    self._set_status(
                        challenge, TxStatus.EXPIRED, reason, self.simulator.now
                    )
                    self._journal_settle(challenge, consumed=1)
                    return dict(_RECHALLENGE_HINT)
                return self._finalize(
                    challenge, digest,
                    self._deny(challenge, f"nonce {state.value}"),
                )

        # One evidence check against the whole canonical text.  A batch
        # takes the one-pass batch leg (which re-checks the AIK against
        # the CA); a single transaction the per-transaction legs.
        evidence = dict(
            evidence_type=request.get("evidence"), quote_bytes=request.get("quote"),
            signature=request.get("signature"), text=challenge.canonical_text,
            nonce=challenge.nonce, decision=decision,
            counter=counter if isinstance(counter, int) else -1,
            aik_certificate=record.aik_certificate,
            registered_key=record.registered_key,
        )
        if challenge.is_batch:
            result = self.verifier.verify_confirm_batch(
                members=len(challenge.tx_ids), **evidence
            )
        else:
            result = self.verifier.verify_confirmation(**evidence)
        if not result.ok:
            return self._finalize(
                challenge, digest, self._deny(challenge, result.failure.value)
            )
        if self.policy.require_monotonic_counter:
            record.last_counter = int(counter)

        now = self.simulator.now
        if decision == b"reject":
            self._set_status(challenge, TxStatus.REJECTED_BY_USER, "", now)
            response = {"ok": 1, "status": challenge.status.value}
        else:
            try:
                receipts = self.execute_transactions(self._members(challenge))
            except ProtocolError as exc:
                # The business state moved since request-time validation
                # (funds or stock ran out).  The nonce is spent, so this
                # settles like any denial: journaled and replayable.
                response = self._deny(challenge, str(exc))
            else:
                self._set_status(
                    challenge, TxStatus.EXECUTED, "; ".join(receipts), now
                )
                response = {"ok": 1, "status": challenge.status.value,
                            "receipt": challenge.detail}
        return self._finalize(
            challenge, digest, response, counter_account=record.name
        )

    def _handle_tx_rechallenge(self, request: Message) -> Message:
        """Reissue the confirmation challenge for a live transaction or
        batch.

        Recovery path for an expired nonce: the canonical text is
        unchanged (still server-authoritative), only the freshness
        material rolls over.  The old nonce is invalidated the moment
        the new one is minted, so at most one challenge per transaction
        is ever acceptable.  Settled challenges are never re-opened.
        """
        _record, challenge = self._find(request, None)
        if not isinstance(challenge, Challenge):
            return challenge
        self._expire_if_stale(challenge)
        if challenge.status not in (TxStatus.PENDING, TxStatus.EXPIRED):
            return self._already(challenge)
        now = self.simulator.now
        self.nonces.invalidate(challenge.nonce)
        self._reopen(
            challenge, self.nonces.issue(challenge.challenge_id, now), now
        )
        return self._challenge_response(challenge)

    @staticmethod
    def _already(challenge: Challenge) -> Message:
        noun = "batch" if challenge.is_batch else "transaction"
        return {"error": f"{noun} already {challenge.status.value}"}

    def _reopen(self, challenge: Challenge, nonce: bytes, at: float) -> None:
        """Back to PENDING under a fresh nonce, every member with it —
        live and in replay; journaled as ``rechal`` / ``brechal``."""
        self._set_status(challenge, TxStatus.PENDING, "", None)
        challenge.nonce = nonce
        challenge.issued_at = at
        self.rechallenges_issued += 1
        self._journal_append({
            "t": "brechal" if challenge.is_batch else "rechal",
            "id": challenge.challenge_id, "n": nonce, "at": pack_time(at),
        })

    def _confirm_digest(self, request: Message) -> bytes:
        """Stable digest of a confirm request's evidence material, used
        to recognize a resubmission of the *same* confirmation."""
        h = hashlib.sha256()
        for key in ("decision", "evidence", "quote", "signature", "counter"):
            value = request.get(key)
            if isinstance(value, int):
                encoded = str(value).encode("ascii")
            elif isinstance(value, str):
                encoded = value.encode("utf-8")
            elif isinstance(value, bytes):
                encoded = value
            else:
                encoded = b""
            h.update(key.encode("ascii"))
            h.update(len(encoded).to_bytes(4, "big"))
            h.update(encoded)
        return h.digest()

    def _set_status(
        self, challenge: Challenge, status: TxStatus, detail: str,
        settled_at: Optional[float],
    ) -> None:
        """Move a challenge and every member to ``status``.  A batch's
        receipts describe the batch: its members keep an empty detail."""
        challenge.thaw()
        challenge.status, challenge.detail = status, detail
        challenge.settled_at = settled_at
        challenge.encoded = None
        if challenge.is_batch and status is TxStatus.EXECUTED:
            detail = ""
        for tx_id in challenge.tx_ids:
            member = self.transactions[tx_id]
            member.thaw()
            member.status, member.detail = status, detail
            member.settled_at = settled_at

    def _deny(self, challenge: Challenge, reason: str) -> Message:
        self._set_status(challenge, TxStatus.DENIED, reason, self.simulator.now)
        self._count_denial(reason)
        prefix = "batch denied" if challenge.is_batch else "confirmation denied"
        return {"error": f"{prefix}: {reason}", "status": "denied"}

    def _finalize(
        self, challenge: Challenge, digest: bytes, response: Message,
        counter_account: Optional[str] = None,
    ) -> Message:
        """Settle a confirm that consumed the nonce: keep the outcome for
        idempotent replay and journal it."""
        challenge.encoded = None
        challenge.evidence_digest = digest
        challenge.final = dict(response)
        self._journal_settle(challenge, 1, counter_account)
        return response

    def _handle_tx_status(self, request: Message) -> Message:
        _record, challenge = self._find(request, batch=False)
        if not isinstance(challenge, Challenge):
            return challenge
        self._expire_if_stale(challenge)
        return {"ok": 1, "status": challenge.status.value,
                "detail": challenge.detail}

    # ------------------------------------------------------------------
    def _is_stale(self, challenge: Challenge) -> bool:
        return (
            challenge.status is TxStatus.PENDING
            and self.simulator.now - challenge.issued_at
            > self.policy.nonce_lifetime_seconds
        )

    def _expire_if_stale(self, challenge: Challenge) -> None:
        if self._is_stale(challenge):
            self._expire(
                challenge.challenge_id, challenge.is_batch, self.simulator.now
            )

    def _expire(self, record_id: bytes, batch: bool, at: Optional[float]) -> None:
        """The ``expire`` transition of one id — a batch member, or a
        single transaction (its member record and its challenge at once)
        — or the ``bexpire`` one of a batch challenge, live and in
        replay.  A batch member expires only while its batch is PENDING,
        which holds no encoded elements."""
        challenge = self.challenges.get(record_id)
        if challenge is not None:
            challenge.encoded = None
        for entry in (self.transactions.get(record_id), challenge):
            if entry is not None:
                entry.thaw()
                entry.status, entry.settled_at = TxStatus.EXPIRED, at
                entry.detail = "confirmation never arrived"
        self._journal_append({
            "t": "bexpire" if batch else "expire",
            "id": record_id, "at": pack_time(at),
        })

    def expire_stale_transactions(self) -> int:
        """Sweep: mark overdue PENDING challenges EXPIRED.  Every stale
        member's ``expire`` record, in store order, precedes the
        batches' ``bexpire`` records."""
        transactions = self.transactions
        stale = [
            c for c in self.challenges.values()
            if (c.held is None or self._sweepable(c)) and self._is_stale(c)
            and self._sweepable(*(transactions[tx_id] for tx_id in c.tx_ids))
        ]
        members = {tx_id for challenge in stale for tx_id in challenge.tx_ids}
        expired = [tx_id for tx_id in transactions if tx_id in members]
        for tx_id in expired:
            self._expire(tx_id, False, self.simulator.now)
        for challenge in stale:
            self._expire_if_stale(challenge)  # batches; singles are done
        return len(expired)

    def retire_settled(self, now: Optional[float] = None) -> int:
        """Drop settled records older than the retention window.

        Retired transactions stop answering ``tx.status`` (the client
        already holds the final response; the idempotent-replay window
        closes with retention).  PENDING and EXPIRED-awaiting-rechallenge
        records persist until they settle or age out — memory is
        O(active + recent), not O(lifetime).
        """
        now = self.simulator.now if now is None else now
        self._journal_append({"t": "retire", "at": pack_time(now)})
        horizon = now - self.settled_retention_seconds
        dead = [
            challenge for challenge in self.challenges.values()
            if (challenge.held is None or self._sweepable(challenge))
            and challenge.settled_at is not None
            and challenge.settled_at <= horizon
        ]
        retired = 0
        for challenge in dead:
            del self.challenges[challenge.challenge_id]
            for tx_id in challenge.tx_ids:
                del self.transactions[tx_id]
            self.transactions_retired += len(challenge.tx_ids)
            self.batches_retired += int(challenge.is_batch)
            retired += len(challenge.tx_ids) + int(challenge.is_batch)
        return retired

    def _sweepable(self, *entries: _Entry) -> bool:
        """Thaw ``entries`` for a store sweep, which reads every
        challenge.  A malformed held element fails its own reads only:
        the sweep leaves its challenge as it is, held, and counts it in
        ``provider.sweep_malformed``, so neither the sweep nor the
        request it rides on fails, and a replayed sweep skips it alike.
        The sweeps call this only for a held challenge: a call for every
        challenge cost about 2% of an ``openloop_day`` or
        ``platform_confirm`` round on a shared 2-vCPU host."""
        try:
            for entry in entries:
                entry.thaw()
        except MessageError:
            self.simulator.metrics.counter("provider.sweep_malformed").increment()
            return False
        return True

    def _maybe_sweep_store(self, now: float) -> None:
        """Opportunistic store maintenance, piggybacked on request
        traffic and rate-limited by ``store_sweep_interval``."""
        if now - self._last_store_sweep < self.store_sweep_interval:
            return
        self._mark_sweep(now)
        self.expire_stale_transactions()
        self.retire_settled(now)

    def _mark_sweep(self, at: float) -> None:
        """The ``sweepmark`` transition, live and in replay: the sweep's
        mutations journal themselves, this only its rate limiter."""
        self._last_store_sweep = at
        self._journal_append({"t": "sweepmark", "at": pack_time(at)})

    def _denial_response(self, result: VerificationResult) -> Message:
        self._count_denial(result.failure.value)
        return {"error": f"denied: {result.failure.value}"}

    # ------------------------------------------------------------------
    # Durability: write-ahead journal, snapshots, crash-stop recovery
    # ------------------------------------------------------------------
    def attach_journal(
        self, disk: UntrustedDisk, snapshot_every: int = 256
    ) -> ProviderJournal:
        """Make this provider durable: every protocol-state mutation is
        journaled to ``disk`` and a crash's :meth:`restart` rebuilds the
        shard bit-identically via :meth:`restore_from_journal`.  Writes
        a baseline snapshot immediately so restore always has a floor."""
        self.journal = ProviderJournal(disk, self.host, snapshot_every=snapshot_every)
        self.journal.write_snapshot(encode_message(self.capture_state()))
        return self.journal

    def journal_stats(self) -> Dict[str, int]:
        return {} if self.journal is None else self.journal.stats()

    def _journal_append(self, record: Message) -> None:
        """Durably record one state mutation.  Each record carries the
        *post-operation* states of both DRBGs (provider ids/cookies and
        nonce minting) so a restored shard resumes the exact randomness
        streams — future nonces mint bit-identically to an uncrashed
        run, which is what makes the replay defense survive a crash.

        Active migration taps see every record too (copied *before* the
        DRBG snapshots are attached — a shipped WAL tail must never
        carry this shard's generator state to another shard), so a
        coordinator can replay the copy-window mutations on the slice's
        new owner even when the pool runs journal-less."""
        if self._replaying:
            return
        if self._migration_taps:
            mirrored = dict(record)
            for tap in self._migration_taps:
                tap.append(mirrored)
        if self.journal is None:
            return
        record["sdk"], record["sdv"], record["sdn"] = self._drbg.snapshot()
        record["ndk"], record["ndv"], record["ndn"] = self.nonces.drbg.snapshot()
        self.journal.append(encode_message(record))
        if self.journal.snapshot_due:
            self.journal.write_snapshot(encode_message(self.capture_state()))

    def _journal_settle(
        self, challenge: Challenge, consumed: int,
        counter_account: Optional[str] = None,
    ) -> None:
        """Journal a challenge leaving PENDING (``settle`` for a single
        transaction, ``bsettle`` for a batch): final status/detail, the
        idempotent-replay material (evidence digest + response), and
        whether the nonce-consume attempt must be replayed (``cd``)."""
        if self._replaying or (self.journal is None and not self._migration_taps):
            return
        record: Message = {
            "t": "bsettle" if challenge.is_batch else "settle",
            "id": challenge.challenge_id,
            "st": challenge.status.value,
            "dt": challenge.detail,
            "at": pack_time(challenge.settled_at),
            # consume is only *attempted* when the policy checks
            # freshness; replay must mirror the attempt, not assume it.
            "cd": consumed if self.policy.check_nonce_freshness else 0,
        }
        if challenge.evidence_digest is not None:
            record["dg"] = challenge.evidence_digest
        if challenge.final is not None:
            record["fr"] = encode_message(challenge.final_response)
        if counter_account is not None and self.policy.require_monotonic_counter:
            record["a"] = counter_account
            record["ctr"] = self.accounts[counter_account].last_counter
        self._journal_append(record)

    # -- state capture / restore ----------------------------------------
    def capture_business_state(self) -> Message:
        """Subclass hook: business-side durable state (ledger...)."""
        return {}

    def restore_business_state(self, state: Message) -> None:
        """Subclass hook: inverse of :meth:`capture_business_state`."""

    # Shared element codecs for capture_state / capture_slice and their
    # inverses — one wire shape per element, used by snapshots, slice
    # migration and the journal alike.
    @staticmethod
    def _encode_account(record: AccountRecord) -> bytes:
        if record.encoded is not None:
            return record.encoded
        msg: Message = {
            "n": record.name,
            "p": record.password,
            "ctr": record.last_counter,
        }
        if record.cookie is not None:
            msg["c"] = record.cookie
        if record.aik_certificate is not None:
            msg["cert"] = serialize_certificate(record.aik_certificate)
        if record.registered_key is not None:
            msg["k"] = record.registered_key.to_bytes()
        if record.pending_setup_nonce is not None:
            msg["sn"] = record.pending_setup_nonce
        record.encoded = encode_message(msg)
        return record.encoded

    @staticmethod
    def _decode_account(encoded: bytes) -> AccountRecord:
        msg = decode_message(encoded)
        return AccountRecord.holding(
            encoded, name=str(msg["n"]), password=str(msg["p"]),
            cookie=msg.get("c"),
            aik_certificate=(
                deserialize_certificate(msg["cert"]) if "cert" in msg else None
            ),
            registered_key=(
                RsaPublicKey.from_bytes(msg["k"]) if "k" in msg else None
            ),
            pending_setup_nonce=msg.get("sn"), last_counter=int(msg["ctr"]),
        )

    @staticmethod
    def _encode_nonce(record: tuple) -> bytes:
        nonce, tx_id, issued_at, expires_at, consumed = record
        return encode_message({
            "v": nonce, "tx": tx_id, "ia": pack_time(issued_at),
            "ea": pack_time(expires_at), "cd": consumed,
        })

    @staticmethod
    def _decode_nonce(encoded: bytes) -> tuple:
        msg = decode_message(encoded)
        return (
            msg["v"], msg["tx"], unpack_time(msg["ia"]),
            unpack_time(msg["ea"]), int(msg["cd"]),
        )

    def _encode_store(
        self, challenges: Iterable[Challenge]
    ) -> Tuple[List[bytes], List[bytes]]:
        """The ``txs`` and ``batches`` elements for ``challenges``, each
        list in id order.  Every member transaction gets a ``txs``
        element — a single transaction's carries its whole challenge —
        and a batch adds one ``batches`` element.  These byte shapes are
        hashed into :meth:`state_digest` and priced as migration bytes,
        so they stay fixed whatever the in-memory model looks like.

        A settled challenge is encoded once: its elements stay on it
        (:attr:`Challenge.encoded`) and later captures reuse them, so a
        snapshot encodes only the live challenges."""
        txs: Dict[bytes, bytes] = {}
        batches: Dict[bytes, bytes] = {}
        for challenge in challenges:
            batch, members = challenge.encoded or self._encode_challenge(challenge)
            if batch is not None:
                batches[challenge.challenge_id] = batch
            txs.update(zip(challenge.tx_ids, members))
        return [txs[k] for k in sorted(txs)], [batches[k] for k in sorted(batches)]

    def _encode_challenge(
        self, challenge: Challenge
    ) -> Tuple[Optional[bytes], List[bytes]]:
        """One challenge's elements for :meth:`_encode_store`, held on
        the challenge when it is settled.  A member still holding its
        element gives that."""
        head: Message = {
            "ct": challenge.canonical_text, "n": challenge.nonce,
            "ia": pack_time(challenge.issued_at),
            "st": challenge.status.value, "dt": challenge.detail,
            "sa": pack_time(challenge.settled_at),
        }
        if challenge.evidence_digest is not None:
            head["dg"] = challenge.evidence_digest
        if challenge.final is not None:
            head["fr"] = encode_message(challenge.final_response)
        batch = None
        if challenge.is_batch:
            batch = encode_message(dict(
                head, id=challenge.challenge_id,
                ids=list(challenge.tx_ids), a=challenge.account,
            ))
        members = []
        for tx_id in challenge.tx_ids:
            member = self.transactions[tx_id]
            if member.held is not None:
                members.append(member.held)
                continue
            if challenge.is_batch:
                # Confirmed via the batch text; settles with it.
                element: Message = {
                    "ct": b"", "n": challenge.nonce, "ia": head["ia"],
                    "st": member.status.value, "dt": member.detail,
                    "sa": pack_time(member.settled_at),
                }
            else:
                element = head
            members.append(encode_message(dict(
                element, id=tx_id, tx=member.tx
            )))
        encoded = (batch, members)
        if challenge.status in _SETTLED:
            challenge.encoded = encoded
        return encoded

    def _install_store(self, txs: List[bytes], batches: List[bytes]) -> None:
        """Inverse of :meth:`_encode_store`: adopt the encoded challenges
        and their member records (snapshot restore, slice install).

        Only the id of each ``txs`` element is read.  Each member, and
        each single transaction's challenge, holds its element and
        thaws on the first read of any other field; batch elements are
        decoded here.  Decoding is canonical — every frame that decodes
        re-encodes to the same bytes — so a held element is exactly
        what :meth:`_encode_challenge` would write, and a capture takes
        it as it is: a single transaction's challenge holds it as
        :attr:`Challenge.encoded`, a settled batch its elements, and a
        member its own while it is held."""
        batch_msgs = [(encoded, decode_message(encoded)) for encoded in batches]
        member_ids = {tx_id for _, msg in batch_msgs for tx_id in msg["ids"]}
        member_elements: Dict[bytes, bytes] = {}
        transactions, challenges = self.transactions, self.challenges
        for encoded in txs:
            tx_id = read_field(encoded, "id")
            if not isinstance(tx_id, bytes):
                raise MessageError("txs element without a bytes id")
            transactions[tx_id] = TxRecord.holding(encoded)
            if tx_id in member_ids:
                member_elements[tx_id] = encoded
            else:
                single = Challenge.holding(tx_id, [tx_id], encoded)
                single.encoded = (None, [encoded])
                challenges[tx_id] = single
        for encoded, msg in batch_msgs:
            batch = Challenge.holding(msg["id"], list(msg["ids"]), encoded)
            batch.fill(msg)
            if batch.status in _SETTLED:
                batch.encoded = (
                    encoded, [member_elements[tx_id] for tx_id in batch.tx_ids]
                )
            challenges[batch.challenge_id] = batch

    def capture_state(self) -> Message:
        """The provider's complete protocol state as two canonical
        blobs: ``core`` (everything the security argument rests on —
        hashed by :meth:`state_digest`) and ``stats`` (observability
        counters, restored but excluded from the identity check).

        Elements are serialized in *canonical key order* (accounts by
        name, nonces by value, transactions/batches by id) rather than
        dict-insertion order: a migration round-trip re-inserts entries,
        and insertion history must not leak into the state identity —
        two shards holding the same state digest equal, however the
        entries got there."""
        accounts = [
            self._encode_account(self.accounts[name])
            for name in sorted(self.accounts)
        ]
        nonce_records = [
            self._encode_nonce(record)
            for record in sorted(self.nonces.export_records())
        ]
        txs, batches = self._encode_store(self.challenges.values())
        sdk, sdv, sdn = self._drbg.snapshot()
        ndk, ndv, ndn = self.nonces.drbg.snapshot()
        core: Message = {
            "accounts": accounts,
            "nonces": nonce_records,
            "nle": pack_time(self.nonces.last_eviction),
            "txs": txs,
            "batches": batches,
            "sweep_at": pack_time(self._last_store_sweep),
            "sdk": sdk, "sdv": sdv, "sdn": sdn,
            "ndk": ndk, "ndv": ndv, "ndn": ndn,
            "biz": encode_message(self.capture_business_state()),
        }
        stats: Message = {
            "denials": [
                encode_message({"r": reason, "c": count})
                for reason, count in self.denials.items()
            ],
        }
        for owner, fields in self._stat_fields():
            for key, attr in fields:
                stats[key] = getattr(owner, attr)
        return {"core": encode_message(core), "stats": encode_message(stats)}

    def _stat_fields(self):
        """The ``stats`` counters as (owner, ((key, attribute), ...))."""
        return ((self, _PROVIDER_STATS), (self.nonces, _NONCE_STATS))

    def state_digest(self) -> bytes:
        """Digest of the security-relevant state (accounts, sessions,
        nonce DB, transactions, DRBG streams, business ledger).  Two
        shards with equal digests will behave identically forever —
        the acceptance check for journal-recovery bit-identity."""
        return hashlib.sha256(self.capture_state()["core"]).digest()

    def restore_state(self, state: Message) -> None:
        core = decode_message(state["core"])
        stats = decode_message(state["stats"])
        self.accounts = {}
        self._cookies = {}
        for encoded in core["accounts"]:
            record = self._decode_account(encoded)
            if record.cookie is not None:
                self._cookies[record.cookie] = record.name
            self.accounts[record.name] = record
        self.nonces.import_records(
            [self._decode_nonce(encoded) for encoded in core["nonces"]],
            unpack_time(core["nle"]) or 0.0,
        )
        self.challenges = {}
        self.transactions = {}
        self._install_store(core["txs"], core["batches"])
        self._last_store_sweep = unpack_time(core["sweep_at"]) or 0.0
        self._drbg.restore((core["sdk"], core["sdv"], int(core["sdn"])))
        self.nonces.drbg.restore((core["ndk"], core["ndv"], int(core["ndn"])))
        self.restore_business_state(decode_message(core["biz"]))
        self.denials = {}
        for encoded in stats["denials"]:
            msg = decode_message(encoded)
            self.denials[str(msg["r"])] = int(msg["c"])
        for owner, fields in self._stat_fields():
            for key, attr in fields:
                setattr(owner, attr, int(stats[key]))

    # -- crash-stop lifecycle -------------------------------------------
    def crash(self) -> None:
        """Crash-stop: the process is gone.  The RPC endpoint drops its
        queue and dedup cache; every piece of protocol state the
        provider keeps in RAM — sessions, setup nonces, anti-rollback
        counters, the nonce DB, pending and settled transactions — dies
        with it.  The account registry (credentials, enrolled certs and
        keys) and the business ledger model a conventional durable user
        DB and survive; they are not what the paper's defense rests on.
        """
        if self.endpoint.crashed:
            return
        self.endpoint.crash()
        self.crashes += 1
        self.simulator.metrics.counter("provider.crashes").increment()
        self._cookies.clear()
        for record in self.accounts.values():
            record.cookie = None
            record.pending_setup_nonce = None
            record.last_counter = 0
        self.challenges.clear()
        self.transactions.clear()
        self.nonces.wipe()
        self._last_store_sweep = 0.0
        # Migration taps are coordinator-held RAM buffers fed by this
        # process; a crash severs them.  The coordinator's recovery path
        # must treat any in-flight copy window through this shard as
        # lost and abort the migration.
        self._migration_taps.clear()

    def restart(self) -> None:
        """Bring the process back.  With a journal attached the shard is
        rebuilt bit-identically; without one it serves again from the
        wiped state — the R2 ablation arm where the replay defense and
        exactly-once confirms are lost."""
        if not self.endpoint.crashed:
            return
        self.endpoint.restart()
        self.restarts += 1
        if self.journal is not None:
            self.restore_from_journal()

    def restore_from_journal(self) -> None:
        """Snapshot + WAL tail -> the exact pre-crash provider state."""
        if self.journal is None:
            raise JournalError(f"no journal attached to {self.host}")
        snapshot = self.journal.read_snapshot()
        if snapshot is None:
            raise JournalError(f"no snapshot on disk for {self.host}")
        # A mid-append crash left a partial final frame: discard it now
        # (its operation never became durable), or the first post-restart
        # append would land after the partial bytes and corrupt the
        # framing of every later record.
        self.journal.repair_tail()
        self.restore_state(decode_message(snapshot))
        records = [decode_message(raw) for raw in self.journal.read_records()]
        self._replaying = True
        try:
            for record in records:
                record_kind(record).replay(self, record)
        finally:
            self._replaying = False
        if records:
            # Replay recreated recorded randomness without consuming the
            # generators; jump both streams to their last recorded state.
            last = records[-1]
            self._drbg.restore((last["sdk"], last["sdv"], int(last["sdn"])))
            self.nonces.drbg.restore(
                (last["ndk"], last["ndv"], int(last["ndn"]))
            )
        self.journal_restores += 1

    def _replay_issue(self, rec: Message) -> None:
        at = unpack_time(rec["at"])
        self.nonces.replay_issue(rec["n"], rec["id"], at)
        if rec["t"] == "txreq":
            tx_ids, encoded = [rec["id"]], [rec["tx"]]
        else:
            tx_ids, encoded = list(rec["ids"]), rec["txs"]
        self._add_challenge(
            rec["id"], tx_ids,
            [Transaction.from_canonical_bytes(raw) for raw in encoded],
            rec["n"], at,
        )

    def _replay_rechallenge(self, rec: Message) -> None:
        challenge = self.challenges[rec["id"]]
        at = unpack_time(rec["at"])
        self.nonces.invalidate(challenge.nonce)
        self.nonces.replay_issue(rec["n"], challenge.challenge_id, at)
        self._reopen(challenge, rec["n"], at)

    def _replay_settle(self, rec: Message) -> None:
        challenge = self.challenges[rec["id"]]
        at = unpack_time(rec["at"])
        if rec.get("cd"):
            # Re-run the consume *attempt* so the nonce DB (record
            # state, counters, opportunistic eviction sweep) evolves
            # exactly as it did live; the verdict is already settled.
            self.nonces.consume(challenge.nonce, challenge.challenge_id, at)
        status = TxStatus(str(rec["st"]))
        self._set_status(challenge, status, str(rec["dt"]), at)
        if "dg" in rec:
            challenge.evidence_digest = rec["dg"]
        if "fr" in rec:
            challenge.final = rec["fr"]
        if "ctr" in rec:
            self.accounts[str(rec["a"])].last_counter = int(rec["ctr"])
        if status is TxStatus.EXECUTED:
            # Deterministic re-application of the business effect; the
            # receipts already live in the recorded detail.  Skipped for
            # migration tails — the flip-time business refresh carries
            # the post-window balances instead.
            if not self._migration_replay:
                self.execute_transactions(self._members(challenge))
        elif status is TxStatus.DENIED:
            self._count_denial(challenge.detail)
        elif status is TxStatus.EXPIRED:
            self.rechallenges_required += 1

    def _replay_tail(self, rec: Message) -> None:
        """Tail records replay their *protocol* effects only; the
        business effect of window settles is delivered separately by the
        flip-time ``mig_biz`` refresh (the source already executed them
        live — re-executing here would double-count external accounts
        and the transfer log pool-wide)."""
        previous, self._migration_replay = self._migration_replay, True
        try:
            for record in map(decode_message, rec["rs"]):
                record_kind(record).replay(self, record)
        finally:
            self._migration_replay = previous

    # -- account-slice migration (live rebalancing) ----------------------
    # The elastic pool (`repro.server.rebalance`) moves an account range
    # between shards in two phases: capture_slice ships a snapshot of
    # the slice while the source keeps serving (a migration tap mirrors
    # every mutation record in the copy window), then at ring-flip time
    # apply_migration_records replays the tail on the new owner and
    # drop_slice removes the range from the source.  Consumed nonces
    # travel with their transactions, so evidence replayed cross-shard
    # after a flip is still rejected *by construction* — the nonce
    # arrives on the new owner already marked consumed.

    def capture_business_slice(self, accounts: Iterable[str]) -> Message:
        """Subclass hook: the business state bound to ``accounts``
        (e.g. their ledger balances).  Historical logs stay behind —
        they record where work *happened*, not who owns the account."""
        return {}

    def install_business_slice(self, state: Message) -> None:
        """Subclass hook: inverse of :meth:`capture_business_slice`."""

    def drop_business_slice(self, accounts: Iterable[str]) -> None:
        """Subclass hook: forget the business state of a migrated-out
        account range."""

    def capture_business_residual(self) -> Message:
        """Subclass hook: business state *not* bound to any owned
        account — external counterparty balances and historical logs.
        Captured when a shard is drained away so the pool-wide ledger
        conserves; an empty message means nothing to ship."""
        return {}

    def install_business_residual(self, state: Message) -> None:
        """Subclass hook: additively absorb a drained peer's residual
        business state (inverse of :meth:`capture_business_residual`)."""

    def install_business_refresh(self, state: Message) -> None:
        """Overwrite the migrated range's business state with its value
        at ring-flip time, journaled as one ``mig_biz`` record.  The
        copy-window tail replays protocol effects only, so this refresh
        is what delivers the window's business effects to the new owner
        — exactly once, because the source executed them exactly once."""
        self.install_business_slice(state)
        self._journal_append({"t": "mig_biz", "b": encode_message(state)})

    def install_residual(self, state: Message) -> None:
        """Absorb a drained shard's residual business state, journaled
        as one ``mig_res`` record so the absorption survives a later
        crash of this shard."""
        self.install_business_residual(state)
        self._journal_append({"t": "mig_res", "b": encode_message(state)})

    def start_migration_tap(self) -> list:
        """Begin mirroring mutation records (the live WAL tail) into a
        fresh list; runs with or without a disk journal attached."""
        tap: list = []
        self._migration_taps.append(tap)
        return tap

    def stop_migration_tap(self, tap: list) -> list:
        self._migration_taps.remove(tap)
        return tap

    def clear_migration_taps(self) -> int:
        """Abort path: drop every active tap without needing the tap
        handles (a crashed coordinator recovering from its intent log
        has none).  Safe when the shard crashed in between — the crash
        already cleared the taps."""
        dropped = len(self._migration_taps)
        self._migration_taps.clear()
        return dropped

    def note_migration(self, kind: str, op_id: str) -> None:
        """Journal a migration-protocol marker (``mig_prepare`` /
        ``mig_commit`` / ``mig_abort``) on this shard.  Markers are the
        participant-side trace of the coordinator's write-ahead intent
        log: they replay as no-ops but make every shard's WAL
        self-describing about the scale events it took part in."""
        if kind not in RECORD_KINDS or RECORD_KINDS[kind].owner != MARKER:
            raise ValueError(f"not a migration marker kind: {kind!r}")
        self._journal_append({"t": kind, "op": op_id})

    def capture_slice(self, account_names: Iterable[str]) -> Message:
        """Snapshot everything owned by ``account_names``: the account
        records, their live and settled challenges, every
        nonce bound to those ids (consumed ones included — the replay
        defense must survive the move), and the business slice.  DRBG
        states deliberately stay home: randomness streams belong to a
        host, not to an account range."""
        names = sorted(set(account_names) & self.accounts.keys())
        name_set = set(names)
        owned = [c for c in self.challenges.values() if c.account in name_set]
        owned_ids = {challenge.challenge_id for challenge in owned}
        nonce_records = sorted(
            record for record in self.nonces.export_records()
            if record[1] in owned_ids
        )
        txs, batches = self._encode_store(owned)
        return {
            "names": names,
            "as": [self._encode_account(self.accounts[n]) for n in names],
            "ns": [self._encode_nonce(r) for r in nonce_records],
            "txs": txs,
            "bs": batches,
            "biz": encode_message(self.capture_business_slice(names)),
        }

    def install_slice(self, blob: Message) -> List[str]:
        """Adopt a captured slice as the new owner; journaled as one
        ``mig_in`` record so a crash after the flip restores the shard
        with the migrated range intact."""
        names = self._apply_slice(blob)
        self._journal_append({"t": "mig_in", "s": encode_message(blob)})
        return names

    def _apply_slice(self, blob: Message) -> List[str]:
        names = [str(name) for name in blob["names"]]
        for encoded in blob["as"]:
            record = self._decode_account(encoded)
            previous = self.accounts.get(record.name)
            if previous is not None and previous.cookie is not None:
                self._cookies.pop(previous.cookie, None)
            self.accounts[record.name] = record
            if record.cookie is not None:
                self._cookies[record.cookie] = record.name
        self._install_store(blob["txs"], blob["bs"])
        self.nonces.absorb_records(
            [self._decode_nonce(encoded) for encoded in blob["ns"]]
        )
        self.install_business_slice(decode_message(blob["biz"]))
        self.transactions_peak = max(
            self.transactions_peak, len(self.transactions)
        )
        return names

    def drop_slice(self, account_names: Iterable[str]) -> int:
        """Remove a migrated-out account range from this shard, live and
        in replay; journaled as one ``mig_out`` record."""
        name_set = set(account_names) & self.accounts.keys()
        if not name_set:
            return 0
        names = sorted(name_set)
        dropped = [c for c in self.challenges.values() if c.account in name_set]
        for challenge in dropped:
            del self.challenges[challenge.challenge_id]
            for tx_id in challenge.tx_ids:
                del self.transactions[tx_id]
        self.nonces.drop_bound({c.challenge_id for c in dropped})
        for name in names:
            record = self.accounts.pop(name)
            if record.cookie is not None:
                self._cookies.pop(record.cookie, None)
        self.drop_business_slice(names)
        self._journal_append({"t": "mig_out", "a": names})
        return len(names)

    def apply_migration_records(
        self, records: List[Message], account_names: Iterable[str]
    ) -> int:
        """Replay a copy-window WAL tail, keeping only the records that
        concern the migrated range (the owner column of
        :data:`RECORD_KINDS`; an unknown kind refuses the whole tail).
        Filtering is interleaved with replay: a transaction *created*
        during the window (its ``txreq`` is in the tail) must be visible
        when its own settle record is screened.  The applied tail is
        journaled as one ``mig_tail`` record carrying this shard's own
        post-apply DRBG states — replay mints nothing."""
        name_set = set(account_names)
        kinds = [record_kind(record) for record in records]
        applied: List[Message] = []
        self._replaying = True
        self._migration_replay = True
        try:
            for record, (replay, owner) in zip(records, kinds):
                if owner == BY_ID:
                    held = record["id"] in self.challenges or (
                        record["id"] in self.transactions
                    )
                else:
                    held = callable(owner) and owner(record) in name_set
                if held:
                    replay(self, record)
                    applied.append(record)
        finally:
            self._replaying = False
            self._migration_replay = False
        if applied:
            self._journal_append(
                {"t": "mig_tail", "rs": [encode_message(r) for r in applied]}
            )
        return len(applied)

    # -- experiment accessors -------------------------------------------------
    def count_by_status(self) -> Dict[str, int]:
        return dict(Counter(m.status.value for m in self.transactions.values()))


#: Owner rules of the record kinds that name no account: a migration
#: tail applies a *by id* record when the new owner holds the entry it
#: names, and never a *source-only* one (it paces the source's store
#: sweeps), a *marker* or a *never tailed* one (migration writes it).
BY_ID, SOURCE_ONLY, MARKER, NEVER_TAILED = (
    "by id", "source-only", "marker", "never tailed",
)


class RecordKind(NamedTuple):
    """How replay applies a record of one kind, and whose the record is
    in a migration tail: a function giving its account, or a rule."""

    replay: Callable[[ServiceProvider, Message], None]
    owner: Union[Callable[[Message], str], str]


def _named(r: Message) -> str:
    return str(r["a"])


def _account(p: ServiceProvider, r: Message) -> AccountRecord:
    return p.accounts[str(r["a"])]


def _at(r: Message) -> Optional[float]:
    return unpack_time(r["at"])


#: Every record kind a provider journals, by its ``t`` tag.  Replay, the
#: migration-tail filter and the marker check read it; an account kind
#: or a challenge transition replays through the method that applies and
#: journals it live, and a marker's state lives in the intent log.
RECORD_KINDS: Dict[str, RecordKind] = {
    "reg": RecordKind(
        lambda p, r: p._register(decode_message(r["req"])),
        lambda r: str(decode_message(r["req"])["account"]),
    ),
    "login": RecordKind(lambda p, r: p._login(_account(p, r), r["c"]), _named),
    "cert": RecordKind(lambda p, r: p._enroll(
        _account(p, r), deserialize_certificate(r["cert"]), r["cert"]
    ), _named),
    "sbegin": RecordKind(lambda p, r: p._begin_setup(_account(p, r), r["n"]), _named),
    "skey": RecordKind(lambda p, r: p._end_setup(_account(p, r), r.get("k")), _named),
    "txreq": RecordKind(ServiceProvider._replay_issue, lambda r: account_of(r["tx"])),
    "breq": RecordKind(ServiceProvider._replay_issue, _named),
    "rechal": RecordKind(ServiceProvider._replay_rechallenge, BY_ID),
    "brechal": RecordKind(ServiceProvider._replay_rechallenge, BY_ID),
    "settle": RecordKind(ServiceProvider._replay_settle, BY_ID),
    "bsettle": RecordKind(ServiceProvider._replay_settle, BY_ID),
    "expire": RecordKind(lambda p, r: p._expire(r["id"], False, _at(r)), BY_ID),
    "bexpire": RecordKind(lambda p, r: p._expire(r["id"], True, _at(r)), BY_ID),
    "retire": RecordKind(lambda p, r: p.retire_settled(_at(r)), SOURCE_ONLY),
    "sweepmark": RecordKind(lambda p, r: p._mark_sweep(_at(r)), SOURCE_ONLY),
    "mig_in": RecordKind(
        lambda p, r: p._apply_slice(decode_message(r["s"])), NEVER_TAILED
    ),
    "mig_out": RecordKind(lambda p, r: p.drop_slice(map(str, r["a"])), NEVER_TAILED),
    "mig_tail": RecordKind(ServiceProvider._replay_tail, NEVER_TAILED),
    "mig_biz": RecordKind(
        lambda p, r: p.install_business_slice(decode_message(r["b"])), NEVER_TAILED
    ),
    "mig_res": RecordKind(
        lambda p, r: p.install_business_residual(decode_message(r["b"])),
        NEVER_TAILED,
    ),
    "mig_prepare": RecordKind(lambda p, r: None, MARKER),
    "mig_commit": RecordKind(lambda p, r: None, MARKER),
    "mig_abort": RecordKind(lambda p, r: None, MARKER),
}


def record_kind(r: Message) -> RecordKind:
    """The table entry of ``r``'s kind; JournalError for a kind the
    table does not list."""
    kind = r["t"]
    entry = RECORD_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise JournalError(f"unknown journal record kind {kind!r}")
    return entry
