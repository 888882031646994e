"""Per-layer self time, measured from outside the program.

:class:`LayerTrace` wraps public functions of each layer in spans and
keeps a span stack in memory.  A span's self time is its duration minus
the time its child spans cover; ``calls`` counts spans at the same
boundaries.  Nothing under ``src/`` is edited: the wrappers replace
class attributes and module bindings while the trace is installed, and
:meth:`LayerTrace.uninstall` puts every original back.

Spans record only while ``recording`` is set, which the worker does for
the timed phase alone.  Callbacks the program hands around — RPC
handlers at ``RpcEndpoint.register``, response callbacks at
``RpcEndpoint.submit`` and event actions at ``Simulator.schedule`` — are
wrapped when they are handed over, so events scheduled during set-up are
still attributed when they fire in the timed phase.  Event actions are
attributed by label prefix (``net:`` packet deliveries into the RPC
layer, ``rpc:`` service and retry timers, ``loadgen:`` arrivals, ...);
what is left in ``sim.run`` is the kernel loop itself.

Nothing in a PAL class's MRO is wrapped: the PAL's measured image is
the source of those classes, and patching them is outside the model.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Provider RPC methods reported one by one: the confirmation path.
#: The rest (register, login, setup, status) are ``provider.other``.
PROVIDER_METHODS = (
    "tx.request", "tx.confirm", "tx.request_batch", "tx.confirm_batch",
)

#: Event-label prefix -> span name for scheduled event actions.
EVENT_SPANS = (
    ("net:", "rpc.receive"),
    ("rpc:", "rpc.event"),
    ("loadgen:", "loadgen.event"),
    ("rebalance.", "rebalance.event"),
    ("autoscaler.", "rebalance.event"),
    ("fault:", "faults.event"),
)

#: Layer -> the span names whose self time is that layer's.  Every span
#: the trace records belongs to exactly one layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim.run", "sim.event"),
    "loadgen": ("loadgen.event", "loadgen.callback", "loadgen.sign"),
    "rpc": (
        "rpc.submit", "rpc.call_sync", "rpc.receive", "rpc.event",
        "rpc.callback", "rpc.handler",
    ),
    "codec": ("codec.encode", "codec.decode"),
    "network": ("network.send", "network.transfer"),
    "router": ("router.handler", "router.callback"),
    "provider": tuple(f"provider.{m}" for m in PROVIDER_METHODS)
    + ("provider.other",),
    "verifier": ("verifier.verify",),
    "crypto": (
        "crypto.modexp", "crypto.rsa_sign", "crypto.rsa_verify", "crypto.hash",
    ),
    "noncedb": ("noncedb.issue", "noncedb.consume"),
    "journal": (
        "journal.append", "journal.snapshot", "journal.capture",
        "journal.restore",
    ),
    "rebalance": ("rebalance.event", "rebalance.op"),
    "faults": ("faults.event",),
    "client": ("client.confirm",),
    "drtm": ("drtm.session", "drtm.measure"),
    "tpm": ("tpm.execute",),
}


def event_span(label: str) -> str:
    for prefix, name in EVENT_SPANS:
        if label.startswith(prefix):
            return name
    return "sim.event"


def _not_ok(result, args) -> int:
    return 0 if result.ok else 1


def _result_len(result, args) -> int:
    return len(result)


def _first_arg_len(result, args) -> int:
    return len(args[0])


def _second_arg_len(result, args) -> int:
    return len(args[1])


class _CountingRng:
    """Counts the thinning candidates ``plan_arrivals`` draws; every
    value still comes from the wrapped stream, unchanged."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.draws = 0

    def expovariate(self, rate: float) -> float:
        self.draws += 1
        return self._rng.expovariate(rate)

    def random(self) -> float:
        return self._rng.random()


class LayerTrace:
    """Span stack, self time and call counts per span name."""

    def __init__(self) -> None:
        self.recording = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Per-span sums of a value taken from each recorded call
        #: (bytes through the codec or journal, verifier rejections).
        self.tallies: Dict[str, int] = defaultdict(int)
        #: Time covered by spans with no parent span.
        self.top_level_s = 0.0
        self.plan_candidates = 0
        self.plan_arrivals = 0
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._router_hosts = set()

    # -- spans ---------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: Optional[Callable[[object, tuple], int]] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``."""
        trace = self
        stack = self._stack
        calls, self_s, tallies = self.calls, self.self_s, self.tallies
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not trace.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    trace.top_level_s += elapsed
            if tally is not None:
                tallies[name] += tally(result, args)
            return result

        span.__wrapped__ = fn
        span.perf_span = name
        return span

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    # -- installation ----------------------------------------------------------
    def _replace(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span_attr(self, owner, attr: str, name: str, tally=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, tally))
        else:
            replacement = self.wrap(name, original, tally)
        self._replace(owner, attr, replacement)

    def _span_bindings(self, fn: Callable, name: str, tally=None) -> None:
        """Wrap every module-level binding of ``fn`` in loaded
        ``repro`` modules (``from x import f`` copies the binding)."""
        wrapper = self.wrap(name, fn, tally)
        for module_name, module in sorted(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary.  Import the program first: a
        module imported later copies whatever binding it finds."""
        from repro.bench import loadgen
        from repro.core.client import TrustedPathClient
        from repro.crypto.backend import AccelBackend
        from repro.drtm.session import FlickerSession
        from repro.drtm.slb import SecureLoaderBlock
        from repro.net import messages
        from repro.net.network import Network
        from repro.net.rpc import RpcEndpoint
        from repro.server.journal import ProviderJournal
        from repro.server.noncedb import NonceDatabase
        from repro.server.provider import ServiceProvider
        from repro.server.rebalance import ShardPoolManager
        from repro.server.verifier import AttestationVerifier
        from repro.sim.kernel import Simulator
        from repro.tpm.device import TpmDevice

        trace = self

        # -- kernel: the loop is a span; event actions are wrapped as
        #    they are scheduled and attributed by label.
        self._span_attr(Simulator, "run", "sim.run")
        for attr in ("schedule", "schedule_at"):
            original = vars(Simulator)[attr]

            def schedule(sim, when, action, label="", _original=original):
                return _original(
                    sim, when, trace.wrap(event_span(label), action), label
                )

            self._replace(Simulator, attr, schedule)

        # -- RPC: handlers are attributed to the router or the provider
        #    that registers them; response callbacks to their caller.
        register = vars(RpcEndpoint)["register"]

        def traced_register(endpoint, method, handler, service_time=0.0):
            owner = getattr(handler, "__self__", None)
            if isinstance(owner, ServiceProvider):
                name = (
                    f"provider.{method}" if method in PROVIDER_METHODS
                    else "provider.other"
                )
            elif getattr(handler, "__qualname__", "").startswith(
                "ProviderRouter."
            ):
                trace._router_hosts.add(endpoint.host)
                name = "router.handler"
            else:
                name = "rpc.handler"
            return register(
                endpoint, method, trace.wrap(name, handler), service_time
            )

        self._replace(RpcEndpoint, "register", traced_register)

        submit = self.wrap("rpc.submit", vars(RpcEndpoint)["submit"])

        def traced_submit(endpoint, caller, method, request, on_response,
                          policy=None):
            if caller == loadgen.LOAD_HOST:
                name = "loadgen.callback"
            elif caller in trace._router_hosts:
                name = "router.callback"
            else:
                name = "rpc.callback"
            return submit(
                endpoint, caller, method, request,
                trace.wrap(name, on_response), policy,
            )

        self._replace(RpcEndpoint, "submit", traced_submit)
        self._span_attr(RpcEndpoint, "call_sync", "rpc.call_sync")

        # -- codec and network.
        self._span_bindings(
            messages.encode_message, "codec.encode", _result_len
        )
        self._span_bindings(
            messages.decode_message, "codec.decode", _first_arg_len
        )
        self._span_attr(Network, "send", "network.send")
        self._span_attr(Network, "transfer", "network.transfer")

        # -- load generator: client signing and the arrival plan.
        self._span_attr(loadgen, "pkcs1_sign", "loadgen.sign")
        plan_arrivals = vars(loadgen)["plan_arrivals"]

        def traced_plan(rng, *args, **kwargs):
            counting = _CountingRng(rng)
            arrivals = plan_arrivals(counting, *args, **kwargs)
            trace.plan_candidates += counting.draws
            trace.plan_arrivals += len(arrivals)
            return arrivals

        self._replace(loadgen, "plan_arrivals", traced_plan)

        # -- server side.
        for attr in (
            "verify_aik_certificate", "verify_setup",
            "verify_quote_confirmation", "verify_signed_confirmation",
            "verify_confirm_batch",
        ):
            self._span_attr(
                AttestationVerifier, attr, "verifier.verify", _not_ok
            )
        self._span_attr(NonceDatabase, "issue", "noncedb.issue")
        self._span_attr(NonceDatabase, "consume", "noncedb.consume")
        self._span_attr(
            ProviderJournal, "append", "journal.append", _second_arg_len
        )
        self._span_attr(
            ProviderJournal, "write_snapshot", "journal.snapshot",
            _second_arg_len,
        )
        self._span_attr(ServiceProvider, "capture_state", "journal.capture")
        self._span_attr(
            ServiceProvider, "restore_from_journal", "journal.restore"
        )
        for attr in ("scale_up", "drain_shard", "recover"):
            self._span_attr(ShardPoolManager, attr, "rebalance.op")

        # -- crypto primitives, at the one backend every call reaches.
        self._span_attr(AccelBackend, "rsa_modexp", "crypto.modexp")
        self._span_attr(AccelBackend, "rsa_sign_crt", "crypto.rsa_sign")
        self._span_attr(AccelBackend, "rsa_verify", "crypto.rsa_verify")
        for attr in (
            "sha1", "sha256", "new_sha1", "new_sha256",
            "hmac_sha1", "hmac_sha256",
        ):
            self._span_attr(AccelBackend, attr, "crypto.hash")

        # -- client platform.
        self._span_attr(
            TrustedPathClient, "confirm_transaction", "client.confirm"
        )
        self._span_attr(FlickerSession, "run", "drtm.session")
        self._span_attr(SecureLoaderBlock, "package", "drtm.measure")
        self._span_attr(TpmDevice, "execute", "tpm.execute")

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        self.recording = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-data result for the worker's JSON line."""
        unknown = set(self.calls) - {
            name for names in LAYERS.values() for name in names
        }
        if unknown:
            raise ValueError(f"spans outside every layer: {sorted(unknown)}")
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "tallies": dict(self.tallies),
            "top_level_s": self.top_level_s,
            "plan_candidates": self.plan_candidates,
            "plan_arrivals": self.plan_arrivals,
        }
