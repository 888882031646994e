"""The browser: the untrusted application that talks to service
providers.

Everything the browser sends and receives passes through the OS hook
layers, so resident malware interposes on it exactly as a
man-in-the-browser does in the wild.  The browser itself is honest; its
*environment* is not.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.messages import Message
from repro.net.rpc import RpcEndpoint
from repro.os.kernel import UntrustedOS

# The time a user-agent spends building/parsing a request (rendering is
# out of scope); small but nonzero so end-to-end numbers are honest.
BROWSER_PROCESSING_SECONDS = 0.004


class Browser:
    """A user agent running on the untrusted OS."""

    def __init__(self, os_instance: UntrustedOS) -> None:
        self.os = os_instance
        self.session_cookies: Dict[str, bytes] = {}

    def call(
        self, endpoint: RpcEndpoint, method: str, request: Message
    ) -> Message:
        """Send a request to a provider endpoint through the hook layers."""
        self.os.simulator.clock.advance(BROWSER_PROCESSING_SECONDS)
        cookie = self.session_cookies.get(endpoint.host)
        if cookie is not None and "session" not in request:
            request = dict(request, session=cookie)
        request = self.os.apply_outbound_hooks(endpoint.host, request)
        response = endpoint.call_sync(self.os.hostname, method, request)
        response = self.os.apply_inbound_hooks(endpoint.host, response)
        if "set_session" in response:
            self.session_cookies[endpoint.host] = response["set_session"]
        return response

    def store_cookie(self, host: str, cookie: bytes) -> None:
        self.session_cookies[host] = cookie

    def cookie_for(self, host: str) -> Optional[bytes]:
        return self.session_cookies.get(host)
