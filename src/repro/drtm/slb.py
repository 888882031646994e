"""The Secure Loader Block: code identity for late launch.

On real hardware, SKINIT hashes the literal bytes of the SLB.  In the
simulation a PAL's behaviour lives in Python code, so the honest
analogue is to derive the measured image from the **source code** of the
PAL's class hierarchy plus its configuration bytes: change the PAL's
behaviour (subclass it, edit a method) and its measurement changes, so
PCR 17 diverges and sealed credentials stay out of reach — the same
consequence the hardware enforces.

Each class's source is read once, the first time a PAL of that class is
measured, and kept for the life of the class object.  The measurement
therefore reflects the code as imported: editing a file on disk after
import no longer changes it, which matches the code actually running.

(Limit of the model: monkey-patching a method at runtime would change
behaviour without changing the measured source.  Nothing in this repo
does that, and the adversary models attack the protocol, not the Python
runtime; DESIGN.md §substitutions discusses this boundary.)
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crypto.sha1 import sha1

if TYPE_CHECKING:  # pragma: no cover
    from repro.drtm.pal import Pal

# Keyed on the class object itself (ids are reused after collection) and
# held weakly, so a PAL class defined inside a function stays collectable.
_CLASS_SOURCES: "weakref.WeakKeyDictionary[type, str]" = weakref.WeakKeyDictionary()


def _class_source(cls: type) -> str:
    """The source of ``cls``, read on first use and cached per class."""
    source = _CLASS_SOURCES.get(cls)
    if source is None:
        try:
            source = inspect.getsource(cls)
        except (OSError, TypeError):
            # Classes without retrievable source (e.g. defined in a REPL)
            # fall back to their qualified name; still behaviour-coupled
            # for everything defined in this repository.
            source = f"<unsourced:{cls.__module__}.{cls.__qualname__}>"
        _CLASS_SOURCES[cls] = source
    return source


def measured_image(pal: "Pal") -> bytes:
    """Bytes constituting the PAL's measured identity.

    Concatenates the source of every class in the PAL's MRO (so
    inherited behaviour is covered) with the PAL's configuration bytes.
    Per-invocation *data* (the transaction text, the nonce) is NOT part
    of the image — the PAL extends that into PCR 18 itself, mirroring
    how Flicker separates code identity from inputs.  Configuration
    bytes are per instance, so they are read on every call.
    """
    sources = [_class_source(cls) for cls in type(pal).__mro__ if cls is not object]
    blob = "\n".join(sources).encode("utf-8")
    return blob + b"\x00CONFIG\x00" + pal.config_bytes()


@dataclass(frozen=True)
class SecureLoaderBlock:
    """A PAL packaged for launch, with its measured image.

    ``padded_size`` models the real SLB's size on the bus: SKINIT
    streams this many bytes through the hash engine, which is what makes
    session latency grow with PAL size (experiment F1).  Real SLBs are
    capped at 64 KiB; we allow larger values so the sweep can show the
    trend past the architectural limit.
    """

    pal: "Pal"
    image: bytes
    padded_size: int

    @classmethod
    def package(cls, pal: "Pal", padded_size: int = 64 * 1024) -> "SecureLoaderBlock":
        image = measured_image(pal)
        if padded_size < len(image):
            padded_size = len(image)
        return cls(pal=pal, image=image, padded_size=padded_size)

    def measurement(self) -> bytes:
        """SHA-1 of the SLB image — the value SKINIT puts in PCR 17."""
        return sha1(self.image)

    def __repr__(self) -> str:
        return (
            f"SecureLoaderBlock(pal={type(self.pal).__name__}, "
            f"image={len(self.image)}B, padded={self.padded_size}B, "
            f"measurement={self.measurement().hex()[:16]}...)"
        )
