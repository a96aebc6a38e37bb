"""The host-visible device contract all three architectures implement."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.flash.chip import FlashChip
from repro.flash.errors import FlashError
from repro.flash.stats import DeviceStats


class DeviceFullError(FlashError):
    """No reclaimable space: every owned block is fully valid.

    With sane over-provisioning this indicates a logical-capacity
    accounting bug, so it is an error rather than a blocking condition.
    """


@runtime_checkable
class FlashBackend(Protocol):
    """What the storage manager needs from a Flash device.

    ``write_delta`` is optional in spirit: conventional devices return
    ``False`` (command not supported), the storage manager then falls back
    to a whole-page write.  This mirrors the paper's split between the
    block-device IPA (Scenario 2) and native-Flash IPA (Scenario 3).

    Observability contract (class attributes, not Protocol members —
    they are defaults replaced per-instance, and adding them to the
    runtime-checkable Protocol would change ``isinstance`` semantics):
    every backend carries ``tracer = NULL_TRACER`` and
    ``ledger = NULL_LEDGER`` class attributes; ``repro.obs.attach_tracer``
    and ``repro.obs.ledger.attach_ledger`` replace them per-instance and
    forward them down to the backend's :class:`BlockManager`\\ s and
    chips, which do the actual charging.
    """

    chip: FlashChip
    stats: DeviceStats

    @property
    def logical_pages(self) -> int:
        """Number of logical pages (LBAs) the host may address."""
        ...

    def read_page(self, lba: int) -> bytes:
        """Read one logical page."""
        ...

    def write_page(self, lba: int, data: bytes) -> None:
        """Write one logical page (device decides placement)."""
        ...

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Append ``payload`` at ``offset`` of the page's physical home.

        Returns:
            True if the device performed the in-place append; False if the
            command is unsupported or inapplicable (caller must fall back
            to :meth:`write_page`).
        """
        ...

    def trim(self, lba: int) -> None:
        """Declare a logical page dead (invalidate without rewriting)."""
        ...
