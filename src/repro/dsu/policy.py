"""The update policy: one typed knob object instead of kwarg sprawl.

Everything that shapes *how* an update is applied — the retry budget,
the lint/bypass/in-loop-OSR/transform modes, held verification windows,
heap growth — is one frozen dataclass with presets:

``policy = UpdatePolicy.fast()            # bypass + in-loop OSR + lazy``
``policy = UpdatePolicy.paper()           # strict paper fidelity``
``policy = UpdatePolicy.safe()            # strict lint, eager transform``
``policy = replace(UpdatePolicy.fast(), retry=RetryPolicy(retries=3))``

:class:`~repro.dsu.engine.UpdateRequest` takes ``prepared``, ``policy``
and ``tracer`` and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .safepoint import RetryPolicy

#: allowed values for each mode field, used by validation and the CLI
LINT_MODES = ("off", "warn", "strict")
BYPASS_MODES = ("off", "auto", "require")
INLOOP_OSR_MODES = ("off", "auto")
TRANSFORM_MODES = ("eager", "lazy")


@dataclass(frozen=True)
class UpdatePolicy:
    """Everything that shapes *how* one update is applied.

    Fields mirror the knobs the engine grew organically:

    ``retry``
        Safe-point acquisition budget (timeout / retries / backoff).
    ``lint``
        Static pre-flight: ``off`` skips it, ``warn`` records findings,
        ``strict`` aborts on a predicted-unsafe update.
    ``bypass``
        Con-freeness fast path: ``auto`` takes the zero-pause immediate
        bypass when the verdict allows, ``require`` aborts otherwise.
    ``inloop_osr``
        In-loop OSR rescue of blocking loop frames after the retry
        budget expires: ``auto`` rescues when a verified plan exists.
    ``transform``
        Object transformation strategy. ``eager`` runs the paper's
        stop-the-world update collection; ``lazy`` installs metadata at
        the pause but transforms objects on first touch behind a read
        barrier, draining the remainder in idle-time sweep slices.
    ``hold_transaction``
        Keep the update transaction open after a successful apply so a
        verifier can still roll back in place (fleet canary windows).
        Whether GC stays enabled while held depends on the snapshot
        scope: code-only bypass snapshots and lazy epochs hold no GC-
        hostile state, full eager snapshots pin collection.
    ``heap_grow``
        Let the update-GC pre-flight grow the heap in place instead of
        aborting when to-space cannot hold the transformed objects.
        Eager only: a lazy update runs no update collection.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lint: str = "off"
    bypass: str = "off"
    inloop_osr: str = "off"
    transform: str = "eager"
    hold_transaction: bool = False
    heap_grow: bool = False

    def __post_init__(self) -> None:
        for name, modes in (("lint", LINT_MODES), ("bypass", BYPASS_MODES),
                            ("inloop_osr", INLOOP_OSR_MODES),
                            ("transform", TRANSFORM_MODES)):
            if getattr(self, name) not in modes:
                raise ValueError(
                    f"{name} must be one of {'|'.join(modes)}, "
                    f"got {getattr(self, name)!r}")
        if self.heap_grow and self.transform == "lazy":
            raise ValueError("heap_grow needs transform='eager': a lazy "
                             "update has no update-collection pre-flight")

    # -- presets -------------------------------------------------------

    @classmethod
    def paper(cls, **overrides) -> "UpdatePolicy":
        """What Jvolve itself did: stop-the-world eager transformation,
        no static lint gate, no bypass, no in-loop OSR rescue."""
        return replace(cls(), **overrides)

    @classmethod
    def fast(cls, **overrides) -> "UpdatePolicy":
        """Minimize pause: zero-pause bypass when con-free, in-loop OSR
        rescue instead of aborting, lazy on-first-touch transformation."""
        return replace(
            cls(bypass="auto", inloop_osr="auto", transform="lazy"),
            **overrides)

    @classmethod
    def safe(cls, **overrides) -> "UpdatePolicy":
        """Maximize predictability: strict static lint pre-flight, eager
        transformation (no lazy epoch tail), OSR rescue still allowed."""
        return replace(
            cls(lint="strict", inloop_osr="auto"),
            **overrides)


#: short alias used throughout docs and examples
Policy = UpdatePolicy
