"""The stable programmatic facade for driving dynamic updates.

Everything a host program needs lives here: compile two program versions,
diff them into a :class:`PreparedUpdate`, pair it with an
:class:`UpdatePolicy` describing *how* the update should be attempted
(retry budget, lint/bypass/OSR modes, eager vs lazy transformation), and
hand the :class:`UpdateRequest` to :meth:`UpdateEngine.submit`.

Typical use::

    from repro.api import (
        VM, UpdateEngine, UpdateRequest, UpdatePolicy, RetryPolicy,
        compile_source, prepare_update,
    )

    v1 = compile_source(SOURCE_V1, version="1.0")
    v2 = compile_source(SOURCE_V2, version="2.0")
    vm = VM()
    vm.boot(v1)
    vm.start_main("Main")
    engine = UpdateEngine(vm)
    request = UpdateRequest(
        prepare_update(v1, v2, "1.0", "2.0"),
        policy=UpdatePolicy(
            retry=RetryPolicy(timeout_ms=15_000.0, retries=2),
            lint="warn",
        ),
    )
    result = engine.submit(request)
    vm.run(until_ms=1_000)
    assert result.succeeded

Presets cover the common shapes — ``UpdatePolicy.paper()`` (strict paper
fidelity: stop-the-world eager transformation), ``UpdatePolicy.fast()``
(zero-pause bypass when con-free, in-loop OSR rescue, lazy on-first-touch
transformation) and ``UpdatePolicy.safe()`` (strict static lint, eager) —
and every preset takes keyword overrides, e.g.
``UpdatePolicy.fast(transform="eager")``. ``Policy`` is a short alias.

Observability rides along: every ``submit`` emits a phase-attributed span
tree on ``vm.tracer`` and counters/histograms on ``vm.metrics``; export
them with :func:`write_chrome_trace` / :meth:`~repro.obs.Metrics.snapshot`.

:class:`UpdateRequest`/:meth:`~UpdateEngine.submit` is the only entry
point, and :class:`UpdatePolicy` the only place its modes are spelled.
"""

from __future__ import annotations

from .compiler.compile import compile_prelude, compile_source
from .compiler.jastadd import compile_transformers
from .dsu.engine import (
    ABORTED,
    APPLIED,
    UpdateEngine,
    UpdateRequest,
    UpdateResult,
)
from .dsu.policy import Policy, UpdatePolicy
from .dsu.safepoint import RetryPolicy
from .dsu.specification import UpdateSpecification
from .dsu.upt import (
    ActiveMethodMapping,
    PreparedUpdate,
    derive_identity_mapping,
    diff_programs,
    prepare_update,
    version_prefix,
)
from .obs import Metrics, Tracer
from .obs.export import chrome_trace, render_span_tree, write_chrome_trace
from .vm.clock import CostModel
from .vm.vm import VM

__all__ = [
    # runtime
    "VM",
    "CostModel",
    # update pipeline
    "UpdateEngine",
    "UpdateRequest",
    "UpdateResult",
    "UpdatePolicy",
    "Policy",
    "RetryPolicy",
    "UpdateSpecification",
    "PreparedUpdate",
    "APPLIED",
    "ABORTED",
    "compile_source",
    "compile_prelude",
    "compile_transformers",
    "diff_programs",
    "prepare_update",
    "version_prefix",
    "ActiveMethodMapping",
    "derive_identity_mapping",
    # observability
    "Tracer",
    "Metrics",
    "chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
]
