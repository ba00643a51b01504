"""repro — a reproduction of "Dynamic Software Updates: A VM-centric
Approach" (Jvolve, PLDI 2009) as a self-contained Python library.

The package provides:

* a small Java-like language (**jmini**) with a full compiler pipeline
  (:mod:`repro.lang`, :mod:`repro.compiler`) and a bytecode verifier that
  doubles as the GC stack-map generator (:mod:`repro.bytecode`);
* a simulated managed-runtime VM — green threads with yield points, a
  two-tier JIT with baked offsets and inlining, a semi-space copying GC,
  return barriers and on-stack replacement (:mod:`repro.vm`);
* the paper's contribution: the Jvolve dynamic-software-update system —
  the Update Preparation Tool, class/object transformers, DSU safe points
  and the GC-coordinated update engine (:mod:`repro.dsu`);
* the three benchmark server applications re-implemented in jmini with
  their full release histories (:mod:`repro.apps`), a simulated network
  with protocol load generators (:mod:`repro.net`), and the experiment
  harnesses that regenerate every table and figure (:mod:`repro.harness`).

Quickstart (see :mod:`repro.api` for the full facade)::

    from repro.api import (
        VM, UpdateEngine, UpdateRequest, compile_source, prepare_update,
    )

    v1 = compile_source(SOURCE_V1, version="1.0")
    v2 = compile_source(SOURCE_V2, version="2.0")
    vm = VM()
    vm.boot(v1)
    vm.start_main("Main")
    engine = UpdateEngine(vm)
    result = engine.submit(UpdateRequest(prepare_update(v1, v2, "1.0", "2.0")))
    vm.run(until_ms=1_000)
    assert result.succeeded
"""

from .compiler.compile import compile_prelude, compile_source
from .compiler.jastadd import compile_transformers
from .dsu.engine import UpdateEngine, UpdateRequest, UpdateResult
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
from .vm.clock import CostModel
from .vm.vm import VM

__version__ = "1.0.0"

__all__ = [
    "VM",
    "CostModel",
    "UpdateEngine",
    "UpdateRequest",
    "UpdateResult",
    "RetryPolicy",
    "Tracer",
    "Metrics",
    "UpdateSpecification",
    "PreparedUpdate",
    "compile_source",
    "compile_prelude",
    "compile_transformers",
    "diff_programs",
    "prepare_update",
    "version_prefix",
    "ActiveMethodMapping",
    "derive_identity_mapping",
    "__version__",
]
