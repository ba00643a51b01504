"""Per-layer metrics of one traced repetition.

One function turns the repetition's span totals (host ms, from the
:class:`~common.Probe` tracer) and its counters (:class:`~common.Rep`)
into the per-layer metrics named in ``BENCHMARK.json``. A layer a workload
never enters reports 0 — that is the measurement ("this layer did no work
here"), and it is what the README's prediction table says to expect.

Times are per repetition unless the name says per call; "per call" values
are medians over the calls of that repetition (per bundled version for
the front end, per update for ``dsu.upt`` / ``analysis``).
"""

from __future__ import annotations

from typing import Dict

from common import Rep, SpanTotals, median

FRONT_END = ("lang.parse", "lang.symbols", "lang.typecheck",
             "compiler.codegen")

#: ``dsu.engine.<phase>_ms`` -> the spans whose host time it sums
ENGINE_PHASES = {
    "preflight": ("dsu.preflight.lint", "dsu.preflight.confree",
                  "dsu.preflight.osrmap", "dsu.resolve-restricted"),
    "safepoint_wait": ("dsu.safepoint.round",),
    "suspend": ("dsu.suspend",),
    "classload": ("dsu.classload",),
    "osr": ("dsu.osr",),
    "gc": ("gc.collect.update",),
    "transform": ("dsu.transform",),
    "cleanup": ("dsu.cleanup",),
    "bypass_install": ("dsu.bypass.install",),
    "lazy_sweep": ("dsu.lazy.sweep.idle",),
    "lazy_drain": ("dsu.lazy.sweep.drain",),
}

ANALYSIS_PASSES = ("callgraph", "confree", "closure", "osrmap",
                   "reachability", "transformers")


def _per_second(amount: float, ms: float) -> float:
    return amount / (ms / 1000.0) if ms > 0 else 0.0


def layer_metrics(totals: SpanTotals, rep: Rep) -> Dict[str, float]:
    out: Dict[str, float] = dict(rep.layer)

    # -- lang / compiler / bytecode: per compiled source -------------------
    out["lang.parse_ms"] = totals.per_call("lang.parse")
    out["lang.typecheck_ms"] = totals.per_call("lang.typecheck")
    out["compiler.codegen_ms"] = totals.per_call("compiler.codegen")
    out["bytecode.verify_ms"] = totals.per_call("bytecode.verify")
    out["lang.lines_per_s"] = _per_second(
        totals.arg_sum("lang.parse", "lines"), totals.total(*FRONT_END)
    )
    out["compiler.instructions_emitted"] = totals.arg_sum(
        "compiler.codegen", "instructions"
    )

    # -- dsu.upt / analysis: per update -------------------------------------
    out["dsu.upt.diff_ms"] = totals.per_call("dsu.upt.diff")
    out["dsu.upt.prepare_ms"] = totals.per_call("dsu.upt.prepare")
    minimized = totals.samples.get("dsu.upt.prepare", ())
    raw = totals.samples.get("dsu.upt.prepare.unminimized", ())
    out["analysis.semdiff_ms"] = median(
        [with_ - without for with_, without in zip(minimized, raw)]
    )
    for name in ANALYSIS_PASSES:
        out[f"analysis.{name}_ms"] = totals.per_call(f"analysis.{name}")
    out["analysis.total_ms"] = totals.per_call("analysis.total")
    out["analysis.callgraph_edges"] = totals.arg_median(
        "analysis.callgraph", "edges"
    )
    out["analysis.restricted_methods"] = totals.arg_median(
        "analysis.closure", "restricted"
    )

    # -- vm.classloader / vm.jit ---------------------------------------------
    out["vm.classloader.load_ms"] = totals.total("vm.classloader.load")
    out["vm.jit.compile_ms"] = totals.total("jit.base", "jit.opt")

    # -- vm.interpreter: self time excludes collections and nested runs -----
    busy_ms = totals.own("vm.interpreter.run_thread")
    instructions = rep.sim.get("sim.instructions", 0)
    out["vm.interpreter.busy_s"] = busy_ms / 1000.0
    out["vm.interpreter.instr"] = instructions
    out["vm.interpreter.instr_per_busy_s"] = _per_second(instructions,
                                                         busy_ms)
    out["vm.interpreter.quanta"] = totals.calls("vm.interpreter.run_thread")

    # -- vm.vm scheduler -----------------------------------------------------
    out["vm.sched.self_s"] = totals.own("vm.run") / 1000.0

    # -- vm.gc ---------------------------------------------------------------
    collections = ("gc.collect.plain", "gc.collect.update")
    out["vm.gc.collect_s"] = totals.total(*collections) / 1000.0
    out["vm.gc.cells_copied"] = sum(
        totals.arg_sum(name, "cells_copied") for name in collections
    )
    out["vm.gc.objects_updated"] = totals.arg_sum(
        "gc.collect.update", "objects_updated"
    )
    out["vm.gc.update_cells_per_s"] = _per_second(
        totals.arg_sum("gc.collect.update", "cells_copied"),
        totals.total("gc.collect.update"),
    )

    # -- dsu.engine: host ms per phase beside the simulated twins -------------
    for phase, spans in ENGINE_PHASES.items():
        out[f"dsu.engine.{phase}_ms"] = totals.total(*spans)
    for phase in ("gc", "transform"):
        simulated = rep.layer.get(f"dsu.engine.sim.{phase}_ms", 0.0)
        host = out[f"dsu.engine.{phase}_ms"]
        out[f"dsu.engine.{phase}_wall_per_sim"] = (
            host / simulated if simulated else 0.0
        )

    # -- fleet ---------------------------------------------------------------
    out["fleet.controller.self_s"] = (
        totals.own("fleet.rolling_update") / 1000.0
    )
    out["fleet.member.run_s"] = (
        totals.total("fleet.member.run_slice") / 1000.0
    )

    out["obs.spans"] = totals.spans
    return out
