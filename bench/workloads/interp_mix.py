"""``interp_mix`` — the interpreter alone, in three configurations.

``bench/programs/mix.jm`` runs on three fresh VMs per repetition:

* ``stock``    — no engine;
* ``attached`` — ``UpdateEngine(vm)``, no update;
* ``armed``    — a ``transform="lazy"`` update to the untouched ``Dormant``
  class (64 parked instances) lands first; ``main`` never idles, so the
  epoch it opens stays open and every GETFIELD / PUTFIELD / INVOKEVIRTUAL
  in the window pays the armed read barrier.

Each VM retires one window of ``SLICES * SLICE_INSTRUCTIONS`` instructions,
cut into slices that are interleaved across the three VMs (ABC, CBA, ...):
host noise on this box comes in bursts of tens of ms, so the pairing that
cancels it is slice against slice, not window against window. One paired
round = one slice on each VM; ``attached_ratio`` / ``armed_ratio`` are
medians over all paired rounds of a run.

The same three-VM set, at a smaller size, is the *ratio probe* the other
four workloads carry (they have no stock configuration of their own).
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro.api import VM, UpdateEngine, UpdatePolicy

import refs
from common import (
    APPLIED,
    Ctx,
    Probe,
    Rep,
    Slices,
    apply_update,
    boot_vm,
    compile_traced,
    offline_prepare,
    rate_ratios,
    run_paired_rounds,
    timed,
)

PROGRAMS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "programs")

VARIANTS = ("stock", "attached", "armed")

#: the window per VM: ~1M instructions, as 64 interleaved slices. Short
#: slices, many of them: a burst then spoils few paired rounds and the
#: median over rounds ignores those (measured: the same window as 16
#: slices of 60k gives ratios twice as noisy)
SLICES = 64
SLICE_INSTRUCTIONS = 15_000
QUICK_SLICES = 3
QUICK_SLICE_INSTRUCTIONS = 40_000

#: instructions run before the update lands (main's prologue: parks the
#: Dormant instances, builds the list) and before the window opens
PROLOGUE_INSTRUCTIONS = 5_000
WARM_INSTRUCTIONS = 20_000

#: small semispaces so the allocation loop collects a few times per window
HEAP_CELLS = 1 << 14

#: mix.jm prints its checksum every this many rounds
PRINT_EVERY = 8

_ARMED_FROM = "    int tag;\n"
_ARMED_TO = "    int tag;\n    int epoch;\n"


def read_program(name: str) -> str:
    with open(os.path.join(PROGRAMS, name)) as handle:
        return handle.read()


def armed_source(source: str) -> str:
    """mix.jm with one field added to ``Dormant`` — the update that arms
    the barrier without touching anything the window executes."""
    changed = source.replace(_ARMED_FROM, _ARMED_TO)
    if changed == source:
        raise RuntimeError("mix.jm no longer declares Dormant.tag")
    return changed


def program_files(seed: int, rounds: int) -> Dict[str, str]:
    """The inputs every ``programs/*.jm`` reads."""
    return {"/bench/seed": str(seed), "/bench/rounds": str(rounds)}


class Trio:
    """The three configurations of one repetition, ready for slices. The
    arming update's samples and checks go into ``rep``."""

    def __init__(self, ctx: Ctx, rep: Rep):
        probe = ctx.probe
        source = read_program("mix.jm")
        self.classfiles = compile_traced(probe, source, "mix.jm", "mix1")
        self.vms: Dict[str, VM] = {}
        self.engines: Dict[str, UpdateEngine] = {}
        for variant in VARIANTS:
            vm, engine = boot_vm(
                probe, self.classfiles, "Mix", HEAP_CELLS,
                with_engine=variant != "stock",
                files=program_files(ctx.seed, 10 ** 9),
            )
            probe.run_vm(vm, max_instructions=PROLOGUE_INSTRUCTIONS)
            self.vms[variant] = vm
            self.engines[variant] = engine
        # Arm: the lazy update lands on the running program.
        vm, engine = self.vms["armed"], self.engines["armed"]
        prepared = offline_prepare(
            probe, self.classfiles, armed_source(source), "mix1", "mix2",
            own_section=True,
        )
        rep.note_offline("arm", prepared.offline_ms)
        self.result, _ = apply_update(
            probe, vm, engine, prepared.prepared,
            UpdatePolicy(transform="lazy"), rep, "arm", drain=False,
            slice_ms=0.25, own_section=True,
        )
        self.armed_at_open = engine.lazy_epoch is not None
        for vm in self.vms.values():
            probe.run_vm(vm, max_instructions=WARM_INSTRUCTIONS)
        self.start = {
            variant: vm.interpreter.instructions_executed
            for variant, vm in self.vms.items()
        }

    def run_slices(self, probe: Probe, rounds: int, size: int) -> Slices:
        return run_paired_rounds(
            probe, self.vms, rounds,
            lambda variant, index: {"max_instructions": size},
        )

    def still_armed(self) -> bool:
        """The epoch was open when the window began and still is."""
        return (self.armed_at_open
                and self.engines["armed"].lazy_epoch is not None)

    def window_instructions(self, variant: str) -> int:
        vm = self.vms[variant]
        return vm.interpreter.instructions_executed - self.start[variant]


def ratio_probe(ctx: Ctx, rep: Rep, rounds: int, size: int) -> float:
    """The stock/attached/armed probe for workloads without a stock
    configuration: fills ``rep``'s ratio samples, returns host seconds
    spent. Its update and its instructions stay out of ``rep``."""
    start = time.perf_counter()
    trio = Trio(ctx, Rep())
    with timed():
        samples = trio.run_slices(ctx.probe, rounds, size)
    rep.attached_ratios.extend(rate_ratios(samples, "attached"))
    rep.armed_ratios.extend(rate_ratios(samples, "armed"))
    rep.check(trio.still_armed(),
              "ratio probe: lazy epoch closed during the window")
    return time.perf_counter() - start


def check_console(rep: Rep, vm: VM, seed: int, label: str) -> None:
    """The window's transcript must be a prefix of the reference's."""
    lines = list(vm.console)
    expected = refs.mix_console(seed, PRINT_EVERY * len(lines))[:-1]
    ok = bool(lines) and lines == expected and not vm.trap_log
    rep.check(ok, f"{label}: console {lines[-1:]} != reference "
                  f"{expected[-1:]} (traps: {vm.trap_log[:1]})")


def repetition(ctx: Ctx) -> Rep:
    rep = Rep()
    probe = ctx.probe
    slices = QUICK_SLICES if ctx.quick else SLICES
    size = QUICK_SLICE_INSTRUCTIONS if ctx.quick else SLICE_INSTRUCTIONS

    setup_start = time.perf_counter()
    trio = Trio(ctx, rep)
    rep.setup_s = time.perf_counter() - setup_start

    with timed() as watch:
        samples = trio.run_slices(probe, slices, size)
    rep.wall_s = watch.seconds

    rep.attached_ratios = rate_ratios(samples, "attached")
    rep.armed_ratios = rate_ratios(samples, "armed")
    rep.instructions = sum(n for n, _ in samples["attached"])
    rep.instruction_s = sum(t for _, t in samples["attached"])
    rep.requests = 1
    rep.request_s = rep.instruction_s

    reference_seed = ctx.seed + 1 if ctx.plant_failure else ctx.seed
    for variant in VARIANTS:
        check_console(rep, trio.vms[variant], reference_seed, variant)
    rep.check(trio.result.status == APPLIED,
              f"arming update {trio.result.status}: {trio.result.reason}")
    rep.check(trio.still_armed(),
              "lazy epoch not open before and after the armed window")
    rep.check(
        trio.window_instructions("stock")
        == trio.window_instructions("attached"),
        "stock and attached retired different instruction counts",
    )
    for variant in VARIANTS:
        rep.note_vm(trio.vms[variant])
    rep.note_result(trio.result)
    rep.note_pauses()
    return rep


# ---------------------------------------------------------------------------
# traced run only: the eight single-feature kernels

KERNEL_ROUNDS = 60
QUICK_KERNEL_ROUNDS = 5


def kernels(ctx: Ctx, rep: Rep) -> Dict[str, float]:
    """``vm.interpreter.kernel.*_instr_per_s``: each kernel program run to
    completion once on a stock VM, checked against its reference."""
    rounds = QUICK_KERNEL_ROUNDS if ctx.quick else KERNEL_ROUNDS
    rates: Dict[str, float] = {}
    for name in refs.KERNELS:
        source = read_program(f"kernel_{name}.jm")
        classfiles = compile_traced(ctx.probe, source, f"kernel_{name}.jm",
                                    name)
        vm, _ = boot_vm(ctx.probe, classfiles, "Kernel", HEAP_CELLS,
                        files=program_files(ctx.seed, rounds))
        with timed() as watch:
            ctx.probe.run_vm(vm)
        expected = refs.kernel_console(name, ctx.seed, rounds)
        rep.check(vm.console == expected and not vm.trap_log,
                  f"kernel {name}: {vm.console} != {expected}")
        rates[f"vm.interpreter.kernel.{name}_instr_per_s"] = (
            vm.interpreter.instructions_executed / watch.seconds
        )
    return rates
