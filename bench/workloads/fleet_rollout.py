"""``fleet_rollout`` — canary-first rolling updates at fleet sizes 2, 4, 8.

Two updates (jetty 5.1.5→5.1.6, javaemail 1.3.1→1.3.2) are each rolled
across a fresh fleet of 2, 4 and 8 lockstep VMs (2 is the controller's
minimum) under continuous seeded session traffic, in the sequence of
``harness.fleet.run_rollout``: warm up, start traffic, preload,
``rolling_update``, cool down, stop traffic, let sessions settle. The
benchmark drives :class:`~repro.fleet.FleetController` itself so that the
phases can be timed apart and the traced run can wrap
``rolling_update`` and each member's ``run_slice``. The run's seed picks
the order the fleet sizes are visited in, nothing simulated.

It measures the curve ROADMAP asks for without growing the fleet: host
seconds are linear in N today, so a change that runs members in parallel
shows here and nowhere else. Before each update the benchmark also does
what an operator's lint gate does — compile both releases,
``prepare_update``, ``analyze_update`` — which is this workload's
offline sample.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, List

from repro.apps.registry import APPS
from repro.fleet import FleetController

from common import (
    Ctx,
    Rep,
    compile_traced,
    median,
    offline_prepare,
    resident_objects,
    timed,
)

ROLLOUTS = (("jetty", "5.1.5", "5.1.6"), ("javaemail", "1.3.1", "1.3.2"))
SIZES = (2, 4, 8)
QUICK_ROLLOUTS = ROLLOUTS[:1]
QUICK_SIZES = (2,)

WARMUP_MS = 150.0
PRELOAD_MS = 200.0
COOLDOWN_MS = 400.0
SETTLE_LIMIT_MS = 3_000.0
TRAFFIC_INTERVAL_MS = 45.0
TRAFFIC_JITTER_MS = 10.0
#: arrival jitter is seeded per fleet size, not per run: how many mail
#: objects a member holds when its update lands decides its simulated
#: pause, and ``sim_pause_ms_*`` must not move with ``--seed``
TRAFFIC_SEED = 11


def scaling_exponent(seconds_by_size: Dict[int, float]) -> float:
    """Least-squares slope of log(host seconds) against log(members)."""
    points = [(math.log(n), math.log(s))
              for n, s in seconds_by_size.items() if s > 0]
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    return (
        sum((x - mean_x) * (y - mean_y) for x, y in points)
        / sum((x - mean_x) ** 2 for x, _ in points)
    )


def roll_out(ctx: Ctx, rep: Rep, app: str, old: str, new: str,
             size: int) -> float:
    """One fleet, one rolling update; returns its timed host seconds."""
    probe = ctx.probe
    gc.collect()  # the previous fleet goes before this one comes
    setup_start = time.perf_counter()
    with probe.span("fleet.boot", "fleet", members=size):
        controller = FleetController(app, old, size=size,
                                     seed=TRAFFIC_SEED + size)
    for member in controller.members.values():
        probe.wrap(member, "run_slice", "fleet.member.run_slice", "fleet")
    rep.setup_s += time.perf_counter() - setup_start

    members = list(controller.members.values())
    before = sum(m.vm.interpreter.instructions_executed for m in members)
    with timed() as watch:
        controller.run_for(WARMUP_MS)
        controller.start_traffic(interval_ms=TRAFFIC_INTERVAL_MS,
                                 jitter_ms=TRAFFIC_JITTER_MS)
        controller.run_for(PRELOAD_MS)
        carried = sum(resident_objects(m.vm) for m in members)
        start = time.perf_counter()
        with probe.span("fleet.rolling_update", "fleet", members=size):
            report = controller.rolling_update(new)
        apply_s = time.perf_counter() - start
        controller.run_for(COOLDOWN_MS)
        controller.stop_traffic()
        deadline = controller.now + SETTLE_LIMIT_MS
        while controller.now < deadline and any(
            member.in_flight() for member in members
        ):
            controller.run_for(controller.slice_ms)
    rep.wall_s += watch.seconds
    slot = f"{app}:n{size}"
    rep.apply_ms[slot] = apply_s * 1000.0
    rep.object_rates[slot] = carried / apply_s

    # -- references ---------------------------------------------------------
    label = f"{app} {old}->{new} x{size}"
    target = old if ctx.plant_failure else new
    rep.check(report.status == "completed",
              f"{label}: rollout {report.status} ({report.halt_reason})")
    for member in members:
        rep.check(member.current_version == target,
                  f"{label}: {member.name} serves {member.current_version}")
    completed = controller.sessions_completed()
    lost = controller.sessions_failed()
    rep.attempted += completed + lost
    if lost:
        rep.fail(f"{label}: {lost} client sessions lost", lost)
    rep.check(controller.availability() == 1.0,
              f"{label}: availability {controller.availability():.4f}")

    rep.requests += completed
    rep.request_s += watch.seconds
    rep.instructions += sum(
        m.vm.interpreter.instructions_executed for m in members
    ) - before
    rep.instruction_s += watch.seconds
    rep.pauses_ms.extend(row.pause_ms for row in report.members)
    rep.add_layer("fleet.sim_transition_p99_ms",
                  controller.transition_p99_ms())
    rep.add_layer("fleet.availability", controller.availability())
    for member in members:
        rep.note_vm(member.vm)
    return watch.seconds


def repetition(ctx: Ctx) -> Rep:
    rep = Rep()
    rollouts = QUICK_ROLLOUTS if ctx.quick else ROLLOUTS
    sizes = QUICK_SIZES if ctx.quick else SIZES
    if (ctx.seed + ctx.repetition) % 2:
        sizes = sizes[::-1]
    by_size: Dict[int, List[float]] = {size: [] for size in sizes}
    for app, old, new in rollouts:
        info = APPS[app]
        with timed() as watch:
            old_classfiles = compile_traced(ctx.probe, info.versions[old],
                                            f"<{app} {old}>", old)
        compile_old_ms = watch.seconds * 1000.0
        prepared = offline_prepare(
            ctx.probe, old_classfiles, info.versions[new], old, new,
            info.transformer_overrides.get((old, new)), own_section=True,
        )
        rep.note_offline(app, compile_old_ms + prepared.offline_ms)
        for size in sizes:
            by_size[size].append(roll_out(ctx, rep, app, old, new, size))
    rollouts_run = len(rollouts) * len(sizes)
    for name in ("fleet.sim_transition_p99_ms", "fleet.availability"):
        rep.layer[name] /= rollouts_run
    seconds = {size: median(values) for size, values in by_size.items()}
    for size, value in seconds.items():
        rep.layer[f"fleet.controller.rollout_s.n{size}"] = value
    rep.layer["fleet.scaling_exponent"] = scaling_exponent(seconds)
    rep.note_pauses()
    return rep
