"""The six workloads. ``WORKLOADS`` maps each final name to the function
that runs one repetition of it on fresh VMs and to whether it measures
its own stock/attached/armed ratios (the others carry the interp_mix
ratio probe)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from common import Ctx, Rep

from . import fleet_rollout, heap, interp_mix, steady_jetty, update_stream


@dataclass(frozen=True)
class Workload:
    name: str
    repetition: Callable[[Ctx], Rep]
    #: measures ``attached_ratio`` / ``armed_ratio`` on its own VMs
    own_ratios: bool = False
    #: traced run only: extra per-layer values, computed once
    layer_extras: Optional[Callable[[Ctx, Rep], Dict[str, float]]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("interp_mix", interp_mix.repetition, own_ratios=True,
                 layer_extras=interp_mix.kernels),
        Workload("steady_jetty", steady_jetty.repetition, own_ratios=True),
        Workload("update_stream", update_stream.repetition),
        Workload("heap_eager", heap.repetition_eager),
        Workload("heap_lazy", heap.repetition_lazy),
        Workload("fleet_rollout", fleet_rollout.repetition),
    )
}
