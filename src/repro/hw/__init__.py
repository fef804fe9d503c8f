"""Hardware component models.

These modules replace the physical testbeds of the paper (dual-socket Intel
Xeon packages, NVIDIA A100 / Intel Max 1550 GPUs) with calibrated behavioural
models.  The calibration anchors — the numbers the paper actually reports —
are documented in DESIGN.md §5 and asserted by the test suite:

* UNet on dual Xeon 8380: CPU power ~200 W at max uncore vs ~120 W at min,
  with a ~21 % runtime stretch at min uncore (paper Fig. 2);
* uncore ≈ 40 % of CPU package power at max frequency under GPU workloads;
* single A100-40GB idles near 30 W; four A100-80GB idle near 200 W total.
"""

from repro.hw.uncore import UncoreModel, UncorePowerParams
from repro.hw.cpu import CPUCoreModel, CPUPowerParams
from repro.hw.memory import MemorySubsystem, MemoryServiceResult
from repro.hw.gpu import GPUGroup, GPUModel
from repro.hw.power import PowerBreakdown
from repro.hw.node import HeterogeneousNode, NodeBatch, NodeTickState
from repro.hw.presets import (
    SystemPreset,
    intel_a100,
    intel_4a100,
    intel_max1550,
    amd_mi210,
    get_preset,
    PRESETS,
)

__all__ = [
    "UncoreModel",
    "UncorePowerParams",
    "CPUCoreModel",
    "CPUPowerParams",
    "MemorySubsystem",
    "MemoryServiceResult",
    "GPUModel",
    "GPUGroup",
    "PowerBreakdown",
    "HeterogeneousNode",
    "NodeBatch",
    "NodeTickState",
    "SystemPreset",
    "intel_a100",
    "intel_4a100",
    "intel_max1550",
    "amd_mi210",
    "get_preset",
    "PRESETS",
]
