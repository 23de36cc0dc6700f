"""Bit-exact functional and transaction-level performance model of a
zero-skipping sparse CNN accelerator."""

from .accel import (
    HardwareConfig,
    LayerSchedule,
    LayerStats,
    estimate_dram_energy,
    plan_layer,
    simulate_layer,
    simulate_layer_stats,
    total_stats,
)
from .codec import CompressedStream, cis_bits, decode, encode, threshold_sparsity
from .fxp import QFormat
from .netmodel import (
    FeatureMapTensor,
    KernelSet,
    LayerDescriptor,
    NetworkDescriptor,
    load_network,
    load_tensor,
    load_weights,
    save_tensor,
    save_weights,
    sparsity,
)
from .refmodel import conv2d, layer_forward

__version__ = "0.1.0"
