"""Flow-level (fluid) models: TC allocation and rate-vs-time (Fig. 14)."""

from .fluid import FluidBottleneck, FluidJob
from .tc_alloc import allocate_classes, split_within_class

__all__ = [
    "allocate_classes",
    "split_within_class",
    "FluidJob",
    "FluidBottleneck",
]
