"""The paper's subject matter: Slingshot's routing, congestion control,
traffic classes, the Rosetta switch internals, and HPC Ethernet."""

from .adaptive_routing import AdaptiveRouter, MinimalRouter, ValiantRouter
from .congestion_control import (
    CongestionControl,
    EcnCC,
    NoCC,
    PairState,
    SlingshotCC,
    make_cc,
)
from .ethernet import (
    HPC_ETHERNET,
    STANDARD_ETHERNET,
    FecModel,
    FrameSpec,
    effective_bandwidth,
    frame_rate,
    goodput_fraction,
)
from .rosetta import CROSSBAR_KINDS, RosettaModel, TileGeometry
from .traffic_classes import (
    DSCP_TO_TC,
    TcScheduler,
    TrafficClass,
    default_traffic_classes,
)

__all__ = [
    "AdaptiveRouter",
    "MinimalRouter",
    "ValiantRouter",
    "CongestionControl",
    "SlingshotCC",
    "NoCC",
    "EcnCC",
    "PairState",
    "make_cc",
    "TrafficClass",
    "TcScheduler",
    "default_traffic_classes",
    "DSCP_TO_TC",
    "RosettaModel",
    "TileGeometry",
    "CROSSBAR_KINDS",
    "FrameSpec",
    "STANDARD_ETHERNET",
    "HPC_ETHERNET",
    "FecModel",
    "effective_bandwidth",
    "frame_rate",
    "goodput_fraction",
]
