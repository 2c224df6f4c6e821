"""Helper-core DIFT: communication channel models and the dual-core
timing simulation (§2.1)."""

from .channel import (
    ChannelModel,
    QueueSimulator,
    hardware_interconnect,
    shared_memory_channel,
)
from .helper import HelperCoreDIFT, HelperReport

__all__ = [
    "ChannelModel",
    "QueueSimulator",
    "hardware_interconnect",
    "shared_memory_channel",
    "HelperCoreDIFT",
    "HelperReport",
]
