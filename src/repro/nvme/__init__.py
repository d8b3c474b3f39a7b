"""NVMe protocol model: commands, queues, PCIe link, device controller."""

from .commands import (
    COMMAND_BYTES,
    COMPLETION_BYTES,
    BlockRead,
    NvmeCommand,
    NvmeCompletion,
    Opcode,
    SlbaCodec,
    Status,
)
from .controller import NvmeController
from .payload import page_content_to_bytes
from .pcie import PcieConfig, PcieLink
from .queues import CompletionQueue, QueueFullError, QueuePair, SubmissionQueue

__all__ = [
    "COMMAND_BYTES",
    "COMPLETION_BYTES",
    "BlockRead",
    "NvmeCommand",
    "NvmeCompletion",
    "Opcode",
    "SlbaCodec",
    "Status",
    "NvmeController",
    "page_content_to_bytes",
    "PcieConfig",
    "PcieLink",
    "CompletionQueue",
    "QueueFullError",
    "QueuePair",
    "SubmissionQueue",
]
