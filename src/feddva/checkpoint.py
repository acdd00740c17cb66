"""Binary checkpoint format.

Layout:  magic "DVAC\\x01"  |  uint32 LE header length  |  header utf-8
         |  uint64 LE parameter count  |  count * float64 LE payload

The header is two lines: "kind=<shared|local>" and the architecture
config's canonical text. Loads validate magic, header, and payload length
and report the byte offset of the first problem.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .model import ArchitectureConfig

MAGIC = b"DVAC\x01"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, kind: str, arch: ArchitectureConfig,
                    flat: np.ndarray) -> None:
    header = f"kind={kind}\n{arch.canonical_text()}".encode("utf-8")
    payload = np.ascontiguousarray(flat, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<Q", flat.size))
        f.write(payload)


def load_checkpoint(path) -> tuple[str, ArchitectureConfig, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0 "
                              f"(got {raw[:len(MAGIC)]!r})")
    at = len(MAGIC)
    if len(raw) < at + 4:
        raise CheckpointError(f"{path}: truncated header length at byte {at}")
    (header_len,) = struct.unpack_from("<I", raw, at)
    at += 4
    if len(raw) < at + header_len + 8:
        raise CheckpointError(f"{path}: truncated header/count at byte {at}")
    try:
        header = raw[at:at + header_len].decode("utf-8")
        kind_line, newline, arch_text = header.partition("\n")
        if not kind_line.startswith("kind=") or not newline:
            raise ValueError("expected a 'kind=' line, then the architecture")
        arch = ArchitectureConfig.from_text(arch_text)
    except (ValueError, KeyError) as exc:  # UnicodeDecodeError is a ValueError
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise CheckpointError(f"{path}: malformed header at byte {at}: "
                              f"{detail}") from None
    kind = kind_line[len("kind="):]
    at += header_len
    (count,) = struct.unpack_from("<Q", raw, at)
    at += 8
    expected = count * 8
    if len(raw) - at != expected:
        raise CheckpointError(f"{path}: payload at byte {at} has "
                              f"{len(raw) - at} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=at).astype(np.float64)
    return kind, arch, flat
