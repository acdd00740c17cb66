#!/usr/bin/env python3
"""sha256 fingerprints of a run directory, for bitwise before/after checks.

Prints one "<sha256>  <name>" line for each of:
  theta                the payload of the last round's shared.ckpt
  checkpoints/...      every file of the last round's checkpoint directory
  config.txt, partition.json
  history.jsonl        each row without its timing fields (wall_time,
                       update_s, phase1_s, phase2_s), re-serialized
  eval/...             every file under eval/

Two runs of the same config on the same numeric stack print the same
lines; diff the output of two commits to see what a change moved. The
script reads the checkpoint layout itself, so it runs on any commit.

Usage: python3 scripts/fingerprint.py RUN_DIR
"""

import hashlib
import json
import struct
import sys
from pathlib import Path

MAGIC = b"DVAC\x01"
TIMING_FIELDS = ("update_s", "phase1_s", "phase2_s")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkpoint_payload(path: Path) -> bytes:
    """The float64 payload of a checkpoint file (magic, uint32 header
    length, header, uint64 count, count * 8 bytes)."""
    raw = path.read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise SystemExit(f"{path}: not a checkpoint")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    at = len(MAGIC) + 4 + header_len
    (count,) = struct.unpack_from("<Q", raw, at)
    payload = raw[at + 8:]
    if len(payload) != 8 * count:
        raise SystemExit(f"{path}: payload is {len(payload)} bytes, "
                         f"expected {8 * count}")
    return payload


def history_without_timings(path: Path) -> bytes:
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        row.pop("wall_time", None)
        for stats in row["clients"].values():
            for key in TIMING_FIELDS:
                stats.pop(key, None)
        rows.append(json.dumps(row, sort_keys=True) + "\n")
    return "".join(rows).encode()


def fingerprint(run_dir: Path) -> list[tuple[str, str]]:
    lines = []
    rounds = sorted((run_dir / "checkpoints").glob("round_*"))
    if rounds:
        last = rounds[-1]
        lines.append((sha(checkpoint_payload(last / "shared.ckpt")), "theta"))
        for f in sorted(last.iterdir()):
            lines.append((sha(f.read_bytes()),
                          str(f.relative_to(run_dir))))
    for name in ("config.txt", "partition.json"):
        if (run_dir / name).is_file():
            lines.append((sha((run_dir / name).read_bytes()), name))
    if (run_dir / "history.jsonl").is_file():
        lines.append((sha(history_without_timings(run_dir / "history.jsonl")),
                      "history.jsonl"))
    eval_dir = run_dir / "eval"
    if eval_dir.is_dir():
        for f in sorted(p for p in eval_dir.rglob("*") if p.is_file()):
            lines.append((sha(f.read_bytes()), str(f.relative_to(run_dir))))
    return lines


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    run_dir = Path(sys.argv[1])
    if not run_dir.is_dir():
        print(f"error: {run_dir} is not a directory", file=sys.stderr)
        return 2
    for digest, name in fingerprint(run_dir):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
