"""Binary field snapshots.

Little-endian layout:

    bytes 0..7    magic  b"GASBOXS\\x00"
    u32           format version (1)
    3 x u32       node counts per axis
    f64           simulation time t
    f64           gamma
    f64           gas constant R
    5 arrays      conserved components, C order, float64

Round-trips bitwise; the header and the exact file size are checked before the payload is read.
"""

import os
import struct

import numpy as np

from .thermo import GasParams

__all__ = ["MAGIC", "VERSION", "write_snapshot", "read_snapshot"]

MAGIC = b"GASBOXS\x00"
VERSION = 1
_HEADER = struct.Struct("<8sI3I3d")


def write_snapshot(path, u5, grid, t, gas):
    u5 = np.ascontiguousarray(u5, dtype="<f8")
    nx, ny, nz = grid.shape
    if u5.shape != (5, nx, ny, nz):
        raise ValueError(f"field shape {u5.shape} does not match grid {grid.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, nx, ny, nz, float(t), gas.gamma, gas.R))
        fh.write(u5.tobytes(order="C"))


def read_snapshot(path):
    """Read a snapshot; returns (field, meta dict)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated snapshot header")
        magic, version, nx, ny, nz, t, gamma, r_gas = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError("not a gasbox snapshot (bad magic)")
        if version != VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if 0 in (nx, ny, nz) or not np.isfinite(t):
            raise ValueError(f"bad snapshot header: node counts {(nx, ny, nz)}, t = {t}")
        GasParams(gamma=gamma, R=r_gas)  # raises ValueError for constants a run cannot have
        count = 5 * nx * ny * nz
        size, expected = os.fstat(fh.fileno()).st_size, _HEADER.size + 8 * count
        if size < expected:
            raise ValueError("truncated snapshot payload")
        if size > expected:
            raise ValueError("trailing bytes after the snapshot payload")
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
    u5 = data.reshape(5, nx, ny, nz).astype(float)
    return u5, {"t": t, "gamma": gamma, "R": r_gas, "shape": (nx, ny, nz), "version": version}
