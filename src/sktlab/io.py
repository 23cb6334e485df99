"""Deterministic CSV output with provenance headers.

Every file starts with comment lines recording the artifact version, the
command that produced it and a hash of the effective configuration, so any
output can be traced back to its inputs.  Floats are written with 17
significant digits (round-trip exact for doubles), which is what makes
repeated runs bit-identical.  Every file is written through a uniquely
named temp file in the target directory and renamed into place, so
concurrent writers never see or clobber partial output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
from typing import Iterable, Mapping

from . import __version__ as VERSION


def config_hash(cfg: Mapping) -> str:
    """Stable short hash of a flat config mapping."""
    blob = json.dumps({k: cfg[k] for k in sorted(cfg)}, sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def provenance_lines(command: str, cfg: Mapping) -> list[str]:
    return [
        f"# sktlab {VERSION}",
        f"# command: {command}",
        f"# config: {config_hash(cfg)}",
    ]


def _cells(values) -> tuple[str, list]:
    """(printf conversion, cell values) that write each cell as _fmt does,
    since "%.17g" % v == format(v, ".17g"): a float64 array or a column of
    floats is written "%.17g", any other column is preformatted by _fmt."""
    if getattr(values, "dtype", None) == "float64":
        return "%.17g", values.tolist()
    col = list(values)
    if all(isinstance(v, float) for v in col):
        return "%.17g", col
    return "%s", [_fmt(v) for v in col]


def write_csv(path: str, columns: Mapping[str, Iterable], command: str,
              cfg: Mapping, metadata: Mapping | None = None) -> None:
    """Write named columns as CSV with a provenance header.

    Each column is converted once and each row formatted by one %
    operation, with the cell formats of _fmt.
    """
    names = list(columns)
    convs, cols = [], []
    for name in names:
        conv, col = _cells(columns[name])
        convs.append(conv)
        cols.append(col)
    n = len(cols[0]) if cols else 0
    for name, c in zip(names, cols):
        if len(c) != n:
            raise ValueError(f"column {name!r} has length {len(c)}, expected {n}")
    lines = provenance_lines(command, cfg)
    if metadata:
        for k in sorted(metadata):
            lines.append(f"# {k}: {_fmt(metadata[k])}")
    lines.append(",".join(names))
    row_fmt = ",".join(convs)
    lines.extend(row_fmt % row for row in zip(*cols))
    _write_atomic(path, "\n".join(lines) + "\n")


def write_metadata(path: str, command: str, cfg: Mapping,
                   metadata: Mapping) -> None:
    """Key = value sidecar with the same provenance header."""
    lines = provenance_lines(command, cfg)
    for k in sorted(metadata):
        lines.append(f"{k} = {_fmt(metadata[k])}")
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temp file of a name no other writer uses, then
    rename it onto path; the temp file is removed if anything fails."""
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
