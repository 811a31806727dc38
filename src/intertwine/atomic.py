"""Atomic file writes for run artifacts.

A file is written to a temporary sibling and moved into place with
os.replace, so a reader never sees a partly written artifact and an
interrupted run leaves the previous file intact.
"""

from __future__ import annotations

import os
import tempfile


class IoError(OSError):
    pass


def write_bytes(path, payload: bytes) -> None:
    path = os.fspath(path)
    dir_ = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dir_, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise IoError(str(exc)) from exc


def write_text(path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))
