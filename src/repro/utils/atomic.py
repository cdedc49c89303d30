"""Atomic file finalisation: write to a temp file, then ``os.replace``.

Committed artifacts — runner JSON output, search hall-of-fame files — must
never be corrupted by a crash mid-write: a reader (or a resumed run) should
see either the previous complete version or the new complete version, never
a truncated hybrid.  :func:`atomic_writer` writes to a temporary file in
the *same directory* as the target (so the final ``os.replace`` is an atomic
rename on the same filesystem) and cleans the temp file up when the write
fails.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Iterator, Union

__all__ = ["atomic_writer"]


@contextmanager
def atomic_writer(path: Union[str, Path], encoding: str = "utf-8") -> Iterator[IO[str]]:
    """Context manager yielding a text handle whose content replaces ``path``.

    The handle writes to a temporary file next to ``path``; on clean exit the
    temp file atomically replaces ``path``.  On any exception the temp file
    is removed and ``path`` is left exactly as it was.

    Examples
    --------
    >>> import tempfile, pathlib
    >>> target = pathlib.Path(tempfile.mkdtemp()) / "data.json"
    >>> with atomic_writer(target) as handle:
    ...     _ = handle.write('{"ok": true}\\n')
    >>> target.read_text()
    '{"ok": true}\\n'
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise

