"""Text files: whole-or-nothing writes and reads with one-line errors."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Type, Union

from repro.errors import ValidationError

PathLike = Union[str, Path]


@contextmanager
def atomic_write(path: PathLike) -> Iterator[IO[str]]:
    """A text handle whose contents replace ``path`` when the block ends.

    The handle writes a sibling temp file (unique per writing thread)
    that is renamed over ``path`` only if the block completes; on any
    failure the previous file stays byte-identical and the temp file is
    removed.  Plain ``open()`` keeps the umask-derived permissions, and
    missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(
    path: PathLike,
    noun: str = "file",
    error: Type[ValidationError] = ValidationError,
) -> str:
    """The UTF-8 text of ``path``; a missing, binary or unreadable file
    (a directory, say) raises ``error`` saying which.

    ``noun`` names what ``path`` holds in the messages: ``no such fault
    plan: p`` and ``cannot read fault plan p: ...`` instead of ``no such
    file: p`` and ``cannot read p: ...``.
    """
    named = path if noun == "file" else f"{noun} {path}"
    try:
        with Path(path).open("r", encoding="utf-8") as fp:
            return fp.read()
    except FileNotFoundError:
        raise error(f"no such {noun}: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise error(f"cannot read {named}: {exc.strerror or exc}") from None


__all__ = ["atomic_write", "read_text"]
