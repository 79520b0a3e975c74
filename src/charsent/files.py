"""Reading and writing the pipeline's files.

The config, corpus, lexicon, vocabulary, embedding and model files are
read whole through `read_bytes` or `read_text`, so a missing, unreadable
or undecodable file raises the caller's error class (ConfigError for the
config file, DataError for the rest) and never a raw OSError. Every
artifact is written through `write_atomic`: a reader sees the old file
or the complete new one, never a partial write.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

from .errors import CharsentError, DataError


def read_bytes(path: Path, what: str, error: type[CharsentError] = DataError) -> bytes:
    """The bytes of the file `what` at `path`, or `error` if it cannot
    be read (missing, a directory, no permission).
    """
    try:
        return path.read_bytes()
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def read_text(path: Path, what: str, error: type[CharsentError] = DataError) -> str:
    """The file `what` at `path` decoded as UTF-8, newlines untranslated
    and one leading byte order mark dropped, or `error` if it cannot be
    read or decoded.
    """
    blob = read_bytes(path, what, error)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not valid UTF-8 (byte {exc.start})") from exc
    return text.removeprefix("\ufeff")


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to a new file beside `path`, then rename it over
    `path`, so a failed write leaves any previous file intact. Raises
    DataError if the directory is missing or not writable.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with tmp.open("xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
