"""Reading and writing the pipeline's files.

The config, corpus, lexicon, vocabulary, embedding and model files are
read whole through `read_bytes` or `read_text`, so a missing, unreadable
or undecodable file raises the caller's error class (ConfigError for the
config file, DataError for the rest), as does JSON that `parse_json`
cannot read. Every artifact is written through `write_atomic`: a reader
sees the old file or the complete new one, never a partial write; a
stage checks each place it will write with `check_output` first. A
loader builds its objects inside `located`, so its errors name its file.
"""

from __future__ import annotations

import io
import json
import os
import secrets
from pathlib import Path

from .errors import CharsentError, ConfigError, DataError

# Every size in a model header (h, d and the vocabulary size) lies below
# this, so the byte count they give has too few digits for str() to
# refuse. The config's sizes share the bound: train writes no model that
# load_model refuses.
SIZE_LIMIT = 2**31


def check_size(name: str, value: int) -> None:
    """Raise ConfigError unless 1 <= value < SIZE_LIMIT, as every embedding and LSTM size must."""
    if not 1 <= value < SIZE_LIMIT:
        raise ConfigError(f"{name} must lie in [1, {SIZE_LIMIT}), got {value}")


def check_string(name: str, value) -> None:
    """Raise DataError unless `value` is a string that UTF-8 can encode,
    as every text the pipeline writes must be: a lone surrogate, which a
    JSON `\\ud800` escape gives, cannot be written.
    """
    if not isinstance(value, str):
        raise DataError(f"{name} must be a string, not {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{name} is not valid Unicode (a lone surrogate at index {exc.start})") from None


def read_bytes(path: Path, what: str, error: type[CharsentError] = DataError) -> bytes:
    """The bytes of the file `what` at `path`, or `error` if it cannot
    be read (missing, a directory, no permission).
    """
    try:
        return path.read_bytes()
    except FileNotFoundError as exc:
        raise error(f"{path}: {what} not found") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc


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


def parse_json(text: str | bytes, what: str, error: type[CharsentError] = DataError):
    """The value of the JSON text `what`, bytes read as strict UTF-8, or
    `error` if json.loads refuses it, even for its nesting or an integer's
    digit count, or if it is not UTF-8.
    """
    try:  # json.loads would read bytes as UTF-16 or UTF-32 too
        return json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError too
        problem = {RecursionError: "nested too deep", ValueError: "an integer too long to read"}
        raise error(f"invalid JSON in {what} ({problem.get(type(exc), exc)})") from exc


def json_lines(path: Path, what: str):
    """(where, parsed value) for each non-blank line of a JSONL file,
    `where` being `path:lineno`. Lines end at LF, CR LF or CR, as in a
    file read in text mode, and not at U+2028 or U+0085.
    """
    for lineno, line in enumerate(io.StringIO(read_text(path, what), newline=None), start=1):
        if line := line.strip():
            where = f"{path}:{lineno}"
            with located(where):
                record = parse_json(line, what)
            yield where, record


class located:
    """Context manager that prefixes `where: ` (a file, or `file:line`)
    to any `error` raised inside it. A class, as contextlib.suppress is,
    for its speed: a corpus loader enters one per record.
    """

    def __init__(self, where: str | Path, error: type[CharsentError] = DataError):
        self.where = where
        self.error = error

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, self.error):
            raise self.error(f"{self.where}: {exc}") from exc


def check_output(name: str, path: Path) -> None:
    """Raise DataError, naming the config key `name`, unless write_atomic
    can put a file at `path`: its parent is an existing directory and it
    is not a directory itself. A stage calls it before it reads its
    inputs, so a mistyped output path costs no work and writes nothing.
    """
    if not os.path.isdir(path.parent):
        raise DataError(f"{name}: cannot write {path}: {path.parent} is not a directory")
    if os.path.isdir(path):
        raise DataError(f"{name}: cannot write {path}: it is a directory")


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
