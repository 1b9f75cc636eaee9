"""Result-file output that a failure cannot leave half written, and the SHA-256 digests
that tie fitted models and result files to their inputs."""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterable

# CPython's built-in SHA-256, not hashlib's: importing hashlib loads OpenSSL (libcrypto),
# ~3.5 MiB of a cold process's peak memory and a few ms, to hash ~100 KB. hashlib only
# where the interpreter was built without the module (a FIPS-style build).
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def sha256_hex(data: bytes) -> str:
    """The SHA-256 of ``data`` as 64 lowercase hex digits; the program's only hash."""
    return _sha256(data).hexdigest()


def write_text_atomic(path, text: str | Iterable[str]) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file beside it.

    ``text`` is a string or an iterable of string chunks, written as they
    come, so a caller can stream output it never holds whole. ``os.replace``
    swaps the finished file in, so a failure at any step, in the iterable
    included, leaves the previous file, or none, and no temporary file.
    There is no fsync: this guards against the program failing, not the host.

    A symlink is followed: the temporary file goes beside the file it
    names, so the link stays and its target gets the text. An existing
    path that is not a regular file (a device such as /dev/null, a FIFO)
    is written in place, since a rename would replace the node itself; a
    failure there leaves the chunks already written.
    """
    path = Path(path)
    chunks = (text,) if isinstance(text, str) else text
    try:
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = True
        if not regular:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            return
        target = Path(os.path.realpath(path))
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        # Name the file the caller asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, str(path)) from None
