import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wnocpower
from wnocpower import fileio
from wnocpower.fileio import sha256_hex

# Around SHA-256's 64-byte block and its 55/56-byte padding edge, and one large input.
SIZES = (0, 1, 55, 56, 63, 64, 65, 1 << 20)


def _data(n: int) -> bytes:
    return bytes(i * 7 % 251 for i in range(n))


@pytest.mark.parametrize("n", SIZES)
def test_sha256_hex_is_hashlibs_digest(n):
    data = _data(n)
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_comes_from_the_interpreters_built_in_module():
    assert fileio._sha256.__module__ in ("_sha2", "_sha256")


def test_without_the_built_in_module_hashlib_gives_the_same_digests():
    src = str(Path(wnocpower.__file__).resolve().parent.parent)
    code = ("import json, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from wnocpower import fileio\n"
            "assert fileio._sha256 is hashlib.sha256, fileio._sha256\n"
            f"data = [bytes(i * 7 % 251 for i in range(n)) for n in {SIZES!r}]\n"
            "print(json.dumps([fileio.sha256_hex(d) for d in data]))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == [hashlib.sha256(_data(n)).hexdigest() for n in SIZES]
