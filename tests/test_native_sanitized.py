"""The compiled kernels under AddressSanitizer and UBSan.

``tests/native/driver.c`` calls every exported entry point of
``src/repro/native`` the way ctypes does -- limb known answers for Fp, Fr
and Fp2, the G1 MSM's exceptional cases, NTT round trips at sizes 1 to
2^13, the quotient and both fixed-base combs -- from exact-size heap
buffers, so any read or write past a caller-sized buffer, any leak and
any undefined behaviour stops it.  A crash in that code would take the
whole service process down, which no Python-level test would show.

The driver is linked against the library's own source list
(:data:`repro.native.SOURCES`), so a new C file is covered unnamed.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from repro import native

ROOT = Path(__file__).resolve().parent.parent
DRIVER = ROOT / "tests" / "native" / "driver.c"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_driver_passes_under_the_sanitizers(tmp_path):
    binary = tmp_path / "driver"
    subprocess.run(
        [
            "cc", "-std=c99", "-g", "-O1",
            "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
            "-fno-sanitize-recover=all",
            str(DRIVER), *map(str, native.SOURCES),
            "-o", str(binary),
        ],
        check=True, capture_output=True, timeout=120,
    )
    run = subprocess.run(
        [str(binary)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "ok"
