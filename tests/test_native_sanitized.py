"""The compiled kernels under AddressSanitizer and UBSan.

``tests/native/driver.c`` calls every exported entry point of
``src/repro/native`` the way ctypes does -- limb known answers for both
moduli, the G1 MSM's exceptional cases, NTT round trips at sizes 1 to
2^13 and the quotient -- from exact-size heap buffers, so any read or
write past a caller-sized buffer, any leak and any undefined behaviour
stops it.  A crash in that code would take the whole service process
down, which no Python-level test would show.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NATIVE = ROOT / "src" / "repro" / "native"
DRIVER = ROOT / "tests" / "native" / "driver.c"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_driver_passes_under_the_sanitizers(tmp_path):
    binary = tmp_path / "driver"
    subprocess.run(
        [
            "cc", "-std=c99", "-g", "-O1",
            "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
            "-fno-sanitize-recover=all",
            str(DRIVER), str(NATIVE / "g1msm.c"), str(NATIVE / "qap.c"),
            "-o", str(binary),
        ],
        check=True, capture_output=True, timeout=120,
    )
    run = subprocess.run(
        [str(binary)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "ok"
