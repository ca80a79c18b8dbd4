"""Start-up cost: the CLI does not import the heavy scipy subpackages.

``scipy.stats`` and ``scipy.optimize`` are imported inside the few
functions that call them (chi-square tests, proxy associations, the
Kantorovich LP), so every ``repro`` command — and every service worker
— starts without paying for them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_cli_import_skips_scipy_stats_and_optimize():
    probe = (
        "import json, sys; import repro.cli; "
        "print(json.dumps([m for m in ('scipy.stats', 'scipy.optimize') "
        "if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": _SRC, "PATH": ""},
    ).stdout
    assert json.loads(out) == []
