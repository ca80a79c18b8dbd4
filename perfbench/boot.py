"""Child-process entry point for the systems under test.

Usage::

    python3 perfbench/boot.py [--spans OUT] serve --root DIR --port 0
    python3 perfbench/boot.py [--spans OUT] monitor --inputs DIR --out R ...

With ``--spans`` the layers' entry points are wrapped (see
:mod:`layers`) before the program starts, and the recorded spans are
written to ``OUT`` when it returns.  ``serve`` runs
``repro.cli.main(["serve", ...])`` unchanged; ``monitor`` runs the
in-process monitoring-fleet host (:mod:`monitor_host`).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    from common import require_sources

    require_sources()
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    recorder = None
    if spans is not None:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)
    try:
        if argv[:1] == ["serve"]:
            from repro.cli import main as repro_main

            return repro_main(argv)
        if argv[:1] == ["monitor"]:
            import monitor_host

            return monitor_host.main(argv[1:], recorder)
        print(f"boot: unknown target {argv[:1]}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
