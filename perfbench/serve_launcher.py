"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Used by the traced run of ``served_mix`` only::

    python3 perfbench/serve_launcher.py --trace-out OUT.json \\
        --port 0 --workers 2 --cache-dir DIR

All arguments after ``--trace-out OUT`` go to ``repro serve``.  On
SIGUSR1 the launcher writes a layer snapshot to ``OUT.start.json``;
when the daemon has drained (SIGTERM) it writes the final snapshot to
``OUT.json``.  Both files are written whole and then renamed into
place.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

from common import add_src_to_path


def _write(path: Path, data) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_launcher.py --trace-out OUT [serve args]",
              file=sys.stderr)
        return 2
    out = Path(argv[1])
    add_src_to_path()
    import layers
    from repro.serve.cli import serve_main

    trace = layers.LayerTrace()
    layers.install(trace)
    signal.signal(signal.SIGUSR1, lambda *_: _write(
        out.with_suffix(".start.json"), trace.snapshot()))
    try:
        return serve_main(argv[2:])
    finally:
        _write(out, trace.snapshot())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
