"""Start the program's CLI with span wrappers on the server-side layers.

Usage (from the repository root, ``src`` and the root on ``PYTHONPATH``)::

    python3 -m perfbench.service_boot SPANS.json serve --port 0 --jobs 2

Everything after the output path is passed to ``repro.cli.main``.  When
the CLI returns (after a ``shutdown`` request) the spans recorded in
memory are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

from perfbench.tracing import Recorder


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import repro.cli
    import repro.service.server  # noqa: F401  (holds handle_line by name)

    recorder = Recorder()
    recorder.install_service()
    recorder.enabled = True
    try:
        return repro.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans,
                       "root_ids": {str(k): v
                                    for k, v in recorder.root_ids.items()}},
                      fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
