"""Run the cvcluster CLI in this process with span tracing.

Usage: python cli_launcher.py SPANS_JSON CLI_ARGS...

Records `cli.import` (importing `cvcluster.cli`, numpy included) and
`cli.main` with the library spans below it, then writes the spans to
SPANS_JSON and exits with the CLI's exit code.  The caller records the
enclosing `cli.process` span.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import cvcluster.cli

    tracer.close(idx)
    with tracer.install():
        rc = tracer.wrap("cli.main", cvcluster.cli.main)(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "spans": [[name, start, end, parent, error] for name, start, end, parent, _, error in tracer.rows()],
            "factor_cols": list(tracer.factor_cols),
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
