"""One program process started by the benchmark driver (``run.py``).

    python3 perfbench/child.py [--trace SPANS --run-id ID] cli ARGV...
    python3 perfbench/child.py [--trace SPANS --run-id ID] library WORLD RESULT

``cli`` runs ``regrow.cli.main(ARGV)`` in this fresh interpreter, so a traced
command has the same shape as an untraced ``python3 -m regrow ARGV``: one
import, one command. ``library`` runs the ``library-5x`` stages on WORLD
and writes their timings, digests and oracle values to RESULT as JSON.

With ``--trace`` the import of ``regrow`` and every layer function are
recorded as spans and written to SPANS when the process ends.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def _cli_span_name(argv: list[str]) -> str:
    return "cli." + ".".join(argv[:2] if argv[0] == "references" else argv[:1])


def main(args: list[str]) -> int:
    tracer = None
    spans_path = None
    if args[0] == "--trace":
        spans_path, run_id, args = args[1], args[3], args[4:]
        tracer = Tracer(run_id)

    mode, rest = args[0], args[1:]
    if mode == "cli":
        index = tracer.begin("cli.import") if tracer else None
        import regrow.cli

        if tracer:
            tracer.end(index)
            tracer.install()
            index = tracer.begin(_cli_span_name(rest))
        code = regrow.cli.main(rest)
        if tracer:
            tracer.end(index)
    elif mode == "library":
        import library

        if tracer:
            tracer.install()
        world, result_path = rest
        result = library.run(world)
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        code = 0 if all(s["ok"] for s in result["stages"]) else 1
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    if tracer:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
