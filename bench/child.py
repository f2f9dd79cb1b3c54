"""One ``manetsim`` command in a fresh process, with the benchmark's probes.

    python3 bench/child.py <trace 0|1> <trace_dir> <manetsim args...>

Samples the host's speed from its first line (``bench/speed.py``), imports
the CLI the way a ``manetsim`` user does, installs the probe wrappers (and
with trace 1 the per-layer wrappers), runs ``cli.main`` on the remaining
arguments and writes the spans and speed samples to ``trace_dir``.  The
exit code is the command's.
"""

import os
import sys
import time

import speed

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    speed.start()
    try:
        return run_command(argv[0] == "1", argv[1], argv[2:])
    finally:
        speed.stop()


def run_command(traced: bool, trace_dir: str, command: list[str]) -> int:
    t = time.perf_counter()
    from manetsim import cli
    import_s = time.perf_counter() - t
    expected = os.path.join(CHECKOUT, "src", "")
    if not os.path.abspath(cli.__file__).startswith(expected):
        print(f"manetsim imported from {cli.__file__}, not {expected}",
              file=sys.stderr)
        return 3
    import tracer

    rss_after_import_kb = tracer.rss_kb()

    tr = tracer.Tracer(trace_dir)
    tracer.install(tr, layers=traced)
    tr.meta.update(root=True, import_s=import_s,
                   rss_after_import_kb=rss_after_import_kb)
    code = cli.main(command)
    tr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
