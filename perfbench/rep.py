"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py '<json spec>'   (run.py builds the spec)

The spec gives the ``shadowkit.cli.main`` argument lists to call, the
CLOCK_MONOTONIC reading run.py took just before it spawned this process,
and whether the repetition is traced.  The last line printed is a JSON
object with ``setup_s`` (spawn until ``shadowkit`` is imported), ``wall_s``
(time inside the ``cli.main`` calls), ``call_s`` (each call's command and
time), ``peak_rss_kb`` and, when traced, ``layers``.
"""

import json
import os
import resource
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from shadowkit import cli
    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"shadowkit was imported from {cli.__file__}, not {src}")

    tracer = None
    if spec["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()
        for target in missing:
            print(f"trace hook target not found: {target}", file=sys.stderr)

    call_s = []
    for argv in spec["calls"]:
        start = time.perf_counter()
        status = cli.main(argv)
        call_s.append([argv[0], time.perf_counter() - start])
        if status:
            raise SystemExit(f"shadowkit {argv[0]} exited with status {status}")

    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped worker of the process pool, if any ran.
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_s": ready - spec["spawned"], "wall_s": sum(t for _, t in call_s),
              "call_s": call_s, "peak_rss_kb": rss}
    if tracer is not None:
        result["layers"] = tracer.collect()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
