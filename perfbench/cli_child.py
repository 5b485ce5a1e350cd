"""Run one ``ba137qudit`` command in this fresh interpreter, as the
``ba137qudit`` console script does, and record where its time went.

    python3 perfbench/cli_child.py <timing.json> <trace 0|1> <fault|-> <command> -- <args>

The timing file gets perf_counter stamps (the system-wide monotonic clock,
comparable with the parent's) of ``import ba137qudit`` and of ``main()``.
With trace 1 the library calls inside ``main()`` are traced as in the
in-process workloads and the spans go to ``<timing.json>.spans``.
"""

import json
import sys
import time


def main() -> int:
    timing_path, trace, fault, command = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t_import = time.perf_counter()
    import ba137qudit  # noqa: F401

    t_imported = time.perf_counter()
    from ba137qudit import cli

    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.add_span("import.ba137qudit", t_import, t_imported, None)
        install(tracer)
    if fault != "-":
        import faults

        faults.inject(fault)
    sid = tracer.open(f"cli.{command}") if tracer else None
    t_main = time.perf_counter()
    rc = cli.main(argv)
    t_done = time.perf_counter()
    if tracer:
        tracer.close(sid, t_done)
        tracer.write(timing_path + ".spans")
    with open(timing_path, "w") as fh:
        json.dump({"import": [t_import, t_imported], "main": [t_main, t_done], "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
