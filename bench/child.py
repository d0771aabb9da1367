"""One benchmark request: a fresh interpreter running the bcsgap CLI.

    python3 bench/child.py RECORD TRACE -- ARGV...

Imports ``bcsgap.cli`` and calls ``main(ARGV)`` exactly as the console
script does, so caches start cold.  RECORD (a JSON file) receives the
monotonic time at which ``load_config`` returned and the process's peak
resident set (VmHWM, which unlike ru_maxrss does not inherit the forking
parent's size); with TRACE = 1 the public
functions are wrapped by tracing.Tracer and the spans go to RECORD + ".npz".
"""
import json
import sys
import time


def run(record: str, traced: bool, argv: list) -> int:
    marks = {}
    tracer = None
    try:
        import bcsgap.cli as cli
        if traced:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        inner = cli.load_config

        def load_config(path):
            cfg = inner(path)
            marks["config_loaded"] = time.monotonic()
            return cfg

        cli.load_config = load_config
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.save(record + ".npz")
        marks["peak_rss_kib"] = _peak_rss_kib()
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)


def _peak_rss_kib():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sep = sys.argv.index("--")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[sep + 1:]))
