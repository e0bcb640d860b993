"""Run one quasitrace subcommand in this fresh interpreter and record its cost.

    python bench/child.py RESULT.json KIND [--trace] [-- SUBCOMMAND ARGS...]

Imports ``quasitrace.cli`` from the ``src`` tree next to this directory and
times the import.  With subcommand arguments it then times ``cli.main`` on
them; ``--trace`` records spans around the layers' public functions while it
runs.  The KIND calibration loop (``bench/calibration.py``) runs three times
just after the import, on a timer while ``cli.main`` runs, and three times
after it returns; the ``python`` loop also runs three times just before the
import.  Writes ``import_s``, ``main_s``, ``exit_code``, ``maxrss_kb``,
``calibration_s`` (every loop time), and when traced ``spans`` and ``counts``
to RESULT.json, and exits with the subcommand's code.  ``main_s`` excludes the
time the sampling took.  Without subcommand arguments it only measures the
import.
"""

import json
import resource
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    result_path, kind = Path(argv[0]), argv[1]
    trace = "--trace" in argv[2:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []

    sys.path.insert(0, str(ROOT / "src"))
    # the lapack loop needs scipy, which only the timed import may load
    samples = calibration.bracket("python") if kind == "python" else []
    start = time.perf_counter()
    import quasitrace.cli as cli
    record = {"import_s": time.perf_counter() - start}
    samples += calibration.bracket(kind)

    code = 0
    if cli_args:
        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        sampler = calibration.Sampler(kind)
        sampler.start()
        start = time.perf_counter()
        try:
            code = cli.main(cli_args)
        finally:
            record["main_s"] = time.perf_counter() - start - sum(sampler.samples)
            sampler.stop()
            if tracer is not None:
                tracer.restore()
        record["exit_code"] = code
        samples += sampler.samples + calibration.bracket(kind)
        if tracer is not None:
            record.update(tracer.export())
    record["calibration_s"] = samples
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
