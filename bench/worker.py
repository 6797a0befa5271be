"""One fresh interpreter of the benchmark: set up, then run whole rounds.

Set-up imports ``contextprob.cli`` and writes the workload's model file; the
monotonic clock reading at the end of set-up is reported so that the parent,
which noted the clock just before starting this process, can time set-up
from the start of the interpreter.  With ``--setup-only`` the worker stops
there.

A round runs ``analyze``, ``represent`` and ``verify --suite all`` in
process through ``contextprob.cli.main`` with ``--output`` to a file, timing
each.  Rounds repeat while another round still fits into ``--seconds``.
With ``--trace 1`` every unit is an untraced round followed by a traced one,
and after the last unit each verify suite is timed once with ``run_suite``.

Machine speed: the host this runs on may slow a CPU by up to twice for tens
of seconds at a time, when other tenants load it.  A fixed probe, pure
Python work of about 2 ms, measures that speed.  It runs once before and
twice after set-up and, without tracing, before and after every command and
every ``PROBE_INTERVAL_S`` during it, from a timer signal.  Each command
reports its wall time without the probes inside it, and the mean probe time
over the command; the parent scales one by the other.

The result is written as JSON to ``--result``; the parent checks the
outputs, so nothing here judges them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import gen
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = (
    ("analyze", []),
    ("represent", []),
    ("verify", ["--suite", "all"]),
)
PROBE_LOOPS = 2400
PROBE_INTERVAL_S = 0.2
# about the time of the fastest probe on the reference machine; scaled times
# are seconds of that machine at full speed
PROBE_REFERENCE_S = 0.002
_PROBE_DATA = [0.37 * i for i in range(256)]


class _ProbeCell:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def probe() -> float:
    """Time a fixed piece of pure Python work that mixes the program's kinds
    of work: tuple and object allocation, dict updates, slicing and
    ``math.fsum``.  A plain arithmetic loop tracks the program's slowdown
    under contention less well."""
    start = time.perf_counter()
    data = _PROBE_DATA
    table: dict = {}
    total = 0.0
    for i in range(PROBE_LOOPS):
        key = (i & 127, i >> 7)
        table[key] = table.get(key, 0.0) + data[i & 255]
        cell = _ProbeCell(data[i & 63], data[(i * 7) & 255])
        total += math.fsum(data[i & 31:(i & 31) + 6]) + cell.x * cell.y
    return time.perf_counter() - start


class Probes:
    """Probe samples taken before, during (from ``SIGALRM``) and after the
    block it guards; ``inside_s`` is the time the probes took inside it."""

    def __enter__(self):
        self.samples = [probe()]
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        seconds = probe()
        self.samples.append(seconds)
        self.inside_s += seconds

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False


def run_command(cli, argv: list[str]) -> tuple[object, str | None]:
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:  # the benchmark counts it as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def run_round(cli, model_path: str, work: str, index: int, probed: bool) -> list[dict]:
    ops = []
    for command, extra in COMMANDS:
        output = os.path.join(work, f"r{index}-{command}.json")
        argv = [command, model_path, *extra, "--output", output]
        op = {"command": command, "output": output}
        if probed:
            with Probes() as probes:
                start = time.perf_counter()
                op["exit"], op["error"] = run_command(cli, argv)
                seconds = time.perf_counter() - start
            op["seconds"] = seconds - probes.inside_s
            op["probe_s"] = statistics.mean(probes.samples)
        else:
            start = time.perf_counter()
            op["exit"], op["error"] = run_command(cli, argv)
            op["seconds"] = time.perf_counter() - start
        ops.append(op)
    return ops


def traced_round(cli, model_path, work, index) -> tuple[list[dict], dict]:
    tracer = Tracer()
    tracer.install()
    try:
        ops = run_round(cli, model_path, work, index, probed=False)
    finally:
        tracer.uninstall()
    layers = {
        label: {"calls": s.calls, "self_s": s.self_s, "points": s.points}
        for label, s in tracer.stats.items()
    }
    return ops, layers


def suite_times(model_path: str) -> dict:
    from contextprob.models import load_model
    from contextprob.verify import SUITES, run_suite

    doc = load_model(model_path)
    out = {}
    for suite in SUITES:
        start = time.perf_counter()
        run_suite(doc, suite)
        out[suite] = time.perf_counter() - start
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    first_probe = probe()
    start = time.perf_counter()
    import contextprob.cli as cli
    import_s = time.perf_counter() - start
    model_path = gen.write_model(args.workload, args.seed, args.work)
    result = {
        "ready": time.monotonic(),
        "import_s": import_s,
        "setup_probe_s": first_probe,  # inside set-up, to be subtracted
        "probe_s": statistics.mean([first_probe, probe(), probe()]),
    }

    if not args.setup_only:
        rounds = []
        begin = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            ops = run_round(cli, model_path, args.work, len(rounds), not args.trace)
            rounds.append({"traced": False, "ops": ops})
            if args.trace:
                ops, layers = traced_round(cli, model_path, args.work, len(rounds))
                rounds.append({"traced": True, "ops": ops, "layers": layers})
            now = time.perf_counter()
            if now - begin + (now - unit_start) > args.seconds:
                break
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["rounds"] = rounds
        if args.trace:
            result["suites"] = suite_times(model_path)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
