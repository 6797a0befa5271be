"""End-to-end and per-layer benchmark of ``analyze``, ``represent`` and
``verify`` on three workloads.

    python3 bench/run.py --workload wide-ds --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Every run starts fresh single-threaded interpreters (``worker.py``): a few
that only set up, for the median set-up time, and one that sets up and then
runs whole rounds of the three commands for ``--seconds``.  Every output is
checked against the independent oracle in ``oracle.py``.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics, with times scaled to the machine's full speed by the probe in
``worker.py``; with ``--trace 1`` it reports the per-layer metrics of traced
rounds, with the tracing overhead as traced minus untraced command times.
An operation is one command; it fails when it exits non-zero, raises,
writes anything but strict JSON, or disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
import oracle
import spans
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 8          # set-up only interpreters, half before and half
                           # after the main one, which is one more sample
WORKER_TIMEOUT_S = 150.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
COMMANDS = tuple(name for name, _ in worker.COMMANDS)

# traced labels reported as <label>.calls and <label>.self_s; cli.main is
# reported by its self time alone
LAYER_LABELS = tuple(label for label in spans.TARGETS if label != "cli.main")
CALLS_ONLY = ("space.conditional",)


def confirm_model(workload: str, exp: oracle.Expectations) -> None:
    """The oracle's view of a generated model must match what the workload
    promises; a mismatch is a fault of the generator, not of the program."""
    m, counts = exp.model, exp.class_counts()
    problems = []
    if not m.incompatible():
        problems.append("reference pair is not incompatible")
    if workload == "wide-ds":
        if not (m.dichotomous and exp.ds):
            problems.append("not dichotomous and double stochastic")
        for name in ("B+", "B-"):
            if exp.facts[name]["cls"] != oracle.HYP:
                problems.append(f"b-cell {name} is not strictly hyperbolic")
        skipped = [c for c, s in exp.expected_checks().items() if s != "pass"]
        if skipped:
            problems.append(f"verify would skip {skipped}")
    elif workload == "atlas-small":
        if not m.dichotomous or exp.ds:
            problems.append("not dichotomous, or double stochastic")
        if len(exp.facts) != 3969 or counts.get("degenerate"):
            problems.append("not every a-nondegenerate context declared")
        if min(counts.get(c, 0) for c in (oracle.TRIG, oracle.HYP, oracle.MIXED)) < 100:
            problems.append(f"class mix too thin: {counts}")
    else:
        if len(m.a_values) != 3 or len(m.b_values) != 3:
            problems.append("not ternary")
        if not counts.get("in") or not (counts.get("out", 0) + counts.get("null", 0)):
            problems.append(f"needs representable and unrepresentable contexts: {counts}")
    if problems:
        raise RuntimeError(f"{workload}: " + "; ".join(problems))


def spawn(args, work: str, tag: str, extra: list[str]) -> tuple[dict, float]:
    """Start one worker, wait for it, and return its result together with
    the set-up time measured from just before the process was started,
    less the probe that ran inside it."""
    result_path = os.path.join(work, f"result-{tag}.json")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--work", work, "--result", result_path, *extra,
    ]
    env = {**os.environ, **THREAD_ENV}
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - started - result["setup_probe_s"]


class Checker:
    """Judges each operation once per distinct output text."""

    def __init__(self, exp: oracle.Expectations):
        self.exp = exp
        self.verdicts: dict[tuple[str, str], str | None] = {}
        self.disagreed = False

    def problem(self, op: dict) -> str | None:
        if op["error"] is not None:
            return op["error"]
        if op["exit"] != 0:
            return f"exit code {op['exit']}"
        try:
            with open(op["output"], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return f"no output: {exc}"
        key = (op["command"], hashlib.sha256(text.encode()).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(op["command"], text)
        return self.verdicts[key]

    def _judge(self, command: str, text: str) -> str | None:
        try:
            out = oracle.loads_strict(text)
        except ValueError as exc:
            return f"output is not strict JSON: {exc}"
        errors = oracle.CHECKS[command](self.exp, out)
        if errors.count:
            self.disagreed = True
            return f"{errors.count} disagreements with the oracle: {errors[0]}"
        return None


def scaled(seconds: float, probe_s: float) -> float:
    """Wall time in seconds of the reference machine at full speed."""
    return seconds * worker.PROBE_REFERENCE_S / probe_s


def median_of(rounds: list[dict], command: str, scale: bool = False) -> float:
    return statistics.median(
        scaled(op["seconds"], op["probe_s"]) if scale else op["seconds"]
        for r in rounds for op in r["ops"] if op["command"] == command
    )


def end_to_end(main: dict, setups: list[tuple[float, float]]) -> dict:
    rounds = main["rounds"]
    metrics = {"setup_s": (statistics.median(scaled(*s) for s in setups), "s")}
    for command in COMMANDS:
        metrics[f"{command}_s"] = (median_of(rounds, command, scale=True), "s")
    metrics["peak_rss_mb"] = (main["peak_rss_kb"] / 1024.0, "MB")
    return metrics


def wall_times(main: dict, setups: list[tuple[float, float]]) -> str:
    """The unscaled medians and the probe's slowdown, for the log."""
    rounds = main["rounds"]
    probes = [op["probe_s"] for r in rounds for op in r["ops"]]
    parts = [f"setup {statistics.median(s for s, _ in setups):.4g} s"]
    parts += [f"{c} {median_of(rounds, c):.4g} s" for c in COMMANDS]
    parts.append(f"probe {statistics.median(probes) / worker.PROBE_REFERENCE_S:.3g} x reference")
    return "unscaled medians: " + ", ".join(parts)


def per_layer(main: dict, import_times: list[float], n_contexts: int) -> dict:
    traced = [r for r in main["rounds"] if r["traced"]]
    plain = [r for r in main["rounds"] if not r["traced"]]

    def med(label, field):
        return statistics.median(r["layers"][label][field] for r in traced)

    metrics = {}
    for label in LAYER_LABELS:
        metrics[f"{label}.calls"] = (med(label, "calls"), "count")
        if label not in CALLS_ONLY:
            metrics[f"{label}.self_s"] = (med(label, "self_s"), "s")
    metrics["space.probability.points"] = (med("space.probability", "points"), "count")
    for suite, seconds in main["suites"].items():
        metrics[f"verify.{suite}_s"] = (seconds, "s")
    metrics["cli.main.self_s"] = (med("cli.main", "self_s"), "s")
    metrics["cli.import_s"] = (statistics.median(import_times), "s")
    metrics["interference.interference_coefficients.per_context"] = (
        med("interference.interference_coefficients", "calls") / n_contexts,
        "calls/context",
    )
    metrics["complex_repr.build_amplitude.per_context"] = (
        med("complex_repr.build_amplitude", "calls") / n_contexts, "calls/context",
    )
    metrics["space.probability.points_per_context"] = (
        med("space.probability", "points") / n_contexts, "points/context",
    )
    for command in COMMANDS:
        metrics[f"trace.overhead.{command}_s"] = (
            median_of(traced, command) - median_of(plain, command), "s",
        )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "contextprob", "cli.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    oracle.self_check()
    exp = oracle.Expectations(gen.model(args.workload, args.seed))
    confirm_model(args.workload, exp)

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        spawn(args, work, "warmup", ["--setup-only"])  # fills the bytecode cache
        setups, imports = [], []

        def sample_setup(k):
            result, setup_s = spawn(args, work, f"setup{k}", ["--setup-only"])
            setups.append((setup_s, result["probe_s"]))
            imports.append(result["import_s"])

        for k in range(SETUP_SAMPLES // 2):
            sample_setup(k)
        main_result, setup_s = spawn(
            args, work, "main",
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        setups.append((setup_s, main_result["probe_s"]))
        imports.append(main_result["import_s"])
        for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES):
            sample_setup(k)

        checker = Checker(exp)
        attempted = failed = 0
        for r in main_result["rounds"]:
            for op in r["ops"]:
                attempted += 1
                problem = checker.problem(op)
                if problem is not None:
                    failed += 1
                    print(f"FAILED {op['command']}: {problem}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = per_layer(main_result, imports, len(exp.facts))
    else:
        metrics = end_to_end(main_result, setups)
    untraced = sum(1 for r in main_result["rounds"] if not r["traced"])
    print(f"{args.workload} seed {args.seed}: {untraced} untraced and "
          f"{len(main_result['rounds']) - untraced} traced rounds, "
          f"{len(exp.facts)} contexts {exp.class_counts()}")
    if not args.trace:
        print(wall_times(main_result, setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:56s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not checker.disagreed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
