"""Reference figures for bench/README.md.

    python3 bench/reference.py

Prints, one line each:
- the import time of ``contextprob.cli`` in fresh interpreters (median);
- the baseline of ROADMAP item 1: on ``kq(0.125)`` the per-call times of
  ``interference_coefficients`` and ``build_amplitude`` and the time of
  ``run_suite`` per suite; ``verify --suite all`` on the program's own
  random double stochastic models with 200 contexts at n = 64, 256, 1024;
  and the CLI ``verify`` of a 12-point model in a fresh interpreter;
- ``load_model`` on the 1024-point random model, whose cost is quadratic
  in the number of points;
- the machine's slowdown at the start and the end, as the median of 50
  benchmark probes over ``worker.PROBE_REFERENCE_S``.

These figures use the program's own generators, as the baseline did; the
benchmark workloads do not.  Per-call times are the best of five batches,
the others medians of a few repetitions.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import shutil
import time
import timeit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402


def fresh(code: str, repeat: int = 7) -> float:
    """Median wall time of ``python3 -c code`` in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def best_per_call(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=5)) / number


def timed(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slowdown() -> float:
    return statistics.median(worker.probe() for _ in range(50)) / worker.PROBE_REFERENCE_S


def main() -> None:
    print(f"probe slowdown at start: {slowdown():.2f} x")
    empty = fresh("pass")
    with_import = fresh("import contextprob.cli")
    print(f"fresh interpreter: {empty * 1e3:.0f} ms empty, "
          f"{with_import * 1e3:.0f} ms with import contextprob.cli "
          f"(import {1e3 * (with_import - empty):.0f} ms)")

    import contextprob as cp
    from contextprob.verify import SUITES, run_suite

    doc = cp.generate_kq(0.125)
    c123 = doc.context("C123")
    ic = best_per_call(lambda: cp.interference_coefficients(doc.space, doc.pair, c123), 2000)
    ba = best_per_call(lambda: cp.build_amplitude(doc.space, doc.pair, c123), 500)
    suites = {s: timed(lambda s=s: run_suite(doc, s), 5) for s in SUITES}
    total = timed(lambda: run_suite(doc, "all"), 5)
    print(f"kq(0.125): interference_coefficients {ic * 1e6:.0f} us, "
          f"build_amplitude {ba * 1e6:.0f} us, run_suite all {total * 1e3:.1f} ms ("
          + ", ".join(f"{s} {t * 1e3:.1f}" for s, t in suites.items()) + " ms)")

    tmp = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(tmp)
    try:
        for n in (64, 256, 1024):
            model = cp.generate_random_model(
                seed=0, n_points=n, double_stochastic=True, n_contexts=200
            )
            path = os.path.join(tmp, f"ds{n}.json")
            cp.save_model(model, path)
            loaded = cp.load_model(path)
            t = timed(lambda: run_suite(loaded, "all"), 1 if n == 1024 else 3)
            load = timed(lambda: cp.load_model(path), 3)
            print(f"random double stochastic n={n}, 201 contexts: verify all "
                  f"{t:.2f} s, load_model {load:.3f} s")

        small = cp.generate_random_model(seed=0, n_points=12, n_contexts=8)
        path = os.path.join(tmp, "small.json")
        cp.save_model(small, path)
        cli_verify = fresh(
            "import sys, contextprob.cli as c; "
            f"sys.exit(c.main(['verify', {path!r}, '--output', {os.devnull!r}]))"
        )
        print(f"CLI verify, 12-point model, fresh interpreter: "
              f"{cli_verify * 1e3:.0f} ms (import {1e3 * (with_import - empty):.0f} ms)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # a benchmark run still uses it
    print(f"probe slowdown at end: {slowdown():.2f} x")


if __name__ == "__main__":
    main()
