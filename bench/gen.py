"""Seeded model generators for the benchmark workloads.

Only the standard library is used (``random.Random.random`` and nothing that
draws from it indirectly), so a workload depends on its seed alone, not on
the program's own generator or on the numpy version.  Every model is a plain
JSON-ready dict in the program's model format.

The structure of each workload (point counts per cell, context sizes) is
fixed; the seed moves the weights and which points each context holds.  That
keeps the amount of work nearly the same from seed to seed, so runs on
different seeds can be compared.

Regenerate the inputs of one workload with

    python3 bench/gen.py --workload wide-ds --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

WORKLOADS = ("wide-ds", "atlas-small", "split-3x3")

WIDE_POINTS = 1024
WIDE_CONTEXTS = 100
ATLAS_CELL_MASS = {(1.0, 1.0): 0.45, (1.0, -1.0): 0.15, (-1.0, 1.0): 0.30, (-1.0, -1.0): 0.10}
ATLAS_LADDER = (0.01, 0.09, 0.90)
ATLAS_JITTER = 0.1
SPLIT_POINTS = 256
SPLIT_CONTEXTS = 200
SPLIT_LEVELS = (1.0, 0.0, -1.0)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _shuffle(rng: random.Random, items: list) -> None:
    """Fisher-Yates on ``rng.random`` only."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    """``k`` distinct indices out of ``range(n)``, in increasing order."""
    pool = list(range(n))
    for i in range(k):
        j = i + int(rng.random() * (n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def _assemble(cells, masses, raw, contexts_of) -> dict:
    """Points for a list of (a, b) cells with the given masses per cell.

    ``cells`` lists one (a, b) value pair per point in point order; a cell's
    mass is shared among its points in proportion to ``raw``.
    ``contexts_of(ids)`` returns the context dict for the point ids.
    """
    per_cell: dict[tuple, float] = {}
    for cell, r in zip(cells, raw):
        per_cell[cell] = per_cell.get(cell, 0.0) + r
    weights = [masses[c] * r / per_cell[c] for c, r in zip(cells, raw)]
    total = math.fsum(weights)
    weights = [w / total for w in weights]
    ids = [f"w{i + 1}" for i in range(len(cells))]
    return {
        "points": [{"id": i, "p": w} for i, w in zip(ids, weights)],
        "variables": {
            "a": {i: c[0] for i, c in zip(ids, cells)},
            "b": {i: c[1] for i, c in zip(ids, cells)},
        },
        "contexts": contexts_of(ids),
        "reference_pair": ["a", "b"],
    }


def _nondegenerate_sample(rng, n, size, a_of):
    """A random context of ``size`` points meeting every a-cell."""
    levels = set(a_of)
    while True:
        chosen = _sample(rng, n, size)
        if {a_of[i] for i in chosen} == levels:
            return chosen


def wide_ds(seed: int) -> dict:
    """Dichotomous, double stochastic, non-uniform a-marginal, 1024 points.

    P(b|a) = [[t, 1-t], [1-t, t]] is double stochastic for every t; the
    a-marginal stays away from 1/2, so the two b-cells, declared as
    contexts, are strictly hyperbolic.  The 100 random contexts have sizes
    spread evenly over [2, n] and all meet both a-cells.
    """
    rng = random.Random(seed)
    alpha = _uniform(rng, 0.30, 0.40)
    t = _uniform(rng, 0.60, 0.75)
    p_a = {1.0: alpha, -1.0: 1.0 - alpha}
    p_b_a = {(1.0, 1.0): t, (1.0, -1.0): 1 - t, (-1.0, 1.0): 1 - t, (-1.0, -1.0): t}
    masses = {cell: p_a[cell[0]] * p for cell, p in p_b_a.items()}
    order = list(masses)
    cells = [order[i % 4] for i in range(WIDE_POINTS)]
    _shuffle(rng, cells)
    a_of = [c[0] for c in cells]

    def contexts_of(ids):
        out = {}
        for k in range(WIDE_CONTEXTS):
            size = 2 + round((WIDE_POINTS - 2) * (k + 0.5) / WIDE_CONTEXTS)
            chosen = _nondegenerate_sample(rng, WIDE_POINTS, size, a_of)
            out[f"S{k}"] = [ids[i] for i in chosen]
        for x, name in ((1.0, "B+"), (-1.0, "B-")):
            out[name] = [i for i, c in zip(ids, cells) if c[1] == x]
        return out

    return _assemble(cells, masses, [0.5 + rng.random() for _ in cells], contexts_of)


def atlas_small(seed: int) -> dict:
    """Dichotomous, not double stochastic, 12 points, every context.

    Three points per (a, b) cell.  Cell masses follow ``ATLAS_CELL_MASS``
    and the three points of a cell share its mass as ``ATLAS_LADDER``, both
    jittered by up to 10% per seed; the spread of the ladder gives a mix of
    trigonometric, hyperbolic and mixed contexts that barely moves with the
    seed.  Every subset meeting both a-cells is declared: (2^6 - 1)^2 = 3969
    contexts, named by their point bitmask.
    """
    rng = random.Random(seed)

    def jitter(v):
        return v * math.exp(ATLAS_JITTER * (2.0 * rng.random() - 1.0))

    masses = {c: jitter(m) for c, m in ATLAS_CELL_MASS.items()}
    total = math.fsum(masses.values())
    masses = {c: m / total for c, m in masses.items()}
    cells = [c for c in masses for _ in ATLAS_LADDER]
    shares = [jitter(s) for _ in masses for s in ATLAS_LADDER]
    order = list(range(len(cells)))
    _shuffle(rng, order)
    cells = [cells[i] for i in order]
    shares = [shares[i] for i in order]
    n = len(cells)
    a_mask = [sum(1 << i for i, c in enumerate(cells) if c[0] == y) for y in (1.0, -1.0)]

    def contexts_of(ids):
        out = {}
        for mask in range(1, 1 << n):
            if all(mask & m for m in a_mask):
                out[f"K{mask:03x}"] = [ids[i] for i in range(n) if mask >> i & 1]
        return out

    return _assemble(cells, masses, shares, contexts_of)


def split_3x3(seed: int) -> dict:
    """Ternary a and b, 256 points, 200 contexts.

    Cell masses are random; points fill the nine cells as evenly as 256
    allows.  Context sizes are spread evenly over [2, n]; small contexts miss
    cells, and contexts with strong deviations leave the range of the split
    recursion, so both kinds of unrepresentable context occur.
    """
    rng = random.Random(seed)
    raw = {(y, x): _uniform(rng, 0.5, 1.5) for y in SPLIT_LEVELS for x in SPLIT_LEVELS}
    total = math.fsum(raw.values())
    masses = {c: m / total for c, m in raw.items()}
    order = list(raw)
    cells = [order[i % 9] for i in range(SPLIT_POINTS)]
    _shuffle(rng, cells)

    def contexts_of(ids):
        out = {}
        for k in range(SPLIT_CONTEXTS):
            size = 2 + round((SPLIT_POINTS - 2) * (k + 0.5) / SPLIT_CONTEXTS)
            out[f"S{k}"] = [ids[i] for i in _sample(rng, SPLIT_POINTS, size)]
        return out

    return _assemble(cells, masses, [0.5 + rng.random() for _ in cells], contexts_of)


def kq(q: float) -> dict:
    """The four-point family of the paper, written out by hand: weights
    (q, (1-2q)/2, q, (1-2q)/2), a = (+,+,-,-), b = (+,-,-,+), with the
    three-point contexts whose coefficients have closed forms."""
    half = (1.0 - 2.0 * q) / 2.0
    ids = ["w1", "w2", "w3", "w4"]
    return {
        "points": [{"id": i, "p": p} for i, p in zip(ids, (q, half, q, half))],
        "variables": {
            "a": dict(zip(ids, (1.0, 1.0, -1.0, -1.0))),
            "b": dict(zip(ids, (1.0, -1.0, -1.0, 1.0))),
        },
        "contexts": {
            "C123": ["w1", "w2", "w3"],
            "C124": ["w1", "w2", "w4"],
            "C134": ["w1", "w3", "w4"],
            "C234": ["w2", "w3", "w4"],
        },
        "reference_pair": ["a", "b"],
    }


GENERATORS = {"wide-ds": wide_ds, "atlas-small": atlas_small, "split-3x3": split_3x3}


def model(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def write_model(workload: str, seed: int, directory: str) -> str:
    """Generate the workload's model and write it as ``model.json``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "model.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model(workload, seed), fh)
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for model.json")
    args = parser.parse_args()
    print(write_model(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
