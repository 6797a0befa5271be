"""The error map: no valid model fails ``verify``.

Every identity ``verify`` compares holds exactly for any Kolmogorov model,
so on a valid model a failed check is a false alarm of the program.  Each
cell of the grid builds one valid model and asserts that ``verify`` exits 0
with strict JSON and nothing on stderr.  A cell that fails today is marked
``xfail(strict=True)`` with the ROADMAP item that mends it, so the defect
shows in every run and the mark must go when the defect is mended.

The axis here is the column deviation of a double stochastic model, from
exact to 1e-8, on both sides of ``DOUBLE_STOCHASTIC_TOL``:

- the square model (a = (1, 1, -1, -1), b = (1, -1, 1, -1), every 2- and
  3-point context) with the symmetric weights (1/4, 1/4, (1+2e)/4,
  (1-2e)/4) and the skew weights ((1-t)/2, t/2, (t+e)/2, (1-t-e)/2) at
  t = 0.01, whose columns miss one by e, with six more steps of e at the
  edge of ``DOUBLE_STOCHASTIC_TOL`` = 2e-14;
- ``generate_random_model(seed, 16, double_stochastic=True, n_contexts=12)``
  for seeds 0 to 39, with each weight times (1 + r u), u uniform in
  [-1, 1], renormalised;
- the skew weights at t = 1e-4 and 1e-6, where the float error of the
  b-cells' lambda reaches ``BOUNDARY_TOL`` even at e = 0.
"""

import json
import random
from functools import cache

import pytest

import contextprob as cp
from contextprob.cli import main
from contextprob.models import save_model

from conftest import square_model_path

E = (0.0, *(10.0**-k for k in range(16, 7, -1)), 5e-11, 9e-11, 1.1e-10, 2e-10)
R = (0.0, *(10.0**-k for k in range(16, 7, -1)))
# the square families also step across the edge of DOUBLE_STOCHASTIC_TOL
EDGE = (2e-14, 2.5e-14, 3e-14, 3.5e-14, 4e-14, 4.5e-14)

# the square cells that fail today, by (family, e): from 2.5e-14 to 4e-14
# the three readings of core.symmetry_equivalence measure different
# quantities against one bound (CHANGES.md FOUND 87), and on the skew
# family at 2e-14 the flag says double stochastic while a b-cell's lambda
# misses the boundary band, so the class and offset checks fail (items 3
# and 14)
SQUARE_FAILS = {
    **{
        (family, e): "FOUND 87"
        for family in ("symmetric", "skew")
        for e in (2.5e-14, 3e-14, 3.5e-14, 4e-14)
    },
    ("skew", 2e-14): "items 3 and 14",
}

# the small-cell cells that fail today, by (t, e): the b-cells' float
# lambda misses the boundary band, so a class check fails (item 3: exact
# tags), and at t = 1e-6 the rapidities disagree as well (item 4: exact
# coefficients)
SMALL_CELL_FAILS = {
    (1e-4, 1e-16): "item 3", (1e-4, 1e-15): "item 3", (1e-4, 1e-14): "item 3",
    (1e-6, 0.0): "item 3", (1e-6, 1e-16): "items 3 and 4",
    (1e-6, 1e-15): "items 3 and 4", (1e-6, 1e-14): "items 3 and 4",
}


def symmetric(e):
    return (0.25, 0.25, 0.25 * (1 + 2 * e), 0.25 * (1 - 2 * e))


def skew(e, t=0.01):
    return (0.5 * (1 - t), 0.5 * t, 0.5 * (t + e), 0.5 * (1 - t - e))


@cache
def random_ds_model(seed):
    return cp.generate_random_model(seed, 16, double_stochastic=True, n_contexts=12)


def assert_verify_passes(path, capsys):
    code = main(["verify", str(path)])
    captured = capsys.readouterr()

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(captured.out, parse_constant=reject)
    failed = [c["id"] for c in report["checks"] if c["status"] == "fail"]
    assert (code, failed, captured.err) == (0, [], "")


@pytest.mark.parametrize(
    "family, e",
    [
        pytest.param(
            family, e, id=f"{family.__name__}-e={e:g}",
            marks=[pytest.mark.xfail(strict=True, reason=SQUARE_FAILS[key])]
            if (key := (family.__name__, e)) in SQUARE_FAILS else [],
        )
        for e in sorted((*E, *EDGE))
        for family in (symmetric, skew)
    ],
)
def test_square_model_passes(family, e, tmp_path, capsys):
    assert_verify_passes(square_model_path(tmp_path, family(e)), capsys)


@pytest.mark.parametrize("r", R, ids=[f"r={r:g}" for r in R])
@pytest.mark.parametrize("seed", range(40))
def test_noisy_random_model_passes(seed, r, tmp_path, capsys):
    doc = random_ds_model(seed)
    rng = random.Random(seed)
    weights = [w * (1 + r * rng.uniform(-1, 1)) for w in doc.space.weights]
    total = sum(weights)
    space = cp.FiniteKolmogorovSpace(
        doc.space.points, tuple(w / total for w in weights)
    )
    path = tmp_path / "noisy.json"
    save_model(cp.ModelDocument(space, doc.variables, doc.contexts, doc.pair_names), path)
    assert_verify_passes(path, capsys)


@pytest.mark.parametrize(
    "t, e",
    [
        pytest.param(
            t, e, id=f"t={t:g}-e={e:g}",
            marks=[pytest.mark.xfail(strict=True, reason=SMALL_CELL_FAILS[t, e])]
            if (t, e) in SMALL_CELL_FAILS else [],
        )
        for t in (1e-4, 1e-6)
        for e in E
    ],
)
def test_small_cell_square_model_passes(t, e, tmp_path, capsys):
    assert_verify_passes(square_model_path(tmp_path, skew(e, t)), capsys)
