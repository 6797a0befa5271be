"""Golden output of the three report commands on kq(1/8).

The files under ``tests/data`` were written by ``analyze``, ``represent`` and
``verify --suite all`` before the per-context measures were shared between
layers; a change that claims unchanged output must keep matching them.
Keys, strings, booleans and null must be equal, floats within 1e-12, so the
guard does not depend on the last bit of a platform's libm.
"""

import json
import math
from pathlib import Path

import pytest

from contextprob.cli import main
from contextprob.models import generate_kq, save_model

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12


def assert_matches(got, want, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert isinstance(want, (int, float)) and not isinstance(want, bool), path
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{path}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize(
    "command, extra",
    [("analyze", []), ("represent", []), ("verify", ["--suite", "all"])],
)
def test_kq_report_matches_golden(tmp_path, command, extra):
    model = tmp_path / "kq.json"
    save_model(generate_kq(0.125), model)
    out = tmp_path / f"{command}.json"
    assert main([command, str(model), *extra, "--output", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((DATA / f"kq_0.125.{command}.json").read_text())
    assert_matches(got, want)


def test_comparison_rejects_drift():
    with pytest.raises(AssertionError):
        assert_matches({"x": [1.0, "a"]}, {"x": [1.0 + 1e-9, "a"]})
    with pytest.raises(AssertionError):
        assert_matches({"x": True}, {"x": 1})
    assert_matches({"x": [1.0, None]}, {"x": [1.0 + 1e-14, None]})
