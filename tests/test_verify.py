"""The witness rule of ``verify``'s recorder: the first worst comparison of a
check is its witness, and a witness is formatted only when its comparison
becomes the worst.

``_EagerRecorder`` is the recorder as it was when every caller formatted its
witness with an f-string before each comparison; on random sequences of
comparisons and expectations the lazy recorder must keep the same residual
and the same witness.  A NaN residual is a failed expectation: the worst
residual becomes inf and the first NaN comparison is the witness, unless an
expectation failed first.
"""

import ast
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import contextprob as cp
from contextprob.verify import _Recorder

SRC = Path(cp.__file__).parent


class _EagerRecorder:
    def __init__(self):
        self.worst = 0.0
        self.witness = None
        self.compared = 0

    def compare(self, lhs, rhs, witness):
        residual = abs(lhs - rhs)
        if math.isnan(residual):
            self.expect(False, witness)
            return
        self.compared += 1
        if residual > self.worst:
            self.worst = residual
            self.witness = witness

    def expect(self, condition, witness):
        self.compared += 1
        if not condition and not math.isinf(self.worst):
            self.worst = math.inf
            self.witness = witness


# a few shared values make ties between residuals common
values = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, 1e-12, math.inf, math.nan]),
    st.floats(allow_nan=False),
)
names = st.text(alphabet="C12{}x=, ", max_size=6)
steps = st.one_of(
    st.tuples(st.just("compare"), values, values, names, values),
    st.tuples(st.just("compare plain"), values, values, names, values),
    st.tuples(st.just("expect"), st.booleans(), st.none(), names, values),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=30))
def test_lazy_witness_matches_eager_formatting(sequence):
    lazy, eager = _Recorder("demo", tol=1e-12), _EagerRecorder()
    for kind, lhs, rhs, name, x in sequence:
        if kind == "compare":
            lazy.compare(lhs, rhs, "{}, x={}", name, x)
            eager.compare(lhs, rhs, f"{name}, x={x}")
        elif kind == "compare plain":
            lazy.compare(lhs, rhs, name)
            eager.compare(lhs, rhs, f"{name}")
        else:
            lazy.expect(lhs, "P({})={}", name, x)
            eager.expect(lhs, f"P({name})={x}")
    assert (lazy.worst, lazy.witness, lazy.compared) == (
        eager.worst, eager.witness, eager.compared
    )


def test_nan_residual_fails_its_check():
    """A NaN residual fails the check with a null residual; the first NaN
    comparison is the witness, and later failures keep it."""
    rec = _Recorder("demo", tol=1e-12)
    rec.compare(0.5, 0.5, "equal")
    rec.compare(math.nan, 1.0, "first {}", "nan")
    rec.compare(math.inf, 1.0, "larger")
    rec.compare(1.0, math.nan, "second nan")
    rec.expect(False, "failed expectation")
    assert (rec.worst, rec.witness, rec.compared) == (math.inf, "first nan", 5)
    check = rec.result()
    assert (check.status, check.witness) == ("fail", "first nan")
    assert check.to_dict()["residual"] is None
    rec = _Recorder("demo", tol=math.inf)
    rec.compare(math.inf, -math.inf, "{} apart", "infinitely")
    rec.compare(math.inf, math.inf, "nan")
    assert (rec.worst, rec.witness) == (math.inf, "infinitely apart")


def test_no_eager_witness_in_verify():
    """No ``.compare(...)`` or ``.expect(...)`` call in ``verify`` passes an
    f-string, which would be formatted on every comparison."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("compare", "expect")
        and any(
            isinstance(arg, ast.JoinedStr)
            for arg in (*node.args, *(k.value for k in node.keywords))
        )
    ]
    assert offenders == []
