import itertools
import math
from functools import reduce
from operator import or_

import pytest

import contextprob as cp
from contextprob.models import save_model
from contextprob.space import MeasureTable


@pytest.fixture
def kq():
    """The bundled four-point model at q = 1/8."""
    return cp.generate_kq(0.125)


def make_pair_model(weights):
    """Four-point space with the canonical crossing partitions:
    a splits {w1,w2} vs {w3,w4}, b splits {w1,w4} vs {w2,w3}."""
    space = cp.FiniteKolmogorovSpace(("w1", "w2", "w3", "w4"), tuple(weights))
    a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
    b = cp.RandomVariable((1.0, -1.0, -1.0, 1.0))
    return space, cp.ReferencePair.from_variables(space, a, b)


def square_model_path(tmp_path, weights) -> str:
    """A model on the four-point square with the given weights, a splitting
    {w1,w2} from {w3,w4} and b splitting {w1,w3} from {w2,w4}, and every
    two- and three-point context declared."""
    names = ("w1", "w2", "w3", "w4")
    space = cp.FiniteKolmogorovSpace(names, weights)
    variables = {
        "a": cp.RandomVariable((1.0, 1.0, -1.0, -1.0)),
        "b": cp.RandomVariable((1.0, -1.0, 1.0, -1.0)),
    }
    contexts = {
        "C" + "".join(name[1:] for name in chosen): space.event(chosen)
        for k in (2, 3)
        for chosen in itertools.combinations(names, k)
    }
    path = tmp_path / "square.json"
    save_model(cp.ModelDocument(space, variables, contexts, ("a", "b")), path)
    return str(path)


@pytest.fixture
def skewed():
    """Non-double-stochastic four-point model with hyperbolic b-cells."""
    return make_pair_model((0.1, 0.2, 0.3, 0.4))


@pytest.fixture
def ds_skewed():
    """Double stochastic transition matrix but nonuniform marginals, so the
    b-cells are strictly hyperbolic contexts."""
    return make_pair_model((0.075, 0.225, 0.175, 0.525))


def union(*events: cp.Event) -> cp.Event:
    """The union of events of one space."""
    return cp.Event(reduce(or_, (e.mask for e in events)), events[0].size)


def member_fsum(space: cp.FiniteKolmogorovSpace, mask: int) -> float:
    """The measure of the event ``mask``: ``math.fsum`` of its members'
    weights."""
    return math.fsum(w for i, w in enumerate(space.weights) if mask >> i & 1)


def total_variation(p: dict, q: dict) -> float:
    """Half the summed absolute difference of two distributions, each a
    mapping of value to probability, over the union of their supports."""
    support = sorted(set(p) | set(q))
    return 0.5 * math.fsum(abs(p.get(v, 0.0) - q.get(v, 0.0)) for v in support)


def fsum_table(space, a_cells, b_cells, context, unions=()) -> MeasureTable:
    """The :class:`MeasureTable` of one context over the given cells, with
    the given unions of the (disjoint) a-cells, each entry the
    :func:`member_fsum` of its own mask: a reference that shares no code
    with the pair tables.  The cells need not cover the space."""
    c = context.mask
    a_masks = [a.mask for a in a_cells]
    b_c = [b.mask & c for b in b_cells]

    def m(mask: int) -> float:
        return member_fsum(space, mask)

    def row(a_mask: int) -> tuple[float, ...]:
        return tuple(m(a_mask & b) for b in b_c)

    return MeasureTable(
        m(c),
        tuple(m(a & c) for a in a_masks),
        tuple(map(m, b_c)),
        tuple(map(row, a_masks)),
        {s: row(reduce(or_, (a_masks[i] for i in s), 0)) for s in unions},
    )
