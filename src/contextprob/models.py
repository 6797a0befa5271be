"""Model documents: loading, validation, canonical serialisation, generators.

A model document is a single JSON object with the sample points and their
weights, the named random variables (total over the points), the named
contexts (lists of point identifiers), and optionally the pair of variable
names to use as the reference pair (default: "a" and "b", else the first two
declared).

The loader rejects nonpositive weights, weight sums outside one part in 1e9,
variable values that are not JSON numbers, weights and values too large for
a float, and one-valued reference variables, then renormalises.
Serialisation is canonical: sorted object keys, context members in point
order, and floats printed with 17 significant digits, so load -> serialise
-> load is fixed.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .errors import (
    ConstraintUnsatisfiable,
    ModelValidationError,
    QOutOfRange,
)
from .space import (
    Event,
    FiniteKolmogorovSpace,
    RandomVariable,
    ReferencePair,
    are_incompatible,
    transition_matrix,
)
from .tolerances import CELL_MASS_FLOOR, POINT_WEIGHT_FLOOR, RENORM_SKIP, SUM_GATE


class ModelDocument(NamedTuple):
    """A validated model: space, variables, contexts, and reference pair.
    Documents compare by identity."""

    space: FiniteKolmogorovSpace
    variables: dict[str, RandomVariable]
    contexts: dict[str, Event]
    pair_names: tuple[str, str]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def pair(self) -> ReferencePair:
        a, b = self.pair_names
        return ReferencePair.from_variables(
            self.space, self.variables[a], self.variables[b]
        )

    def context(self, name: str) -> Event:
        try:
            return self.contexts[name]
        except KeyError:
            raise ModelValidationError(f"unknown context {name!r}") from None


def _validate(cond: bool, message: str, *args) -> None:
    """Raise unless ``cond``, with ``message.format(*args)``, or ``message``
    itself without ``args``: formatted only on failure."""
    if not cond:
        raise ModelValidationError(message.format(*args) if args else message)


def model_from_dict(doc: Mapping) -> ModelDocument:
    _validate(isinstance(doc, Mapping), "model document must be a JSON object")
    _validate("points" in doc, "model document needs a 'points' array")
    points_raw = doc["points"]
    _validate(
        isinstance(points_raw, Sequence) and points_raw,
        "'points' must be a nonempty array",
    )
    ids: list[str] = []
    seen: set[str] = set()
    weights: list[float] = []
    for entry in points_raw:
        _validate(
            isinstance(entry, Mapping) and "id" in entry and "p" in entry,
            "each point needs 'id' and 'p'",
        )
        pid, w = entry["id"], entry["p"]
        _validate(isinstance(pid, str), "point ids must be strings")
        _validate(
            isinstance(w, (int, float)) and not isinstance(w, bool),
            "weight of {!r} must be a number", pid,
        )
        try:
            w = float(w)
        except OverflowError:
            raise ModelValidationError(
                f"weight of {pid!r} is too large for a float"
            ) from None
        _validate(w > 0.0, "weight of {!r} must be positive", pid)
        _validate(pid not in seen, "duplicate point id {!r}", pid)
        seen.add(pid)
        ids.append(pid)
        weights.append(w)
    total = math.fsum(weights)
    _validate(
        abs(total - 1.0) <= SUM_GATE,
        "weights sum to {!r}, outside the accepted gate around 1", total,
    )
    if abs(total - 1.0) > RENORM_SKIP:
        weights = [w / total for w in weights]
    space = FiniteKolmogorovSpace(tuple(ids), tuple(weights))

    variables_raw = doc.get("variables", {})
    _validate(
        isinstance(variables_raw, Mapping) and len(variables_raw) >= 2,
        "model needs at least two variables",
    )
    variables: dict[str, RandomVariable] = {}
    for name, mapping in variables_raw.items():
        _validate(isinstance(mapping, Mapping), "variable {!r} must be an object", name)
        for point, value in mapping.items():
            # float() would parse "1.0" and take true as 1
            _validate(
                not isinstance(value, (str, bool)) and value is not None,
                "value of variable {!r} at {!r} must be a number", name, point,
            )
        try:
            variables[name] = RandomVariable.from_mapping(space, name, mapping)
        except (ValueError, TypeError) as exc:
            raise ModelValidationError(str(exc)) from None

    contexts_raw = doc.get("contexts", {})
    _validate(isinstance(contexts_raw, Mapping), "'contexts' must be an object")
    contexts: dict[str, Event] = {}
    for name, members in contexts_raw.items():
        # a JSON array is a list: the Sequence check is for other callers
        if type(members) is not list:
            _validate(
                isinstance(members, Sequence) and not isinstance(members, str),
                "context {!r} must be an array of point ids", name,
            )
        try:
            contexts[name] = space.event(members)
        except KeyError as exc:
            raise ModelValidationError(
                f"context {name!r} references {exc.args[0]}"
            ) from None

    pair_names_raw = doc.get("reference_pair")
    if pair_names_raw is None:
        if "a" in variables and "b" in variables:
            pair_names = ("a", "b")
        else:
            names = list(variables)
            pair_names = (names[0], names[1])
    else:
        _validate(
            isinstance(pair_names_raw, Sequence)
            and not isinstance(pair_names_raw, str)
            and len(pair_names_raw) == 2,
            "'reference_pair' must be an array naming exactly two variables",
        )
        for name in pair_names_raw:
            _validate(
                isinstance(name, str) and name in variables,
                "reference pair names unknown {!r}", name,
            )
        pair_names = (pair_names_raw[0], pair_names_raw[1])
    for name in pair_names:
        single = len(set(variables[name].values)) < 2
        _validate(not single, "reference variable {!r} takes a single value", name)
    return ModelDocument(space, variables, contexts, pair_names)


def loads_model(text: str) -> ModelDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelValidationError(f"invalid JSON: {exc}") from None
    return model_from_dict(doc)


def load_model(path) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def _fmt(x: float) -> str:
    return format(x, ".17g")


def dumps_model(doc: ModelDocument) -> str:
    """Canonical text form: sorted keys, members in point order, floats with
    17 significant digits."""
    lines = ["{"]
    lines.append('  "contexts": {')
    ctx_items = sorted(doc.contexts.items())
    for i, (name, event) in enumerate(ctx_items):
        members = ", ".join(json.dumps(p) for p in doc.space.members(event))
        comma = "," if i + 1 < len(ctx_items) else ""
        lines.append(f"    {json.dumps(name)}: [{members}]{comma}")
    lines.append("  },")
    lines.append('  "points": [')
    for i, (pid, w) in enumerate(zip(doc.space.points, doc.space.weights)):
        comma = "," if i + 1 < doc.space.n else ""
        lines.append(f'    {{"id": {json.dumps(pid)}, "p": {_fmt(w)}}}{comma}')
    lines.append("  ],")
    lines.append(f'  "reference_pair": {json.dumps(list(doc.pair_names))},')
    lines.append('  "variables": {')
    var_items = sorted(doc.variables.items())
    for i, (name, var) in enumerate(var_items):
        pairs = ", ".join(
            f"{json.dumps(p)}: {_fmt(v)}"
            for p, v in zip(doc.space.points, var.values)
        )
        comma = "," if i + 1 < len(var_items) else ""
        lines.append(f"    {json.dumps(name)}: {{{pairs}}}{comma}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_model(doc: ModelDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(doc))


def generate_kq(q: float) -> ModelDocument:
    """The bundled four-point model: weights (q, (1-2q)/2, q, (1-2q)/2), both
    variables dichotomous at +1/-1, all two- and three-point subsets plus the
    full space pre-declared as contexts."""
    if not (0.0 < q < 0.5):
        raise QOutOfRange(f"q={q!r} must lie strictly between 0 and 1/2")
    half_rest = (1.0 - 2.0 * q) / 2.0
    points = ("w1", "w2", "w3", "w4")
    weights = (q, half_rest, q, half_rest)
    space = FiniteKolmogorovSpace(points, weights)
    variables = {
        "a": RandomVariable("a", (1.0, 1.0, -1.0, -1.0)),
        "b": RandomVariable("b", (1.0, -1.0, -1.0, 1.0)),
    }
    contexts: dict[str, Event] = {}
    names = [1, 2, 3, 4]
    for size in (2, 3):
        for combo in itertools.combinations(names, size):
            label = "C" + "".join(str(i) for i in combo)
            contexts[label] = space.event([f"w{i}" for i in combo])
    contexts["Omega"] = space.full_event()
    return ModelDocument(space, variables, contexts, ("a", "b"))


def _doubly_stochastic_matrix(rng, k: int):
    """Random doubly stochastic matrix with strictly positive entries, as a
    convex combination of permutation matrices plus a uniform floor; ``rng``
    is a ``numpy.random.Generator``."""
    import numpy as np

    perms = [rng.permutation(k) for _ in range(k * k)]
    coeff = rng.dirichlet(np.ones(len(perms)))
    m = np.zeros((k, k))
    for c, perm in zip(coeff, perms):
        for i, j in enumerate(perm):
            m[i, j] += c
    uniform = np.full((k, k), 1.0 / k)
    return 0.9 * m + 0.1 * uniform


def generate_random_model(
    seed: int,
    n_points: int,
    value_arities: tuple[int, int] = (2, 2),
    double_stochastic: bool | None = None,
    incompatible: bool = True,
    n_contexts: int = 8,
    max_retries: int = 200,
) -> ModelDocument:
    """Seed-deterministic random model meeting the requested constraints.

    ``double_stochastic`` constrains the transition matrix conditioned on the
    first variable: True forces it, False forbids it, None leaves it free.
    ``incompatible`` keeps every joint cell of the two partitions populated;
    without it a joint cell holds only the points sprinkled into it, so it
    may be empty and the pair compatible.
    """
    ka, kb = value_arities
    if min(ka, kb) < 2:
        raise ValueError("each reference variable needs at least two values")
    if incompatible and n_points < ka * kb:
        raise ValueError("need at least one point per joint cell")
    if not incompatible and n_points < max(ka, kb):
        raise ValueError("too few points for the requested arities")
    if n_contexts < 0:
        raise ValueError(f"the context count must be nonnegative, got {n_contexts}")
    import numpy as np

    rng = np.random.default_rng(seed)

    for _ in range(max_retries):
        if double_stochastic:
            t = _doubly_stochastic_matrix(rng, ka)
            row_mass = rng.dirichlet(np.ones(ka) * 5.0)
            cell_mass = row_mass[:, None] * t
        else:
            cell_mass = rng.dirichlet(np.ones(ka * kb) * 2.0).reshape(ka, kb)
        if np.min(cell_mass) < CELL_MASS_FLOOR:
            continue

        # seeded points in (a, b)-major order fix the value ordering: one
        # per joint cell, or without incompatibility one per value along
        # the diagonal; extra points are sprinkled over the cells afterwards
        if incompatible:
            cell_of_point = [(y, x) for y in range(ka) for x in range(kb)]
        else:
            cell_of_point = [
                (min(k, ka - 1), min(k, kb - 1)) for k in range(max(ka, kb))
            ]
        for _ in range(n_points - len(cell_of_point)):
            cell_of_point.append(
                (int(rng.integers(ka)), int(rng.integers(kb)))
            )
        splits: dict[tuple[int, int], list[int]] = {}
        for idx, cell in enumerate(cell_of_point):
            splits.setdefault(cell, []).append(idx)
        weights = np.empty(len(cell_of_point))
        for cell, point_ids in splits.items():
            parts = rng.dirichlet(np.ones(len(point_ids)) * 3.0)
            mass = cell_mass[cell[0], cell[1]]
            for pid, frac in zip(point_ids, parts):
                weights[pid] = mass * frac
        weights = weights / weights.sum()
        if np.min(weights) <= POINT_WEIGHT_FLOOR:
            continue

        points = tuple(f"w{i + 1}" for i in range(len(cell_of_point)))
        a_levels = tuple(np.linspace(1.0, -1.0, ka))
        b_levels = tuple(np.linspace(1.0, -1.0, kb))
        a_vals = tuple(float(a_levels[c[0]]) for c in cell_of_point)
        b_vals = tuple(float(b_levels[c[1]]) for c in cell_of_point)
        space = FiniteKolmogorovSpace(points, tuple(float(w) for w in weights))
        variables = {
            "a": RandomVariable("a", a_vals),
            "b": RandomVariable("b", b_vals),
        }
        pair = ReferencePair.from_variables(space, variables["a"], variables["b"])

        if incompatible and not are_incompatible(space, pair):
            continue
        ds = transition_matrix(space, pair, "b/a").double_stochastic
        if double_stochastic is True and not ds:
            continue
        if double_stochastic is False and ds:
            continue

        contexts: dict[str, Event] = {"Omega": space.full_event()}
        for ci in range(n_contexts):
            size = int(rng.integers(2, len(points) + 1))
            chosen = rng.choice(len(points), size=size, replace=False)
            contexts[f"S{ci}"] = space.event_from_indices(int(i) for i in chosen)
        return ModelDocument(space, variables, contexts, ("a", "b"))

    raise ConstraintUnsatisfiable(
        f"no model met the constraints within {max_retries} attempts"
    )
