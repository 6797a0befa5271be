"""Every field of every record is a fact some command reads.

The test wraps the field accessors of each record class of the package,
with ``monkeypatch``: each ``NamedTuple`` record, where for ``Event`` and
``HyperbolicNumber`` that is the tuple base holding their fields, and each
:class:`~contextprob.records.Record` subclass.  A tuple record's
``__iter__`` and ``__getitem__`` are wrapped too, so unpacking, indexing
and ``_asdict`` count as reads of the fields they reach.  The commands then
run in process on four models, and the test fails on a record class that no
command built, or on a field of one that no command read: such a field is a
fact stored for nothing, to delete or to put to use.  A tuple record's
equality and hashing compare its items without an accessor, so they count
as no read; a ``Record`` compares by the fields its ``_key`` reads through
their accessors.
"""

import importlib
import pkgutil
from pathlib import Path

import contextprob as cp
from contextprob import cli
from contextprob.records import Record

DATA = Path(__file__).resolve().parent / "data"
MODELS = ("atlas8", "random_ds_seed7", "random_3x3_seed4")
COMMANDS = (
    ["analyze"],
    ["represent"],
    ["represent", "--branch", "conjugate"],
    ["verify", "--suite", "all"],
)


def record_classes() -> dict[type, tuple[str, tuple[str, ...]]]:
    """``{owner: (label, fields)}``: the class that holds the accessors of
    each record's fields, with the record's name and its fields."""
    records = {}
    for info in pkgutil.iter_modules(cp.__path__):
        if info.name == "__main__":  # it runs the command line on import
            continue
        module = importlib.import_module(f"{cp.__name__}.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if issubclass(cls, tuple) and hasattr(cls, "_fields"):
                owner = next(c for c in cls.__mro__ if cls._fields[0] in vars(c))
            elif issubclass(cls, Record) and cls is not Record:
                owner = cls
            else:
                continue
            # a public subclass names the tuple base that holds its fields
            if owner not in records or not cls.__name__.startswith("_"):
                records[owner] = (cls.__name__, tuple(cls._fields))
    return records


class Watched:
    """A field accessor that notes each read in ``read``; ``inner`` is the
    accessor it wraps, or None for a field kept in the instance ``__dict__``."""

    def __init__(self, read: set, owner: type, name: str, inner):
        self.read, self.key, self.name, self.inner = read, (owner, name), name, inner

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        self.read.add(self.key)
        if self.inner is not None:
            return self.inner.__get__(obj, cls)
        try:
            return obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None

    def __set__(self, obj, value):
        if self.inner is None:
            obj.__dict__[self.name] = value
        else:
            self.inner.__set__(obj, value)


def watch(monkeypatch, owner: type, fields: tuple[str, ...], read: set, built: set):
    """Wrap the accessors of ``owner``'s fields, noting each read in
    ``read``, and its ``__init__``, noting each build in ``built``; a tuple
    record's ``__init__`` is ``object``'s, which ``type.__call__`` still
    calls after ``__new__``."""
    for name in fields:
        inner = vars(owner).get(name)
        watched = Watched(read, owner, name, inner)
        monkeypatch.setattr(owner, name, watched, raising=inner is not None)
    if issubclass(owner, tuple):
        def init(self, *args, **kwargs):
            built.add(owner)

        def iterate(self):
            read.update((owner, f) for f in fields)
            return tuple.__iter__(self)

        def getitem(self, key):
            picked = range(len(fields))[key]
            picked = picked if isinstance(picked, range) else (picked,)
            read.update((owner, fields[i]) for i in picked)
            return tuple.__getitem__(self, key)

        monkeypatch.setattr(owner, "__iter__", iterate)
        monkeypatch.setattr(owner, "__getitem__", getitem)
    else:
        original = owner.__init__

        def init(self, *args, **kwargs):
            built.add(owner)
            original(self, *args, **kwargs)

    monkeypatch.setattr(owner, "__init__", init)


def test_every_record_field_is_read(monkeypatch, tmp_path):
    kq = tmp_path / "kq_0.125.model.json"
    kq.write_text(cp.dumps_model(cp.generate_kq(0.125)))
    models = [kq, *(DATA / f"{name}.model.json" for name in MODELS)]
    records = record_classes()
    read, built = set(), set()
    for owner, (_, fields) in records.items():
        watch(monkeypatch, owner, fields, read, built)

    output = str(tmp_path / "report.json")
    for model in models:
        for command in COMMANDS:
            argv = [command[0], str(model), *command[1:], "--output", output]
            assert cli.main(argv) == 0, argv
    assert cli.main(["example", "kq", "--q", "0.125", "--output", output]) == 0

    unbuilt = sorted(
        label for owner, (label, _) in records.items() if owner not in built
    )
    unread = sorted(
        f"{label}.{field}"
        for owner, (label, fields) in records.items()
        if owner in built
        for field in fields
        if (owner, field) not in read
    )
    assert not unbuilt and not unread, f"never built {unbuilt}, never read {unread}"
