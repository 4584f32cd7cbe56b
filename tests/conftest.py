"""Shared fixtures: the music walkthrough bundle shipped under data/; the
check of the record semantics every immutable record class keeps; and the
one Hypothesis profile of the suite."""

from __future__ import annotations

import copy
from pathlib import Path

import pytest
from hypothesis import settings

from entres.cli import ingest
from entres.model import Constant, Kind, Record
from entres.rules import load_spec
from entres.simkit import SimTable, TableResolver

ROOT = Path(__file__).resolve().parent.parent
MUSIC = ROOT / "data" / "music"

# every run draws the same examples and writes no example database
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def e(text: str) -> Constant:
    return Constant(Kind.ENTITY, text)


def v(text: str) -> Constant:
    return Constant(Kind.VALUE, text)


def check_record(make, field: str, value) -> None:
    """make() builds a new record, equal to the one before; field names
    one of its fields and value is a different value for it."""
    a, b = make(), make()
    cls = type(a)
    values = tuple(getattr(a, f) for f in cls.__slots__)
    assert a is not b and a == b and not a != b
    try:
        hash(values)
    except TypeError:  # a field holds a dict or a list
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    # never equal to another class's instance or a tuple of the same values
    twin_cls = type(cls.__name__, (Record,), {"__slots__": cls.__slots__})
    twin = twin_cls(*values)
    assert a != twin and twin != a and not a == twin
    assert a != values and values != a
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    changed = a.replace(**{field: value})
    assert type(changed) is cls and getattr(changed, field) == value
    assert changed != a and a == b
    for f in cls.__slots__:
        if f != field:
            assert getattr(changed, f) is getattr(a, f)
    assert a.replace() == a and copy.copy(a) == a
    with pytest.raises(TypeError):
        a.replace(no_such_field=value)


@pytest.fixture(scope="session")
def music_dir() -> Path:
    return MUSIC


@pytest.fixture(scope="session")
def music_spec():
    return load_spec(str(MUSIC / "music.er"))


@pytest.fixture(scope="session")
def music_db(music_spec):
    return ingest(str(MUSIC), music_spec.schema)


@pytest.fixture(scope="session")
def music_table():
    return SimTable.load(str(MUSIC / "simtable.tsv"))


@pytest.fixture(scope="session")
def music_sims(music_table):
    return TableResolver(music_table)
