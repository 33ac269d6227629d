"""Differential tests: the value records against ``@dataclass(frozen=True)``.

The records of ``corpus``, ``disagreement`` and ``analysis``, and the
gain scheme and discount of ``metrics``, derive from ``corpus._Frozen``
in place of the dataclass decorator.  Each is checked
against a twin built here with ``@dataclass(frozen=True)`` from the same
annotations, defaults and ``__post_init__``: construction outcomes
(``ValidationError`` messages included), equality, hashing, ``repr``,
immutability, argument errors, ``_replace`` against
``dataclasses.replace``, and ``DisagreementTable.with_override`` against
the ``dataclasses.replace`` version it replaced.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmeval.analysis import SystemRanking
from prmeval.corpus import (
    Judgment, JudgmentPair, PairingResult, RelevanceScale, RunEntry, _Frozen,
)
from prmeval.disagreement import (
    BootstrapResult, DisagreementCell, DisagreementTable, LevelSeries, SensitivityCurve, UserModel,
)
from prmeval.errors import ValidationError
from prmeval.metrics import DiscountFunction, GainScheme


def _twin(cls: type) -> type:
    """``cls`` rebuilt as a frozen dataclass from its own annotations,
    class-attribute defaults and ``__post_init__``."""
    ns = {"__annotations__": dict(cls.__annotations__), "__module__": cls.__module__}
    ns.update({f: cls.__dict__[f] for f in cls.__annotations__ if f in cls.__dict__})
    if "__post_init__" in cls.__dict__:
        ns["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


def _outcome(make):
    """The record ``make()`` builds, or the type and message of its error."""
    try:
        return "ok", make()
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc)


# -- field values, valid or not, for each record ------------------------------------

text = st.text("abc ", max_size=3)
small = st.integers(-2, 5)
real = st.floats(-0.5, 1.5, allow_nan=False)
maybe_real = st.none() | real
scales = st.lists(text, min_size=0, max_size=4).map(tuple)
valid_scales = st.lists(
    st.text("abcxyz", min_size=1, max_size=3), min_size=2, max_size=4, unique=True,
).map(lambda labels: RelevanceScale(tuple(labels)))
sources = st.sampled_from(["estimated", "override", "bogus"])
# a valid cell's sigma is None or finite and not negative
sigmas = st.none() | st.floats(0.0, 1.5)
cells = st.builds(
    lambda level, n, sigma: DisagreementCell(level, n, n, 1.0 if n else None, sigma),
    st.integers(0, 4), st.integers(0, 3), sigmas,
)
# cells at levels 0, 1, ... (a table of the right length is valid), or anywhere
table_cells = st.lists(st.tuples(st.integers(0, 3), sigmas), max_size=4).map(
    lambda xs: tuple(
        DisagreementCell(i, n, n, 1.0 if n else None, s) for i, (n, s) in enumerate(xs)
    )
) | st.lists(cells, max_size=4).map(tuple)
series = st.builds(
    LevelSeries, small, st.lists(maybe_real, max_size=3).map(tuple),
    st.lists(maybe_real, max_size=3).map(tuple), st.lists(small, max_size=3).map(tuple),
)

FIELDS = {
    RelevanceScale: st.tuples(scales),
    Judgment: st.tuples(text, text, small, st.none() | text),
    JudgmentPair: st.tuples(text, text, small, small),
    PairingResult: st.tuples(st.lists(small, max_size=3).map(tuple), small, small),
    RunEntry: st.tuples(text, text, small, real),
    UserModel: st.tuples(small),
    DisagreementCell: st.tuples(small, small, small, maybe_real, maybe_real, sources),
    DisagreementTable: st.tuples(
        valid_scales, small, table_cells, text,
        st.none() | st.sampled_from(["u1", "u2"]),
    ),
    LevelSeries: st.tuples(
        small, st.lists(maybe_real, max_size=3).map(tuple),
        st.lists(maybe_real, max_size=3).map(tuple), st.lists(small, max_size=3).map(tuple),
    ),
    SensitivityCurve: st.tuples(
        text, st.lists(small, max_size=3).map(tuple), st.lists(series, max_size=2).map(tuple),
    ),
    SystemRanking: st.tuples(
        text, st.lists(st.tuples(st.sampled_from("abc"), real), max_size=3).map(tuple),
    ),
    BootstrapResult: st.tuples(small, st.lists(real, max_size=4).map(tuple), small),
    GainScheme: st.tuples(text, st.lists(real | st.just(math.inf), max_size=4).map(tuple)),
    DiscountFunction: st.tuples(
        st.sampled_from(["log", "zipf", "bogus"]), st.floats(0.5, 3.0) | st.just(math.inf),
    ),
}
RECORDS = list(FIELDS)
TWINS = {cls: _twin(cls) for cls in RECORDS}


def test_every_record_is_covered():
    assert set(_Frozen.__subclasses__()) == set(RECORDS)
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    twin = TWINS[cls]
    fields = [f.name for f in dataclasses.fields(twin)]
    assert cls._fields == tuple(fields)
    values = data.draw(FIELDS[cls])
    # leave out trailing defaults now and then, as callers do
    n_defaults = sum(f.default is not dataclasses.MISSING for f in dataclasses.fields(twin))
    args = values[: len(values) - data.draw(st.integers(0, n_defaults))]
    kwargs = dict(zip(fields, args))

    for make in (lambda c: c(*args), lambda c: c(**kwargs)):
        got, want = _outcome(lambda: make(cls)), _outcome(lambda: make(twin))
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got[1] == want[1]
    if got[0] != "ok":
        return
    ours, theirs = got[1], want[1]

    assert ours == cls(*args) and not ours != cls(**kwargs)
    assert ours != theirs and theirs != ours
    assert ours.__eq__(theirs) is NotImplemented
    assert ours != values and ours != dict(kwargs)
    assert _outcome(lambda: hash(ours)) == _outcome(lambda: hash(theirs))
    assert repr(ours) == repr(theirs)
    assert [getattr(ours, f) for f in fields] == [getattr(theirs, f) for f in fields]
    # a record of another class with the same field values is not equal
    for other_cls in RECORDS:
        built = _outcome(lambda: other_cls(*args))
        if other_cls is not cls and built[0] == "ok":
            assert ours != built[1] and not built[1] == ours

    # against another record of the same class
    other = data.draw(FIELDS[cls])
    built = _outcome(lambda: (cls(*other), twin(*other)))
    if built[0] == "ok":
        o_ours, o_theirs = built[1]
        assert (ours == o_ours) == (theirs == o_theirs)
        assert (ours != o_ours) == (theirs != o_theirs)

    # _replace checks the changed copy as dataclasses.replace does
    field = data.draw(st.sampled_from(fields))
    change = {field: other[fields.index(field)]}
    got = _outcome(lambda: repr(ours._replace(**change)))
    assert got == _outcome(lambda: repr(dataclasses.replace(theirs, **change)))
    if got[0] == "ok":
        assert ours._replace(**change) == cls(**{**kwargs, **change})
        assert ours._replace() == ours


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_records_are_immutable(cls, data):
    values = data.draw(FIELDS[cls])
    try:
        record = cls(*values)
    except ValidationError:
        return
    before = repr(record)
    for name in (*cls._fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_argument_errors_are_type_errors(cls):
    twin = TWINS[cls]
    fields = cls._fields
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    values = list(range(len(fields)))
    calls = [
        ((), {}),                                               # nothing given
        (tuple(values[: len(required) - 1]), {}),               # one required missing
        (tuple(values), {"nope": 1}),                           # unknown keyword
        (tuple(values), {fields[0]: 1}),                        # repeated argument
        (tuple(values) + (0,), {}),                             # one positional too many
        ((), {f: v for f, v in zip(fields[1:], values[1:])}),   # first field missing
    ]
    for args, kwargs in calls:
        for c in (cls, twin):
            with pytest.raises(TypeError):
                c(*args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(
    scale=valid_scales, data=st.data(), p=st.floats(-0.5, 1.5, allow_nan=False),
    condition=st.none() | st.sampled_from(["u1", "u2"]),
)
def test_with_override_matches_dataclasses_replace(scale, data, p, condition):
    T = scale.top_index
    theta = data.draw(st.integers(1, T))
    counts = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                min_size=T + 1, max_size=T + 1))
    level = data.draw(st.integers(-1, T + 1))
    args = [
        (i, m, m + n, m / (m + n) if m + n else None,
         math.sqrt(m * n / (m + n) ** 3) if m + n else None)
        for i, (m, n) in enumerate(counts)
    ]
    table = DisagreementTable(
        scale, theta, tuple(DisagreementCell(*a) for a in args), "symmetric", condition,
    )
    Cell, Table = TWINS[DisagreementCell], TWINS[DisagreementTable]
    twin = Table(scale, theta, tuple(Cell(*a) for a in args), "symmetric", condition)

    def old_with_override(self, level, p):
        self.scale.check_level(level)
        cells = list(self.cells)
        cells[level] = dataclasses.replace(cells[level], p=float(p), sigma=None, source="override")
        return dataclasses.replace(self, cells=tuple(cells))

    got = _outcome(lambda: repr(table.with_override(level, p)))
    assert got == _outcome(lambda: repr(old_with_override(twin, level, p)))
    if got[0] == "ok":
        pinned = table.with_override(level, p)
        assert pinned.cells[level] == DisagreementCell(
            level, args[level][1], args[level][2], float(p), None, "override"
        )
        assert hash(pinned) == hash(tuple(getattr(pinned, f) for f in pinned._fields))


def test_cached_summaries_leave_the_record_unchanged():
    result = BootstrapResult(1, (0.25, 0.5, 0.75), 2)
    twin = TWINS[BootstrapResult](1, (0.25, 0.5, 0.75), 2)
    before = hash(result), repr(result)
    assert result.mean == 0.5 and result.quartiles == (0.25, 0.375, 0.5, 0.625, 0.75)
    assert (hash(result), repr(result)) == before == (hash(twin), repr(twin))
    assert result == BootstrapResult(1, (0.25, 0.5, 0.75), 2)
