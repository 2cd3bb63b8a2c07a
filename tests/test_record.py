"""Every frozen dataclass in mapcoach is a `record`: frozen, slotted, without
a per-instance `__dict__`, and built by an `__init__` that takes the same
arguments, keeps the same defaults and raises the same errors as the one
`dataclass` would generate."""

import importlib
import inspect
import pkgutil
from dataclasses import MISSING, FrozenInstanceError, field, fields, is_dataclass, make_dataclass, replace

import pytest

import mapcoach
from mapcoach.engine import EngineConfig
from mapcoach.simulate import DurationModel, StudentProfile, bundled_profiles


def _dataclasses():
    found = {}
    for info in pkgutil.iter_modules(mapcoach.__path__):
        module = importlib.import_module(f"mapcoach.{info.name}")
        found.update((f"{module.__name__}.{name}", cls) for name, cls in vars(module).items()
                     if isinstance(cls, type) and is_dataclass(cls)
                     and cls.__module__ == module.__name__)
    return found


RECORDS = {name: cls for name, cls in sorted(_dataclasses().items())
           if cls.__dataclass_params__.frozen}

# classes whose __post_init__ rejects arbitrary field values
VALID = {
    EngineConfig: EngineConfig,
    DurationModel: lambda: DurationModel(4.0, 1.5),
    StudentProfile: lambda: bundled_profiles()["high"],
}


def _arguments(cls):
    """Positional values for every field of cls: a valid instance's where
    __post_init__ checks them, otherwise one distinct string per field."""
    if cls in VALID:
        instance = VALID[cls]()
        return [getattr(instance, f.name) for f in fields(cls)]
    return [f"{f.name}-value" for f in fields(cls)]


def _twin(cls):
    """The plain frozen dataclass with cls's name and fields."""
    spec = []
    for f in fields(cls):
        if f.default is not MISSING:
            spec.append((f.name, f.type, field(default=f.default)))
        elif f.default_factory is not MISSING:
            spec.append((f.name, f.type, field(default_factory=f.default_factory)))
        else:
            spec.append((f.name, f.type))
    return make_dataclass(cls.__name__, spec, frozen=True)


def _type_error(call):
    with pytest.raises(TypeError) as err:
        call()
    return str(err.value)


def test_every_frozen_dataclass_is_a_slotted_record():
    """One construction path: each frozen dataclass is slotted and keeps the
    __init__ that `record` compiles, not one `dataclass` generated."""
    assert len(RECORDS) >= 33, sorted(RECORDS)
    not_records = [name for name, cls in RECORDS.items()
                   if "__slots__" not in vars(cls) or cls.__dataclass_params__.init
                   or "__init__" not in vars(cls)]
    assert not_records == []


ids = list(RECORDS)
classes = list(RECORDS.values())


@pytest.mark.parametrize("cls", classes, ids=ids)
class TestRecordContract:
    def test_assignment_raises_frozen_instance_error(self, cls):
        instance = cls(*_arguments(cls))
        name = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(instance, name, "other")
        with pytest.raises(FrozenInstanceError):
            delattr(instance, name)
        with pytest.raises(FrozenInstanceError):
            instance.not_a_field = 1

    def test_has_no_instance_dict(self, cls):
        instance = cls(*_arguments(cls))
        assert not hasattr(instance, "__dict__")
        assert cls.__slots__ == tuple(f.name for f in fields(cls))

    def test_signature_matches_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in fields(cls)]
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        for p, f in zip(params, fields(cls)):
            if f.default is not MISSING:
                assert p.default is f.default
            elif f.default_factory is not MISSING:
                assert repr(p.default) == "<factory>"
            else:
                assert p.default is inspect.Parameter.empty

    def test_positional_and_keyword_construction_agree(self, cls):
        values = _arguments(cls)
        by_position = cls(*values)
        by_keyword = cls(**{f.name: v for f, v in zip(fields(cls), values)})
        assert by_position == by_keyword
        assert [getattr(by_position, f.name) for f in fields(cls)] == values

    def test_replace_round_trips(self, cls):
        instance = cls(*_arguments(cls))
        again = replace(instance)
        assert type(again) is cls and again == instance
        assert all(getattr(again, f.name) is getattr(instance, f.name) for f in fields(cls))

    def test_repr_names_every_field(self, cls):
        instance = cls(*_arguments(cls))
        assert repr(instance).startswith(f"{cls.__qualname__}(")
        assert repr(instance) == repr(_twin(cls)(*_arguments(cls)))

    def test_bad_arguments_raise_the_dataclass_type_error(self, cls):
        twin = _twin(cls)
        values = _arguments(cls)
        calls = [lambda c: c(*values, "one too many"),
                 lambda c: c(*values, not_a_field=1),
                 lambda c: c(*values, **{fields(cls)[0].name: values[0]})]
        if any(f.default is MISSING and f.default_factory is MISSING for f in fields(cls)):
            calls.append(lambda c: c())
        for call in calls:
            assert _type_error(lambda: call(cls)) == _type_error(lambda: call(twin))


def test_post_init_checks_still_raise():
    with pytest.raises(ValueError, match="^min_inter_scaffold_seconds must be positive$"):
        EngineConfig(min_inter_scaffold_seconds=0)
    with pytest.raises(ValueError, match="^durations need positive mean and non-negative spread$"):
        DurationModel(0, 1)
    with pytest.raises(ValueError, match=r"^read_effectiveness=2 outside \[0, 1\]$"):
        replace(bundled_profiles()["high"], read_effectiveness=2)

