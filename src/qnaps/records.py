"""Record types: classes whose annotated attributes are their fields.

A subclass of Record or FrozenRecord lists its fields as annotated class
attributes, in order; every annotation is a field. The class attribute
is the field's default, or a Field for a default factory, a config key
other than the field's name, or a field that repr and equality leave
out. The base classes hold one __init__, __repr__ and __eq__ shared by
every record, so defining one compiles no code:

- __init__ takes the fields by position or keyword, fills the rest from
  their defaults (a factory makes a fresh object per instance) and then
  calls the class's __post_init__; a class may define its own __init__.
- __repr__ reads ``QualName(field=value, ...)`` in field order.
- __eq__ holds only between records of the same type.

A Record is mutable and unhashable. A FrozenRecord refuses assignment and
deletion with AttributeError and hashes its compared fields; a
__post_init__ that sets a field uses object.__setattr__. fields() and
replace() work as dataclasses' functions of those names do.
"""

from __future__ import annotations

MISSING = object()  # a field without a default


class Field:
    """One field: its name, its annotation as written, its default or
    default factory, its config key (the name, unless given) and whether
    repr and equality see it."""

    __slots__ = ("name", "type", "default", "factory", "key", "shown")

    def __init__(self, *, default=MISSING, factory=None, key=None, hidden=False):
        self.default, self.factory, self.key, self.shown = default, factory, key, not hidden

    @property
    def required(self) -> bool:
        return self.default is MISSING and self.factory is None


class Record:
    """Base of the mutable records."""

    _fields = ()  # every Field, in order
    _names = ()  # their names
    _shown = ()  # the names repr, equality and hashing see

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = []
        for name, annotation in cls.__annotations__.items():
            f = cls.__dict__.get(name, MISSING)
            if not isinstance(f, Field):
                f = Field(default=f)
            f.name, f.type, f.key = name, annotation, f.key or name
            if f.default is MISSING:
                if name in cls.__dict__:
                    delattr(cls, name)
            else:
                setattr(cls, name, f.default)
            own.append(f)
        cls._fields = cls._fields + tuple(own)
        cls._names = tuple(f.name for f in cls._fields)
        cls._shown = tuple(f.name for f in cls._fields if f.shown)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._names):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(self._names, args))
        self.__post_init__()

    def _complete(self, args, kwargs) -> list:
        """Every field's value, in order, from the arguments and defaults."""
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments but {len(args)} were given")
        values = list(args)
        for f in self._fields[len(args):]:
            if f.name in kwargs:
                values.append(kwargs.pop(f.name))
            elif f.factory is not None:
                values.append(f.factory())
            elif f.default is not MISSING:
                values.append(f.default)
            else:
                raise TypeError(f"{name}() missing required argument {f.name!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    def _compared(self) -> tuple:
        return tuple(getattr(self, n) for n in self._shown)


class FrozenRecord(Record):
    """Base of the immutable, hashable records."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__qualname__}")

    def __hash__(self):
        return hash(self._compared())


def fields(record) -> tuple[Field, ...]:
    """The fields of a record or record class, in order."""
    return record._fields


def replace(record, **changes):
    """A new record of record's type with changes to some of its fields,
    built, and so checked, by the class's __init__."""
    return type(record)(**{**{n: getattr(record, n) for n in record._names}, **changes})
