"""The base of the package's immutable record types."""

import sys

# The one way to write a field: a record's own __setattr__ refuses.
set_field = object.__setattr__


class _AsDataclass:
    """One of the two attributes by which `dataclasses` knows its classes, so
    that `dataclasses.replace`, `fields` and `asdict` work on records as they
    did when the records were dataclasses. A lookup builds a field-for-field
    dataclass twin with the module its caller loaded; the package itself
    never loads `dataclasses`."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        dataclasses = sys.modules.get("dataclasses")
        if dataclasses is None:
            raise AttributeError(self.name)
        return getattr(dataclasses.make_dataclass(cls.__name__, cls.__slots__), self.name)


class Record:
    """A value whose fields are its class's ``__slots__``, in order, each set
    once by ``__init__`` through :func:`set_field`. A record equals a record
    of the same class with equal fields, and no tuple or record of another
    class; it hashes by its fields and refuses assignment and deletion."""

    __slots__ = ()
    _defaults: dict = {}  # field name -> default, for the generic __init__
    __dataclass_fields__ = _AsDataclass()
    __dataclass_params__ = _AsDataclass()

    def __init__(self, *args, **kwargs):
        # Fields from args in order, then kwargs, then _defaults. A class
        # that checks its fields, or is built in a hot loop, writes its own.
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; "
                            f"got {len(args)} positional and {', '.join(kwargs) or 'no'} keyword")
        for name in names:
            set_field(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through __init__
        return type(self), self._values()

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change field {name!r}")

    __delattr__ = __setattr__
