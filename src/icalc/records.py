"""Record, the base of icalc's immutable value classes.

A subclass names its fields in ``__slots__``, and may set ``_defaults``
(field name to default value) and ``_uncompared`` (fields that equality
and hashing leave out).  It gets positional and keyword construction,
structural ``==`` and ``hash`` over the fields, a ``Name(field=value)``
repr, pickling, and AttributeError on assignment.  Unlike a dataclass,
nothing is generated per class, which keeps ``import icalc`` cheap; new
value classes derive from Record.  A class whose slots also hold derived
state lists its fields in ``_fields`` and writes its own ``__init__``.
"""


class Record:
    __slots__ = ()
    _defaults = {}
    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__dict__.get("_fields", cls.__dict__["__slots__"])
        cls._compared = tuple(f for f in fields if f not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated fields {sorted(kwargs)}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable; cannot delete {name!r}")
