"""Frozen records: the immutable node classes of terms, values, surface syntax
and the elaborator's small structures.

A record class lists its fields as annotations, in order; trailing ones may
have a default:

    class EPi(ExtTerm):
        name: str
        dom: ExtTerm
        cod: ExtTerm
        span: Span = field(default=None, compare=False)

It gets `__init__`, `__eq__`, `__hash__`, `__repr__`, `__match_args__` and a
frozen `__setattr__`/`__delattr__` that behave as `@dataclass(frozen=True)`'s:
equality and hashing read the tuple of the fields not marked
`compare=False`, and `repr` shows every field. A `__post_init__` runs after
the fields are set; methods the class defines itself are kept. `_fields` is
the tuple of field names, `_compared` that of the compared ones.

No source is generated. Each class gets `__slots__` for its own fields (a
class that caches on its instances adds a named slot, which the cache sets
with `object.__setattr__`). `__init__` is a closure for the class's number
of fields that sets each slot through its member descriptor, with its
parameters renamed to the field names: Python binds keywords and defaults
and rejects a wrong call itself, and the common call, every field
positional, does no more than set the slots.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class field:
    """A field's default and whether equality and hashing read it."""

    __slots__ = ("default", "compare")

    def __init__(self, *, default=_MISSING, compare: bool = True):
        self.default = default
        self.compare = compare


# `__init__` templates by number of fields; the setters are the member
# descriptors' `__set__`, one per field in order
def _init0():
    def __init__(self):
        pass
    return __init__


def _init1(s0):
    def __init__(self, a):
        s0(self, a)
    return __init__


def _init2(s0, s1):
    def __init__(self, a, b):
        s0(self, a)
        s1(self, b)
    return __init__


def _init3(s0, s1, s2):
    def __init__(self, a, b, c):
        s0(self, a)
        s1(self, b)
        s2(self, c)
    return __init__


def _init4(s0, s1, s2, s3):
    def __init__(self, a, b, c, d):
        s0(self, a)
        s1(self, b)
        s2(self, c)
        s3(self, d)
    return __init__


def _init5(s0, s1, s2, s3, s4):
    def __init__(self, a, b, c, d, e):
        s0(self, a)
        s1(self, b)
        s2(self, c)
        s3(self, d)
        s4(self, e)
    return __init__


def _init6(s0, s1, s2, s3, s4, s5):
    def __init__(self, a, b, c, d, e, f):
        s0(self, a)
        s1(self, b)
        s2(self, c)
        s3(self, d)
        s4(self, e)
        s5(self, f)
    return __init__


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5, _init6)


def _make_init(cls, fields: tuple, defaults: tuple):
    init = _INITS[len(fields)](*(getattr(cls, n).__set__ for n in fields))
    init.__code__ = init.__code__.replace(co_varnames=("self",) + fields)
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    post = getattr(cls, "__post_init__", None)
    if post is None:
        return init

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        post(self)

    return __init__


def _tuple_getter(names: tuple):
    """The function from a record to the tuple of its fields `names`."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda r: (get(r),)
    return lambda r: ()


class RecordType(type):
    """Reads a record class's fields off its annotations before the class
    exists, because `__slots__` cannot be added afterwards."""

    def __new__(mcs, name, bases, ns):
        own = tuple(ns.get("__annotations__", ()))
        specs = [ns.pop(n, _MISSING) for n in own]
        specs = [s if isinstance(s, field) else field(default=s) for s in specs]
        ns["__slots__"] = own + tuple(ns.get("__slots__", ()))
        base = next((b for b in bases if isinstance(b, RecordType)), None)
        fields = (base._fields if base else ()) + own
        compared = (base._compared if base else ()) + tuple(n for n, s in zip(own, specs) if s.compare)
        defaults = (base._defaults if base else ()) + tuple(s.default for s in specs if s.default is not _MISSING)
        required = [s.default is _MISSING for s in specs]
        if required != sorted(required, reverse=True) or any(required) and base and base._defaults:
            raise TypeError(f"{name}: a field without a default follows one with a default")
        ns.update(
            _fields=fields, _compared=compared, _defaults=defaults, __match_args__=fields,
            _key=staticmethod(_tuple_getter(compared)),
        )
        cls = super().__new__(mcs, name, bases, ns)
        if "__init__" not in ns:
            cls.__init__ = _make_init(cls, fields, defaults)
        return cls


class Record(metaclass=RecordType):
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
