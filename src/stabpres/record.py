"""The immutable record that every stabpres result type is built on.

A record's fields are its constructor's parameters, in order.  The
constructor checks its arguments and stores each field with
`self._set(name, value)`.  Two records are equal when they are of the
same class with equal fields; a record hashes as the tuple of its
fields and shows as `Name(field=value, ...)`.  Assigning or deleting an
attribute raises AttributeError, so a changed copy is made with the
constructor.  A record type lists its fields in `__slots__`, unless it
caches values with `functools.cached_property`, which needs an instance
`__dict__`.
"""


class Record:
    __slots__ = ()
    _set = object.__setattr__  # stores a field past the guard; for constructors only
    _hidden = ()  # the fields the repr leaves out

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self):
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
