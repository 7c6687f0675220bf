"""The one base of the package's immutable value types.

A subclass names its compared and shown fields in `_fields`, and lists them
plus any cache in `__slots__`. Each slot is set once, through `setfield`;
then assignment and deletion raise AttributeError. Equality, hashing and repr
go field by field, so a cache takes part in none of them. A subclass with
checks or defaults writes its own `__init__`.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            setfield(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        """Every set slot, caches too: copy and pickle (any protocol) use it."""
        slots = (name for cls in type(self).__mro__ for name in cls.__dict__.get("__slots__", ()))
        return {name: getattr(self, name) for name in slots if hasattr(self, name)}

    def __setstate__(self, state: dict):
        for name, value in state.items():
            setfield(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
