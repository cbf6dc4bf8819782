"""Record, the base of the package's immutable value types.

A subclass names its fields, in order, as ``__slots__`` and sets each one
in an explicit ``__init__`` through ``object.__setattr__``.  Record gives
it equality and hashing on the tuple of field values (objects of
different classes never compare equal), a ``Name(field=value, ...)``
repr, and pickling through the constructor; assigning or deleting an
attribute raises AttributeError.  This is what ``@dataclass(frozen=True)``
gave, but a class statement generates no code, so a fresh process pays
neither the decorator's code generation nor the import of ``dataclasses``
and ``inspect``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
