"""Bases for the package's value types: what @dataclass would generate for
them, without importing dataclasses (which loads inspect, ast, dis, tokenize
and copy, about half the package's import time).

Each subclass names its fields, in constructor order, in _fields and writes
its own __init__; a Frozen one sets them with object.__setattr__ or, on a hot
path (DetectionResult, built once per audited password), by writing its
instance __dict__.
"""

from __future__ import annotations


class Value:
    """Field-wise == within one class and the dataclass repr; unhashable,
    as a mutable value is."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """A Value that hashes over its fields and refuses assignment and
    deletion with AttributeError. functools.cached_property still works: it
    writes the instance __dict__ directly."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
