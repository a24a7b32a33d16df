"""The package's shared exceptions, record base and message helper."""


class GeometryError(ValueError):
    """A numerical precondition of a geometric operation is violated."""


class SingularMatrixError(GeometryError):
    """A linear system has no unique solution."""


class NotContractibleError(GeometryError):
    """A curve configuration fails the negative-definiteness criterion."""


class LerayHypothesisError(GeometryError):
    """The vanishing pipeline's relative-nefness hypothesis fails."""


class ScenarioError(ValueError):
    """A scenario file is malformed or references unknown names."""


def _shown(x: object, show=repr) -> str:
    """show(x), or its type for an int past the interpreter's int-to-str
    digit limit (or a value holding one), which neither repr nor str writes."""
    try:
        return show(x)
    except ValueError:
        return f"<{type(x).__name__} too large to print>"


class _Record:
    """``==`` field by field between records of one type, and the repr
    ``Name(field=value, ...)``, over the names in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A `_Record` whose fields are set once (by ``__init__``, a copy or an
    unpickling), never deleted and hashed; its other slots are ordinary."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        if name in self._fields and hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
