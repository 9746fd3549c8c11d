"""Immutable value records built from plain methods.

The package's value types (matrices, subspaces, flags, decompositions,
verified pairs, sequence classes, ...) are frozen records that compare
and hash by value, and pickle and deep-copy by their fields.  They
share the plain methods below instead of methods generated and compiled
per class, which keeps importing the package, and so starting every
command, cheap.

Six records check their fields: ``ExactMatrix``, ``Subspace``, ``Flag``,
``Decomposition``, ``ChevalleyBasis`` and ``KrawtchoukParameters``
define ``_validate``, which their public constructor calls, also when a
copy or an unpickled record is built.  The others bind their fields
unchecked.  In particular a ``LeonardPair`` is verified only as
``verify_leonard`` returns it: ``LeonardPair(...)``, ``swapped()`` and
unpickling bind a pair without a check.  ``_derived`` binds without the
check, and builds only records derived from checked ones: the rows of
``Subspace.span``, canonical by elimination; each eigenline of
``simple_rational_eigen``, whose first nonzero entry is 1 by
construction, the reduced form of a line; ``induced_flag``'s partial
sums of a direct sum of n lines; ``Decomposition.inversion``; and the
primary standard decomposition, eigenlines of distinct eigenvalues.
"""

from __future__ import annotations

_bind = object.__setattr__


class Record:
    """Frozen record whose fields are the subclass's ``__slots__``, in order.

    Trailing fields may take defaults from the class mapping
    ``_defaults``.  The constructor binds positional and keyword
    arguments to the fields in order and then calls ``_validate``, where a
    subclass checks its fields and may normalize one by rebinding it with
    ``object.__setattr__``.  Records are equal when they have the same
    class and equal field values, and hash by their field values.  A
    record pickles and copies as its class and field values, so the copy
    is built, and checked, by the public constructor.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields but {len(args)} were given"
            )
        for name, value in zip(names, args):
            _bind(self, name, value)
        if kwargs or len(args) < len(names):
            for name in names[len(args):]:
                if name in kwargs:
                    _bind(self, name, kwargs.pop(name))
                elif name in self._defaults:
                    _bind(self, name, self._defaults[name])
                else:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            if kwargs:
                raise TypeError(
                    f"{type(self).__name__} got unknown or repeated fields "
                    + ", ".join(map(repr, kwargs))
                )
        self._validate()

    @classmethod
    def _derived(cls, *values):
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _bind(self, name, value)
        return self

    def _validate(self) -> None:
        """Check the bound fields; a subclass overrides this to validate."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()
