"""Exception hierarchy and value-class base shared by all modules.

The CLI maps these onto process exit codes: invalid parameters and parse
failures exit 2, cap violations exit 3, oracle mismatches exit 4.  Any
other exception, including a PrymAlgError of no listed kind, is a bug
and exits 5.
"""

from operator import attrgetter


class PrymAlgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(PrymAlgError):
    """A parameter or configuration violates a documented precondition."""


class ParseError(InvalidParameterError):
    """A text form (group literal, partition, monomial) failed to parse."""


class CapExceededError(PrymAlgError):
    """A computation exceeded a configured enumeration or size cap."""


class OracleMismatchError(PrymAlgError):
    """An independent cross-check disagreed with the closed-form value."""


class _Value:
    """Base of the package's value classes, in place of ``dataclasses``:
    importing that, with the ``inspect`` it pulls in, and building the
    classes took more than half of the time to import the CLI.

    A subclass declares ``__slots__`` and its own ``__init__``, which
    checks its arguments and then stores each field once.  Its fields are
    its slots, or the ``fields`` class keyword when some slots stay out of
    equality.  As for a frozen dataclass, ``==`` compares the
    fields of two instances of the same class (``NotImplemented`` for any
    other class), the hash is that of the tuple of fields, and the repr is
    ``Name(field=value, ...)``.  A one-field class compares its field
    directly rather than as a 1-tuple, which gives the same result for
    every field that compares equal to itself (its tuples and ints do).
    A frozen class refuses attribute assignment and deletion, so its
    ``__init__`` stores with ``object.__setattr__``; ``frozen=False``
    gives a mutable, unhashable record.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields=None, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__slots__ if fields is None else fields)
        # the field itself for one field, else the tuple of fields
        get = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        if len(fields) == 1:

            def __hash__(self):
                return hash((get(self),))

        else:

            def __hash__(self):
                return hash(get(self))

        def __repr__(self):
            return "%s(%s)" % (
                self.__class__.__qualname__,
                ", ".join("%s=%r" % (f, getattr(self, f)) for f in fields),
            )

        cls.__eq__ = __eq__
        cls.__repr__ = __repr__
        if frozen:
            cls.__hash__ = __hash__
        else:
            cls.__hash__ = None
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
