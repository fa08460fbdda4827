"""Immutable value records, built without ``exec``.

``@dataclass(frozen=True)`` runs ``exec`` for six methods per class at every
import, bytecode cache or not; :func:`record` builds them from closures.
"""

from operator import attrgetter

_set = object.__setattr__


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` an immutable value type over its annotated fields, as a frozen dataclass.

    The fields are the class's annotations, in order; a class attribute of
    the same name is a default, and fields with defaults come last.  The
    class gets what it does not define: ``__init__`` (by position or
    keyword), ``__repr__`` as ``Name(field=value, ...)``, and ``__eq__`` and
    ``__hash__`` over the tuple of field values (equal only within a class).
    Assignment and deletion raise ``AttributeError``.

    ``__init__`` passes the field values, in order, to the class's static
    method ``_convert`` if it has one, which checks them and returns the
    values to store; this is the one construction hook.  Then it sets each
    field once, by ``object.__setattr__`` (writing ``self.__dict__`` would
    give each instance a dict of its own).
    """
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    convert = getattr(cls, "_convert", None)
    get = attrgetter(*fields)
    values = get if len(fields) > 1 else lambda self: (get(self),)
    required, tail = len(fields) - len(defaults), tuple(defaults.values())

    def bind(args, kwargs):
        """The field values, in order, from arguments that are not all fields by position."""
        if not kwargs and required <= len(args) < len(fields):
            return args + tail[len(args) - required :]
        given = dict(zip(fields, args))
        bound = {**defaults, **kwargs, **given}
        if len(args) > len(fields) or kwargs.keys() & given or bound.keys() != set(fields):
            raise TypeError(
                f"{cls.__qualname__}.__init__() takes ({', '.join(fields)}), got "
                f"{len(args)} positional argument(s) and the keywords {sorted(kwargs)}"
            )
        return [bound[name] for name in fields]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = bind(args, kwargs)
        if convert is not None:
            args = convert(*args)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __repr__(self):
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    for method in (__init__, __repr__, __eq__, __hash__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    cls.__match_args__ = fields
    return cls
