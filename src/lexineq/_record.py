"""Frozen value classes at a fraction of the standard library's import cost.

lexineq's CLI is mostly one short process per inequality, so import
time is a large share of each call.  The standard library's frozen data
classes import ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and compile six generated methods per class with
``exec``; across the package's 31 value classes that was about half of
``import lexineq``.

:func:`record` keeps the same behaviour.  Only ``__init__`` is
generated from source, so construction costs the same; ``__repr__``,
``__eq__``, ``__hash__`` and the frozen ``__setattr__``/``__delattr__``
are shared closures over the field-name tuple, which each class keeps
as ``_fields`` (declaration order) and ``__match_args__``.  ``==`` and
``repr`` also hold for trees as deep as the parser accepts.  The standard
library's helpers (``fields``, ``replace``, ``asdict``) do not apply.
"""

from operator import attrgetter

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


def record(cls=None, *, eq=True):
    """Make ``cls`` a frozen record of its annotated fields.

    Fields are the class's own annotations, in order; a class attribute
    of the same name is the field's default, and ``__post_init__`` runs
    after the fields are set.  Records of the same class compare and
    hash by their field tuple, ``repr`` is ``Name(field=value, ...)``,
    and ``eq=False`` keeps identity equality and hashing.
    """
    if cls is None:
        return lambda c: record(c, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f"_d_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(["self"] + [f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names])
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_set": object.__setattr__, **defaults}
    exec(f"def __init__({params}):\n " + "\n ".join(body or ["pass"]), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    values = _values_getter(names)

    def __repr__(self):
        return _text(self, values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls._fields = cls.__match_args__ = names
    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, __setattr__, __delattr__
    if eq:
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                try:
                    return values(self) == values(other)
                except RecursionError:  # a tree too deep to compare recursively
                    return _equal(self, other, values)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        _VALUES[cls] = values
    return cls


# The field-value getter of each record class that compares by value.  A
# parse tree is a record per level, so ``==`` and ``repr`` recurse once
# per level, several frames each: a chain of 400 terms, which the parser
# accepts, exceeds the interpreter's recursion limit.  ``_equal`` and
# ``_text`` walk nested records of these classes from a stack instead.
# ``==`` tries the tuple comparison first, which costs a shallow record
# nothing more, and walks only when that runs out of stack.
_VALUES = {}


def _equal(a, b, values):
    """``values(a) == values(b)``, with nested records compared from a stack.

    Field values compare as in a tuple: equal when identical, else by
    ``==``; two records of one class in ``_VALUES`` are compared by their
    own fields, later, instead of by a recursive ``==``.
    """
    pending = []
    while True:
        for x, y in zip(values(a), values(b)):
            if x is y:
                continue
            nested = _VALUES.get(x.__class__)
            if nested is not None and y.__class__ is x.__class__:
                pending.append((x, y, nested))
            elif not x == y:
                return False
        if not pending:
            return True
        a, b, values = pending.pop()


def _text(rec, values):
    """``Name(field=value, ...)``, with nested records of classes in
    ``_VALUES`` printed in place from a stack instead of by a recursive
    ``repr``."""
    parts = []
    todo = [(rec, values)]  # records to print, and text already printed
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        rec, values = item
        cls = rec.__class__
        todo.append(")")
        fields = tuple(zip(cls._fields, values(rec)))
        for i in range(len(fields) - 1, -1, -1):
            name, value = fields[i]
            nested = _VALUES.get(value.__class__)
            todo.append(repr(value) if nested is None else (value, nested))
            todo.append(f"{name}=" if i == 0 else f", {name}=")
        todo.append(f"{cls.__qualname__}(")
    return "".join(parts)


def _values_getter(names):
    """A function from a record to its field-value tuple.

    Records compare and hash by this tuple itself, so hashes (and with
    them set orders and cache keys) are those of the tuple.
    """
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()
