"""The base of the checked value types: a namedtuple that builds only through its constructor."""

from collections import namedtuple


@classmethod
def _make(cls, iterable):
    return cls(*iterable)  # so that _replace, which calls _make, validates too


def checked_tuple(typename, field_names, defaults=None):
    """``collections.namedtuple`` whose ``_make`` and ``_replace`` run the subclass's checks."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = _make
    return base
