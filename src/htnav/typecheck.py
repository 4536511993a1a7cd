"""Field checks: the one place a config, checkpoint or state field is checked.

A field is checked once, where its dataclass is built: its type (a
number is finite), then the ranges the dataclass declares as rules.
Every rejection reads "<name> must be <what>, got <value>".
"""

import dataclasses
import math
import numbers
import typing

# (singular, plural) for error messages
_NAMES = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers")}


def fits(value, kind) -> bool:
    """Whether ``value`` is an integer (``kind`` int) or a finite real number (``kind`` float).

    A bool is neither: it is an int subclass, but True is no episode count.
    A real number fits float only if it converts to a finite float, so NaN,
    the infinities and an integer too large for a float do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        return False
    try:
        return kind is int or math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def check_fields(obj, rules=()) -> None:
    """Raise ValueError naming the first field of ``obj`` that breaks its type or a rule.

    ``int`` fields take integers and ``float`` fields finite real numbers;
    ``tuple[...]`` fields take a list or tuple of those, of the annotated
    length unless the annotation ends in ``...``, and are stored as a tuple.
    Fields of other types are left to the rules.  Each rule
    ``(names, ok, what)`` then requires ``ok(value)`` of every field named.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if typing.get_origin(f.type) is tuple:
            kinds = typing.get_args(f.type)
            n = None if kinds[-1] is Ellipsis else len(kinds)
            ok = (
                isinstance(value, (list, tuple))
                and (n is None or len(value) == n)
                and all(fits(v, kinds[0]) for v in value)
            )
            what = f"a list of {'' if n is None else f'{n} '}{_NAMES[kinds[0]][1]}"
            if ok:
                object.__setattr__(obj, f.name, tuple(value))  # frozen dataclasses too
        elif f.type in _NAMES:
            ok, what = fits(value, f.type), _NAMES[f.type][0]
        else:
            continue
        if not ok:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
    for names, ok, what in rules:
        for name in names:
            value = getattr(obj, name)
            if not ok(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
