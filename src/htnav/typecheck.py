"""Field type checks shared by the config dataclasses and the checkpoint reader."""

import dataclasses
import numbers
import typing

# (singular, plural) for error messages
_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers")}


def fits(value, kind) -> bool:
    """Whether ``value`` is an integer (``kind`` int) or a real number (``kind`` float).

    A bool is neither: it is an int subclass, but True is no episode count.
    """
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral if kind is int else numbers.Real)


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field whose value does not fit its annotation.

    ``int`` fields take integers and ``float`` fields take real numbers;
    ``tuple[...]`` fields take a list or tuple of those, of the annotated
    length unless the annotation ends in ``...``.  Fields of other types
    are left to the dataclass's own checks, as are ranges and finiteness.
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
        elif f.type in _NAMES:
            ok, what = fits(value, f.type), _NAMES[f.type][0]
        else:
            continue
        if not ok:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
