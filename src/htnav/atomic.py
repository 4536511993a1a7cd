"""Atomic file output: every file htnav writes appears whole or not at all.

``write_json`` and ``write_csv`` are the only code that knows the format
of htnav's JSON and CSV files.
"""

import csv
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _encode_str


@contextmanager
def atomic_open(path, newline=None):
    """Open ``path`` for writing text through a temporary file beside it.

    The temporary file replaces ``path`` (``os.replace``) when the block
    exits normally.  If the block raises, the temporary file is removed and
    any earlier file at ``path`` is left as it was.  This guards against a
    run dying mid-write; there is no fsync, so it is no guard against
    power loss.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    # 0o666 before the umask, as for a file made by open(path, "w")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# float reprs that JSON spells differently, as json.dumps spells them
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(doc, newline: str) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``'s text for ``doc``.

    Containers are dicts with ``str`` keys, lists and tuples; leaves are
    strings, ``None``, bools, ints and floats (``float.__repr__``, with
    json's ``NaN`` and ``Infinity``), checked in json's order.  ``newline``
    is the newline and indent before a line at this depth.  Anything else
    raises ``TypeError``.
    """
    if isinstance(doc, str):
        return _encode_str(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        text = float.__repr__(doc)
        return _JSON_FLOATS.get(text, text)
    inner = newline + "  "
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        try:  # a list of floats, such as a checkpoint's weights, in one pass
            body = ("," + inner).join(map(float.__repr__, doc))
        except TypeError:  # float.__repr__ takes floats only
            body = ("," + inner).join([_json_text(item, inner) for item in doc])
        else:
            if "n" in body:  # only "nan" and "inf" hold an n
                body = body.replace("nan", "NaN").replace("inf", "Infinity")
        return "[" + inner + body + newline + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        if not all(isinstance(key, str) for key in doc):
            raise TypeError(f"keys must be str, not {sorted({type(key).__name__ for key in doc})}")
        items = [_encode_str(key) + ": " + _json_text(value, inner) for key, value in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def write_json(path, doc) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` and a final newline.

    ``_json_text`` writes that text faster: with ``indent`` json falls back
    to its pure Python encoder, one generator step per token.  The text is
    encoded whole and written in one call: ``json.dump`` would issue one
    write per token.
    """
    text = _json_text(doc, "\n")
    with atomic_open(path) as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` in the csv module's default dialect (CRLF row
    ends); ``float`` cells, ``np.float64`` too, are ``repr(float(v))``, bit-exact."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
