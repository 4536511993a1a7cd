"""Atomic file output: every file htnav writes appears whole or not at all.

``write_json`` and ``write_csv`` are the only code that knows the format
of htnav's JSON and CSV files.
"""

import csv
import json
import os
from contextlib import contextmanager


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


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline.

    The text is encoded whole and written in one call: ``json.dump`` would
    issue one write per token.
    """
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` in the csv module's default dialect (CRLF row
    ends); ``float`` cells, ``np.float64`` too, are ``repr(float(v))``, bit-exact."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
