"""Atomic file output: every file htnav writes appears whole or not at all."""

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
