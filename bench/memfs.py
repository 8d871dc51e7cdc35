"""Memory-backed files for venuecca.dataio.

The benchmark keeps dataset, model and index files in memory so that
set-up time measures the program's serialization and parsing, not the
disk (see README.md, "Why dataset files live in memory"). MemFS serves a
module's ``open`` and ``Path`` globals from a dict of path -> bytes;
every file the module writes or reads goes through it, and nothing
touches the real file system.

Keys live under the ``memfs:`` root. A code path that bypasses ``open``
and ``Path`` (say ``np.fromfile``) looks for ``memfs:/...`` on disk,
finds nothing and fails loudly instead of measuring the disk.
"""

import errno
import io
from pathlib import PurePosixPath

ROOT = "memfs:"


class _Sink(io.BytesIO):
    """A file opened for writing; its bytes land in the store on close."""

    def __init__(self, files, key):
        super().__init__()
        self._files = files
        self._key = key

    def close(self):
        if not self.closed:
            self._files[self._key] = self.getvalue()
        super().close()


class MemFS:
    """Files as bytes in a dict; counts every file opened for writing."""

    def __init__(self):
        self.files = {}
        self.writes = 0
        files = self.files

        class MemPath(PurePosixPath):
            def exists(self):
                return str(self) in files

            def mkdir(self, parents=False, exist_ok=False):
                pass  # directories are implicit in the keys

        self.Path = MemPath

    def path(self, *parts):
        return str(PurePosixPath(ROOT, *parts))

    def open(self, path, mode="r", encoding=None, newline=None):
        key = str(path)
        if mode in ("w", "wb"):
            self.writes += 1
            raw = _Sink(self.files, key)
        elif mode in ("r", "rb"):
            if key not in self.files:
                raise FileNotFoundError(errno.ENOENT, "no such file in memfs", key)
            raw = io.BytesIO(self.files[key])
        else:
            raise ValueError(f"memfs does not support mode {mode!r}")
        if "b" in mode:
            return raw
        return io.TextIOWrapper(raw, encoding=encoding or "utf-8", newline=newline)

    def install(self, module):
        """Serve ``module``'s file access from this store."""
        module.open = self.open
        module.Path = self.Path
