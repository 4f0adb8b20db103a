"""Matching kernels.

Each graph gets one kernel object from `make_kernel`, which is the only
place that picks native or pure code.  `pure.Kernel` holds the matching
counts and the six whole-graph methods ``enumerate_pms``,
``forcing_numbers``, ``switch_pass``, ``matching_facts``,
``vertex_connectivity`` and ``bicritical``; `NativeKernel` takes all six
from ``native.c``, over the same flat data; ``switch_pass`` returns the
sorted switch edges, and `SwitchGraph` derives an adjacency from them.
On first import this module compiles that file with the running
interpreter's C compiler (sysconfig's ``CC``) and header directory into
``build/``, under a name that carries a CRC-32 of the source and the
interpreter's extension suffix, and later imports load that file; a new
build removes those of older sources.  A graph of order above 64 gets a `pure.Kernel`, and so
does every graph when the build or the load fails; the pure code is also
the reference the tests hold the native code to.  ``kernel_backend()``
names the path a graph of order <= 64 takes.  Time them with
``python3 perfbench/run.py --workload all --seed N --seconds 30 --trace 0|1``.
"""

import binascii
import contextlib
import functools
import importlib.machinery
import importlib.util
import os
from pathlib import Path

from ..errors import MatchingOverflowError
from . import cycles, pure

MAX_NATIVE_ORDER = 64
_SOURCE = Path(__file__).resolve().with_name("native.c")
_BUILD = _SOURCE.with_name("build")


def _build(path: Path) -> bool:
    """Compile native.c to ``path``; False when the compiler fails.  The
    output goes to a temporary name first, so no partial file is left at
    ``path`` and concurrent builds do not clash."""
    import shlex
    import subprocess
    import sysconfig

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(
            [*compiler, "-shared", "-fPIC", "-O2", "-I", include,
             "-o", str(tmp), str(_SOURCE)],
            capture_output=True,
        )
        if done.returncode != 0:
            return False
        os.replace(tmp, path)
        return True
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def _native():
    """The compiled native.c, built first when no build of this source
    exists, or None when it cannot be built or loaded."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        path = _BUILD / f"native-{binascii.crc32(_SOURCE.read_bytes()):08x}{suffix}"
        built = not path.exists()
        if built and not _build(path):
            return None
        spec = importlib.util.spec_from_file_location(f"{__name__}.native", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError):  # no source, compiler or write access
        return None
    if built:  # nothing loads a build of an older source again
        for stale in _BUILD.glob(f"native-????????{suffix}"):
            if stale != path:
                with contextlib.suppress(OSError):
                    stale.unlink()
    return module


class NativeKernel(pure.Kernel):
    """`pure.Kernel` whose matchings, forcing numbers, switch pass,
    matching facts, vertex connectivity and bicriticality come from
    native.c."""

    __slots__ = ()

    def enumerate_pms(self, cap: int) -> list:
        found = _native().enumerate_pms(self.rows, cap)
        if found is None:
            raise MatchingOverflowError(f"more than {cap} perfect matchings")
        return found

    def forcing_numbers(self, matchings) -> list:
        return _native().forcing_numbers(self.rows, matchings)

    def switch_pass(self, matchings) -> list:
        return _native().switch_pass(matchings)

    def matching_facts(self, matchings, forcing) -> tuple:
        return _native().matching_facts(self.rows, matchings, forcing)

    def vertex_connectivity(self) -> int:
        return _native().vertex_connectivity(self.rows)

    def bicritical(self) -> bool:
        return _native().bicritical(self.rows)


def kernel_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark results."""
    return "pure" if _native() is None else "compiled"


def make_kernel(rows):
    """Kernel for the graph with the given adjacency rows: native where
    the order allows and the build works, pure otherwise."""
    if len(rows) <= MAX_NATIVE_ORDER and _native() is not None:
        return NativeKernel(rows)
    return pure.Kernel(rows)


_native()  # build now, so that no command pays for it mid-run


__all__ = [
    "NativeKernel",
    "cycles",
    "kernel_backend",
    "make_kernel",
    "pure",
]
