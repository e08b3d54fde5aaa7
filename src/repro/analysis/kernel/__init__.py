"""Packed-state exploration kernel with selectable backends.

Two byte-identical backends implement one protocol (``KernelBackend``):

* ``python`` — :class:`~repro.analysis.kernel._pycore.PyKernel`, a flat
  big-int core with no build step, always available.
* ``compiled`` — ``repro.analysis.kernel._ckernel``, a hand-written C
  extension built best-effort at install time (or via ``make
  kernel-ext``); importing it is the only capability check.

Selection order: an explicit ``kernel=`` argument beats the
``REPRO_KERNEL`` environment variable beats ``auto`` (compiled when the
extension imports, python otherwise). Requesting ``compiled`` when the
extension is absent is an error, never a silent fallback — ``auto`` is
the spelling for "fastest available".

Both backends run one lazy semantics path. Each interned configuration
is a packed row of slot codes; expanding it looks up, per running
process, a flat invoke entry keyed by ``(pid, local code)`` and a delta
entry keyed by ``(pid, local code, object code)``. A key that misses
calls back into the explorer (``resolve_invoke`` / ``compute_deltas``)
exactly once, and the result is replayed from the backend's tables
ever after; the explorer in turn resolves each process step once, so
a miss costs about one ``spec.responses`` call.

Both backends produce identical configuration ids, edge ids, and BFS
orders by construction: ids are allocated in discovery order and the
hooks run in the same deterministic (pid-ascending, outcome-order)
sequence. Verdicts, seed digests, and cache keys are therefore
byte-for-byte backend-independent, which is why the content-addressed
cache fingerprint deliberately excludes the kernel name.

``REPRO_KERNEL_THREADS`` / ``--kernel-threads`` rides the same
environment-pinning scheme: it partitions each BFS frontier across OS
threads in the compiled backend's GIL-free plan phase, which reads the
lazily filled tables (members whose keys still miss go through the
hooks in the serial commit). Observable results are byte-identical for
every thread count, so this is purely a wall-clock knob.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator, Optional, Tuple

from ...errors import AnalysisError
from .encoding import FIELD_BITS, MAX_CODE, PackedEncoder
from ._pycore import PyKernel

__all__ = [
    "FIELD_BITS",
    "MAX_CODE",
    "KERNEL_CHOICES",
    "PackedEncoder",
    "PyKernel",
    "compiled_available",
    "kernel_env",
    "make_backend",
    "select",
    "select_threads",
]

#: Valid values for ``--kernel`` / ``REPRO_KERNEL`` / ``kernel=``.
KERNEL_CHOICES = ("auto", "python", "compiled")

#: Environment variable consulted when no explicit kernel is passed.
#: Set by the CLI so forked/spawned pool workers inherit the choice.
ENV_VAR = "REPRO_KERNEL"

#: Environment twin of ``--kernel-threads`` (a positive integer).
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"


def compiled_available() -> bool:
    """Whether the accelerated extension module is importable."""
    try:
        from . import _ckernel  # noqa: F401
    except ImportError:
        return False
    return True


def select(kernel: Optional[str] = None) -> str:
    """Resolve a kernel request to a concrete backend name.

    ``kernel=None`` defers to ``REPRO_KERNEL`` and then to ``auto``.
    Returns ``"python"`` or ``"compiled"``.
    """
    if kernel is None:
        kernel = os.environ.get(ENV_VAR) or "auto"
    if kernel not in KERNEL_CHOICES:
        raise AnalysisError(
            f"unknown kernel {kernel!r}; choose one of {KERNEL_CHOICES}"
        )
    if kernel == "auto":
        return "compiled" if compiled_available() else "python"
    if kernel == "compiled" and not compiled_available():
        from . import _build
        from ...errors import KernelUnavailableError

        message = (
            "kernel 'compiled' requested but the accelerated extension is "
            "not built; run `make kernel-ext` or use --kernel auto"
        )
        build_error = _build.last_build_error()
        if build_error is not None:
            message += f"\nlast build attempt failed with:\n{build_error}"
        raise KernelUnavailableError(message)
    return kernel


def select_threads(threads: Optional[int] = None) -> int:
    """Resolve a frontier-thread request to a concrete positive count.

    ``threads=None`` defers to ``REPRO_KERNEL_THREADS`` and then to 1
    (serial). Results are byte-identical for every count by contract,
    so validation is the only job here.
    """
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR) or "1"
        try:
            threads = int(raw)
        except ValueError:
            raise AnalysisError(
                f"{THREADS_ENV_VAR} must be a positive integer, not {raw!r}"
            ) from None
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise AnalysisError(
            f"kernel threads must be a positive integer, not {threads!r}"
        )
    return threads


def make_backend(
    kernel: Optional[str],
    n_fields: int,
    n_processes: int,
    resolve_invoke: Callable[[int, int], int],
    compute_deltas: Callable[
        [int, int, int, int], Tuple[Tuple[int, int, int, int], ...]
    ],
):
    """Instantiate the resolved backend. Returns ``(backend, name)``."""
    name = select(kernel)
    if name == "compiled":
        from . import _ckernel

        return (
            _ckernel.KernelState(
                n_fields, n_processes, resolve_invoke, compute_deltas
            ),
            name,
        )
    return PyKernel(n_fields, n_processes, resolve_invoke, compute_deltas), name


@contextlib.contextmanager
def kernel_env(
    kernel: Optional[str], threads: Optional[int] = None
) -> Iterator[None]:
    """Pin the kernel environment knobs for the duration of a block.

    The API façades use this so pool workers — which re-build explorers
    from module-level entry points — inherit the caller's kernel and
    threads choices through the process environment under both fork
    and spawn starts. ``None`` leaves a knob untouched.
    """
    if kernel is not None and kernel not in KERNEL_CHOICES:
        raise AnalysisError(
            f"unknown kernel {kernel!r}; choose one of {KERNEL_CHOICES}"
        )
    pins = {}
    if kernel is not None:
        pins[ENV_VAR] = kernel
    if threads is not None:
        pins[THREADS_ENV_VAR] = str(select_threads(threads))
    if not pins:
        yield
        return
    previous = {name: os.environ.get(name) for name in pins}
    os.environ.update(pins)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
