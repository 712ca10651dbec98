"""Pluggable execution backends for the cycle simulator.

Every way of *running* an automaton lives behind the
:class:`ExecutionBackend` protocol — ``compile(automaton)`` returns a
:class:`CompiledKernel` whose ``run_chunk(data, state)`` advances a
resumable :class:`EngineState` and yields a :class:`StepResult`.  The
engine facade (:class:`repro.sim.engine.Engine`), the service layer and
the CLI all select a backend by name instead of hard-coding one
implementation, so adding a kernel (a C extension, a GPU path) is a
local change.

Shipped backends:

``sparse``
    Active-state index sets over the successor CSR — cost follows the
    active set.  Best at the few-percent active fractions of the
    paper's benchmarks.
``bitparallel``
    Packed uint64 state bitmaps with precomputed per-symbol match masks
    and per-state successor rows — cost follows ``n/64`` words, with no
    sorting.  Best on dense-activity workloads.
``native``
    The bit-parallel step loop compiled to machine code (a C extension
    built at install time, or compiled at runtime via ctypes) — same
    tables, same semantics, no per-cycle interpreter cost.  Degrades
    to ``bitparallel`` when no compiled library is loadable, so it is
    always safe to request.
``auto``
    Picks per automaton (per *shard*, under the dispatcher) from the
    state count and the estimated or measured active fraction; dense
    choices resolve to ``native`` whenever the compiled loop loads.

The backend is a *scan-time* choice only: compilation and artifacts
carry backend-neutral :class:`KernelTables`, and :func:`build_kernel`
is the one place a backend choice (plus optional prebuilt tables)
becomes a kernel.
"""

from __future__ import annotations

from repro.automata.analysis import estimate_active_fraction
from repro.errors import SimulationError
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    STATE_FORMAT_VERSION,
    BatchEngineState,
    CompiledKernel,
    EngineState,
    ExecutionBackend,
    KernelTables,
    PlacementTracker,
    ReportTruncationWarning,
    SimulationResult,
    StepResult,
    cached_successor_csr,
    clear_csr_cache,
    gather_successors,
    normalize_batch_caps,
    successor_csr,
)
from repro.sim.backends.bitparallel import (
    MAX_BITPARALLEL_STATES,
    BitParallelBackend,
    BitParallelKernel,
)
from repro.sim.backends.native import (
    NativeBackend,
    NativeKernel,
    native_available,
)
from repro.sim.backends.sparse import SparseBackend, SparseKernel
from repro.telemetry.metrics import default_registry

_AUTO_CHOICES = default_registry().counter(
    "repro_backend_auto_choices_total",
    "Resolutions of the auto backend policy, by chosen kernel",
    ("choice",),
)


#: expected active fraction above which the packed kernel wins; the
#: measured crossover sits near 2% (``test_backend_crossover`` in
#: ``benchmarks/bench_core_micro.py``) and borderline automata keep the
#: sparse kernel
DENSE_ACTIVITY_THRESHOLD = 0.05


def choose_backend_name(
    automaton,
    *,
    active_fraction: float | None = None,
    tables: KernelTables | None = None,
) -> str:
    """Resolve the ``auto`` policy to the kernel family ``"sparse"`` or
    ``"bitparallel"``.

    Automata above the packed successor matrix budget stay sparse; the
    rest take the packed family when their expected per-cycle active
    fraction — :func:`~repro.automata.analysis.estimate_active_fraction`,
    or ``active_fraction`` measured by a probe run — reaches
    :data:`DENSE_ACTIVITY_THRESHOLD`.  :func:`build_kernel` runs the
    packed family through the compiled loop whenever it loads.  Prebuilt
    ``tables`` lend the estimate their successor CSR.
    """
    if len(automaton) > MAX_BITPARALLEL_STATES:
        choice = "sparse"
    else:
        if active_fraction is None:
            csr = (
                None
                if tables is None
                else (tables.succ_offsets, tables.succ_targets)
            )
            active_fraction = estimate_active_fraction(automaton, csr=csr)
        choice = (
            "bitparallel"
            if active_fraction >= DENSE_ACTIVITY_THRESHOLD
            else "sparse"
        )
    _AUTO_CHOICES.labels(choice).inc()
    return choice


class AutoBackend:
    """Backend that resolves :func:`choose_backend_name` per automaton.

    The compiled kernel's ``name`` records the resolved choice, so
    callers (and tests) can observe which kernel an automaton got.
    """

    name = "auto"

    def compile(self, automaton) -> CompiledKernel:
        return build_kernel(automaton, "auto")


#: the selectable backends, by registry name
BACKENDS: dict[str, ExecutionBackend] = {
    "sparse": SparseBackend(),
    "bitparallel": BitParallelBackend(),
    "native": NativeBackend(),
    "auto": AutoBackend(),
}

#: names accepted wherever a backend is selectable (CLI, service, engine)
BACKEND_NAMES = tuple(BACKENDS)


def get_backend(backend: str | ExecutionBackend) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]
        except KeyError:
            known = ", ".join(BACKEND_NAMES)
            raise SimulationError(
                f"unknown execution backend {backend!r}; known: {known}"
            ) from None
    if isinstance(backend, ExecutionBackend):
        return backend
    raise SimulationError(
        f"not an execution backend: {backend!r} (expected a name or an "
        f"object with .name and .compile)"
    )


def build_kernel(
    automaton,
    backend: str | ExecutionBackend = "auto",
    tables: KernelTables | None = None,
) -> CompiledKernel:
    """The one place a backend choice becomes a kernel.

    ``backend`` is a registry name (``"auto"`` resolved here, per
    automaton) or an :class:`ExecutionBackend` instance; ``tables`` are
    prebuilt :class:`KernelTables` (a loaded artifact, a composed
    incremental shard) the kernel adopts instead of deriving its own.
    An instance without ``from_tables`` compiles from the automaton.
    """
    if backend == "auto":
        backend = choose_backend_name(automaton, tables=tables)
        if backend == "bitparallel" and native_available():
            backend = "native"
    backend = get_backend(backend)
    from_tables = getattr(backend, "from_tables", None)
    if tables is None or from_tables is None:
        return backend.compile(automaton)
    return from_tables(automaton, tables)


__all__ = [
    "AutoBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "BitParallelBackend",
    "BitParallelKernel",
    "CompiledKernel",
    "DENSE_ACTIVITY_THRESHOLD",
    "DEFAULT_MAX_KEPT_REPORTS",
    "EngineState",
    "ExecutionBackend",
    "KernelTables",
    "MAX_BITPARALLEL_STATES",
    "NativeBackend",
    "NativeKernel",
    "PlacementTracker",
    "ReportTruncationWarning",
    "SimulationResult",
    "SparseBackend",
    "SparseKernel",
    "StepResult",
    "build_kernel",
    "cached_successor_csr",
    "choose_backend_name",
    "clear_csr_cache",
    "gather_successors",
    "get_backend",
    "native_available",
    "successor_csr",
]
