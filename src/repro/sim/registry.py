"""Engine registry: one declarative front door for all four simulators.

A registered :class:`Engine` bundles everything the facade layers
(:class:`~repro.sim.replication.CellSpec` /
:class:`~repro.sim.replication.ReplicationEngine`, the CLI, the
experiment sweeps) need to know about a simulator:

* its canonical name (``"fifo"``, ``"slotted"``, ``"rushed"``, ``"ps"``)
  and accepted aliases (``"event"`` is the historical alias for the FIFO
  event-driven engine);
* the service laws it supports;
* its **engine-specific knobs** as typed :class:`EngineParam` metadata —
  e.g. per-edge ``service_rates``, the finite engine's ``buffer_size``,
  the kernel ``backend`` — validated when a
  :class:`CellSpec` is built, long before a worker process touches them;
* capability flags (saturated-edge tracking, per-packet maxima, whether
  Little's-Law and the Theorem 7 bound sandwich are meaningful for its
  delay statistic);
* a ``run_cell`` entry point that builds the simulator for one resolved
  cell and runs one seeded replication.

``ReplicationEngine`` dispatches every replication through
:func:`get_engine`, so *any* registered engine — including new ones
added by :func:`register_engine` — is immediately reachable from
``CellSpec(engine=...)``, ``python -m repro simulate --engine ...`` and
the experiment sweeps, with no per-engine kwargs sprawl.

Engine-specific parameters
--------------------------
``fifo`` (alias ``event``)
    ``service_rates``: per-edge ``phi_e`` (scalar broadcasts; pass a tuple
    to keep the spec hashable); ``backend``: the kernel backend
    (``"python"`` is the bit-identical reference, ``"numpy"`` the
    vectorized whole-trajectory solver — see :mod:`repro.sim.kernels`).
``slotted``
    ``backend`` as for ``fifo``.
``rushed``
    ``service_rates`` as for ``fifo``. The number of
    copies per packet is not a free knob: Theorem 10's construction sends
    exactly one copy to every queue on the route, so the copy count is
    the path length by definition.
``ps``
    ``service_rates`` as for ``fifo`` (the PS discipline itself has no
    further parameters: equal sharing of ``phi_e`` among the customers
    present).
``finite``
    ``service_rates`` as for ``fifo``, plus
    ``buffer_size``: per-node waiting room (a non-negative int broadcasts
    over all nodes, a tuple gives one value per node, ``None`` — the
    default — reproduces the infinite-buffer ``fifo`` engine
    bit-for-bit). ``backend`` as for ``fifo``: the numpy kernel
    decides tail-drop admission with a vectorized scan over each edge's
    arrivals (deterministic service only, like every numpy fifo run).

Kernel backends
---------------
Engines whose hot loops live in :mod:`repro.sim.kernels` expose the
``backend`` param and advertise it via :attr:`Engine.backends`. The
contract in one line: ``backend="python"`` (the default) is bit-identical
to the pre-kernel engines and pinned by the golden fixtures;
``backend="numpy"`` is seed-stable and statistically equivalent but not
draw-order-identical, and is pinned by distribution-level parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Callable, Mapping

from repro.sim.fifo_network import DETERMINISTIC, EXPONENTIAL, NetworkSimulation
from repro.sim.kernels import KERNEL_BACKENDS, PYTHON_BACKEND, fits_level_sweep
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.result import SimResult
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation

FIFO, SLOTTED, RUSHED, PS, FINITE = "fifo", "slotted", "rushed", "ps", "finite"

#: Value-kind tags for :class:`EngineParam` validation.
CHOICE, RATE_OR_RATES = "choice", "rate-or-rates"
SIZE_OR_SIZES = "size-or-sizes"


@dataclass(frozen=True)
class EngineParam:
    """Typed metadata for one engine-specific knob.

    ``kind`` selects the validation rule: :data:`CHOICE` (a string from
    ``choices``), :data:`RATE_OR_RATES` (a positive scalar, or a tuple of
    per-edge values — tuples, not lists/arrays, so the owning spec stays
    hashable and picklable) or :data:`SIZE_OR_SIZES` (``None``, a
    non-negative int, or a tuple of non-negative per-node ints — the
    finite-buffer vocabulary).
    """

    name: str
    kind: str
    default: object
    doc: str
    choices: tuple[str, ...] = ()

    def validate(self, value: object) -> None:
        """Raise ``ValueError`` unless ``value`` fits this parameter."""
        if self.kind == CHOICE:
            if value not in self.choices:
                raise ValueError(
                    f"engine param {self.name!r} must be one of "
                    f"{'/'.join(self.choices)}, got {value!r}"
                )
        elif self.kind == RATE_OR_RATES:
            scalar = isinstance(value, Real) and not isinstance(value, bool)
            seq = isinstance(value, tuple) and all(
                isinstance(v, Real) and not isinstance(v, bool) for v in value
            )
            if not (scalar or seq):
                raise ValueError(
                    f"engine param {self.name!r} expects a number or a tuple "
                    f"of numbers, got {value!r}"
                )
        elif self.kind == SIZE_OR_SIZES:
            def _size(v: object) -> bool:
                return (
                    isinstance(v, Integral)
                    and not isinstance(v, bool)
                    and int(v) >= 0
                )

            scalar = value is None or _size(value)
            seq = isinstance(value, tuple) and all(_size(v) for v in value)
            if not (scalar or seq):
                raise ValueError(
                    f"engine param {self.name!r} expects None, a non-negative "
                    f"int, or a tuple of non-negative ints, got {value!r}"
                )
        else:  # pragma: no cover - registry authoring error
            raise ValueError(f"unknown EngineParam kind {self.kind!r}")

    def describe(self) -> str:
        """One-line ``name=default`` rendering for listings."""
        opts = f" ({'/'.join(self.choices)})" if self.choices else ""
        return f"{self.name}={self.default!r}{opts}"


def _python_runs_read_cache(
    spec: Any, node_rate: Any, mask: Any, net: Any, cache: Any
) -> bool:
    """Python-kernel runs look their paths up in the cell's path cache;
    numpy runs route straight from the router."""
    return spec.engine_params_dict.get("backend", PYTHON_BACKEND) == PYTHON_BACKEND


@dataclass(frozen=True)
class Engine:
    """A registry entry: metadata plus the cell-replication entry point.

    ``run_cell(spec, seed, node_rate, mask, net, cache)`` builds the
    simulator for one resolved cell (scenario network ``net``, calibrated
    ``node_rate``, optional saturation ``mask``, shared path ``cache``,
    or ``None`` for a private one per run)
    and runs the single replication for ``seed``, returning a
    :class:`~repro.sim.result.SimResult`. ``supports_saturated`` /
    ``supports_maxima`` gate the :class:`CellSpec` tracking flags;
    ``supports_delays`` / ``supports_number_distribution`` gate the
    sample-collection flags (raw per-packet delays; the time-weighted
    number-in-system distribution) the validation harness relies on;
    ``littles_law`` marks engines whose ``mean_delay`` satisfies Little's
    Law against ``mean_number`` (the rushed makespan does not);
    ``bound_sandwich`` marks engines whose standard-model delay the
    Theorem 7 sandwich brackets; ``backends`` lists the kernel backends
    the engine's hot loop can run on (every engine has the reference
    ``"python"``; only kernel-layer engines also offer ``"numpy"``).
    ``reads_path_cache(spec, node_rate, mask, net, cache)`` tells
    whether the cell's runs look paths up in its shared cache, so a pool
    worker warms only the caches some run reads.
    """

    name: str
    description: str
    services: tuple[str, ...]
    params: tuple[EngineParam, ...]
    run_cell: Callable[..., SimResult]
    aliases: tuple[str, ...] = ()
    supports_saturated: bool = False
    supports_maxima: bool = False
    supports_delays: bool = False
    supports_number_distribution: bool = False
    littles_law: bool = True
    bound_sandwich: bool = False
    backends: tuple[str, ...] = (PYTHON_BACKEND,)
    reads_path_cache: Callable[..., bool] = _python_runs_read_cache

    def param(self, name: str) -> EngineParam:
        for p in self.params:
            if p.name == name:
                return p
        known = (
            "; ".join(p.describe() for p in self.params)
            or "it accepts no engine params"
        )
        raise ValueError(
            f"engine {self.name!r} has no param {name!r} — valid params: "
            f"{known} (see `python -m repro engines`)"
        )

    def validate_params(self, params: Mapping[str, object]) -> None:
        """Validate an ``engine_params`` mapping against the metadata."""
        for key, value in params.items():
            self.param(key).validate(value)


_REGISTRY: dict[str, Engine] = {}
_ALIASES: dict[str, str] = {}


def register_engine(engine: Engine) -> Engine:
    """Add an engine to the registry (name and aliases must be unused)."""
    for name in (engine.name, *engine.aliases):
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"engine name {name!r} already registered")
    _REGISTRY[engine.name] = engine
    for alias in engine.aliases:
        _ALIASES[alias] = engine.name
    return engine


def engine_names(*, with_aliases: bool = False) -> list[str]:
    """Registered canonical names (optionally plus aliases), sorted."""
    names = list(_REGISTRY)
    if with_aliases:
        names += list(_ALIASES)
    return sorted(names)


def canonical_engine(name: str) -> str:
    """Resolve an engine name or alias to its canonical registry name."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    known = ", ".join(engine_names(with_aliases=True))
    raise ValueError(f"unknown engine {name!r} (known: {known})")


def get_engine(name: str) -> Engine:
    """Look up an engine by canonical name or alias."""
    return _REGISTRY[canonical_engine(name)]


def available_engines() -> list[Engine]:
    """All registered engines, sorted by canonical name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Built-in engines.

_SERVICE_RATES_PARAM = EngineParam(
    "service_rates",
    RATE_OR_RATES,
    1.0,
    "per-edge service rates phi_e (scalar broadcasts; tuple for per-edge)",
)
_BACKEND_PARAM = EngineParam(
    "backend",
    CHOICE,
    PYTHON_BACKEND,
    "kernel backend for the hot loop (see repro.sim.kernels): python is "
    "the bit-identical reference pinned by the golden fixtures; numpy is "
    "the vectorized whole-trajectory solver — seed-stable and "
    "statistically equivalent, but not draw-order-identical",
    choices=KERNEL_BACKENDS,
)


def _event_args(
    spec: Any, seed: int, node_rate: Any, mask: Any, net: Any, cache: Any
) -> dict:
    """Constructor arguments of a fifo or finite cell's simulator."""
    return dict(
        router=net.router,
        destinations=net.destinations,
        node_rate=node_rate,
        service=spec.service,
        source_nodes=net.source_nodes,
        saturated_mask=mask,
        seed=seed,
        path_cache=cache,
        **spec.engine_params_dict,
    )


def _event_flags(spec: Any) -> dict:
    """``run`` options of a fifo or finite cell."""
    return dict(
        track_maxima=spec.track_maxima,
        collect_delays=spec.collect_delays,
        track_number_distribution=spec.track_number_distribution,
    )


def _fifo_cell(
    spec: Any, seed: int, node_rate: Any, mask: Any, net: Any, cache: Any
) -> SimResult:
    sim = NetworkSimulation(**_event_args(spec, seed, node_rate, mask, net, cache))
    return sim.run(spec.warmup, spec.horizon, **_event_flags(spec))


def _event_reads_cache(
    spec: Any, node_rate: Any, mask: Any, net: Any, cache: Any
) -> bool:
    """A python fifo or finite cell's runs read the path cache unless the
    kernel's level path serves them (a layered plain or uncapped
    exponential run the level sweep admits; the seed plays no part in
    that)."""
    # Late: the kernel module is otherwise loaded with a cell's first run.
    from repro.sim.kernels.python_backend import takes_level_path

    if not _python_runs_read_cache(spec, node_rate, mask, net, cache):
        return False
    cls = FiniteBufferNetworkSimulation if spec.engine == FINITE else NetworkSimulation
    sim = cls(**_event_args(spec, 0, node_rate, mask, net, cache))
    return not takes_level_path(sim, spec.warmup, spec.horizon, **_event_flags(spec))


def _slotted_cell(
    spec: Any, seed: int, node_rate: Any, mask: Any, net: Any, cache: Any
) -> SimResult:
    sim = SlottedNetworkSimulation(
        net.router,
        net.destinations,
        node_rate,
        tau=spec.tau,
        source_nodes=net.source_nodes,
        saturated_mask=mask,
        seed=seed,
        path_cache=cache,
        **spec.engine_params_dict,
    )
    warmup_slots = int(round(spec.warmup / spec.tau))
    horizon_slots = max(1, int(round(spec.horizon / spec.tau)))
    return sim.run(
        warmup_slots,
        horizon_slots,
        track_maxima=spec.track_maxima,
        collect_delays=spec.collect_delays,
    )


def _rushed_cell(
    spec: Any, seed: int, node_rate: Any, mask: Any, net: Any, cache: Any
) -> SimResult:
    sim = RushedNetworkSimulation(
        net.router,
        net.destinations,
        node_rate,
        source_nodes=net.source_nodes,
        saturated_mask=mask,
        seed=seed,
        path_cache=cache,
        **spec.engine_params_dict,
    )
    return sim.run(spec.warmup, spec.horizon, track_maxima=spec.track_maxima)


def _finite_cell(
    spec: Any, seed: int, node_rate: Any, mask: Any, net: Any, cache: Any
) -> SimResult:
    sim = FiniteBufferNetworkSimulation(
        **_event_args(spec, seed, node_rate, mask, net, cache)
    )
    return sim.run(spec.warmup, spec.horizon, **_event_flags(spec))


def _never_reads_cache(
    spec: Any, node_rate: Any, mask: Any, net: Any, cache: Any
) -> bool:
    """The rushed engine routes every block of arrivals directly."""
    return False


def _ps_args(spec: Any, seed: int, node_rate: Any, net: Any, cache: Any) -> dict:
    """Constructor arguments of a PS cell's simulator."""
    return dict(
        router=net.router,
        destinations=net.destinations,
        node_rate=node_rate,
        source_nodes=net.source_nodes,
        seed=seed,
        path_cache=cache,
        **spec.engine_params_dict,
    )


def _ps_cell(
    spec: Any, seed: int, node_rate: Any, mask: Any, net: Any, cache: Any
) -> SimResult:
    sim = PSNetworkSimulation(**_ps_args(spec, seed, node_rate, net, cache))
    return sim.run(
        spec.warmup,
        spec.horizon,
        collect_delays=spec.collect_delays,
        track_number_distribution=spec.track_number_distribution,
    )


def _ps_reads_cache(
    spec: Any, node_rate: Any, mask: Any, net: Any, cache: Any
) -> bool:
    """A PS cell's runs read the path cache unless the level sweep
    admits them (the seed plays no part in that)."""
    sim = PSNetworkSimulation(**_ps_args(spec, 0, node_rate, net, cache))
    return not fits_level_sweep(sim, spec.warmup, spec.horizon)


register_engine(
    Engine(
        name=FIFO,
        aliases=("event",),
        description=(
            "event-driven FIFO servers: the paper's standard model "
            "(deterministic service) and the Jackson model (exponential)"
        ),
        services=(DETERMINISTIC, EXPONENTIAL),
        params=(_SERVICE_RATES_PARAM, _BACKEND_PARAM),
        run_cell=_fifo_cell,
        reads_path_cache=_event_reads_cache,
        supports_saturated=True,
        supports_maxima=True,
        supports_delays=True,
        supports_number_distribution=True,
        bound_sandwich=True,
        backends=KERNEL_BACKENDS,
    )
)
register_engine(
    Engine(
        name=SLOTTED,
        description=(
            "Section 5.2 slotted time: Poisson batch per slot, one "
            "unit-slot transmission per non-empty edge"
        ),
        services=(DETERMINISTIC,),
        params=(_BACKEND_PARAM,),
        run_cell=_slotted_cell,
        supports_saturated=True,
        supports_maxima=True,
        supports_delays=True,
        bound_sandwich=True,
        backends=KERNEL_BACKENDS,
    )
)
register_engine(
    Engine(
        name=RUSHED,
        description=(
            "Theorem 10 'rushed' copy system Q1: one copy per route queue "
            "served immediately; mean_delay is the per-packet makespan"
        ),
        services=(DETERMINISTIC,),
        params=(_SERVICE_RATES_PARAM,),
        run_cell=_rushed_cell,
        reads_path_cache=_never_reads_cache,
        supports_saturated=True,
        supports_maxima=True,
        littles_law=False,  # makespan, not a Little's-Law sojourn time
    )
)
register_engine(
    Engine(
        name=FINITE,
        description=(
            "finite-buffer FIFO loss engine: the fifo model with per-node "
            "waiting room K and tail-drop loss (buffer_size=None is "
            "bit-identical to fifo)"
        ),
        services=(DETERMINISTIC, EXPONENTIAL),
        params=(
            _SERVICE_RATES_PARAM,
            EngineParam(
                "buffer_size",
                SIZE_OR_SIZES,
                None,
                "per-node waiting room, excluding the packet in service "
                "(int broadcasts; tuple is per-node; None = infinite "
                "buffers, bit-identical to the fifo engine)",
            ),
            _BACKEND_PARAM,
        ),
        run_cell=_finite_cell,
        reads_path_cache=_event_reads_cache,
        supports_saturated=True,
        supports_maxima=True,
        supports_delays=True,
        supports_number_distribution=True,
        # Loss breaks both identities: mean_delay averages survivors
        # only, so neither Little's Law against the *offered* rate nor
        # the Theorem 7 sandwich brackets it once drops occur.
        littles_law=False,
        bound_sandwich=False,
        # numpy covers capped runs too (deterministic service only).
        backends=KERNEL_BACKENDS,
    )
)
register_engine(
    Engine(
        name=PS,
        description=(
            "processor sharing (the Theorem 5 comparator): equal split of "
            "phi_e among the customers present; product-form equilibrium"
        ),
        services=(DETERMINISTIC,),
        params=(_SERVICE_RATES_PARAM,),
        run_cell=_ps_cell,
        reads_path_cache=_ps_reads_cache,
        supports_delays=True,
        supports_number_distribution=True,
    )
)
