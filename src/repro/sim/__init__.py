"""Discrete-event simulation of packet-routing queueing networks.

The engine reproduces the paper's model exactly: Poisson generation at each
node, unit-time (or per-edge deterministic, or exponential for the Jackson
comparison) transmission, one packet per edge at a time, infinite FIFO
buffers. Five simulators share the measurement machinery:

* :class:`NetworkSimulation` — FIFO servers, deterministic or exponential
  service (the standard model and the Jackson model);
* :class:`FiniteBufferNetworkSimulation` — the same model with per-node
  finite buffers and tail-drop loss (``buffer_size=None`` reproduces the
  FIFO engine bit-for-bit; otherwise the result carries per-node drop
  counts and a loss probability);
* :class:`PSNetworkSimulation` — processor-sharing servers (the Theorem 5
  comparator);
* :class:`RushedNetworkSimulation` — the Theorem 10 "copies" system Q1
  (with optional saturated-copy tracking and per-packet maxima since the
  capability-parity work);
* :class:`SlottedNetworkSimulation` — the Section 5.2 slotted-time variant.

Statistics are *exact time integrals* of the piecewise-constant processes
N(t) (packets in system), R(t) (remaining services) and R_s(t) (remaining
saturated services), so E[N], r = E[R]/E[N] and r_s = E[R_s]/E[N] — the
quantities of Tables II and III — carry no sampling error beyond the
trajectory itself.

The declarative facade
----------------------
One run is one trajectory; every table in the paper is "the same cell,
many seeds". Two registries plus one spec type cover that whole space:

* **scenarios** (:mod:`repro.scenarios`) name the workload — topology +
  router + destination law + load calibration;
* **engines** (:mod:`repro.sim.registry`) name the simulator — ``fifo``
  (alias ``event``), ``finite``, ``slotted``, ``rushed``, ``ps`` — each
  entry carrying its supported service laws, its typed engine-specific
  knobs (:class:`~repro.sim.registry.EngineParam`: per-edge
  ``service_rates``, the finite engine's ``buffer_size``, the
  kernel-layer engines' ``backend``), its supported kernel backends
  (:attr:`~repro.sim.registry.Engine.backends`) and the ``run_cell``
  builder the replication layer dispatches to;
* a :class:`CellSpec` is the declarative cross of the two — scenario
  name, size, load, engine name, ``engine_params``, window, seeds —
  validated against both registries at construction, hashable and
  picklable. Hand it (or a whole batch) to a :class:`ReplicationEngine`,
  which fans every (cell, seed) pair over a process pool and pools each
  cell into a :class:`ReplicatedResult` with across-replication means
  and ~95% confidence intervals.

Any scenario x engine x service x backend combination is one spec::

    from repro.sim import CellSpec, ReplicationEngine

    spec = CellSpec(scenario="hotspot", n=8, rho=0.8, engine="fifo",
                    warmup=200, horizon=2000, seeds=tuple(range(8)),
                    engine_params=(("backend", "numpy"),))
    pooled = ReplicationEngine(processes=4).run(spec)
    print(pooled.render())  # per-seed rows + pooled row with CIs

The facade is a pure dispatch layer: a cell reached through it is
bit-identical to the same simulator built by hand (pinned by the
``api_*`` golden cells). Registering a new engine
(:func:`repro.sim.registry.register_engine`) immediately makes it
reachable from ``CellSpec``, ``python -m repro simulate --engine ...``,
``python -m repro engines`` and the experiment sweeps.

The replication fan-out
-----------------------
``ReplicationEngine.run_many`` is the one parallelism substrate every
table, experiment and sweep rides. Its parallel path is built from four
pieces, each independently pinned by tests:

* **Persistent warm pools** (:mod:`repro.util.workerpool`). Pools are
  keyed by worker count in a shared registry (``get_pool``), created
  lazily, and *reused* across ``run_many`` calls and whole sweeps —
  worker processes keep their imports, their per-cell ``(network,
  cache)`` memo and the batch registries they have read warm instead
  of paying pool start-up per call. ``REPRO_PROCESSES`` overrides the
  default worker count everywhere.
* **Shared-memory cell registries** (:mod:`repro.sim.sharedcells`).
  Per batch, the parent pickles the resolved cells — one ``(spec,
  node_rate, mask)`` tuple per cell — into one
  ``multiprocessing.shared_memory`` block. A job payload is a
  ``(token, cell_index, position, seed_chunk)`` tuple of scalars — no
  spec copies or rate arrays per seed. A worker copies the registry out
  of the block once per batch and warms each cell's path cache itself
  (routed in full up to 128 nodes, in a few milliseconds). The parent
  closes *and unlinks* every block when its batch ends, so nothing
  leaks (and the resource tracker stays quiet).
* **Streaming aggregation.** Seed chunks are tagged and fanned through
  ``imap_unordered``; finished replications fold into their cell's slot
  as they arrive, each completed cell is surfaced through the optional
  ``on_result`` callback immediately (completion order), and the
  returned list — like every cell's ``replications`` — always follows
  input/``spec.seeds`` order. The serial path (``processes=1``) never
  touches a pool or shared memory and is bit-identical to the parallel
  path, which is itself pinned against the serial reference for all
  five engines.
* **Resumable sweeps** (:mod:`repro.experiments.sweeps`, CLI ``python
  -m repro sweep spec.json``). A declarative JSON/CSV spec expands to
  cells with deterministic ids; each cell checkpoints atomically into
  its own directory via ``on_result`` as it completes, restarts skip
  checkpointed cells, and the aggregate table regenerated from disk is
  byte-identical between an interrupted-and-resumed sweep and an
  uninterrupted one.

Shared constructor policy
-------------------------
All four engines resolve their constructor arguments through
:class:`repro.sim.enginecommon.EngineCommon`: source-node list, per-node
rate validation, the pinned source CDF behind the boundary-safe
``side='right'`` draw, the uniform fast-id predicate and the shared path
cache. The same module holds the arrival-id draw every kernel uses
(:func:`~repro.sim.enginecommon.draw_ids`).

The kernels layer and the two-backend contract
----------------------------------------------
The FIFO, finite-buffer and slotted engines route their hot loops
through :mod:`repro.sim.kernels`, selected by the ``backend``
constructor knob (and the matching ``backend`` engine param on the
facade). The finite-buffer engine has no kernel of its own: it runs the
``fifo`` kernel with per-edge waiting-room caps, under which both
backends apply tail-drop admission.

========== ============================ ==============================
engine     ``backend="python"``         ``backend="numpy"``
========== ============================ ==============================
``fifo``   level sweep on the merge     max-plus level sweep;
           loop's draws for layered     deterministic service (uniform
           plain runs; reference loops  or per-edge), utilization
           otherwise (default)
``finite`` fifo kernel; tail-drop       the fifo sweep plus a
           admission in the heap loop   vectorized tail-drop scan
           when capped (default)
``slotted``reference loop (default)     batched slot kernel
``rushed`` block-streamed closed-form   —
           FIFO solve (no event loop)
``ps``     reference loop               —
========== ============================ ==============================

The contract has two tiers. ``backend="python"`` is the extracted
reference: bound by the same-seed golden fixtures, and it never imports
the vectorized module (the optional-dependency boundary the ``fast``
extra documents). Its loops are *bit-identical* to the pre-extraction
engines. Its fifo kernel solves layered plain runs — uniform
deterministic service, no caps, nothing tracked or collected, an
RNG-free path cache, within the visit budget — on the merge loop's own
draws with the shared level sweep (:mod:`repro.sim.kernels.levels`):
every arrival, id, path and integer field is the loop's, and the floats
move only by rounding (pinned against the loop by
``tests/test_sim_level_path.py``).
``backend="numpy"`` solves whole trajectories over each run's routed
visits — blocked draws first, then a feedforward max-plus
sweep over edge-precedence levels — and is *seed-stable* (same seed,
same result) and *statistically equivalent*, but not
draw-order-identical: blocked draws interleave differently once a run
crosses an RNG block boundary, and equal-eligibility slot ties may
swap. Distribution-level parity tests (``tests/test_sim_kernels.py``)
pin that tier. Options the vectorized kernels cannot honour
(``track_maxima``, ``track_number_distribution``, exponential service,
routes whose edge-precedence graph has cycles — e.g. torus
wrap-around) raise ``ValueError`` pointing back to ``backend="python"``
rather than degrading silently.

Every engine defaults to ``backend="python"``. The paper report runs
every cell the numpy kernels can solve there — the shared (n, rho)
grid (:mod:`repro.experiments.grid`: Tables I–III), the bounds sweep,
the open-array cell beside the torus, the Section 4.5 / 5.1 / 5.2
validation points, the finite-buffer sweep and the layered
scenario-sweep cells — while its expected visit count fits
``NUMPY_VISIT_BUDGET``, and on ``python`` above it; the rule lives in
:mod:`repro.experiments.backends` and the budget in
:mod:`repro.sim.kernels` (the whole-trajectory solve holds about 30
bytes per visit), where the python fifo kernel's level path reads it
too. Apart from the hand-built Section 4.5 / 5.2
simulators, every report cell — the torus and Theorem 5 dominance cells
too, which stay on python by design (cyclic routes, exponential service,
the N distribution) — is a :class:`~repro.sim.replication.CellSpec` run
through the :class:`~repro.sim.replication.ReplicationEngine`.

Hot-path architecture
---------------------
The per-packet work of all four engines is built around four ideas:

**Shared path-cache arena** (:mod:`repro.routing.pathcache`). Paths are
memoized once per ``(src, dst)`` pair into one flat append-only edge-id
store (a Python list the interpreter loops index directly). A packet record is
``[t0, arena_offset, length, hops_done, measured]`` — five scalars, no
edge tuple — and "which edge next" is ``arena[offset + hop]``, one list
index. Deterministic routers resolve a packet's path with a single dict
probe; the Section 6 randomized scheme keeps two tables (row-first /
column-first) on one arena and draws exactly the one coin the uncached
scheme drew. Caches only
grow and never influence outputs, so the replication engine shares one
``(network, cache)`` per cell across all of the cell's seeded
replications (per worker process) instead of rebuilding per task; pool
workers route small networks in full on first use when some run of the
cell reads the cache (:func:`repro.sim.sharedcells.warm_cell`). Past 128 nodes a cell
shares only its network; each run builds a private cache.

The interpreted fifo, slotted and PS loops resolve paths through one
cache built by ``path_cache_for``, which builds each pair's path once —
with the router's own ``path``, or in bulk with a closed-form batch
builder on mesh and k-d arrays — so no loop and no topology falls back
to per-packet path building unless handed a
``path_cache=SampledPathInterner(router)``. The numpy kernels, the
python fifo kernel's level path and the rushed engine skip the memo:
each run routes its packets directly
(:func:`repro.routing.pathcache.route_packets`, a block of arrivals at
a time for the rushed engine, once per distinct pair on the level
path), and the numpy kernels keep only an edge-level memo per router.

**Monotone merge where service is uniform deterministic; a binary heap
where it is not.** With one deterministic service time everywhere
(the standard model), departures are pushed in nondecreasing time
order, so the FIFO kernel's plain-stats loop (no tracking, no caps)
replaces the priority queue with an O(1) merge of a departure deque
and the pending arrival. Every other interpreted
FIFO run (exponential service, per-edge rates, any tracking, or the
finite-buffer engine's caps) pushes ``(time, seq, ...)`` event tuples
onto a plain ``heapq`` list; ``seq`` is unique per run, so the pop
order is total, never compares the payload, and is the very order the
merge replays. PS has no monotone structure to exploit (completions are
re-planned on every queue change), so its versioned-event loop uses
the same heap.

**Blocked and batched draws.** Every kernel draws the ``(src, dst)``
ids of its arrivals through one helper,
:func:`repro.sim.enginecommon.draw_ids`. Where the fast-id predicate
holds it draws one uniform block of ``2 * m`` node ids, read as
interleaved pairs. Otherwise it draws a source block (uniform, or the
pinned-CDF ``side='right'`` bisection for unequal rates) and then one
destination ``sample_batch`` call, so data-dependent laws (hot-spot,
geometric) are blocked as well; a law with only the scalar ``sample``
gets one call per packet inside the block. The fifo and PS loops
refill 8192 id pairs per call and 8192 exponential gaps per block, and
read both inline; the rushed engine draws the same blocks in the same
order and solves each block whole, each edge's copies by the closed-form
Lindley recursion with its last departure carried to the next block
(see :mod:`repro.sim.rushed_network`). NumPy ``Generator`` array fills are
stream-identical to the same number of consecutive scalar draws of the
same kind, so a fast-id block equals the per-pair draws. The
source-then-destination blocks of the other networks are pinned by the
golden cells and, in distribution, by ``tests/test_sim_arrival_ids.py``.
The slotted engine draws its per-slot Poisson counts from 8192-size
blocks too, then makes one helper call per slot. Over an RNG-consuming
path cache it forces the source-then-destination order even for fast
ids, the order its golden cell pins. A path cache that draws router
coins is looked up once per slot, so the coins come in one batch too;
an RNG-free cache is probed per packet.

Statically enforced invariants
------------------------------
Several of the contracts above are now *statically* pinned by the
repo's own checker, **replint** (:mod:`repro.analysis`, CLI ``python -m
repro.analysis``), which CI runs as a merge gate next to the tests
(``LINT=1 scripts/check.sh`` locally):

* **rng-discipline** — CDF bisection must be the boundary-safe
  ``searchsorted(cdf, u, side='right')`` form; sim-layer hot paths must
  draw blocked (``size=``) rather than scalar Poisson/exponential
  draws; engine code must not consult wall clocks, iterate bare sets or
  pop dict entries in unspecified order. This is the bit-identity
  contract of the previous section, enforced at the source level.
* **backend-boundary** — the static proof behind the kernels layer's
  optional-dependency boundary: ``kernels/__init__.py`` stays
  numpy-free, ``numpy_backend`` is imported only inside ``get_kernel``,
  and the selection layer's module-level import closure reaches neither
  ``numpy`` nor the vectorized module. The subprocess tests in
  ``tests/test_sim_kernels.py`` remain the runtime backstop.
* **registry-consistency** — every registered
  :class:`~repro.sim.registry.EngineParam` must be a real
  constructor parameter of the simulator class behind the engine,
  and capability flags (``supports_saturated``, ``supports_maxima``,
  ``backends``) must describe options the class actually accepts.
  Registering a new engine therefore fails the lint gate until its
  metadata and its class agree.
* **shm-hygiene** — every ``SharedMemory(create=True)`` site needs a
  cleanup owner (with-block, try/finally, or an owning class whose
  ``close()`` both closes and unlinks), and ``publish_cells`` must be
  entered as a context manager: the parent-creates/parent-unlinks
  contract of the replication fan-out, statically.

Intentional exceptions carry a ``# replint: disable=RULE`` comment with
a reason (the slotted kernel's per-slot staging lists are shipped
``hot-loop-alloc`` examples). A strict mypy tier (see ``pyproject.toml``) covers
the kernels, registry, shared-cells, pool and sweep modules for the
same reason: those carry the cross-process contracts.

**Why same-seed bit-identity is the regression contract.** A stochastic
simulation has no other cheap, exact oracle: statistical assertions pass
under subtly wrong optimisations (a dropped id, a reordered draw, a
reassociated float sum all vanish into the noise). Pinning the exact
same-seed ``SimResult`` of the pre-optimisation engines (golden fixtures
in ``tests/golden/``) makes the RNG draw order, the event ordering and
the floating-point accumulation order all observable, so every hot-path
change is either provably output-neutral or an explicit, documented
contract change (regenerate via ``tests/golden/regen.py``). This is why
the monotone-merge event loop replays the heap's exact ``(time, seq)``
pop order.
"""

from repro.sim.result import SimResult
from repro.sim.enginecommon import EngineCommon
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.sim.measurement import BatchMeans, TimeBatchAccumulator
from repro.sim.registry import (
    Engine,
    EngineParam,
    available_engines,
    canonical_engine,
    get_engine,
    register_engine,
)
from repro.sim.replication import (
    CellSpec,
    ReplicatedResult,
    ReplicationEngine,
    replicate,
)

__all__ = [
    "SimResult",
    "EngineCommon",
    "NetworkSimulation",
    "FiniteBufferNetworkSimulation",
    "PSNetworkSimulation",
    "RushedNetworkSimulation",
    "SlottedNetworkSimulation",
    "BatchMeans",
    "TimeBatchAccumulator",
    "Engine",
    "EngineParam",
    "available_engines",
    "canonical_engine",
    "get_engine",
    "register_engine",
    "CellSpec",
    "ReplicatedResult",
    "ReplicationEngine",
    "replicate",
]
