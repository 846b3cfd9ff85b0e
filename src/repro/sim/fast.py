"""Lookup tables and scheduler knowledge for the SoA event loop.

:class:`FastSimulation` turns one run — system, policy,
characterisation store, predictor, energy model and a validated
:class:`~repro.core.runconfig.RunConfig` (tuner costs, queue
discipline, preemption, profiling overhead, preloaded profiles, power
axis) — into the flat data the struct-of-arrays event loop in
:mod:`repro.sim.stream` reads:

* **configuration interning** — every cache configuration of the
  system gets an integer id ascending in ``CacheConfig`` order, so
  integer comparisons reproduce config tie-breaks, with per-config
  static leakage and reconfiguration costs;
* **the characterisation table** — one row of (cycles, dynamic, static,
  total energy) scalars per (benchmark, config), so the loop never
  walks ``store.get(name).result(config).estimate`` chains;
* **system layout** — core sizes, per-core config ids, profiling
  order, cores by size;
* **knowledge state** — the profiling table and the tuning sessions
  (profiled flags, predictions, explored configs, incremental
  best-known minima), mutated by the run.  A table set therefore
  serves exactly one run.

Construction does no validation of its own: the ``RunConfig`` checked
itself when it was built.  It applies preloaded profiles.  The
closed-batch glue in :mod:`repro.core.fastpath` and the streaming
front end build the loop over these tables; bit-identity with the
reference loop across the policy × discipline × preemption grid is
enforced by ``tests/sim/test_fast_engine_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.config import BASE_CONFIG, CacheConfig
from repro.characterization.store import CharacterizationStore
from repro.core.policies import SchedulingPolicy
from repro.core.predictor import BestCorePredictor
from repro.core.runconfig import RunConfig
from repro.core.tuning import TuningSession
from repro.energy.tables import EnergyTable
from repro.power.budget import TokenPool

__all__ = ["FastSimulation"]


class FastSimulation:
    """Tables and knowledge state of one run of one policy on one system.

    ``run`` is the already validated
    :class:`~repro.core.runconfig.RunConfig`; the public constructors
    check the policy's predictor before building one.  The
    observability / validation / fault hooks are deliberately absent —
    use the reference engine when any of them is needed.
    """

    def __init__(
        self,
        system,
        policy: SchedulingPolicy,
        store: CharacterizationStore,
        predictor: Optional[BestCorePredictor],
        energy_table: Optional[EnergyTable],
        run: RunConfig,
    ) -> None:
        self.system = system
        self.policy = policy
        self.store = store
        self.predictor = predictor
        self.energy_table = (
            energy_table if energy_table is not None else EnergyTable()
        )
        self.run = run
        # Engine selection only routes a powered run here when the
        # policy does not override ``choose_dvfs``, so the preferred
        # operating point is always the table's nominal one; the gate
        # can still *degrade* to a lower point.
        self._power_pool = (
            TokenPool(run.power) if run.power is not None else None
        )

        # -- configuration interning ------------------------------------
        # Config ids ascend in CacheConfig's natural (size, assoc, line)
        # order so integer comparisons reproduce config tie-breaks.
        # spec.configs materialises fresh CacheConfig objects on every
        # access; read it once per core.
        spec_configs = [list(spec.configs) for spec in system.cores]
        cfg_set = {BASE_CONFIG}
        for spec, configs in zip(system.cores, spec_configs):
            cfg_set.update(configs)
            cfg_set.add(spec.reset_config)
        self.cfg_objs: List[CacheConfig] = sorted(cfg_set)
        self.cfg_ids: Dict[CacheConfig, int] = {
            cfg: i for i, cfg in enumerate(self.cfg_objs)
        }
        K = len(self.cfg_objs)
        self.cfg_sizes = [cfg.size_kb for cfg in self.cfg_objs]
        # CacheConfig.name formats a string on every access; the result
        # assembly needs one per job record.
        self.cfg_names = [cfg.name for cfg in self.cfg_objs]
        self.cfg_static_nj = [
            self.energy_table.get(cfg).static_per_cycle_nj
            for cfg in self.cfg_objs
        ]
        # Reconfiguration cost depends only on the *outgoing* config
        # (its line count is what gets flushed).
        tuner_costs = run.tuner_costs
        self.recfg_cycles_from = [
            tuner_costs.control_cycles
            + tuner_costs.flush_cycles_per_line * cfg.num_lines
            for cfg in self.cfg_objs
        ]
        self.recfg_nj_from = [
            tuner_costs.control_energy_nj
            + tuner_costs.flush_energy_per_line_nj * cfg.num_lines
            for cfg in self.cfg_objs
        ]

        # -- benchmark interning + estimate matrices --------------------
        self.bench_names: List[str] = list(store.names())
        self.bids: Dict[str, int] = {
            name: i for i, name in enumerate(self.bench_names)
        }
        B = len(self.bench_names)
        # The (benchmark × config) characterisation table, one row of
        # (cycles, dynamic_nj, static_nj, total_nj) scalars per
        # benchmark (None = the store was never characterised for that
        # config).  Total uses the same addition order as
        # EnergyBreakdown.total_nj.
        cfg_ids_get = self.cfg_ids.get
        rows: List[List[Optional[tuple]]] = []
        for name in self.bench_names:
            row: List[Optional[tuple]] = [None] * K
            for cfg, res in store.get(name).results.items():
                k = cfg_ids_get(cfg)
                if k is None:
                    continue
                estimate = res.estimate
                energy = estimate.energy
                row[k] = (
                    estimate.total_cycles,
                    energy.dynamic_nj,
                    energy.static_nj,
                    energy.static_nj + energy.dynamic_nj,
                )
            rows.append(row)
        self._est = rows

        # -- system layout ----------------------------------------------
        cores = system.cores
        self.n_cores = len(cores)
        self.core_sizes = [spec.cache_size_kb for spec in cores]
        # Sorted ascending so "first unexplored" == min(unexplored).
        self.core_cfg_ids = [
            sorted(self.cfg_ids[c] for c in configs)
            for configs in spec_configs
        ]
        self.core_reset_cid = [
            self.cfg_ids[spec.reset_config] for spec in cores
        ]
        self.core_names = [spec.name for spec in cores]
        self.base_cid = self.cfg_ids[BASE_CONFIG]
        # Profiling cores primary-first, with their BASE support flag.
        self.profiling_order = [
            (spec.index, spec.supports(BASE_CONFIG))
            for spec in system.profiling_cores
        ]
        self.cores_by_size: Dict[int, List[int]] = {}
        for spec in cores:
            self.cores_by_size.setdefault(spec.cache_size_kb, []).append(
                spec.index
            )
        self.sizes_kb = list(system.cache_sizes_kb)
        self._nearest: Dict[int, int] = {}

        # -- knowledge state (profiling table + tuning heuristic) -------
        self.profiled = [False] * B
        self.pred_raw: List[Optional[int]] = [None] * B
        #: Nearest machine size for the raw prediction (pure function of
        #: ``pred_raw``; cached at prediction time, read on every choose).
        self.pred_size: List[Optional[int]] = [None] * B
        #: Explored config ids per benchmark; dict for O(1) membership
        #: with stable insertion order.
        self.executed: List[Dict[int, bool]] = [dict() for _ in range(B)]
        #: Incremental min-by-(energy, config) per (benchmark, size).
        self.best_known: List[Dict[int, tuple]] = [dict() for _ in range(B)]
        self.tuned: List[set] = [set() for _ in range(B)]
        self.touched = [False] * B
        self.touch_order: List[int] = []
        self.sessions: Dict[tuple, TuningSession] = {}

        if run.preload_profiles:
            self._preload_profiles()

    # -- helpers -------------------------------------------------------------

    def _nearest_size(self, size_kb: int) -> int:
        cached = self._nearest.get(size_kb)
        if cached is None:
            cached = self.system.nearest_size_kb(size_kb)
            self._nearest[size_kb] = cached
        return cached

    def _touch(self, b: int) -> None:
        if not self.touched[b]:
            self.touched[b] = True
            self.touch_order.append(b)

    def _record_execution(self, b: int, cid: int, tot_energy: float) -> None:
        """Mirror ``ProfilingTable.record_execution`` on flat state.

        Re-executions overwrite with identical deterministic values, so
        only the first insertion can move the best-known minimum.
        """
        self._touch(b)
        ex = self.executed[b]
        if cid not in ex:
            ex[cid] = True
            size = self.cfg_sizes[cid]
            best = self.best_known[b].get(size)
            if (
                best is None
                or tot_energy < best[0]
                or (tot_energy == best[0] and cid < best[1])
            ):
                self.best_known[b][size] = (tot_energy, cid)

    def _preload_profiles(self) -> None:
        """Mirror of ``SchedulerSimulation._preload_profiles`` (§IV.B)."""
        store = self.store
        uses_predictor = self.policy.uses_predictor
        for name in store.names():
            b = self.bids[name]
            counters = store.counters(name)
            self._touch(b)
            self.profiled[b] = True
            if not uses_predictor:
                continue
            size = self.predictor.predict_size_kb(name, counters)
            if size <= 0:
                raise ValueError("predicted size must be positive")
            self.pred_raw[b] = size
            self.pred_size[b] = self._nearest_size(size)
            for size_kb in self.sizes_kb:
                # Preloading runs first, so every session starts here.
                session = TuningSession(size_kb=size_kb)
                self.sessions[(b, size_kb)] = session
                while not session.done:
                    config = session.next_config()
                    cid = self.cfg_ids.get(config)
                    est = self._est[b][cid] if cid is not None else None
                    if est is None:
                        # Surface the same KeyError the reference raises.
                        self.store.estimate(name, config)
                    self._record_execution(b, cid, est[3])
                    session.record(config, est[3])
                self.tuned[b].add(size_kb)
                self._touch(b)
