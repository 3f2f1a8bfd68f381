"""String-keyed registries: kernels, machine models, policies.

Everything the sweep engine can run is resolvable by name here, so a
scenario file (or a CLI invocation) is pure data:

* :data:`MACHINES` — named :class:`MachineSpec` presets, including
  NVM-style machines with asymmetric read/write energy costs (the
  Section-7 hardware the paper provisions for);
* :data:`KERNELS` — one :class:`~repro.lab.params.Kernel` record per
  kernel: its body ``run(machine, params) -> record`` (one flat,
  JSON-serializable record per scenario point), its declared
  parameters, the machine fields its records depend on, its metric
  fields and its optional batch entry.  It is the only name-keyed
  kernel table; :data:`TRACE_KERNELS` adds the trace protocol of the
  line-trace kernels;
* :data:`POLICIES` — the replacement-policy names a machine may use
  (:data:`repro.names.POLICIES`).

Every table here is declared without importing a kernel's
implementation: the trace builders, the cache hierarchy and the fastsim
folds load when a point first runs, so a cost-grid sweep loads of the
simulation stack only the single-cache simulator and the policies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.distributed.costmodel import HwParams, hw_param_key
from repro.lab.modelkernels import MODEL_KERNELS
from repro.lab.params import (BOOL, FLOAT, INT, POS, BatchKernel, Kernel,
                              Params, fits, multiples, opt)
from repro.lab.telemetry import active_trace
from repro.machine.cache import CacheSim, CacheStats
from repro.machine.fastsim.profile import phase as fs_phase
from repro.machine.trace import Trace
from repro.names import MATMUL_SCHEMES, POLICIES, SWEPT_POLICIES
from repro.util import canonical_int, require

if TYPE_CHECKING:
    from repro.machine.energy import EnergyModel
    from repro.machine.multicache import CacheHierarchySim

__all__ = [
    "MachineSpec",
    "MACHINES",
    "KERNELS",
    "POLICIES",
    "HwParams",
    "hw_overrides",
    "TraceKernel",
    "TRACE_KERNELS",
    "kernel_params",
    "machine_fields",
    "project_machine",
    "resolve_machine",
    "matmul_trace_payload",
    "matmul_lines",
    "matmul_capacity_words",
    "trace_group_payload",
    "check_point",
    "run_batch",
    "run_capacity_batch",
]


# --------------------------------------------------------------------- #
# machine models
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MachineSpec:
    """Declarative machine geometry + cost model for one scenario point.

    A spec describes either a single simulated cache level
    (``cache_words``) or, when ``levels`` is set, a
    :class:`~repro.machine.multicache.CacheHierarchySim` chain.  The four
    energy fields model the boundary below the simulated level(s);
    asymmetric ``read_slow``/``write_slow`` are the NVM machines of the
    paper's Section 7.

    ``hw`` carries the Section-7 analytic cost model: a tuple of sorted
    ``(field, value)`` overrides applied on top of the
    :class:`~repro.distributed.costmodel.HwParams` defaults.  ``None``
    means "the defaults"; the cost-model kernels (``cost-*``) resolve it
    via :meth:`hw_params`, and ``repro-lab sweep --hw KEY=VALUE`` edits it
    via :meth:`with_hw`.
    """

    name: str = "custom"
    cache_words: int = 3 * 24 * 24 + 4
    line_size: int = 4
    associativity: Optional[int] = None
    policy: str = "lru"
    seed: Optional[int] = None
    levels: Optional[Tuple[int, ...]] = None
    read_fast: float = 1.0
    write_fast: float = 1.0
    read_slow: float = 2.0
    write_slow: float = 2.0
    hw: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        # Every way to make a spec (construction, override, replace,
        # from_dict) validates here, so a bad field fails where the
        # request names it, not inside a kernel.
        require(isinstance(self.name, str),
                f"machine.name must be a string, got {self.name!r}")
        for name in ("cache_words", "line_size", "associativity"):
            value = getattr(self, name)
            require((name == "associativity" and value is None)
                    or fits(POS, value),
                    f"machine.{name} must be a positive integer, "
                    f"got {value!r}")
        require(self.levels is None
                or (isinstance(self.levels, (list, tuple)) and self.levels
                    and all(fits(POS, v) for v in self.levels)),
                f"machine.levels must be a list of positive integers, "
                f"got {self.levels!r}")
        require(isinstance(self.policy, str) and self.policy in POLICIES,
                f"unknown machine.policy {self.policy!r}; "
                f"available: {sorted(POLICIES)}")
        require(self.seed is None or fits(INT, self.seed),
                f"machine.seed must be an integer, got {self.seed!r}")
        for name in ("read_fast", "write_fast", "read_slow", "write_slow"):
            value = getattr(self, name)
            require(fits(FLOAT, value),
                    f"machine.{name} must be a finite number >= 0, "
                    f"got {value!r}")
        # Canonicalize the structured fields, so a hand-built spec (list
        # levels, int hw rates, dict hw) is indistinguishable from its
        # payload round-trip — in-process execution and pool workers
        # must produce identical records.
        if type(self.levels) is list:
            object.__setattr__(self, "levels", tuple(self.levels))
        if self.hw is not None:
            try:
                items = (self.hw.items() if isinstance(self.hw, Mapping)
                         else self.hw)
                hw = tuple(sorted((str(k), float(v)) for k, v in items))
            except (TypeError, ValueError):
                raise ValueError(f"machine.hw must map HwParams fields to "
                                 f"numbers, got {self.hw!r}") from None
            object.__setattr__(self, "hw", hw)
            bad = sorted(set(dict(hw)) - set(HwParams.__dataclass_fields__))
            require(not bad, f"unknown hw parameter(s) {bad}; available: "
                             f"{sorted(HwParams.__dataclass_fields__)}")
            self.hw_params().validate()

    def as_dict(self) -> Dict[str, Any]:
        # A manual flat copy: every field is a scalar or tuple, and
        # dataclasses.asdict's recursive deepcopy is measurable when a
        # 10^4-point sweep serializes every point's machine.
        d = dict(self.__dict__)
        if d["levels"] is not None:
            d["levels"] = list(d["levels"])
        if d["hw"] is not None:
            d["hw"] = {k: v for k, v in d["hw"]}
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MachineSpec":
        return cls(**d)

    def override(self, **changes: Any) -> "MachineSpec":
        require("hw" not in changes,
                "machine.hw cannot be overridden directly; adjust cost "
                "model parameters with --hw KEY=VALUE "
                "(MachineSpec.with_hw)")
        fields = sorted(MachineSpec.__dataclass_fields__)
        bad = sorted(set(changes) - set(fields))
        require(not bad,
                f"unknown machine field(s) {bad}; available: {fields}")
        return replace(self, **changes)

    def hw_params(self) -> HwParams:
        """The analytic :class:`HwParams` this spec describes: the 2015
        defaults with this spec's ``hw`` overrides applied."""
        return HwParams(**dict(self.hw or ()))

    def with_hw(self, **changes: float) -> "MachineSpec":
        """A copy with *changes* merged into the ``hw`` override set.

        Keys accept either ``HwParams`` attribute names (``beta_23``) or
        the paper's table labels (``β23``).  The merged parameter set
        must pass :meth:`HwParams.validate` (positive rates and sizes,
        ``M1 < M2 < M3``), so a bad value fails here, not in a kernel."""
        merged = dict(self.hw or ())
        valid = set(HwParams.__dataclass_fields__)
        for key, value in changes.items():
            attr = hw_param_key(key)
            require(attr in valid,
                    f"unknown hw parameter {key!r}; available: "
                    f"{sorted(valid)}")
            merged[attr] = float(value)
        return replace(self, hw=tuple(sorted(merged.items())))

    def energy_model(self) -> EnergyModel:
        from repro.machine.energy import EnergyModel

        return EnergyModel(
            read_fast=self.read_fast,
            write_fast=self.write_fast,
            read_slow=self.read_slow,
            write_slow=self.write_slow,
        )

    def make(self) -> Union[CacheSim, CacheHierarchySim]:
        """Instantiate the simulator this spec describes."""
        if self.levels is not None:
            from repro.machine.multicache import CacheHierarchySim

            return CacheHierarchySim(
                self.levels,
                line_size=self.line_size,
                policies=[self.policy] * len(self.levels),
                seed=self.seed,
            )
        return CacheSim(
            self.cache_words,
            line_size=self.line_size,
            policy=self.policy,
            associativity=self.associativity,
            seed=self.seed,
        )


#: Named machine presets.  Scenario grids may override any field with
#: ``machine.<field>`` grid keys (see :class:`repro.lab.scenarios.Scenario`).
MACHINES: Dict[str, MachineSpec] = {
    # The default simulated L3 of the Figure-2/5/sec-6 experiments.
    "sim-l3": MachineSpec(name="sim-l3", policy="lru"),
    # Nehalem-ish: the 3-bit clock approximation the paper measures.
    "clock-l3": MachineSpec(name="clock-l3", policy="clock"),
    # NVM tiers with asymmetric read/write word-energy (Section 7):
    # a 2015 PCM prototype (writes ~30x DRAM reads), a fast NVM part,
    # and battery-backed DRAM (symmetric) as the control.
    "nvm-pcm": MachineSpec(name="nvm-pcm", read_slow=4.0, write_slow=30.0),
    "nvm-fast": MachineSpec(name="nvm-fast", read_slow=2.0, write_slow=4.0),
    "battery-dram": MachineSpec(name="battery-dram",
                                read_slow=2.0, write_slow=2.0),
    # A small three-level hierarchy for multi-level WA studies.
    "three-level": MachineSpec(name="three-level",
                               levels=(256, 1024, 4096), line_size=4),
    # Section-7 analytic cost models (HwParams presets) for the cost-*
    # kernels: the paper's 2015-era node (NVM writes 20x the network),
    # the Model-2.2 out-of-L2 regime (small M1/M2, Table 2's default),
    # and a symmetric battery-backed-DRAM control.
    "hw-2015": MachineSpec(name="hw-2015", hw=()),
    "hw-ool2": MachineSpec(name="hw-ool2",
                           hw=(("M1", 2.0**8), ("M2", 2.0**14))),
    "hw-sym": MachineSpec(name="hw-sym",
                          hw=(("beta_23", 4.0), ("beta_32", 4.0))),
}


def hw_overrides(hw: Optional[HwParams]
                 ) -> Optional[Tuple[Tuple[str, float], ...]]:
    """A :attr:`MachineSpec.hw` override tuple pinning every field of
    *hw* (``None`` passes through: the machine keeps the defaults)."""
    if hw is None:
        return None
    return tuple(sorted((k, float(v)) for k, v in asdict(hw).items()))


def resolve_machine(machine: Union[str, MachineSpec, Mapping[str, Any]],
                    ) -> MachineSpec:
    """Accept a preset name, a spec, or a plain dict; return a spec."""
    if isinstance(machine, MachineSpec):
        return machine
    if isinstance(machine, str):
        try:
            return MACHINES[machine]
        except KeyError:
            raise ValueError(
                f"unknown machine {machine!r}; available: {sorted(MACHINES)}"
            ) from None
    return MachineSpec.from_dict(machine)


# --------------------------------------------------------------------- #
# trace-kernel protocol
# --------------------------------------------------------------------- #
# Trace-parameter canonicalization (np.int64 grid axes -> plain int, so
# payloads stay JSON-able and CacheSim validation is satisfied).
_as_int = canonical_int


@dataclass(frozen=True)
class TraceKernel:
    """Declarative protocol entry for a line-trace kernel.

    A trace kernel is any registry kernel whose record is a pure function
    of a finalized :class:`~repro.machine.trace.Trace` (determined by the
    trace parameters alone) replayed through one simulated
    fully-associative cache level.  Declaring the ingredients — trace
    identity, trace builder, capacity, write floor — instead of
    hard-coding them per kernel lets the engine share work mechanically:
    the executor makes one task of every point of one trace
    (:func:`trace_group_payload`), and :func:`run_capacity_batch` builds
    the trace once for all of them.  Its fully-associative LRU,
    Belady, clock and segmented-LRU points replay it through one
    :func:`repro.machine.fastsim.sweep`, which folds at super-symbol
    granularity when the trace's tile chunks symbolize; the others
    replay it once per distinct simulation.  A point run on its own
    (:meth:`run`) is a batch of one, so it takes the same path.  Energy
    fields and other non-trace params never split a simulation:
    :meth:`record` costs the counters per point.
    """

    name: str
    #: the parameters the payload and capacity rules read; the request
    #: check refuses any other key, which would enter the record and
    #: the cache key without shaping the simulation.
    params: Params
    #: (machine, params) -> canonical JSON-able trace identity.
    payload: Callable[[MachineSpec, Mapping[str, Any]], Dict[str, Any]]
    #: trace identity -> finalized :class:`~repro.machine.trace.Trace`.
    build: Callable[[Mapping[str, Any]], Trace]
    #: (machine, params) -> simulated capacity in words.
    capacity_words: Callable[[MachineSpec, Mapping[str, Any]], int]
    #: (machine, params) -> the paper's write lower bound, in lines.
    write_lb: Callable[[MachineSpec, Mapping[str, Any]], int]

    def trace(self, machine: MachineSpec, params: Mapping[str, Any]
              ) -> Trace:
        """Finalized :class:`~repro.machine.trace.Trace`, built from the
        point's trace identity.  Its arrays are read-only: the
        simulations of one task share them."""
        spec = self.payload(machine, params)
        with fs_phase("trace_build"):
            trace = self.build(spec)
        for arr in trace:
            if arr is not None:
                arr.flags.writeable = False
        return trace

    def lines(self, machine: MachineSpec, params: Mapping[str, Any]
              ) -> Tuple[Any, Any]:
        """Finalized ``(lines, writes)`` of :meth:`trace`."""
        return self.trace(machine, params).pair()

    def record(self, machine: MachineSpec, params: Mapping[str, Any],
               st: "CacheStats") -> Dict[str, Any]:
        """One flat record (the same shape for every trace kernel)."""
        return {
            "accesses": st.accesses,
            "hits": st.hits,
            "misses": st.misses,
            "fills": st.fills,
            "victims_m": st.victims_m,
            "victims_e": st.victims_e,
            "flush_writebacks": st.flush_writebacks,
            "writebacks": st.writebacks,
            "write_lb": self.write_lb(machine, params),
            "energy": machine.energy_model().cache_boundary(
                st, machine.line_size),
        }

    def check(self, machine: MachineSpec, params: Mapping[str, Any]) -> int:
        """Raise ``ValueError`` naming the field unless the point's
        machine fits it (the declaration's ``fit``): one level, whose
        capacity fills whole lines and sets, fully associative under
        Belady.  Returns the capacity in words."""
        require(machine.levels is None,
                f"{self.name} simulates a single cache level; "
                f"machines with `levels` need a hierarchy kernel")
        require(machine.policy != "belady" or machine.associativity is None,
                f"machine.associativity={machine.associativity}: belady "
                f"simulates the fully-associative ideal cache; leave "
                f"machine.associativity unset")
        cap_words = int(self.capacity_words(machine, params))
        require(cap_words % machine.line_size == 0,
                f"capacity_words={cap_words} must be a multiple of "
                f"line_size={machine.line_size}")
        cap_lines = cap_words // machine.line_size
        require(machine.associativity is None
                or cap_lines % machine.associativity == 0,
                f"capacity ({cap_lines} lines) must be a multiple of "
                f"associativity ({machine.associativity})")
        return cap_words

    def run(self, machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The per-point path: a batch of one point
        (:func:`run_capacity_batch`), so a point runs the same
        simulation batched or not."""
        return run_capacity_batch(self.name, [(machine, params)])[0]


# ----------------------------- matmul ---------------------------------- #
#: a matmul-cache point; ``l`` (the second outer dimension) defaults to
#: ``n``, and ``cache_blocks`` (the capacity in b3-blocks, as Section 6
#: counts it) overrides ``machine.cache_words``.
_MATMUL = Params.of(n=POS, middle=POS, scheme=MATMUL_SCHEMES, l=opt(POS),
                    b3=opt(POS, 64), b2=opt(POS, 16), base=opt(POS, 8),
                    c_touch_hint=opt(BOOL, False), cache_blocks=opt(POS))


def matmul_trace_payload(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """The trace-identity of a matmul-cache point: every parameter that
    shapes the generated access sequence — and nothing capacity-related,
    so all points of a capacity sweep share one trace.  The scheme enters as the task ``order`` it resolves to
    (:func:`repro.core.traces.matmul_order`), not as its name, so two
    schemes with one order (``wa2``, ``ab-multilevel``) share a trace."""
    from repro.core.traces import matmul_order

    p = _MATMUL.resolve(params)
    return {
        "family": "matmul",
        "n": p["n"],
        "middle": p["middle"],
        "l": p["l"] or p["n"],
        "order": [list(level) for level in
                  matmul_order(p["scheme"], p["b3"], p["b2"], p["base"])],
        "b3": p["b3"],
        "b2": p["b2"],
        "base": p["base"],
        "line_size": machine.line_size,
        "c_touch_hint": p["c_touch_hint"],
    }


def _build_matmul(spec: Mapping[str, Any]) -> Trace:
    from repro.core.traces import matmul_order_trace

    buf = matmul_order_trace(
        spec["n"], spec["middle"], spec["l"], spec["order"],
        b3=spec["b3"],
        b2=spec["b2"],
        line_size=spec["line_size"],
        c_touch_hint=spec["c_touch_hint"],
    )
    return buf.finalize_trace()


def matmul_capacity_words(machine: MachineSpec, params: Mapping[str, Any]) -> int:
    """Simulated capacity of a matmul-cache point, in words
    (``cache_blocks`` counts b3-blocks, as Section 6 sizes caches)."""
    p = _MATMUL.resolve(params)
    if p["cache_blocks"] is None:
        return machine.cache_words
    return p["cache_blocks"] * p["b3"] * p["b3"] + machine.line_size


def _matmul_write_lb(machine: MachineSpec, params: Mapping[str, Any]) -> int:
    p = _MATMUL.resolve(params)
    return p["n"] * (p["l"] or p["n"]) // machine.line_size


# ------------------------ TRSM / Cholesky / N-body --------------------- #
def _build_trsm(spec: Mapping[str, Any]) -> Trace:
    from repro.core.traces import trsm_trace

    return trsm_trace(spec["n"], spec["m"], b=spec["b"],
                      line_size=spec["line_size"]).finalize_trace()


def _build_cholesky(spec: Mapping[str, Any]) -> Trace:
    from repro.core.traces import cholesky_trace

    return cholesky_trace(spec["n"], b=spec["b"],
                          line_size=spec["line_size"]).finalize_trace()


def _build_nbody(spec: Mapping[str, Any]) -> Trace:
    from repro.core.traces import nbody_trace

    return nbody_trace(spec["n"], b=spec["b"],
                       line_size=spec["line_size"]).finalize_trace()


def trsm_trace_payload(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "family": "trsm",
        "n": _as_int(params["n"], "n"),
        "m": _as_int(params["m"], "m"),
        "b": _as_int(params["b"], "b"),
        "line_size": machine.line_size,
    }


def cholesky_trace_payload(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "family": "cholesky",
        "n": _as_int(params["n"], "n"),
        "b": _as_int(params["b"], "b"),
        "line_size": machine.line_size,
    }


def nbody_trace_payload(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "family": "nbody",
        "n": _as_int(params["n"], "n"),
        "b": _as_int(params["b"], "b"),
        "line_size": machine.line_size,
    }


def _cache_blocks(params: Mapping[str, Any]) -> Optional[int]:
    """The point's ``cache_blocks`` (``None``: the machine's
    ``cache_words`` sizes the cache)."""
    blocks = params.get("cache_blocks")
    return None if blocks is None else _as_int(blocks, "cache_blocks")


def _block_squared_capacity(machine: MachineSpec, params: Mapping[str, Any]) -> int:
    """``cache_blocks`` b×b matrix blocks plus the paper's spare line."""
    blocks = _cache_blocks(params)
    if blocks is None:
        return machine.cache_words
    b = _as_int(params["b"], "b")
    return blocks * b * b + machine.line_size


def _block_vector_capacity(machine: MachineSpec, params: Mapping[str, Any]) -> int:
    """``cache_blocks`` b-particle vector blocks plus the spare line."""
    blocks = _cache_blocks(params)
    if blocks is None:
        return machine.cache_words
    return blocks * _as_int(params["b"], "b") + machine.line_size


#: Every line-trace kernel the engine can batch, by registry name.
TRACE_KERNELS: Dict[str, TraceKernel] = {tk.name: tk for tk in (
    TraceKernel(
        name="matmul-cache",
        params=_MATMUL,
        payload=matmul_trace_payload,
        build=_build_matmul,
        capacity_words=matmul_capacity_words,
        write_lb=_matmul_write_lb,
    ),
    TraceKernel(
        name="trsm-cache",
        # cache_blocks: the capacity in b×b blocks plus a spare line
        # (Proposition 6.2 needs five).
        params=Params.of(multiples("b", "n", "m"), n=POS, m=POS, b=POS,
                         cache_blocks=opt(POS)),
        payload=trsm_trace_payload,
        build=_build_trsm,
        capacity_words=_block_squared_capacity,
        # Proposition 6.2: write-backs = the n×m output.
        write_lb=lambda machine, params: (
            _as_int(params["n"], "n") * _as_int(params["m"], "m")
            // machine.line_size),
    ),
    TraceKernel(
        name="cholesky-cache",
        params=Params.of(multiples("b", "n"), n=POS, b=POS,
                         cache_blocks=opt(POS)),
        payload=cholesky_trace_payload,
        build=_build_cholesky,
        capacity_words=_block_squared_capacity,
        # Lower-triangle output, full diagonal blocks: n(n+b)/2 words.
        write_lb=lambda machine, params: (
            _as_int(params["n"], "n")
            * (_as_int(params["n"], "n") + _as_int(params["b"], "b"))
            // 2 // machine.line_size),
    ),
    TraceKernel(
        name="nbody-cache",
        # cache_blocks: b-particle blocks plus a spare line (three
        # suffice: P(i), F(i) and the streamed P(j)).
        params=Params.of(multiples("b", "n"), n=POS, b=POS,
                         cache_blocks=opt(POS)),
        payload=nbody_trace_payload,
        build=_build_nbody,
        capacity_words=_block_vector_capacity,
        # The N force words are the only obligatory writes.
        write_lb=lambda machine, params: (
            _as_int(params["n"], "n") // machine.line_size),
    ),
)}


def matmul_lines(machine: MachineSpec, params: Mapping[str, Any]
                 ) -> Tuple[Any, Any]:
    """Finalized ``(lines, writes)`` for a matmul-cache point."""
    return TRACE_KERNELS["matmul-cache"].lines(machine, params)


def kernel_matmul_cache(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """One matmul instruction order through one simulated cache level."""
    return TRACE_KERNELS["matmul-cache"].run(machine, params)


def kernel_trsm_cache(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Two-level WA TRSM line trace (Algorithm 2) through one cache level
    (``n`` the triangular dimension, ``m`` the right-hand sides)."""
    return TRACE_KERNELS["trsm-cache"].run(machine, params)


def kernel_cholesky_cache(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Left-looking WA Cholesky line trace (Alg. 3) through one cache level."""
    return TRACE_KERNELS["cholesky-cache"].run(machine, params)


def kernel_nbody_cache(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Blocked direct (N,2)-body line trace (Alg. 4) through one cache level."""
    return TRACE_KERNELS["nbody-cache"].run(machine, params)


def _is_swept(machine: MachineSpec) -> bool:
    """Whether *machine* simulates a fully-associative cache with a
    :func:`repro.machine.fastsim.sweep` fold.  A trace's points under
    any other policy (FIFO, random), or set-associative ones, get one
    :class:`~repro.machine.cache.CacheSim` replay per distinct (policy,
    capacity, associativity, seed)."""
    return (machine.policy in SWEPT_POLICIES
            and machine.associativity is None)


def run_capacity_batch(
    kernel: str,
    group: Sequence[Tuple[MachineSpec, Mapping[str, Any]]],
) -> List[Dict[str, Any]]:
    """Every point of one trace from a *single* trace build.

    Every ``(machine, params)`` pair must share the trace identity
    (``TRACE_KERNELS[kernel].payload``) and simulate one cache level.
    The fully-associative points under a policy in
    :data:`~repro.machine.cache.SWEPT_POLICIES`, whatever their
    capacities, ride one :func:`repro.machine.fastsim.sweep` call;
    every other point (FIFO, random, set-associative) shares one
    :class:`~repro.machine.cache.CacheSim` replay plus flush with the
    points of its policy, capacity, associativity and seed.  Each point
    then gets its record from its own machine and params (energy,
    write floor): the same record the per-point kernel would have
    computed, bit-identical, enforced by the equivalence tests.
    """
    try:
        tk = TRACE_KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"kernel {kernel!r} is not a trace kernel; "
            f"available: {sorted(TRACE_KERNELS)}"
        ) from None
    machine0, params0 = group[0]
    caps_words = [tk.check(machine, params) for machine, params in group]
    spec0 = tk.payload(machine0, params0)
    require(all(tk.payload(machine, params) == spec0
                for machine, params in group[1:]),
            "capacity batch mixes different trace configurations")
    caps_by_policy: Dict[str, List[int]] = {}
    replays: Dict[Tuple[Any, ...], List[int]] = {}
    for i, ((machine, _), cap) in enumerate(zip(group, caps_words)):
        if _is_swept(machine):
            caps_by_policy.setdefault(machine.policy, []).append(
                cap // machine.line_size)
        else:
            replays.setdefault((machine.policy, cap, machine.associativity,
                                machine.seed), []).append(i)
    trace = tk.trace(machine0, params0)
    tel = active_trace()
    if tel is not None:
        tel.counter("trace.events", trace.n_events, kernel=tk.name)
    stats: Dict[int, CacheStats] = {}
    for indices in replays.values():
        machine, _ = group[indices[0]]
        sim = machine.override(cache_words=caps_words[indices[0]]).make()
        assert isinstance(sim, CacheSim)
        sim.run_trace(trace)
        st = sim.flush()
        for i in indices:
            stats[i] = st
    if caps_by_policy:
        from repro.machine.fastsim.dispatch import sweep

        sweeps = sweep(trace, caps_by_policy)
        if tel is not None:
            n_symbols = next(iter(sweeps.values())).n_symbols
            if n_symbols is not None:
                tel.counter("trace.symbols", n_symbols, kernel=tk.name)
        for i, ((machine, _), cap) in enumerate(zip(group, caps_words)):
            if _is_swept(machine):
                stats[i] = sweeps[machine.policy].stats(
                    cap // machine.line_size, include_flush=True)
    return [tk.record(machine, params, stats[i])
            for i, (machine, params) in enumerate(group)]


def trace_group_payload(tk: TraceKernel, machine: MachineSpec,
                        params: Mapping[str, Any]
                        ) -> Optional[Dict[str, Any]]:
    """The identity shared by trace-kernel points that ride one task:
    the trace they replay (``tk.payload``).  Capacity, policy,
    associativity, seed and energy never split a task; the task splits
    its points into simulations itself (:func:`run_capacity_batch`).
    ``None`` marks a point that fails :meth:`TraceKernel.check`, so it
    runs, and fails, on its own."""
    try:
        tk.check(machine, params)
        return tk.payload(machine, params)
    except (KeyError, TypeError, ValueError):
        return None


#: every spec field a single-level trace kernel consumes: the simulated
#: geometry and policy plus the four boundary energies of its record
#: (``levels`` is read to *reject* hierarchies, so it stays relevant).
_TRACE_MACHINE_FIELDS: Tuple[str, ...] = (
    "associativity", "cache_words", "levels", "line_size", "policy",
    "read_fast", "read_slow", "seed", "write_fast", "write_slow",
)

#: the headline counters of a single-level trace-kernel record.
_TRACE_METRIC_FIELDS: Tuple[str, ...] = ("misses", "writebacks", "fills",
                                         "energy")


def _trace_kernel(name: str, run: Callable[[MachineSpec, Mapping[str, Any]],
                                           Dict[str, Any]]) -> Kernel:
    """The record of trace kernel *name*: its parameters checked against
    the machine by :meth:`TraceKernel.check`, and one batched task per
    distinct trace."""
    tk = TRACE_KERNELS[name]
    return Kernel(run, replace(tk.params, fit=tk.check),
                  _TRACE_MACHINE_FIELDS, _TRACE_METRIC_FIELDS,
                  batch=BatchKernel("multi_capacity",
                                    partial(trace_group_payload, tk),
                                    partial(run_capacity_batch, name)))


def _needs_levels(machine: MachineSpec, params: Mapping[str, Any]) -> None:
    require(machine.levels is not None,
            "matmul-hierarchy needs a machine with `levels`")
    require(machine.policy != "belady",
            "machine.policy=belady: a hierarchy simulates its levels "
            "access by access, and belady is offline; pick an online "
            "policy")


#: matmul-cache's parameters with this kernel's own blocking defaults,
#: and no ``cache_blocks`` (the machine's levels size the caches).
_HIERARCHY = Params.of(fit=_needs_levels, n=POS, middle=POS,
                       scheme=MATMUL_SCHEMES, l=opt(POS), b3=opt(POS, 16),
                       b2=opt(POS, 8), base=opt(POS, 4),
                       c_touch_hint=opt(BOOL, False))


def kernel_matmul_hierarchy(machine: MachineSpec, params: Mapping[str, Any]) -> Dict[str, Any]:
    """One matmul order through a multi-level cache hierarchy.

    Reports per-boundary fills/write-backs and the backing-store traffic,
    costed with the machine's (possibly asymmetric) slow-side energies.
    """
    _needs_levels(machine, params)
    p = _HIERARCHY.resolve(params)
    lines, writes = matmul_lines(machine, p)
    hier = machine.make()
    hier.run_lines(lines, writes)
    hier.flush()
    rec: Dict[str, Any] = {}
    for i in range(len(machine.levels)):
        st = hier.stats(i)
        rec[f"L{i + 1}_fills"] = st.fills
        rec[f"L{i + 1}_writebacks"] = st.writebacks
    rec["backing_reads"] = hier.backing_reads
    rec["backing_writes"] = hier.backing_writes
    rec["write_lb"] = p["n"] * (p["l"] or p["n"]) // machine.line_size
    rec["energy"] = machine.line_size * (
        hier.backing_reads * machine.read_slow
        + hier.backing_writes * machine.write_slow
    )
    return rec


#: Every kernel the engine can run, by name.  Each record's
#: ``machine_fields`` is the machine half of a point's cache identity
#: (:func:`project_machine`), so same-params points under differently
#: named machines, or machines differing only in fields the kernel
#: never reads, share one cache entry; ``repro-lab check`` (R1) holds
#: each declaration to the fields the kernel's call graph reads.
KERNELS: Dict[str, Kernel] = {
    "matmul-cache": _trace_kernel("matmul-cache", kernel_matmul_cache),
    "trsm-cache": _trace_kernel("trsm-cache", kernel_trsm_cache),
    "cholesky-cache": _trace_kernel("cholesky-cache", kernel_cholesky_cache),
    "nbody-cache": _trace_kernel("nbody-cache", kernel_nbody_cache),
    # `associativity` and `cache_words` are statically reachable through
    # MachineSpec.make's single-level branch (`levels` is required, so
    # that branch never runs for this kernel) — declared anyway: extra
    # projection fields only split cache entries, never serve stale ones.
    "matmul-hierarchy": Kernel(
        kernel_matmul_hierarchy, _HIERARCHY,
        machine_fields=("associativity", "cache_words", "levels",
                        "line_size", "policy", "read_slow", "seed",
                        "write_slow"),
        metric_fields=("backing_reads", "backing_writes", "energy")),
    # The cost-model, distributed, Krylov and Section 3-5 kernels
    # (repro.lab.modelkernels).
    **MODEL_KERNELS,
}


def machine_fields(kernel: str) -> Tuple[str, ...]:
    """The machine fields *kernel* declares it reads.  An unknown
    kernel raises ``KeyError`` naming the registered ones: a typo'd
    name must not key on some other kernel's fields."""
    try:
        return KERNELS[kernel].machine_fields
    except KeyError:
        raise KeyError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNELS)}"
        ) from None


def project_machine(spec: MachineSpec, kernel: str) -> Dict[str, Any]:
    """*spec* reduced to the fields *kernel* reads, as a JSON-able dict.

    This is the machine half of a point's cache identity: fields the
    kernel never reads (always including ``name``) drop out, and an
    ``hw`` of ``None`` canonicalizes to the empty override set —
    :meth:`MachineSpec.hw_params` treats the two identically, so they
    must key identically too.
    """
    d = spec.as_dict()
    proj = {name: d[name] for name in sorted(machine_fields(kernel))}
    if "hw" in proj and proj["hw"] is None:
        proj["hw"] = {}
    return proj


def kernel_params(kernel: str) -> Params:
    """The declared parameters of *kernel*; an unknown kernel raises
    ``ValueError`` naming the registered ones."""
    require(kernel in KERNELS,
            f"unknown kernel {kernel!r}; available: {sorted(KERNELS)}")
    return KERNELS[kernel].params


def takes(kernel: str, key: str) -> bool:
    """Whether *kernel* declares parameter *key*."""
    return key in kernel_params(kernel).params


def check_point(kernel: str, machine: MachineSpec,
                params: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming the field unless the point can run:
    its params fit the kernel's declaration and its machine fits the
    kernel — at request time, not first inside the run."""
    kernel_params(kernel).check(kernel, machine, params)


def run_batch(kernel: str,
              group: Sequence[Tuple[MachineSpec, Mapping[str, Any]]]
              ) -> List[Dict[str, Any]]:
    """Evaluate one planned batch through its kernel's batch entry."""
    batch = KERNELS[kernel].batch
    if batch is None:
        raise ValueError(
            f"kernel {kernel!r} has no batch evaluator; available: "
            f"{sorted(name for name, k in KERNELS.items() if k.batch)}")
    return batch.run(group)
