"""The three serving workloads of the end-to-end benchmark.

Each ``run_*`` function builds its whole stack from the seed (timed as
set-up), serves the generated inputs (timed as serving), and then checks
every output outside the timed region. It returns one plain dict:

* ``setup_times_s`` / ``serve_s`` / ``speed`` — wall seconds of each
  repeated set-up (scaled to the reference speed) and of the measured
  serving (raw), and the machine's speed over the serving relative to
  the reference (see :class:`WallMeter`);
* ``offered`` — requests offered in the measured serving;
* ``virtual`` — the end-to-end metrics on the virtual clock (a pure
  function of the seed);
* ``layers`` — per-layer counts and virtual-time figures (no wall time);
* ``checks`` — ``(name, passed, detail)`` output checks;
* ``info`` — counts the report prints (completed, denied, samples past
  p99).

Wall time is read here, in the benchmark, never inside ``src/repro``.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from collections import Counter

import numpy as np

from repro.core.client import DLHubClient
from repro.core.fleet import (
    FleetController,
    FleetPlan,
    FleetPolicy,
    PredictiveScaling,
    TargetUtilizationPolicy,
)
from repro.core.obsloop import (
    AdaptiveSampler,
    AlertEngine,
    BurnRateRule,
    ObservabilityLoop,
    ReactiveSLOPolicy,
    SeriesStore,
)
from repro.core.pipeline import Pipeline
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.telemetry import SLOBurnMonitor, Tracer, build_hub
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.durability.codec import decode_body
from repro.durability.journal import Journal
from repro.durability.recovery import load_state
from repro.durability.store import FileDurableStore
from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable
from repro.gateway.admission import AdmissionOutcome
from repro.matsci.composition import Composition

#: Set-ups timed per repetition (the last one serves): set-up takes a
#: tenth of a second to a third, so one timing alone is mostly noise.
SETUP_REPEATS = 11
#: Serve-loop iterations (open loop) and operations (closed loop) between
#: speed probes, and the probe slice's time at the reference speed that
#: wall metrics are scaled to (its median on the 2-vCPU Xeon box this
#: benchmark was sized on).
CUT_TICKS = 200
SESSION_CUT_OPS = 50
REF_SLICE_S = 0.8e-3
#: Probe slices after each timed set-up.
SETUP_PROBES = 5
#: Latency limit for goodput and for the capacity ladder: the
#: ``SLOBurnMonitor`` default SLO.
SLO_S = 0.250
#: Elements the unique ``matminer_util`` formulas are drawn from.
FORMULA_ELEMENTS = (
    "H", "Li", "C", "N", "O", "F", "Na", "Mg", "Al", "Si",
    "P", "S", "Cl", "K", "Ca", "Ti", "Fe", "Cu", "Zn", "Ba",
)
NOOP_VALUE = "hello world"
DENIAL_OUTCOMES = tuple(
    o.value for o in AdmissionOutcome if o is not AdmissionOutcome.ADMITTED
)

# -- tenant_steady ---------------------------------------------------------------
STEADY_TENANTS = 16
STEADY_WORKERS = 4
STEADY_NOOP_SHARE = 0.5
STEADY_WARMUP = (2.0, 300.0)  # (duration_s, rate_rps)
STEADY_NOMINAL = (16.0, 300.0)
#: Capacity ladder: each rung is (rate_rps), served for LADDER_RUNG_S
#: and drained on its own, ascending until the first rung that fails.
LADDER_RPS = (400.0, 450.0, 500.0, 550.0, 600.0, 650.0, 700.0, 750.0, 800.0)
LADDER_RUNG_S = 2.0
#: A rung's backlog "grows" when the median latency of its last quarter
#: of arrivals exceeds the first quarter's by more than this.
BACKLOG_GROWTH_S = 0.050

# -- flash_crowd -----------------------------------------------------------------
FLASH_INITIAL_WORKERS = 2
FLASH_MAX_WORKERS = 6
#: Copies of the one servable at start: one, so the controller's first
#: reconcile (which sees no traffic yet) has nothing to remove.
FLASH_INITIAL_COPIES = 1
#: (duration_s, total rate_rps) of the warm-up and of each measured
#: phase; arrivals are evenly spaced. The quiet -> spike -> recovery
#: cycle repeats FLASH_CYCLES times, with a recovery long enough for the
#: fleet to shrink back before the next spike.
FLASH_WARMUP = (5.0, 80.0)
FLASH_PHASES = (("quiet", 2.0, 65.0), ("spike", 4.0, 500.0), ("recovery", 7.0, 65.0))
FLASH_CYCLES = 4
FLASH_NOOP_SHARE = 0.0
#: Every tenant's admitted load is bounded, each by a different valve.
FLASH_POLICIES = (
    TenantPolicy(name="lab0", weight=2.0, max_queued=32),
    TenantPolicy(name="lab1", rate_limit_rps=30.0),
    TenantPolicy(name="lab2", max_in_flight=8),
    TenantPolicy(name="lab3", servable_quotas={"matminer_util": 6}),
    TenantPolicy(name="lab4", rate_limit_rps=60.0),
    TenantPolicy(name="lab5", rate_limit_rps=60.0),
)
#: Arrivals per sender in every shuffled block of 100 measured arrivals;
#: the last two carry a bad token and an identity bound to no tenant
#: (the warm-up uses the tenants' counts only). Exact counts per block,
#: not independent draws, keep each tenant's local load, and so what the
#: spike admits, alike from seed to seed: independent draws spread
#: ``lat_p50_ms`` twice as far across seeds.
FLASH_BLOCK = (
    ("lab0", 39), ("lab1", 15), ("lab2", 15), ("lab3", 10), ("lab4", 10), ("lab5", 9),
    ("<bad-token>", 1), ("<unknown>", 1),
)

# -- science_session -------------------------------------------------------------
SESSION_OPS = 6000
#: The session's set-up trains the forest and builds six images: fewer
#: timed repeats keep a repetition short.
SESSION_SETUP_REPEATS = 8
#: Invocation mix of the closed loop (shares of the invocations).
SESSION_MIX = (("run", 0.74), ("batch", 0.10), ("pipeline", 0.16))
#: Every SESSION_REPO_EVERY-th operation is a repository write or read,
#: cycling publish (a new version) -> search -> describe: 3% of operations.
SESSION_REPO_EVERY = 33
SESSION_REPO_OPS = ("publish", "search", "describe")
SESSION_BATCH_SIZE = 4
SESSION_BATCH_SERVABLES = ("cifar10", "matminer_util", "matminer_model")
#: Draws per distinct input at which uniform picks hit the memo cache
#: half the time: the x solving (1 - exp(-x)) / x = 1/2.
SESSION_DRAWS_PER_INPUT = 1.594


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------
def uniform_offsets(rate_rps: float, duration_s: float, start_s: float = 0.0) -> list[float]:
    """Evenly spaced arrival offsets in ``[start_s, start_s + duration_s)``."""
    return [start_s + i / rate_rps for i in range(int(rate_rps * duration_s))]


def poisson_offsets(rng, rate_rps: float, duration_s: float, start_s: float = 0.0) -> list[float]:
    """Open-loop Poisson arrival offsets in ``[start_s, start_s + duration_s)``."""
    n_max = int(rate_rps * duration_s * 1.5) + 32
    gaps = rng.exponential(1.0 / rate_rps, size=n_max)
    times = start_s + np.cumsum(gaps)
    return [float(t) for t in times[times < start_s + duration_s]]


class FormulaSource:
    """Unique ternary formulas drawn without replacement from the seed."""

    def __init__(self, rng) -> None:
        n = len(FORMULA_ELEMENTS)
        self._triples = [
            (a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
        ]
        self._order = rng.permutation(len(self._triples) * 729)
        self._next = 0

    def take(self) -> str:
        code = int(self._order[self._next])
        self._next += 1
        a, b, c = self._triples[code // 729]
        counts = (code % 9 + 1, code // 9 % 9 + 1, code // 81 % 9 + 1)
        return "".join(
            f"{FORMULA_ELEMENTS[el]}{k}" for el, k in zip((a, b, c), counts)
        )


def expected_value(servable: str, args: tuple):
    """What a correct stack returns for the open-loop servables."""
    if servable == "noop":
        return NOOP_VALUE
    return Composition.parse(args[0]).fractions()


def block_senders(rng, n: int, block) -> list[str]:
    """``n`` sender names: successive shuffles of ``block``'s
    ``(name, count)`` pairs, so every block carries the exact counts."""
    unit = [name for name, count in block for _ in range(count)]
    out: list[str] = []
    while len(out) < n:
        out += [unit[i] for i in rng.permutation(len(unit))]
    return out[:n]


def open_loop_requests(rng, formulas: FormulaSource, offsets, senders, noop_share):
    """``(offset, sender, request)`` for arrivals at ``offsets`` from
    ``senders``; ``noop_share`` of requests go to ``noop``, the rest to
    ``matminer_util``. Every input is unique."""
    kinds = rng.random(len(offsets))
    out = []
    for offset, sender, kind in zip(offsets, senders, kinds):
        if kind < noop_share:
            request = TaskRequest("noop", args=(formulas.take(),))
        else:
            request = TaskRequest("matminer_util", args=(formulas.take(),))
        out.append((offset, sender, request))
    return out


# ---------------------------------------------------------------------------
# Shared gateway stack
# ---------------------------------------------------------------------------
class HoldPolicy(FleetPolicy):
    """Plans the fleet exactly as it stands: an observe-only controller."""

    name = "hold"

    def plan(self, observation) -> FleetPlan:
        return FleetPlan(
            target_workers=observation.routable_workers,
            copies={d.name: d.live_copies for d in observation.demands},
        )


_PROBE_MATRIX = np.random.default_rng(0).random((96, 96))


def probe_slice() -> float:
    """Wall seconds of one fixed slice of interpreter and numpy work."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    for _ in range(6):
        _PROBE_MATRIX.dot(_PROBE_MATRIX)
    return time.perf_counter() - t0


class WallMeter:
    """Serving wall time with the machine's speed sampled alongside.

    At every :meth:`cut` (every CUT_TICKS serve-loop iterations, or every
    SESSION_CUT_OPS operations) the meter runs one :func:`probe_slice`,
    timed apart from the serving. ``speed`` is the probes' mean time over
    REF_SLICE_S, so ``serve_s / speed`` is the serving time scaled to the
    reference speed: a slow spell of a shared machine stretches serving
    and probes alike.
    """

    def __init__(self, recorder=None) -> None:
        self.serve_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        #: A span recorder to keep probe time out of (traced runs only).
        self.recorder = recorder
        self._last: float | None = None

    def start(self) -> None:
        self._last = time.perf_counter()

    def cut(self) -> None:
        if self._last is None:
            return
        self.serve_s += time.perf_counter() - self._last
        probe_s = probe_slice()
        if self.recorder is not None:
            self.recorder.exclude(probe_s)
        self.probe_s += probe_s
        self.probes += 1
        self._last = time.perf_counter()

    def stop(self) -> None:
        self.cut()
        self._last = None

    @property
    def speed(self) -> float:
        return self.probe_s / (self.probes * REF_SLICE_S)

    def report(self) -> dict:
        return {"serve_s": self.serve_s, "speed": self.speed}


class ControllerMux:
    """Ticks the observability loop, then the fleet controller, off the
    runtime's one controller slot; logs the live worker count and cuts
    the wall meter."""

    def __init__(self, runtime, *controllers) -> None:
        self.runtime = runtime
        self.controllers = controllers
        self.meter = WallMeter()
        self._ticks = 0
        #: ``(virtual time, live workers from then on)`` at each change.
        self.timeline = [(runtime.clock.now(), len(runtime.alive_workers()))]

    def next_wakeup(self) -> float:
        return min(c.next_wakeup() for c in self.controllers)

    def on_tick(self) -> None:
        for controller in self.controllers:
            controller.on_tick()
        alive = len(self.runtime.alive_workers())
        if alive != self.timeline[-1][1]:
            self.timeline.append((self.runtime.clock.now(), alive))
        self._ticks += 1
        if self._ticks % CUT_TICKS == 0:
            self.meter.cut()

    def worker_s(self, start: float, end: float) -> float:
        """Worker-seconds provisioned over ``[start, end]`` (virtual)."""
        total = 0.0
        bounds = self.timeline[1:] + [(end, None)]
        for (t0, alive), (t1, _) in zip(self.timeline, bounds):
            lo, hi = max(t0, start), min(t1, end)
            if hi > lo:
                total += alive * (hi - lo)
        return total


class SettleCounter:
    """Counts every settlement the runtime hands the gateway, per task."""

    def __init__(self, gateway: ServingGateway) -> None:
        self.counts: Counter = Counter()
        inner = gateway.on_settled

        def on_settled(settled) -> None:
            for runtime_result in settled:
                self.counts[runtime_result.request.task_uuid] += 1
            inner(settled)

        gateway.on_settled = on_settled


class GatewayStack:
    """Testbed + zoo + journaled gateway-fronted runtime + obs loop + fleet."""

    def __init__(
        self,
        seed: int,
        scratch_dir: str,
        tenant_policies,
        n_workers: int,
        reactive: bool,
        max_workers: int,
        copies: int,
        servables: tuple[str, ...],
    ) -> None:
        self.testbed = testbed = build_testbed(seed=seed, jitter=False, memoize_tm=False)
        zoo = build_zoo(seed=seed, oqmd_entries=50, n_estimators=4)
        clock = testbed.clock
        self.policies = policies = TenantPolicyTable()
        self.tokens: dict[str, str] = {}
        for policy in tenant_policies:
            policies.register(policy)
            identity, token = testbed.new_user(policy.name)
            policies.bind_identity(identity, policy.name)
            self.tokens[policy.name] = token
        self.workers = [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]
        self.tracer = tracer = Tracer(sample_rate=0.01)
        self.queue = queue = testbed.management.queue
        self.store_dir = scratch_dir
        self.journal = journal = Journal(FileDurableStore(scratch_dir))
        queue.attach_journal(journal)
        self.runtime = runtime = ServingRuntime(
            clock,
            queue,
            self.workers,
            max_batch_size=8,
            max_coalesce_delay_s=0.005,
            tracer=tracer,
        )
        for name in servables:
            published = testbed.management.publish(testbed.token, zoo[name])
            runtime.place(zoo[name], published.build.image, copies=copies)
        self.monitor = monitor = SLOBurnMonitor()
        self.gateway = gateway = ServingGateway(
            testbed.auth, runtime, policies, slo_monitor=monitor, journal=journal
        )
        self.settles = SettleCounter(gateway)
        self.series = SeriesStore()
        self.engine = AlertEngine(
            self.series,
            rules=[
                BurnRateRule(f"burn:{p.name}", p.name, fast_window_s=0.3, slow_window_s=1.0)
                for p in tenant_policies
            ],
        )
        if reactive:
            policy = ReactiveSLOPolicy(
                base=PredictiveScaling(TargetUtilizationPolicy()), gateway=gateway
            )
            provision = testbed.add_fleet_worker
        else:
            policy, provision = HoldPolicy(), None
        self.controller = FleetController(
            runtime,
            provision_worker=provision,
            policy=policy,
            interval_s=0.25,
            min_workers=n_workers,
            max_workers=max_workers,
            autoscale_replicas=False,
            gateway=gateway,
            slo_monitor=monitor,
            alert_engine=self.engine,
        )
        hub = build_hub(
            runtime=runtime,
            gateway=gateway,
            controller=self.controller,
            tracer=tracer,
            monitor=monitor,
        )
        self.loop = ObservabilityLoop(
            clock,
            hub,
            store=self.series,
            engine=self.engine,
            monitor=monitor,
            sampler=AdaptiveSampler(tracer) if reactive else None,
            scrape_interval_s=0.1,
        )
        self.mux = ControllerMux(runtime, self.loop, self.controller)
        runtime.attach_controller(self.mux)

    def arrivals(self, requests):
        """Map ``(offset, tenant-or-token-tag, request)`` to gateway arrivals."""
        out = []
        for offset, who, request in requests:
            if who == "<bad-token>":
                token = "not-a-valid-token"
            elif who == "<unknown>":
                token = self.testbed.token
            else:
                token = self.tokens[who]
            out.append((offset, token, request))
        return out

    def check_journal(self) -> tuple[bool, str]:
        """Replay the journal directory; compare with the live queue."""
        state, report = load_state(FileDurableStore(self.store_dir))
        same = state.fingerprint(decode_body) == self.queue.dump_state()
        return same, (
            f"replayed {report.records_replayed} records"
            f" (snapshot used: {report.snapshot_used})"
        )

    def layer_counts(self, offered: int) -> dict:
        """Per-layer counts and virtual-time figures after serving."""
        runtime = self.runtime
        waits = runtime.stage_metrics.samples("queue_wait")
        actions = [
            e for e in self.controller.events if e.kind in FleetController._SCALE_EVENT_KINDS
        ]
        firing = [t for t in self.engine.transitions if t.state == "firing"]
        return {
            "journal.records_per_req": self.journal.records_appended / offered,
            "journal.snapshots": float(self.journal.snapshots_taken),
            "gateway.reclaimed": float(self.gateway.requests_reclaimed),
            "runtime.mean_batch_size": runtime.mean_batch_size,
            "runtime.queue_wait_ms_p50": pct_ms(waits, 50),
            "runtime.queue_wait_ms_p99": pct_ms(waits, 99),
            "queue.redeliveries": float(self.queue.total_redelivered),
            "queue.dead_letters": float(len(self.queue.dump_state()["dead"])),
            "obsloop.scrapes": float(self.loop.scrapes),
            "obsloop.alerts_fired": float(len(firing)),
            "fleet.actions": float(len(actions)),
            "fleet.peak_workers": float(self.controller.peak_routable_workers),
        }


def pct_ms(values, q: float) -> float:
    """Percentile ``q`` of seconds ``values`` in ms (0 when empty)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3


def summarize_open_loop(
    results, offered: int, settle_counts: Counter
) -> tuple[dict, dict, list]:
    """End-to-end virtual metrics and output checks for the gateway
    results of ``offered`` arrivals."""
    denied = Counter()
    latencies = []
    failed = 0
    good = 0
    wrong = 0
    for result in results:
        if not result.admitted:
            denied[result.decision.outcome.value] += 1
            continue
        uuid = result.request.task_uuid
        if not result.completed or not result.ok or settle_counts[uuid] != 1:
            failed += 1
            continue
        request = result.request
        if result.runtime_result.result.value != expected_value(
            request.servable_name, request.args
        ):
            wrong += 1
        latencies.append(result.latency)
        if result.latency <= SLO_S:
            good += 1
    n_denied = sum(denied.values())
    p99 = pct_ms(latencies, 99)
    beyond = sum(1 for lat in latencies if lat * 1e3 > p99)
    virtual = {
        "lat_p50_ms": pct_ms(latencies, 50),
        "lat_p99_ms": p99,
        "goodput_frac": good / offered,
        "denied_frac": n_denied / offered,
        "failed_frac": failed / offered,
    }
    info = {
        "offered": offered,
        "completed": len(latencies),
        "denied": n_denied,
        "failed": failed,
        "beyond_p99": beyond,
        "denials": {o: denied.get(o, 0) for o in DENIAL_OUTCOMES},
    }
    checks = [
        ("values_correct", wrong == 0, f"{wrong} wrong values"),
        (
            "accounted",
            n_denied + failed + len(latencies) == offered,
            f"{n_denied} denied + {failed} failed + {len(latencies)} completed"
            f" of {offered} offered",
        ),
        ("no_failures", failed == 0, f"{failed} admitted requests failed"),
        ("p99_tail_samples", beyond >= 10, f"{beyond} samples beyond p99"),
    ]
    return virtual, info, checks


def timed_setup(build, repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; keep the last stack and return it
    with the wall time of every set-up, each scaled to the reference
    speed by probes taken right after it (see :class:`WallMeter`)."""
    times = []
    for _ in range(repeats):
        stack = None
        gc.collect()
        t0 = time.perf_counter()
        stack = build()
        elapsed = time.perf_counter() - t0
        probes = sum(probe_slice() for _ in range(SETUP_PROBES))
        times.append(elapsed * SETUP_PROBES * REF_SLICE_S / probes)
    return stack, times


def served_layers(results) -> dict:
    """Virtual invocation and inference time of the settled requests."""
    done = [r.runtime_result.result for r in results if r.admitted and r.ok]
    return {
        "task_manager.invocation_ms_p50": pct_ms([r.invocation_time for r in done], 50),
        "executor.inference_ms_p50": pct_ms([r.inference_time for r in done], 50),
    }


def _timed_serve(stack, arrivals, recorder) -> list:
    """Serve ``arrivals`` once under the wall meter (and the recorder)."""
    gc.collect()
    if recorder is not None:
        recorder.start()
    stack.mux.meter.recorder = recorder
    stack.mux.meter.start()
    results = stack.gateway.serve(arrivals)
    stack.mux.meter.stop()
    if recorder is not None:
        recorder.stop()
    return results


def _rung_passes(results) -> bool:
    """p99 within the SLO and no growing backlog over the rung."""
    if any(not r.admitted or not r.ok for r in results):
        return False
    lat = [r.latency for r in results]
    if np.percentile(lat, 99) > SLO_S:
        return False
    quarter = max(1, len(results) // 4)
    by_arrival = sorted(results, key=lambda r: r.arrived_at)
    first = np.median([r.latency for r in by_arrival[:quarter]])
    last = np.median([r.latency for r in by_arrival[-quarter:]])
    return last <= first + BACKLOG_GROWTH_S


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def run_tenant_steady(seed: int, scratch_root: str, recorder=None) -> dict:
    scratch = tempfile.mkdtemp(prefix="journal-", dir=scratch_root)
    try:
        tenants = [TenantPolicy(name=f"t{i:02d}") for i in range(STEADY_TENANTS)]
        stack, setup_times = timed_setup(
            lambda: GatewayStack(
                seed, tempfile.mkdtemp(dir=scratch), tenants, STEADY_WORKERS,
                reactive=False, max_workers=STEADY_WORKERS, copies=STEADY_WORKERS,
                servables=("noop", "matminer_util"),
            )
        )

        rng = np.random.default_rng([seed, 1])
        formulas = FormulaSource(rng)
        names = [p.name for p in tenants]
        zipf = np.array([1.0 / (k + 1) for k in range(STEADY_TENANTS)])
        zipf /= zipf.sum()

        def phase(duration_s, rate_rps):
            offsets = poisson_offsets(rng, rate_rps, duration_s)
            senders = [names[i] for i in rng.choice(len(names), size=len(offsets), p=zipf)]
            return stack.arrivals(
                open_loop_requests(rng, formulas, offsets, senders, STEADY_NOOP_SHARE)
            )

        warm_s, warm_rps = STEADY_WARMUP
        warmup = phase(warm_s, warm_rps)
        nominal_s, nominal_rps = STEADY_NOMINAL
        nominal = [(warm_s + off, token, req) for off, token, req in phase(nominal_s, nominal_rps)]
        rungs = [phase(LADDER_RUNG_S, rate) for rate in LADDER_RPS]

        # Wall time covers everything served: warm-up, nominal phase and
        # every ladder rung. Latency metrics come from the nominal phase.
        t_start = stack.runtime.clock.now() + warm_s
        all_results = _timed_serve(stack, warmup + nominal, recorder)
        served = len(all_results)
        results = all_results[len(warmup):]
        worker_s = stack.mux.worker_s(t_start, stack.runtime.clock.now())
        virtual, info, checks = summarize_open_loop(
            results, len(nominal), stack.settles.counts
        )

        capacity = 0.0
        ladder = []
        rung_results = []
        rung_offered = 0
        for rate, arrivals in zip(LADDER_RPS, rungs):
            rung = _timed_serve(stack, arrivals, recorder)
            served += len(rung)
            rung_offered += len(arrivals)
            rung_results += rung
            passed = bool(_rung_passes(rung))
            ladder.append((rate, passed))
            if not passed:
                break
            capacity = rate
        virtual["capacity_rps"] = capacity
        virtual["worker_s"] = worker_s
        info["ladder"] = ladder
        if capacity == 0.0:
            checks.append(("ladder", False, "no ladder rung met the SLO"))
        _, _, rung_checks = summarize_open_loop(
            rung_results, rung_offered, stack.settles.counts
        )
        checks += [
            (f"ladder_{name}", ok, detail)
            for name, ok, detail in rung_checks
            if name in ("values_correct", "accounted", "no_failures")
        ]
        layers = stack.layer_counts(served)
        layers.update(served_layers(results))
        same, detail = stack.check_journal()
        checks.append(("journal_replay", same, detail))
        return {
            "setup_times_s": setup_times,
            **stack.mux.meter.report(),
            "offered": served,
            "virtual": virtual,
            "layers": layers,
            "checks": checks,
            "info": info,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_flash_crowd(seed: int, scratch_root: str, recorder=None) -> dict:
    scratch = tempfile.mkdtemp(prefix="journal-", dir=scratch_root)
    try:
        stack, setup_times = timed_setup(
            lambda: GatewayStack(
                seed, tempfile.mkdtemp(dir=scratch), FLASH_POLICIES, FLASH_INITIAL_WORKERS,
                reactive=True, max_workers=FLASH_MAX_WORKERS, copies=FLASH_INITIAL_COPIES,
                servables=("matminer_util",),
            )
        )

        rng = np.random.default_rng([seed, 2])
        formulas = FormulaSource(rng)
        warm_s, warm_rps = FLASH_WARMUP
        warm_offsets = uniform_offsets(warm_rps, warm_s)
        tenants = FLASH_BLOCK[: len(FLASH_POLICIES)]
        schedule = open_loop_requests(
            rng, formulas, warm_offsets, block_senders(rng, len(warm_offsets), tenants),
            FLASH_NOOP_SHARE,
        )
        offsets = []
        start = warm_s
        for _, duration_s, rate_rps in FLASH_PHASES * FLASH_CYCLES:
            offsets += uniform_offsets(rate_rps, duration_s, start)
            start += duration_s
        schedule += open_loop_requests(
            rng, formulas, offsets, block_senders(rng, len(offsets), FLASH_BLOCK),
            FLASH_NOOP_SHARE,
        )

        # Warm-up and measured phases are one schedule: a pause between
        # them would reset the controller's rate view and re-trigger its
        # start-up copy removal.
        t_start = stack.runtime.clock.now() + warm_s
        all_results = _timed_serve(stack, stack.arrivals(schedule), recorder)
        results = all_results[len(warm_offsets):]
        worker_s = stack.mux.worker_s(t_start, stack.runtime.clock.now())
        layers = stack.layer_counts(len(all_results))
        layers.update(served_layers(results))
        virtual, info, checks = summarize_open_loop(
            results, len(offsets), stack.settles.counts
        )

        # Capacity under overload: the most requests settled OK within
        # any one second of completion times.
        base = min(r.arrived_at for r in results)
        done = sorted(
            r.runtime_result.completed_at - base for r in results if r.admitted and r.ok
        )
        capacity = 0
        j = 0
        for i, t in enumerate(done):
            while done[j] < t - 1.0:
                j += 1
            capacity = max(capacity, i - j + 1)
        virtual["capacity_rps"] = float(capacity)
        virtual["worker_s"] = worker_s
        missing = [o for o in DENIAL_OUTCOMES if info["denials"][o] == 0]
        checks.append(
            ("every_outcome", not missing, f"admission outcomes never seen: {missing}")
        )
        checks.append(
            (
                "goodput_inside",
                0.05 < virtual["goodput_frac"] < 0.95,
                f"goodput_frac {virtual['goodput_frac']:.4f}",
            )
        )
        same, detail = stack.check_journal()
        checks.append(("journal_replay", same, detail))
        return {
            "setup_times_s": setup_times,
            **stack.mux.meter.report(),
            "offered": len(all_results),
            "virtual": virtual,
            "layers": layers,
            "checks": checks,
            "info": info,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _session_plan(rng, zoo) -> list[tuple]:
    """The closed-loop operation list: ``(kind, name, payload)``.

    Operation shapes are drawn first; each input pool is then sized from
    the number of draws on it so uniform picks hit the memo cache about
    half the time.
    """
    names = zoo.names()
    kinds = [k for k, _ in SESSION_MIX]
    shapes = []
    draws: Counter = Counter()
    picks = rng.choice(len(kinds), size=SESSION_OPS, p=[s for _, s in SESSION_MIX])
    for i, pick in enumerate(picks):
        kind = kinds[int(pick)]
        if i % SESSION_REPO_EVERY == SESSION_REPO_EVERY - 1:
            repo_i = i // SESSION_REPO_EVERY
            kind = SESSION_REPO_OPS[repo_i % len(SESSION_REPO_OPS)]
            name = names[repo_i // len(SESSION_REPO_OPS) % len(names)]
        elif kind == "run":
            name = names[int(rng.integers(len(names)))]
            draws[name] += 1
        elif kind == "batch":
            name = SESSION_BATCH_SERVABLES[int(rng.integers(len(SESSION_BATCH_SERVABLES)))]
            draws[name] += SESSION_BATCH_SIZE
        else:
            name = "formation_enthalpy"
            draws[name] += 1
        shapes.append((kind, name))

    formulas = FormulaSource(rng)
    featurizer = zoo.featurizer
    makers = {
        "noop": lambda i: (i,),
        "inception": lambda i: (rng.random((1, 64, 64, 3)),),
        "cifar10": lambda i: (rng.random((1, 32, 32, 3)),),
        "matminer_util": lambda i: (formulas.take(),),
        "matminer_featurize": lambda i: (Composition.parse(formulas.take()).fractions(),),
        "matminer_model": lambda i: (featurizer.featurize(formulas.take()),),
        "formation_enthalpy": lambda i: formulas.take(),
    }
    pools = {
        name: [make(i) for i in range(max(1, round(draws[name] / SESSION_DRAWS_PER_INPUT)))]
        for name, make in makers.items()
    }

    def pick(name):
        pool = pools[name]
        return pool[int(rng.integers(len(pool)))]

    ops = []
    for kind, name in shapes:
        if kind in ("run", "pipeline"):
            ops.append((kind, name, pick(name)))
        elif kind == "batch":
            ops.append((kind, name, [pick(name) for _ in range(SESSION_BATCH_SIZE)]))
        else:
            ops.append((kind, name, None))
    return ops


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def run_science_session(seed: int, scratch_root: str, recorder=None) -> dict:
    del scratch_root  # the legacy path keeps no journal

    def build():
        # Latency jitter on, as in the paper's figure runs (SS V).
        testbed = build_testbed(seed=seed, jitter=True, memoize_tm=True)
        zoo = build_zoo(seed=seed, oqmd_entries=100, n_estimators=8)
        for name in zoo.names():
            testbed.publish_and_deploy(zoo[name])
        client = DLHubClient(testbed.management, testbed.token)
        client.register_pipeline(
            Pipeline("formation_enthalpy")
            .add_step("matminer_util")
            .add_step("matminer_featurize")
            .add_step("matminer_model")
        )
        return testbed, zoo, client

    (testbed, zoo, client), setup_times = timed_setup(build, SESSION_SETUP_REPEATS)

    ops = _session_plan(np.random.default_rng([seed, 3]), zoo)

    metrics = testbed.management.metrics
    clock = testbed.clock
    outputs = []
    gc.collect()
    if recorder is not None:
        recorder.start()
    start_v = clock.now()
    meter = WallMeter(recorder)
    meter.start()
    for i, (kind, name, payload) in enumerate(ops):
        if i and i % SESSION_CUT_OPS == 0:
            meter.cut()
        if kind == "run":
            result = client.run_detailed(name, *payload)
            outputs.append((kind, name, payload, result.value, result.ok, result.request_time))
        elif kind == "batch":
            value = client.run_batch(name, [args for args in payload])
            record = metrics.records(name)[-1]
            outputs.append((kind, name, payload, value, True, record.request_time))
        elif kind == "pipeline":
            value = client.run_pipeline(name, payload)
            record = metrics.records(name)[-1]
            outputs.append((kind, name, payload, value, True, record.request_time))
        elif kind == "publish":
            client.publish_servable(zoo[name])
        elif kind == "search":
            client.search(name)
        else:
            client.describe(name)
    meter.stop()
    if recorder is not None:
        recorder.stop()
    span_v = clock.now() - start_v

    # -- checks (untimed) --------------------------------------------------------
    direct: dict = {}

    def truth(servable, args):
        key = (servable, id(args))  # pool tuples live for the session
        if key not in direct:
            direct[key] = zoo[servable].run(*args)
        return direct[key]

    wrong = 0
    for kind, name, payload, value, ok, _ in outputs:
        if kind == "run":
            expect = truth(name, payload)
        elif kind == "batch":
            expect = [truth(name, args) for args in payload]
        else:
            comp = zoo["matminer_util"].run(payload)
            expect = zoo["matminer_model"].run(zoo["matminer_featurize"].run(comp))
        if not ok or not _same(value, expect):
            wrong += 1
    latencies = [o[5] for o in outputs]
    offered = len(outputs)
    planned = sum(1 for kind, _, _ in ops if kind in ("run", "batch", "pipeline"))
    ok_count = sum(1 for o in outputs if o[4])
    good = sum(1 for o in outputs if o[4] and o[5] <= SLO_S)
    cache = testbed.task_manager.cache
    lookups = cache.hits + cache.misses
    p99 = pct_ms(latencies, 99)
    beyond = sum(1 for lat in latencies if lat * 1e3 > p99)
    virtual = {
        "lat_p50_ms": pct_ms(latencies, 50),
        "lat_p99_ms": p99,
        "goodput_frac": good / offered,
        "denied_frac": 0.0,
        "failed_frac": (offered - ok_count) / offered,
        # Closed loop: one client's sustained rate, 1 / mean request time.
        "capacity_rps": offered / sum(latencies),
        # The legacy path serves on the testbed's one Task Manager.
        "worker_s": span_v,
    }
    invocation = [r.invocation_time for n in metrics.servables() for r in metrics.records(n)]
    inference = [r.inference_time for n in metrics.servables() for r in metrics.records(n)
                 if not r.cache_hit]
    layers = {
        "memo.lookups": float(lookups),
        "memo.hit_frac": cache.hits / lookups if lookups else 0.0,
        "task_manager.invocation_ms_p50": pct_ms(invocation, 50),
        "executor.inference_ms_p50": pct_ms(inference, 50),
        "management.request_ms_p50": pct_ms(latencies, 50),
    }
    hit_frac = layers["memo.hit_frac"]
    checks = [
        ("values_correct", wrong == 0, f"{wrong} wrong or failed outputs"),
        (
            "accounted",
            offered == planned,
            f"{offered} of {planned} planned invocations returned",
        ),
        ("p99_tail_samples", beyond >= 10, f"{beyond} samples beyond p99"),
        ("memo_hit_share", 0.3 <= hit_frac <= 0.7, f"memo hit share {hit_frac:.3f}"),
    ]
    info = {
        "offered": offered,
        "completed": ok_count,
        "denied": 0,
        "failed": offered - ok_count,
        "beyond_p99": beyond,
        "repo_ops": len(ops) - offered,
    }
    return {
        "setup_times_s": setup_times,
        **meter.report(),
        "offered": offered,
        "virtual": virtual,
        "layers": layers,
        "checks": checks,
        "info": info,
    }


WORKLOADS = {
    "tenant_steady": run_tenant_steady,
    "flash_crowd": run_flash_crowd,
    "science_session": run_science_session,
}
