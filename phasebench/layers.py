"""The traced run: every launch rebuilt step by step from public calls.

Each step is one call into one layer's public API, wrapped in a span
recorded by this file; nothing inside ``repro`` is instrumented.  A
layer's self time is its spans' time minus the time of spans nested in
them, which is how detection triggered by a full queue (``on_full`` ->
``HostDetector.drain_some``) is billed to the detector and not to the
simulator that was running when the queue filled.

The build must reach the same verdict, record count and race set as the
untraced public path (``BarracudaSession.launch`` / ``run_program`` /
``run_sweep`` / ``replay_batches``); :mod:`run` checks that parity.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

from repro.core.detector import BarracudaDetector
from repro.core.reference import DetectorConfig
from repro.cudac import compile_cuda
from repro.errors import SimulationError, StepLimitExceeded
from repro.events import RecordKind
from repro.gpu.device import GpuDevice
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument.fatbinary import FatBinary, intercept_fat_binary
from repro.instrument.passes import Instrumenter
from repro.predict.sweep import (
    ARCHES,
    LaunchSpec,
    finalize_sweep,
    run_schedule,
)
from repro.ptx.ast import Module
from repro.ptx.parser import parse_ptx, parse_ptx_cached
from repro.runtime.host import HostDetector
from repro.runtime.queue import DEFAULT_CAPACITY, QueueSet
from repro.runtime.replay import iter_binary_batches
from repro.staticcheck import run_lint
from repro.suite.model import Verdict

from launches import (
    SWEEP_SCHEDULES,
    KernelSpec,
    Launch,
    Outcome,
    load_capture,
    program_verdict,
    report_signature,
    sweep_outcome,
)

#: Session defaults the step-by-step build must mirror.
NUM_QUEUES = 4


class Spans:
    """In-memory span recorder: self seconds per layer, kept until the
    run ends."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # [start, child seconds]

    def open(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def close(self, layer: str) -> None:
        start, children = self._stack.pop()
        total = time.perf_counter() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + total - children
        if self._stack:
            self._stack[-1][1] += total

    def call(self, layer: str, fn, *args, **kwargs):
        self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(layer)


class TracedBuild:
    """Builds launches step by step, accumulating per-layer counts."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.counts: Dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- frontend ------------------------------------------------------
    def compile(self, spec: LaunchSpec) -> Module:
        if spec.is_ptx:
            return self.spans.call("ptx", parse_ptx, spec.source)
        self.count("cudac.calls", 1)
        return self.spans.call("cudac", compile_cuda, spec.source)

    def register(self, module: Module, arch) -> Tuple[GpuDevice, Module]:
        """``register_fat_binary`` step by step: parse, instrument, load."""
        fatbin = FatBinary.from_module(module)
        ptx_text = fatbin.ptx_entry().decompress_ptx()
        self.spans.call("ptx", parse_ptx_cached, ptx_text)
        _fatbin, instrumented, report = self.spans.call(
            "instrument", intercept_fat_binary, fatbin,
            Instrumenter(prune=True, static_prune=False))
        for kernel in report.kernels:
            self.count("instrument.sites", kernel.instrumented_sites)
            self.count("instrument.static_insns", kernel.static_instructions)
        device = GpuDevice(arch)
        device.load_module(instrumented)
        return device, instrumented

    # -- simulator + queues + detector ---------------------------------
    def execute(self, spec: Union[KernelSpec, LaunchSpec], device: GpuDevice,
                instrumented: Module, scale: int):
        """Launch with live per-record detection; returns host reports."""
        params: Dict[str, int] = {}
        for name, words, init in spec.buffers:
            addr = device.alloc(words * 4)
            device.memcpy_to_device(addr, list(init) + [0] * (words - len(init)))
            params[name] = addr
        params.update(dict(spec.scalars))
        layout = LaunchConfig.of(spec.grid, spec.block, spec.warp_size).layout()
        host = HostDetector(layout)
        spans = self.spans
        drains = [0]

        def on_full(queue_set, index):
            drains[0] += 1
            spans.call(f"detector.x{scale}", host.drain_some, queue_set, index)

        queues = QueueSet(
            num_queues=NUM_QUEUES, capacity=DEFAULT_CAPACITY,
            block_of_record=lambda record: (
                record.warp if record.kind is RecordKind.BARRIER
                else layout.block_of_warp(record.warp)),
            on_full=on_full,
        )
        kernel = spec.kernel or instrumented.kernels[0].name
        spans.open()
        try:
            result = device.launch(
                instrumented, kernel, grid=spec.grid, block=spec.block,
                warp_size=spec.warp_size, params=params, sink=queues,
                instrumented=True, max_steps=spec.max_steps,
                cooperative=spec.cooperative)
        finally:
            spans.close(f"gpu.x{scale}")
        spans.call(f"detector.x{scale}", host.drain, queues)
        detector = host.detector
        self.count(f"gpu.warp_insns.x{scale}", result.steps)
        self.count(f"detector.records.x{scale}", host.records_processed)
        self._count_detector(detector)
        self.count("queue.records", queues.total_pushed)
        self.count("queue.bytes", queues.total_bytes)
        self.count("queue.stalls", sum(q.stats.stalls for q in queues.queues))
        self.count("queue.on_full_drains", drains[0])
        depth = max(q.stats.max_depth for q in queues.queues)
        self.counts["queue.max_depth"] = max(
            self.counts.get("queue.max_depth", 0), depth)
        return host.reports, queues.total_pushed

    def _count_detector(self, detector: BarracudaDetector) -> None:
        self.count("detector.lane_ops", detector.ops_processed)
        self.count("detector.vc_joins", detector.clocks.joins)
        self.count("detector.shadow_entries", detector.shadow.stats.entries)
        self.count("detector.races", len(detector.reports.races))

    # -- one launch of each kind ---------------------------------------
    def live(self, launch: Launch, module: Module) -> Outcome:
        device, instrumented = self.register(module, launch.spec.profile)
        reports, records = self.execute(launch.spec, device, instrumented,
                                        launch.scale)
        return Outcome(verdict=report_signature(reports), records=records)

    def replay(self, launch: Launch, blob: bytes) -> Outcome:
        """``iter_binary_batches`` then ``replay_batches``'s body, so the
        detector's counters can be read."""
        layout, stream = load_capture(blob)
        batches = self.spans.call("columnar", list, iter_binary_batches(stream))
        self.count("columnar.batches", len(batches))
        self.count("columnar.bytes", len(blob))
        config = DetectorConfig()
        detector = BarracudaDetector(layout, config)

        def detect():
            for batch in batches:
                detector.process_columnar(batch, config.granularity_bytes)

        self.spans.call(f"detector.x{launch.scale}", detect)
        records = sum(len(batch) for batch in batches)
        self.count(f"detector.records.x{launch.scale}", records)
        self._count_detector(detector)
        return Outcome(verdict=report_signature(detector.reports),
                       records=records)

    def program(self, launch: Launch) -> Outcome:
        """compile -> run_lint -> run_program's steps."""
        spec = launch.spec
        findings = self.spans.call("staticcheck", run_lint, self.compile(spec))
        self.count("staticcheck.findings", len(findings))
        rules = tuple(sorted({finding.rule for finding in findings}))
        verdict = Verdict(program=launch.program.name)
        module = self.compile(spec)
        device, instrumented = self.register(module, ARCHES[spec.arch])
        records = 0
        try:
            reports, records = self.execute(spec, device, instrumented, 1)
        except StepLimitExceeded:
            verdict.hang = True
        except SimulationError as exc:
            verdict.error = str(exc)
        else:
            verdict.races = len(reports.races)
            verdict.race_spaces = frozenset(
                r.loc.space.value for r in reports.races)
            verdict.barrier_divergences = len(reports.barrier_divergences)
        return Outcome(verdict=(rules, program_verdict(verdict)),
                       records=records)

    def sweep(self, launch: Launch) -> Outcome:
        spec, seed = launch.spec, launch.seed
        runs = [
            self.spans.call("predict.schedule", run_schedule, spec, index, seed)
            for index in range(SWEEP_SCHEDULES)
        ]
        outcome = sweep_outcome(self.spans.call(
            "predict.finalize", finalize_sweep, spec, runs, SWEEP_SCHEDULES,
            seed))
        for name, value in outcome.counts.items():
            self.count(f"predict.{name}", value)
        return outcome

    def run(self, launch: Launch, module: Optional[Module],
            blob: Optional[bytes]) -> Outcome:
        if launch.kind == "live":
            return self.live(launch, module)
        if launch.kind == "replay":
            return self.replay(launch, blob)
        if launch.kind == "program":
            return self.program(launch)
        return self.sweep(launch)


PER_LAYER_UNITS = {
    "cudac.compile_us": "us",
    "cudac.calls": "count",
    "ptx.parse_us": "us",
    "ptx.parse_cache_hit_ratio": "ratio",
    "instrument.us": "us",
    "instrument.sites": "count",
    "instrument.site_fraction": "ratio",
    "staticcheck.lint_us": "us",
    "staticcheck.findings": "count",
    "gpu.busy_s": "s",
    "gpu.warp_insns": "count",
    "gpu.us_per_warp_insn": "us",
    "gpu.scale_ratio": "ratio",
    "queue.records": "count",
    "queue.bytes": "bytes",
    "queue.max_depth": "count",
    "queue.stalls": "count",
    "queue.on_full_drains": "count",
    "detector.busy_s": "s",
    "detector.records": "count",
    "detector.lane_ops": "count",
    "detector.us_per_record": "us",
    "detector.vc_joins": "count",
    "detector.shadow_entries": "count",
    "detector.races": "count",
    "detector.scale_ratio": "ratio",
    "columnar.decode_us": "us",
    "columnar.batches": "count",
    "columnar.bytes": "bytes",
    "predict.schedules": "count",
    "predict.us_per_schedule": "us",
    "predict.findings": "count",
    "predict.confirmed": "count",
    "trace.overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 where the layer did no work."""
    return numerator / denominator if denominator else 0.0


def _by_scale(values: Dict[str, float], prefix: str) -> Dict[str, float]:
    return {key[len(prefix):]: value for key, value in values.items()
            if key.startswith(prefix)}


def aggregate(chosen, cache: Optional[dict]) -> Dict[str, float]:
    """Per-layer metrics from each launch's median traced build.

    ``chosen`` holds (normalization factor, spans, build) per launch; a
    span's self time times its launch's factor is in reference-seconds.
    A layer a workload never calls reports 0.
    """
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for factor, spans, build in chosen:
        for layer, value in spans.self_s.items():
            seconds[layer] = seconds.get(layer, 0.0) + value * factor
        for name, value in build.counts.items():
            if name == "queue.max_depth":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    gpu_s = _by_scale(seconds, "gpu.x")
    insns = _by_scale(counts, "gpu.warp_insns.x")
    det_s = _by_scale(seconds, "detector.x")
    records = _by_scale(counts, "detector.records.x")

    def scale_ratio(busy, work):
        low = _ratio(busy.get("1", 0.0), work.get("1", 0))
        return _ratio(_ratio(busy.get("16", 0.0), work.get("16", 0)), low)

    gpu_busy, det_busy = sum(gpu_s.values()), sum(det_s.values())
    warp_insns, det_records = sum(insns.values()), sum(records.values())
    schedules = counts.get("predict.schedules", 0)
    lookups = cache["hits"] + cache["misses"] if cache else 0
    return {
        "cudac.compile_us": seconds.get("cudac", 0.0) * 1e6,
        "cudac.calls": counts.get("cudac.calls", 0),
        "ptx.parse_us": seconds.get("ptx", 0.0) * 1e6,
        "ptx.parse_cache_hit_ratio": _ratio(cache["hits"], lookups)
        if cache else 0.0,
        "instrument.us": seconds.get("instrument", 0.0) * 1e6,
        "instrument.sites": counts.get("instrument.sites", 0),
        "instrument.site_fraction": _ratio(
            counts.get("instrument.sites", 0),
            counts.get("instrument.static_insns", 0)),
        "staticcheck.lint_us": seconds.get("staticcheck", 0.0) * 1e6,
        "staticcheck.findings": counts.get("staticcheck.findings", 0),
        "gpu.busy_s": gpu_busy,
        "gpu.warp_insns": warp_insns,
        "gpu.us_per_warp_insn": _ratio(gpu_busy * 1e6, warp_insns),
        "gpu.scale_ratio": scale_ratio(gpu_s, insns),
        "queue.records": counts.get("queue.records", 0),
        "queue.bytes": counts.get("queue.bytes", 0),
        "queue.max_depth": counts.get("queue.max_depth", 0),
        "queue.stalls": counts.get("queue.stalls", 0),
        "queue.on_full_drains": counts.get("queue.on_full_drains", 0),
        "detector.busy_s": det_busy,
        "detector.records": det_records,
        "detector.lane_ops": counts.get("detector.lane_ops", 0),
        "detector.us_per_record": _ratio(det_busy * 1e6, det_records),
        "detector.vc_joins": counts.get("detector.vc_joins", 0),
        "detector.shadow_entries": counts.get("detector.shadow_entries", 0),
        "detector.races": counts.get("detector.races", 0),
        "detector.scale_ratio": scale_ratio(det_s, records),
        "columnar.decode_us": seconds.get("columnar", 0.0) * 1e6,
        "columnar.batches": counts.get("columnar.batches", 0),
        "columnar.bytes": counts.get("columnar.bytes", 0),
        "predict.schedules": schedules,
        "predict.us_per_schedule": _ratio(
            seconds.get("predict.schedule", 0.0) * 1e6, schedules),
        "predict.findings": counts.get("predict.findings", 0),
        "predict.confirmed": counts.get("predict.confirmed", 0),
    }
