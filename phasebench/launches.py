"""The benchmark's launches: seeded inputs, untraced runners, known answers.

Every workload is a list of :class:`Launch` items run in a closed loop:
one client, one thread, each launch issued after the previous one has
returned its verdict.  A launch's *verdict* is a hashable signature of
what the detector concluded, compared against a known answer that is
computed independently (reference detector, paper table or suite label).
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import ALL_WORKLOADS, workload as table1_workload
from repro.core.races import DetectorReports
from repro.cudac import compile_cuda
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.memory import MAXWELL_TITANX, ArchProfile
from repro.ptx import parse_ptx
from repro.ptx.ast import Module
from repro.runtime.replay import (
    iter_binary_batches,
    read_binary_header,
    replay_batches,
)
from repro.runtime.session import BarracudaSession, SessionLaunch

# ``suite`` alone uses ``repro.staticcheck`` and ``repro.predict`` (which
# imports the service layer); they are imported inside its functions, so
# the other workloads' set-up imports only the layers they call.

#: Barrier-heavy Table-1 stand-ins scaled by ``GRID_SCALES``.
GRIDSCALE_PROGRAMS = ("backprop", "hotspot", "needle", "threadfence_reduction")
GRID_SCALES = (1, 4, 16)
#: Seeded schedules per predictive sweep in the ``suite`` workload.
SWEEP_SCHEDULES = 16
#: The sweep's negative control: it must yield no findings.
SPIN_CONTROL = "handoff_spin_control"
#: The negative control is swept at this fixed master seed, not the run's:
#: schedules that starve its spinner run to the step limit, and how many
#: do depends on the seed (3-6 of 16 for seeds 1-4, 0.55-0.96 s of a
#: ~2.3 s pass), which would make ``pass_s`` vary with the seed rather than
#: the program.  The other four sweeps cost the same under every seed.
SPIN_CONTROL_SEED = 7


@dataclass
class Launch:
    """One unit of closed-loop work and how to check it."""

    name: str
    kind: str  # "live", "replay", "program" or "sweep"
    #: A :class:`KernelSpec`, or a ``repro.predict.LaunchSpec`` on ``suite``.
    spec: Optional[object] = None
    #: The ``repro.suite.SuiteProgram`` of a ``suite`` launch.
    program: Optional[object] = None
    #: Grid multiplier (gridscale and the gridscale captures).
    scale: int = 1
    #: Master seed of a predictive sweep.
    seed: int = 0
    #: Races the paper reports for this Table-1 benchmark (None: n/a).
    paper_races: Optional[Tuple[int, Optional[str]]] = None
    #: Known answers, filled in once they have been computed.
    expected: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Verdict signatures
# ----------------------------------------------------------------------
def report_signature(reports: DetectorReports) -> tuple:
    """Races and barrier divergences, independent of report order."""
    races = tuple(sorted(
        (r.loc.space.value, str(r.loc), r.prior_tid, r.current_tid,
         r.prior_access.value, r.current_access.value, r.kind.value,
         r.branch_ordering)
        for r in reports.races
    ))
    divergences = tuple(sorted(
        (d.block, tuple(sorted(d.missing)))
        for d in reports.barrier_divergences
    ))
    return races, divergences


def freeze(value):
    """JSON-decoded verdict (lists) back to its hashable tuple form."""
    if isinstance(value, list):
        return tuple(freeze(item) for item in value)
    return value


# ----------------------------------------------------------------------
# Gridscale inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec:
    """One Table-1 kernel launch: the ``repro.predict.LaunchSpec`` fields
    that ``gridscale`` and ``replay`` use, without importing ``predict``."""

    source: str
    is_ptx: bool
    grid: int
    block: int
    warp_size: int
    #: (name, words, leading init values) per device int buffer.
    buffers: Tuple[Tuple[str, int, Tuple[int, ...]], ...]
    scalars: Tuple[Tuple[str, int], ...]
    max_steps: int
    kernel: str = ""  # empty = first kernel of the module
    cooperative: bool = False
    profile: ArchProfile = MAXWELL_TITANX

    def compile(self) -> Module:
        return parse_ptx(self.source) if self.is_ptx else compile_cuda(self.source)

    def layout(self):
        return LaunchConfig.of(self.grid, self.block, self.warp_size).layout()


def _values(rng: random.Random, count: int, bound: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(bound) for _ in range(count))


def gridscale_spec(name: str, scale: int, rng: random.Random) -> KernelSpec:
    """A Table-1 stand-in at ``scale`` times its grid, buffers to match."""
    base = table1_workload(name)
    grid, block = base.grid * scale, base.block
    threads = grid * block
    if name == "backprop":
        buffers = (("input", block, _values(rng, block, 100)),
                   ("weights", threads, _values(rng, threads, 7)),
                   ("hidden", grid, ()))
        scalars = (("n_in", block),)
    elif name == "hotspot":
        buffers = (("temp_in", threads, _values(rng, threads, 90)),
                   ("temp_out", threads, ()),
                   ("power", threads, _values(rng, threads, 5)))
        scalars = (("total", threads),)
    elif name == "needle":
        buffers = (("reference", threads, _values(rng, threads, 9)),
                   ("out", threads, ()))
        scalars = (("rounds", 4),)
    elif name == "threadfence_reduction":
        buffers = (("data", threads, _values(rng, threads, 13)),
                   ("partial", grid, ()), ("count", 4, ()), ("out", 4, ()))
        scalars = ()
    else:
        raise KeyError(name)
    return KernelSpec(
        source=base.source, is_ptx=base.is_ptx, grid=grid, block=block,
        warp_size=base.warp_size, buffers=buffers, scalars=scalars,
        max_steps=base.max_steps,
    )


def table1_spec(name: str) -> KernelSpec:
    """A Table-1 stand-in at its native grid and fixed inputs."""
    base = table1_workload(name)
    return KernelSpec(
        source=base.source, is_ptx=base.is_ptx, grid=base.grid,
        block=base.block, warp_size=base.warp_size,
        buffers=tuple((b.name, b.words, tuple(b.init)) for b in base.buffers),
        scalars=tuple(base.scalars), max_steps=base.max_steps,
    )


def gridscale_launches(seed: int, smoke: bool = False) -> List[Launch]:
    """The ``gridscale`` workload: 4 programs at x1, x4 and x16 grids."""
    rng = random.Random(seed)
    names = GRIDSCALE_PROGRAMS[:2] if smoke else GRIDSCALE_PROGRAMS
    scales = GRID_SCALES[:1] if smoke else GRID_SCALES
    return [
        Launch(name=f"{name}.x{scale}", kind="live", scale=scale,
               spec=gridscale_spec(name, scale, rng))
        for scale in scales for name in names
    ]


def replay_launches(seed: int, smoke: bool = False) -> List[Launch]:
    """The ``replay`` workload: Table-1 captures plus every gridscale one."""
    table1 = ALL_WORKLOADS[:3] if smoke else ALL_WORKLOADS
    launches = [
        Launch(name=w.name, kind="replay", spec=table1_spec(w.name),
               paper_races=(w.paper_races, w.expected_race_space))
        for w in table1
    ]
    for live in gridscale_launches(seed, smoke):
        launches.append(Launch(name=live.name, kind="replay", spec=live.spec,
                               scale=live.scale))
    return launches


def suite_launches(seed: int, smoke: bool = False) -> List[Launch]:
    """The ``suite`` workload: labeled programs, then seeded sweeps."""
    from repro.predict.sweep import LaunchSpec
    from repro.suite import ALL_PROGRAMS, SCHEDULE_PROGRAMS

    programs = ALL_PROGRAMS[::16] if smoke else ALL_PROGRAMS
    sweeps = SCHEDULE_PROGRAMS[:1] if smoke else SCHEDULE_PROGRAMS
    launches = [
        Launch(name=p.name, kind="program", program=p,
               spec=LaunchSpec.from_program(p))
        for p in programs
    ]
    for p in sweeps:
        sweep_seed = SPIN_CONTROL_SEED if p.name == SPIN_CONTROL else seed
        launches.append(Launch(name=f"sweep.{p.name}", kind="sweep", program=p,
                               spec=LaunchSpec.from_program(p), seed=sweep_seed))
    return launches


LAUNCH_LISTS: Dict[str, Callable[..., List[Launch]]] = {
    "gridscale": gridscale_launches,
    "replay": replay_launches,
    "suite": suite_launches,
}


# ----------------------------------------------------------------------
# Untraced runners (the public end-to-end paths)
# ----------------------------------------------------------------------
def launch_module(spec: KernelSpec, module: Module, **kwargs) -> SessionLaunch:
    """Register ``module`` in a fresh session and launch it once."""
    session = BarracudaSession(arch=spec.profile)
    session.register_module(module)
    params: Dict[str, int] = {}
    for name, words, init in spec.buffers:
        addr = session.device.alloc(words * 4)
        session.device.memcpy_to_device(addr, list(init) + [0] * (words - len(init)))
        params[name] = addr
    params.update(dict(spec.scalars))
    return session.launch(
        spec.kernel or module.kernels[0].name, grid=spec.grid,
        block=spec.block, warp_size=spec.warp_size, params=params,
        max_steps=spec.max_steps, cooperative=spec.cooperative, **kwargs)


@dataclass
class Outcome:
    """What one launch produced: its verdict plus exact work counts."""

    verdict: object
    records: int = 0
    counts: Dict[str, int] = field(default_factory=dict)


def run_live(launch: Launch, module: Module) -> Outcome:
    result = launch_module(launch.spec, module)
    return Outcome(verdict=report_signature(result.reports),
                   records=result.records)


def load_capture(blob: bytes):
    """Header of a BCAP capture and a stream positioned at its batches."""
    stream = io.BytesIO(blob)
    layout, _kernel = read_binary_header(stream)
    return layout, stream


def run_replay(blob: bytes) -> Outcome:
    layout, stream = load_capture(blob)
    records = 0

    def batches():
        nonlocal records
        for batch in iter_binary_batches(stream):
            records += len(batch)
            yield batch

    reports = replay_batches(layout, batches())
    return Outcome(verdict=report_signature(reports), records=records)


def program_verdict(verdict) -> tuple:
    """Hashable form of a ``repro.suite.Verdict``."""
    return (verdict.observed.value, verdict.races,
            tuple(sorted(verdict.race_spaces)), verdict.barrier_divergences,
            verdict.hang, verdict.error)


def run_program_launch(launch: Launch) -> Outcome:
    """compile -> run_lint -> run_program, as a client would call them."""
    from repro.staticcheck import run_lint
    from repro.suite import run_program

    rules = tuple(sorted({f.rule for f in run_lint(launch.spec.compile())}))
    verdict = run_program(launch.program)
    return Outcome(verdict=(rules, program_verdict(verdict)))


def sweep_verdict(result) -> tuple:
    findings = tuple(sorted(
        (str(r.loc), r.prior_tid, r.current_tid, r.confirmed,
         r.witness is not None)
        for r in result.findings
    ))
    base = tuple(sorted(str(r.loc) for r in result.base_races))
    runs = tuple((run["hung"], run["error"] is None, run["races"])
                 for run in result.runs)
    return base, result.base_divergences, findings, runs


def sweep_outcome(result) -> Outcome:
    return Outcome(verdict=sweep_verdict(result),
                   counts={"schedules": len(result.runs),
                           "findings": len(result.findings),
                           "confirmed": len(result.confirmed)})


def run_sweep_launch(launch: Launch) -> Outcome:
    from repro.predict.sweep import run_sweep

    return sweep_outcome(run_sweep(launch.spec, schedules=SWEEP_SCHEDULES,
                                   seed=launch.seed))


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------
def check_program(launch: Launch, outcome: Outcome) -> Optional[str]:
    """Suite label check; returns a failure reason or None."""
    from repro.suite.model import Expected

    program = launch.program
    rules, (observed, races, spaces, divergences, hang, error) = outcome.verdict
    if hang or error:
        return f"hang={hang} error={error}"
    if observed != launch.expected.get("label", program.expected.value):
        return f"verdict {observed} != label"
    if program.expected is Expected.RACE and program.race_space:
        if program.race_space not in spaces:
            return f"race space {program.race_space} not in {spaces}"
    fired = set(rules)
    if program.expected is Expected.NO_RACE:
        extra = fired - set(program.lint_exceptions)
        if extra:
            return f"race-free program fired lint {sorted(extra)}"
    elif set(program.expected_lint) - fired:
        return f"expected lint {sorted(set(program.expected_lint) - fired)} missing"
    return None


def check_sweep(launch: Launch, outcome: Outcome) -> Optional[str]:
    """Sweep check: base verdict, witnesses replay, spin control silent."""
    base, divergences, findings, runs = outcome.verdict
    program = launch.program
    observed = "race" if base else "no-race"
    if divergences:
        observed = "barrier-divergence"
    if observed != launch.expected.get("label", program.expected.value):
        return f"base verdict {observed} != label"
    if any(has_witness and not confirmed
           for _l, _p, _c, confirmed, has_witness in findings):
        return "a sweep finding's witness did not replay"
    if program.name == SPIN_CONTROL and findings:
        return f"{SPIN_CONTROL} yielded {len(findings)} findings"
    if any(not ok for _hung, ok, _races in runs):
        return "a schedule run raised an error"
    return None


def check_replay_paper(launch: Launch, outcome: Outcome) -> Optional[str]:
    """Table-1 row check: racy iff the paper says so, in its space."""
    if launch.paper_races is None:
        return None
    paper_count, paper_space = launch.paper_races
    races = outcome.verdict[0]
    if (len(races) > 0) != (paper_count > 0):
        return f"{len(races)} races, paper reports {paper_count}"
    spaces = {race[0] for race in races}
    if paper_count and paper_space and paper_space not in spaces:
        return f"race spaces {sorted(spaces)} lack paper space {paper_space}"
    return None


def check(launch: Launch, outcome: Outcome) -> Optional[str]:
    """Compare one outcome with the launch's known answer."""
    if launch.kind == "program":
        return check_program(launch, outcome)
    if launch.kind == "sweep":
        return check_sweep(launch, outcome)
    expected = launch.expected.get("verdict")
    if expected is None:
        return "no known answer"
    if outcome.verdict != expected:
        return "verdict differs from the reference detector"
    if launch.kind == "replay":
        if outcome.verdict != launch.expected.get("live"):
            return "verdict differs from the capture's own live run"
        return check_replay_paper(launch, outcome)
    return None


def guarded(fn: Callable[[], Outcome]) -> Callable[[], Tuple[Optional[Outcome], Optional[str]]]:
    """Fold a crash or ``ReproError`` into a failed launch.

    The closed loop is a boundary that must keep running: one launch that
    raises is reported as a failure with its exception type and message,
    and the next launch is issued.
    """

    def call():
        try:
            return fn(), None
        except Exception as exc:  # noqa: BLE001 - counted, never swallowed
            return None, f"{type(exc).__name__}: {exc}"

    return call
