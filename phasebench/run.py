"""Closed-loop benchmark of the BARRACUDA reproduction.

    python3 phasebench/run.py --workload gridscale --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout (``src/repro`` next to this directory).
One client, one process, one thread: each launch is issued only after
the previous one returned its verdict.  Every verdict is checked against
a known answer.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics, measured untraced; with ``--trace 1`` it reports the
per-layer metrics of a separate traced run, rebuilt step by step from
public calls (see ``layers.py``).  Timings are in reference-seconds (see
``refclock.py``); NOTES.md records why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("gridscale", "replay", "suite")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Passes a run makes at least, so count drift can show.
MIN_PASSES = 2
#: Within a pass a launch is repeated, in rounds over the whole list, until
#: it has run this long (or ``LAUNCH_MAX_REPS`` times), so that short
#: launches get enough repetitions for a steady median.
LAUNCH_MIN_S = 0.1
LAUNCH_MAX_REPS = 8
#: Where runs keep temporary captures and the per-seed count ledger.
WORK_DIR = ".phasebench_work"
SUBPROCESS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "launch_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "verdict_pass_rate": "ratio",
}


def _helper(action: str, *args: str) -> str:
    """Run ``helper.py`` in a fresh interpreter; returns its stdout."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "helper.py"), action, *args],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"helper {action} failed: {done.stderr.strip()[-800:]}")
    return done.stdout


def tree_digest(top: str) -> str:
    """Content digest of the ``.py`` files under ``top`` (the checkout
    has no git)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()[:16]


def src_digest() -> str:
    """Content digest of the program under test."""
    return tree_digest(os.path.join(SRC, "repro"))


def _commit() -> Optional[str]:
    """The checkout's git commit; None outside a git working tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=10,
                          check=False)
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Bench:
    """One benchmark run: known answers, timed passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, wrong_answer: bool = False) -> None:
        from launches import LAUNCH_LISTS

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke, self.wrong_answer = trace, smoke, wrong_answer
        self.launches = LAUNCH_LISTS[workload](seed, smoke)
        self.work = os.path.join(os.getcwd(), WORK_DIR,
                                 f"{workload}-{seed}-{os.getpid()}")
        self.modules: Dict[str, object] = {}
        self.blobs: Dict[str, bytes] = {}
        self.failures: Dict[int, List[str]] = {}
        self.failed_runs: set = set()
        self.attempted = 0
        #: Per launch, one (wall, normalized, outcome, error) per pass;
        #: traced entries add the pass's spans and build.
        self.untraced: List[List[tuple]] = [[] for _ in self.launches]
        self.traced: List[List[tuple]] = [[] for _ in self.launches]
        self._verdicts: Dict[tuple, object] = {}
        self.peak_rss_kb = 0
        self.clock = None

    def fail(self, index: int, run: tuple, reason: str) -> None:
        """Count launch execution ``run`` of launch ``index`` as failed."""
        self.failures.setdefault(index, []).append(reason)
        self.failed_runs.add((index,) + run)

    # -- preparation ---------------------------------------------------
    def prepare(self) -> None:
        """Untimed: captures and known answers, compiled modules.

        Captures are made and replayed through the reference detector in
        helper interpreters, so no timed pass records a capture and the
        measuring process's peak memory holds none.
        """
        from launches import freeze

        os.makedirs(self.work, exist_ok=True)
        if self.workload in ("gridscale", "replay"):
            _helper("captures", "--workload", self.workload, "--seed",
                    str(self.seed), "--dir", self.work,
                    *(["--smoke"] if self.smoke else []))
            _helper("reference", "--dir", self.work)
            answers = {}
            for name in ("live", "reference"):
                with open(os.path.join(self.work, f"{name}.json")) as stream:
                    answers[name] = json.load(stream)
            for launch in self.launches:
                launch.expected["verdict"] = freeze(
                    answers["reference"][launch.name])
                if launch.kind == "replay":
                    launch.expected["live"] = freeze(answers["live"][launch.name])
                    with open(os.path.join(self.work, f"{launch.name}.bcap"),
                              "rb") as stream:
                        self.blobs[launch.name] = stream.read()
        for launch in self.launches:
            if launch.kind == "live" and launch.spec.source not in self.modules:
                self.modules[launch.spec.source] = launch.spec.compile()
        if self.wrong_answer:
            self._corrupt_known_answer(self.launches[0])
        # Exempt long-lived state from collection, so the collection
        # before each launch scans only what launches left behind.
        gc.collect()
        gc.freeze()

    @staticmethod
    def _corrupt_known_answer(launch) -> None:
        """Smoke mode: one deliberately wrong answer, which must fail."""
        if launch.kind in ("program", "sweep"):
            label = launch.program.expected.value
            launch.expected["label"] = "race" if label != "race" else "no-race"
        else:
            launch.expected["verdict"] = ((), (("wrong", ()),))

    def setup_probes(self) -> dict:
        """Several timed set-ups, each in a fresh interpreter."""
        values, walls = [], []
        repeats = 1 if self.smoke else SETUP_REPEATS
        for _ in range(repeats):
            probe = json.loads(_helper(
                "setup", "--workload", self.workload, "--seed", str(self.seed),
                "--dir", self.work, *(["--smoke"] if self.smoke else [])))
            walls.append(probe["wall_s"])
            values.append(probe["normalized_s"])
        return {"normalized": values, "wall": walls}

    # -- measurement ---------------------------------------------------
    def _untraced_call(self, launch):
        from launches import run_live, run_program_launch, run_replay, \
            run_sweep_launch

        if launch.kind == "live":
            module = self.modules[launch.spec.source]
            return lambda: run_live(launch, module)
        if launch.kind == "replay":
            blob = self.blobs[launch.name]
            return lambda: run_replay(blob)
        if launch.kind == "program":
            return lambda: run_program_launch(launch)
        return lambda: run_sweep_launch(launch)

    def _timed(self, fn):
        """Time one launch, starting from a collected heap.

        Collecting first bills each launch for the collections its own
        allocations trigger, not for the garbage of the launch before:
        without it, replaying hotspot.x16 took 310 ms median (spread
        14-17%) against 214-225 ms (8-9%) with it.
        """
        gc.collect()
        self.clock.rebase()
        return self.clock.time(fn)

    def _pass(self, make_call) -> None:
        """One pass: every launch, in order, in rounds.

        A launch is run again in the next round until it has taken
        ``LAUNCH_MIN_S`` or ``LAUNCH_MAX_REPS`` runs.  Repeating in rounds
        rather than back to back keeps the other launches between two
        runs of one, so per-launch caches (the 64-entry PTX parse cache)
        see the same cycle as a client working through the list.
        ``make_call(launch)`` returns the call to time and the state to
        record with it: nothing when untraced, the spans and build when
        traced.
        """
        from launches import guarded

        spent = [0.0] * len(self.launches)
        pending = list(range(len(self.launches)))
        for _ in range(LAUNCH_MAX_REPS):
            for index in pending:
                fn, state = make_call(self.launches[index])
                (outcome, error), wall, norm = self._timed(guarded(fn))
                self.attempted += 1
                if outcome is not None:
                    # Keep one copy of a repeated verdict, so memory does
                    # not grow with the number of repetitions.
                    outcome.verdict = self._verdicts.setdefault(
                        (index, outcome.verdict), outcome.verdict)
                else:
                    spent[index] = LAUNCH_MIN_S  # no retries after a failure
                store = self.traced if state else self.untraced
                store[index].append((wall, norm, outcome, error) + state)
                spent[index] += wall
            pending = [i for i in pending if spent[i] < LAUNCH_MIN_S]
            if not pending:
                return

    def untraced_pass(self) -> None:
        self._pass(lambda launch: (self._untraced_call(launch), ()))

    def traced_pass(self) -> dict:
        """One traced pass; returns the ``parse_ptx_cached`` hit delta."""
        from layers import Spans, TracedBuild
        from repro.ptx.parser import parse_ptx_cached

        def traced_call(launch):
            build = TracedBuild(Spans())
            module = self.modules.get(launch.spec.source)
            blob = self.blobs.get(launch.name)
            return (lambda: build.run(launch, module, blob)), (build.spans, build)

        before = parse_ptx_cached.cache_info()
        self._pass(traced_call)
        after = parse_ptx_cached.cache_info()
        return {"hits": after.hits - before.hits,
                "misses": after.misses - before.misses}

    def measure(self) -> dict:
        from refclock import RefClock

        start = time.perf_counter()
        passes, cache = 0, None
        with RefClock() as self.clock:
            while True:
                pass_start = time.perf_counter()
                self.untraced_pass()
                if self.trace:
                    delta = self.traced_pass()
                    cache = cache or delta
                passes += 1
                if passes == 1:
                    # Peak memory to get every verdict once; later passes
                    # only repeat launches, and what they keep would make
                    # the figure depend on how many passes fit in a run.
                    self.peak_rss_kb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss
                elapsed = time.perf_counter() - start
                last = time.perf_counter() - pass_start
                if passes >= MIN_PASSES and (
                        self.smoke or elapsed + last > self.seconds):
                    break
        return {"passes": passes, "cache": cache,
                "measured_s": time.perf_counter() - start}

    # -- checks --------------------------------------------------------
    def verify(self) -> None:
        from launches import check

        for index, launch in enumerate(self.launches):
            runs = [(("untraced", n),) + run
                    for n, run in enumerate(self.untraced[index])]
            runs += [(("traced", n),) + run[:4]
                     for n, run in enumerate(self.traced[index])]
            base = None
            for run, _wall, _norm, outcome, error in runs:
                if error is not None:
                    self.fail(index, run, error)
                    continue
                reason = check(launch, outcome)
                if reason is not None:
                    self.fail(index, run, reason)
                records = outcome.records if launch.kind in ("live", "replay") \
                    else None
                key = (outcome.verdict, records, outcome.counts)
                if base is None:
                    base = key
                elif key != base:
                    self.fail(index, run, "verdict or counts drifted "
                                          "between passes")
            self._check_parity(index, launch)

    def _check_parity(self, index: int, launch) -> None:
        """Traced step-by-step build vs the untraced public path."""
        reference = next((o for _w, _n, o, e in self.untraced[index]
                          if e is None), None)
        counts = None
        for n, (_wall, _norm, outcome, error, _spans, build) in \
                enumerate(self.traced[index]):
            if error is not None or reference is None:
                continue
            run = ("traced", n)
            if outcome.verdict != reference.verdict:
                self.fail(index, run, "traced build verdict differs (parity)")
            if launch.kind in ("live", "replay") and \
                    outcome.records != reference.records:
                self.fail(index, run,
                          "traced build record count differs (parity)")
            if counts is None:
                counts = build.counts
            elif build.counts != counts:
                self.fail(index, run, "per-layer counts drifted between passes")

    def check_count_ledger(self, counts_by_launch: Dict[str, dict]) -> None:
        """Counts must repeat exactly across runs with the same seed."""
        ledger_dir = os.path.join(os.getcwd(), WORK_DIR, "counts")
        os.makedirs(ledger_dir, exist_ok=True)
        # Keyed by the benchmark's code too: a change to how a count is
        # defined or summed must not be read as drift.
        name = f"{self.workload}-{self.seed}-{'smoke-' if self.smoke else ''}" \
               f"{src_digest()}-{tree_digest(HERE)}.json"
        path = os.path.join(ledger_dir, name)
        if os.path.exists(path):
            with open(path) as stream:
                previous = json.load(stream)
            for index, launch in enumerate(self.launches):
                if launch.name in previous and \
                        previous[launch.name] != counts_by_launch.get(launch.name):
                    self.fail(index, ("ledger",), "per-layer counts differ from "
                                                  "an earlier run with the same seed")
        else:
            with open(path, "w") as stream:
                json.dump(counts_by_launch, stream, sort_keys=True)

    # -- metrics -------------------------------------------------------
    @staticmethod
    def launch_times(runs: List[List[tuple]]) -> List[float]:
        """Each launch's value for the run: the median of its
        normalized times (NOTES.md says why not the minimum)."""
        return [statistics.median(run[1] for run in per_launch)
                for per_launch in runs]

    def end_to_end(self, setup: dict) -> dict:
        times = self.launch_times(self.untraced)
        return {
            "setup_s": statistics.median(setup["normalized"]),
            "pass_s": sum(times),
            "launch_p50_ms": statistics.median(times) * 1e3,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
            "verdict_pass_rate": (self.attempted - self.failed()) / self.attempted,
        }

    def failed(self) -> int:
        """Launch executions that failed, each counted once."""
        return min(self.attempted, len(self.failed_runs))

    def per_layer(self, cache: dict) -> dict:
        from layers import aggregate

        chosen, counts = [], {}
        for launch, runs in zip(self.launches, self.traced):
            ok = [run for run in runs if run[3] is None]
            if not ok:
                continue
            median = statistics.median_low(run[1] for run in ok)
            wall, norm, _outcome, _error, spans, build = next(
                run for run in ok if run[1] == median)
            chosen.append((norm / wall if wall > 0 else 0.0, spans, build))
            counts[launch.name] = build.counts
        metrics = aggregate(chosen, cache)
        traced = sum(self.launch_times(self.traced))
        untraced = sum(self.launch_times(self.untraced))
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        self.check_count_ledger(counts)
        return metrics

    # -- one run ---------------------------------------------------------
    def run(self) -> dict:
        from layers import PER_LAYER_UNITS

        try:
            self.prepare()
            setup = None if self.trace else self.setup_probes()
            info = self.measure()
            self.verify()
            if self.trace:
                metrics, units = self.per_layer(info["cache"]), PER_LAYER_UNITS
            else:
                metrics, units = self.end_to_end(setup), END_TO_END_UNITS
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        failed = self.failed()
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        return {"result": result,
                "provenance": self.provenance(setup, info)}

    def provenance(self, setup: Optional[dict], info: dict) -> dict:
        from repro.columnar import have_numpy

        untraced_wall = sum(statistics.median(run[0] for run in runs)
                            for runs in self.untraced)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "smoke": self.smoke,
            "commit": _commit(),
            "src_digest": src_digest(),
            "python": platform.python_version(),
            "numpy": have_numpy(),
            "repro_no_numpy": bool(os.environ.get("REPRO_NO_NUMPY")),
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "passes": info["passes"],
            "measured_s": info["measured_s"],
            "launches": len(self.launches),
            "reference_probe_s": self.clock.summary(),
            "raw_wall_pass_s": untraced_wall,
            "launch_s": dict(zip((launch.name for launch in self.launches),
                                 self.launch_times(self.untraced))),
            "setup": setup,
            "failures": {self.launches[i].name: reasons
                         for i, reasons in sorted(self.failures.items())},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasebench")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for the benchmark's own test")
    parser.add_argument("--wrong-answer", action="store_true",
                        help="smoke only: corrupt one known answer")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"phasebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  smoke=args.smoke, wrong_answer=args.wrong_answer)
    report = bench.run()
    print(json.dumps({"provenance": report["provenance"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
