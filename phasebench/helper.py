"""Work the measuring process must not do itself, each in a fresh interpreter.

    python3 phasebench/helper.py setup --workload W --seed N --dir D
        One timed set-up: import ``repro``, build the workload's seeded
        inputs, compile and register every distinct module and, for
        ``replay``, load the capture bytes from D.  Prints one JSON
        object with its wall and reference-normalized seconds.

    python3 phasebench/helper.py captures --workload W --seed N --dir D
        Run every launch of ``gridscale`` or ``replay`` live, write its
        BCAP capture to D and its live verdict to D/live.json.  Capturing
        and the simulator's memory are billed to this process, not to the
        measuring one.

    python3 phasebench/helper.py reference --dir D
        Replay every capture in D through the uncompressed reference
        detector and write the verdicts to D/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_path() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"phasebench: no repro package under {SRC}")
    sys.path.insert(0, SRC)


def capture_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.bcap")


def setup(workload: str, seed: int, directory: str, smoke: bool) -> dict:
    from refclock import RefClock

    def build() -> dict:
        _import_path()
        from launches import LAUNCH_LISTS
        from repro.runtime.session import BarracudaSession

        launches = LAUNCH_LISTS[workload](seed, smoke)
        modules = {}
        for launch in launches:
            if launch.spec.source not in modules:
                module = launch.spec.compile()
                BarracudaSession().register_module(module)
                modules[launch.spec.source] = module
        blobs = 0
        if workload == "replay":
            for launch in launches:
                with open(capture_path(directory, launch.name), "rb") as stream:
                    blobs += len(stream.read())
        return {"modules": len(modules), "capture_bytes": blobs}

    with RefClock() as clock:
        info, wall, normalized = clock.time(build)
    info.update(wall_s=wall, normalized_s=normalized)
    return info


def captures(workload: str, seed: int, directory: str, smoke: bool) -> None:
    _import_path()
    from launches import LAUNCH_LISTS, launch_module, report_signature
    from repro.runtime.replay import save_capture_binary

    live = {}
    for launch in LAUNCH_LISTS[workload](seed, smoke):
        module = launch.spec.compile()
        result = launch_module(launch.spec, module, capture_records=True)
        with open(capture_path(directory, launch.name), "wb") as stream:
            save_capture_binary(stream, launch.spec.layout(),
                                result.captured_records, kernel=launch.name)
        live[launch.name] = report_signature(result.reports)
    with open(os.path.join(directory, "live.json"), "w") as stream:
        json.dump(live, stream)


def reference(directory: str) -> None:
    _import_path()
    from launches import report_signature
    from repro.runtime.replay import load_capture_binary, replay

    verdicts = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".bcap"):
            continue
        with open(os.path.join(directory, entry), "rb") as stream:
            layout, _kernel, batches = load_capture_binary(stream)
        reports = replay(layout, batches, reference=True)
        verdicts[entry[:-len(".bcap")]] = report_signature(reports)
    with open(os.path.join(directory, "reference.json"), "w") as stream:
        json.dump(verdicts, stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "captures", "reference"))
    parser.add_argument("--workload", default="gridscale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.action == "setup":
        print(json.dumps(setup(args.workload, args.seed, args.dir, args.smoke)))
    elif args.action == "captures":
        captures(args.workload, args.seed, args.dir, args.smoke)
    else:
        reference(args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
