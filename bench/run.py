"""setlaw benchmark: four seeded workloads run through the CLI and the
geometry API, each invocation in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]   # every workload, both modes
    python3 bench/run.py --self-check                # every check flags wrong outputs

One run repeats whole rounds of invocations of its workload, with the
same inputs, until ``--seconds`` have passed.  With ``--trace 0`` a round
is one timed invocation, plus set-up-only invocations on the workloads
whose invocations are long, and the run reports the end-to-end metrics
(medians over invocations); with ``--trace 1`` a round adds a traced
invocation at 1 worker, and the run reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


@dataclass
class Invocation:
    traced: bool
    threads: int
    setup_only: bool
    report: dict | None
    setup_s: float = 0.0
    wall_s: float = 0.0
    ops_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    hashes: dict | None = None
    verdict: Verdict | None = None
    error: str | None = None


def child_env() -> dict:
    # byte code is cached, as it is for an installed package
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SETLAW_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def warm_up() -> None:
    """Import the library once untimed, so byte code and the page cache are warm."""
    subprocess.run([sys.executable, "-c", "import setlaw.cli"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def invoke(wl, args: list[str], work: Path, index: int, traced: bool,
           threads: int, setup_only: bool = False) -> Invocation:
    """Run one fresh child process, timed from just before it starts.

    Its outputs stay in ``work/inv<index>`` for the caller to check.  The
    time the child spent on the benchmark's own work is not counted.
    """
    out = work / f"inv{index}"
    out.mkdir()
    report_path = work / f"inv{index}.json"
    extra = ["--out", str(out)] + (["--threads", str(threads)] if args[0] == "cli" else [])
    cmd = [sys.executable, str(BENCH / "child.py"), "--report", str(report_path),
           "--trace", str(int(traced))] + ["--setup-only"] * setup_only + args + extra
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    except BaseException:
        # this run is being stopped: end the child's whole process group too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    t1 = time.monotonic()
    inv = Invocation(traced, threads, setup_only, None)
    if proc.returncode != 0 or not report_path.is_file():
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        inv.error = f"exited {proc.returncode}: {' | '.join(tail)}"
        return inv
    rep = json.loads(report_path.read_text(encoding="utf-8"))
    if rep["t_setup"] is None or (rep["t_ops_end"] is None and not setup_only):
        inv.error = "never reached its timed operations"
        return inv
    inv.report = rep
    inv.setup_s = rep["t_setup"] - t0 - rep["own_setup_s"]
    if setup_only:
        return inv
    inv.wall_s = t1 - t0 - rep["own_s"]
    inv.ops_per_s = wl.ops / (rep["t_ops_end"] - rep["t_setup"])
    inv.peak_rss_mb = (rep["maxrss_self_kb"] + rep["maxrss_children_kb"]) / 1024.0
    inv.hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.rglob("*")) if p.is_file()}
    return inv


def _all_failed(wl, kind: str, problem: str | None = None) -> Verdict:
    v = Verdict(wl.ops)
    v.mark(kind, np.ones(wl.ops))
    if problem:
        v.problem(problem)
    return v


def check_outputs(wl, out: Path) -> Verdict:
    try:
        return wl.check(wl.load(out))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _all_failed(wl, "output.unreadable", f"outputs could not be read: {exc!r}")


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: prints what it saw, then returns the result object."""
    lines = [f"machine: {json.dumps(machine_facts())}"]
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # (traced, threads, setup_only); a traced round adds a traced invocation
    # at 1 worker, and, for a pool workload, an untraced one at 1 worker to
    # measure the overhead against.  An untraced round adds set-up-only
    # invocations, so that every run sets up about ten times or more.
    rounds = [(False, wl.threads, False)]
    if trace:
        rounds += [(False, 1, False)] * (wl.threads > 1) + [(True, 1, False)]
    else:
        rounds += [(False, wl.threads, True)] * wl.setup_probes
    invs: list[Invocation] = []
    probes: list[Invocation] = []
    problems: list[str] = []
    try:
        args = wl.prepare(seed, work)
        warm_up()
        first: Invocation | None = None
        begin, last_round = time.monotonic(), 0.0
        # start another round only if it should end within the run's time
        while not invs or time.monotonic() - begin + last_round <= seconds:
            round_start = time.monotonic()
            for traced, threads, setup_only in rounds:
                index = len(invs) + len(probes)
                inv = invoke(wl, args, work, index, traced, threads, setup_only)
                out = work / f"inv{index}"
                if setup_only:
                    if inv.report is None:
                        problems.append(f"set-up-only invocation {index} {inv.error}")
                    probes.append(inv)
                elif inv.report is None:
                    inv.verdict = _all_failed(wl, "invocation.error")
                    lines.append(f"invocation {index} {inv.error}")
                elif first is None:
                    first = inv
                    inv.verdict = check_outputs(wl, out)
                    lines += [f"sha256 {name} {digest}" for name, digest in inv.hashes.items()]
                elif inv.hashes == first.hashes:
                    inv.verdict = first.verdict
                else:
                    # same seed, so the bytes must repeat (also across --threads)
                    inv.verdict = _all_failed(wl, "repeat.bytes_differ")
                shutil.rmtree(out, ignore_errors=True)
                if not setup_only:
                    invs.append(inv)
            last_round = time.monotonic() - round_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    timed = [i for i in invs if i.report is not None and not i.traced
             and i.threads == wl.threads]
    traced = [i for i in invs if i.report is not None and i.traced]
    if not timed or (trace and not traced):
        print("\n".join(lines))
        raise RuntimeError(f"{wl.name}: no invocation completed; see the lines above")
    kinds: dict[str, int] = {}
    for inv in invs:
        for kind, count in inv.verdict.kinds.items():
            kinds[kind] = kinds.get(kind, 0) + count
        problems += [p for p in inv.verdict.problems if p not in problems]
    for i, inv in enumerate(invs):
        lines.append(f"invocation {i} {'traced' if inv.traced else 'timed'} "
                     f"threads={inv.threads}: "
                     f"setup_s={inv.setup_s:.4f} wall_s={inv.wall_s:.4f} "
                     f"ops_per_s={inv.ops_per_s:.6g} peak_rss_mb={inv.peak_rss_mb:.2f} "
                     f"failed={inv.verdict.failed}/{wl.ops}")
    setups = [i.setup_s for i in timed + probes if i.report is not None]
    if probes:
        lines.append(f"setup_s of the timed, then the set-up-only invocations: "
                     f"{' '.join(f'{s:.4f}' for s in setups)}")
    lines.append(f"failed operations by check: {json.dumps(kinds, sort_keys=True)}")
    lines += [f"problem: {p}" for p in problems]

    if trace:
        per = [spans.layer_metrics(i.report, wl.ops) for i in traced]
        values = {name: statistics.median(p[name] for p in per) for name in per[0]}
        plain = [i for i in invs if i.report is not None and not i.traced and i.threads == 1]
        values["trace.overhead_s"] = (statistics.median(i.wall_s for i in traced)
                                      - statistics.median(i.wall_s for i in plain))
        missing = sorted({m for i in traced for m in i.report.get("missing_hooks", [])})
        if missing:
            lines.append(f"trace hooks not found (metrics read 0): {', '.join(missing)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in spans.PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(setups if name == "setup_s" else
                                                     [getattr(i, name) for i in timed]),
                          "unit": unit} for name, unit, _better in END_TO_END}
    print("\n".join(lines))
    return {"correct": not problems,
            "attempted": wl.ops * len(invs),
            "failed": sum(i.verdict.failed for i in invs),
            "metrics": metrics}


def machine_facts() -> dict:
    """What the numbers depend on; numpy fixes the Philox streams."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def self_check(seed: int) -> int:
    """Feed every check a real output and deliberately wrong copies of it."""
    bad = 0
    for wl in WORKLOADS.values():
        work = WORK / f"selfcheck-{wl.name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            inv = invoke(wl, wl.prepare(seed, work), work, 0, False, wl.threads)
            if inv.report is None:
                print(f"{wl.name}: the invocation failed")
                bad += 1
                continue
            data = wl.load(work / "inv0")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        real = wl.check(data)
        print(f"{wl.name}: real output failed {real.failed}/{wl.ops} "
              f"{dict(real.kinds)} problems={real.problems}")
        for label, base, wrong in wl.mutations(data):
            before, after = wl.check(base), wl.check(wrong)
            caught = after.failed > before.failed or len(after.problems) > len(before.problems)
            bad += not caught
            print(f"  {'flagged' if caught else 'MISSED '}: {label}")
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()
    print(f"self-check: {'all mutations flagged' if not bad else f'{bad} missed'}")
    return 0 if not bad else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each run's lines and metrics in turn.

    The last line sums them up as one JSON object whose metric names are
    prefixed with their workload; it exits nonzero if any run was not correct.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in WORKLOADS.items():
        for trace in (0, 1):
            print(f"\n== {name} --trace {trace}")
            try:
                result = run(wl, seed, seconds, bool(trace))
            except RuntimeError as exc:
                print(f"bench: {exc}")
                total["correct"] = False
                continue
            print(f"attempted {result['attempted']} failed {result['failed']} "
                  f"correct={result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']}")
                total["metrics"][f"{name}/{metric}"] = m
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def _stop(signum, frame):
    """A stopped run still ends its child processes and removes its files."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not (SRC / "setlaw" / "__init__.py").is_file():
        print(f"bench: no setlaw sources at {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("bench: --seed must be in [0, 2^64)", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(args.seed)
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
