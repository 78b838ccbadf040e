#!/usr/bin/env python3
"""leetforge benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a leetforge checkout:

    python3 perfbench/run.py --workload bench-uplift --seed 1 --seconds 25 --trace 0

--workload is one of the names in BENCHMARK.json, or `all`. The run writes
its seeded inputs and their expected results under .perfbench/, then starts
one fresh worker process after another (one caller, a closed loop) until
--seconds have passed, and at least three times. Each worker imports
leetforge from src/, times one pass, and checks the result against the
expected one.

The host's CPU speed drifts: on the 2-CPU machine baseline.json comes from,
a fixed job ran up to twice as slow for seconds at a time. So every worker
also times a fixed reference job right after its pass
(worker.reference_work), and each time is scaled by REF_S / ref_s. That is
the pass's time at the speed at which the reference job takes REF_S. A slow
stretch slows the pass and the reference job alike, so the scaled time
follows the code, not the host.

--trace 0 reports each end-to-end metric as the median over the run's
passes: wall_s and setup_s scaled, items_per_s = items / scaled (wall_s -
setup_s), and peak_rss_mib. The readable lines also give the quartiles and
the unscaled medians.

--trace 1 alternates untraced and traced workers. It reports the median of
each per-layer metric over the traced passes, and trace.overhead_s = median
scaled traced wall_s - median scaled untraced wall_s.

Readable lines come first. The last line of stdout is one JSON object with
correct, attempted, failed and metrics. A failed worker stops the run with a
non-zero exit status and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Reserved for confirming a claimed gain; do not tune against it.
HELD_OUT_SEED = 104729
MIN_SAMPLES = 3
# The reference job's typical time on the machine baseline.json comes from.
REF_S = 0.12
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def run_child(cmd: list[str], root: Path) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[1]).name} timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def run_worker(root: Path, workdir: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir)]
    if traced:
        cmd.append("--trace")
    return json.loads(run_child(cmd, root).strip().splitlines()[-1])


def scaled(sample: dict, key: str) -> float:
    """A pass's time at the speed at which the reference job takes REF_S."""
    return sample[key] * REF_S / sample["ref_s"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool,
                 bench: dict) -> tuple[dict, list[str]]:
    base = root / ".perfbench"
    workdir = base / "work" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        # A child's ru_maxrss starts at its parent's RSS when it is started,
        # so the inputs and expected results are built in a process of their own.
        run_child([sys.executable, str(HERE / "workloads.py"), name, str(seed), str(workdir),
                   str(root / "src")], root)
        prepare_s = time.perf_counter() - t0

        plain: list[dict] = []
        traced_samples: list[dict] = []
        deadline = time.monotonic() + seconds
        while len(plain) < MIN_SAMPLES or time.monotonic() < deadline:
            plain.append(run_worker(root, workdir, False))
            if traced:
                traced_samples.append(run_worker(root, workdir, True))
        if traced:
            (base / "spans").mkdir(exist_ok=True)
            shutil.copyfile(workdir / "spans.jsonl", base / "spans" / f"{name}-s{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = traced_samples if traced else plain
    attempted = sum(s["check"]["attempted"] for s in samples)
    failed = sum(s["check"]["failed"] for s in samples)
    mismatched = sum(s["check"]["mismatched"] for s in samples)
    med = statistics.median
    if traced:
        values = {key: [s["layers"][key] for s in traced_samples]
                  for key in traced_samples[0]["layers"]}
        for key in ("audit_p50_us", "audit_p99_us"):
            values[f"detector.{key}"] = [s.get(key, 0.0) for s in plain]
        values["trace.overhead_s"] = [med(scaled(s, "wall_s") for s in traced_samples)
                                      - med(scaled(s, "wall_s") for s in plain)]
        declared = bench["per_layer"]
    else:
        values = {
            "wall_s": [scaled(s, "wall_s") for s in plain],
            "setup_s": [scaled(s, "setup_s") for s in plain],
            "items_per_s": [s["items"] / (scaled(s, "wall_s") - scaled(s, "setup_s"))
                            for s in plain],
            "peak_rss_mib": [s["rss_kib"] / 1024 for s in plain],
        }
        declared = bench["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"{name}: no measurement for declared metric {m['name']}")
        metrics[m["name"]] = {"value": med(values[m["name"]]), "unit": m["unit"]}

    lines = [f"perfbench {name}: seed={seed} held_out_seed={HELD_OUT_SEED} "
             f"trace={int(traced)} samples={len(samples)} prepare_s={prepare_s:.2f} "
             f"nproc={os.cpu_count()} python={platform.python_version()} "
             f"commit={git_commit(root)}"]
    for key, m in metrics.items():
        lo, hi = quartiles(values[key])
        lines.append(f"  {key:<28} {m['value']:>14.6g} {m['unit']:<8} "
                     f"(median of {len(values[key])}; quartiles {lo:.6g} .. {hi:.6g})")
    if not traced:
        lines.append(f"  {'unscaled':<28} wall_s {med(s['wall_s'] for s in plain):.6g} s, "
                     f"setup_s {med(s['setup_s'] for s in plain):.6g} s, "
                     f"ref_s {med(s['ref_s'] for s in plain):.6g} s (medians; REF_S = {REF_S} s)")
    if not traced and plain[0].get("audit_p50_us") is not None:
        for key in ("audit_p50_us", "audit_p99_us"):
            lines.append(f"  {key:<28} {med(s[key] for s in plain):>14.6g} us       "
                         f"(median over {len(plain)} passes of the per-password latency)")
    lines.append(f"  {'failed_frac':<28} {mismatched / attempted:>14.6g} "
                 f"({mismatched} of {attempted} checked results differ from ground truth; "
                 f"{failed} wrong)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "leetforge" / "__init__.py").is_file() or not bench_file.is_file():
        print("perfbench: run from the root of a leetforge checkout "
              "(src/leetforge and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    # The checkers use tests/oracles.py, so workloads is imported only in a checkout.
    import workloads
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result, lines = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace), bench)
        except BenchError as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
