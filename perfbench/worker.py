"""One timed pass of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py WORKDIR [--trace]

WORKDIR holds spec.json and oracle.json as written by run.py. The timed
region starts before `import leetforge` and ends when the result is complete;
ru_maxrss is read there too. Right after, the pass times reference_work(), so
run.py can tell how fast the host ran at that moment. Only then is the oracle
loaded and the result checked. With --trace the pass records spans, writes
them to WORKDIR, and exits with status 3 if any span the workload names
recorded no call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

# Traced calls whose results the per-layer counts are taken from.
KEEP = ("cracker.crack", "corpus.load_wordlist_files")

# Character maps of the reference work, in the manner of the builtin rules.
_REF_MAPS = [str.maketrans(a, b) for a, b in (
    ("a", "4"), ("e", "3"), ("ao", "40"), ("eis", "315"),
    ("o", "0"), ("s", "$"), ("aeio", "4310"), ("t", "7"))]


def reference_work() -> float:
    """Seconds taken by a fixed stdlib job shaped like leetforge's own work.

    It rewrites 10,000 seeded words through eight character maps, dedups the
    results in a set and adds the MD5 digest of each one. It uses nothing from
    leetforge, so no change to the program alters it; only the host's speed does.
    """
    rng = random.Random(20060839)
    words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(5, 10)))
             for _ in range(10000)]
    t0 = perf_counter()
    seen = set()
    for word in words:
        for char_map in _REF_MAPS:
            seen.add(word.translate(char_map))
    seen.update([hashlib.md5(c.encode()).hexdigest() for c in seen])
    return perf_counter() - t0


def layer_metrics(tr: tracing.Tracer, wall_s: float, check: dict, bytes_out: int) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    spans = tr.spans
    summary = tracing.summarize(spans)
    total, layer_self = summary["total"], summary["layer_self"]
    own = tracing.self_times(spans)
    crack_idx = [i for i, s in enumerate(spans) if s[0] == "cracker.crack"]
    crack_self = sum(own[i] for i in crack_idx)
    input_wait = sum(tracing.duration(s) for s in spans
                     if s[0] == tracing.ITER_SPAN and s[3] in crack_idx)
    results = tr.kept["cracker.crack"]
    attempted = sum(r.attempted for r in results)
    hits = sum(len(r.matches) for r in results)
    suppressed = sum(s.stats.suppressed_duplicates for s in tr.streams if hasattr(s, "stats"))
    gen_busy = layer_self.get("generator", 0.0)
    # Phases of run_benchmark end where its crack calls end.
    bench_idx = [i for i, s in enumerate(spans) if s[0] == "bench.run_benchmark"]
    ends = [spans[bench_idx[0]][1]] if bench_idx else []
    ends += [spans[i][2] for i in crack_idx if spans[i][3] in bench_idx]
    phases = [b - a for a, b in zip(ends, ends[1:])] + [0.0, 0.0]
    return {
        "corpus.load_s": total.get("corpus.load_wordlist_files", 0.0),
        "corpus.unique_words": sum(len(w) for w in tr.kept["corpus.load_wordlist_files"]),
        "corpus.self_s": layer_self.get("corpus", 0.0),
        "rules.build_s": total.get("rules.builtin_rules", 0.0),
        "hashstore.load_s": total.get("hashstore.load_hashes", 0.0),
        "hashstore.self_s": layer_self.get("hashstore", 0.0),
        "bench.hash_parses": sum(1 for s in spans
                                 if s[0] == "hashstore.load_hashes" and s[3] in bench_idx),
        "bench.baseline_phase_s": phases[0],
        "bench.pattern_phase_s": phases[1],
        "bench.self_s": layer_self.get("bench", 0.0),
        "generator.busy_s": gen_busy,
        "generator.emitted": tr.emitted,
        "generator.suppressed": suppressed,
        "generator.useful_ratio": tr.emitted / (tr.emitted + suppressed)
                                  if tr.emitted + suppressed else 0.0,
        "generator.candidates_per_s": tr.emitted / gen_busy if gen_busy > 0 else 0.0,
        "generator.rss_growth_mib": tr.rss_growth_mib,
        "cracker.self_s": crack_self,
        "cracker.input_wait_s": input_wait,
        "cracker.attempted": attempted,
        "cracker.hit_ratio": hits / attempted if attempted else 0.0,
        "cracker.hashes_per_s": attempted / crack_self if crack_self > 0 else 0.0,
        "cli.write_s": layer_self.get("cli", 0.0),
        "cli.bytes_out": bytes_out,
        "detector.audit_s": total.get("detector.audit", 0.0),
        "detector.deleet_s": total.get("detector.deleet", 0.0),
        "detector.dict_lookup_s": total.get("corpus.contains_casefold", 0.0),
        "detector.self_s": layer_self.get("detector", 0.0),
        "detector.findings": check.get("findings", 0),
        "detector.missed": check.get("missed", 0),
        "harness.self_s": layer_self.get("harness", 0.0),
        "trace.unattributed_s": wall_s - sum(layer_self.values()),
        "trace.spans": len(spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((args.workdir / "spec.json").read_text(encoding="utf-8"))
    name = spec["workload"]
    work = workloads.WORKLOADS[name]
    tr = tracing.Tracer(keep=KEEP) if args.trace else tracing.NULL
    sys.path.insert(0, spec["src"])

    t0 = perf_counter()
    lf = tr.call("harness.import", workloads.import_program, name)
    if tr.enabled:
        work.instrument(lf, tr)
    state = work.setup(lf, spec, tr)
    t1 = perf_counter()
    output, items = work.run(lf, state, tr)
    t2 = perf_counter()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = reference_work()

    if not Path(lf.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"worker: imported leetforge from {lf.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    expected = json.loads((args.workdir / "oracle.json").read_text(encoding="utf-8"))
    check = work.check(output, expected)
    result = {"wall_s": t2 - t0, "setup_s": t1 - t0, "ref_s": ref_s, "items": items,
              "rss_kib": rss_kib, "check": check}
    if output.get("latencies"):
        lat = sorted(output["latencies"])
        result["audit_p50_us"] = 1e6 * lat[len(lat) // 2]
        result["audit_p99_us"] = 1e6 * lat[min(len(lat) - 1, int(0.99 * len(lat)))]
    if tr.enabled:
        tr.dump(args.workdir / "spans.jsonl")
        silent = tracing.missing_spans(work.spans, tr.spans)
        if silent:
            print(f"worker: {name}: span(s) recorded zero calls: {', '.join(silent)}",
                  file=sys.stderr)
            return 3
        bytes_out = sum(Path(p).stat().st_size for p in output.get("cli_files", ()))
        result["layers"] = layer_metrics(tr, t2 - t0, check, bytes_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
