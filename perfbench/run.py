#!/usr/bin/env python3
"""The simulator's benchmark: host wall time, peak RSS and set-up time of
four workloads end to end, and host cost per module from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from the root of a checkout. The first call builds perfbench/perfbench.cpp
together with the simulator sources under src/ (Release) into
$CARGO_TARGET_DIR/perfbench/<tree>, or .bench_build/perfbench/<tree> when that
is unset; <tree> names the checkout's path and the digest of the sources, so
checkouts sharing the directory never share a build.

--trace 0 repeats the workload's untraced pass, each in a fresh process, for
about S seconds and reports the medians of the end-to-end metrics. --trace 1
runs an untraced pass, an untraced pass on one worker and a traced pass, and
reports the per-layer metrics. Every simulated output is checked against
perfbench/expected.json; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every output matched; 2 means the build failed and no result was printed, 3
that the build is not optimized or has sanitizers. README.md in this directory
explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("bgp_figures", "lookahead", "p2p_exascale", "real_verify")
MIN_PASSES = 2
SETUP_BATCH = 60
PASS_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("desim.events", "count"),
    ("desim.events_per_s", "1/s"),
    ("desim.heap_peak", "count"),
    ("mpc.messages", "count"),
    ("mpc.wire_bytes", "B"),
    ("mpc.ns_per_msg", "ns"),
    ("core.flat_s", "s"),
    ("core.scalar_s", "s"),
    ("core.multilevel_s", "s"),
    ("core.multilevel_over_scalar", "ratio"),
    ("core.hsumma_over_summa", "ratio"),
    ("core.hsumma_rss_over_summa", "ratio"),
    ("core.taskplan_s", "s"),
    ("core.taskplan_rss_mb", "MB"),
    ("core.doublebuffer_s", "s"),
    ("core.doublebuffer_rss_mb", "MB"),
    ("core.verify_s", "s"),
    ("core.verify_share", "ratio"),
    ("la.gemm_gflops", "GFLOP/s"),
    ("la.gemm_share", "ratio"),
    ("exec.jobs", "count"),
    ("exec.engines_run", "count"),
    ("exec.cache_hits", "count"),
    ("exec.store_hits", "count"),
    ("exec.run_s", "s"),
    ("exec.busy_frac", "ratio"),
    ("store.save_us", "us"),
    ("store.load_us", "us"),
    ("store.bytes", "B"),
    ("tune.s", "s"),
    ("tune.samples", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Pairs that must be bit-identical in every simulated output. In closed
# form, HSUMMA with G = 1 (its own kernel, on a 1 x 1 group arrangement) or
# G = p is SUMMA; with binomial broadcasts routed point to point, HSUMMA
# with G = sqrt(p) replays SUMMA's event stream.
IDENTITIES = {
    "bgp_figures": (("fig8/p4096/G1", "fig8/p4096/summa"),
                    ("fig8/p4096/G4096", "fig8/p4096/summa")),
    "p2p_exascale": (("p2p/p16384/G128", "p2p/p16384/summa"),),
}
# The same-event-stream pair whose host cost ratio core.hsumma_over_summa
# reports, as (HSUMMA job, SUMMA job).
SAME_STREAM = {
    "bgp_figures": ("fig8/p4096/G4096", "fig8/p4096/summa"),
    "p2p_exascale": ("p2p/p16384/G128", "p2p/p16384/summa"),
}
FIELDS = ("total", "comm", "comp", "messages", "wire_bytes")
HEX_FIELDS = ("total", "comm", "comp")


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def source_digest():
    """SHA-256 over the files the benchmark's build compiles."""
    digest = hashlib.sha256()
    inputs = sorted((ROOT / "src").rglob("*")) + [HERE / "CMakeLists.txt",
                                                   HERE / "perfbench.cpp"]
    for path in inputs:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build():
    """Builds the benchmark for this checkout; returns (out, binary,
    digest). A CMake build tree stays bound to the source tree it was
    configured from, so each checkout path and source digest gets a build
    tree of its own."""
    if not (ROOT / "src" / "core" / "runner.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    digest = source_digest()
    tree = hashlib.sha256(f"{ROOT}\0{digest}".encode()).hexdigest()[:16]
    out = build_root() / tree
    steps = []
    if not (out / "build" / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out / "build"),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out / "build"), "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return out, out / "build" / "perfbench", digest


# --- provenance --------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_identity():
    """HEAD's SHA and whether the tree differs from it, when the checkout
    is a git repository of its own; else both None."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = git("rev-parse", "HEAD")
            status = git("status", "--porcelain")
            if sha.returncode == 0 and status.returncode == 0:
                return {"git_sha": sha.stdout.strip(),
                        "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": None, "git_dirty": None}


def provenance(binary, digest, seed):
    info = json.loads(subprocess.run([str(binary), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": info["compiler"],
            "compiler_version": info["compiler_version"],
            "build_type": info["build_type"], "cxx_flags": info["cxx_flags"],
            "optimized": info["optimized"], "sanitized": info["sanitized"],
            "timing_ok": info["timing_ok"], "seed": seed,
            **git_identity(), "source_sha256": digest}


# --- running passes ----------------------------------------------------------

def run_pass(binary, command, workload, seed, workdir, *extra):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(binary), command, workload, "--seed", str(seed),
           "--dir", str(workdir), *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- checking ----------------------------------------------------------------

def bits(hexfloat):
    return struct.pack("<d", float.fromhex(hexfloat))


def same_output(a, b):
    return all((bits(a[f]) == bits(b[f])) if f in HEX_FIELDS else a[f] == b[f]
               for f in FIELDS)


def check_pass(workload, result, expect, bound):
    """Returns (attempted, failures); failures maps an operation id to why
    it failed. An operation is one simulation or one reported pick."""
    want = expect["workloads"][workload]
    failures = {}
    outputs = {}
    for out in result["outputs"]:
        oid = out["id"]
        outputs[oid] = out
        base = oid.removesuffix("/noverify")
        ref = want["outputs"].get(base)
        if "error" in out:
            failures[oid] = "threw: " + out["error"]
        elif ref is None:
            failures[oid] = "no committed expectation"
        elif not same_output(out, ref):
            failures[oid] = "differs from expectation: " + json.dumps(
                {f: out[f] for f in FIELDS})
        elif oid.endswith("/noverify") and out["max_error"] != -1:
            failures[oid] = "verified although the oracle was off"
        elif oid.startswith("real/") and base == oid and not (
                0 <= out["max_error"] <= bound):
            failures[oid] = (f"verification error {out['max_error']} "
                             f"above {bound}")
    for left, right in IDENTITIES.get(workload, ()):
        a, b = outputs.get(left), outputs.get(right)
        if a and b and "error" not in a and "error" not in b \
                and not same_output(a, b):
            failures.setdefault(left, f"not bit-identical to {right}")
    missing = [oid for oid in want["outputs"] if oid not in outputs]
    for oid in missing:
        failures[oid] = "missing from the pass"
    for pid, value in want.get("picks", {}).items():
        got = result["picks"].get(pid)
        if got != value:
            failures[pid] = f"pick {got!r}, expected {value!r}"
    return len(outputs) + len(missing) + len(want.get("picks", {})), failures


def compare_passes(reference, other):
    """Failures where pass `other` simulated something `reference` did not:
    an output (a /noverify rerun compares to its verified twin) or a pick
    that is missing from `reference` or differs from it."""
    failures = {}
    plain = {o["id"]: o for o in reference["outputs"]}
    for out in other["outputs"]:
        ref = plain.get(out["id"].removesuffix("/noverify"))
        if ref is None:
            failures[out["id"]] = "not in the reference pass"
        elif "error" not in out and "error" not in ref \
                and not same_output(out, ref):
            failures[out["id"]] = "differs from the reference pass"
    for pid in reference["picks"].keys() | other["picks"].keys():
        if reference["picks"].get(pid) != other["picks"].get(pid):
            failures[pid] = "pick differs from the reference pass"
    return failures


# --- metrics -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0




def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    own = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        own.append(s["end"] - s["start"] - covered)
    return own


def self_by_layer(spans):
    """Host self time per module: a span's layer is its name's prefix."""
    layers = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def per_layer(workload, untraced, serial, traced, spans):
    """Per-layer metrics from one traced pass (spans), its untraced twin
    (executor counters) and the untraced pass on one worker (the baseline
    of the tracing cost). Simulation runs are leaf spans, so their self time
    is their duration."""
    def dur(s):
        return s["end"] - s["start"]

    def attr(s, key):
        return s["attrs"].get(key, 0.0)

    runs = [s for s in spans if s["name"] == "core.run"]
    primary = [s for s in runs if not s["job"].endswith("/noverify")]
    counted = [s for s in primary if "events" in s["attrs"]]
    by_job = {s["job"]: s for s in primary}
    m = {}

    # Engine and machine counts: free from the accessors when the benchmark
    # owns every engine (untraced pass, no executor jobs), else summed from
    # the traced pass's SimJob::metrics and collect_metrics.
    free = untraced["counters"] if untraced["exec"]["jobs"] == 0 else {}
    counted_s = sum(dur(s) for s in counted)
    m["desim.events"] = free.get("desim.events",
                                 sum(attr(s, "events") for s in counted))
    m["desim.heap_peak"] = free.get("desim.heap_peak", max(
        (attr(s, "heap_peak") for s in counted), default=0.0))
    m["mpc.messages"] = free.get("mpc.messages",
                                 sum(attr(s, "messages") for s in counted))
    m["mpc.wire_bytes"] = free.get("mpc.wire_bytes",
                                   sum(attr(s, "wire_bytes") for s in counted))
    m["desim.events_per_s"] = (m["desim.events"] / counted_s
                               if counted_s else 0.0)
    m["mpc.ns_per_msg"] = (counted_s * 1e9 / m["mpc.messages"]
                           if m["mpc.messages"] else 0.0)

    def kind(name, pool=primary):
        return [s for s in pool if s["kind"] == name]

    for name in ("flat", "scalar", "multilevel"):
        m[f"core.{name}_s"] = sum(dur(s) for s in kind(name))

    def s_per_event(spans_of_kind):
        n = sum(attr(s, "events") for s in spans_of_kind)
        return sum(dur(s) for s in spans_of_kind) / n if n else 0.0

    scalar = s_per_event(kind("scalar", counted))
    multilevel = s_per_event(kind("multilevel", counted))
    m["core.multilevel_over_scalar"] = multilevel / scalar if scalar else 0.0

    hsumma, summa = SAME_STREAM.get(workload, (None, None))
    h, s = by_job.get(hsumma), by_job.get(summa)
    m["core.hsumma_over_summa"] = (dur(h) / dur(s)
                                   if h and s and dur(s) else 0.0)
    m["core.hsumma_rss_over_summa"] = (
        attr(h, "rss_kb") / attr(s, "rss_kb")
        if h and s and attr(s, "rss_kb") else 0.0)

    for name in ("taskplan", "doublebuffer"):
        spans_of_kind = kind(name)
        m[f"core.{name}_s"] = sum(dur(x) for x in spans_of_kind)
        m[f"core.{name}_rss_mb"] = max(
            (attr(x, "rss_kb") / 1024.0 for x in spans_of_kind), default=0.0)

    verified = {x["job"]: dur(x) for x in kind("real")}
    unverified = {x["job"].removesuffix("/noverify"): x for x in runs
                  if x["job"].endswith("/noverify")}
    oracle = sum(t - dur(unverified[j]) for j, t in verified.items()
                 if j in unverified)
    m["core.verify_s"] = oracle
    m["core.verify_share"] = (oracle / sum(verified.values())
                              if verified else 0.0)

    gemms = [x for x in spans if x["name"] == "la.gemm"]
    gemm_s = sum(dur(x) for x in gemms)
    gflops = (sum(attr(x, "flops") for x in gemms) / gemm_s / 1e9
              if gemm_s else 0.0)
    m["la.gemm_gflops"] = gflops
    # Real payloads only: the run's flops at the probe's rate, as a share of
    # the oracle-free run time.
    off_s = sum(dur(x) for x in unverified.values())
    off_flops = sum(attr(x, "flops") for x in unverified.values())
    m["la.gemm_share"] = (off_flops / (gflops * 1e9)) / off_s \
        if off_s and gflops else 0.0

    ex = untraced["exec"]
    m["exec.jobs"] = ex["jobs"]
    m["exec.engines_run"] = ex["engines_run"]
    m["exec.cache_hits"] = ex["cache_hits"]
    m["exec.store_hits"] = ex["store_hits"]
    m["exec.run_s"] = ex["run_s"]
    m["exec.busy_frac"] = (ex["run_s"] / ex["worker_s"]
                           if ex["worker_s"] else 0.0)

    def call_us(name):
        return median([dur(x) * 1e6 for x in spans if x["name"] == name])

    m["store.save_us"] = call_us("store.save")
    m["store.load_us"] = call_us("store.load")
    m["store.bytes"] = traced["counters"].get("store.bytes", 0.0)

    tunes = [x for x in spans if x["name"] == "tune.tune_groups"]
    m["tune.s"] = sum(dur(x) for x in tunes)
    m["tune.samples"] = sum(attr(x, "samples") for x in tunes)

    m["trace.overhead_frac"] = (traced["wall_s"] - serial["wall_s"]) / \
        serial["wall_s"]
    return m


# --- workloads ---------------------------------------------------------------

def measure(binary, out, workload, seed, seconds, trace, expect):
    """One benchmark run of one workload; returns the result record."""
    bound = expect["verify_error_bound"]
    workdir = out / "work" / f"{workload}-{os.getpid()}"
    attempted, failures = 0, []

    def check(result, label, extra=None):
        nonlocal attempted
        n, bad = check_pass(workload, result, expect, bound)
        for oid, why in (extra or {}).items():
            bad.setdefault(oid, why)
        attempted += n
        failures.extend(f"{label} {oid}: {why}"
                        for oid, why in sorted(bad.items()))

    record = {"workload": workload, "seed": seed, "trace": trace}
    if not trace:
        reps, setup = [], []
        start = time.monotonic()
        while True:
            begun = time.monotonic()
            reps.append(run_pass(binary, "run", workload, seed, workdir))
            check(reps[-1], f"rep {len(reps)}")
            # Set-up is timed cold, in fresh processes, as users pay it.
            # Each pass gives one sample. A batch of set-up passes, which
            # stop at the first simulation call, adds many more in little
            # time; one batch after each pass spreads them over the run as
            # the passes are, so a short host slowdown moves few of them.
            setup.append(reps[-1]["setup_s"])
            setup += [
                run_pass(binary, "setup", workload, seed, workdir)["setup_s"]
                for _ in range(SETUP_BATCH)]
            now = time.monotonic()
            if len(reps) >= MIN_PASSES and \
                    now - start + (now - begun) > seconds:
                break
        samples = {"wall_s": [r["wall_s"] for r in reps],
                   "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in reps],
                   "setup_s": setup}
        metrics = {name: median(values) for name, values in samples.items()}
        units = dict(END_TO_END)
        record["samples"] = samples
    else:
        untraced = run_pass(binary, "run", workload, seed, workdir)
        check(untraced, "untraced")
        # The traced pass runs jobs one at a time: its baseline is the same
        # job list untraced on one worker, so trace.overhead_frac is the
        # tracing's own cost and not lost parallelism.
        serial = untraced
        if untraced["exec"]["workers"] > 1:
            serial = run_pass(binary, "run", workload, seed, workdir,
                              "--workers", "1")
            check(serial, "one-worker", compare_passes(untraced, serial))
        spans_path = out / f"spans-{workload}-{os.getpid()}.jsonl"
        traced = run_pass(binary, "trace", workload, seed, workdir,
                          "--spans", str(spans_path))
        spans = [json.loads(line) for line in
                 spans_path.read_text().splitlines()]
        spans_path.unlink()
        check(traced, "traced", compare_passes(untraced, traced))
        metrics = per_layer(workload, untraced, serial, traced, spans)
        units = dict(PER_LAYER)
        record["self_s_by_layer"] = self_by_layer(spans)
        record["untraced_wall_s"] = untraced["wall_s"]
        record["one_worker_wall_s"] = serial["wall_s"]
        record["traced_wall_s"] = traced["wall_s"]
    failed = len(failures)
    record.update({
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}})
    if not trace:
        for name in record["metrics"]:
            record["metrics"][name]["runs"] = len(record["samples"][name])
    return record


def report(record):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"trace {record['trace']})")
    for name, m in record["metrics"].items():
        runs = f"  median of {m['runs']}" if "runs" in m else ""
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{runs}")
    for layer, seconds in sorted(record.get("self_s_by_layer", {}).items()):
        print(f"  {'self time in ' + layer:32s} {seconds:>16.6g} s")
    print(f"  {'error_rate':32s} {record['error_rate']:>16.6g} ratio"
          f"  ({record['failed']} failed of {record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def record_expectations(binary, out, args, expect):
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_pass(binary, "run", workload, args.seed,
                          out / "work" / f"{workload}-{os.getpid()}")
        expect["workloads"][workload] = {
            "outputs": {o["id"]: {f: o[f] for f in FIELDS}
                        for o in result["outputs"]},
            "picks": result["picks"]}
    args.expect.write_text(json.dumps(expect, indent=1) + "\n")
    log(f"perfbench: recorded {', '.join(workloads)} into {args.expect}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", type=Path, default=EXPECTED,
                        help="expectations file (default: expected.json)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's expectations from one "
                        "untraced pass (only after an intended change to "
                        "simulated results)")
    args = parser.parse_args()

    try:
        out, binary, digest = build()
        prov = provenance(binary, digest, args.seed)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 2
    if not prov["timing_ok"]:
        log("perfbench: refusing to time a build that is not optimized or "
            f"has sanitizers: {json.dumps(prov)}")
        return 3
    expect = json.loads(args.expect.read_text())
    if args.record:
        record_expectations(binary, out, args, expect)
        return 0

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    records = []
    for workload, trace in runs:
        try:
            record = measure(binary, out, workload, args.seed, args.seconds,
                             trace, expect)
        except (BenchError, subprocess.TimeoutExpired, KeyError,
                json.JSONDecodeError) as e:
            log(f"perfbench: {workload}: {e}")
            return 1
        record["provenance"] = prov
        report(record)
        results = out / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{args.seed}-trace{trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        records.append(record)

    print("provenance: " + json.dumps(prov))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for name, m in r["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
