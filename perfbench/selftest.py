#!/usr/bin/env python3
"""Self-tests of the benchmark's checker.

    python3 perfbench/selftest.py

Run from the root of a checkout (builds like run.py). Three checks:
  1. flipping one bit of one committed hexfloat makes run.py count a failed
     operation and exit nonzero;
  2. the traced and untraced passes of every workload simulate identical
     outputs;
  3. two seeds simulate identical outputs on the phantom workloads (the
     seed only reorders bgp_figures' sweeps there).
Exits 0 when all pass.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

PHANTOM = ("bgp_figures", "lookahead", "p2p_exascale")
FLIP_WORKLOAD = "lookahead"


def flip_lowest_bit(hexfloat):
    (raw,) = struct.unpack("<Q", struct.pack("<d", float.fromhex(hexfloat)))
    (value,) = struct.unpack("<d", struct.pack("<Q", raw ^ 1))
    return value.hex()


def check_bit_flip(out):
    expect = json.loads(bench.EXPECTED.read_text())
    outputs = expect["workloads"][FLIP_WORKLOAD]["outputs"]
    victim = sorted(outputs)[0]
    outputs[victim]["comm"] = flip_lowest_bit(outputs[victim]["comm"])
    flipped = out / "expected-flipped.json"
    flipped.write_text(json.dumps(expect))
    done = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload",
         FLIP_WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0",
         "--expect", str(flipped)],
        capture_output=True, text=True)
    flipped.unlink()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ok = (done.returncode != 0 and result["failed"] >= 1
          and not result["correct"])
    return ok, (f"flipped {victim}.comm: exit {done.returncode}, "
                f"failed {result['failed']} of {result['attempted']}")


def differences(a, b):
    """What either pass simulated that the other did not, or differently."""
    found = {**bench.compare_passes(a, b), **bench.compare_passes(b, a)}
    return "; ".join(f"{oid}: {why}" for oid, why in sorted(found.items()))


def check_traced_identical(binary, out, workload):
    workdir = out / "work" / f"selftest-{os.getpid()}"
    untraced = bench.run_pass(binary, "run", workload, 1, workdir)
    spans = out / f"selftest-spans-{os.getpid()}.jsonl"
    traced = bench.run_pass(binary, "trace", workload, 1, workdir,
                            "--spans", str(spans))
    spans.unlink()
    problem = differences(untraced, traced)
    return not problem, (f"{workload} traced vs untraced: "
                         f"{problem or 'identical'}")


def check_seeds_identical(binary, out, workload):
    workdir = out / "work" / f"selftest-{os.getpid()}"
    one = bench.run_pass(binary, "run", workload, 1, workdir)
    two = bench.run_pass(binary, "run", workload, 2, workdir)
    problem = differences(one, two)
    return not problem, f"{workload} seed 1 vs 2: {problem or 'identical'}"


def main():
    out, binary, _ = bench.build()
    checks = [lambda: check_bit_flip(out)]
    checks += [lambda w=w: check_traced_identical(binary, out, w)
               for w in bench.WORKLOADS]
    checks += [lambda w=w: check_seeds_identical(binary, out, w)
               for w in PHANTOM]
    failed = 0
    for check in checks:
        ok, what = check()
        failed += not ok
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
    print(f"{len(checks) - failed} of {len(checks)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
