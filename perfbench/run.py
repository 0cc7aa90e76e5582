#!/usr/bin/env python3
"""The sicmac benchmark: builds perfbench/sicbench from source and runs one
seeded workload.

    python3 perfbench/run.py --workload dense_churn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest            # see perfbench/README.md

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) inside the checkout. The last line of stdout
is the result object {"correct", "attempted", "failed", "metrics"}; the exit
code is non-zero when the build fails, a correctness check fails, or the
benchmark program misbehaves.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_churn", "pcmr_chaos", "nearest_serve", "paper_sweeps")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mac", "deployment_engine.hpp")):
        fail("no sicmac sources next to perfbench/ (expected src/)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # The compiler's scratch files stay inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "sicbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no sicbench binary")
    return binary


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs sicbench; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 3, None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return proc.returncode or 3, None
    return proc.returncode, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# Counts that depend only on the seed: two traced runs must agree exactly.
DETERMINISTIC = ("core.pair_evals", "core.builds", "matching.calls",
                 "matching.blossom.edge_visits", "assoc.handoffs",
                 "serve.transmissions", "serve.retransmissions",
                 "serve.rematch_rounds", "serve.ladder_steps",
                 "serve.quarantines")
# Self-time shares of the traced wall; they must sum to at most 1.
SHARES = ("assoc.frac", "core.kernel_frac", "matching.frac", "serve.frac")


def selftest(binary, seed, seconds):
    spec = load_spec()
    errors = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for n in names:
        if not NAME_RE.fullmatch(n):
            errors.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        errors.append("BENCHMARK.json workloads differ from run.py's")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"{w['name']}: why is not one line of <= 200 chars")
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        code, e2e = run_once(binary, w, seed, seconds, 0, echo=False)
        if code or not e2e or not e2e["correct"]:
            errors.append(f"{w}: untraced run failed (exit {code})")
            continue
        for m in spec["end_to_end"]:
            got = e2e["metrics"].get(m["name"])
            if not got or got["unit"] != m["unit"] or not got["value"] > 0:
                errors.append(f"{w}: end-to-end {m['name']} missing or 0")
        traced = []
        for _ in range(2):
            code, res = run_once(binary, w, seed, seconds, 1, echo=False)
            if code or not res or not res["correct"]:
                errors.append(f"{w}: traced run failed (exit {code})")
                break
            traced.append(res["metrics"])
        if len(traced) < 2:
            continue
        a, b = traced
        for m in spec["per_layer"]:
            got = a.get(m["name"])
            if not got or got["unit"] != m["unit"]:
                errors.append(f"{w}: per-layer {m['name']} missing")
        extra = set(a) - {m["name"] for m in spec["per_layer"]}
        if extra:
            errors.append(f"{w}: undeclared metrics {sorted(extra)}")
        for n in DETERMINISTIC:
            if a[n]["value"] != b[n]["value"]:
                errors.append(f"{w}: {n} differs across traced runs "
                              f"({a[n]['value']} vs {b[n]['value']})")
        share = sum(a[n]["value"] for n in SHARES)
        if share > 1.0:
            errors.append(f"{w}: layer shares sum to {share:.4f} > 1")
        rows.append((w, a))
    print("| workload | assoc | kernel | matching | serve | unattributed "
          "| handoff_frac | cache_hit_frac |")
    print("|---|---|---|---|---|---|---|---|")
    for w, a in rows:
        v = {n: a[n]["value"] for n in a}
        rest = 1.0 - sum(v[n] for n in SHARES)
        print(f"| {w} | {v['assoc.frac']:.3f} | {v['core.kernel_frac']:.3f} "
              f"| {v['matching.frac']:.3f} | {v['serve.frac']:.3f} "
              f"| {rest:.3f} | {v['assoc.handoff_frac']:.3f} "
              f"| {v['core.cache_hit_frac']:.3f} |")
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check names, metric coverage, repeatable counts "
                        "and layer shares on every workload")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    if not args.selftest and not args.workload:
        fail("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary, args.seed, min(args.seconds, 3))
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        fail(f"{args.workload}: sicbench printed no result (exit {code})",
             code or 3)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
