#!/usr/bin/env python3
"""Merges one-line JSON bench summaries into one flat JSON object.

    python3 scripts/merge_bench_json.py chaos_line.json perf_line.json \
        > BENCH_deployment.json

The first file's "bench" tag names the merged summary and the later
files' tags are dropped. Any other key found in two files is an error, so
the merged line never repeats a key (tools/bench_gate rejects one that
does).
"""
import json
import sys


def main(paths):
    if len(paths) < 2:
        sys.exit("usage: merge_bench_json.py FIRST.json OTHER.json...")
    merged = {}
    for n, path in enumerate(paths):
        with open(path) as f:
            summary = json.load(f)
        if n > 0:
            summary.pop("bench", None)
        clash = sorted(merged.keys() & summary.keys())
        if clash:
            sys.exit(f"merge_bench_json.py: {path} repeats keys {clash}")
        merged.update(summary)
    print(json.dumps(merged, separators=(",", ":")))


if __name__ == "__main__":
    main(sys.argv[1:])
