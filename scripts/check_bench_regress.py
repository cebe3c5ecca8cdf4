#!/usr/bin/env python3
"""Perf-regression gate for the CI bench-smoke stage.

Schema validation (check_bench_json.py) catches benches that bitrot into
malformed output; this gate catches benches whose NUMBERS bitrot — the
20-60x class of regression a stray quadratic loop or a disabled cache
introduces — while staying green through ordinary CI noise. Every watched
metric carries its own tolerance band in scripts/bench_baselines.json:

  {"metrics": [
     {"id": "engine_check_hot_ns_5",
      "source": "gbench",            # gbench | jsonl
      "file": "perm_hot",            # which --<file> argument to read
      "select": {"name": "BM_EngineCheck_Hot/5"},   # row match
      "field": "real_time",          # measured value
      "baseline": 57.3,
      "max_ratio": 8.0},             # fail if measured > baseline*max_ratio
     {... "min_ratio": 8.0}          # fail if measured < baseline/min_ratio
  ]}

`source: gbench` reads google-benchmark --benchmark_format=json output and
matches rows by exact "name"; `source: jsonl` reads one-JSON-object-per-line
harness output and matches rows by every key/value pair in "select".
Latency-style metrics set max_ratio, throughput-style metrics set min_ratio
(either or both). Bands are deliberately wide — smoke runs use tiny
iteration counts on loaded runners — wide enough to never flake, narrow
enough that an order-of-magnitude regression cannot hide.

Usage:
  check_bench_regress.py --baselines scripts/bench_baselines.json \
      --perm build/bench_smoke_perm.json \
      --perm-hot build/bench_smoke_perm_hot.json \
      --live build/bench_smoke_live.txt \
      --throughput build/bench_smoke_throughput.txt \
      --wire build/bench_smoke_wire.txt
"""

import argparse
import json
import sys


def load_gbench(path):
    """Rows of a google-benchmark JSON document, keyed by name."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    return list(document.get("benchmarks", []))


def load_jsonl(path):
    """The '{'-prefixed rows of a mixed harness output."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.lstrip().startswith("{"):
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                sys.exit(f"check_bench_regress: {path}:{lineno}: bad JSON: {exc}")
    return rows


def match(row, select):
    return all(row.get(key) == value for key, value in select.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", required=True)
    parser.add_argument("--perm", help="gbench JSON from bench_perm_engine")
    parser.add_argument("--perm-hot", help="gbench JSON from bench_perm_engine's "
                        "gated EngineCheck_Hot rows, run alone")
    parser.add_argument("--live", help="JSONL from bench_reconciliation --live")
    parser.add_argument("--throughput", help="JSONL from bench_throughput")
    parser.add_argument("--wire", help="JSONL from bench_wire / sdnshield cbench")
    args = parser.parse_args()

    with open(args.baselines, encoding="utf-8") as fh:
        baselines = json.load(fh)

    files = {
        "perm": args.perm,
        "perm_hot": args.perm_hot,
        "live": args.live,
        "throughput": args.throughput,
        "wire": args.wire,
    }
    cache = {}
    failures = []
    checked = 0
    for metric in baselines["metrics"]:
        metric_id = metric["id"]
        file_key = metric["file"]
        path = files.get(file_key)
        if path is None:
            flag = file_key.replace("_", "-")
            sys.exit(f"check_bench_regress: metric '{metric_id}' needs --{flag}")
        if file_key not in cache:
            loader = load_gbench if metric["source"] == "gbench" else load_jsonl
            cache[file_key] = loader(path)
        rows = [row for row in cache[file_key] if match(row, metric["select"])]
        if len(rows) != 1:
            failures.append(
                f"{metric_id}: {len(rows)} rows match {metric['select']} in "
                f"{path} (want exactly 1)"
            )
            continue
        value = rows[0].get(metric["field"])
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failures.append(f"{metric_id}: field '{metric['field']}' is {value!r}")
            continue
        baseline = metric["baseline"]
        checked += 1
        if "max_ratio" in metric and value > baseline * metric["max_ratio"]:
            failures.append(
                f"{metric_id}: {metric['field']} = {value:g} exceeds "
                f"{baseline:g} * {metric['max_ratio']:g} "
                f"(a {value / baseline:.1f}x regression)"
            )
        if "min_ratio" in metric and value < baseline / metric["min_ratio"]:
            failures.append(
                f"{metric_id}: {metric['field']} = {value:g} below "
                f"{baseline:g} / {metric['min_ratio']:g} "
                f"(a {baseline / max(value, 1e-12):.1f}x slowdown)"
            )

    if failures:
        for failure in failures:
            print(f"check_bench_regress: FAIL {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench_regress: {checked} metric(s) within tolerance")


if __name__ == "__main__":
    main()
