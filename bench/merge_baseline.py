#!/usr/bin/env python3
"""Merges the per-binary Google-Benchmark JSON outputs produced by
bench/capture_baseline.sh into one BENCH_<tag>.json in the same shape as
BENCH_seed.json: for every benchmark, the OpenMP-on and serial real times
plus their ratio, the benchmark's label (the LA backend) when set, and its
user counters (e.g. the per-layer advance_s/obsfn_s/enkf_s of
BM_Fig2_AssimilationCycle) from each capture. A bench with no capture in
the directory is skipped with a note.

Usage: merge_baseline.py <capture_dir> <out_json> [--note "..."]
"""
import json
import platform
import subprocess
import sys
from datetime import date
from pathlib import Path

BENCHES = ["bench_fig1_coupled", "bench_fig2_scaling", "bench_risk",
           "bench_serve", "bench_sub_enkf", "bench_sub_la", "bench_sub_qr"]


# Keys Google Benchmark writes for every run; any other numeric key of a
# run is a user counter. A counter named like one of these (`threads`)
# cannot be told apart from it and is left out.
RUN_KEYS = {"name", "family_index", "per_family_instance_index", "run_name",
            "run_type", "repetitions", "repetition_index", "threads",
            "iterations", "real_time", "cpu_time", "time_unit", "label",
            "error_occurred", "error_message", "aggregate_name",
            "aggregate_unit"}


def load_times(path: Path) -> dict:
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = {
            "real_time": b["real_time"],
            "time_unit": b["time_unit"],
            "label": b.get("label", ""),
            "counters": {k: v for k, v in b.items()
                         if k not in RUN_KEYS and isinstance(v, (int, float))
                         and not isinstance(v, bool)},
        }
    return out


def main() -> int:
    capture_dir = Path(sys.argv[1])
    out_path = Path(sys.argv[2])
    note = ""
    if len(sys.argv) > 4 and sys.argv[3] == "--note":
        note = sys.argv[4]

    nproc = subprocess.run(["nproc"], capture_output=True, text=True)
    merged = {
        "meta": {
            "captured": date.today().isoformat(),
            "machine": f"{platform.node() or 'container'}, "
                       f"{nproc.stdout.strip() or '?'} CPU core(s) visible",
            "note": note,
            "command": "bench/capture_baseline.sh <omp_build> <serial_build> "
                       "<dir> && bench/merge_baseline.py <dir> <out>",
        },
        "benchmarks": {},
    }

    for bench in BENCHES:
        omp_path = capture_dir / f"{bench}_omp.json"
        if not omp_path.exists():
            print(f"skipped {bench}: no capture in {capture_dir}")
            continue
        omp = load_times(omp_path)
        serial_path = capture_dir / f"{bench}_serial.json"
        serial = load_times(serial_path) if serial_path.exists() else {}
        for name, o in omp.items():
            entry = {
                "bench": bench,
                "time_unit": o["time_unit"],
                "real_time_omp": round(o["real_time"], 3),
            }
            if o["label"]:
                entry["backend"] = o["label"]
            if o["counters"]:
                entry["counters_omp"] = o["counters"]
            s = serial.get(name)
            if s:
                entry["real_time_serial"] = round(s["real_time"], 3)
                if o["real_time"] > 0:
                    entry["serial_over_omp_ratio"] = round(
                        s["real_time"] / o["real_time"], 3)
                if s["counters"]:
                    entry["counters_serial"] = s["counters"]
            merged["benchmarks"][name] = entry

    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path} ({len(merged['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
