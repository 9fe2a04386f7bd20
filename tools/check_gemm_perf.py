#!/usr/bin/env python3
"""Compares a fresh bench/micro_gemm run against the committed baseline.

Usage: build/bench/micro_gemm > fresh.json
       python3 tools/check_gemm_perf.py fresh.json [BENCH_gemm.json]

Three sections are checked, all on *ratios* — absolute GFLOP/s and
milliseconds vary wildly across CI runners and are never compared:

- "shapes": the blocked kernel's speedup over the seed i-k-j matmul
  (measured in the same process on the same machine). A shape fails when
  its fresh speedup drops more than TOLERANCE below baseline — generous on
  purpose, this is a smoke check against large kernel regressions, not a
  microbenchmark gate.
- "fused": the fused bias+activation epilogue vs the separate
  gemm + bias-scatter + activation passes. fused_speedup must stay at or
  above max(FUSED_MIN, baseline * (1 - TOLERANCE)) — the fused path must
  never silently decay into a slowdown.
- "warm_cache": pack-once weight-cache reuse. pack_bytes_reduction (the
  fraction of per-call packing bytes eliminated on warm calls) is a
  deterministic byte count, so it gets a fixed floor PACK_REDUCTION_MIN
  rather than a baseline-relative one.

One section gates the int8 inference tier:

- "int8": speedup (warm fp32 ms over warm int8 ms, single thread,
  calibrated activation scale) must clear INT8_SPEEDUP_MIN on every
  committed shape, baseline-relative on top.

One section gates the compiled inference path:

- "plan": whole-model inference through a compiled nn::ExecPlan vs its
  oracle, the eager walk (eager_ms), both warm and single-threaded.
  plan_speedup must clear PLAN_SPEEDUP_MIN on every committed model.

Also asserts `identical: true` for every entry: the blocked kernel, the
fused epilogue, the warm-cache path, the int8 tier (SIMD vs portable
micro-kernel), and the compiled plan (vs the eager walk) must all stay
bit-identical to their reference passes, on any runner. Exit code 1 on any failure.
"""
import sys

import perf_common as pc

TOLERANCE = pc.TOLERANCE
FUSED_MIN = 1.15  # fused epilogue must beat separate passes by >= 15%
PACK_REDUCTION_MIN = 0.80  # warm calls must skip >= 80% of packing bytes
INT8_SPEEDUP_MIN = 1.50  # calibrated int8 must beat warm fp32 by >= 50%
PLAN_SPEEDUP_MIN = 1.10  # compiled plan must beat the eager walk by >= 10%

SECTIONS = ("shapes", "fused", "warm_cache", "int8", "plan")


def load_sections(path):
    root = pc.load(path, nest_key="micro_gemm")
    return {
        key: {s["name"]: s for s in root.get(key, [])}
        for key in SECTIONS
    }


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh = load_sections(sys.argv[1])
    base = load_sections(sys.argv[2] if len(sys.argv) > 2 else "BENCH_gemm.json")
    if not fresh["shapes"] or not base["shapes"]:
        print("error: empty shape list in input", file=sys.stderr)
        return 2

    failures = 0
    for section, ratio_key, fixed_min, what in (
        ("shapes", "speedup", None, "blocked kernel"),
        ("fused", "fused_speedup", FUSED_MIN, "fused epilogue"),
        ("warm_cache", "pack_bytes_reduction", PACK_REDUCTION_MIN, "warm cache"),
        ("int8", "speedup", INT8_SPEEDUP_MIN, "int8 tier"),
        ("plan", "plan_speedup", PLAN_SPEEDUP_MIN, "compiled plan"),
    ):
        for name, b in sorted(base[section].items()):
            f = fresh[section].get(name)
            if f is None:
                print(f"FAIL {name}: missing from fresh run")
                failures += 1
                continue
            if pc.check_identical(name, f, what):
                failures += 1
                continue
            if section == "warm_cache":
                # Byte counts are deterministic; the floor is absolute.
                floor = fixed_min
            else:
                floor = pc.baseline_floor(b[ratio_key], fixed_min)
            failures += pc.check_ratio(name, f[ratio_key], floor, ratio_key)

    if failures:
        print(f"{failures} entry(ies) regressed beyond tolerance")
        return 1
    print("perf smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
