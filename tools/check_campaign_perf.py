#!/usr/bin/env python3
"""Compares a fresh bench/campaign_throughput run against the committed
baseline.

Usage: build/bench/campaign_throughput > fresh.json
       python3 tools/check_campaign_perf.py fresh.json [BENCH_campaign.json]

Two kinds of gates:

Machine-independent (hard, every runner):
- schema is "advp.campaign_bench/2";
- identical: every engine trace in the identity slice (full workers) is
  bit-identical to a plain AccSimulator::run loop — the campaign
  determinism contract (fanning scenarios out must never change a result);
- lost == 0: every scenario index reported exactly once;
- shard_merge_identical: the 2-shard coordinator's merged aggregate is
  byte-identical to the in-process single-run aggregate.

Machine-keyed throughput floor (engine_vs_serial = engine scenarios/second
at full workers over the same engine pinned to 1 worker): scenarios are
independent, so one runner per worker, each on its own model clone, should
use several cores. A single-core runner cannot show that win, so the floor
follows the recorded `max_workers` per perf_common.FLOOR_BY_WORKERS:

    >= 4 workers: 2.0
    2-3 workers:  1.2
    1 worker:     0.5        (non-collapse only)

On top, when fresh and baseline ran at the same multi-core width, the
fresh ratio must stay within TOLERANCE of baseline (single-worker ratios
are scheduler noise around 1.0 and are not baseline-compared).

Exit code 1 on any failure.
"""
import sys

import perf_common as pc


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    fresh = pc.load(sys.argv[1], nest_key="campaign_throughput")
    base = pc.load(sys.argv[2] if len(sys.argv) > 2 else "BENCH_campaign.json",
                   nest_key="campaign_throughput")

    failures = []
    if fresh.get("schema") != "advp.campaign_bench/2":
        failures.append(f"schema: got {fresh.get('schema')!r}, "
                        "expected 'advp.campaign_bench/2'")

    if not fresh.get("identical", False):
        failures.append("engine traces are NOT bit-identical to the "
                        "AccSimulator::run reference")
    if fresh.get("lost", 1) != 0:
        failures.append(f"lost {fresh.get('lost')} scenario(s)")
    if not fresh.get("shard_merge_identical", False):
        failures.append("2-shard merged aggregate differs from the "
                        "single-process aggregate")

    workers = int(fresh.get("max_workers", 1))
    base_workers = int(base.get("max_workers", 1))
    floor = pc.throughput_floor(workers)
    ratio = fresh.get("engine_vs_serial", 0.0)
    if ratio < floor:
        failures.append(f"engine_vs_serial {ratio:.3f} < {floor} floor "
                        f"for {workers} worker(s)")
    if workers >= 2 and workers == base_workers:
        rel_floor = pc.baseline_floor(base.get("engine_vs_serial", 0.0))
        if ratio < rel_floor:
            failures.append(f"engine_vs_serial {ratio:.3f} < "
                            f"baseline-relative floor {rel_floor:.3f}")

    print(f"  engine_vs_serial {ratio:.3f} (floor {floor}), "
          f"lost {fresh.get('lost')}, "
          f"identical {fresh.get('identical')}, "
          f"shard_merge_identical {fresh.get('shard_merge_identical')}")

    return pc.report(failures,
                     f"\nOK: campaign perf gate ({workers} worker(s))",
                     header="FAIL: campaign perf gate")


if __name__ == "__main__":
    sys.exit(main())
