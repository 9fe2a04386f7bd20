#!/usr/bin/env python3
"""Self-test of the repo benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  - every end-to-end metric (untraced run) and every per-layer metric
    (traced run) named in BENCHMARK.json is emitted, with its unit, on every
    workload, and nothing else is;
  - outputs are correct (0 failed operations) and each part's output digest
    is the same with tracing on and off;
  - the default seed and the held-out seed give different inputs and the
    same metric names;
  - an injected wrong response, lost future or diverged trace is counted as
    a failed operation and makes the command exit non-zero;
  - the ADVP_* environment guard refuses to run.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DEFAULT_SEED, HELD_OUT_SEED = 1, 2
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=DEFAULT_SEED, extra=(), env=None):
    """Runs one tiny benchmark; returns (exit code, result, record)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--tiny", *extra]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         env=env, timeout=900)
    lines = res.stdout.strip().splitlines()
    result = record = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["perfbench"]
    return res.returncode, result, record


def expected(trace):
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    digests = {}
    for workload in names:
        for trace in (0, 1):
            code, result, record = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(code == 0 and result is not None, f"{tag}: exits 0 with a result")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: 0 failed operations")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected(trace),
                  f"{tag}: metrics and units match BENCHMARK.json "
                  f"(missing {sorted(set(expected(trace)) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected(trace)))})")
            for part, d in record["digests"].items():
                digests.setdefault(part, set()).add(d["output"])
            if workload == names[0] and trace == 0:
                default_record, default_metrics = record, set(got)
    for part, outs in digests.items():
        check(len(outs) == 1, f"{part}: output digest identical across "
                              f"workloads and tracing on/off ({sorted(outs)})")

    code, result, record = run(names[0], 0, seed=HELD_OUT_SEED)
    check(code == 0 and result is not None, "held-out seed: exits 0")
    if result is not None:
        for part, d in record["digests"].items():
            check(d["input"] != default_record["digests"][part]["input"],
                  f"held-out seed: {part} inputs differ from the default seed")
        check(set(result["metrics"]) == default_metrics,
              "held-out seed: same metric names as the default seed")

    for fault, workload, trace in (("wrong", "serve", 0), ("lost", "serve", 0),
                                   ("diverge", "campaign", 1)):
        code, result, _ = run(workload, trace, extra=("--inject", fault))
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"injected {fault}: counted as failed, exit code 1 (got {code})")

    for var in ("ADVP_PLAN", "ADVP_SOME_FUTURE_SWITCH"):
        env = dict(os.environ, **{var: "1"})
        code, result, _ = run(names[0], 0, env=env)
        check(code == 2 and result is None, f"{var} set: refused with exit 2")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
