"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload, untraced and traced, it checks that the last line of
output is the result object, that every metric named in BENCHMARK.json
appears with its unit (and no other), and that the run is correct. It
then checks that a deliberately broken check (`--break-check`) and a bad
argument both make the benchmark exit nonzero without a correct result.
Exits nonzero on the first failure.
"""

import json
import math
import subprocess
import sys


def run(cmd, args):
    proc = subprocess.run(cmd + args, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    expect = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (w["name"] for w in bench["workloads"]):
        for trace, names in expect.items():
            args = ["--workload", w, "--seed", "7", "--seconds", "0.1",
                    "--trace", trace, "--size", "smoke"]
            code, last, err = run(cmd, args)
            if code != 0:
                fail(f"{w} trace={trace} exited {code}:\n{err[-3000:]}")
            out = json.loads(last)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w} trace={trace}: result keys {sorted(out)}")
            if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
                fail(f"{w} trace={trace}: not a clean run: {out}")
            got = out["metrics"]
            if set(got) != set(names):
                fail(f"{w} trace={trace}: missing {sorted(set(names) - set(got))}, "
                     f"extra {sorted(set(got) - set(names))}")
            for name, unit in names.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit:
                    fail(f"{w} {name}: unit {got[name]['unit']!r}, expected {unit!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{w} {name}: value {value!r}")
                if trace == "0" and value == 0:
                    fail(f"{w} {name}: end-to-end metric is 0")
            print(f"ok {w} trace={trace}: {len(got)} metrics")

    w = bench["workloads"][0]["name"]
    args = ["--workload", w, "--seed", "7", "--seconds", "0.1", "--trace", "0",
            "--size", "smoke", "--break-check"]
    code, last, _ = run(cmd, args)
    if code == 0 or '"correct": true' in last:
        fail(f"a broken check still passed (exit {code}): {last}")
    print(f"ok {w} --break-check: exit {code}")

    code, last, _ = run(cmd, ["--workload", "no_such_workload", "--seed", "1",
                              "--seconds", "1", "--trace", "0"])
    if code == 0 or last.startswith("{"):
        fail(f"an unknown workload was accepted (exit {code})")
    print(f"ok unknown workload: exit {code}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
