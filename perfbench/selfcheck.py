"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

1. The per-layer counts of a traced run repeat exactly between two runs
   with one seed and between two seeds.
2. With one expected mu altered in a copy of expected.json, every workload
   reports failed requests and correct=false.

Each run is one untraced and one traced pass (``--seconds 1``).  Exits 1 on
the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALTERED = {"C6": 5, "S5": 5}  # group -> expected mu, each altered by +1


def run(workload: str, seed: int, trace: int, expected: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--expected", str(expected)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def fail(msg: str) -> None:
    sys.exit(f"FAIL {msg}")


def main() -> None:
    expected = HERE / "expected.json"
    for w in WORKLOADS:
        a, b, c = (run(w, s, 1, expected) for s in (1, 1, 2))
        for r in (a, b, c):
            if not r["correct"]:
                fail(f"{w}: traced run not correct")
        if counts(a) != counts(b):
            fail(f"{w}: counts differ between two runs with seed 1: "
                 f"{counts(a)} vs {counts(b)}")
        diff = {k for k in COUNTS if counts(a)[k] != counts(c)[k]}
        if diff:
            fail(f"{w}: counts {sorted(diff)} differ between seeds 1 and 2")
        print(f"ok   {w}: per-layer counts repeat")

    tmp = HERE.parent / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    altered = tmp / "selfcheck-expected.json"
    data = json.loads(expected.read_text(encoding="utf-8"))
    for name, mu in ALTERED.items():
        if data["groups"][name]["mu"] != mu:
            fail(f"expected.json: mu({name}) is not {mu}")
        data["groups"][name]["mu"] = mu + 1
    altered.write_text(json.dumps(data), encoding="utf-8")
    try:
        for w in WORKLOADS:
            r = run(w, 1, 0, altered)
            if r["correct"] or r["failed"] == 0:
                fail(f"{w}: an altered expected mu went unnoticed")
            print(f"ok   {w}: altered mu gives error_rate "
                  f"{r['failed'] / r['attempted']:.3f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
