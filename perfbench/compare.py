"""Compare two sets of saved benchmark outputs, workload by workload.

    python3 perfbench/compare.py --base base/*.txt --new new/*.txt

Each file is the standard output of one ``perfbench/run.py --trace 0`` run.
For every workload and end-to-end metric the script prints both medians,
the change in the metric's better direction, and whether the new median is
worse than the base by more than the bound in BENCHMARK.json. It refuses to
compare runs taken on different kernel backends, Python or NumPy versions.
Exit codes: 0 no regression, 1 a regression, 2 the runs are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PINNED = ("backend", "python", "numpy")


def read_run(path: str) -> tuple[str, dict, dict]:
    """(workload, environment, result) of one saved run."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    workload = env = None
    for line in lines:
        if line.startswith("perfbench "):
            workload = dict(f.split("=", 1) for f in line.split()[1:])["workload"]
        elif line.startswith("env "):
            env = json.loads(line[4:])
    if workload is None or env is None:
        sys.exit(f"error: {path} is not the output of perfbench/run.py")
    return workload, env, json.loads(lines[-1])


def medians(runs) -> dict[str, dict[str, float]]:
    values: dict[str, dict[str, list[float]]] = {}
    for workload, _, result in runs:
        for name, m in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return {w: {n: statistics.median(v) for n, v in per.items()}
            for w, per in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [read_run(p) for p in args.base]
    new = [read_run(p) for p in args.new]

    envs = {tuple(env[k] for k in PINNED) for _, env, _ in base + new}
    if len(envs) != 1:
        print(f"error: runs differ in {'/'.join(PINNED)}: {sorted(envs)}",
              file=sys.stderr)
        return 2
    if any(not r["correct"] for _, _, r in base + new):
        print("error: a run failed its output checks", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    b_med, n_med = medians(base), medians(new)
    regressed = False
    print(f"{'workload':16s} {'metric':22s} {'base':>12s} {'new':>12s} "
          f"{'better by':>9s} {'bound':>6s}")
    for workload in sorted(set(b_med) & set(n_med)):
        for name, m in metrics.items():
            if name not in b_med[workload] or name not in n_med[workload]:
                continue
            b, n = b_med[workload][name], n_med[workload][name]
            gain = (b - n) / b if m["better"] == "lower" else (n - b) / b
            worse = gain < -m["bound"]
            regressed |= worse
            print(f"{workload:16s} {name:22s} {b:12.5g} {n:12.5g} "
                  f"{gain:+9.1%} {m['bound']:6.0%}{'  REGRESSED' if worse else ''}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
