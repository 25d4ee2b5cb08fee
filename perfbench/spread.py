"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 perfbench/spread.py --runs 10 [--workloads certify-deep,...] [--out FILE]

Seeds are the outer loop and workloads the inner one, so the workloads
interleave instead of running in blocks on a noisy machine.  For every
end-to-end metric it prints the median, the quartiles and the spread
(third minus first quartile, as a share of the median) next to the
bound in BENCHMARK.json.  ``--out`` also makes one traced run per
workload and writes everything, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited {out.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    units: dict[str, str] = {}
    env = ""
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            result, notes = run_once(w, seed, args.seconds, 0)
            env = next((n for n in notes if n.startswith("# env")), env)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{'workload':18} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w in names:
        summary[w] = {}
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  > bound/3"
            print(f"{w:18} {name:16} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}")
            summary[w][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                                "spread": spread, "values": vals}

    if args.out:
        traced = {}
        for w in names:
            result, _ = run_once(w, args.first_seed, args.seconds, 1)
            traced[w] = result["metrics"]
        args.out.write_text(json.dumps({
            "environment": env.removeprefix("# env "),
            "run_seconds": args.seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "end_to_end": summary,
            "per_layer": traced,
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
