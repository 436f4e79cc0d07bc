#!/usr/bin/env python3
"""Record a benchmark baseline: run every workload of BENCHMARK.json over
several seeds, print each end-to-end metric's median and spread (the
distance between its first and third quartile as a share of the median),
and write the medians, quartiles and one traced run's per-layer numbers to
a JSON file in the shape BENCHMARK.json defines.

Run from the repository root:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline/<commit>.json

--workloads limits the run to a comma-separated subset; --no-trace skips
the traced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed with exit {p.returncode}:\n{p.stderr[-3000:]}")
    result = json.loads(lines[-1])
    return result, lines[:-1], elapsed


def parse_seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": seconds, "seeds": seeds, "workloads": []}
    for w in bench["workloads"]:
        if w["name"] not in names:
            continue
        values = {}
        units = {}
        shape = ""
        for seed in seeds:
            result, lines, elapsed = run(w["name"], seed, seconds, 0)
            shape = next((l[len("# shape: "):] for l in lines if l.startswith("# shape: ")), shape)
            print(f"{w['name']} seed {seed}: {elapsed:.1f}s, correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} failed", flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        entry = {"name": w["name"], "shape": shape, "why": w["why"], "seeds": seeds, "end_to_end": {}}
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = "" if spread < bounds[k] / 3 else "  (above a third of the bound)"
            if k == "setup_s":
                flag = ""
            print(f"  {k:12s} median {med:12.6g} {units[k]:5s} spread {spread:6.3f} bound {bounds[k]}{flag}")
            entry["end_to_end"][k] = {"value": med, "unit": units[k], "q1": q[0], "q3": q[2],
                                      "spread": spread, "values": vs}
        if not args.no_trace:
            result, lines, _ = run(w["name"], seeds[0], seconds, 1)
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = result["metrics"]
            entry["traced_notes"] = [l for l in lines if l.startswith("#")]
        record["workloads"].append(entry)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
