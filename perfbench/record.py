"""Record a baseline: run the benchmark on several seeds and summarise.

Usage, from the root of a checkout:

    python3 perfbench/record.py --out perfbench/BASELINE.json

For every workload in ``BENCHMARK.json`` it runs ``run.py`` for
``run_seconds`` once per seed in ``SEEDS`` with ``--trace 0`` and once per
seed in ``TRACE_SEEDS`` with ``--trace 1``, then writes the median,
quartiles and spread (quartile distance over median) of each metric,
together with the machine, the workloads and their seeds, the median
reference times over all traced runs next to the constants ``run.py``
scales to, and the predictions below of which end-to-end metric each
layer's figures should move.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import REF_IMPORT_SECONDS, REF_SECONDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1, 2, 3]

# Written down before measuring: which layer figures should move which
# end-to-end metric on which workload, and where they should stay flat.
PREDICTIONS = [
    {
        "layer_metrics": ["kernels.ms", "kernels.calls", "kernels.expansions",
                          "kernels.expansions_per_s", "kernels.accept_ratio",
                          "conserved_mapping.self_ms", "conserved_mapping.pairs"],
        "moves": {"run_s": ["alkene_dimer"]},
        "flat_on": ["retyped_site", "ua_chain"],
    },
    {
        "layer_metrics": ["similarity_assignment.matrix_ms", "similarity_assignment.matrix_cells",
                          "similarity_assignment.lsa_ms", "similarity_assignment.refine_ms",
                          "similarity_assignment.score_calls",
                          "similarity_assignment.refine_score_calls",
                          "similarity_assignment.path_refined", "similarity_assignment.hswap_ms",
                          "similarity_assignment.hydrogen_swapped"],
        "moves": {"run_s": ["retyped_site", "case_studies"], "peak_mem_mb": ["retyped_site"]},
        "flat_on": ["alkene_dimer"],
    },
    {
        "layer_metrics": ["reaction_analysis.report_ms", "graph_core.centrality_ms",
                          "graph_core.centrality_calls"],
        "moves": {"run_s": ["ua_chain", "case_studies (a little)"]},
        "flat_on": ["retyped_site"],
    },
    {
        "layer_metrics": ["lammps_io.parse_ms", "lammps_io.write_ms", "lammps_io.bytes_in",
                          "graph_core.build_ms", "graph_core.nodes", "template_builder.prune_ms",
                          "template_builder.assemble_ms", "template_builder.pre_atoms",
                          "template_builder.post_atoms", "cli.write_ms", "cli.self_ms"],
        "moves": {"run_s": ["case_studies (largest share of fixed per-call costs)"]},
        "flat_on": [],
    },
]


def machine() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy
    from templater.kernels import BACKEND

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": BACKEND,
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit"] = out.returncode
    print(f"{workload} seed {seed} trace {trace}: exit {out.returncode}, "
          f"{time.perf_counter() - started:.0f} s", file=sys.stderr, flush=True)
    return result


def summarise(results: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result in results:
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, xs in values.items():
        median = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        out[name] = {
            "unit": units[name],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "runs": len(xs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]

    workloads = {}
    all_traced = []
    ok = True
    for entry in bench["workloads"]:
        workload = entry["name"]
        plain = [run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [run(workload, seed, seconds, 1) for seed in TRACE_SEEDS]
        all_traced += traced
        ok &= all(r["exit"] == 0 and r.get("correct") for r in plain + traced)
        workloads[workload] = {
            "why": entry["why"],
            "seeds": SEEDS,
            "trace_seeds": TRACE_SEEDS,
            "attempted": sum(r.get("attempted", 0) for r in plain + traced),
            "failed": sum(r.get("failed", 0) for r in plain + traced),
            "end_to_end": summarise(plain),
            "per_layer": summarise(traced),
        }

    reference = summarise(all_traced)
    record = {
        "machine": machine(),
        "run_seconds": seconds,
        "reference": {
            "loop_ms": {"median": reference["host.ref_ms"]["median"],
                        "scaled_to": REF_SECONDS * 1e3},
            "import_ms": {"median": reference["host.ref_import_ms"]["median"],
                          "scaled_to": REF_IMPORT_SECONDS * 1e3},
        },
        "predictions": PREDICTIONS,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
