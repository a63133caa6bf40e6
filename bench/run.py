"""Benchmark of modnmt: four workloads driven through the public API.

    python3 bench/run.py --workload joint-train --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each

Run from the root of a checkout. The program is imported from `src/` of that
checkout and nowhere else. BLAS is pinned to one thread before numpy loads.
The last line of standard output is one JSON object: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ["joint-train", "add-language", "translate-greedy", "translate-beam"]


def blas_facts() -> dict:
    """Thread count and version as reported by the loaded OpenBLAS itself."""
    import numpy as np

    facts = {"numpy": np.__version__, "blas_threads": "unknown", "openblas": "unknown"}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("openblas_", "64_")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads and config:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                facts["blas_threads"] = threads()
                facts["openblas"] = config().decode().split()[1]
                return facts
    return facts


def run_one(args) -> int:
    try:
        import modnmt
    except ImportError as err:
        print(f"bench: cannot import modnmt from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if not Path(modnmt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: modnmt came from {modnmt.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import inputs
    import layers
    import workloads
    from spans import Tracer

    facts = blas_facts()
    print("env: " + " ".join(f"{k}={v}" for k, v in
                             {"nproc": os.cpu_count(), **facts}.items()), flush=True)
    # Whichever run comes first in a checkout builds the decode checkpoint, so
    # that no later run pays for it.
    inputs.decode_checkpoint_dir()
    scratch = workloads.scratch_dir()
    try:
        workload = workloads.make(args.workload, args.seed, scratch)
        if args.trace:
            with Tracer() as tracer:
                layers.install(tracer)
                figures = workloads.run(workload, args.seconds, tracer)
            metrics = layers.metrics(tracer.spans)
        else:
            figures = workloads.run(workload, args.seconds)
            metrics = {
                "setup_s": (figures["setup_s"], "s"),
                "sents_per_s": (figures["sents_per_s"], "sentences/s"),
                "tokens_per_s": (figures["tokens_per_s"], "tokens/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        workloads.remove(scratch)
    info = {"workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
            **{k: figures[k] for k in ("rounds", "units", "setup_s", "setup_n", "sents_per_s", "tokens_per_s", "unit_rates")},
            **workload.extra()}
    print("info: " + json.dumps(info), flush=True)
    for problem in workload.problems:
        print(f"check failed: {problem}", flush=True)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": figures["attempted"],
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
        print(f"[{name}] correct={results[name]['correct']} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")
    print(json.dumps(results), flush=True)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
