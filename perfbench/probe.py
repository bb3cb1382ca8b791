"""Set-up probe, run as its own process by ``run.py``.

Imports the package, validates the workload's ``RunConfig`` and generates
every synthetic image the run's harness seeds use, then prints ``ready``.
The parent times it from process start to that line.
"""

from __future__ import annotations

import argparse

from segxfer.synthdata import SOURCE, TARGET, generate

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    config = workload.run_config()
    images = 0
    for seed in workload.harness_seeds(args.seed):
        synth = config.synth_config(seed)
        images += len(generate(synth, config.source_count, SOURCE))
        images += len(generate(synth, config.target_count, TARGET))
        images += len(generate(synth, config.eval_count, TARGET, stream=1))
    print(f"ready {images}", flush=True)


if __name__ == "__main__":
    main()
