#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Writes perfbench/reference.json: the sha256 of the non-comment lines of every
fig2-fig5 output file at n = 2^12 and 2^16 (default config otherwise), and
the first RECORDED_OPS results of design-sweep-4k for seed 0.  Run it from
the root of a source checkout, only at a commit whose outputs are known to
be right:

    python3 perfbench/record_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
RECORDED_OPS = 300
FIGURE_SIZES = (2**12, 2**16)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    if not os.path.exists(REFERENCE):
        # workloads.py loads the file at import; start from an empty record
        with open(REFERENCE, "w") as fh:
            json.dump({"figures": {}, "design_seed0": []}, fh)
    from bsbshaper import figures
    from bsbshaper.config import RunConfig
    import workloads

    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    digests = {}
    for n in FIGURE_SIZES:
        outdir = tempfile.mkdtemp(dir=workdir)
        try:
            config = RunConfig(n_samples=n, outdir=outdir)
            digests[str(n)] = {
                fig: {os.path.basename(p): workloads.data_digest(p)[0]
                      for p in figures.run_figure_pipeline(config, fig)}
                for fig in figures.FIGURES}
        finally:
            shutil.rmtree(outdir)

    sweep = workloads.DesignSweepWorkload(0, False, workdir)
    sweep.recorded = []
    design = [list(sweep.run(sweep.prepare(i))[:2]) for i in range(RECORDED_OPS)]

    with open(REFERENCE, "w") as fh:
        json.dump({"figures": digests, "design_seed0": design}, fh, indent=1)
        fh.write("\n")
    print(REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
