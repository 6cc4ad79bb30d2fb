#!/usr/bin/env python3
"""Trade-off sweep: overlap and conversion efficiency versus compensator thickness.

Thin plates track the derivative objective almost perfectly but convert
little light into the shaped channel; this sweep maps the compromise for the
field-derivative configuration.

Usage: python scripts/thickness_sweep.py [--material quartz] [--lmin-um 0.5]
       [--lmax-um 80] [--points 60] [--output sweep.csv]
"""

import argparse
import sys

import numpy as np

from bsbshaper import dispersion, metrology
from bsbshaper.config import config_header, load_config
from bsbshaper.io import write_table
from bsbshaper.shaper import Compensator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--material", default="quartz")
    ap.add_argument("--mode", default="field")
    ap.add_argument("--lmin-um", type=float, default=0.5)
    ap.add_argument("--lmax-um", type=float, default=80.0)
    ap.add_argument("--points", type=int, default=60)
    ap.add_argument("--output", default="sweep.csv")
    args = ap.parse_args()

    config = load_config(None, {"material": args.material, "mode": args.mode})
    material = dispersion.get_material(config.material)
    pulse = config.pulse()

    lengths = np.geomspace(args.lmin_um, args.lmax_um, args.points) * 1e-6
    reports = [metrology.score_compensator(Compensator(material, float(length)), pulse,
                                           config.mode) for length in lengths]
    write_table(args.output, [config_header(config)],
                ["thickness_um", "delay_fs", "order", "overlap", "efficiency"],
                [lengths * 1e6,
                 dispersion.delta_k_prime(material, config.omega0) * lengths * 1e15,
                 dispersion.delta_k(material, config.omega0) * lengths / (2 * np.pi),
                 [r.overlap for r in reports], [r.efficiency for r in reports]])
    print(args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
