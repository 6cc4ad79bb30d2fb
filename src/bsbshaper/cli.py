"""Command-line surface: material inspection, design, transfer evaluation,
pulse synthesis, interferometry processing, overlap scoring, figure pipelines.

Exit codes: 0 success, 1 validation error, 2 numerical-degeneracy error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import dispersion, figures, ftsi, metrology, shaper
from .config import RunConfig, config_header, load_config
from .errors import (BsbShaperError, ConfigError, DegenerateMaterialError,
                     EmptyMaskError, SidebandOverlapError)
from .io import write_table
from .pulsefield import (apply_transfer, derivative_envelope_oracle,
                         derivative_field_oracle, gaussian_pulse, read_field_csv,
                         replica_difference, write_field_csv)
from .shaper import Compensator

VALIDATION_EXIT = 1
DEGENERACY_EXIT = 2


def _add_config_flags(p):
    p.add_argument("--config", help="YAML config file; flags override its values")
    p.add_argument("--n-samples", type=int, dest="n_samples")
    p.add_argument("--nu-start-thz", type=float, dest="nu_start_thz")
    p.add_argument("--nu-end-thz", type=float, dest="nu_end_thz")
    p.add_argument("--material", dest="material")
    p.add_argument("--material-b", dest="material_b")
    p.add_argument("--thickness-um", type=float, dest="thickness_um")
    p.add_argument("--mode", choices=shaper.MODES, dest="mode")
    p.add_argument("--carrier-nm", type=float, dest="carrier_nm")
    p.add_argument("--fwhm-thz", type=float, dest="fwhm_thz")
    p.add_argument("--tau-ftsi-fs", type=float, dest="tau_ftsi_fs")
    p.add_argument("--window-order", type=int, dest="window_order")
    p.add_argument("--window-width-fs", type=float, dest="window_width_fs")
    p.add_argument("--outdir", dest="outdir")


def _config_from(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return load_config(getattr(args, "config", None), overrides)


def _cmd_material_info(args):
    material = dispersion.get_material(args.name)
    wl_um = args.wavelength * 1e-3
    omega = 2 * np.pi * dispersion.C_LIGHT / (args.wavelength * 1e-9)
    n_o = dispersion.refractive_index(material.ordinary, wl_um)
    n_e = dispersion.refractive_index(material.extraordinary, wl_um)
    ng_o = dispersion.group_index(material.ordinary, wl_um)
    ng_e = dispersion.group_index(material.extraordinary, wl_um)
    w1 = dispersion.omega1(material, omega)
    print(f"material: {material.name}")
    print(f"citation: {material.citation}")
    print(f"wavelength_nm: {args.wavelength}")
    print(f"n_o: {n_o:.8f}")
    print(f"n_e: {n_e:.8f}")
    print(f"n_g_o: {ng_o:.8f}")
    print(f"n_g_e: {ng_e:.8f}")
    print(f"delta_n: {n_e - n_o:.6e}")
    print(f"delta_n_g: {ng_e - ng_o:.6e}")
    print(f"omega1_over_omega0: {w1 / omega:.6f}")
    print(f"omega1_ordinary_thz: {w1 / (2e12 * np.pi):.4f}")
    return 0


def _print_design(solution, config: RunConfig, mode: str):
    pulse = gaussian_pulse(config.grid(), config.omega0,
                           2 * np.pi * config.fwhm_thz * 1e12)
    overlap = metrology.stack_overlap(solution, pulse, mode)
    for material, length in solution.segments:
        print(f"segment: {material.name} thickness_um={length * 1e6:.6f}")
    print(f"achieved_delay_fs: {solution.achieved_delay * 1e15:.6f}")
    print(f"achieved_order: {solution.achieved_order:.6f}")
    print(f"omega1_over_omega0: {solution.achieved_omega1 / config.omega0:.6e}")
    print(f"overlap: {overlap:.8f}")
    if len(solution.segments) == 1:
        material, length = solution.segments[0]
        comp = Compensator(material, length)
        print(f"efficiency: {metrology.efficiency(comp, pulse, mode):.6e}")
    for key, value in solution.residuals.items():
        print(f"residual.{key}: {value!r}")


def _cmd_design(args):
    config = _config_from(args)
    material = dispersion.get_material(config.material)
    if args.design == "delay":
        solution = metrology.thickness_for_delay(material, config.omega0, args.tau_fs * 1e-15)
    elif args.design == "order":
        solution = metrology.thickness_for_order(material, config.omega0, args.order)
    else:
        target_w1 = 0.0 if args.target_omega1 == "zero" else config.omega0
        solution = metrology.achromat_design(material,
                                             dispersion.get_material(config.material_b),
                                             config.omega0, target_w1, args.tau_fs * 1e-15)
    _print_design(solution, config, config.mode)
    return 0


def _cmd_transfer(args):
    config = _config_from(args)
    if config.thickness_um is None:
        raise ConfigError("transfer requires --thickness-um")
    grid = config.grid()
    comp = Compensator(dispersion.get_material(config.material), config.thickness_um * 1e-6)
    pair = shaper.transfer_exact(comp, grid)
    resp = shaper.effective_response(pair, config.mode)
    write_table(sys.stdout if args.output is None else args.output, [config_header(config)],
                ["omega_rad_per_s", "abs_R", "arg_R", "abs_Hx", "abs_Hy", "masked"],
                [grid.omegas, np.abs(resp.values), np.angle(resp.values), np.abs(pair.h_x),
                 np.abs(pair.h_y), resp.masked])
    return 0


def _cmd_pulse(args):
    config = _config_from(args)
    if args.action == "synth":
        field = gaussian_pulse(config.grid(), config.omega0,
                               2 * np.pi * config.fwhm_thz * 1e12)
    elif args.action == "derive":
        field = read_field_csv(args.input)
        t_const = args.t_const_fs * 1e-15
        if config.mode == "field":
            field = derivative_field_oracle(field, t_const)
        else:
            field = derivative_envelope_oracle(field, t_const)
    else:  # replica
        field = replica_difference(read_field_csv(args.input), args.tau_fs * 1e-15)
    write_field_csv(field, args.output)
    return 0


def _cmd_ftsi(args):
    config = _config_from(args)
    if args.action == "synth":
        e_a = read_field_csv(args.signal)
        e_b = read_field_csv(args.shaped)
        tau = config.tau_ftsi_fs * 1e-15
        extra = None
        if args.gdd_fs2:
            extra = 0.5 * args.gdd_fs2 * 1e-30 * (e_a.grid.omegas - e_a.omega0) ** 2
        gram = ftsi.synthesize_interferogram(e_a, e_b, tau, extra)
        ftsi.write_interferogram_csv(gram, args.output)
    elif args.action == "retrieve":
        gram = ftsi.read_interferogram_csv(args.input)
        window = ftsi.FtsiWindow(
            width=config.window_width_fs * 1e-15 if config.window_width_fs else None,
            order=config.window_order)
        rp = ftsi.retrieve_phase(gram, window)
        if not args.no_unwrap:
            rp = ftsi.unwrap(rp)
        ftsi.write_phase_csv(rp, args.output)
    elif args.action == "subtract":
        diff = ftsi.subtract_reference(ftsi.read_phase_csv(args.with_device),
                                       ftsi.read_phase_csv(args.without_device))
        diff = ftsi.unwrap(ftsi.wrap_to_principal(diff))
        ftsi.write_phase_csv(diff, args.output)
    else:  # jump
        rp = ftsi.read_phase_csv(args.input)
        jump = ftsi.detect_phase_jump(rp, config.omega0)
        print(f"jump_location_rad_per_s: {float(jump.location)!r}")
        print(f"jump_magnitude_rad: {jump.magnitude!r}")
        print(f"jump_sign: {jump.sign}")
    return 0


def _cmd_overlap(args):
    shaped = read_field_csv(args.shaped)
    source = read_field_csv(args.source)
    t_const = 1e-15  # overlap is scale invariant; any positive constant works
    if args.objective == "field":
        objective = derivative_field_oracle(source, t_const)
    else:
        objective = derivative_envelope_oracle(source, t_const)
    band = metrology.band_from_field(source)
    overlap = metrology.mode_overlap(shaped, objective, band)
    print(f"overlap: {overlap:.8f}")
    print(f"band_rad_per_s: {band[0]!r} {band[1]!r}")
    return 0


def _cmd_figure(args):
    config = _config_from(args)
    for path in figures.run_figure_pipeline(config, args.figure):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsbshaper",
        description="Birefringent-compensator pulse differentiation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("material-info", help="dispersion summary for a bundled material")
    p.add_argument("name")
    p.add_argument("--wavelength", type=float, default=800.0, help="nm")
    p.set_defaults(func=_cmd_material_info)

    p = sub.add_parser("design", help="solve for compensator thicknesses")
    p.add_argument("design", choices=("delay", "order", "achromat"))
    p.add_argument("--tau-fs", type=float, default=0.17)
    p.add_argument("--order", type=float, default=0.5)
    p.add_argument("--target-omega1", choices=("zero", "carrier"), default="zero")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("transfer", help="evaluate the exact transfer functions")
    p.add_argument("--output")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("pulse", help="synthesize or transform spectral fields")
    p.add_argument("action", choices=("synth", "derive", "replica"))
    p.add_argument("--input")
    p.add_argument("--output", required=True)
    p.add_argument("--t-const-fs", type=float, default=0.085)
    p.add_argument("--tau-fs", type=float, default=0.17)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_pulse)

    p = sub.add_parser("ftsi", help="spectral interferometry simulation and retrieval")
    p.add_argument("action", choices=("synth", "retrieve", "subtract", "jump"))
    p.add_argument("--signal")
    p.add_argument("--shaped")
    p.add_argument("--input")
    p.add_argument("--with", dest="with_device")
    p.add_argument("--without", dest="without_device")
    p.add_argument("--output")
    p.add_argument("--gdd-fs2", type=float, default=0.0)
    p.add_argument("--no-unwrap", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ftsi)

    p = sub.add_parser("overlap", help="score a shaped field against an objective mode")
    p.add_argument("--objective", choices=("field", "envelope"), required=True)
    p.add_argument("--shaped", required=True, help="field CSV of the shaped mode")
    p.add_argument("--source", required=True, help="field CSV of the source pulse")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("figure", help="emit plot-ready data for one measurement figure")
    p.add_argument("figure", choices=figures.FIGURES)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateMaterialError, EmptyMaskError, SidebandOverlapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERACY_EXIT
    except (ConfigError, BsbShaperError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
