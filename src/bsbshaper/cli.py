"""Command-line surface: material inspection, design, transfer evaluation,
pulse synthesis, interferometry processing, overlap scoring, figure pipelines.

Exit codes: 0 success, 1 usage or validation error, 2 numerical-degeneracy error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dispersion, figures, ftsi, metrology, shaper
from .config import FIELD_TYPES, RunConfig, config_header, load_config
from .errors import (BsbShaperError, ConfigError, DegenerateMaterialError,
                     EmptyMaskError, SidebandOverlapError)
from .io import write_table
from .pulsefield import apply_transfer, read_field_csv, replica_difference, write_field_csv
from .shaper import Compensator

VALIDATION_EXIT = 1
DEGENERACY_EXIT = 2


class _Parser(argparse.ArgumentParser):  # usage errors exit 1, not argparse's 2
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


_GRID = ("n_samples", "nu_start_thz", "nu_end_thz")
_DESIGN = _GRID + ("carrier_nm", "fwhm_thz", "material", "mode")


def _action(sub, name, func, config=(), files=(), **kw):
    """An action parser: RunConfig flags generated from the named fields, required files."""
    p = sub.add_parser(name, **kw)
    for flag in files:
        p.add_argument("--" + flag, required=True)
    if config:
        p.add_argument("--config", help="YAML config file; flags override its values")
    for field in config:
        p.add_argument("--" + field.replace("_", "-"), dest=field, type=FIELD_TYPES[field],
                       choices=shaper.MODES if field == "mode" else None)
    p.set_defaults(func=func, config_fields=config)
    return p


def _config_from(args) -> RunConfig:
    fields = args.config_fields
    return load_config(args.config, {f: getattr(args, f) for f in fields}, fields)


def _cmd_material_info(args):
    if not 0 < args.wavelength < np.inf:  # NaN fails too
        raise ConfigError(f"--wavelength must be finite and positive, got {args.wavelength!r} nm")
    material = dispersion.get_material(args.name)
    omega = 2 * np.pi * dispersion.C_LIGHT / (args.wavelength * 1e-9)
    c = dispersion.contrast(material, omega)
    w1 = c.omega1
    print(f"material: {material.name}")
    print(f"citation: {material.citation}")
    print(f"wavelength_nm: {args.wavelength}")
    print(f"n_o: {c.n_o:.8f}")
    print(f"n_e: {c.n_e:.8f}")
    print(f"n_g_o: {c.n_g_o:.8f}")
    print(f"n_g_e: {c.n_g_e:.8f}")
    print(f"delta_n: {c.delta_n:.6e}")
    print(f"delta_n_g: {c.delta_n_group:.6e}")
    print(f"omega1_over_omega0: {w1 / omega:.6f}")
    print(f"omega1_ordinary_thz: {w1 / (2e12 * np.pi):.4f}")


def _print_design(solution, config: RunConfig):
    pulse = config.pulse()
    plate = len(solution.segments) == 1  # efficiency is reported for a single plate only
    if plate:
        report = metrology.score_compensator(Compensator(*solution.segments[0]), pulse,
                                             config.mode)
        overlap = report.overlap
    else:
        overlap = metrology.stack_overlap(solution, pulse, config.mode)
    for material, length in solution.segments:
        print(f"segment: {material.name} thickness_um={length * 1e6:.6f}")
    print(f"achieved_delay_fs: {solution.achieved_delay * 1e15:.6f}")
    print(f"achieved_order: {solution.achieved_order:.6f}")
    print(f"omega1_over_omega0: {solution.achieved_omega1 / config.omega0:.6e}")
    print(f"overlap: {overlap:.8f}")
    if plate:
        print(f"efficiency: {report.efficiency:.6e}")
    for key, value in solution.residuals.items():
        print(f"residual.{key}: {value!r}")


def _cmd_design_delay(args):
    config = _config_from(args)
    _print_design(metrology.thickness_for_delay(
        dispersion.get_material(config.material), config.omega0, args.tau_fs * 1e-15), config)


def _cmd_design_order(args):
    config = _config_from(args)
    _print_design(metrology.thickness_for_order(
        dispersion.get_material(config.material), config.omega0, args.order), config)


def _cmd_design_achromat(args):
    config = _config_from(args)
    target_w1 = 0.0 if args.target_omega1 == "zero" else config.omega0
    _print_design(metrology.achromat_design(
        dispersion.get_material(config.material), dispersion.get_material(config.material_b),
        config.omega0, target_w1, args.tau_fs * 1e-15), config)


def _cmd_design_sweep(args):
    if args.points < 1 or not (0 < args.lmin_um < np.inf and 0 < args.lmax_um < np.inf):
        raise ConfigError("sweep needs --points >= 1 and finite, positive --lmin-um/--lmax-um")
    config = _config_from(args)
    material = dispersion.get_material(config.material)
    pulse = config.pulse()
    lengths = np.geomspace(args.lmin_um, args.lmax_um, args.points) * 1e-6
    reports = [metrology.score_compensator(Compensator(material, float(length)), pulse,
                                           config.mode) for length in lengths]
    c = dispersion.contrast(material, config.omega0)
    write_table(args.output, [config_header(config)],
                ["thickness_um", "delay_fs", "order", "overlap", "efficiency"],
                [lengths * 1e6, c.delta_k_prime * lengths * 1e15,
                 c.delta_k * lengths / (2 * np.pi),
                 [r.overlap for r in reports], [r.efficiency for r in reports]])
    print(args.output)


def _cmd_transfer(args):
    config = _config_from(args)
    if config.thickness_um is None:
        raise ConfigError("transfer requires --thickness-um")
    grid, material = config.grid(), dispersion.get_material(config.material)
    pair = shaper.transfer_exact(Compensator(material, config.thickness_um * 1e-6), grid)
    resp = shaper.effective_response(pair, config.mode)
    write_table(sys.stdout if args.output is None else args.output, [config_header(config)],
                ["omega_rad_per_s", "abs_R", "arg_R", "abs_Hx", "abs_Hy", "masked"],
                [grid, np.abs(resp.values), np.angle(resp.values), np.abs(pair.h_x),
                 np.abs(pair.h_y), resp.masked])


def _cmd_pulse_synth(args):
    write_field_csv(_config_from(args).pulse(), args.output)


def _cmd_pulse_derive(args):
    field = read_field_csv(args.input)
    objective = shaper.objective(field.grid, _config_from(args).mode, args.t_const_fs * 1e-15,
                                 field.omega0)
    write_field_csv(apply_transfer(field, objective), args.output)


def _cmd_pulse_replica(args):
    write_field_csv(replica_difference(read_field_csv(args.input), args.tau_fs * 1e-15),
                    args.output)


def _cmd_ftsi_synth(args):
    config, signal = _config_from(args), read_field_csv(args.signal)
    gram = ftsi.synthesize_interferogram(signal, read_field_csv(args.shaped),
                                         config.tau_ftsi_fs * 1e-15, config.extra_phase(signal))
    ftsi.write_interferogram_csv(gram, args.output)


def _cmd_ftsi_retrieve(args):
    rp = ftsi.retrieve_phase(ftsi.read_interferogram_csv(args.input), _config_from(args).window())
    ftsi.write_phase_csv(rp if args.no_unwrap else ftsi.unwrap(rp), args.output)


def _cmd_ftsi_subtract(args):
    diff = ftsi.relative_phase(ftsi.read_phase_csv(args.with_device),
                               ftsi.read_phase_csv(args.without_device))
    ftsi.write_phase_csv(diff, args.output)


def _cmd_ftsi_jump(args):
    jump = ftsi.detect_phase_jump(ftsi.read_phase_csv(args.input), _config_from(args).omega0)
    print(f"jump_location_rad_per_s: {float(jump.location)!r}")
    print(f"jump_magnitude_rad: {jump.magnitude!r}")
    print(f"jump_sign: {jump.sign}")


def _cmd_overlap(args):
    overlap, band = metrology.objective_overlap(read_field_csv(args.shaped),
                                                read_field_csv(args.source),
                                                _config_from(args).mode)
    print(f"overlap: {overlap:.8f}")
    print(f"band_rad_per_s: {band[0]!r} {band[1]!r}")


def _cmd_figure(args):
    config = _config_from(args)
    for figure in args.figure:
        print("\n".join(figures.run_figure_pipeline(config, figure)))


def build_parser() -> argparse.ArgumentParser:
    """One parser per action; each declares only the inputs its handler reads."""
    parser = _Parser(prog="bsbshaper",
                     description="Birefringent-compensator pulse differentiation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _action(sub, "material-info", _cmd_material_info,
                help="dispersion summary for a bundled material")
    p.add_argument("name")
    p.add_argument("--wavelength", type=float, default=800.0, help="nm")

    design = sub.add_parser("design", help="solve for compensator thicknesses")
    design = design.add_subparsers(dest="action", required=True)
    p = _action(design, "delay", _cmd_design_delay, _DESIGN)
    p.add_argument("--tau-fs", type=float, default=0.17)
    p = _action(design, "order", _cmd_design_order, _DESIGN)
    p.add_argument("--order", type=float, default=0.5)
    p = _action(design, "achromat", _cmd_design_achromat, _DESIGN + ("material_b",))
    p.add_argument("--tau-fs", type=float, default=0.17)
    p.add_argument("--target-omega1", choices=("zero", "carrier"), default="zero")
    p = _action(design, "sweep", _cmd_design_sweep, ("material", "mode"), ["output"])
    p.add_argument("--lmin-um", type=float, default=0.5)
    p.add_argument("--lmax-um", type=float, default=80.0)
    p.add_argument("--points", type=int, default=60)

    p = _action(sub, "transfer", _cmd_transfer, _GRID + ("material", "thickness_um", "mode"),
                help="evaluate the exact transfer functions")
    p.add_argument("--output", help="CSV path; default stdout")

    pulse = sub.add_parser("pulse", help="synthesize or transform spectral fields")
    pulse = pulse.add_subparsers(dest="action", required=True)
    _action(pulse, "synth", _cmd_pulse_synth, _GRID + ("carrier_nm", "fwhm_thz"), ["output"])
    p = _action(pulse, "derive", _cmd_pulse_derive, ("mode",), ["input", "output"])
    p.add_argument("--t-const-fs", type=float, default=0.085)
    p = _action(pulse, "replica", _cmd_pulse_replica, (), ["input", "output"])
    p.add_argument("--tau-fs", type=float, default=0.17)

    ftsi_ = sub.add_parser("ftsi", help="spectral interferometry simulation and retrieval")
    ftsi_ = ftsi_.add_subparsers(dest="action", required=True)
    _action(ftsi_, "synth", _cmd_ftsi_synth, ("tau_ftsi_fs", "extra_phase_gdd_fs2"),
            ["signal", "shaped", "output"])
    p = _action(ftsi_, "retrieve", _cmd_ftsi_retrieve, ("window_order", "window_width_fs"),
                ["input", "output"])
    p.add_argument("--no-unwrap", action="store_true")
    p = _action(ftsi_, "subtract", _cmd_ftsi_subtract, (), ["output"])
    p.add_argument("--with", dest="with_device", required=True)
    p.add_argument("--without", dest="without_device", required=True)
    _action(ftsi_, "jump", _cmd_ftsi_jump, ("carrier_nm",), ["input"])

    _action(sub, "overlap", _cmd_overlap, ("mode",), ["shaped", "source"],
            help="score a shaped field against the mode's objective of a source field")

    figure_fields = [f for f in FIELD_TYPES if f not in ("mode", "material_b")]  # figure fixes mode
    p = _action(sub, "figure", _cmd_figure, figure_fields,
                help="emit plot-ready data for measurement figures, in the order given")
    p.add_argument("figure", nargs="+", choices=figures.FIGURES)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)  # a handler raises on failure
        return 0
    except (DegenerateMaterialError, EmptyMaskError, SidebandOverlapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERACY_EXIT
    except (ConfigError, BsbShaperError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
