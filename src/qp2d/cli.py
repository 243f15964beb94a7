"""Batch command line: verify | curve | regions | eigen | wavefunction.

Every run is driven by a JSON config (alpha descriptor, potential, grids,
profile overrides, seed) and writes machine-readable outputs.  Exit codes:
0 pass, 1 check failure, 2 config error, 3 numerical rejection (any of
`isoenergetic.REJECTIONS`: a resonant base angle, overlapping blocks, a
contour hit, non-convergence, a non-unique eigenvalue or no root).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import isoenergetic, multiscale, perturb, resonance, wavefunction
from .lattice import NoApproximant, RationalAlpha
from .verify import CheckRecord, ConfigError, RunConfig, run_all

TWO_PI = 2.0 * math.pi

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NONCONVERGENT = 3


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig.default()
    cfg = RunConfig.from_json(path)
    cfg.params()  # validate the alpha descriptor eagerly
    cfg.spec()
    return cfg


def _positive_int(text: str) -> int:
    """argparse type of a grid size: a bad value exits 2 before any work."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _out_path(cfg: RunConfig, flag_value: str | None, default_name: str) -> str:
    if flag_value:
        return flag_value
    base = cfg.out_dir or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, default_name)


def _one_point(args, tau_factor: float):
    """(config, k, profile, spec, rng, phi) of a one-point command: k is --k
    or the config's last k; phi is --phi, else 0 if it lies in the tau_factor
    good set at k, else the first uniform draw in it, or None, after a
    message, when that set has measure zero."""
    cfg = _load_config(args.config)
    k = args.k if args.k is not None else cfg.k_grid[-1]
    prof = cfg.profile_at(k)
    rng = cfg.rng()
    phi = args.phi
    if phi is None:
        om = resonance.build_omega1(k, prof, cfg.params(), tau_factor)
        phi = 0.0
        while not om.contains(phi):
            if om.measure == 0.0:
                print(f"no base angle: the good set at k={k:g} has measure 0", file=sys.stderr)
                phi = None
                break
            phi = float(rng.uniform(0, TWO_PI))
    return cfg, k, prof, cfg.spec(), rng, phi


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    out_path = _out_path(cfg, args.out, "verify-report.jsonl")
    records: list[CheckRecord] = []
    with open(out_path, "w") as fh:

        def emit(rec: CheckRecord):
            print(rec.line())
            fh.write(rec.as_json() + "\n")
            records.append(rec)

        run_all(cfg, emit=emit)
    n_fail = sum(not r.passed for r in records)
    print(f"{len(records) - n_fail}/{len(records)} checks passed -> {out_path}")
    return EXIT_PASS if n_fail == 0 else EXIT_CHECK_FAILURE


def cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    lam = args.lam if args.lam is not None else cfg.lambda_grid[0]
    prof = cfg.profile_at(math.sqrt(lam))
    spec = cfg.spec()
    grid = np.linspace(0, TWO_PI, args.grid, endpoint=False)
    curve = isoenergetic.trace_curve(args.level, lam, grid, spec, prof)
    out = _out_path(cfg, args.out, f"curve-l{args.level}-{lam:.0f}.csv")
    isoenergetic.export_curve(curve, out)
    n_adm = len(curve.admissible_samples)
    print(
        f"level {args.level} lambda={lam:g}: {n_adm}/{len(grid)} admissible, "
        f"sup|h|={curve.sup_h:.3g}, holes={curve.hole_measure:.4f} -> {out}"
    )
    return EXIT_PASS


def cmd_regions(args) -> int:
    cfg, k, prof, spec, rng, phi0 = _one_point(args, 8.0)
    if phi0 is None:
        return EXIT_NONCONVERGENT
    m2, dec = multiscale.build_m2set(phi0, k, None, spec, prof)
    rmap = multiscale.region_map(m2, k, spec, prof, decomp=dec)
    stats = multiscale.region_stats(rmap, m2, spec, prof, rng=rng)
    payload = {
        "k": k,
        "phi0": phi0,
        "n_deep_resonances": len(m2),
        "components": [
            {
                "color": c.color,
                "size": len(c.rows),
                "n_points": c.n_resonant_points,
                "boundary": len(c.boundary),
            }
            for c in rmap.components
        ],
        "checks": {
            "boundary_violation": multiscale.boundary_check(rmap, spec),
            "max_counting_ratio": stats["max_counting_ratio"],
        },
    }
    out = _out_path(cfg, args.out, f"regions-k{k:.0f}.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(
        f"k={k:g} phi0={phi0:.6f}: {len(m2)} deep resonances, "
        f"{len(rmap.components)} components -> {out}"
    )
    return EXIT_PASS


def cmd_resonance_map(args) -> int:
    cfg, k, prof, spec, _, phi0 = _one_point(args, 8.0)
    if phi0 is None:
        return EXIT_NONCONVERGENT
    om1 = resonance.build_omega1(k, prof, spec.params)
    dec = resonance.classify(phi0, k, spec, prof)
    dec = resonance.strength(dec, k, phi0, spec, prof)
    proj = resonance.assemble_projector(dec, k, prof, spec)
    payload = {
        "k": k,
        "phi0": phi0,
        "omega1_intervals": [list(iv) for iv in om1.intervals],
        "omega1_measure": om1.measure,
        "decomposition": {
            "n_resonant": len(dec.m_set),
            "n_isolated": len(dec.m1),
            "classes": [
                {
                    "size": len(c.members),
                    "in_support": c.in_support,
                    "trivial": c.trivial,
                    "windows": [
                        {
                            "width": s.n_plus - s.n_minus + 1,
                            "strength": s.strength,
                        }
                        for s in c.subsets
                    ],
                }
                for c in dec.classes
            ],
            "strong_clusters": [len(g) for g in dec.strong_clusters],
        },
        "blocks": [
            {"kind": b.kind, "size": len(b.positions)} for b in proj.blocks
        ],
    }
    out = _out_path(cfg, args.out, f"resonance-map-k{k:.0f}.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(
        f"k={k:g} phi0={phi0:.6f}: {len(dec.m_set)} resonances, "
        f"{len(proj.blocks)} blocks -> {out}"
    )
    return EXIT_PASS


def cmd_eigen(args) -> int:
    cfg, k, prof, spec, _, phi = _one_point(args, 8.0 if args.level == 2 else 1.0)
    if phi is None:
        return EXIT_NONCONVERGENT
    kap = k * np.array([math.cos(phi), math.sin(phi)])
    res = perturb.eigenvalue_level(args.level, kap, spec, prof, check_oracle=not args.no_oracle)
    payload = {
        "point": {"k": k, "phi": phi},
        "level": args.level,
        "lambda": res.lam,
        "lambda_base": res.lambda_base,
        "g": [float(x) for x in res.g],
        "tail": res.tail_estimate,
        "oracle_lambda": res.oracle_lambda,
        "delta": res.delta_vs_oracle,
        "contour": {"center": res.contour.center, "radius": res.contour.radius},
    }
    out = _out_path(cfg, args.out, f"eigen-l{args.level}-k{k:.0f}.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
    d = "skipped" if res.oracle_lambda is None else f"{res.delta_vs_oracle:.3e}"
    print(
        f"level {args.level} at k={k:g} phi={phi:.6f}: lambda={res.lam:.9f} "
        f"(oracle delta {d}) -> {out}"
    )
    return EXIT_PASS


def cmd_wavefunction(args) -> int:
    cfg, k, prof, spec, _, phi = _one_point(args, 8.0 if args.level == 2 else 1.0)
    if phi is None:
        return EXIT_NONCONVERGENT
    kap = k * np.array([math.cos(phi), math.sin(phi)])
    wf = wavefunction.synthesize(args.level, kap, spec, prof)
    grid = wavefunction.unit_cell_grid(args.grid)
    sampled = wavefunction.sample(wf, grid)
    out = _out_path(cfg, args.out, f"wavefunction-l{args.level}-k{k:.0f}.csv")
    with open(out, "w") as fh:
        fh.write("x1,x2,re_psi,im_psi,abs_u\n")
        for x, psi, u in zip(grid, sampled["psi"], sampled["u"]):
            fh.write(
                "%.17g,%.17g,%.17g,%.17g,%.17g\n"
                % (x[0], x[1], psi.real, psi.imag, abs(u))
            )
    print(
        f"level {args.level} at k={k:g} phi={phi:.6f}: sup|psi|={sampled['sup_psi']:.6f} "
        f"sup|u|={sampled['sup_u']:.3e} -> {out}"
    )
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qp",
        description=(
            "Quasi-periodic 2D Schrodinger toolkit: dressed eigenvalues, "
            "resonance geometry, isoenergetic curves, multiscale regions."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full acceptance battery")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="JSONL report path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("curve", help="trace an isoenergetic curve")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.add_argument("--lambda", dest="lam", type=float, help="energy level")
    p.add_argument("--grid", type=_positive_int, default=240, help="angle samples")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("regions", help="deep resonances and the region map")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--k", type=float)
    p.add_argument("--phi", type=float, help="base angle (random admissible if unset)")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(fn=cmd_regions)

    p = sub.add_parser(
        "resonance-map", help="step-I good set and the step-II block structure"
    )
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--k", type=float)
    p.add_argument("--phi", type=float, help="base angle (random admissible if unset)")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(fn=cmd_resonance_map)

    p = sub.add_parser("eigen", help="dressed eigenvalue at one point")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.add_argument("--k", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("wavefunction", help="sample an approximate eigenfunction")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.add_argument("--k", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--grid", type=_positive_int, default=64)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_wavefunction)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RationalAlpha, NoApproximant) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except isoenergetic.REJECTIONS as exc:
        print(f"numerical rejection ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT


if __name__ == "__main__":
    sys.exit(main())
