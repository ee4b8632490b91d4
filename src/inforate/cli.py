"""Command-line reproduction harness.

Subcommands regenerate the library's reference numbers as CSV sweeps or
JSON reports.  Sweep metadata (seed, sample counts, bins, tolerances,
command line, version) is emitted alongside the table so every cell can
be re-derived.  Exit codes: 0 success, 1 check failure, 2 bad input.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .config import EstimationParams, check_estimation, load_config
from .errors import (
    BadParameterError,
    IncompatibleSpecError,
    InforateError,
    ParseError,
    TooFewSamplesError,
)
from .estimate import (
    cond_entropy_W_given_X,
    cond_entropy_rate_quad,
    marginal_entropy_quad,
)
from .lossrate import (
    analyze_loss_rate,
    bound_index_given_input,
    loss_rate_analytic,
    loss_rate_bounds_mc,
    loss_rv,
)
from .lumpability import check_lumpable, full_report
from .pbf import magnitude
from .process import make_ar1, make_cyclic_walk, make_tightness_example
from .relloss import (
    downsampler_relative_loss,
    empirical_constant_frequency,
    relative_loss_rate_constant_pieces,
)


@dataclass
class SweepTable:
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, **cells):
        self.rows.append([cells[c] for c in self.columns])

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()


def _format_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_output(args, text, metadata):
    meta = dict(metadata)
    meta["command"] = " ".join(args.argv)
    meta["version"] = __version__
    if args.out:
        _atomic_write(args.out, text)
        _atomic_write(
            args.out + ".meta.json",
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
        )
    else:
        sys.stdout.write(text)
        print(json.dumps(meta, sort_keys=True), file=sys.stderr)


# estimation flags: type and help; the defaults are EstimationParams'
_FLAGS = {
    "seed": (int, None),
    "samples": (int, None),
    "bins": (int, "default: ceil(N^(1/3))"),
    "quad_tol": (float, None),
    "grid": (int, None),
}


def _options(sub, *keys):
    """The estimation flags ``keys`` that the command reads, and --out.
    A flag not given is absent from the parsed arguments."""
    for key in keys:
        kind, text = _FLAGS[key]
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=text)
    sub.add_argument("--out", type=str, default=None, help="write here (+ .meta.json)")


def _estimation(args, spec=None):
    """The config's estimation values, or the defaults without a config,
    overridden by the flags given."""
    est = EstimationParams() if spec is None else spec.estimation
    given = {key: val for key, val in vars(args).items() if key in _FLAGS}
    return replace(est, **given)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ar1_sweep(args):
    a_values = _parse_values(args.a_values)
    if any(not 0.0 < a < 1.0 for a in a_values):
        raise ParseError("pole values must lie in (0, 1)")
    est = _estimation(args)
    cfg = est.quad_cfg
    table = SweepTable(
        columns=[
            "a",
            "loss_rv",
            "lower",
            "upper",
            "hw2x1",
            "lump_deviation",
        ],
        metadata={
            "sigma": args.sigma,
            "seed": est.seed,
            "samples": est.samples,
            "bins": est.bins,
            "quad_tol": est.quad_tol,
            "grid": est.grid,
        },
    )
    for i, a in enumerate(a_values):
        proc = make_ar1(a, args.sigma)
        f = magnitude()
        sw = loss_rate_bounds_mc(f, proc, est.samples, est.seed + i, est.bins, cfg)
        hwx = bound_index_given_input(f, proc, cfg)
        rep = check_lumpable(f, proc, grid=est.grid)
        table.add(
            a=a,
            loss_rv=sw.loss_rv_value,
            lower=sw.lower,
            upper=sw.upper,
            hw2x1=hwx,
            lump_deviation=rep.max_deviation,
        )
    _write_output(args, table.to_csv(), table.metadata)
    return 0


def cmd_cyclic_sweep(args):
    ratios = _parse_values(args.ratios)
    if any(not 0.0 < r <= 1.0 for r in ratios):
        raise ParseError("ratios a/M must lie in (0, 1]")
    est = _estimation(args)
    cfg = est.quad_cfg
    table = SweepTable(
        columns=[
            "ratio",
            "loss_rate_closed",
            "loss_rate_quad",
            "hw2x1_closed",
            "hw2x1_quad",
        ],
        metadata={"M": args.M, "quad_tol": est.quad_tol, "grid": est.grid},
    )
    for r in ratios:
        a = r * args.M
        proc = make_cyclic_walk(args.M, a)
        f = magnitude(-args.M, args.M)
        lbar = loss_rate_analytic(f, proc, cfg, grid=est.grid)
        hwx = cond_entropy_W_given_X(f, proc, cfg)
        table.add(
            ratio=r,
            loss_rate_closed=a / args.M,
            loss_rate_quad=lbar,
            hw2x1_closed=cyclic_hw2x1_closed_form(args.M, a),
            hw2x1_quad=hwx,
        )
    _write_output(args, table.to_csv(), table.metadata)
    return 0


def cyclic_hw2x1_closed_form(M, a):
    """H(W2|X1) of the wrapped walk split at zero, in bits."""
    import math

    if M > 2 * a:
        return a / (M * math.log(2.0))
    return (M - a) / (M * math.log(2.0)) + math.log2(2.0 * a / M)


def cmd_tightness(args):
    est = _estimation(args)
    cfg = est.quad_cfg
    proc = make_tightness_example()
    from .pbf import shift_mod

    f = shift_mod(period=2.0, offset=0.0, lo=0.0, hi=4.0)
    h_x = marginal_entropy_quad(proc, cfg)
    h_rate = cond_entropy_rate_quad(proc, cfg)
    loss = loss_rv(f, proc, cfg)
    lbar = loss_rate_analytic(f, proc, cfg, grid=est.grid)
    hw2x1 = cond_entropy_W_given_X(f, proc, cfg)
    rep = full_report(f, proc, grid=est.grid)
    report = {
        "h_marginal": h_x,
        "h_rate": h_rate,
        "loss_rv": loss,
        "loss_rate": lbar,
        "hw2x1": hw2x1,
        "residuals": {
            "h_marginal_vs_2": abs(h_x - 2.0),
            "h_rate_vs_1": abs(h_rate - 1.0),
            "loss_rv_vs_1": abs(loss - 1.0),
            "loss_rate_vs_1": abs(lbar - 1.0),
            "hw2x1_vs_1": abs(hw2x1 - 1.0),
        },
        "lumpability": asdict(rep),
    }
    _write_output(
        args,
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        {"quad_tol": est.quad_tol, "grid": est.grid},
    )
    ok = all(v <= 1e-6 for v in report["residuals"].values())
    ok = ok and rep.condition_holds and rep.tightness_a_holds and rep.tightness_b_holds
    return 0 if ok else 1


def cmd_downsample(args):
    m = _count(args.M, "--M")
    table = SweepTable(
        columns=["n", "dim_out", "rel_loss", "rel_loss_float"],
        metadata={"M": m},
    )
    for v in filter(str.strip, args.blocks.split(",")):
        n = _count(v, "--blocks entry")
        rel = downsampler_relative_loss(m, n)
        table.add(n=n, dim_out=n // m, rel_loss=str(rel), rel_loss_float=float(rel))
    limit = downsampler_relative_loss(m)
    table.add(n="limit", dim_out="", rel_loss=str(limit), rel_loss_float=float(limit))
    _write_output(args, table.to_csv(), table.metadata)
    return 0


def cmd_lump_check(args):
    spec = load_config(args.config)
    grid = _estimation(args, spec).grid
    rep = full_report(spec.function, spec.process, grid=grid, tol=args.tol)
    _write_output(
        args, json.dumps(asdict(rep), indent=2, sort_keys=True) + "\n", {"grid": grid}
    )
    return 0 if rep.condition_holds else 1


def cmd_analyze(args):
    spec = load_config(args.config)
    est = _estimation(args, spec)
    f, proc = spec.function, spec.process
    out = {"process": spec.raw.get("process"), "function": spec.raw.get("function")}
    if f.has_constant:
        analytic = relative_loss_rate_constant_pieces(f, proc, cfg=est.quad_cfg)
        out["pipeline"] = "relative-loss"
        out["relative_loss"] = analytic
        if any(b.kind == "injective" for b in f.branches):
            out["empirical_frequency"] = empirical_constant_frequency(
                f, proc, n_samples=est.samples, seed=est.seed
            )
    else:
        report = analyze_loss_rate(
            f,
            proc,
            n_samples=est.samples,
            seed=est.seed,
            bins=est.bins,
            k=est.block_order,
            cfg=est.quad_cfg,
            grid=est.grid,
        )
        out["pipeline"] = "loss-rate"
        out["loss_rate"] = asdict(report)
        out["lumpability"] = asdict(full_report(f, proc, grid=est.grid))
    meta = {
        "samples": est.samples,
        "bins": est.bins,
        "seed": est.seed,
        "quad_tol": est.quad_tol,
        "grid": est.grid,
    }
    _write_output(args, json.dumps(out, indent=2, sort_keys=True) + "\n", meta)
    return 0


def _count(value, name):
    """``value``, an int or the text of one, as an int >= 1."""
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ParseError(f"{name} must be >= 1, got {n}")
    return n


def _parse_values(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError(f"bad numeric list {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inforate",
        description="Information loss rates of memoryless systems driven by "
        "stationary processes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ar1-sweep", help="sandwich bounds for AR(1) + magnitude")
    p.add_argument("--a-values", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--sigma", type=float, default=1.0)
    _options(p, *_FLAGS)
    p.set_defaults(func=cmd_ar1_sweep)

    p = subs.add_parser("cyclic-sweep", help="wrapped walk + magnitude closed forms")
    p.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--M", type=float, default=1.0)
    _options(p, "quad_tol", "grid")
    p.set_defaults(func=cmd_cyclic_sweep)

    p = subs.add_parser("tightness", help="worst-case chain where all bounds meet")
    _options(p, "quad_tol", "grid")
    p.set_defaults(func=cmd_tightness)

    p = subs.add_parser("downsample", help="relative loss of an M-fold downsampler")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--blocks", default="", help="comma list of block lengths n")
    _options(p)
    p.set_defaults(func=cmd_downsample)

    p = subs.add_parser("lump-check", help="grid check that the output is Markov")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _options(p, "grid")
    p.set_defaults(func=cmd_lump_check)

    p = subs.add_parser("analyze", help="full report for a config file")
    p.add_argument("--config", type=str, required=True)
    _options(p, *_FLAGS)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        for key in _FLAGS:
            if key in vars(args):
                check_estimation(key, getattr(args, key), "--" + key.replace("_", "-"))
        return args.func(args)
    except (
        BadParameterError,
        IncompatibleSpecError,
        ParseError,
        TooFewSamplesError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InforateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
