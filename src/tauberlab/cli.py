"""Command-line front end: growth-spec parsing, pipeline orchestration, and
deterministic CSV/JSON artifacts with companion plot scripts.

Subcommands
    rate        evaluate the log-augmented rate (or two-function variant) and
                its right inverse at a time value
    invert      right inverse of the growth function itself
    specialfn   build a strip kernel, serialize it, and report its checks
    witness     one optimized decay-floor certificate as JSON
    sweep       certificate sweep over a time grid (CSV + JSON summary)
    truncate    split a witness at zero and verify the half-plane and
                continuation-agreement bounds
    semigroup   multiplication-model decay norms or shift-model certified
                lower bounds (CSV + JSON + plot script)
    verify      run the full deterministic property suite, write a report

Each subcommand handler maps its arguments to (exit code, {artifact name:
text}, stdout lines) and touches no file.  main refuses an --out that is,
or lies below, a file before the handler runs; once the handler returns,
main refuses a directory in the way of any artifact before the first
write, makes --out and writes the whole set (also for exit code 1, so a
failing report is kept), and prints the lines last.  A handler that raises
writes nothing.

Exit codes: 0 success; 1 verification failure (or runtime failure of a
requested computation); 2 configuration/usage error.  All floats are
serialized with 17 significant digits, so artifact round trips are exact and
identical configurations yield byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, growth, regions, semigroup, specialfn, truncate, witness
from .errors import ConfigurationError, DomainError, TauberlabError

__all__ = ["main", "entry_point", "build_parser", "emit_plot_script"]


# ---------------------------------------------------------------------------
# helpers


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"


def _check_out(out: str) -> None:
    """Refuse an --out below a file before any work, so that a run can make
    it only once its input is known good."""
    out = Path(out)
    if not next((p for p in (out, *out.parents) if p.exists()), out).is_dir():
        raise ConfigurationError(f"cannot create --out directory {out}: a file is in the way")


def _write_artifacts(out: str, files: dict[str, str]) -> None:
    """Make --out and write every artifact in it, after refusing a directory
    in the way of any of them, so that no file is written then."""
    out = Path(out)
    for name in files:
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create --out directory {out}: {exc.strerror}") from exc
    for name, text in files.items():
        (out / name).write_text(text)


def _default_eps(args, m: growth.GrowthFunction) -> float:
    return specialfn.default_epsilon(m.m0) if args.eps is None else args.eps


def _t_grid(args) -> np.ndarray:
    if not (math.inf > args.t_max > args.t_min > 0):
        raise ConfigurationError(
            f"need 0 < t-min < t-max < inf, got [{args.t_min}, {args.t_max}]"
        )
    if args.t_count < 2:
        raise ConfigurationError(f"t-count must be at least 2, got {args.t_count}")
    return np.geomspace(args.t_min, args.t_max, args.t_count)


def emit_plot_script(report: semigroup.DecayReport, path) -> tuple[str, str]:
    """The report's CSV text and a plain-text log-log plotting script (one
    series per curve) that reads it, for the files <path>.csv and
    <path>.plt; errors on an empty report."""
    if report.t_grid.size == 0:
        raise ConfigurationError("cannot emit a plot script for an empty report")
    base = Path(path)
    csv_name = base.with_suffix(".csv").name
    lines = [
        f"# {report.kind} decay curves; render with: gnuplot {base.with_suffix('.plt').name}",
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 't'",
        "set ylabel 'norm value'",
        "set key left bottom",
        f"plot '{csv_name}' using 1:2 with linespoints title 'measured or lower bound', \\",
        f"     '{csv_name}' using 1:3 with lines title 'd1 over log-augmented rate inverse', \\",
        f"     '{csv_name}' using 1:4 with lines title 'd2 over growth inverse'",
        "",
    ]
    return report.csv_text(), "\n".join(lines)


# ---------------------------------------------------------------------------
# config files (key=value lines mirroring long flag names)


def _read_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read --config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read --config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigurationError(f"{path}:{lineno}: empty key")
        cfg[key.replace("-", "_")] = value
    return cfg


def _config_value(action: argparse.Action, key: str, raw: str):
    """Convert a config value as the parser converts its flag: a store_true
    flag takes a boolean word, any other option its declared type and choices."""
    if action.nargs == 0:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"config key {key!r} expects a boolean, got {raw!r}")
    try:
        value = raw if action.type is None else action.type(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"config key {key!r} expects {action.type.__name__}, got {raw!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(
            f"config key {key!r} expects one of {tuple(action.choices)}, got {raw!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: list[str]) -> None:
    if not getattr(args, "config", None):
        return
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token[2:].split("=", 1)[0].replace("-", "_"))
    # the command's options, by destination (help has none on the namespace)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[args.command]._actions if hasattr(args, a.dest)}
    for key, raw in _read_config_file(args.config).items():
        if key in ("config", "command") or key in explicit:
            continue
        if key not in actions:
            raise ConfigurationError(f"unknown config key {key!r}")
        setattr(args, key, _config_value(actions[key], key, raw))


# ---------------------------------------------------------------------------
# subcommands

#: what a handler returns: (exit code, {artifact name: text}, stdout lines)
_Outcome = tuple[int, dict[str, str], list[str]]


def _cmd_rate(args) -> _Outcome:
    _require(args, "m", "t")
    m = growth.parse_growth_spec(args.m)
    k = growth.parse_growth_spec(args.k) if args.k else None
    rate = growth.m_k(m, k) if k is not None else growth.m_log(m)
    name = "m_k" if k is not None else "m_log"
    values = {
        f"{name}(s={_fmt(args.t)})": rate(args.t),
        f"{name}_inverse(t={_fmt(args.t)})": growth.right_inverse(rate, args.t),
        f"m_inverse(t={_fmt(args.t)})": growth.right_inverse(m, args.t),
    }
    for key, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{key} is not finite ({value}): no rate value to report")
    lines = [f"m: {m.label}"] + ([f"k: {k.label}"] if k is not None else [])
    return 0, {}, lines + [f"{key} = {_fmt(value)}" for key, value in values.items()]


def _cmd_invert(args) -> _Outcome:
    _require(args, "m", "t")
    m = growth.parse_growth_spec(args.m)
    return 0, {}, [f"m: {m.label}",
                   f"m_inverse(t={_fmt(args.t)}) = {_fmt(growth.right_inverse(m, args.t))}"]


def _cmd_specialfn(args) -> _Outcome:
    strip = specialfn.build_strip_function(args.m0)
    kernel = specialfn.build_kernel(strip)
    grid = regions.sample(strip.strip_half_width, 12.0 / args.m0, 21, 241)
    values = {
        "roundtrip_max_dev": kernel.roundtrip_max_dev,
        "reality_ratio": specialfn.reality_ratio(kernel),
        "strip_weighted_sup": specialfn.verify_strip_decay(strip, strip.epsilon, grid),
    }
    ok = all(checks.check(key, values[key], *limit).ok for key, limit in (
        ("roundtrip_max_dev", checks.ROUNDTRIP_MAX_DEV),
        ("reality_ratio", checks.REALITY_RATIO_MAX),
        ("strip_weighted_sup", checks.STRIP_SUP_MAX),
    ))
    files = {"kernel.tsv": kernel.sample_text, "kernel.json": kernel.header_text}
    report = {
        "m0": args.m0,
        "epsilon": strip.epsilon,
        "t0": kernel.t0,
        "l1_norm": kernel.l1_norm,
        "linf_norm": kernel.linf_norm,
        "deriv_l1_norm": kernel.deriv_l1_norm,
        "deriv_linf_norm": kernel.deriv_linf_norm,
        "checks": values,
        "ok": ok,
        "files": list(files),
    }
    files["specialfn_report.json"] = _json_text(report)
    lines = [f"{key} = {_fmt(report[key])}" for key in ("epsilon", "t0", "l1_norm", "linf_norm")]
    lines += [f"{key} = {_fmt(value)}" for key, value in values.items()]
    return (0 if ok else 1), files, lines + [f"verification: {'pass' if ok else 'FAIL'}"]


def _cmd_witness(args) -> _Outcome:
    _require(args, "m", "t")
    m = growth.parse_growth_spec(args.m)
    k = growth.parse_growth_spec(args.k) if args.k else None
    eps = _default_eps(args, m)
    witness.check_R_max(args.r_max)
    # the kernel refuses an m0 out of range before the search runs
    kernel = specialfn.build_kernel(specialfn.build_strip_function(m.m0)) if args.with_kappa else None
    cert = witness.optimize_R(
        m, args.t, eps, k=k, variant=args.variant, R_max=args.r_max,
        prescribed_C=args.prescribed_c,
    )
    if kernel is not None:
        cal = witness.calibrate_kappa(kernel, m, eps, k=k, variant=args.variant)
        cert = dataclasses.replace(cert, kappa=cal.kappa, calibration_grid_id=cal.grid_id)
    return 0, {"witness_certificate.json": _json_text(cert.to_json_dict())}, [
        f"m: {m.label}  variant: {cert.variant}  t = {_fmt(cert.t)}",
        f"R_star = {_fmt(cert.R_star)}",
        f"N = {_fmt(cert.N)}",
        f"implied_floor = {_fmt(cert.implied_floor)}",
        f"admissible: {str(cert.admissible).lower()}",
    ]


def _cmd_sweep(args) -> _Outcome:
    _require(args, "m")
    m = growth.parse_growth_spec(args.m)
    k = growth.parse_growth_spec(args.k) if args.k else None
    eps = _default_eps(args, m)
    ts = _t_grid(args)
    witness.check_R_max(args.r_max)
    curve = witness.sharpness_curve(
        m, ts, eps, k=k, variant=args.variant, R_max=args.r_max,
        prescribed_C=args.prescribed_c,
    )
    rows = ["t,R_star,N,implied_floor,rate_comparison,admissible"]
    for t, cert in zip(curve.t_values, curve.certificates):
        rows.append(
            ",".join([
                _fmt(t), _fmt(cert.R_star), _fmt(cert.N), _fmt(cert.implied_floor),
                _fmt(cert.rate_comparison), "1" if cert.admissible else "0",
            ])
        )
    summary = {
        "m_spec": m.label,
        "k_spec": None if k is None else k.label,
        "variant": curve.variant,
        "epsilon": eps,
        "n_points": int(ts.size),
        "t_range": [float(ts[0]), float(ts[-1])],
        "band_ratio": curve.band_ratio if math.isfinite(curve.band_ratio) else None,
        "c_ref": curve.c_ref,
        "all_feasible": curve.all_feasible,
        "prescribed_all_admissible": curve.prescribed_all_admissible,
    }
    lines = [f"points: {ts.size}  band_ratio = {_fmt(curve.band_ratio)}",
             f"all_feasible: {str(curve.all_feasible).lower()}"]
    if curve.prescribed_all_admissible is not None:
        lines.append(f"prescribed_all_admissible: {str(curve.prescribed_all_admissible).lower()}")
    files = {"sharpness.csv": "\n".join(rows) + "\n", "sharpness.json": _json_text(summary)}
    return 0, files, lines


def _truncate_lambda_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    res = rng.uniform(0.05, 2.5, size=count)
    ims = rng.uniform(-30.0, 30.0, size=count)
    return res + 1j * ims


def _cmd_truncate(args) -> _Outcome:
    _require(args, "m")
    if args.n_lambda < 1:
        raise ConfigurationError(f"n-lambda must be at least 1, got {args.n_lambda}")
    m = growth.parse_growth_spec(args.m)
    kernel = specialfn.build_kernel(specialfn.build_strip_function(m.m0))
    # a modulation above the grid's sampling limit aliases the witness
    # samples the split is taken from
    r_limit = witness.sampling_limit(kernel)
    if args.r > r_limit:
        raise ConfigurationError(
            f"r = {args.r:g} exceeds the kernel grid's sampling limit "
            f"pi/step - 6/eps = {r_limit:.6g}")
    w = witness.modulated_translate(kernel, args.r, args.t)
    pair = truncate.split(w.samples)
    rng = np.random.default_rng(args.seed)
    plus = _truncate_lambda_seeds(rng, args.n_lambda)
    minus = -_truncate_lambda_seeds(rng, args.n_lambda)
    lams = np.concatenate([plus, minus])
    hp_plain = truncate.verify_halfplane_bounds(pair, lams, "plain")
    hp_deriv = truncate.verify_halfplane_bounds(pair, lams, "derivative")

    width = 1.0 / float(m(0.5))
    xs = np.linspace(-0.9 * width, -0.02, 5)
    ys = np.linspace(-0.5, 0.5, 5)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    agreement = truncate.verify_agreement(w, m, grid)

    ok = all(checks.check(name, value, *limit).ok for name, value, limit in (
        ("min_margin_plain", hp_plain.min_margin, checks.HALFPLANE_MARGIN_MIN),
        ("min_margin_derivative", hp_deriv.min_margin, checks.HALFPLANE_MARGIN_MIN),
        ("agreement_residual", agreement.residual, checks.AGREEMENT_RESIDUAL_MAX),
        ("cauchy_residual", agreement.cauchy_residual, checks.CAUCHY_RESIDUAL_MAX),
    ))
    report = {
        "m_spec": m.label,
        "R": args.r,
        "t": args.t,
        "seed": args.seed,
        "n_lambda_per_side": args.n_lambda,
        "parent_checksum": pair.parent_checksum,
        "min_margin_plain": hp_plain.min_margin,
        "min_margin_derivative": hp_deriv.min_margin,
        "agreement_residual": agreement.residual,
        "cauchy_residual": agreement.cauchy_residual,
        "ok": ok,
    }
    lines = [f"{key} = {_fmt(report[key])}" for key in (
        "min_margin_plain", "min_margin_derivative", "agreement_residual", "cauchy_residual")]
    return (0 if ok else 1), {"truncate_report.json": _json_text(report)}, lines + [
        f"verification: {'pass' if ok else 'FAIL'}"]


def _cmd_semigroup(args) -> _Outcome:
    _require(args, "m")
    m = growth.parse_growth_spec(args.m)
    ts = _t_grid(args)
    c = args.c if args.c is not None else growth.lower_rate_constant(m) or 1.0
    rp = growth.RateParams(c=c, C_choice=args.c_choice)
    # each kind reads its own flags; main refuses the other kind's
    if args.kind == "mult":
        freqs = semigroup.geometric_frequencies(
            20 if args.freq_count is None else args.freq_count,
            2.0 if args.freq_base is None else args.freq_base)
        report = semigroup.mult_decay_report(semigroup.mult_semigroup(m, freqs), ts)
    else:
        r_max = 1e6 if args.r_max is None else args.r_max
        witness.check_R_max(r_max)
        kernel = specialfn.build_kernel(specialfn.build_strip_function(m.m0))
        report = semigroup.shift_witness_lower(m, kernel, ts, _default_eps(args, m),
                                               R_max=r_max)
    report = semigroup.compare_rates(report, m, rp)
    base = f"semigroup_{args.kind}"
    csv_text, plt_text = emit_plot_script(report, base)
    files = {f"{base}.csv": csv_text, f"{base}.plt": plt_text, f"{base}.json": report.json_text()}
    return 0, files, [
        f"kind: {report.kind}  points: {ts.size}",
        f"measured_slope = {_fmt(report.slopes['measured'])}",
        f"d1 = {_fmt(report.constants['d1'])}  d2 = {_fmt(report.constants['d2'])}",
        f"non_decaying: {str(report.slopes['non_decaying']).lower()}",
        f"wrote {', '.join(files)}",
    ]


# ---------------------------------------------------------------------------
# verify: the deterministic property suite


def _cmd_verify(args) -> _Outcome:
    ctx = checks.Context.build(args.seed)
    results = [c for group in checks.GROUPS for c in group(ctx)]
    summary = {
        "seed": args.seed,
        "n_checks": len(results),
        "n_failed": sum(0 if c.ok else 1 for c in results),
        "ok": all(c.ok for c in results),
    }
    payload = {"summary": summary, "checks": [dataclasses.asdict(c) for c in results]}
    digest = hashlib.sha256(_json_text(payload).encode()).hexdigest()
    payload["report_digest"] = digest
    lines = [f"{'PASS' if c.ok else 'FAIL'} {c.name}: "
             f"{_fmt(c.measured)} {c.symbol} {_fmt(c.threshold)}" for c in results]
    lines.append(f"{summary['n_checks'] - summary['n_failed']}/{summary['n_checks']} checks passed")
    lines.append(f"report digest: {digest}")
    files = {"verify_report.json": _json_text(payload),
             "verify_report.txt": "\n".join(lines) + "\n"}
    return (0 if summary["ok"] else 1), files, lines


# ---------------------------------------------------------------------------
# parser


def _require(args, *names: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigurationError(f"missing required option(s): {', '.join(missing)} "
                                 f"(set on the command line or in a config file)")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigurationError (one line, exit 2), in its
    subparsers too.  Flags are not abbreviated: --m is no flag of specialfn,
    and _apply_config sees every explicit flag by its full name."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(message)


_COMMON = {
    "--m": dict(default=None, help="growth spec, e.g. poly:beta=2"),
    "--config": dict(default=None, help="key=value config file supplying defaults"),
    "--out": dict(default=".", help="output directory for artifacts"),
    "--seed": dict(type=int, default=0, help="seed for randomized sampling"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """--config, and those of the shared flags the command reads."""
    for flag in ("--config", *flags):
        p.add_argument(flag, **_COMMON[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tauberlab",
        description="decay-rate laboratory: rates, kernels, certificates, semigroup models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="rate values and right inverses at a time value")
    _add_common(p, "--m")
    p.add_argument("--k", default=None, help="second growth spec for the two-function rate")
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("invert", help="right inverse of the growth function")
    _add_common(p, "--m")
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("specialfn", help="build, verify, and serialize a strip kernel")
    _add_common(p, "--out")
    p.add_argument("--m0", type=float, default=1.0, help="growth value at the origin")
    p.set_defaults(func=_cmd_specialfn)

    p = sub.add_parser("witness", help="one optimized certificate as JSON")
    _add_common(p, "--m", "--out")
    p.add_argument("--k", default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--variant", choices=("plain", "derivative"), default="plain")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--r-max", type=float, default=1e6)
    p.add_argument("--prescribed-c", type=float, default=None,
                   help="explicit selection constant for the comparison record")
    p.add_argument("--with-kappa", action="store_true",
                   help="calibrate and attach the bound-chain constant")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sweep", help="certificate sweep over a time grid")
    _add_common(p, "--m", "--out")
    p.add_argument("--k", default=None)
    p.add_argument("--t-min", type=float, default=1e2)
    p.add_argument("--t-max", type=float, default=1e6)
    p.add_argument("--t-count", type=int, default=25)
    p.add_argument("--variant", choices=("plain", "derivative"), default="plain")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--r-max", type=float, default=1e6)
    p.add_argument("--prescribed-c", type=float, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("truncate", help="split a witness at zero and verify bounds")
    _add_common(p, "--m", "--out", "--seed")
    p.add_argument("--r", type=float, default=8.0, help="witness modulation frequency")
    p.add_argument("--t", type=float, default=2.0, help="witness translation")
    p.add_argument("--n-lambda", type=int, default=100, help="transform samples per half-plane")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("semigroup", help="decay report for a semigroup model")
    _add_common(p, "--m", "--out")
    p.add_argument("--kind", choices=("mult", "shift"), default="mult")
    p.add_argument("--t-min", type=float, default=1e2)
    p.add_argument("--t-max", type=float, default=1e6)
    p.add_argument("--t-count", type=int, default=25)
    p.add_argument("--freq-count", type=int, default=None, help="mult only (default 20)")
    p.add_argument("--freq-base", type=float, default=None, help="mult only (default 2)")
    p.add_argument("--eps", type=float, default=None, help="shift only (default pi M(0)/6)")
    p.add_argument("--r-max", type=float, default=None, help="shift only (default 1e6)")
    p.add_argument("--c", type=float, default=None, help="time constant in the rate curve")
    p.add_argument("--c-choice", type=float, default=1.0, help="growth-inverse curve constant")
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("verify", help="run the deterministic property suite")
    _add_common(p, "--out", "--seed")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built once per process: parsing only reads it
    (every default is immutable, and each call fills a new namespace)."""
    return build_parser()


# per semigroup --kind, the flags only the other kind reads
_OTHER_KINDS_FLAGS = {"mult": ("eps", "r_max"), "shift": ("freq_count", "freq_base")}


def _refuse_other_kinds_flags(args) -> None:
    """A semigroup flag that the chosen --kind never reads, given on the
    command line or in a config file, is a usage error."""
    if args.command != "semigroup":
        return
    given = [f"--{name.replace('_', '-')}" for name in _OTHER_KINDS_FLAGS[args.kind]
             if getattr(args, name) is not None]
    if given:
        raise ConfigurationError(f"--kind {args.kind} does not read {', '.join(given)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args, argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
            raise ConfigurationError(f"seed must be a non-negative integer, got {args.seed}")
        _refuse_other_kinds_flags(args)
        if hasattr(args, "out"):
            _check_out(args.out)
        code, files, lines = args.func(args)
        if files:
            _write_artifacts(args.out, files)
        for line in lines:
            print(line)
        sys.stdout.flush()  # a closed stdout fails here at the latest
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TauberlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        print("error: standard output is closed", file=sys.stderr)
        return 1
    except OSError as exc:  # an artifact that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


def entry_point() -> None:
    """The process's entry (the ``tauberlab`` script, ``python -m
    tauberlab.cli``): exit with main's code.  Output a closed stdout refused
    stays buffered and would fail again as the interpreter exits, so fd 1 is
    then pointed at devnull, as Python's documentation of SIGPIPE advises;
    main itself never touches fd 1."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
