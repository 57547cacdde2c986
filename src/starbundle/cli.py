"""The ``dq`` command-line driver.

Exit codes: 0 success, 2 expression error, 3 configuration error,
4 property-check failure, 5 polarization violation.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import EquivariantFunction
from .emit import emit_json, to_json
from .errors import (
    ConfigError,
    ParseError,
    PolarizationError,
    StarBundleError,
)
from .geometry import Chart, prequantum_wave, souriau_bracket
from .operators import Representation, extract_operator
from .parser import lower_expression
from .products import StarKind, bullet_product, prequantize, quantize, star_product
from .render import format_function, format_operator

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_CHECK = 4
EXIT_POLARIZATION = 5

# Largest --dim: driver construction and the series grow with it, and
# every subcommand stays well under a second at this size.
MAX_DIM = 64
# Largest --max-degree: the largest suite default.  Case sizes grow fast
# with it: `check --suite module` takes about 14 s at 6 and 30 s at 7.
MAX_DEGREE = 6


class RunConfig:
    """The flags of one subcommand.  A flag the subcommand does not take
    keeps its default here, which ``validate`` never refuses."""

    def __init__(self, dim: int = 1, chart_kind: str = "real", product: str | None = None,
                 rep: str | None = None, fmt: str = "text", seed: int = 0,
                 max_degree: int | None = None):
        self.dim = dim
        self.chart_kind = chart_kind
        self.product = product
        self.rep = rep
        self.fmt = fmt
        self.seed = seed
        self.max_degree = max_degree

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError("--dim must be at least 1")
        if self.dim > MAX_DIM:
            raise ConfigError(f"--dim must be at most {MAX_DIM}")
        if self.max_degree is not None and not 0 <= self.max_degree <= MAX_DEGREE:
            raise ConfigError(f"--max-degree must be between 0 and {MAX_DEGREE}")
        if self.chart_kind == "bargmann":
            if self.dim != 1:
                raise ConfigError("the bargmann chart is one-dimensional")
            if self.product in ("normal", "antinormal"):
                raise ConfigError(f"product {self.product!r} requires --chart real (use wick)")
            if self.rep in ("position", "momentum"):
                raise ConfigError(f"representation {self.rep!r} requires --chart real")
        else:
            if self.product == "wick":
                raise ConfigError("the wick product requires --chart bargmann")
            if self.rep == "bargmann":
                raise ConfigError("the bargmann representation requires --chart bargmann")

    def chart(self) -> Chart:
        return Chart.bargmann() if self.chart_kind == "bargmann" else Chart.real(self.dim)

    def representation(self) -> Representation:
        if self.rep is None:
            return Representation.default(self.chart(), self.product)
        return Representation.named(self.rep, self.chart())


def _config_from_args(args) -> RunConfig:
    config = RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FLAGS})
    config.validate()
    return config


def _lower(text: str, config: RunConfig, jet_vars=None) -> EquivariantFunction:
    return lower_expression(text, config.chart(), jet_vars)


def _render_function(f: EquivariantFunction, config: RunConfig) -> str:
    return emit_json(f) if config.fmt == "json" else format_function(f)


def _wave_from_flag(config: RunConfig, rep: Representation, psi_text: str | None):
    if psi_text in (None, "generic"):
        return rep.generic_wave()
    component = _lower(psi_text, config, jet_vars=rep.config_vars)
    return rep.wave(component)


def cmd_star(args) -> tuple[int, str]:
    config = _config_from_args(args)
    f = _lower(args.exprs[0], config)
    g = _lower(args.exprs[1], config)
    return EXIT_OK, _render_function(star_product(StarKind(config.product), f, g), config)


def cmd_bullet(args) -> tuple[int, str]:
    config = _config_from_args(args)
    rep = config.representation()
    f = _lower(args.exprs[0], config)
    h = _lower(args.exprs[1], config, jet_vars=rep.config_vars)
    return EXIT_OK, _render_function(bullet_product(StarKind(config.product), f, h), config)


def cmd_quantize(args) -> tuple[int, str]:
    config = _config_from_args(args)
    rep = config.representation()
    f = _lower(args.exprs[0], config)
    psi = _wave_from_flag(config, rep, args.psi)
    out = quantize(StarKind(config.product), f, psi, rep.polarization)
    return EXIT_OK, _render_function(out, config)


def cmd_prequantize(args) -> tuple[int, str]:
    config = _config_from_args(args)
    chart = config.chart()
    if chart.kind != "real":
        raise ConfigError("prequantize is defined on real charts")
    f = _lower(args.exprs[0], config)
    if args.psi in (None, "generic"):
        psi = prequantum_wave(chart)
    else:
        component = _lower(args.psi, config, jet_vars=chart.variables)
        psi = prequantum_wave(chart, component)
    return EXIT_OK, _render_function(prequantize(chart, f, psi), config)


def cmd_bracket(args) -> tuple[int, str]:
    config = _config_from_args(args)
    chart = config.chart()
    f = _lower(args.exprs[0], config, jet_vars=chart.variables)
    g = _lower(args.exprs[1], config, jet_vars=chart.variables)
    return EXIT_OK, _render_function(souriau_bracket(chart, f, g), config)


def cmd_extract(args) -> tuple[int, str]:
    config = _config_from_args(args)
    rep = config.representation()
    f = _lower(args.exprs[0], config)
    op = extract_operator(StarKind(config.product), f, rep)
    text = emit_json(op) if config.fmt == "json" else format_operator(op)
    return EXIT_OK, text


def cmd_check(args) -> tuple[int, str]:
    from . import checks  # the suites load only for this command

    config = _config_from_args(args)
    names = [s.strip() for s in args.suite.split(",")] if args.suite else ["all"]
    try:
        results = checks.run_suites(names, seed=config.seed, max_degree=config.max_degree)
    except KeyError as exc:
        raise ConfigError(
            f"unknown suite {exc.args[0]!r}; available: all, " + ", ".join(checks.SUITES)
        ) from None
    failures = [r for r in results if not r.ok]
    if config.fmt == "json":
        document = {
            "seed": config.seed,
            "results": [
                {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "passed": not failures,
        }
        return (EXIT_CHECK if failures else EXIT_OK), to_json(document)
    lines = [r.line() for r in results]
    if failures:
        lines.append(f"{len(failures)} of {len(results)} properties failed")
        return EXIT_CHECK, "\n".join(lines)
    lines.append(f"all {len(results)} properties passed")
    return EXIT_OK, "\n".join(lines)


# The argparse settings of every flag, by name; the dest of each flag
# that configures a run is a keyword of RunConfig.
_FLAGS = {
    "dim": dict(type=int, default=1, help="number of canonical pairs"),
    "chart": dict(choices=("real", "bargmann"), default="real", dest="chart_kind"),
    "product": dict(choices=("normal", "antinormal", "moyal", "wick"), default="normal"),
    "rep": dict(choices=("position", "momentum", "bargmann"), default=None),
    "format": dict(choices=("text", "json"), default="text", dest="fmt"),
    "seed": dict(type=int, default=0),
    "max-degree": dict(type=int, default=None),
    "psi": dict(default="generic", help="wave-function component: 'generic' or an expression"),
    "suite": dict(default="all", help="comma-separated suite names, or 'all'"),
}
_CONFIG_FLAGS = ("dim", "chart_kind", "product", "rep", "fmt", "seed", "max_degree")

# Each subcommand: its function, its help, its number of EXPR arguments and
# the flags it reads besides --format.  A flag it does not read is a usage error.
_COMMANDS = {
    "star": (cmd_star, "star product of two observables", 2, ("dim", "chart", "product")),
    "bullet": (cmd_bullet, "bullet product observable * function", 2,
               ("dim", "chart", "product", "rep")),
    "quantize": (cmd_quantize, "quantum operator applied to a wave", 1,
                 ("dim", "chart", "product", "rep", "psi")),
    "prequantize": (cmd_prequantize, "prequantum operator applied to a wave", 1,
                    ("dim", "chart", "psi")),
    "bracket": (cmd_bracket, "bundle bracket of two functions", 2, ("dim", "chart")),
    "extract": (cmd_extract, "extract a differential operator", 1,
                ("dim", "chart", "product", "rep")),
    "check": (cmd_check, "run seeded property-check suites", 0, ("suite", "seed", "max-degree")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dq",
        description="Exact star and bullet products, quantization and property checks "
                    "on prequantized flat phase spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, exprs, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "format"):
            p.add_argument("--" + flag, **_FLAGS[flag])
        if exprs:
            p.add_argument("exprs", nargs=exprs, metavar="EXPR")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, output = _COMMANDS[args.command][0](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PolarizationError as exc:
        print(f"polarization violation: {exc}", file=sys.stderr)
        return EXIT_POLARIZATION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StarBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if output:
        print(output)
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
