"""Command-line front end: plot-ready CSV or JSON for every analysis.

Four subcommands cover the analyses end to end:

* ``fairness``  scan of the fairness measures plus all optima,
* ``moments``   mean/variance of the region count by a chosen route,
* ``clt``       Rinott terms, threshold margin, and an empirical KS run,
* ``oracle``    geometric region counts checked against the formula.

Every subcommand takes ``--format csv|json``, ``--out PATH`` and
``--precision K``.  CSV uses '.' decimals, ',' separators, one header
row and LF line endings; JSON is a single object with "params",
"results" and "warnings" entries whose field names match the CSV
headers.  Output is byte-identical across runs for fixed inputs.
"""

from __future__ import annotations

import json
import math
import sys

import click

from maxdiv import clt as clt_mod
from maxdiv import fairness as fairness_mod
from maxdiv.geometry import area_profile, count_regions_geometric, max_regions, random_chord_set
from maxdiv.geometry import RetryBudgetError
from maxdiv.moments import CutModel, moments_asymptotic, moments_closed_form, moments_exact

FAIRNESS_HEADER = fairness_mod.FairnessReport._fields
MOMENTS_HEADER = (
    "n", "p", "dim", "method", "mean", "variance", "second_moment",
    "window_center", "window_scale",
)
CLT_HEADER = (
    "n", "p", "samples", "seed", "term1", "term2", "term3", "max_term",
    "margin", "in_clt_regime", "ks_distance", "mean", "sigma",
)
ORACLE_HEADER = ("n", "seed", "geometric", "formula", "result")


def _csv_text(value):
    """A non-float cell as the row template's "%s" should show it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else value


def _csv_template(kinds: tuple, precision: int) -> tuple[str, bool]:
    """The %-template for a row whose cells have these types.

    Floats take "%.Kf", which prints the same bytes as f"{v:.Kf}";
    every other cell takes "%s".  The flag says whether some cell is a
    bool or None and so must go through _csv_text first.
    """
    float_spec = f"%.{precision}f"
    template = ",".join(
        float_spec if issubclass(kind, float) else "%s" for kind in kinds
    )
    needs_text = any(issubclass(kind, bool) or kind is type(None) for kind in kinds)
    return template, needs_text


def _json_cell(value, precision: int):
    if isinstance(value, float):
        return round(value, precision)
    return value


def _render(header, rows, params, warnings, fmt, precision, summary=None) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        templates = {}
        for row in rows:
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = _csv_template(kinds, precision)
            spec, needs_text = template
            lines.append(spec % (tuple(map(_csv_text, row)) if needs_text else tuple(row)))
        return "\n".join(lines) + "\n"
    payload = {
        "params": {k: _json_cell(v, precision) for k, v in params.items()},
        "results": [
            {k: _json_cell(v, precision) for k, v in zip(header, row)}
            for row in rows
        ],
        "warnings": list(warnings),
    }
    if summary is not None:
        payload["summary"] = summary
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {out!r}: {exc}")


def _output_options(fn):
    fn = click.option(
        "--precision", type=click.IntRange(1, 17), default=10, show_default=True,
        help="Decimal digits for numeric output.",
    )(fn)
    fn = click.option(
        "--out", default="-", show_default=True,
        help="Output path, or - for standard output.",
    )(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
        show_default=True, help="Output format.",
    )(fn)
    return fn


@click.group()
def cli() -> None:
    """Maximal disk division: fairness scans, region-count moments,
    normality diagnostics, and a geometric counting oracle."""


def _optimum_entry(opt, precision: int) -> dict:
    profile = area_profile(opt.x_star)
    return {
        "x_star": round(opt.x_star, precision),
        "objective": round(opt.objective_value, precision),
        "at_boundary": opt.at_boundary,
        "alpha1": round(profile.triangle, precision),
        "alpha2": round(profile.circular_triangle, precision),
        "alpha3": round(profile.circular_trapezoid, precision),
    }


def _summary_lines(summary: dict, precision: int) -> list[str]:
    lines = []
    flat = [("sd_min", summary["sd_min"]), ("mad_global", summary["mad_global"])]
    flat += [("mad_local", entry) for entry in summary["mad_locals"]]
    flat.append(("maximin", summary["maximin"]))
    for name, entry in flat:
        parts = [f"{name}:"]
        for key in ("x_star", "objective", "at_boundary", "alpha1", "alpha2", "alpha3"):
            value = entry[key]
            if isinstance(value, bool):
                parts.append(f"{key}={'true' if value else 'false'}")
            else:
                parts.append(f"{key}={value:.{precision}f}")
        lines.append(" ".join(parts))
    return lines


@cli.command("fairness")
@click.option("--grid", type=click.IntRange(2), default=1000, show_default=True,
              help="Number of uniformly spaced arc lengths to tabulate.")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Optimizer tolerance on the arc length.")
@_output_options
def cmd_fairness(grid: int, tol: float, fmt: str, out: str, precision: int) -> None:
    """Tabulate the fairness measures and locate all optima.

    The table holds one row per grid point; the optimum summary goes to
    standard error for CSV output and into a "summary" entry for JSON.
    """
    if not 0.0 < tol < math.inf:
        raise click.ClickException(f"--tol must be positive and finite, got {tol}")
    rows = fairness_mod.scan(grid)
    try:
        sd_min = fairness_mod.minimize_sd(tol)
        mad_global, mad_locals = fairness_mod.minimize_mad(tol)
        maximin = fairness_mod.maximize_min_piece(tol)
    except (ValueError, fairness_mod.ConsistencyError) as exc:
        raise click.ClickException(str(exc))
    summary = {
        "sd_min": _optimum_entry(sd_min, precision),
        "mad_global": _optimum_entry(mad_global, precision),
        "mad_locals": [_optimum_entry(opt, precision) for opt in mad_locals],
        "maximin": _optimum_entry(maximin, precision),
    }
    params = {"grid": grid, "tol": tol, "precision": precision}
    text = _render(FAIRNESS_HEADER, rows, params, [], fmt, precision,
                   summary=summary if fmt == "json" else None)
    _write(text, out)
    if fmt == "csv":
        for line in _summary_lines(summary, precision):
            click.echo(line, err=True)


@cli.command("moments")
@click.option("--n", type=click.IntRange(1), required=True, help="Number of attempted cuts.")
@click.option("--p", type=click.FloatRange(0.0, 1.0), required=True,
              help="Probability each cut succeeds.")
@click.option("--dim", type=click.IntRange(1), default=2, show_default=True,
              help="Ambient dimension.")
@click.option("--method", type=click.Choice(["exact", "closed", "asymptotic"]),
              default="exact", show_default=True, help="Computation route.")
@_output_options
def cmd_moments(n: int, p: float, dim: int, method: str,
                fmt: str, out: str, precision: int) -> None:
    """Mean, variance and second moment of the region count."""
    route = {
        "exact": moments_exact,
        "closed": moments_closed_form,
        "asymptotic": moments_asymptotic,
    }[method]
    try:
        bundle = route(CutModel(n, p, dim))
    except ValueError as exc:  # a bad p, or a route that cannot take this model
        raise click.ClickException(str(exc))
    except OverflowError as exc:
        raise click.ClickException(f"--n {n} is too large for the {method} route: {exc}")
    window = math.sqrt(bundle.variance)
    row = (n, float(p), dim, bundle.method, bundle.mean, bundle.variance,
           bundle.second_moment, bundle.mean, window)
    params = {"n": n, "p": float(p), "dim": dim, "method": method, "precision": precision}
    _write(_render(MOMENTS_HEADER, [row], params, [], fmt, precision), out)


@cli.command("clt")
@click.option("--n", type=click.IntRange(2, clt_mod.MAX_CUTS), required=True,
              help="Number of attempted cuts.")
@click.option("--p", type=float, required=True,
              help="Probability each cut succeeds; must be strictly inside (0, 1).")
@click.option("--samples", type=click.IntRange(1), default=10**5, show_default=True,
              help="Monte Carlo sample count for the KS experiment.")
@click.option("--seed", type=int, default=1, show_default=True, help="Stream seed.")
@_output_options
def cmd_clt(n: int, p: float, samples: int, seed: int,
            fmt: str, out: str, precision: int) -> None:
    """Rinott terms, CLT threshold margin, and an empirical KS distance."""
    try:
        terms = clt_mod.rinott_terms(n, p)
        check = clt_mod.threshold_check(n, p)
        draws = clt_mod.sample_region_counts(n, p, samples, seed)
        normality = clt_mod.ks_distance(draws, n, p, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    row = (
        n, float(p), samples, seed,
        terms.term1, terms.term2, terms.term3, terms.max_term,
        check.margin, check.in_clt_regime,
        normality.ks_distance, normality.mean, normality.sigma,
    )
    params = {"n": n, "p": float(p), "samples": samples, "seed": seed,
              "precision": precision}
    _write(_render(CLT_HEADER, [row], params, [], fmt, precision), out)


@cli.command("oracle")
@click.option("--n", type=click.IntRange(1, 10), required=True,
              help="Chords per arrangement (at most 10).")
@click.option("--seeds", default="0,1,2,3,4", show_default=True,
              help="Comma-separated seeds, one arrangement each.")
@_output_options
def cmd_oracle(n: int, seeds: str, fmt: str, out: str, precision: int) -> None:
    """Geometric region counts for random arrangements vs the formula.

    Exits nonzero if any arrangement cannot be sampled or any count
    disagrees with the formula.
    """
    try:
        seed_list = [int(token) for token in seeds.split(",") if token.strip()]
    except ValueError:
        raise click.ClickException(f"--seeds must be comma-separated integers, got {seeds!r}")
    if not seed_list:
        raise click.ClickException("--seeds produced an empty list")
    expected = max_regions(n, 2)
    rows = []
    all_pass = True
    for seed in seed_list:
        try:
            counted = count_regions_geometric(random_chord_set(n, seed))
        except RetryBudgetError as exc:
            raise click.ClickException(str(exc))
        ok = counted == expected
        all_pass &= ok
        rows.append((n, seed, counted, expected, "pass" if ok else "fail"))
    params = {"n": n, "seeds": seed_list, "precision": precision}
    _write(_render(ORACLE_HEADER, rows, params, [], fmt, precision), out)
    if not all_pass:
        sys.exit(1)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
