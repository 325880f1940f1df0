"""Command-line surface: covertsim run | replay | resources | list-scenarios.

Configs come from a JSON file and/or inline flags; flags override file
values. Exit codes: 0 on completion, 2 on config error (or an --out
directory whose summary.csv has other columns or that holds this seed's
report), 3 when --assert is passed and an acceptance threshold fails.
"""
from __future__ import annotations

import functools
import json
import sys

import click

from . import experiments as exp


def _load_config(config_path, scenario, seed, trials, params, adversary):
    data: dict = {}
    if config_path:
        with open(config_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise exp.ConfigError(f"config must be a JSON object, got {data!r}")
    if scenario:
        data["scenario"] = scenario
    if seed is not None:
        data["seed"] = seed
    if trials is not None:
        data["trials"] = trials
    if adversary:
        data["adversary"] = json.loads(adversary)
    if params:
        merged = data.get("params", {})
        if not isinstance(merged, dict):
            raise exp.ConfigError(f"params must be a JSON object, got {merged!r}")
        merged = dict(merged)
        for item in params:
            if "=" not in item:
                raise exp.ConfigError(f"--param expects key=value, got {item!r}")
            key, raw = item.split("=", 1)
            try:
                merged[key] = json.loads(raw)
            except json.JSONDecodeError:
                merged[key] = raw
        data["params"] = merged
    return exp.ExperimentConfig.from_dict(data)


def _config_options(fn):
    """Give a command the config options; it takes the validated config as
    its first argument instead, and a config problem exits 2."""

    @functools.wraps(fn)
    def command(config_path, scenario, seed, trials, params, adversary, **kwargs):
        try:
            cfg = _load_config(config_path, scenario, seed, trials, params, adversary)
        except (exp.ConfigError, json.JSONDecodeError, OSError) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        return fn(cfg, **kwargs)

    for option in (
        click.option("--config", "config_path", type=click.Path(exists=True),
                     default=None, help="JSON config file"),
        click.option("--scenario", default=None),
        click.option("--seed", type=int, default=None),
        click.option("--trials", type=int, default=None),
        click.option("--param", "params", multiple=True,
                     help="inline scenario parameter key=value (JSON values)"),
        click.option("--adversary", default=None,
                     help='adversary spec as JSON, e.g. {"kind": "depolarize", "p": 0.3}'),
    ):
        command = option(command)
    return command


@click.group()
def main():
    """Desk-scale covert verifiable quantum learning experiments."""


@main.command()
@_config_options
@click.option("--out", "out_dir", default=None, help="directory for report-seed<seed>.json / summary.csv")
@click.option("--assert", "do_assert", is_flag=True, default=False,
              help="exit 3 when a registered acceptance threshold fails")
def run(cfg, out_dir, do_assert):
    """Run a seeded Monte-Carlo experiment and emit reports."""
    try:
        report = exp.run_experiment(cfg, out_dir=out_dir)
    except exp.OutDirError as e:
        click.echo(f"output error: {e}", err=True)
        sys.exit(2)
    click.echo(json.dumps(
        {"scenario": report.scenario, "trials": report.trials,
         "aggregate": report.aggregate, "resources": report.resources},
        indent=2, default=float,
    ))
    if do_assert:
        ok, msg = exp.check_assertions(report)
        click.echo(("PASS: " if ok else "FAIL: ") + msg)
        if not ok:
            sys.exit(3)


@main.command()
@_config_options
@click.option("--trial", "trial_index", type=click.IntRange(min=0), required=True)
def replay(cfg, trial_index):
    """Re-run a single trial bit-exactly from (seed, trial index)."""
    record = exp.run_trial(cfg, trial_index)
    click.echo(json.dumps(record, indent=2, default=float, sort_keys=True))


@main.command()
@_config_options
def resources(cfg):
    """Print the paper-formula resource counts next to configured overrides."""
    table = exp.resource_table(cfg)
    width = max(len(k) for k in table)
    for k, v in table.items():
        click.echo(f"{k:<{width}}  {v}")


@main.command(name="list-scenarios")
def list_scenarios():
    """List each scenario with its description, one line per param (name,
    default as JSON, allowed values) and the adversary kinds it takes. Text
    that depends on the params is given at the defaults."""
    width = max(len(name) for name in exp.SCENARIOS)
    for name, sc in exp.SCENARIOS.items():
        click.echo(f"{name:<{width}}  {sc.description}")
        defaults, note = sc.defaults, " (at the defaults)"
        rows = [(key, json.dumps(param.default),
                 param.text(defaults) + (note if callable(param.allowed) else ""))
                for key, param in sc.params.items()]
        widths = [max(len(row[i]) for row in rows) for i in (0, 1)]
        for key, default, allowed in rows:
            click.echo(f"  {key:<{widths[0]}}  {default:<{widths[1]}}  {allowed}")
        kinds = sc.adversaries(defaults) if callable(sc.adversaries) else sc.adversaries
        click.echo(f"  adversaries: {', '.join(sorted(kinds)) or 'none'}"
                   f"{note if callable(sc.adversaries) else ''}")


if __name__ == "__main__":
    main()
