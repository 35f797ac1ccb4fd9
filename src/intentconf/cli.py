"""Command-line entry point for the whole pipeline.

Subcommands: generate a configuration from an intent, validate or deploy
an existing one, replay a benchmark case as a chain, run the accuracy
benchmark, measure configuration complexity, and aggregate transcripts
into reports. Every command is non-interactive; exit codes are 0 for
success, 1 for a domain failure (unresolved chain, failed validation or
deployment), and 2 for usage or configuration errors.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import glob as _glob
import json
import re
import sys
from pathlib import Path

import click

from . import chain as chain_mod
from . import harness as harness_mod
from . import prompting, retrieval, validation
from .appconfig import AppConfig, build_provider, load_app_config
from .preprocess import ConfigDocument, Fields, InputError, StructuralError, load_yaml_file
from .preprocess import parse_config, read_text_file, serialize_config
from .simulator import (
    GIB,
    ClusterModel,
    NodeSpec,
    ShellDeployer,
    SimulatedDeployer,
    load_cluster_model,
    load_system_profiles,
)

DEFAULT_CLUSTER = ClusterModel(nodes=(NodeSpec(cpu_millicores=4000, memory_bytes=16 * GIB),))


class _Main(click.Group):
    """The command group: bad input from any command exits 2 with one line."""

    def invoke(self, ctx: click.Context):
        # Bad input: a file, option or refusal the operator can fix (an
        # InputError names the file and key), or a path that cannot be read
        # or written. A provider error never gets here: run_chain records it
        # on the attempt. Anything else is a bug and exits 1 with its traceback.
        try:
            return super().invoke(ctx)
        except (InputError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "chain"


def _load_assertions(path: Path) -> tuple[validation.Assertion, ...]:
    """A YAML list of assertions, or a mapping that holds it under ``assertions``."""
    raw = load_yaml_file(path)
    fields = Fields(path, raw if isinstance(raw, dict) else {"assertions": raw})
    return harness_mod.read_assertions(fields)


def _read_config(path: Path) -> ConfigDocument:
    """The configuration in ``path``; a structural error is printed and exits 1."""
    try:
        return parse_config(read_text_file(path))
    except StructuralError as exc:
        click.echo(f"structural error: {exc}", err=True)
        sys.exit(1)


def _profile(config: AppConfig, name: str | None, attempts: int | None = None):
    """The named profile, or the configured one, with the configured sampling and budget."""
    profile = config.profile
    return prompting.OptimizationProfile.for_name(
        name or profile.name,
        sampling=profile.sampling,
        max_chain_attempts=profile.max_chain_attempts if attempts is None else attempts,
    )


def _deployer(config: AppConfig, backend: str | None, real_ok: bool, cluster: str | None):
    if (backend or config.deploy_backend) == "shell":
        if not real_ok:
            raise InputError(
                "shell backend targets a real cluster; pass "
                "--i-understand-this-applies-to-a-real-cluster to confirm"
            )
        return ShellDeployer(opt_in=True)
    profiles = load_system_profiles(config.system_profiles_path)
    path = Path(cluster) if cluster else config.cluster_path
    model = DEFAULT_CLUSTER if path is None else load_cluster_model(path)
    return SimulatedDeployer(model=model, profiles=profiles)


def _build_index(config: AppConfig) -> retrieval.RetrievalIndex | None:
    if config.docs_path is None:
        return None
    docs = retrieval.load_corpus(config.docs_path)
    if not docs:
        return None
    return retrieval.build_index(
        docs,
        chunk_size=config.retrieval.chunk_size,
        overlap=config.retrieval.overlap,
    )


def _shots_for(config: AppConfig, profile: prompting.OptimizationProfile, system: str):
    if not profile.use_few_shot:
        return ()
    if config.shots_path is None:
        raise InputError(f"profile {profile.name!r} needs few-shot examples; set paths.shots")
    shots = prompting.load_shot_library(config.shots_path, system)
    if not shots:
        raise InputError(f"no few-shot examples found for system {system!r}")
    return shots


def _run_chain(
    config: AppConfig,
    profile: prompting.OptimizationProfile,
    request: prompting.GenerationRequest,
    case_id: str,
    provider,
    deployer,
    assertions,
    transcript: Path | None,
) -> chain_mod.ChainOutcome:
    """Run the chain, write its transcript (default <output>/<case>.jsonl), print each attempt."""
    deps = chain_mod.ChainDeps(
        provider=provider,
        shots=_shots_for(config, profile, request.system),
        index=_build_index(config) if profile.use_retrieval else None,
        retrieval_k=config.retrieval.k,
        assertions=assertions,
        deployer=deployer,
        workload=config.workload_for(request.system) if deployer is not None else None,
        case_id=case_id,
    )
    outcome = chain_mod.run_chain(request, profile, deps)
    transcript = transcript or config.output_dir / f"{_slug(case_id)}.jsonl"
    transcript.parent.mkdir(parents=True, exist_ok=True)
    chain_mod.write_transcript(transcript, outcome, case_id=case_id, system=request.system)
    for record in outcome.attempt_history:
        if record.provider_error:
            click.echo(f"attempt {record.attempt}: provider error: {record.provider_error}")
        elif record.feedback is None:
            passed = ", ".join(s.value for s in record.stages_passed)
            click.echo(f"attempt {record.attempt}: passed {passed}")
        else:
            click.echo(f"attempt {record.attempt}: {record.feedback.summary}")
    click.echo(f"transcript: {transcript}")
    return outcome


@click.group(cls=_Main)
@click.option(
    "--config",
    "-c",
    "config_path",
    type=click.Path(path_type=Path),
    envvar="INTENTCONF_CONFIG",
    default=None,
    help="Runtime config YAML; defaults to built-in mock settings.",
)
@click.pass_context
def main(ctx: click.Context, config_path: Path | None):
    """Generate, validate, deploy, and evaluate cluster configurations."""
    ctx.obj = load_app_config(config_path)


@main.command()
@click.option("--system", required=True, help="Target system id (e.g. dask, redis, ray).")
@click.option("--intent", required=True, help="Requirement the configuration must satisfy.")
@click.option("--prompt", default="", help="Task wording, when it differs from the intent.")
@click.option("--profile", "profile_name", default=None, help="Optimization profile.")
@click.option("--output", "-o", type=click.Path(path_type=Path), default=None)
@click.option(
    "--assertions",
    "assertions_path",
    type=click.Path(path_type=Path, exists=True),
    default=None,
    help="YAML list of static checks the result must pass.",
)
@click.option("--scenario", default=None, help="Mock scenario id for scripted providers.")
@click.option("--transcript", type=click.Path(path_type=Path), default=None)
@click.option("--max-attempts", type=int, default=None)
@click.option("--no-deploy", is_flag=True, help="Stop after static checks.")
@click.option("--deploy-backend", type=click.Choice(["simulator", "shell"]), default=None)
@click.option("--i-understand-this-applies-to-a-real-cluster", "real_ok", is_flag=True)
@click.option("--cluster", default=None, help="Cluster model YAML (simulator backend).")
@click.pass_obj
def generate(
    config: AppConfig,
    system: str,
    intent: str,
    prompt: str,
    profile_name: str | None,
    output: Path | None,
    assertions_path: Path | None,
    scenario: str | None,
    transcript: Path | None,
    max_attempts: int | None,
    no_deploy: bool,
    deploy_backend: str | None,
    real_ok: bool,
    cluster: str | None,
):
    """Turn an intent into a validated, deployed configuration."""
    profile = _profile(config, profile_name, max_attempts)
    if not system or not intent:
        raise InputError("--system and --intent must be non-empty")
    scenario = scenario or f"cli:{system}"
    assertions = _load_assertions(assertions_path) if assertions_path else ()
    deployer = None if no_deploy else _deployer(config, deploy_backend, real_ok, cluster)
    prompt = prompt or f"Write the {system} configuration that satisfies the intent."
    request = prompting.GenerationRequest(system=system, intent=intent, prompt=prompt)
    provider = build_provider(config)
    outcome = _run_chain(
        config, profile, request, scenario, provider, deployer, assertions, transcript
    )
    if not outcome.resolved:
        click.echo("unresolved: attempt budget exhausted", err=True)
        sys.exit(1)
    output = output or config.output_dir / f"{_slug(scenario)}.yaml"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(serialize_config(outcome.final_config), encoding="utf-8")
    click.echo(f"config: {output}")
    if outcome.benchmark is not None:
        click.echo(
            f"benchmark: {outcome.benchmark.completion_seconds:.3f} s, "
            f"$ {outcome.benchmark.cost_dollars:.7f}"
        )


@main.command()
@click.argument("config_file", type=click.Path(path_type=Path, exists=True))
@click.option(
    "--assertions",
    "assertions_path",
    type=click.Path(path_type=Path, exists=True),
    required=True,
)
@click.option("--case-id", default="", help="Label used in the report output.")
def validate(config_file: Path, assertions_path: Path, case_id: str):
    """Statically check an existing configuration file."""
    assertions = _load_assertions(assertions_path)
    document = _read_config(config_file)
    report = validation.evaluate(document, assertions)
    for result in report.results:
        mark = "PASS" if result.passed else "FAIL"
        detail = f" ({result.reason})" if result.reason else ""
        click.echo(f"{mark} {result.assertion.kind.value} {result.assertion.path}{detail}")
    click.echo(f"{'passed' if report.passed else 'failed'}: {case_id or config_file.name}")
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("config_file", type=click.Path(path_type=Path, exists=True))
@click.option("--system", required=True)
@click.option("--deploy-backend", type=click.Choice(["simulator", "shell"]), default=None)
@click.option("--i-understand-this-applies-to-a-real-cluster", "real_ok", is_flag=True)
@click.option("--cluster", default=None)
@click.pass_obj
def deploy(
    config: AppConfig,
    config_file: Path,
    system: str,
    deploy_backend: str | None,
    real_ok: bool,
    cluster: str | None,
):
    """Deploy an existing configuration file to the selected backend."""
    document = _read_config(config_file)
    deployer = _deployer(config, deploy_backend, real_ok, cluster)
    outcome = deployer.deploy(document, system)
    if outcome.logs:
        click.echo(outcome.logs)
    if outcome.success:
        click.echo("deployed")
    else:
        click.echo(f"deployment failed: {outcome.failure_reason}", err=True)
        sys.exit(1)


@main.command("chain")
@click.option("--case", "case_id", required=True, help="Benchmark case id to replay.")
@click.option("--dataset", type=click.Path(path_type=Path), default=None)
@click.option("--profile", "profile_name", default=None)
@click.option("--no-deploy", is_flag=True)
@click.option("--transcript", type=click.Path(path_type=Path), default=None)
@click.pass_obj
def chain_cmd(
    config: AppConfig,
    case_id: str,
    dataset: Path | None,
    profile_name: str | None,
    no_deploy: bool,
    transcript: Path | None,
):
    """Replay one benchmark case through the full loop."""
    dataset = dataset or config.dataset_path
    if dataset is None:
        raise InputError("no dataset configured; pass --dataset or set paths.dataset")
    cases = {case.id: case for case in harness_mod.load_dataset(dataset)}
    if case_id not in cases:
        raise InputError(f"case {case_id!r} not found under {dataset}")
    case = cases[case_id]
    profile = _profile(config, profile_name)
    provider = build_provider(config, extra_script=harness_mod.load_mock_scripts(dataset))
    if not no_deploy and config.deploy_backend == "shell":
        # chain has no opt-in flag for a real cluster; name what it accepts.
        raise InputError(
            "shell backend targets a real cluster, and chain does not deploy to one; "
            "pass --no-deploy or set deploy.backend: simulator"
        )
    deployer = None if no_deploy else _deployer(config, None, False, None)
    request = prompting.GenerationRequest(
        system=case.system, intent=case.intent, prompt=case.prompt
    )
    outcome = _run_chain(
        config, profile, request, case.id, provider, deployer, case.assertions, transcript
    )
    sys.exit(0 if outcome.resolved else 1)


@main.command()
@click.option("--dataset", type=click.Path(path_type=Path), default=None)
@click.option(
    "--profiles",
    default="lads",
    help="Comma-separated profile names to benchmark (columns of the table).",
)
@click.option("--workers", type=int, default=1)
@click.pass_obj
def bench(config: AppConfig, dataset: Path | None, profiles: str, workers: int):
    """Run the static-validation benchmark and emit the accuracy table."""
    dataset = dataset or config.dataset_path
    if dataset is None:
        raise InputError("no dataset configured; pass --dataset or set paths.dataset")
    cases = harness_mod.load_dataset(dataset)
    if not cases:
        raise InputError(f"no cases found under {dataset}")
    profile_list = [_profile(config, name.strip()) for name in profiles.split(",") if name.strip()]
    if not profile_list:
        raise InputError("no profiles requested")
    provider = build_provider(config, extra_script=harness_mod.load_mock_scripts(dataset))
    few_shot = next((p for p in profile_list if p.use_few_shot), None)
    shots_by_system = {}
    if few_shot is not None:
        for system in sorted({case.system for case in cases}):
            shots_by_system[system] = _shots_for(config, few_shot, system)
    deps = harness_mod.HarnessDeps(
        provider=provider,
        shots_by_system=shots_by_system,
        index=_build_index(config) if any(p.use_retrieval for p in profile_list) else None,
        retrieval_k=config.retrieval.k,
    )
    table = harness_mod.run_static_eval(cases, profile_list, deps, workers=workers)
    rendered = harness_mod.render_accuracy_table(table)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    (config.output_dir / "accuracy.txt").write_text(rendered, encoding="utf-8")
    meta = {"generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat()}
    (config.output_dir / "accuracy.json").write_text(
        harness_mod.accuracy_table_to_json(table, meta=meta), encoding="utf-8"
    )
    click.echo(rendered, nl=False)
    click.echo(f"reports: {config.output_dir / 'accuracy.json'}")


@main.command()
@click.argument("patterns", nargs=-1, required=True)
def complexity(patterns: tuple[str, ...]):
    """Summarize structural complexity of configuration files."""
    paths: list[Path] = []
    for pattern in patterns:
        paths.extend(Path(p) for p in sorted(_glob.glob(pattern, recursive=True)))
    if not paths:
        raise InputError(f"no files match {', '.join(patterns)}")
    documents = []
    for path in paths:
        text = read_text_file(path)
        try:
            documents.append(parse_config(text))
        except StructuralError as exc:
            raise InputError(f"{path}: {exc}") from exc
    summary = validation.aggregate_complexity(documents)
    click.echo(f"Configs    {summary.count}")
    click.echo(f"Max Keys   {summary.max_key_count}")
    click.echo(f"Max Depth  {summary.max_depth}")
    click.echo(f"Avg Keys   {summary.mean_key_count:.2f} ± {summary.std_key_count:.2f}")
    click.echo(f"Avg Depth  {summary.mean_depth:.2f} ± {summary.std_depth:.2f}")


@main.command()
@click.option("--transcripts", required=True, help="Glob of chain transcript JSONL files.")
@click.option("--rate", type=float, default=None, help="Dollars per token.")
@click.pass_obj
def report(config: AppConfig, transcripts: str, rate: float | None):
    """Aggregate transcripts: resolution curve, cost rows, latency stats."""
    files = [Path(p) for p in sorted(_glob.glob(transcripts, recursive=True))]
    if not files:
        raise InputError(f"no transcripts match {transcripts!r}")
    stats = [s for s in map(chain_mod.read_transcript, files) if s is not None]
    if not stats:
        raise InputError("matched transcripts are all empty")
    cost_rows = harness_mod.cost_report(stats, config.rate_per_token if rate is None else rate)
    latency_rows = harness_mod.latency_report(stats)
    curve = harness_mod.resolution_curve(stats)
    click.echo(f"chains: {len(stats)}")
    for k in sorted(curve):
        click.echo(f"resolved by attempt {k}: {curve[k]:.1f}%")
    click.echo("")
    click.echo("max completion tokens and cost per configuration (completion tokens priced):")
    for row in cost_rows:
        click.echo(f"  {row.system}  {row.max_completion_tokens}  $ {row.cost_dollars}")
    # Every transcript entry reads a latency (0.0 when unset), so every system has a row.
    click.echo("")
    click.echo("latency per attempt (mean ± std, seconds):")
    for row in latency_rows:
        click.echo(
            f"  {row.system}  {row.mean_seconds:.3f} ± {row.std_seconds:.3f} ({row.calls} calls)"
        )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "chains": len(stats),
        "resolution_curve": {str(k): v for k, v in curve.items()},
        "cost": [dataclasses.asdict(row) for row in cost_rows],
        "latency": [dataclasses.asdict(row) for row in latency_rows],
        "meta": {"generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat()},
    }
    out = config.output_dir / "report.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    click.echo(f"report: {out}")


if __name__ == "__main__":
    main()
