"""CLI runtime configuration: providers, paths, sampling, pricing.

One YAML file wires the whole pipeline. Paths resolve relative to the
config file so a checked-in config works from any working directory.
Configured input paths must exist at load time; the output directory is
created on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .gateway import (
    HttpProvider,
    MockProvider,
    MockScript,
    Provider,
    ProviderConfig,
    SamplingParams,
    load_mock_script,
)
from .preprocess import LOAD_ERRORS, load_yaml
from .prompting import MAX_CHAIN_ATTEMPTS
from .retrieval import DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP, DEFAULT_TOP_K
from .simulator import Workload

DEFAULT_RATE_PER_TOKEN = 8.0e-7


class AppConfigError(Exception):
    """The runtime configuration is missing, unreadable, or inconsistent."""


@dataclass(frozen=True)
class ProviderSettings:
    kind: str = "mock"  # mock | http
    script_path: Path | None = None
    base_url: str = ""
    model: str = ""
    api_key_env: str = ""
    timeout_seconds: float = 30.0


@dataclass(frozen=True)
class RetrievalSettings:
    k: int = DEFAULT_TOP_K
    chunk_size: int = DEFAULT_CHUNK_SIZE
    overlap: int = DEFAULT_OVERLAP


@dataclass(frozen=True)
class AppConfig:
    provider: ProviderSettings = ProviderSettings()
    profile: str = "lads"
    max_chain_attempts: int = MAX_CHAIN_ATTEMPTS
    sampling: SamplingParams = SamplingParams()
    retrieval: RetrievalSettings = RetrievalSettings()
    dataset_path: Path | None = None
    docs_path: Path | None = None
    shots_path: Path | None = None
    cluster_path: Path | None = None
    system_profiles_path: Path | None = None
    output_dir: Path = Path("out")
    workloads: Mapping[str, Workload] = field(default_factory=dict)
    default_workload: Workload = Workload(serial_seconds=10.0, parallel_core_seconds=100.0)
    rate_per_token: float = DEFAULT_RATE_PER_TOKEN
    deploy_backend: str = "simulator"  # simulator | shell

    def workload_for(self, system: str) -> Workload:
        return self.workloads.get(system, self.default_workload)


def _resolve(base: Path, value, *, must_exist: bool = True, label: str = "") -> Path:
    path = Path(value)
    if not path.is_absolute():
        path = (base / path).resolve()
    if must_exist and not path.exists():
        raise AppConfigError(f"configured {label or 'path'} does not exist: {path}")
    return path


def _workload_from(raw: Mapping, label: str) -> Workload:
    try:
        return Workload(
            serial_seconds=float(raw.get("serial_seconds", 10.0)),
            parallel_core_seconds=float(raw.get("parallel_core_seconds", 100.0)),
        )
    except (TypeError, ValueError) as exc:
        raise AppConfigError(f"workload {label!r}: {exc}") from exc


def load_app_config(path: Path | str | None) -> AppConfig:
    """Parse and validate the runtime config; None gives the mock defaults."""
    if path is None:
        return AppConfig()
    path = Path(path)
    if not path.is_file():
        raise AppConfigError(f"config file not found: {path}")
    try:
        data = load_yaml(path.read_text(encoding="utf-8")) or {}
    except LOAD_ERRORS as exc:
        raise AppConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(data, Mapping):
        raise AppConfigError(f"config file {path} must be a YAML mapping")
    base = path.parent

    provider_raw = data.get("provider") or {}
    kind = str(provider_raw.get("kind", "mock")).lower()
    if kind not in ("mock", "http"):
        raise AppConfigError(f"provider kind must be mock or http, got {kind!r}")
    script_path = provider_raw.get("script")
    provider = ProviderSettings(
        kind=kind,
        script_path=_resolve(base, script_path, label="provider script")
        if script_path
        else None,
        base_url=str(provider_raw.get("base_url", "")),
        model=str(provider_raw.get("model", "")),
        api_key_env=str(provider_raw.get("api_key_env", "")),
        timeout_seconds=float(provider_raw.get("timeout_seconds", 30.0)),
    )
    if kind == "http" and not provider.base_url:
        raise AppConfigError("http provider needs a base_url")

    sampling_raw = data.get("sampling") or {}
    try:
        sampling = SamplingParams(
            temperature=float(sampling_raw.get("temperature", 0.0)),
            top_p=float(sampling_raw.get("top_p", 0.05)),
            max_tokens=int(sampling_raw.get("max_tokens", 2048)),
        )
    except (TypeError, ValueError) as exc:
        raise AppConfigError(f"sampling: {exc}") from exc

    retrieval_raw = data.get("retrieval") or {}
    retrieval = RetrievalSettings(
        k=int(retrieval_raw.get("k", DEFAULT_TOP_K)),
        chunk_size=int(retrieval_raw.get("chunk_size", DEFAULT_CHUNK_SIZE)),
        overlap=int(retrieval_raw.get("overlap", DEFAULT_OVERLAP)),
    )
    if retrieval.k < 1:
        raise AppConfigError(f"retrieval.k must be >= 1, got {retrieval.k}")

    paths_raw = data.get("paths") or {}
    resolved: dict[str, Path | None] = {}
    for key, label in (
        ("dataset", "dataset path"),
        ("docs", "docs path"),
        ("shots", "shots path"),
        ("cluster", "cluster model path"),
        ("system_profiles", "system profiles path"),
    ):
        value = paths_raw.get(key)
        resolved[key] = _resolve(base, value, label=label) if value else None
    output_dir = _resolve(
        base, paths_raw.get("output", "out"), must_exist=False, label="output dir"
    )

    workloads_raw = data.get("workloads") or {}
    workloads = {}
    default_workload = AppConfig().default_workload
    for system, raw in workloads_raw.items():
        if system == "default":
            default_workload = _workload_from(raw or {}, "default")
        else:
            workloads[str(system)] = _workload_from(raw or {}, str(system))

    cost_raw = data.get("cost") or {}
    rate = float(cost_raw.get("rate_per_token", DEFAULT_RATE_PER_TOKEN))
    if rate <= 0:
        raise AppConfigError(f"cost.rate_per_token must be > 0, got {rate}")

    deploy_raw = data.get("deploy") or {}
    backend = str(deploy_raw.get("backend", "simulator")).lower()
    if backend not in ("simulator", "shell"):
        raise AppConfigError(f"deploy backend must be simulator or shell, got {backend!r}")

    config = AppConfig(
        provider=provider,
        profile=str(data.get("profile", "lads")).lower(),
        max_chain_attempts=int(data.get("max_chain_attempts", MAX_CHAIN_ATTEMPTS)),
        sampling=sampling,
        retrieval=retrieval,
        dataset_path=resolved["dataset"],
        docs_path=resolved["docs"],
        shots_path=resolved["shots"],
        cluster_path=resolved["cluster"],
        system_profiles_path=resolved["system_profiles"],
        output_dir=output_dir,
        workloads=workloads,
        default_workload=default_workload,
        rate_per_token=rate,
        deploy_backend=backend,
    )
    _check_api_key(config)
    return config


def _check_api_key(config: AppConfig) -> None:
    # A missing key only matters when a real provider will be called.
    if config.provider.kind == "http" and config.provider.api_key_env:
        if not os.environ.get(config.provider.api_key_env):
            raise AppConfigError(
                f"environment variable {config.provider.api_key_env} is not set "
                "but the http provider requires it"
            )


def build_provider(config: AppConfig, extra_script: MockScript | None = None) -> Provider:
    """Instantiate the configured provider; mock scripts can be overlaid."""
    if config.provider.kind == "mock":
        script = MockScript()
        path = config.provider.script_path
        if path is not None:
            try:
                script = load_mock_script(path)
            except LOAD_ERRORS as exc:
                raise AppConfigError(f"provider script {path}: {exc}") from exc
        if extra_script is not None:
            script = script.merged_with(extra_script)
        return MockProvider(script)
    return HttpProvider(
        ProviderConfig(
            base_url=config.provider.base_url,
            model=config.provider.model,
            api_key_env=config.provider.api_key_env,
            timeout_seconds=config.provider.timeout_seconds,
        )
    )
