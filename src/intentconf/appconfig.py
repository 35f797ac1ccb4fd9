"""CLI runtime configuration: providers, paths, sampling, pricing.

One YAML file wires the whole pipeline. Paths resolve relative to the
config file so a checked-in config works from any working directory.
Configured input paths must exist at load time; the output directory is
created on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .gateway import (
    HttpProvider,
    MockProvider,
    MockScript,
    Provider,
    ProviderConfig,
    load_mock_script,
)
from .preprocess import Fields, quote
from .prompting import OptimizationProfile
from .retrieval import DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP, DEFAULT_TOP_K
from .simulator import Workload


@dataclass(frozen=True)
class ProviderSettings:
    kind: str = "mock"  # mock | http
    script_path: Path | None = None
    http: ProviderConfig = ProviderConfig(base_url="", model="")


@dataclass(frozen=True)
class RetrievalSettings:
    k: int = DEFAULT_TOP_K
    chunk_size: int = DEFAULT_CHUNK_SIZE
    overlap: int = DEFAULT_OVERLAP


@dataclass(frozen=True)
class AppConfig:
    provider: ProviderSettings = ProviderSettings()
    profile: OptimizationProfile = OptimizationProfile("lads")
    retrieval: RetrievalSettings = RetrievalSettings()
    dataset_path: Path | None = None
    docs_path: Path | None = None
    shots_path: Path | None = None
    cluster_path: Path | None = None
    system_profiles_path: Path | None = None
    output_dir: Path = Path("out")
    workloads: Mapping[str, Workload] = field(default_factory=dict)
    default_workload: Workload = Workload(serial_seconds=10.0, parallel_core_seconds=100.0)
    rate_per_token: float = 8.0e-7
    deploy_backend: str = "simulator"  # simulator | shell

    def workload_for(self, system: str) -> Workload:
        return self.workloads.get(system, self.default_workload)


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else (base / path).resolve()


def _input_path(section: Fields, key: str) -> Path | None:
    """The path at ``key``, resolved against the file's directory; it must exist."""
    value = section.get(key, "")
    if not value:
        return None
    path = _resolve(section.file.parent, value)
    if not path.exists():
        raise section.fail(f"does not exist: {path}", key)
    return path


def load_app_config(path: Path | str | None) -> AppConfig:
    """Parse and validate the runtime config; None gives the mock defaults."""
    defaults = AppConfig()
    if path is None:
        return defaults
    path = Path(path)
    data = Fields.load(path)

    provider = data.section("provider")
    kind = provider.get("kind", defaults.provider.kind).lower()
    if kind not in ("mock", "http"):
        raise provider.fail(f"must be mock or http, got {quote(kind)}", "kind")
    http = provider.fields_of(defaults.provider.http)
    if kind == "http" and not http.base_url:
        raise provider.fail("is required by the http provider", "base_url")
    # A missing key only matters when a real provider will be called.
    if kind == "http" and http.api_key_env and not os.environ.get(http.api_key_env):
        raise provider.fail(
            f"names {http.api_key_env}, which is not set in the environment", "api_key_env"
        )

    retrieval = data.section("retrieval").fields_of(defaults.retrieval)
    if retrieval.k < 1:
        raise data.fail(f"must be >= 1, got {retrieval.k}", "retrieval", "k")
    if not 0 <= retrieval.overlap < retrieval.chunk_size:
        raise data.fail(
            "must satisfy 0 <= overlap < chunk_size, got overlap "
            f"{retrieval.overlap} and chunk_size {retrieval.chunk_size}", "retrieval", "overlap"
        )

    by_system = data.section("workloads")
    workloads = {
        str(system): by_system.section(system).fields_of(defaults.default_workload)
        for system in by_system.raw
    }
    default_workload = workloads.pop("default", defaults.default_workload)

    profile = data.build(
        OptimizationProfile.for_name,
        data.get("profile", defaults.profile.name),
        data.section("sampling").fields_of(defaults.profile.sampling),
        data.get("max_chain_attempts", defaults.profile.max_chain_attempts),
    )

    rate = data.section("cost").get("rate_per_token", defaults.rate_per_token)
    if not rate > 0:
        raise data.fail(f"must be > 0, got {rate}", "cost", "rate_per_token")

    backend = data.section("deploy").get("backend", defaults.deploy_backend).lower()
    if backend not in ("simulator", "shell"):
        raise data.fail(f"must be simulator or shell, got {quote(backend)}", "deploy", "backend")

    paths = data.section("paths")
    config = AppConfig(
        provider=ProviderSettings(kind, _input_path(provider, "script"), http),
        profile=profile,
        retrieval=retrieval,
        dataset_path=_input_path(paths, "dataset"),
        docs_path=_input_path(paths, "docs"),
        shots_path=_input_path(paths, "shots"),
        cluster_path=_input_path(paths, "cluster"),
        system_profiles_path=_input_path(paths, "system_profiles"),
        output_dir=_resolve(path.parent, paths.get("output", str(defaults.output_dir))),
        workloads=workloads,
        default_workload=default_workload,
        rate_per_token=rate,
        deploy_backend=backend,
    )
    return config


def build_provider(config: AppConfig, extra_script: MockScript | None = None) -> Provider:
    """Instantiate the configured provider; ``extra_script``'s replies and
    scenario defaults win over the configured mock script's."""
    if config.provider.kind == "http":
        return HttpProvider(config.provider.http)
    path = config.provider.script_path
    script = load_mock_script(path) if path is not None else MockScript()
    if extra_script is not None:
        script = replace(
            script,
            entries={**script.entries, **extra_script.entries},
            scenario_defaults={**script.scenario_defaults, **extra_script.scenario_defaults},
        )
    return MockProvider(script)
