"""End-to-end command-line behaviour through click's test runner."""

import json
import re

import pytest
import yaml
from click.testing import CliRunner

import intentconf.chain as chain_mod
import intentconf.cli as cli_mod
from intentconf import prompting
from intentconf.cli import main
from intentconf.gateway import ProviderError
from intentconf.preprocess import parse_config
from intentconf.simulator import ResourceSpec, load_cluster_model
from test_simulator import oracle_apply

GOOD = (
    "worker:\n  replicas: 2\n  resources:\n    limits:\n"
    "      cpu: 500m\n      memory: 512Mi"
)
HUNGRY = GOOD.replace("512Mi", "64Gi")
PROSE = "I cannot produce a configuration for that."
CHECKS = [{"path": "worker/replicas", "kind": "Compare", "op": ">=", "expected": 2}]
SHOT = {"prompt": "p", "intent": "i", "correct_output": GOOD, "incorrect_output": HUNGRY,
        "defect_note": "too much memory"}
ALIGNED = "VERDICT: ALIGNED"


def alias_chain_lines(levels, root="[1, 2]"):
    """YAML lines whose last anchor, b<levels - 1>, names 2**(levels - 1) copies of ``root``."""
    lines = [f"a0: &b0 {root}"] + [f"a{n}: &b{n} [*b{n - 1}, *b{n - 1}]" for n in range(1, levels)]
    return "".join(line + "\n" for line in lines)


@pytest.fixture
def runner():
    return CliRunner()


def combined(result):
    err = getattr(result, "stderr", "") or ""
    return result.output + err


def write_yaml(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return path


def make_workspace(tmp_path, *, scenarios=None, dataset=None, profile="ip"):
    """Lay out an app config, a provider script, and optional dataset files."""
    write_yaml(
        tmp_path / "mock.yaml",
        {"default": PROSE, "scenarios": scenarios or {}},
    )
    app = {
        "provider": {"kind": "mock", "script": "mock.yaml"},
        "profile": profile,
        "paths": {"output": "out"},
    }
    if dataset is not None:
        for case_id, spec in dataset.items():
            level = spec.get("level", 1)
            system = spec.get("system", "dask")
            write_yaml(
                tmp_path / "dataset" / system / f"level{level}" / f"{case_id}.yaml",
                {
                    "id": case_id,
                    "system": system,
                    "level": level,
                    "prompt": "configure the cluster",
                    "intent": spec.get("intent", "at least two workers"),
                    "assertions": spec.get("assertions", CHECKS),
                },
            )
            if "mock" in spec:
                write_yaml(
                    tmp_path / "dataset" / system / f"level{level}" / f"{case_id}.mock.yaml",
                    spec["mock"],
                )
        app["paths"]["dataset"] = "dataset"
    write_yaml(tmp_path / "checks.yaml", CHECKS)
    return write_yaml(tmp_path / "app.yaml", app)


def with_shots_and_docs(tmp_path, app, docs=True):
    """Point ``app`` at a one-shot library for dask and, if ``docs``, a one-file docs corpus."""
    write_yaml(tmp_path / "shots" / "dask" / "one.yaml", SHOT)
    config = yaml.safe_load(app.read_text(encoding="utf-8"))
    config["paths"]["shots"] = "shots"
    if docs:
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "guide.md").write_text(
            "Dask workers take their memory limit from the worker resources.", encoding="utf-8"
        )
        config["paths"]["docs"] = "docs"
    write_yaml(app, config)


class TestGenerate:
    def test_repairs_then_writes_config_and_benchmark(self, tmp_path, runner):
        app = make_workspace(
            tmp_path, scenarios={"demo": {"replies": [HUNGRY, GOOD], "latency": 0.5}}
        )
        result = runner.invoke(
            main,
            [
                "-c", str(app), "generate",
                "--system", "dask",
                "--intent", "two workers with half a gig each",
                "--scenario", "demo",
                "--assertions", str(tmp_path / "checks.yaml"),
            ],
        )
        assert result.exit_code == 0, combined(result)
        assert "attempt 1: Deployment failed" in result.output
        assert "insufficient memory" in result.output
        assert "attempt 2: passed" in result.output
        assert "benchmark: 110.000 s" in result.output
        written = parse_config((tmp_path / "out" / "demo.yaml").read_text())
        assert written.root["worker"]["replicas"] == 2
        assert (tmp_path / "out" / "demo.jsonl").exists()

    def test_unresolved_chain_exits_one(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "x",
             "--scenario", "hopeless"],
        )
        assert result.exit_code == 1
        assert "unresolved" in combined(result)

    def test_no_deploy_skips_benchmark(self, tmp_path, runner):
        app = make_workspace(tmp_path, scenarios={"demo": {"replies": [GOOD]}})
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "x",
             "--scenario", "demo", "--no-deploy"],
        )
        assert result.exit_code == 0
        assert "benchmark:" not in result.output

    def test_unknown_profile_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "x",
             "--profile", "zero-shot-plus"],
        )
        assert result.exit_code == 2
        assert "error:" in combined(result)

    @pytest.mark.parametrize(
        "setting, flag, problem",
        [
            ({"profile": "bogus"}, ["--profile", "bogus"],
             "profile must be one of ip, cot, rag, fsl, lads, got 'bogus'"),
            ({"max_chain_attempts": 101}, ["--max-attempts", "101"],
             "max_chain_attempts must be between 1 and 100, got 101"),
        ],
        ids=["profile", "attempts"],
    )
    def test_profile_errors_read_alike_from_file_and_flag(
        self, tmp_path, runner, setting, flag, problem
    ):
        """app.yaml and the command line reach one profile check, so they
        give one message; the file's names the file first."""
        app = make_workspace(tmp_path)
        args = ["generate", "--system", "dask", "--intent", "x", "--no-deploy"]
        result = runner.invoke(main, ["-c", str(app), *args, *flag])
        assert (result.exit_code, result.output) == (2, f"error: {problem}\n"), combined(result)
        write_yaml(app, {**yaml.safe_load(app.read_text(encoding="utf-8")), **setting})
        result = runner.invoke(main, ["-c", str(app), *args])
        assert (result.exit_code, result.output) == (2, f"error: {app}: {problem}\n")

    @pytest.mark.parametrize("docs", [True, False], ids=["docs", "no paths.docs"])
    def test_lads_prompt_holds_context_examples_and_reasoning(self, tmp_path, runner, docs):
        scenarios = {"demo": {"replies": [GOOD]}, "demo#verify": {"default": ALIGNED}}
        app = make_workspace(tmp_path, scenarios=scenarios, profile="lads")
        with_shots_and_docs(tmp_path, app, docs=docs)
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "dask workers",
             "--scenario", "demo", "--no-deploy"],
        )
        assert result.exit_code == 0, combined(result)
        first = json.loads((tmp_path / "out" / "demo.jsonl").read_text().splitlines()[0])
        for part in ("## Examples", prompting.COT_SUFFIX):
            assert part in first["prompt"], part
        for part in ("## Context", "[doc guide.md part 0]"):
            assert (part in first["prompt"]) is docs, part

    @pytest.mark.parametrize(
        "shots, problem",
        [
            (None, "profile 'lads' needs few-shot examples; set paths.shots"),
            ("shots", "no few-shot examples found for system 'dask'"),
        ],
        ids=["no paths.shots", "no directory for the system"],
    )
    def test_few_shot_profile_without_examples_is_refused(self, tmp_path, runner, shots, problem):
        app = make_workspace(tmp_path, profile="lads")
        if shots is not None:
            write_yaml(tmp_path / shots / "spark" / "one.yaml", SHOT)
            config = yaml.safe_load(app.read_text(encoding="utf-8"))
            config["paths"]["shots"] = shots
            write_yaml(app, config)
        result = runner.invoke(
            main, ["-c", str(app), "generate", "--system", "dask", "--intent", "x", "--no-deploy"]
        )
        assert (result.exit_code, result.output) == (2, f"error: {problem}\n")

    def test_alias_chain_in_app_config_is_one_short_line(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        text = app.read_text(encoding="utf-8") + alias_chain_lines(20)
        app.write_text(text + "max_chain_attempts: *b19\n", encoding="utf-8")
        result = runner.invoke(
            main, ["-c", str(app), "generate", "--system", "dask", "--intent", "x", "--no-deploy"]
        )
        # The aliases copy past the budget: the file does not load.
        assert result.exit_code == 2, combined(result)
        [line] = result.output.splitlines()
        assert line.startswith(f"error: {app}: not valid YAML: aliases expand past ")
        assert len(line) <= len(str(app)) + 100, line[:300]

    def test_value_error_inside_the_chain_is_a_bug(self, tmp_path, runner, monkeypatch):
        def broken(raw):
            raise ValueError("a bug, not a usage error")

        monkeypatch.setattr(chain_mod, "preprocess_reply", broken)
        app = make_workspace(tmp_path, scenarios={"demo": {"replies": [GOOD]}})
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "x",
             "--scenario", "demo", "--no-deploy"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
        assert "error:" not in combined(result)

    def test_unreachable_provider_is_a_failed_attempt_not_a_usage_error(
        self, tmp_path, runner, monkeypatch
    ):
        class Unreachable:
            def complete(self, payload, params):
                raise ProviderError("cannot reach http://h/chat/completions: refused", status=None)

        monkeypatch.setattr(cli_mod, "build_provider", lambda config: Unreachable())
        app = make_workspace(tmp_path)
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "x", "--no-deploy"],
        )
        assert result.exit_code == 1, combined(result)
        assert (
            "attempt 1: provider error: cannot reach http://h/chat/completions: refused"
            in result.output
        )
        assert "unresolved" in combined(result)
        assert not any(line.startswith("error:") for line in combined(result).splitlines())

    # App config keys of the wrong type: the override and the key the message names.
    APP_TYPOS = {
        "attempts many": ({"max_chain_attempts": "many"}, "max_chain_attempts"),
        "retrieval k x": ({"retrieval": {"k": "x"}}, "retrieval.k"),
        "timeout slow": ({"provider": {"timeout_seconds": "slow"}}, "provider.timeout_seconds"),
        "rate cheap": ({"cost": {"rate_per_token": "cheap"}}, "cost.rate_per_token"),
        "chunk size list": ({"retrieval": {"chunk_size": [1]}}, "retrieval.chunk_size"),
        "overlap past chunk": ({"retrieval": {"overlap": 5000}}, "retrieval.overlap"),
        "workloads list": ({"workloads": ["a"]}, "workloads"),
        "provider list": ({"provider": ["a"]}, "provider"),
        "paths list": ({"paths": ["a"]}, "paths"),
        "attempts fraction": ({"max_chain_attempts": 2.9}, "max_chain_attempts"),
        "attempts zero": ({"max_chain_attempts": 0}, "max_chain_attempts"),
        "attempts above ceiling": ({"max_chain_attempts": 101}, "max_chain_attempts"),
        "profile unknown": ({"profile": "bogus"}, "profile"),
        "max tokens fraction": ({"sampling": {"max_tokens": 10.7}}, "sampling.max_tokens"),
        "paths entry missing": ({"paths": {"output": "out", "docs": "absent"}}, "paths.docs"),
        "provider kind unknown": ({"provider": {"kind": "grpc"}}, "provider.kind"),
        "http without base_url": ({"provider": {"kind": "http"}}, "provider.base_url"),
        "rate zero": ({"cost": {"rate_per_token": 0}}, "cost.rate_per_token"),
        "deploy backend unknown": ({"deploy": {"backend": "k8s"}}, "deploy.backend"),
        "api key variable unset": (
            {"provider": {"kind": "http", "base_url": "http://localhost:9",
                          "api_key_env": "INTENTCONF_TEST_UNSET_KEY"}},
            "provider.api_key_env",
        ),
    }

    # Values of the wrong type or range in the other input files: the file
    # (see bad_file), what is merged into it (a list replaces it), and the key
    # the message names.
    FILE_TYPOS = {
        "case prompt empty": ("case", {"prompt": None}, "prompt"),
        "case level fraction": ("case", {"level": 2.7}, "level"),
        "case level bool": ("case", {"level": True}, "level"),
        "case assertion path null": (
            "case", {"assertions": [{"path": None, "kind": "Exists"}]}, "assertions[0].path"
        ),
        "assertions file path null": (
            "assertions", [dict(CHECKS[0]), {"path": None, "kind": "Exists"}], "assertions[1].path"
        ),
        "mock latency negative": ("mock", {"latency": -1}, "latency"),
        "script latency negative": ("script", {"latency": -1}, "latency"),
        "scenario latency negative": (
            "script", {"scenarios": {"demo": {"replies": [GOOD], "latency": -0.5}}},
            "scenarios.demo.latency",
        ),
        "scenario latency inf": (
            "script", {"scenarios": {"demo": {"replies": [GOOD], "latency": float("inf")}}},
            "scenarios.demo.latency",
        ),
        "scenario a bare list": ("script", {"scenarios": {"demo": [GOOD]}}, "scenarios.demo"),
        "scenario attempt zero": (
            "script", {"scenarios": {"demo": {"replies": {0: GOOD}}}}, "scenarios.demo.replies[0]"
        ),
        "shot defect note empty": ("shot", {"defect_note": None}, "defect_note"),
        "cluster rate bool": ("cluster", {"cpu_rate": True}, "cpu_rate"),
        "cluster rate negative": ("cluster", {"cpu_rate": -1}, "cpu_rate and mem_rate must be >= 0"),
        "cluster cpu malformed": (
            "cluster", {"nodes": [{"cpu": "1", "memory": "1Gi"}, {"cpu": "lots"}]}, "nodes[1].cpu"
        ),
        "profile path empty": ("profiles", {"replicas_path": None}, "dask.replicas_path"),
        "profile replicas fraction": (
            "profiles", {"defaults": {"replicas": 2.5}}, "dask.defaults.replicas"
        ),
        # Checked when the file is read, not when a reply first uses the profile.
        "profile path malformed": ("profiles", {"cpu_path": "worker//cpu"}, "dask: empty segment"),
        "profile default cpu malformed": (
            "profiles", {"defaults": {"cpu": "lots"}}, "dask: malformed cpu quantity"
        ),
        "profile default replicas zero": (
            "profiles", {"defaults": {"replicas": 0}}, "dask: default replicas must be >= 1"
        ),
    }

    # A config file that is not UTF-8 text, read by each command that takes one.
    NOT_UTF8 = {
        "validate config not utf-8": ["validate", "config.yaml", "--assertions", "checks.yaml"],
        "deploy config not utf-8": ["deploy", "config.yaml", "--system", "dask"],
        "complexity file not utf-8": ["complexity", "config.yaml"],
    }

    @staticmethod
    def bad_file(tmp_path, app, kind, override):
        """Write ``override`` into the input file of ``kind``; the command that
        reads it and the file's path as the error names it."""
        config = yaml.safe_load(app.read_text(encoding="utf-8"))
        generate = ["-c", str(app), "generate", "--system", "dask", "--scenario", "demo",
                    "--intent", "x", "--no-deploy"]
        chain = ["-c", str(app), "chain", "--case", "c1", "--no-deploy"]
        level = tmp_path / "dataset" / "dask" / "level1"
        files = {
            "case": (level / "c1.yaml", chain),
            "mock": (level / "c1.mock.yaml", chain),
            "script": (tmp_path / "mock.yaml", generate),
            "assertions": (tmp_path / "checks.yaml", generate + ["--assertions", "checks.yaml"]),
            "shot": (tmp_path / "shots" / "dask" / "one.yaml", generate),
            "cluster": (tmp_path / "cluster.yaml", generate[:-1] + ["--cluster", "cluster.yaml"]),
            "profiles": (tmp_path / "profiles.yaml", generate[:-1]),
        }
        file, args = files[kind]
        base = {
            "shot": {"prompt": "p", "intent": "i", "correct_output": GOOD,
                     "incorrect_output": HUNGRY, "defect_note": "too much memory"},
            "cluster": {"nodes": [{"cpu": "4", "memory": "16Gi"}]},
            "profiles": {"replicas_path": "worker/replicas", "cpu_path": "worker/cpu",
                         "memory_path": "worker/memory"},
        }.get(kind)
        if base is None:
            base = yaml.safe_load(file.read_text(encoding="utf-8")) if file.exists() else {}
        written = override if isinstance(override, list) else {**base, **override}
        write_yaml(file, {"dask": written} if kind == "profiles" else written)
        if kind == "shot":
            config["profile"] = "fsl"
            config["paths"]["shots"] = "shots"
        if kind == "profiles":
            config["paths"]["system_profiles"] = "profiles.yaml"
        write_yaml(app, config)
        # Files given on the command line are named as given, configured ones resolved.
        return args, file.relative_to(tmp_path) if kind in ("assertions", "cluster") else file.resolve()

    @pytest.mark.parametrize(
        "bad",
        ["provider script", "cluster model", "retrieval k", "empty intent", *APP_TYPOS,
         "cluster cpu inf", "profiles not a mapping", "docs not utf-8", "docs is a file",
         "attempts flag zero", "attempts flag negative", *FILE_TYPOS, *NOT_UTF8,
         "app profile twice", "case assertions twice"],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, runner, bad, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("INTENTCONF_TEST_UNSET_KEY", raising=False)
        dataset = {"c1": {"mock": {"replies": [GOOD]}}}
        app = make_workspace(tmp_path, scenarios={"demo": {"replies": [GOOD]}}, dataset=dataset)
        args = ["-c", str(app), "generate", "--system", "dask", "--scenario", "demo"]
        intent = "x"
        named = None  # (file, key): the message names each once, the key right after the file
        mentioned = None  # a key the message names, for an option given on the command line
        at_line = None  # the line of the file the message names
        if bad in self.FILE_TYPOS:
            kind, override, key = self.FILE_TYPOS[bad]
            args, file = self.bad_file(tmp_path, app, kind, override)
            intent, named = None, (file, key)
        elif bad == "provider script":
            (tmp_path / "mock.yaml").write_text("scenarios: [unclosed", encoding="utf-8")
        elif bad == "cluster model":
            write_yaml(tmp_path / "cluster.yaml", {"nodes": []})
            args += ["--cluster", str(tmp_path / "cluster.yaml")]
        elif bad == "retrieval k":
            write_yaml(app, {**yaml.safe_load(app.read_text(encoding="utf-8")), "retrieval": {"k": 0}})
        elif bad in self.APP_TYPOS:
            override, key = self.APP_TYPOS[bad]
            write_yaml(app, {**yaml.safe_load(app.read_text(encoding="utf-8")), **override})
            named = (app, key)
        elif bad == "cluster cpu inf":
            cluster = write_yaml(tmp_path / "cluster.yaml", {"nodes": [{"cpu": float("inf"), "memory": "1Gi"}]})
            args += ["--cluster", str(cluster)]
            named = (cluster, "nodes[0]")
        elif bad == "profiles not a mapping":
            profiles = write_yaml(tmp_path / "profiles.yaml", {"dask": [1]})
            paths = {"output": "out", "system_profiles": "profiles.yaml"}
            write_yaml(app, {**yaml.safe_load(app.read_text(encoding="utf-8")), "paths": paths})
            named = (profiles.resolve(), "dask")
        elif bad == "docs not utf-8":
            (tmp_path / "docs").mkdir()
            (tmp_path / "docs" / "a.md").write_bytes(b"\xff\xfe not text")
            config = {**yaml.safe_load(app.read_text(encoding="utf-8")), "profile": "rag"}
            write_yaml(app, {**config, "paths": {"output": "out", "docs": "docs"}})
            args += ["--no-deploy"]
        elif bad == "docs is a file":
            (tmp_path / "guide.md").write_text("dask workers", encoding="utf-8")
            config = {**yaml.safe_load(app.read_text(encoding="utf-8")), "profile": "rag"}
            write_yaml(app, {**config, "paths": {"output": "out", "docs": "guide.md"}})
            args += ["--no-deploy"]
            named = ((tmp_path / "guide.md").resolve(), "not a directory")
        elif bad in self.NOT_UTF8:
            (tmp_path / "config.yaml").write_bytes(b"replicas: \xff")
            args, intent = self.NOT_UTF8[bad], None
            named = ("config.yaml", "not UTF-8 text")
        elif bad == "app profile twice":
            text = app.read_text(encoding="utf-8").replace("profile: ip\n", "profile: cot\nprofile: ip\n")
            app.write_text(text, encoding="utf-8")
            named = (app, "not valid YAML: duplicate key 'profile'")
            at_line = text.splitlines().index("profile: ip") + 1
        elif bad == "case assertions twice":
            case = tmp_path / "dataset" / "dask" / "level1" / "c1.yaml"
            text = case.read_text(encoding="utf-8")
            at_line = text.count("\n") + 1
            text += "assertions:\n- path: worker/replicas\n  kind: Exists\n"
            case.write_text(text, encoding="utf-8")
            args, intent = ["-c", str(app), "bench", "--profiles", "ip"], None
            named = (case.resolve(), "not valid YAML: duplicate key 'assertions'")
        elif bad.startswith("attempts flag"):
            args += ["--no-deploy", "--max-attempts", "0" if bad.endswith("zero") else "-1"]
            mentioned = "max_chain_attempts"
        else:
            intent = ""
        result = runner.invoke(main, args if intent is None else args + ["--intent", intent])
        assert result.exit_code == 2, combined(result)
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.output
        if mentioned is not None:
            assert mentioned in combined(result), combined(result)
        if named is not None:
            file, key = named
            line = errors[0]
            rest = line.removeprefix(f"error: {file}: ")
            assert rest != line and str(file) not in rest, line
            assert rest.startswith(key) and rest.count(key) == 1, line
        if at_line is not None:  # on the one line, and nothing after it
            assert errors[0].endswith(f" at line {at_line}, column 1"), result.output
            assert result.output.splitlines()[-1] == errors[0], result.output

    def test_shell_backend_requires_explicit_opt_in(self, tmp_path, runner):
        app = make_workspace(tmp_path, scenarios={"demo": {"replies": [GOOD]}})
        result = runner.invoke(
            main,
            ["-c", str(app), "generate", "--system", "dask", "--intent", "x",
             "--scenario", "demo", "--deploy-backend", "shell"],
        )
        assert result.exit_code == 2
        assert "--i-understand-this-applies-to-a-real-cluster" in combined(result)

    def test_config_path_from_environment(self, tmp_path, runner):
        app = make_workspace(tmp_path, scenarios={"demo": {"replies": [GOOD]}})
        result = runner.invoke(
            main,
            ["generate", "--system", "dask", "--intent", "x", "--scenario", "demo",
             "--no-deploy"],
            env={"INTENTCONF_CONFIG": str(app)},
        )
        assert result.exit_code == 0

    def test_missing_config_file(self, tmp_path, runner):
        result = runner.invoke(
            main,
            ["-c", str(tmp_path / "absent.yaml"), "generate", "--system", "d",
             "--intent", "x"],
        )
        assert result.exit_code == 2


class TestValidate:
    def test_passing_config(self, tmp_path, runner):
        make_workspace(tmp_path)
        config = tmp_path / "good.yaml"
        config.write_text(GOOD, encoding="utf-8")
        result = runner.invoke(
            main,
            ["validate", str(config), "--assertions", str(tmp_path / "checks.yaml")],
        )
        assert result.exit_code == 0
        assert "PASS Compare worker/replicas" in result.output
        assert result.output.strip().endswith("passed: good.yaml")

    def test_failing_config(self, tmp_path, runner):
        make_workspace(tmp_path)
        config = tmp_path / "bad.yaml"
        config.write_text("worker:\n  replicas: 1", encoding="utf-8")
        result = runner.invoke(
            main,
            ["validate", str(config), "--assertions", str(tmp_path / "checks.yaml"),
             "--case-id", "bad-case"],
        )
        assert result.exit_code == 1
        assert "FAIL Compare worker/replicas" in result.output
        assert "1 < 2" in result.output
        assert "failed: bad-case" in result.output

    def test_expected_too_large_for_a_float_fails_without_a_traceback(self, tmp_path, runner):
        checks = write_yaml(
            tmp_path / "huge.yaml",
            [{"path": "worker/replicas", "kind": "Compare", "op": ">=", "expected": 10**400}],
        )
        config = tmp_path / "good.yaml"
        config.write_text(GOOD, encoding="utf-8")
        result = runner.invoke(main, ["validate", str(config), "--assertions", str(checks)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"FAIL Compare worker/replicas (2 < {10**400})" in result.output
        assert "Traceback" not in combined(result)

    def test_structural_error(self, tmp_path, runner):
        make_workspace(tmp_path)
        config = tmp_path / "broken.yaml"
        config.write_text("a: [unclosed", encoding="utf-8")
        result = runner.invoke(
            main,
            ["validate", str(config), "--assertions", str(tmp_path / "checks.yaml")],
        )
        assert result.exit_code == 1
        assert "structural error:" in result.stderr  # as deploy reports it

    def test_invalid_assertions_yaml_names_the_file(self, tmp_path, runner):
        checks = tmp_path / "bad.yaml"
        checks.write_text("- path: [unclosed", encoding="utf-8")
        config = tmp_path / "good.yaml"
        config.write_text(GOOD, encoding="utf-8")
        result = runner.invoke(main, ["validate", str(config), "--assertions", str(checks)])
        assert result.exit_code == 2, combined(result)
        assert f"error: {checks}: not valid YAML" in combined(result)

    def test_bad_assertions_file(self, tmp_path, runner):
        checks = tmp_path / "empty.yaml"
        checks.write_text("[]", encoding="utf-8")
        config = tmp_path / "good.yaml"
        config.write_text(GOOD, encoding="utf-8")
        result = runner.invoke(main, ["validate", str(config), "--assertions", str(checks)])
        assert result.exit_code == 2


class TestConfigYamlErrors:
    @pytest.mark.parametrize(
        "args, exit_code, prefix",
        [
            (["complexity", "dup.yaml"], 2, "error: dup.yaml: "),
            (["validate", "dup.yaml", "--assertions", "checks.yaml"], 1, "structural error: "),
            (["deploy", "dup.yaml", "--system", "dask"], 1, "structural error: "),
        ],
        ids=["complexity", "validate", "deploy"],
    )
    def test_duplicate_key_is_one_line(self, tmp_path, runner, monkeypatch, args, exit_code, prefix):
        monkeypatch.chdir(tmp_path)
        make_workspace(tmp_path)
        (tmp_path / "dup.yaml").write_text("a: 1\na: 2\n", encoding="utf-8")
        result = runner.invoke(main, args)
        assert result.exit_code == exit_code, combined(result)
        assert result.output.splitlines() == [
            f"{prefix}ParseFailure: duplicate key 'a' at line 2, column 1"
        ]

    @pytest.mark.parametrize(
        "args, exit_code, prefix",
        [
            (["complexity", "deep.yaml"], 2, "error: deep.yaml: "),
            (["validate", "deep.yaml", "--assertions", "checks.yaml"], 1, "structural error: "),
            (["deploy", "deep.yaml", "--system", "dask"], 1, "structural error: "),
        ],
        ids=["complexity", "validate", "deploy"],
    )
    def test_deep_nesting_is_one_line(self, tmp_path, runner, monkeypatch, args, exit_code, prefix):
        # 995 levels; complexity measured the tree's depth by recursion.
        monkeypatch.chdir(tmp_path)
        make_workspace(tmp_path)
        (tmp_path / "deep.yaml").write_text("a: " + "[" * 995 + "]" * 995 + "\n", encoding="utf-8")
        result = runner.invoke(main, args)
        assert result.exit_code == exit_code, combined(result)
        assert result.output.splitlines() == [
            f"{prefix}ParseFailure: nesting deeper than 64 levels at line 1, column 67"
        ]


class TestDeploy:
    def test_simulated_success(self, tmp_path, runner):
        config = tmp_path / "good.yaml"
        config.write_text(GOOD, encoding="utf-8")
        result = runner.invoke(main, ["deploy", str(config), "--system", "dask"])
        assert result.exit_code == 0
        oracle = oracle_apply(cli_mod.DEFAULT_CLUSTER, ResourceSpec(500, 512 * 2**20, 2))
        assert oracle.success
        assert result.stdout == f"{oracle.logs}\ndeployed\n"

    def test_simulated_failure(self, tmp_path, runner):
        config = tmp_path / "hungry.yaml"
        config.write_text(HUNGRY, encoding="utf-8")
        result = runner.invoke(main, ["deploy", str(config), "--system", "dask"])
        assert result.exit_code == 1
        oracle = oracle_apply(cli_mod.DEFAULT_CLUSTER, ResourceSpec(500, 64 * 2**30, 2))
        assert oracle.failure_reason == "insufficient memory"
        assert result.stdout == f"{oracle.logs}\n"
        assert result.stderr == "deployment failed: insufficient memory\n"

    def test_output_is_one_line_per_node_at_any_replica_count(self, tmp_path, runner):
        # One byte a replica: each 1000-byte node takes 1000 of the 10**30.
        # Small nodes keep a replica-by-replica log short enough to finish.
        cluster = tmp_path / "cluster.yaml"
        cluster.write_text("nodes:\n" + "  - cpu: 1\n    memory: 1000\n" * 3, encoding="utf-8")
        config = tmp_path / "countless.yaml"
        reply = GOOD.replace("500m", "0").replace("512Mi", "1")
        config.write_text(reply.replace("replicas: 2", f"replicas: {10**30}"), encoding="utf-8")
        result = runner.invoke(
            main, ["deploy", str(config), "--system", "dask", "--cluster", str(cluster)]
        )
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert len(lines) <= 3 + 1, len(lines)
        oracle = oracle_apply(load_cluster_model(cluster), ResourceSpec(0, 1, 10**30))
        assert result.stdout == f"{oracle.logs}\n"
        assert lines[0] == "placed replicas 0-999 on node 0 (remaining cpu=1000m memory=0B)"
        assert lines[-1].startswith("Error: replica 3000 unplaceable: insufficient memory")

    @pytest.mark.parametrize(
        "replicas, exit_code, lines",
        # The pools hold 4, 2 and 4 replicas a node, 40 in all: 30 take ten
        # nodes, then `deployed`; 41 take all twelve, then the Error line.
        [(30, 0, 11), (41, 1, 13)],
        ids=["fits", "oversubscribed"],
    )
    def test_pooled_cluster_output_is_the_oracles(
        self, tmp_path, runner, replicas, exit_code, lines
    ):
        cluster = tmp_path / "cluster.yaml"
        pools = [("2000m", "4Gi"), ("1", "1Gi"), ("4", "2Gi")]
        cluster.write_text(
            "nodes:\n" + "".join(
                f"  - cpu: {cpu}\n    memory: {memory}\n" * 4 for cpu, memory in pools
            ),
            encoding="utf-8",
        )
        config = tmp_path / "pooled.yaml"
        config.write_text(GOOD.replace("replicas: 2", f"replicas: {replicas}"), encoding="utf-8")
        result = runner.invoke(
            main, ["deploy", str(config), "--system", "dask", "--cluster", str(cluster)]
        )
        assert result.exit_code == exit_code, combined(result)
        model = load_cluster_model(cluster)
        assert len(model.runs) == 3
        oracle = oracle_apply(model, ResourceSpec(500, 512 * 2**20, replicas))
        if oracle.success:
            assert result.stdout == f"{oracle.logs}\ndeployed\n"
        else:
            assert result.stdout == f"{oracle.logs}\n"
            assert result.stderr == "deployment failed: insufficient cpu\n"
        assert len(result.stdout.splitlines()) == lines

    def test_shell_guard(self, tmp_path, runner):
        config = tmp_path / "good.yaml"
        config.write_text(GOOD, encoding="utf-8")
        result = runner.invoke(
            main, ["deploy", str(config), "--system", "dask", "--deploy-backend", "shell"]
        )
        assert result.exit_code == 2


class TestChain:
    def test_replays_case_with_its_mock_script(self, tmp_path, runner):
        app = make_workspace(
            tmp_path,
            dataset={"c1": {"mock": {"replies": [HUNGRY, GOOD]}}},
        )
        result = runner.invoke(main, ["-c", str(app), "chain", "--case", "c1"])
        assert result.exit_code == 0, combined(result)
        assert "attempt 1: Deployment failed" in result.output
        assert (tmp_path / "out" / "c1.jsonl").exists()

    def test_transcripts_are_reproducible(self, tmp_path, runner):
        app = make_workspace(
            tmp_path,
            dataset={"c1": {"mock": {"replies": [HUNGRY, GOOD]}}},
        )
        paths = [tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"]
        for path in paths:
            result = runner.invoke(
                main, ["-c", str(app), "chain", "--case", "c1", "--transcript", str(path)]
            )
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_case_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path, dataset={"c1": {}})
        result = runner.invoke(main, ["-c", str(app), "chain", "--case", "nope"])
        assert result.exit_code == 2
        assert "not found" in combined(result)

    def test_missing_dataset_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        result = runner.invoke(main, ["-c", str(app), "chain", "--case", "c1"])
        assert result.exit_code == 2, combined(result)
        assert result.output.splitlines() == [
            "error: no dataset configured; pass --dataset or set paths.dataset"
        ]

    def test_unresolved_case_exits_one(self, tmp_path, runner):
        app = make_workspace(tmp_path, dataset={"c1": {"mock": {"replies": [PROSE]}}})
        result = runner.invoke(main, ["-c", str(app), "chain", "--case", "c1"])
        assert result.exit_code == 1

    def test_shell_backend_names_only_what_chain_accepts(self, tmp_path, runner):
        app = make_workspace(tmp_path, dataset={"c1": {"mock": {"replies": [GOOD]}}})
        config = yaml.safe_load(app.read_text(encoding="utf-8"))
        write_yaml(app, {**config, "deploy": {"backend": "shell"}})
        result = runner.invoke(main, ["-c", str(app), "chain", "--case", "c1"])
        assert result.exit_code == 2, combined(result)
        assert result.output.splitlines() == [
            "error: shell backend targets a real cluster, and chain does not deploy to one; "
            "pass --no-deploy or set deploy.backend: simulator"
        ]
        assert "--i-understand" not in result.output
        result = runner.invoke(main, ["-c", str(app), "chain", "--case", "c1", "--no-deploy"])
        assert result.exit_code == 0, combined(result)


class TestBench:
    def test_accuracy_table_and_reports(self, tmp_path, runner):
        app = make_workspace(
            tmp_path,
            dataset={
                "b1": {"mock": {"replies": [GOOD]}},
                "b2": {"mock": {"replies": [PROSE]}},
                "b3": {"level": 2, "mock": {"replies": [GOOD]}},
            },
        )
        result = runner.invoke(main, ["-c", str(app), "bench", "--profiles", "ip"])
        assert result.exit_code == 0, combined(result)
        assert "Level" in result.output and "IP" in result.output
        assert (tmp_path / "out" / "accuracy.txt").exists()
        payload = json.loads((tmp_path / "out" / "accuracy.json").read_text())
        rows = {(r["profile"], r["level"]): r["percent"] for r in payload["rows"]}
        assert rows[("ip", 1)] == 50.0
        assert rows[("ip", 2)] == 100.0
        assert "generated_at" in payload["meta"]

    def test_few_shot_and_retrieval_profiles_side_by_side(self, tmp_path, runner):
        mock = {"replies": [GOOD], "verify_default": ALIGNED}
        app = make_workspace(tmp_path, dataset={"b1": {"mock": mock}})
        with_shots_and_docs(tmp_path, app)
        result = runner.invoke(main, ["-c", str(app), "bench", "--profiles", "ip,lads"])
        assert result.exit_code == 0, combined(result)
        payload = json.loads((tmp_path / "out" / "accuracy.json").read_text())
        assert payload["profiles"] == ["ip", "lads"]
        rows = {(r["profile"], r["level"]): r["percent"] for r in payload["rows"]}
        assert rows == {("ip", 1): 100.0, ("lads", 1): 100.0}

    def test_missing_dataset_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        result = runner.invoke(main, ["-c", str(app), "bench", "--profiles", "ip"])
        assert result.exit_code == 2

    def test_empty_dataset_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        (tmp_path / "empty").mkdir()
        result = runner.invoke(
            main, ["-c", str(app), "bench", "--dataset", str(tmp_path / "empty"), "--profiles", "ip"]
        )
        assert result.exit_code == 2, combined(result)
        assert result.output.splitlines() == [f"error: no cases found under {tmp_path / 'empty'}"]

    def test_no_profiles_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path, dataset={"b1": {}})
        result = runner.invoke(main, ["-c", str(app), "bench", "--profiles", ","])
        assert result.exit_code == 2, combined(result)
        assert result.output.splitlines() == ["error: no profiles requested"]

    def test_unknown_profile_is_usage_error(self, tmp_path, runner):
        app = make_workspace(tmp_path, dataset={"b1": {}})
        result = runner.invoke(main, ["-c", str(app), "bench", "--profiles", "warp"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", ["replies: [unclosed", "replies: 5"])
    def test_malformed_mock_script_is_a_usage_error(self, tmp_path, runner, text):
        app = make_workspace(tmp_path, dataset={"b1": {"mock": {"replies": [GOOD]}}})
        mock = tmp_path / "dataset" / "dask" / "level1" / "b1.mock.yaml"
        mock.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["-c", str(app), "bench", "--profiles", "ip"])
        assert result.exit_code == 2, combined(result)
        assert f"error: {mock}: " in combined(result)



class TestComplexity:
    def test_summary_lines(self, tmp_path, runner):
        write_yaml(tmp_path / "one.yaml", {"a": 1, "b": {"c": 2}})
        write_yaml(tmp_path / "two.yaml", {"x": 1})
        result = runner.invoke(main, ["complexity", str(tmp_path / "*.yaml")])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split() == ["Configs", "2"]
        assert lines[1].split() == ["Max", "Keys", "3"]
        assert lines[2].split() == ["Max", "Depth", "2"]
        assert "2.00 ± 1.00" in lines[3]
        assert "1.50 ± 0.50" in lines[4]

    def test_key_counts_too_large_to_average_are_one_line(self, tmp_path, runner):
        # 1,030 levels over a one-key mapping would name over 2**1029 keys, past
        # a float's range. The aliases copy past the budget long before.
        chain = tmp_path / "chain.yaml"
        text = alias_chain_lines(1030, root="{k: 1}")
        chain.write_text(text, encoding="utf-8")
        write_yaml(tmp_path / "small.yaml", {"x": 1})
        refusal = rf"aliases expand past {4 * len(text)} nodes at line \d+, column \d+"
        for files in ([chain], [chain, tmp_path / "small.yaml"]):
            result = runner.invoke(main, ["complexity", *map(str, files)])
            assert result.exit_code == 2, combined(result)
            [line] = result.output.splitlines()
            assert re.fullmatch(rf"error: {re.escape(str(chain))}: ParseFailure: {refusal}", line), line

    def test_recursive_alias_is_one_line(self, tmp_path, runner):
        # The composer read a list that holds itself, which complexity walked
        # into a RecursionError.
        loop = tmp_path / "loop.yaml"
        loop.write_text("a: &x [*x]\n", encoding="utf-8")
        result = runner.invoke(main, ["complexity", str(loop)])
        assert (result.exit_code, result.output) == (
            2,
            f"error: {loop}: ParseFailure: alias 'x' is inside the node it names at line 1, column 8\n",
        )

    def test_no_matches(self, tmp_path, runner):
        result = runner.invoke(main, ["complexity", str(tmp_path / "nothing-*.yaml")])
        assert result.exit_code == 2

    def test_unparsable_file(self, tmp_path, runner):
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [unclosed", encoding="utf-8")
        result = runner.invoke(main, ["complexity", str(bad)])
        assert result.exit_code == 2


class TestReport:
    def seed_transcripts(self, tmp_path, runner):
        app = make_workspace(
            tmp_path,
            scenarios={
                "demo": {"replies": [HUNGRY, GOOD], "latency": 0.5},
                "solo": {"replies": [GOOD], "latency": 0.25},
            },
        )
        for scenario in ("demo", "solo"):
            result = runner.invoke(
                main,
                ["-c", str(app), "generate", "--system", "dask", "--intent", "x",
                 "--scenario", scenario,
                 "--assertions", str(tmp_path / "checks.yaml")],
            )
            assert result.exit_code == 0, combined(result)
        return app

    def test_curve_costs_and_latency(self, tmp_path, runner):
        app = self.seed_transcripts(tmp_path, runner)
        result = runner.invoke(
            main, ["-c", str(app), "report", "--transcripts", str(tmp_path / "out" / "*.jsonl")]
        )
        assert result.exit_code == 0, combined(result)
        assert "chains: 2" in result.output
        assert "resolved by attempt 1: 50.0%" in result.output
        assert "resolved by attempt 2: 100.0%" in result.output
        assert "resolved by attempt 3: 100.0%" in result.output
        assert "latency per attempt" in result.output
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["chains"] == 2
        assert payload["resolution_curve"] == {"1": 50.0, "2": 100.0, "3": 100.0}
        assert payload["cost"][0]["system"] == "dask"
        assert "generated_at" in payload["meta"]

    def test_no_matching_transcripts(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        result = runner.invoke(
            main, ["-c", str(app), "report", "--transcripts", str(tmp_path / "*.jsonl")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"[1, 2]\n", "line 1: expected a JSON object, got list"),
            (b'{"attempt": "x"}\n', "line 1: attempt must be an integer, got 'x'"),
            (b'{"attempt": 1, "latency_seconds": "slow"}\n',
             "line 1: latency_seconds must be a number, got 'slow'"),
            (b'{"attempt": 1}\n{"attempt": true}\n', "line 2: attempt must be an integer, got True"),
            (b'{"attempt": 1}\n{"attempt": 2,\n', "line 2: not JSON: "),
            (b'{"attempt": 1, "system": "caf\xe9"}\n', "not UTF-8 text: "),
            # numbers that would size report's output, not the file
            (b'{"attempt": 1, "max_attempts": 100000, "system": "dask"}\n',
             "line 1: max_attempts must be at most 100, got 100000"),
            (b'{"attempt": 100000, "system": "dask"}\n',
             "line 1: attempt must be at most 100, got 100000"),
            # numbers no chain can have, in any entry
            (b'{"attempt": 1}\n{"attempt": -5, "max_attempts": 3, "system": "dask"}\n',
             "line 2: attempt must be >= 1, got -5"),
            (b'{"attempt": 0, "system": "dask"}\n', "line 1: attempt must be >= 1, got 0"),
            (b'{"attempt": 1, "completion_tokens": -40}\n{"attempt": 2}\n',
             "line 1: completion_tokens must be >= 0, got -40"),
            (b'{"attempt": 1}\n{"attempt": 2, "latency_seconds": -2.0}\n',
             "line 2: latency_seconds must be >= 0, got -2.0"),
            # token counts the cost report could not price as a float
            (b'{"completion_tokens": 1%s}\n' % (b"0" * 400),
             f"line 1: completion_tokens must keep the total within the float range, got 1{'0' * 400}"),
            (b'{"completion_tokens": 1%s}\n{"completion_tokens": 1%s}\n' % (b"0" * 308, b"0" * 308),
             f"line 2: completion_tokens must keep the total within the float range, got 1{'0' * 308}"),
        ],
        ids=["not-an-object", "attempt-not-a-number", "latency-not-a-number", "mixed-attempts",
             "not-json", "not-utf8", "budget-above-ceiling", "attempt-above-ceiling",
             "attempt-negative", "attempt-zero", "tokens-negative", "latency-negative",
             "tokens-past-float", "token-total-past-float"],
    )
    def test_malformed_transcript_is_a_usage_error(self, tmp_path, runner, content, problem):
        app = make_workspace(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        result = runner.invoke(main, ["-c", str(app), "report", "--transcripts", str(bad)])
        assert result.exit_code == 2, combined(result)
        assert isinstance(result.exception, SystemExit)
        (line,) = result.output.splitlines()
        assert line.startswith(f"error: {bad}: {problem}"), line

    def test_all_empty_transcripts(self, tmp_path, runner):
        app = make_workspace(tmp_path)
        for name in ("a.jsonl", "b.jsonl"):
            (tmp_path / name).write_text("\n \n", encoding="utf-8")
        result = runner.invoke(
            main, ["-c", str(app), "report", "--transcripts", str(tmp_path / "*.jsonl")]
        )
        assert result.exit_code == 2, combined(result)
        assert result.output.splitlines() == ["error: matched transcripts are all empty"]

    def test_rate_guard(self, tmp_path, runner):
        app = self.seed_transcripts(tmp_path, runner)
        for rate in ("0", "nan", "inf"):
            result = runner.invoke(
                main,
                ["-c", str(app), "report", "--transcripts", str(tmp_path / "out" / "*.jsonl"),
                 "--rate", rate],
            )
            assert result.exit_code == 2, combined(result)
            assert result.output.splitlines() == [
                f"error: rate per token must be > 0 and finite, got {float(rate)}"
            ]
        assert not (tmp_path / "out" / "report.json").exists()
