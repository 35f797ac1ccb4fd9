"""Quantity grammar, resource extraction, placement, and the cost model."""

import math
import os
import random
import re
import stat
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentconf.chain import Stage, make_feedback
from intentconf.preprocess import ConfigDocument, InputError, serialize_config
from intentconf.simulator import (
    DEFAULT_CPU_RATE,
    DEFAULT_MEM_RATE,
    GIB,
    LOG_LINE_BUDGET,
    SEVERITY_MARKERS,
    SHELL_DEPLOY_TIMEOUT_S,
    ClusterModel,
    DeploymentOutcome,
    NodeSpec,
    QuantityError,
    ResourceSpec,
    ShellDeployer,
    SimulatedDeployer,
    SystemProfile,
    UnknownSystemProfile,
    Workload,
    _placed_line,
    apply,
    extract_resources,
    filter_logs,
    load_cluster_model,
    load_system_profiles,
    parse_quantity,
    run_workload,
)
from test_chain import LINE_BREAKS, oracle_filter_logs


PROFILES = load_system_profiles()


def doc(tree):
    return ConfigDocument(root=tree, source_text=serialize_config(tree))


def per_node(outcome):
    """Replicas placed on each node, read from the ``placed replicas a-b on node j`` log lines."""
    fills = re.findall(r"^placed replicas (\d+)-(\d+) on node (\d+) ", outcome.logs, re.M)
    counts = Counter()
    for first, last, node in fills:
        counts[int(node)] += int(last) - int(first) + 1
    return counts


DASK_CONFIG = {
    "worker": {
        "replicas": 2,
        "resources": {"limits": {"cpu": "500m", "memory": "512Mi"}},
    }
}


class TestParseQuantity:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("250m", 250),
            ("2", 2000),
            ("0.25", 250),
            ("1.5", 1500),
            (2, 2000),
            (0.5, 500),
            ("1000m", 1000),
        ],
    )
    def test_cpu_values(self, text, expected):
        assert parse_quantity(text, "cpu") == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1Gi", 1073741824),
            ("512Mi", 536870912),
            ("1Ki", 1024),
            ("1.5Gi", 1610612736),
            ("1024", 1024),
            (2048, 2048),
        ],
    )
    def test_memory_values(self, text, expected):
        assert parse_quantity(text, "memory") == expected

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("1Gi", "cpu"),
            ("512Mi", "cpu"),
            ("250m", "memory"),
            ("1G", "memory"),
            ("1K", "memory"),
            ("5k", "cpu"),
            ("abc", "cpu"),
            ("", "memory"),
            ("1.2.3", "cpu"),
            ("-1", "cpu"),
            ("Mi", "memory"),
            ("12 Mi", "memory"),
            (True, "cpu"),
            (-2, "memory"),
            (float("inf"), "cpu"),
            (float("inf"), "memory"),
            (float("nan"), "cpu"),
            pytest.param("1" + "0" * 400, "cpu", id="1e400-cpu"),
            pytest.param("1" + "0" * 300 + "Gi", "memory", id="1e300Gi-memory"),
        ],
    )
    def test_rejections(self, text, kind):
        with pytest.raises(QuantityError):
            parse_quantity(text, kind)

    def test_kind_must_be_known(self):
        with pytest.raises(ValueError):
            parse_quantity("1", "disk")


class TestExtractResources:
    def test_dask_paths(self):
        spec, notes = extract_resources(doc(DASK_CONFIG), "dask", PROFILES)
        assert spec == ResourceSpec(cpu_millicores=500, memory_bytes=536870912, replicas=2)
        assert notes == ()

    def test_missing_memory_falls_back_with_note(self):
        config = {"worker": {"replicas": 2, "resources": {"limits": {"cpu": "500m"}}}}
        spec, notes = extract_resources(config, "dask", PROFILES)
        assert spec.memory_bytes == parse_quantity("512Mi", "memory")
        assert notes == ("memory not set; default 512Mi applied",)

    def test_empty_config_uses_all_defaults(self):
        spec, notes = extract_resources({}, "dask", PROFILES)
        assert spec == ResourceSpec(500, 536870912, 1)
        assert len(notes) == 3

    def test_unknown_system(self):
        with pytest.raises(UnknownSystemProfile):
            extract_resources({}, "spark", PROFILES)

    def test_bad_replicas_value(self):
        for value in ("many", 0, 2.7, 0.5, float("inf"), float("nan")):
            with pytest.raises(QuantityError):
                extract_resources({"worker": {"replicas": value}}, "dask", PROFILES)
        spec, _ = extract_resources({"worker": {"replicas": 3.0}}, "dask", PROFILES)
        assert spec.replicas == 3

    def test_custom_profile_paths(self):
        profiles = {
            "toy": SystemProfile(
                replicas_path="count",
                cpu_path="shape/cpu",
                memory_path="shape/mem",
            )
        }
        spec, _ = extract_resources({"count": 3, "shape": {"cpu": "2", "mem": "1Gi"}}, "toy", profiles)
        assert spec == ResourceSpec(2000, GIB, 3)

    @pytest.mark.parametrize(
        "override",
        [{"cpu_path": "shape//cpu"}, {"memory_path": "[0"}, {"default_cpu": "lots"},
         {"default_memory": "1Ti"}, {"default_replicas": 0}],
    )
    def test_profile_rejects_what_no_reply_could_fix(self, override):
        fields = {"replicas_path": "count", "cpu_path": "shape/cpu", "memory_path": "shape/mem"}
        with pytest.raises(ValueError):
            SystemProfile(**{**fields, **override})

    def test_bundled_profiles_cover_target_systems(self):
        assert {"dask", "redis", "ray"} <= set(PROFILES)
        redis, _ = extract_resources(
            {"replica": {"replicaCount": 4, "resources": {"limits": {"cpu": "250m", "memory": "1Gi"}}}},
            "redis",
            PROFILES,
        )
        assert redis == ResourceSpec(250, GIB, 4)


NODE = NodeSpec(cpu_millicores=4000, memory_bytes=16 * GIB)


def observed(outcome: DeploymentOutcome) -> tuple:
    """What a caller reads of an outcome, its log text formatted."""
    return outcome.success, outcome.failure_reason, outcome.logs, outcome.resources


def oracle_apply(model: ClusterModel, spec: ResourceSpec) -> DeploymentOutcome:
    """First-fit that scans the nodes from node 0 for every replica, then
    writes one line per run of replicas placed on the same node: the
    reference ``apply`` must match on every output."""
    remaining = [[node.cpu_millicores, node.memory_bytes] for node in model.nodes]
    placed: list[tuple[int, int, int, int]] = []  # (replica, node, cpu left, memory left)
    for replica in range(spec.replicas):
        target = None
        first_violations = []
        for node_index, (cpu_left, mem_left) in enumerate(remaining):
            if spec.cpu_millicores > cpu_left:
                first_violations.append("cpu")
                continue
            if spec.memory_bytes > mem_left:
                first_violations.append("memory")
                continue
            target = node_index
            break
        if target is None:
            reason = (
                "insufficient memory"
                if first_violations and all(v == "memory" for v in first_violations)
                else "insufficient cpu"
            )
            error = (
                f"Error: replica {replica} unplaceable: {reason} "
                f"(demand cpu={spec.cpu_millicores}m memory={spec.memory_bytes}B)"
            )
            return DeploymentOutcome(
                failure_reason=reason,
                text="\n".join([*_oracle_placed_lines(placed), error]),
                resources=spec,
            )
        remaining[target][0] -= spec.cpu_millicores
        remaining[target][1] -= spec.memory_bytes
        placed.append((replica, target, *remaining[target]))
    return DeploymentOutcome(text="\n".join(_oracle_placed_lines(placed)), resources=spec)


def _oracle_placed_lines(placed: list[tuple[int, int, int, int]]) -> list[str]:
    """One line per run of consecutive replicas on the same node, with the
    capacity that node had left after the run's last replica."""
    lines = []
    for node, run in groupby(placed, key=lambda replica: replica[1]):
        run = list(run)
        _, _, cpu_left, mem_left = run[-1]
        lines.append(
            f"placed replicas {run[0][0]}-{run[-1][0]} on node {node} "
            f"(remaining cpu={cpu_left}m memory={mem_left}B)"
        )
    return lines


# Capacities 1..4000 and demands 0..4500: zero demand, and demand above every
# node's capacity, in either dimension.
_NODES = st.lists(
    st.builds(NodeSpec, st.integers(1, 4000), st.integers(1, 4000)), min_size=1, max_size=8
)
_SPECS = st.builds(ResourceSpec, st.integers(0, 4500), st.integers(0, 4500), st.integers(1, 50))


_DEMANDS = st.one_of(st.just(0), st.integers(1, 600))


def _capacity(draw, per_replica):
    """A node capacity at a multiple of the demand or one off it."""
    return max(1, per_replica * draw(st.integers(0, 6)) + draw(st.sampled_from((0, 0, 1, -1))))


def _share(node, cpu, memory):
    """Replicas an empty node holds; any number at zero demand in both dimensions."""
    return min(
        node.cpu_millicores // cpu if cpu else math.inf,
        node.memory_bytes // memory if memory else math.inf,
    )


@st.composite
def _edge_fills(draw):
    """Where a fill by `//` can be off by one: capacities at a multiple of the
    demand or one off it, replicas at the cluster's total capacity or one off
    it, and zero demand in one dimension (or both)."""
    cpu, memory = draw(_DEMANDS), draw(_DEMANDS)
    nodes = tuple(
        NodeSpec(_capacity(draw, cpu), _capacity(draw, memory))
        for _ in range(draw(st.integers(1, 6)))
    )
    total = sum(_share(node, cpu, memory) for node in nodes)
    if total == math.inf:
        replicas = draw(st.integers(1, 40))
    else:
        replicas = max(1, total + draw(st.sampled_from((-1, 0, 1))))
    return ClusterModel(nodes=nodes), ResourceSpec(cpu, memory, replicas)


@st.composite
def _pools(draw):
    """Node pools: 1-4 node shapes, each repeated 1-8 times, adjacent pools
    sometimes equal. Replicas reach into one pool at its total capacity or
    at a multiple of its per-node share, either of them or one off it."""
    cpu, memory = draw(_DEMANDS), draw(_DEMANDS)
    pools = []
    for _ in range(draw(st.integers(1, 4))):
        if pools and draw(st.booleans()):
            shape = pools[-1][0]
        else:
            shape = NodeSpec(_capacity(draw, cpu), _capacity(draw, memory))
        pools.append((shape, draw(st.integers(1, 8))))
    nodes = tuple(shape for shape, count in pools for _ in range(count))
    if not cpu and not memory:
        return ClusterModel(nodes=nodes), ResourceSpec(cpu, memory, draw(st.integers(1, 40)))
    shares = [_share(shape, cpu, memory) for shape, _ in pools]
    pool = draw(st.integers(0, len(pools) - 1))
    before = sum(share * count for share, (_, count) in zip(shares[:pool], pools))
    reach = shares[pool] * draw(st.integers(0, pools[pool][1]))
    replicas = max(1, before + reach + draw(st.sampled_from((-1, 0, 1))))
    return ClusterModel(nodes=nodes), ResourceSpec(cpu, memory, replicas)


class TestApply:
    def test_both_replicas_fit_one_node(self):
        model = ClusterModel(nodes=(NODE,))
        outcome = apply(model, ResourceSpec(500, 512 * 1024 * 1024, 2))
        assert outcome.success
        assert per_node(outcome) == {0: 2}
        assert outcome.logs.splitlines() == [
            "placed replicas 0-1 on node 0 (remaining cpu=3000m memory=16106127360B)"
        ]

    def test_insufficient_memory(self):
        model = ClusterModel(nodes=(NODE,))
        outcome = apply(model, ResourceSpec(500, 64 * GIB, 1))
        assert not outcome.success
        assert outcome.failure_reason == "insufficient memory"

    def test_insufficient_cpu_across_two_nodes(self):
        small = NodeSpec(cpu_millicores=1000, memory_bytes=GIB)
        model = ClusterModel(nodes=(small, small))
        outcome = apply(model, ResourceSpec(800, 512 * 1024 * 1024, 3))
        assert not outcome.success
        assert outcome.failure_reason == "insufficient cpu"
        assert per_node(outcome) == {0: 1, 1: 1}

    def test_mixed_violation_reports_cpu(self):
        # memory binds on node 0, cpu on node 1: not memory-everywhere
        model = ClusterModel(
            nodes=(NodeSpec(4000, GIB // 2), NodeSpec(100, 16 * GIB))
        )
        outcome = apply(model, ResourceSpec(500, GIB, 1))
        assert outcome.failure_reason == "insufficient cpu"

    def test_memory_only_when_every_node_binds_on_memory(self):
        model = ClusterModel(nodes=(NodeSpec(4000, GIB), NodeSpec(4000, GIB)))
        outcome = apply(model, ResourceSpec(500, 2 * GIB, 1))
        assert outcome.failure_reason == "insufficient memory"

    def test_failure_keeps_partial_placement_and_spec(self):
        model = ClusterModel(nodes=(NodeSpec(1000, GIB),))
        outcome = apply(model, ResourceSpec(800, 100, 2))
        assert per_node(outcome) == {0: 1}
        assert outcome.resources == ResourceSpec(800, 100, 2)
        assert "Error: replica 1 unplaceable" in outcome.logs

    def test_deterministic(self):
        rng = random.Random(8)
        for _ in range(30):
            model = ClusterModel(
                nodes=tuple(
                    NodeSpec(rng.randrange(500, 8000), rng.randrange(GIB, 8 * GIB))
                    for _ in range(rng.randrange(1, 5))
                )
            )
            spec = ResourceSpec(
                rng.randrange(100, 3000), rng.randrange(GIB // 4, 2 * GIB), rng.randrange(1, 6)
            )
            assert apply(model, spec) == apply(model, spec)
            assert observed(apply(model, spec)) == observed(oracle_apply(model, spec))

    @settings(max_examples=500, deadline=None)
    @given(nodes=_NODES, spec=_SPECS)
    def test_matches_oracle(self, nodes, spec):
        model = ClusterModel(nodes=tuple(nodes))
        assert observed(apply(model, spec)) == observed(oracle_apply(model, spec))

    @settings(max_examples=500, deadline=None)
    @given(case=_edge_fills())
    def test_edge_fills_match_oracle(self, case):
        model, spec = case
        assert observed(apply(model, spec)) == observed(oracle_apply(model, spec))

    @settings(max_examples=500, deadline=None)
    @given(case=_pools())
    def test_pooled_clusters_match_oracle(self, case):
        model, spec = case
        assert observed(apply(model, spec)) == observed(oracle_apply(model, spec))

    @settings(max_examples=300, deadline=None)
    @given(case=_pools())
    def test_at_most_one_fill_per_run_and_one_more(self, case):
        model, spec = case
        assert len(apply(model, spec).fills) <= len(model.runs) + 1

    def test_a_wide_pool_places_a_million_replicas_in_two_fills(self):
        # 30 replicas a node: 33,333 full nodes, then 10 replicas on one more.
        model = ClusterModel(nodes=(NodeSpec(30, GIB),) * 100_000)
        outcome = apply(model, ResourceSpec(1, 1, 1_000_000))
        assert outcome.success
        assert outcome.fills == (
            (0, 33_333, 0, 30, 30, GIB),
            (33_333, 1, 999_990, 10, 30, GIB),
        )

    def test_runs_are_the_maximal_runs_of_equal_nodes(self):
        small, large = NodeSpec(1000, GIB), NodeSpec(4000, GIB)
        model = ClusterModel(nodes=(small, small, large, small, NodeSpec(1000, GIB)))
        assert model.runs == ((0, 2, 1000, GIB), (2, 1, 4000, GIB), (3, 2, 1000, GIB))
        assert replace(model, nodes=(large,) * 3).runs == ((0, 3, 4000, GIB),)

    def test_runs_are_left_out_of_equality_and_repr(self):
        model = ClusterModel(nodes=(NODE,) * 2)
        other = ClusterModel(nodes=(NODE,) * 2)
        object.__setattr__(other, "runs", ())
        assert model == other and hash(model) == hash(other)
        assert repr(model) == repr(other)
        assert "runs" not in repr(model)

    @pytest.mark.parametrize(
        "nodes, spec, reason",
        [
            # every node short of memory only
            ((NodeSpec(4000, GIB), NodeSpec(2000, 2 * GIB)), ResourceSpec(500, GIB, 4), "memory"),
            # memory short on node 0, cpu on node 1, after each took replicas
            ((NodeSpec(4000, GIB), NodeSpec(1000, 8 * GIB)), ResourceSpec(400, GIB // 4, 7), "cpu"),
            # zero demand: every replica lands on node 0
            ((NodeSpec(1, 1), NodeSpec(4000, GIB)), ResourceSpec(0, 0, 30), None),
        ],
    )
    def test_pinned_cases_match_oracle(self, nodes, spec, reason):
        model = ClusterModel(nodes=nodes)
        outcome = apply(model, spec)
        assert observed(outcome) == observed(oracle_apply(model, spec))
        if reason is None:
            assert outcome.success and per_node(outcome) == {0: spec.replicas}
        else:
            assert outcome.failure_reason == f"insufficient {reason}"

    def test_placement_soundness(self):
        rng = random.Random(9)
        for _ in range(100):
            nodes = tuple(
                NodeSpec(rng.randrange(500, 6000), rng.randrange(GIB // 2, 6 * GIB))
                for _ in range(rng.randrange(1, 5))
            )
            spec = ResourceSpec(
                rng.randrange(100, 2500), rng.randrange(GIB // 8, 2 * GIB), rng.randrange(1, 8)
            )
            outcome = apply(ClusterModel(nodes=nodes), spec)
            counts = per_node(outcome)
            for node_index, count in counts.items():
                assert count * spec.cpu_millicores <= nodes[node_index].cpu_millicores
                assert count * spec.memory_bytes <= nodes[node_index].memory_bytes
            if outcome.success:
                assert sum(counts.values()) == spec.replicas


# Whitespace that parse_quantity strips from a quantity's ends, line breaks included.
_PADDING = st.lists(st.sampled_from((" ", "\t", *LINE_BREAKS)), max_size=2).map("".join)


def _quantities(suffixes):
    """Quantities parse_quantity accepts with one of ``suffixes``: numbers, and
    text in its grammar with the whitespace it strips."""
    text = st.builds(
        "{}{}{}{}".format,
        _PADDING,
        st.from_regex(r"\d{1,6}(\.\d{1,3})?", fullmatch=True),
        st.sampled_from(suffixes),
        _PADDING,
    )
    return st.one_of(text, st.integers(0, 10**30), st.floats(0, 1e9))


@st.composite
def _notes(draw):
    """The notes extract_resources writes, for profile defaults drawn as
    parse_quantity accepts them and a config that leaves some paths unset."""
    profile = SystemProfile(
        "replicas",
        "cpu",
        "memory",
        default_replicas=draw(st.integers(1, 10**30)),
        default_cpu=draw(_quantities(("", "m"))),
        default_memory=draw(_quantities(("", "Ki", "Mi", "Gi"))),
    )
    values = {"replicas": 2, "cpu": "1", "memory": "1Gi"}
    config = {key: value for key, value in values.items() if draw(st.booleans())}
    _, notes = extract_resources(config, "toy", {"toy": profile})
    return notes


class TestFeedbackLogs:
    """The chain filters a deploy's ready text: it filters as the whole log
    does, since neither a note nor a placed line holds a marker."""

    @settings(max_examples=500, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.builds(ClusterModel, _NODES.map(tuple)), _SPECS),
            _edge_fills(),
            _pools(),
        ),
        notes=_notes(),
    )
    def test_filters_as_the_oracles_logs(self, case, notes):
        model, spec = case
        assert not any(marker in note.lower() for note in notes for marker in SEVERITY_MARKERS)
        outcome = apply(model, spec, notes)
        oracle_logs = "".join(f"note: {note}\n" for note in notes) + oracle_apply(model, spec).logs
        assert filter_logs(outcome.text) == oracle_filter_logs(oracle_logs)
        assert "placed replica" not in outcome.text

    @settings(max_examples=300, deadline=None)
    @given(
        reason=st.sampled_from(["", "insufficient cpu"]),
        text=st.lists(st.sampled_from(["a", "Error", " ", "warn", ":", *LINE_BREAKS])).map(
            "".join
        ),
    )
    def test_ready_text_is_the_whole_log(self, reason, text):
        """ShellDeployer passes the CLI's output, and a refused extraction `Error: {reason}`."""
        for outcome in (
            DeploymentOutcome(failure_reason=reason, text=text),
            DeploymentOutcome(failure_reason=text, text=f"Error: {text}"),
        ):
            assert outcome.text == outcome.logs
            assert filter_logs(outcome.text) == oracle_filter_logs(outcome.logs)

    def test_a_deploy_succeeds_when_it_has_no_reason(self):
        assert DeploymentOutcome().success
        assert DeploymentOutcome(text="Error: x").success
        assert not DeploymentOutcome(failure_reason="insufficient cpu").success

    @pytest.mark.parametrize("cpu, memory", [(0, 0), (1, 1), (10**29, 10**29)])
    def test_placed_lines_hold_no_marker_and_no_other_break(self, cpu, memory):
        free = 10**30
        line = _placed_line((10**6, free, 3, free, free), cpu, memory)
        assert line == (
            f"placed replicas {free}-{free + 2} on node {10**6}"
            f" (remaining cpu={free - 3 * cpu}m memory={free - 3 * memory}B)"
        )
        assert not any(marker in line.lower() for marker in SEVERITY_MARKERS)
        assert not any(brk in line for brk in LINE_BREAKS)


class TestRunWorkload:
    MODEL = ClusterModel(nodes=(NODE,))

    def test_single_core_closed_form(self):
        spec = ResourceSpec(cpu_millicores=1000, memory_bytes=GIB, replicas=1)
        result = run_workload(self.MODEL, spec, Workload(10.0, 100.0))
        assert result.completion_seconds == pytest.approx(110.0, rel=1e-12)
        assert result.cost_dollars == pytest.approx((110 / 3600) * 0.044, rel=1e-12)

    def test_four_core_closed_form(self):
        spec = ResourceSpec(cpu_millicores=2000, memory_bytes=GIB, replicas=2)
        result = run_workload(self.MODEL, spec, Workload(10.0, 100.0))
        assert result.completion_seconds == pytest.approx(35.0, rel=1e-12)
        assert result.cost_dollars == pytest.approx((35 / 3600) * (0.16 + 0.008), rel=1e-12)

    def test_serial_only_ignores_parallelism(self):
        workload = Workload(42.0, 0.0)
        for replicas in (1, 2, 8):
            spec = ResourceSpec(1000, GIB, replicas)
            assert run_workload(self.MODEL, spec, workload).completion_seconds == 42.0

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError, match="spec allocates zero cores"):
            run_workload(self.MODEL, ResourceSpec(0, GIB, 2), Workload(10.0, 100.0))

    def test_time_down_cost_up_in_replicas(self):
        workload = Workload(5.0, 200.0)
        results = [
            run_workload(self.MODEL, ResourceSpec(1000, GIB // 2, replicas), workload)
            for replicas in range(1, 6)
        ]
        times = [r.completion_seconds for r in results]
        costs = [r.cost_dollars for r in results]
        assert times == sorted(times, reverse=True) and len(set(times)) == len(times)
        assert costs == sorted(costs) and len(set(costs)) == len(costs)

    def test_custom_rates(self):
        model = ClusterModel(nodes=(NODE,), cpu_rate=0.1, mem_rate=0.01)
        spec = ResourceSpec(1000, GIB, 1)
        result = run_workload(model, spec, Workload(36.0, 0.0))
        assert result.cost_dollars == pytest.approx(0.01 * (0.1 + 0.01), rel=1e-12)


class TestGuards:
    def test_workload_needs_positive_serial(self):
        with pytest.raises(ValueError):
            Workload(0.0, 10.0)
        with pytest.raises(ValueError):
            Workload(1.0, -1.0)

    def test_node_capacities_positive(self):
        with pytest.raises(ValueError):
            NodeSpec(0, GIB)

    def test_cluster_needs_nodes(self):
        with pytest.raises(ValueError):
            ClusterModel(nodes=())

    def test_spec_guards(self):
        with pytest.raises(ValueError):
            ResourceSpec(-1, 0, 1)
        with pytest.raises(ValueError):
            ResourceSpec(1, 1, 0)


def fake_cli(tmp_path, monkeypatch, name, script):
    path = tmp_path / "bin"
    path.mkdir(exist_ok=True)
    cli = path / name
    cli.write_text(script, encoding="utf-8")
    cli.chmod(cli.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("PATH", f"{path}{os.pathsep}{os.environ.get('PATH', '')}")
    return name


def run_under_ascii_locale(code, **env):
    """``python -c code`` under the C locale with UTF-8 mode off, the package on its path."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": os.pathsep.join([str(source), os.environ.get("PYTHONPATH", "")]),
        **env,
    }
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", code], env=env, capture_output=True, text=True
    )


class TestShellDeploy:
    CONFIG = doc({"replicas": 2})

    def test_opt_in_required(self):
        with pytest.raises(InputError, match="deployment requires the explicit opt-in flag"):
            ShellDeployer().deploy(self.CONFIG, "dask")

    def test_missing_cli(self):
        with pytest.raises(InputError, match="cluster CLI 'no-such-cluster-cli' not found on PATH"):
            ShellDeployer(opt_in=True, cli="no-such-cluster-cli").deploy(self.CONFIG, "dask")

    def test_success_captures_manifest(self, tmp_path, monkeypatch):
        name = fake_cli(tmp_path, monkeypatch, "fakectl", "#!/bin/sh\ncat \"$3\"\nexit 0\n")
        outcome = ShellDeployer(opt_in=True, cli=name).deploy(self.CONFIG, "dask")
        assert outcome.success
        assert "replicas: 2" in outcome.logs

    def test_failure_reason_is_first_filtered_stderr_line(self, tmp_path, monkeypatch):
        script = (
            "#!/bin/sh\n"
            "echo 'applying manifest'\n"
            "echo 'some chatter' >&2\n"
            "echo 'Error: denied by quota' >&2\n"
            "exit 1\n"
        )
        name = fake_cli(tmp_path, monkeypatch, "failctl", script)
        outcome = ShellDeployer(opt_in=True, cli=name).deploy(self.CONFIG, "dask")
        assert not outcome.success
        assert outcome.failure_reason == "Error: denied by quota"
        assert "applying manifest" in outcome.logs

    def test_a_huge_stderr_line_is_cut_to_the_budget(self, tmp_path, monkeypatch):
        """One 10 MB stderr line holding "error" becomes a bounded reason and feedback."""
        script = (
            f"#!{sys.executable}\n"
            "import sys\n"
            "sys.stderr.write('error: ' + 'x' * 10_000_000 + '\\n')\n"
            "sys.exit(1)\n"
        )
        name = fake_cli(tmp_path, monkeypatch, "hugectl", script)
        outcome = ShellDeployer(opt_in=True, cli=name).deploy(self.CONFIG, "dask")
        assert not outcome.success
        assert outcome.failure_reason == "error: " + "x" * (LOG_LINE_BUDGET - 7) + "..."
        feedback = make_feedback(
            Stage.DEPLOYMENT, Stage.STRUCTURAL, outcome.failure_reason, outcome.logs
        )
        assert feedback.filtered_lines == (outcome.failure_reason,)
        assert len(feedback.render()) < 3 * LOG_LINE_BUDGET

    def test_timeout_becomes_failure_outcome(self, tmp_path, monkeypatch):
        name = fake_cli(tmp_path, monkeypatch, "slowctl", "#!/bin/sh\nexit 0\n")
        calls = []

        def run(command, **kwargs):
            calls.append(kwargs)
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", run)
        outcome = ShellDeployer(opt_in=True, cli=name).deploy(self.CONFIG, "dask")
        assert calls == [
            {
                "capture_output": True,
                "encoding": "utf-8",
                "errors": "replace",
                "timeout": SHELL_DEPLOY_TIMEOUT_S,
            }
        ]
        assert not outcome.success
        assert outcome.failure_reason == f"slowctl did not finish within {SHELL_DEPLOY_TIMEOUT_S:g} s"
        assert outcome.logs.startswith("Error:")

    def test_non_ascii_manifest_under_an_ascii_locale(self, tmp_path, monkeypatch):
        """The manifest is written as UTF-8 whatever the locale, and is removed afterwards."""
        name = fake_cli(tmp_path, monkeypatch, "copyctl", '#!/bin/sh\ncp "$3" "$COPY"\n')
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        code = (
            "from intentconf.preprocess import ConfigDocument\n"
            "from intentconf.simulator import ShellDeployer\n"
            "config = ConfigDocument(root={'metadata': {'name': 'caf\\u00e9'}})\n"
            f"print(ShellDeployer(opt_in=True, cli={name!r}).deploy(config, 'dask').success)\n"
        )
        result = run_under_ascii_locale(code, TMPDIR=str(scratch), COPY=str(tmp_path / "copy.yaml"))
        assert (result.returncode, result.stdout) == (0, "True\n"), result.stderr[-2000:]
        assert (tmp_path / "copy.yaml").read_bytes() == "metadata:\n  name: caf\u00e9\n".encode()
        assert list(scratch.iterdir()) == []

    def test_non_ascii_output_under_an_ascii_locale(self, tmp_path, monkeypatch):
        """The CLI's output is read as UTF-8 whatever the locale."""
        script = '#!/bin/sh\ncat "$3"\nprintf "\\377\\n"\n'  # the manifest, then a byte UTF-8 lacks
        name = fake_cli(tmp_path, monkeypatch, "echoctl", script)
        code = (
            "from intentconf.preprocess import ConfigDocument\n"
            "from intentconf.simulator import ShellDeployer\n"
            "config = ConfigDocument(root={'metadata': {'name': 'caf\\u00e9'}})\n"
            f"outcome = ShellDeployer(opt_in=True, cli={name!r}).deploy(config, 'dask')\n"
            "print(outcome.success, ascii(outcome.logs))\n"
        )
        result = run_under_ascii_locale(code)
        assert (result.returncode, result.stdout) == (
            0, "True 'metadata:\\n  name: caf\\xe9\\n\\ufffd\\n'\n"
        ), result.stderr[-2000:]

    def test_importing_the_package_loads_no_subprocess(self):
        code = "import sys\nimport intentconf\nprint('subprocess' in sys.modules)\n"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"


class TestSimulatedDeployer:
    def test_deploy_and_benchmark(self):
        deployer = SimulatedDeployer(model=ClusterModel(nodes=(NODE,)))
        outcome = deployer.deploy(doc(DASK_CONFIG), "dask")
        assert outcome.success
        result = deployer.benchmark(outcome.resources, Workload(10.0, 100.0))
        assert result.completion_seconds == pytest.approx(110.0)

    def test_quantity_error_becomes_failure_outcome(self):
        deployer = SimulatedDeployer(model=ClusterModel(nodes=(NODE,)))
        config = doc({"worker": {"replicas": 2, "resources": {"limits": {"cpu": "1Gi"}}}})
        outcome = deployer.deploy(config, "dask")
        assert not outcome.success
        assert outcome.logs.startswith("Error:")

    def test_unknown_system_becomes_failure_outcome(self):
        deployer = SimulatedDeployer(model=ClusterModel(nodes=(NODE,)))
        outcome = deployer.deploy(doc(DASK_CONFIG), "nosuchsystem")
        assert not outcome.success
        assert outcome.failure_reason == "no resource profile for system 'nosuchsystem'"
        assert outcome.logs == "Error: no resource profile for system 'nosuchsystem'"

    def test_fallback_notes_surface_in_logs(self):
        deployer = SimulatedDeployer(model=ClusterModel(nodes=(NODE,)))
        outcome = deployer.deploy(doc({}), "dask")
        assert outcome.success
        assert "note: replicas not set" in outcome.logs

    @pytest.mark.parametrize("worker", [{"replicas": 3}, {"resources": {"limits": {"cpu": "6"}}}])
    def test_notes_come_before_the_oracles_lines(self, worker):
        model = ClusterModel(nodes=(NODE, NODE))
        config = doc({"worker": worker})
        spec, notes = extract_resources(config, "dask", PROFILES)
        assert notes
        oracle = oracle_apply(model, spec)
        lines = "".join(f"note: {note}\n" for note in notes)
        outcome = SimulatedDeployer(model=model).deploy(config, "dask")
        assert observed(outcome) == (
            oracle.success, oracle.failure_reason, lines + oracle.logs, oracle.resources
        )


class TestLoaders:
    def test_cluster_model_from_yaml(self, tmp_path):
        path = tmp_path / "cluster.yaml"
        path.write_text(
            "nodes:\n  - cpu: 4\n    memory: 16Gi\n  - cpu: 2000m\n    memory: 8Gi\n"
            "cpu_rate: 0.05\nmem_rate: 0.002\n",
            encoding="utf-8",
        )
        model = load_cluster_model(path)
        assert model.nodes == (NodeSpec(4000, 16 * GIB), NodeSpec(2000, 8 * GIB))
        assert (model.cpu_rate, model.mem_rate) == (0.05, 0.002)

    def test_cluster_model_defaults_rates(self, tmp_path):
        path = tmp_path / "cluster.yaml"
        path.write_text("nodes:\n  - cpu: 1\n    memory: 1Gi\n", encoding="utf-8")
        model = load_cluster_model(path)
        assert (model.cpu_rate, model.mem_rate) == (DEFAULT_CPU_RATE, DEFAULT_MEM_RATE)

    def test_cluster_model_requires_nodes_list(self, tmp_path):
        path = tmp_path / "cluster.yaml"
        path.write_text("cpu_rate: 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_cluster_model(path)

    def test_profiles_from_custom_file(self, tmp_path):
        path = tmp_path / "profiles.yaml"
        path.write_text(
            "toy:\n  replicas_path: count\n  cpu_path: shape/cpu\n  memory_path: shape/mem\n"
            "  defaults:\n    replicas: 2\n    cpu: 250m\n    memory: 1Gi\n",
            encoding="utf-8",
        )
        profiles = load_system_profiles(path)
        assert profiles["toy"].default_replicas == 2
        assert list(profiles) == ["toy"]
