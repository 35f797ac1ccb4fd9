"""Deployment backends: a desk-scale cluster simulator and a shell bridge.

The simulator places replicas onto modeled nodes first-fit, reports the
binding resource on failure, and prices a benchmark run with a closed-form
speedup model: a workload is a serial part plus a perfectly parallel part,
so completion = t_s + t_p / R for R total cores, and cost grows with the
core- and memory-hours held. Placement walks the cluster's runs of identical
consecutive nodes (its node pools), so a deploy costs time in the number of
runs, not of nodes or replicas; a mixed cluster is runs of one node. A
deploy's log holds one placed line per node that took replicas. The shell
backend hands the canonical YAML to a real cluster CLI and is gated behind
an explicit opt-in. filter_logs cuts a backend's output down to the lines
worth feeding back to the model: line by line, it keeps those holding a
severity marker.
"""

from __future__ import annotations

import math
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from itertools import groupby
from pathlib import Path

from .preprocess import (
    QUOTE_BUDGET,
    ConfigDocument,
    Fields,
    InputError,
    quote,
    read_scalar,
    serialize_config,
)
from .validation import parse_path, resolve_path

DEFAULT_CPU_RATE = 0.04  # dollars per core-hour
DEFAULT_MEM_RATE = 0.004  # dollars per GiB-hour
SHELL_DEPLOY_TIMEOUT_S = 120.0  # one real-cluster CLI call; the child is killed after it

GIB = 2**30

SEVERITY_MARKERS = (
    "error",
    "warn",
    "fatal",
    "exception",
    "failed",
    "denied",
    "insufficient",
)

LOG_LINE_CAP = 50
# The most characters kept of one log line: above every line the package writes
# from its own bounded parts, two quoted values and the words around them.
LOG_LINE_BUDGET = 4 * QUOTE_BUDGET

_NUMBER_RE = re.compile(r"^(\d+(?:\.\d+)?)([A-Za-z]*)$")

# Units per suffix: cpu in millicores, memory in bytes.
_SCALES = {
    "cpu": {"m": 1, "": 1000},
    "memory": {"": 1, "Ki": 2**10, "Mi": 2**20, "Gi": 2**30},
}


class QuantityError(ValueError):
    """A resource quantity string does not follow the grammar for its dimension."""


class UnknownSystemProfile(ValueError):
    """No resource-path profile is registered for the requested system."""


def filter_logs(raw: str) -> list[str]:
    """Keep only failure-relevant lines from raw output.

    The text splits into lines at every break str.splitlines knows. Lines
    survive when they contain a severity marker (case-insensitive), each cut
    to its first LOG_LINE_BUDGET characters and "..." when longer;
    consecutive duplicates collapse to one; above LOG_LINE_CAP lines the
    middle is elided, keeping the first and last half of the cap.
    """
    kept: list[str] = []
    for line in raw.splitlines():
        lowered = line.lower()
        if not any(marker in lowered for marker in SEVERITY_MARKERS):
            continue
        if len(line) > LOG_LINE_BUDGET:
            line = line[:LOG_LINE_BUDGET] + "..."
        if not kept or kept[-1] != line:
            kept.append(line)
    if len(kept) > LOG_LINE_CAP:
        half = LOG_LINE_CAP // 2
        kept = kept[:half] + [f"... {len(kept) - 2 * half} lines elided ..."] + kept[-half:]
    return kept


def parse_quantity(text, kind: str) -> int:
    """Parse a resource quantity for the given dimension.

    cpu quantities come back in millicores ("250m" -> 250, "2" -> 2000);
    memory quantities in bytes, with binary suffixes Ki/Mi/Gi ("1Gi" ->
    1073741824). Suffixes from the other dimension, negatives, infinities,
    NaN and anything else off-grammar raise QuantityError.
    """
    scales = _SCALES.get(kind)
    if scales is None:
        raise ValueError(f"kind must be 'cpu' or 'memory', got {kind!r}")
    if isinstance(text, bool):
        raise QuantityError(f"{kind} quantity must be a number or string, got {quote(text)}")
    if isinstance(text, (int, float)):
        value, suffix = text, ""
    else:
        match = _NUMBER_RE.match(text.strip()) if isinstance(text, str) else None
        if not match:
            raise QuantityError(f"malformed {kind} quantity {quote(text)}")
        value, suffix = float(match.group(1)), match.group(2)
    if suffix not in scales:
        raise QuantityError(
            f"suffix {quote(suffix)} is not valid for {kind} quantities: {quote(text)}"
        )
    # An int stays exact; NaN fails both comparisons.
    scaled = value * scales[suffix]
    if not 0 <= scaled < math.inf:
        raise QuantityError(f"{kind} quantity must be finite and non-negative, got {quote(text)}")
    return round(scaled)


@dataclass(frozen=True)
class ResourceSpec:
    """What one deployment asks for: per-replica shape times replica count."""

    cpu_millicores: int
    memory_bytes: int
    replicas: int

    def __post_init__(self):
        if self.cpu_millicores < 0 or self.memory_bytes < 0:
            raise ValueError("resource demands must be >= 0")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")

    @property
    def total_cores(self) -> float:
        return self.replicas * self.cpu_millicores / 1000.0


@dataclass(frozen=True)
class NodeSpec:
    cpu_millicores: int
    memory_bytes: int

    def __post_init__(self):
        if self.cpu_millicores <= 0 or self.memory_bytes <= 0:
            raise ValueError("node capacities must be > 0")


@dataclass(frozen=True)
class ClusterModel:
    nodes: tuple[NodeSpec, ...]
    cpu_rate: float = DEFAULT_CPU_RATE
    mem_rate: float = DEFAULT_MEM_RATE
    # The nodes as runs of consecutive equal capacities, in node order:
    # (first node, node count, cpu millicores, memory bytes) each.
    runs: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("cluster model needs at least one node")
        if self.cpu_rate < 0 or self.mem_rate < 0:
            raise ValueError("cpu_rate and mem_rate must be >= 0")
        runs = []
        first = 0
        shapes = ((node.cpu_millicores, node.memory_bytes) for node in self.nodes)
        for (cpu, memory), same in groupby(shapes):
            count = sum(1 for _ in same)
            runs.append((first, count, cpu, memory))
            first += count
        object.__setattr__(self, "runs", tuple(runs))


@dataclass(frozen=True)
class Workload:
    """Amdahl-style job: a serial portion plus a perfectly parallel portion."""

    serial_seconds: float
    parallel_core_seconds: float

    def __post_init__(self):
        if self.serial_seconds <= 0:
            raise ValueError("serial_seconds must be > 0")
        if self.parallel_core_seconds < 0:
            raise ValueError("parallel_core_seconds must be >= 0")


# One fill: (node, nodes, first, count, cpu_free, mem_free), `nodes` equal
# nodes from `node` on, each taking `count` replicas: node + i took replicas
# first + i * count onwards, with cpu_free millicores and mem_free bytes left
# before them. A plain tuple: a placement builds one per run it passes, and a
# named tuple costs a third of that loop.
_Fill = tuple[int, int, int, int, int, int]


def _placed_line(fill: tuple[int, int, int, int, int], cpu: int, memory: int) -> str:
    """One node's `placed replicas a-b on node j (remaining ...)` line, at any count.

    ``fill`` is (node, first, count, cpu_free, mem_free): the node took
    replicas first to first + count - 1 with cpu_free and mem_free left.
    """
    node, first, count, cpu_free, mem_free = fill
    return (
        f"placed replicas {first}-{first + count - 1} on node {node}"
        f" (remaining cpu={cpu_free - cpu * count}m memory={mem_free - memory * count}B)"
    )


@dataclass(frozen=True)
class DeploymentOutcome:
    """What one deploy did. A simulated placement keeps what it computed, one
    fill per run of equal nodes that took replicas, and formats one placed
    line per node only when `logs` is read: a placement costs its number of
    runs of identical consecutive nodes, not its node or replica count, on
    every path; a mixed cluster is runs of one node. A backend with its own
    output passes it as ready text. A deploy failed when it has a reason.
    """

    failure_reason: str = ""
    text: str = ""  # ready log text, after the notes and placed lines
    resources: ResourceSpec | None = None
    fills: tuple[_Fill, ...] = ()
    notes: tuple[str, ...] = ()  # defaults the resource extraction applied

    @property
    def success(self) -> bool:
        return not self.failure_reason

    @property
    def logs(self) -> str:
        """The deploy's log: `note:` lines, then one placed line per node that
        took replicas, then the text."""
        blocks = [f"note: {note}" for note in self.notes]
        if self.fills:
            cpu, memory = self.resources.cpu_millicores, self.resources.memory_bytes
            blocks += (
                _placed_line((node + i, first + i * count, count, cpu_free, mem_free), cpu, memory)
                for node, nodes, first, count, cpu_free, mem_free in self.fills
                for i in range(nodes)
            )
        if self.text:
            blocks.append(self.text)
        return "\n".join(blocks)


@dataclass(frozen=True)
class BenchmarkResult:
    completion_seconds: float
    cost_dollars: float


@dataclass(frozen=True)
class SystemProfile:
    """Where replicas/cpu/memory live inside one system's configuration."""

    replicas_path: str
    cpu_path: str
    memory_path: str
    default_replicas: int = 1
    default_cpu: str = "500m"
    default_memory: str = "512Mi"
    # The three paths parsed, in replicas, cpu, memory order.
    segments: tuple[list[str | int | None], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        paths = (self.replicas_path, self.cpu_path, self.memory_path)
        object.__setattr__(self, "segments", tuple(parse_path(path) for path in paths))
        parse_quantity(self.default_cpu, "cpu")
        parse_quantity(self.default_memory, "memory")
        if self.default_replicas < 1:
            raise ValueError(f"default replicas must be >= 1, got {self.default_replicas}")


_PROFILE_PATHS = ("replicas_path", "cpu_path", "memory_path")


def load_system_profiles(path: Path | str | None = None) -> dict[str, SystemProfile]:
    """Profiles from a YAML file; the bundled registry when no path is given.

    A malformed file is an InputError naming it and the key.
    """
    source = path or importlib_resources.files("intentconf").joinpath("data/system_profiles.yaml")
    data = Fields.load(source)
    profiles = {}
    for system in data.raw:
        spec = data.section(system)
        defaults = spec.section("defaults")
        profiles[str(system)] = spec.build(
            SystemProfile,
            *(spec.require(key) for key in _PROFILE_PATHS),
            **{
                f"default_{key}": defaults.get(key, getattr(SystemProfile, f"default_{key}"))
                for key in ("replicas", "cpu", "memory")
            },
        )
    return profiles


def extract_resources(
    config: ConfigDocument | dict,
    system: str,
    profiles: dict[str, SystemProfile],
) -> tuple[ResourceSpec, tuple[str, ...]]:
    """Read (cpu, memory, replicas) out of a config via the system's path profile.

    Returns the spec and its notes. Missing paths fall back to the profile
    defaults; each fallback is noted so deployment logs show what was assumed.
    """
    profile = profiles.get(system)
    if profile is None:
        raise UnknownSystemProfile(f"no resource profile for system {system!r}")
    root = config.root if isinstance(config, ConfigDocument) else config
    notes = []
    values = []
    for name, segments, default in zip(
        ("replicas", "cpu", "memory"),
        profile.segments,
        (profile.default_replicas, profile.default_cpu, profile.default_memory),
    ):
        matches = resolve_path(root, segments)
        value = matches[0] if matches else None
        if value is None:
            value = default
            notes.append(f"{name} not set; default {default} applied")
        values.append(value)
    replicas_raw, cpu_raw, memory_raw = values
    replicas = read_scalar(replicas_raw, int)
    if replicas is None:
        raise QuantityError(f"replicas value {quote(replicas_raw)} is not an integer")
    if replicas < 1:
        raise QuantityError(f"replicas value {quote(replicas_raw)} must be an integer >= 1")
    spec = ResourceSpec(
        cpu_millicores=parse_quantity(cpu_raw, "cpu"),
        memory_bytes=parse_quantity(memory_raw, "memory"),
        replicas=replicas,
    )
    return spec, tuple(notes)


def apply(model: ClusterModel, spec: ResourceSpec, notes: tuple[str, ...] = ()) -> DeploymentOutcome:
    """Place each replica on the first node with room, tracking remaining capacity;
    the outcome carries ``notes``, the defaults its spec was read with.

    Replicas are identical and capacity only shrinks, so a node that cannot
    take one replica takes no later one: first-fit is a fill in node order,
    each node taking as many replicas as its cpu and memory left hold (a
    dimension with zero demand holds any number). Equal nodes take equal
    shares, so the fill walks the cluster's runs of identical consecutive
    nodes: a run either takes all that is left, on its first full nodes and
    at most one partial node after them, or fills up whole. The outcome
    keeps one fill per run that took replicas, and one more for a last
    partial node, so the work is linear in the number of runs (a mixed
    cluster is runs of one node); reading its logs formats one `placed
    replicas a-b on node j` line per node, the runs a replica-by-replica
    fill places on each node. When the nodes run out, the reason is
    insufficient memory only when no node is short of cpu (memory then binds
    on every node); otherwise insufficient cpu.
    """
    cpu, memory = spec.cpu_millicores, spec.memory_bytes
    placed = 0
    fills: list[_Fill] = []
    short_of_cpu = False  # some node the fill has passed holds less cpu than a replica
    for first, count, cpu_left, mem_left in model.runs:
        left = spec.replicas - placed
        room = left  # replicas each node of the run takes
        if cpu:
            room = min(room, cpu_left // cpu)
        if memory:
            room = min(room, mem_left // memory)
        if room > 0:
            taken = room * count
            if taken >= left:
                full, rest = divmod(left, room)
                fills.append((first, full, placed, room, cpu_left, mem_left))
                if rest:
                    fills.append((first + full, 1, placed + full * room, rest, cpu_left, mem_left))
                return DeploymentOutcome(resources=spec, fills=tuple(fills), notes=notes)
            fills.append((first, count, placed, room, cpu_left, mem_left))
            placed += taken
            cpu_left -= cpu * room
        short_of_cpu = short_of_cpu or cpu > cpu_left
    reason = "insufficient cpu" if short_of_cpu else "insufficient memory"
    return DeploymentOutcome(
        failure_reason=reason,
        text=f"Error: replica {placed} unplaceable: {reason} (demand cpu={cpu}m memory={memory}B)",
        resources=spec,
        fills=tuple(fills),
        notes=notes,
    )


def run_workload(model: ClusterModel, spec: ResourceSpec, workload: Workload) -> BenchmarkResult:
    """Closed-form completion time and cost for a placed deployment.

    With R = replicas x cores per replica: completion = t_s + t_p / R, and
    cost charges cpu_rate per core-hour on R cores plus mem_rate per
    GiB-hour on the memory held by every replica for the whole run. Totals
    past the float range are a ValueError, as zero cores are.
    """
    try:
        total_cores = spec.total_cores
        if total_cores == 0:
            raise ValueError("spec allocates zero cores; completion time is undefined")
        hourly = model.cpu_rate * total_cores + model.mem_rate * spec.replicas * (
            spec.memory_bytes / GIB
        )
    except OverflowError as exc:
        raise ValueError(f"spec totals are past the float range: {exc}") from exc
    completion = workload.serial_seconds + workload.parallel_core_seconds / total_cores
    cost = (completion / 3600.0) * hourly
    return BenchmarkResult(completion_seconds=completion, cost_dollars=cost)


def _quantity(node: Fields, kind: str) -> int:
    try:
        return parse_quantity(node.raw.get(kind, 0), kind)
    except QuantityError as exc:
        raise node.fail(f"is not a valid quantity: {exc}", kind) from exc


def load_cluster_model(path: Path | str) -> ClusterModel:
    """Cluster model from YAML: a nodes list plus optional pricing rates.

    A malformed file is an InputError naming it and the key.
    """
    data = Fields.load(path)
    nodes = tuple(
        node.build(NodeSpec, _quantity(node, "cpu"), _quantity(node, "memory"))
        for node in data.each("nodes")
    )
    return data.build(
        ClusterModel,
        nodes,
        cpu_rate=data.get("cpu_rate", DEFAULT_CPU_RATE),
        mem_rate=data.get("mem_rate", DEFAULT_MEM_RATE),
    )


@dataclass(frozen=True)
class SimulatedDeployer:
    """Deployment backend over the in-memory cluster model."""

    model: ClusterModel
    profiles: dict[str, SystemProfile] = field(default_factory=load_system_profiles)

    def deploy(self, config: ConfigDocument, system: str) -> DeploymentOutcome:
        try:
            spec, notes = extract_resources(config, system, self.profiles)
        except (QuantityError, UnknownSystemProfile) as exc:
            return DeploymentOutcome(failure_reason=str(exc), text=f"Error: {exc}")
        return apply(self.model, spec, notes)

    def benchmark(self, spec: ResourceSpec, workload: Workload) -> BenchmarkResult:
        return run_workload(self.model, spec, workload)


@dataclass(frozen=True)
class ShellDeployer:
    """Deployment backend that applies the canonical YAML through a real cluster CLI.

    Refuses to run unless explicitly opted in and the CLI is on PATH; this
    path mutates shared infrastructure. The manifest goes to whatever
    context the CLI points at.
    """

    opt_in: bool = False
    cli: str = "kubectl"

    def deploy(self, config: ConfigDocument, system: str) -> DeploymentOutcome:
        if not self.opt_in:
            raise InputError("real-cluster deployment requires the explicit opt-in flag")
        if shutil.which(self.cli) is None:
            raise InputError(f"cluster CLI {self.cli!r} not found on PATH")
        import subprocess  # only this backend uses it; importing the package stays lighter
        with tempfile.TemporaryDirectory() as scratch:  # removed on every path
            manifest = Path(scratch) / "manifest.yaml"
            manifest.write_text(serialize_config(config), encoding="utf-8")
            command = [self.cli, "apply", "-f", str(manifest)]
            try:
                proc = subprocess.run(
                    command,
                    capture_output=True,
                    encoding="utf-8",
                    errors="replace",
                    timeout=SHELL_DEPLOY_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                reason = f"{self.cli} did not finish within {SHELL_DEPLOY_TIMEOUT_S:g} s"
                return DeploymentOutcome(failure_reason=reason, text=f"Error: {reason}")
        logs = proc.stdout + ("\n" + proc.stderr if proc.stderr else "")
        if proc.returncode == 0:
            return DeploymentOutcome(text=logs)
        stderr_lines = filter_logs(proc.stderr)
        reason = stderr_lines[0] if stderr_lines else f"{self.cli} exited with code {proc.returncode}"
        return DeploymentOutcome(failure_reason=reason, text=logs)
