"""Seeded inputs for the benchmark workloads, each with its planned outcome.

Every generator takes the seed and returns plain data: the chains to run,
the raw mock script, corpus and few-shot material, the cluster shape, and
for every chain the outcome it must reach (resolved flag, attempts used and
the failed stage of each attempt). The plan is written down here from how
each reply was built, never by running the program, so comparing the two
checks the program.

The seed changes the words, the small numbers and the order of chains.
What drives the cost of a chain (its planned outcome, reply shape, prose
length, replica count) comes from fixed templates, so every seed gives the
same mix of work. All filler text uses one-token words, which keeps the
token counts the same across seeds as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import yaml

from intentconf.harness import LEVELS
from intentconf.prompting import GenerationRequest
from intentconf.validation import Assertion, AssertionKind

WORKLOADS = ("repair_loop", "chatty_replies", "wide_placement", "bench_sweep")

STRUCTURAL = "Structural"
STATIC = "StaticValidation"
COT = "CoTVerification"
DEPLOYMENT = "Deployment"

# Words that YAML reads as plain strings (no yes/no/on/off/null/true).
WORDS = (
    "alpha amber anchor apex arrow aspen atlas autumn badge basin beacon birch "
    "blade bloom breeze bridge bronze cabin canyon cedar chalk circuit cliff "
    "cobalt comet copper coral crane crest crystal delta desert dune eagle echo "
    "ember falcon fern field flint forest frost galaxy garnet glacier granite "
    "grove harbor hazel horizon island ivory jade juniper kernel lagoon lantern "
    "laser ledger lilac linen lotus lunar maple marble meadow meteor mint "
    "mosaic nebula nickel oasis ocean olive onyx orbit orchid panther pebble "
    "pepper pine planet plasma prairie prism quartz quill radar raven reef "
    "ridge river rocket saffron sage sandal sapphire shadow sierra signal "
    "silver slate sparrow spruce steel stone summit sunset talon thistle "
    "thunder tidal timber topaz tundra valley velvet violet willow zenith"
).split()

LABELS = ("Note", "Tip", "Summary", "Reminder", "Caveat", "Detail", "Context", "Remark")

SYSTEM_PATHS = {
    # system: (top-level section, replicas key)
    "dask": ("worker", "replicas"),
    "ray": ("worker", "replicas"),
    "redis": ("replica", "replicaCount"),
}
SYSTEMS = tuple(sorted(SYSTEM_PATHS))

GIB = 2**30
VERIFY_OK = "The configuration reflects every constraint in the intent.\nVERDICT: ALIGNED"
VERIFY_BAD = (
    "The worker count differs from the one the intent requests.\n"
    "VERDICT: MISALIGNED: replica count does not match the intent"
)


@dataclass(frozen=True)
class Plan:
    """The outcome a chain must reach: the failed stage of every attempt
    (None for the attempt that passed) and whether the chain resolved."""

    failed_stages: tuple[str | None, ...]

    @property
    def resolved(self) -> bool:
        return self.failed_stages[-1] is None

    @property
    def attempts(self) -> int:
        return len(self.failed_stages)


@dataclass
class ChainInput:
    case_id: str
    request: GenerationRequest
    assertions: tuple[Assertion, ...]
    plan: Plan


@dataclass
class ChainWorkload:
    """A single-client chain workload: run every chain, write its transcript."""

    name: str
    profile: str
    chains: list[ChainInput]
    script: dict
    docs: list[tuple[str, str]] = field(default_factory=list)
    shots: list[dict] = field(default_factory=list)
    nodes: list[tuple[int, int]] = field(default_factory=list)  # (millicores, bytes)
    job: tuple[float, float] | None = None  # (serial s, parallel core-s)
    embedded: dict[str, dict] = field(default_factory=dict)  # reply text -> tree


@dataclass
class SweepWorkload:
    """An on-disk dataset run through the harness, as ``intentconf bench`` does."""

    name: str
    profiles: tuple[str, ...]
    files: dict[str, str]  # relative path -> file text
    plans: dict[tuple[str, str], Plan]  # (profile, case id) -> plan
    counts: dict[tuple[str, int], tuple[int, int]]  # (profile, level) -> (passed, total)
    docs: list[tuple[str, str]]
    shots: dict[str, list[dict]]
    embedded: dict[str, dict]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _sentence(rng: random.Random, n: int) -> str:
    return _words(rng, n).capitalize() + "."


def _dump(tree: dict) -> str:
    return yaml.safe_dump(tree, default_flow_style=False, indent=2, sort_keys=False)


def _config(rng: random.Random, system: str, replicas: int, cpu: str, memory: str) -> dict:
    section, key = SYSTEM_PATHS[system]
    return {
        section: {
            key: replicas,
            "resources": {"limits": {"cpu": cpu, "memory": memory}},
            "threads": rng.randint(2, 8),
        },
        "labels": {"team": rng.choice(WORDS), "tier": rng.choice(WORDS)},
        "scheduler": {"port": rng.randint(8000, 8999), "dashboard": True},
    }


def _assertions(system: str, replicas: int) -> tuple[Assertion, ...]:
    section, key = SYSTEM_PATHS[system]
    return (
        Assertion(f"{section}/{key}", AssertionKind.EQUALS, replicas),
        Assertion(f"{section}/resources/limits/cpu", AssertionKind.EXISTS),
        Assertion(f"{section}/resources/limits/memory", AssertionKind.EXISTS),
    )


def _request(rng: random.Random, system: str, replicas: int, cpu: str, memory: str) -> GenerationRequest:
    team = rng.choice(WORDS)
    return GenerationRequest(
        system=system,
        prompt=f"Write the {system} configuration for the {team} team.",
        intent=(
            f"Run {replicas} {system} workers with {cpu} cpu and {memory} memory each "
            f"for the {team} team, with the dashboard enabled."
        ),
    )


def _corpus(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Documentation pages of equal token length, each about one system."""
    docs = []
    for i in range(count):
        system = SYSTEMS[i % len(SYSTEMS)]
        lines = [f"# {system} {rng.choice(WORDS)} guide"]
        for _ in range(12):
            lines.append(f"The {system} {_words(rng, 14)} replicas cpu memory {_words(rng, 4)}.")
        docs.append((f"{system}/page{i:03d}.md", "\n".join(lines)))
    return docs


def _shot(rng: random.Random, system: str) -> dict:
    tree = _config(rng, system, 2, "500m", "1Gi")
    return {
        "prompt": f"Write the {system} configuration for the {rng.choice(WORDS)} team.",
        "intent": f"Run 2 {system} workers with 500m cpu and 1Gi memory each.",
        "correct_output": _dump(tree),
    }


def _apology(rng: random.Random, lines: int) -> str:
    """A reply with no YAML mapping anywhere: prose lines without colons."""
    return "\n".join(_sentence(rng, 9) for _ in range(lines))


def repair_loop(seed: int, chains: int = 120) -> ChainWorkload:
    """The paper's loop with every gate on (lads, assertions, deployer, workload).

    Chains resolve at attempt 1, 2 or 3 or never in equal shares; the
    failing attempts rotate through Structural, StaticValidation,
    CoTVerification and Deployment (memory beyond any node).
    """
    rng = _rng("repair_loop", seed)
    rotation = [STRUCTURAL, STATIC, COT, DEPLOYMENT]
    turn = 0
    scenarios: dict[str, dict] = {}
    embedded: dict[str, dict] = {}
    out = []
    for i in range(chains):
        at = (1, 2, 3, None)[i % 4]
        case_id = f"repair-{i:04d}"
        system = SYSTEMS[i % len(SYSTEMS)]
        replicas = rng.randint(1, 4)
        request = _request(rng, system, replicas, "500m", "1Gi")
        stages: list[str | None] = []
        replies, verdicts = [], []
        for attempt in range(1, 4):
            if attempt == at:
                stage = None
            else:
                stage = rotation[turn % len(rotation)]
                turn += 1
            replicas_here = replicas + 1 if stage == STATIC else replicas
            memory = "64Gi" if stage == DEPLOYMENT else "1Gi"
            tree = _config(rng, system, replicas_here, "500m", memory)
            text = _dump(tree)
            if stage == STRUCTURAL:
                reply = _apology(rng, 2)
            elif attempt % 2:
                reply = text
                embedded[reply] = tree
            else:
                reply = f"Here is the configuration.\n```yaml\n{text}```\n"
                embedded[reply] = tree
            replies.append(reply)
            verdicts.append(VERIFY_BAD if stage == COT else VERIFY_OK)
            stages.append(stage)
            if stage is None:
                break
        scenarios[case_id] = {"replies": replies}
        scenarios[f"{case_id}#verify"] = {"replies": verdicts}
        out.append(ChainInput(case_id, request, _assertions(system, replicas), Plan(tuple(stages))))
    rng.shuffle(out)
    return ChainWorkload(
        name="repair_loop",
        profile="lads",
        chains=out,
        script={"scenarios": scenarios},
        docs=_corpus(rng, 36),
        shots=[_shot(rng, system) for system in SYSTEMS],
        nodes=[(4000, 16 * GIB)] * 4,
        job=(30.0, 3600.0),
        embedded=embedded,
    )


# Prose lines around the chatty replies, cycled separately over prose-only
# replies and config replies.
CHATTY_PROSE_LINES = (4, 6, 8, 10, 12, 14, 16, 5, 7, 9, 11, 13)


def _prose(rng: random.Random, lines: int, colon_every: int) -> list[str]:
    # Distinct labels: a repeated one would be a duplicate key, which moves
    # where the span search stops and so changes the work per seed.
    labels = iter(rng.sample(LABELS, len(LABELS)))
    out = []
    for n in range(lines):
        if n % colon_every == colon_every - 1:
            out.append(f"{next(labels)}: {_words(rng, 7)}.")
        else:
            out.append(_sentence(rng, 9))
    return out


def chatty_replies(seed: int, chains: int = 120) -> ChainWorkload:
    """ip profile with assertions: configs wrapped in prose, some replies without YAML.

    Each config sits unfenced in the middle of its prose, so extraction
    falls through to the largest-parsable-span search. Every third prose
    line reads "Label: words.", which parses as a mapping line. Plans per
    block of four: two resolve at attempt 1, one after a reply with no
    YAML, one after no YAML and then a wrong replica count.
    """
    rng = _rng("chatty_replies", seed)
    kinds = ((None,), (None,), (STRUCTURAL, None), (STRUCTURAL, STATIC, None))
    cycles = {True: 0, False: 0}
    scenarios: dict[str, dict] = {}
    embedded: dict[str, dict] = {}
    out = []
    for i in range(chains):
        stages = kinds[i % len(kinds)]
        case_id = f"chatty-{i:04d}"
        system = SYSTEMS[i % len(SYSTEMS)]
        replicas = rng.randint(1, 6)
        request = _request(rng, system, replicas, "250m", "512Mi")
        replies = []
        for stage in stages:
            prose_only = stage == STRUCTURAL
            size = CHATTY_PROSE_LINES[cycles[prose_only] % len(CHATTY_PROSE_LINES)]
            cycles[prose_only] += 1
            if prose_only:
                replies.append(_apology(rng, size))
                continue
            tree = _config(rng, system, replicas + (1 if stage == STATIC else 0), "250m", "512Mi")
            prose = _prose(rng, size, 3)
            reply = "\n".join(prose[: size // 2] + [_dump(tree).rstrip("\n")] + prose[size // 2 :])
            embedded[reply] = tree
            replies.append(reply)
        scenarios[case_id] = {"replies": replies}
        out.append(ChainInput(case_id, request, _assertions(system, replicas), Plan(stages)))
    rng.shuffle(out)
    return ChainWorkload(
        name="chatty_replies",
        profile="ip",
        chains=out,
        script={"scenarios": scenarios},
        embedded=embedded,
    )


WIDE_NODES = 200
WIDE_NODE = (8000, 32 * GIB)
# (cpu, memory) shapes; each fits 16 replicas per node, so 3200 on the cluster.
# The first is bound by memory, the second by cpu.
WIDE_SHAPES = (("100m", "2Gi"), ("500m", "256Mi"))
WIDE_FIT = (1000, 1500, 2000, 2500)
WIDE_OVER = (3300, 3600)


def wide_placement(seed: int, chains: int = 120) -> ChainWorkload:
    """ip profile with one Exists assertion, a deployer and a workload on 200 nodes.

    Replies ask for thousands of small replicas. A quarter of the chains
    first ask for more than the cluster holds (alternately bound by memory
    and by cpu), fail Deployment, then fit on attempt 2.
    """
    rng = _rng("wide_placement", seed)
    kinds = ((None,), (None,), (None,), (DEPLOYMENT, None))
    scenarios: dict[str, dict] = {}
    embedded: dict[str, dict] = {}
    out = []
    over = 0
    for i in range(chains):
        stages = kinds[i % len(kinds)]
        case_id = f"wide-{i:04d}"
        system = SYSTEMS[i % len(SYSTEMS)]
        cpu, memory = WIDE_SHAPES[i % len(WIDE_SHAPES)]
        replicas = WIDE_FIT[i % len(WIDE_FIT)]
        request = _request(rng, system, replicas, cpu, memory)
        replies = []
        for stage in stages:
            if stage == DEPLOYMENT:
                count = WIDE_OVER[over % len(WIDE_OVER)]
                over += 1
            else:
                count = replicas
            tree = _config(rng, system, count, cpu, memory)
            reply = _dump(tree)
            embedded[reply] = tree
            replies.append(reply)
        scenarios[case_id] = {"replies": replies}
        section, key = SYSTEM_PATHS[system]
        exists = (Assertion(f"{section}/{key}", AssertionKind.EXISTS),)
        out.append(ChainInput(case_id, request, exists, Plan(stages)))
    rng.shuffle(out)
    return ChainWorkload(
        name="wide_placement",
        profile="ip",
        chains=out,
        script={"scenarios": scenarios},
        nodes=[WIDE_NODE] * WIDE_NODES,
        job=(30.0, 3600.0),
        embedded=embedded,
    )


# Case kinds of the sweep: replies, verify verdicts, and the plan under ip and lads.
_SWEEP_KINDS = {
    "clean": (("ok",), ("aligned",), (None,), (None,)),
    "fix_static": (("wrong", "ok"), ("aligned", "aligned"), (STATIC, None), (STATIC, None)),
    "fix_verdict": (("ok", "ok"), ("misaligned", "aligned"), (None,), (COT, None)),
    "fix_structure": (("prose", "ok"), ("aligned", "aligned"), (STRUCTURAL, None), (STRUCTURAL, None)),
    "never": (("wrong",) * 3, ("aligned",) * 3, (STATIC,) * 3, (STATIC,) * 3),
}
_SWEEP_QUOTA = ["clean"] * 4 + ["fix_static"] * 2 + ["fix_verdict"] * 2 + ["fix_structure", "never"]


def bench_sweep(seed: int, cases: int = 240) -> SweepWorkload:
    """A dataset of cases across levels 1-6, each with its .mock.yaml, for ip and lads."""
    rng = _rng("bench_sweep", seed)
    # Ids are shuffled, so the order in which the harness sorts and runs cases changes with the seed.
    ids = list(range(cases))
    rng.shuffle(ids)
    files: dict[str, str] = {}
    plans: dict[tuple[str, str], Plan] = {}
    counts: dict[tuple[str, int], list[int]] = {}
    embedded: dict[str, dict] = {}
    for i in range(cases):
        kind = _SWEEP_QUOTA[i % len(_SWEEP_QUOTA)]
        case_id = f"sweep-{ids[i]:04d}"
        system = SYSTEMS[i % len(SYSTEMS)]
        level = LEVELS[i % len(LEVELS)]
        replicas = rng.randint(1, 6)
        request = _request(rng, system, replicas, "250m", "512Mi")
        section, key = SYSTEM_PATHS[system]
        case = {
            "id": case_id,
            "system": system,
            "level": level,
            "prompt": request.prompt,
            "intent": request.intent,
            "assertions": [
                {"path": f"{section}/{key}", "kind": "Equals", "expected": replicas},
                {"path": f"{section}/resources/limits/cpu", "kind": "Exists"},
            ],
        }
        reply_kinds, verdicts, ip_plan, lads_plan = _SWEEP_KINDS[kind]
        replies = []
        for reply_kind in reply_kinds:
            if reply_kind == "prose":
                replies.append(_apology(rng, 2))
                continue
            count = replicas if reply_kind == "ok" else replicas + 1
            tree = _config(rng, system, count, "250m", "512Mi")
            reply = _dump(tree)
            embedded[reply] = tree
            replies.append(reply)
        mock = {
            "replies": replies,
            "verify": [VERIFY_OK if v == "aligned" else VERIFY_BAD for v in verdicts],
        }
        files[f"level{level}/{case_id}.yaml"] = _dump(case)
        files[f"level{level}/{case_id}.mock.yaml"] = _dump(mock)
        for profile, stages in (("ip", ip_plan), ("lads", lads_plan)):
            plan = Plan(stages)
            plans[(profile, case_id)] = plan
            cell = counts.setdefault((profile, level), [0, 0])
            cell[0] += plan.resolved
            cell[1] += 1
    return SweepWorkload(
        name="bench_sweep",
        profiles=("ip", "lads"),
        files=files,
        plans=plans,
        counts={cell: (p, t) for cell, (p, t) in counts.items()},
        docs=_corpus(rng, 36),
        shots={system: [_shot(rng, system)] for system in SYSTEMS},
        embedded=embedded,
    )


GENERATORS = {
    "repair_loop": repair_loop,
    "chatty_replies": chatty_replies,
    "wide_placement": wide_placement,
    "bench_sweep": bench_sweep,
}
