"""Seeded inputs and their oracle-checked expected reports.

Every workload's corpus comes from ``--seed`` through
:mod:`repro.workloads`: the registry automaton of each named benchmark
(scale 1/32) and :func:`~repro.workloads.benchmark_input` streams at the
default injection rate.  The program under test receives only the
generated bytes: the ruleset as an MNRL document and the stream data.

Expected reports come from the deliberately naive ``NfaOracle`` in
``tests/oracle.py``, run outside any timed window on the same MNRL
document the program receives, and are cached on disk by (ruleset
digest, stream digest) so a repeated seed skips the oracle.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.util
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.automata.mnrl import dumps_mnrl, loads_mnrl
from repro.workloads import DEFAULT_INJECTION_RATE, benchmark_input, get_benchmark

#: shrink factor applied to the registry benchmarks' published sizes
SCALE = 1.0 / 32.0


def report_keys(reports) -> list[tuple]:
    """Reports as comparable ``(cycle, state_id, code)`` triples."""
    return [(r.cycle, r.state_id, r.code) for r in reports]


@dataclass
class Rules:
    """One ruleset as the program receives it."""

    name: str
    text: str
    digest: str


@dataclass
class Stream:
    """One seeded input stream and the oracle's reports for it."""

    name: str
    rules: int
    data: bytes
    expected: list[tuple] = field(repr=False)

    def __post_init__(self) -> None:
        self._cycles = [key[0] for key in self.expected]

    def expected_between(self, start: int, end: int) -> list[tuple]:
        """Expected reports whose cycle lies in ``[start, end)``."""
        low = bisect.bisect_left(self._cycles, start)
        high = bisect.bisect_left(self._cycles, end)
        return self.expected[low:high]


@dataclass
class Corpus:
    rulesets: list[Rules]
    streams: list[Stream]

    @property
    def digest(self) -> str:
        """sha256 over every ruleset document and stream, in order."""
        h = hashlib.sha256()
        for rules in self.rulesets:
            h.update(rules.digest.encode())
        for stream in self.streams:
            h.update(hashlib.sha256(stream.data).digest())
        return h.hexdigest()

    @property
    def total_bytes(self) -> int:
        return sum(len(s.data) for s in self.streams)


def _load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", root / "tests" / "oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.NfaOracle


def stream_seed(seed: int, workload: str, benchmark: str, index: int) -> int:
    """A per-stream generator seed derived from the run's ``--seed``."""
    text = f"{seed}/{workload}/{benchmark}/{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def _expected(oracle, rules: Rules, data: bytes, cache_dir: Path) -> list[tuple]:
    path = cache_dir / (
        f"{rules.digest[:16]}-{hashlib.sha256(data).hexdigest()[:16]}.json"
    )
    if path.exists():
        return [tuple(key) for key in json.loads(path.read_text())]
    keys = report_keys(oracle.run(data).reports)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(keys))
    tmp.replace(path)
    return keys


def build_corpus(
    workload: str,
    seed: int,
    plan: list[tuple[str, int, int]],
    *,
    root: Path,
    cache_dir: Path,
) -> Corpus:
    """Build ``plan`` = ``[(benchmark, num_streams, stream_bytes), ...]``.

    Stream names interleave the rulesets (stream ``i`` of every ruleset
    before stream ``i + 1``), so cycling through the list keeps the
    ruleset mix even.
    """
    NfaOracle = _load_oracle(root)
    rulesets: list[Rules] = []
    per_rules: list[list[Stream]] = []
    for index, (benchmark, count, length) in enumerate(plan):
        text = dumps_mnrl(get_benchmark(benchmark, SCALE).automaton)
        automaton = loads_mnrl(text)
        rules = Rules(
            name=benchmark,
            text=text,
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )
        rulesets.append(rules)
        oracle = NfaOracle(automaton)
        streams = []
        for i in range(count):
            data = benchmark_input(
                automaton,
                length=length,
                seed=stream_seed(seed, workload, benchmark, i),
                injection_rate=DEFAULT_INJECTION_RATE,
            )
            streams.append(
                Stream(
                    name=f"{benchmark}-{i}",
                    rules=index,
                    data=data,
                    expected=_expected(oracle, rules, data, cache_dir),
                )
            )
        per_rules.append(streams)
    interleaved = [
        stream
        for group in itertools.zip_longest(*per_rules)
        for stream in group
        if stream is not None
    ]
    return Corpus(rulesets=rulesets, streams=interleaved)
