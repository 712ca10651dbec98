"""Compile once, load anywhere: the staged pipeline + artifact flow.

    python examples/compile_once.py

Walks the deployment shape the artifact layer exists for:

1. compile a ruleset through the staged pipeline (per-pass timings);
2. serialize it to a single ``.npz`` artifact;
3. "cold-start" a second consumer from the artifact alone — no
   parsing, no encoding selection, no mapping — and check the reports
   are byte-identical;
4. run a service with a persistent artifact cache, restart it, and
   watch the restart skip compilation;
5. upload the artifact to a network server so *registration* costs an
   upload instead of a compile.
"""

import tempfile
import time
from pathlib import Path

from repro.api import ScanConfig
from repro.automata import compile_regex_set
from repro.compile import CompiledArtifact, compile_ruleset
from repro.service import BackgroundServer, MatchingClient, MatchingService
from repro.sim import Engine

RULES = {
    "paper": "(a|b)e*cd+",
    "hex": r"0x[0-9a-f]{2,4}",
    "word": r"c(at|ow|amel)s?",
}
PAYLOAD = b"aecd 0xbeef cats camels abcd" * 500


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-artifacts-"))
    ruleset = compile_regex_set(RULES, name="compile-once")

    # 1. The staged pipeline, timed pass by pass.
    start = time.perf_counter()
    compiled = compile_ruleset(ruleset)
    cold = time.perf_counter() - start
    print(f"cold compile: {cold * 1e3:.1f} ms")
    for name, ms, note in compiled.timing_rows():
        print(f"  {name:9s} {ms:>7s} ms  {note}")

    # 2. Serialize.  The key is content-addressed: language fingerprint
    #    mixed with the pipeline options.
    artifact_path = CompiledArtifact.from_compiled(compiled).save(
        workdir / "ruleset.npz"
    )
    print(f"\nartifact: {artifact_path.name} "
          f"({artifact_path.stat().st_size} bytes)")

    # 3. A second consumer loads the artifact instead of compiling.
    start = time.perf_counter()
    loaded = CompiledArtifact.load(artifact_path)
    engine = loaded.engine()
    warm = time.perf_counter() - start
    print(f"warm load:    {warm * 1e3:.1f} ms "
          f"({cold / warm:.0f}x faster than compiling)")
    fresh = engine.run(PAYLOAD)
    direct = Engine(ruleset).run(PAYLOAD)
    assert [(r.cycle, r.state_id) for r in fresh.reports] == [
        (r.cycle, r.state_id) for r in direct.reports
    ]
    print(f"reports byte-identical: {fresh.stats.num_reports} reports")

    # 4. A service with a persistent artifact cache survives restarts warm.
    cache = workdir / "cache"
    with MatchingService(ScanConfig(artifact_store=cache)) as service:
        service.scan(ruleset, PAYLOAD)
    with MatchingService(ScanConfig(artifact_store=cache)) as restarted:
        restarted.scan(ruleset, PAYLOAD)
        stats = restarted.manager.stats
        print(f"service restart: disk_hits={stats.disk_hits}, "
              f"disk_misses={stats.disk_misses} (0 = nothing recompiled)")

    # 5. Upload the precompiled artifact to a server.
    with BackgroundServer() as server:
        with MatchingClient(port=server.port) as client:
            handle = client.register_artifact(artifact_path)
            result = client.scan(handle, PAYLOAD)
            print(f"server upload: handle {handle[:12]}..., "
                  f"{result.num_reports} reports over the wire")


if __name__ == "__main__":
    main()
