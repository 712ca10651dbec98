"""Golden compile outputs: fingerprints and artifact contents are pinned.

Store keys and cached artifacts are content-addressed, so a change that
makes the compile passes faster must not move a single byte of their
output.  These digests were recorded from the registry benchmarks at
scale 1/32; any drift in ``ruleset_fingerprint``,
``structure_fingerprint``, the encoder, the mapper or the kernel tables
fails here before it can orphan a persisted artifact.
"""

import hashlib
import json

import pytest

from repro.compile import (
    CompiledArtifact,
    PipelineOptions,
    compile_ruleset,
    ruleset_fingerprint,
)
from repro.workloads.registry import get_benchmark

SCALE = 1.0 / 32.0

#: name -> (ruleset_fingerprint, structure_fingerprint, artifact digest)
GOLDEN = {
    "ClamAV": (
        "a8d9392dbc26ef299938c3eda9271d95c46bde0948d036b132f2f460c5332b8e",
        "a37837a4f7ed1028e282f3bdc936390e53d9d63f051a473afa537b7876198b81",
        "3e07ea2ac7b3c931fe9829faf36c30cceeeb7bee0a51eec480193dbac5c5ac6f",
    ),
    "Snort": (
        "9dc9d41f7a07f53b3256be8440648fcaddc10f103d7229aaee7fc7121202b17a",
        "35772eb3f2e0620a4e76c911e465e0059eae2f0e08fd3422fcd6d0a79db5f103",
        "44be19c7c7c5ac52493f3bd43d044b516145629548f0ed2465b7b6e62379375d",
    ),
    "SPM": (
        "abf6c01036b682dc9f7a2acd9f37188a4029bfd43bfb46a2f8fb0532dc3fdc0c",
        "f1ac935f2bce25cada8c88da9b93806084fac56a2886c80480562a00761eb1a5",
        "bf6a3946954d86db7cf492393bae75c346a974c192849f18cec3a8d2110f5dbd",
    ),
    "RandomForest": (
        "76791e60882cb6c3a5ab528b5bc9e9a25f32aae5c1dda38c599dc869ae346e07",
        "99372b1f47c085de0d6e424aec544484f689e1d1215bebee71a58032408a5041",
        "337d9ff62ee2bf1ec5c3537ddccd755da87e8b97ab07445d5e2802c41ac3e31f",
    ),
}


def artifact_digest(artifact: CompiledArtifact) -> str:
    """Digest of every array plus the manifest minus its pass timings."""
    manifest = {k: v for k, v in artifact.manifest.items() if k != "timings"}
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for name in sorted(artifact.arrays):
        array = artifact.arrays[name]
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def registry_ruleset(request):
    return request.param, get_benchmark(request.param, SCALE).automaton


def test_fingerprints_are_pinned(registry_ruleset):
    name, automaton = registry_ruleset
    language, structure, _ = GOLDEN[name]
    assert ruleset_fingerprint(automaton) == language
    assert automaton.structure_fingerprint() == structure


def test_artifact_contents_are_pinned(registry_ruleset):
    name, automaton = registry_ruleset
    artifact = CompiledArtifact.from_compiled(
        compile_ruleset(automaton, PipelineOptions())
    )
    assert artifact_digest(artifact) == GOLDEN[name][2]
    # the loaded form carries the same bytes (program arrays included)
    loaded = CompiledArtifact.from_bytes(artifact.to_bytes())
    assert artifact_digest(loaded) == GOLDEN[name][2]
