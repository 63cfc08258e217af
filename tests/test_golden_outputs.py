"""Every output of the benchmark's three workloads on seeds 0-9, pinned by digest.

golden_outputs.json holds the sha256 of each output on seeds 0-9 of the
benchmark's workloads. For crowd and census (the count path): each stream file,
`count` stdout and `--report` under every aggregator, and one `eval` table per
workload and seed over its default-aggregator reports. For transport (the loss
path): each stream file, `loss` stdout and the `pseudo --out` file, at the CLI
defaults. Paths are masked. The file also records the numpy, BLAS and orjson
builds it was made with, and the CPU kernel set OpenBLAS picked at load time,
because the digests depend on matmul rounding and stream files on orjson's float
printing; a mismatch names the first differing output and both builds.

A change that alters an output on purpose re-records the file and says why.
Run this file as a script to re-record golden_outputs.json.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest

import vicount
from vicount import SimConfig, generate_scene, write_stream
from vicount.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEEDS = range(10)
AGGREGATORS = ("max", "min", "mean")
# The scene settings of the benchmark's workloads: (scene, videos, identities).
# Stream i of seed S uses the simulator seed S + i and, when identities is given,
# identities[i % len(identities)] individuals.
WORKLOADS = {
    "crowd": (dict(num_identities=300, num_frames=12, feature_dim=64,
                   feature_noise_sigma=0.05, max_base_similarity=0.3), 2, ()),
    "census": (dict(num_frames=15, feature_dim=64, max_base_similarity=0.3), 10,
               (30, 40, 55, 70, 85, 100, 120, 145, 170, 200)),
    "transport": (dict(num_identities=900, num_frames=5, feature_dim=64,
                       feature_noise_sigma=0.1), 8, ()),
}


def _streams(workload: str, seed: int) -> list[tuple[str, SimConfig]]:
    """(name, config) of each stream of one workload and seed; equal scenes share a name."""
    scene, videos, identities = WORKLOADS[workload]
    out = []
    for i in range(videos):
        kw = dict(scene, seed=seed + i)
        name = f"{workload}-s{seed + i}"
        if identities:
            kw["num_identities"] = identities[i % len(identities)]
            name += f"-n{kw['num_identities']}"
        out.append((name, SimConfig(**kw)))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], directory: Path) -> bytes:
    """stdout of one in-process CLI call, with the directory's path masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().replace(str(directory), "<dir>").encode()


def _count_outputs(name: str, path: Path, directory: Path) -> dict[str, str]:
    """Digests of one stream's `count` stdout and report under every aggregator."""
    digests = {}
    for aggregator in AGGREGATORS:
        report = directory / f"{name}-{aggregator}.json"
        stdout = _run(["count", "--in", str(path), "--video-id", name, "--report",
                       str(report), "--aggregator", aggregator], directory)
        digests[f"count {name} {aggregator} stdout"] = _sha256(stdout)
        digests[f"count {name} {aggregator} report"] = _sha256(report.read_bytes())
    return digests


def _transport_outputs(name: str, path: Path, directory: Path) -> dict[str, str]:
    """Digests of one stream's `loss` stdout and `pseudo --out` file."""
    pseudo = directory / f"{name}-pseudo.jsonl"
    loss = _run(["loss", "--in", str(path)], directory)
    _run(["pseudo", "--in", str(path), "--out", str(pseudo)], directory)
    return {f"loss {name} stdout": _sha256(loss), f"pseudo {name} file": _sha256(pseudo.read_bytes())}


def _record(workload: str, directory: Path) -> dict[str, str]:
    """Digest of every output of one workload over SEEDS, in the order they are made."""
    outputs = _transport_outputs if workload == "transport" else _count_outputs
    digests = {}
    for seed in SEEDS:
        reports = []
        for name, cfg in _streams(workload, seed):
            path = directory / f"{name}.jsonl"
            reports.append(str(directory / f"{name}-max.json"))
            if f"stream {name}" in digests:
                continue
            write_stream(generate_scene(cfg), path)
            digests[f"stream {name}"] = _sha256(path.read_bytes())
            digests.update(outputs(name, path, directory))
        if workload != "transport":
            digests[f"eval {workload} seed {seed}"] = _sha256(_run(["eval", *reports], directory))
    return digests


def _blas_core() -> str | None:
    """The kernel set the loaded OpenBLAS picked for this CPU, or None where it cannot be read.

    Only numpy's bundled scipy-openblas names it, through scipy_openblas_get_corename64_;
    the library is found among the files this process has mapped, which Linux lists.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next(line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line)
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _provenance() -> dict[str, str | None]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "blas_core": _blas_core(),
            "orjson": orjson.__version__}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_outputs_are_the_recorded_ones(golden, workload, tmp_path):
    want, got = golden["outputs"][workload], _record(workload, tmp_path)
    assert list(got) == list(want), "the set of outputs changed"
    first = next((name for name in want if got[name] != want[name]), None)
    assert first is None, (f"{first} differs from its recorded digest; recorded under "
                           f"{golden['provenance']}, running under {_provenance()}")


# Kernel sets that OpenBLAS's DYNAMIC_ARCH builds can be made to load on x86.
KERNELS = ("Haswell", "Sandybridge", "Prescott")

# Run in a fresh interpreter: the kernel set it loaded, and the digests of `loss` and
# `pseudo` on the stream kernel.jsonl in the directory argv[2].
_UNDER_KERNEL = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden_outputs import _blas_core, _transport_outputs
directory = Path(sys.argv[2])
digests = _transport_outputs("kernel", directory / "kernel.jsonl", directory)
print(json.dumps([_blas_core(), digests]))
"""


@pytest.fixture(scope="module")
def kernel_stream(tmp_path_factory):
    """A small labeled stream written under the default kernel set, and its loss-path digests."""
    directory = tmp_path_factory.mktemp("default-kernel")
    path = directory / "kernel.jsonl"
    write_stream(generate_scene(SimConfig(num_identities=300, num_frames=4, feature_dim=64,
                                          feature_noise_sigma=0.1, seed=0)), path)
    return path, _transport_outputs("kernel", path, directory)


@pytest.mark.parametrize("coretype", KERNELS)
def test_loss_path_outputs_do_not_depend_on_the_blas_kernel(kernel_stream, coretype, tmp_path):
    # The solver's sums are matrix-vector products, whose summation order differs by
    # kernel set; what `loss` prints and `pseudo` writes must not.
    path, want = kernel_stream
    shutil.copy(path, tmp_path / path.name)
    search = [str(Path(vicount.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, search))}
    done = subprocess.run([sys.executable, "-c", _UNDER_KERNEL, str(Path(__file__).parent),
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    core, got = json.loads(done.stdout)
    default = _blas_core()
    if core is None:
        pytest.skip("the loaded OpenBLAS does not name its kernel set")
    if core == default:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} loads the default kernel set, {default}")
    assert got == want, f"loss path outputs under {core} differ from those under {default}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        outputs = {workload: _record(workload, Path(directory)) for workload in WORKLOADS}
    GOLDEN.write_text(json.dumps({"provenance": _provenance(), "outputs": outputs}, indent=1)
                      + "\n")
    print(f"{sum(map(len, outputs.values()))} digests -> {GOLDEN}")
