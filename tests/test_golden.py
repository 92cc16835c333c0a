"""Pinned report digests: a refactor that keeps every RNG draw in place keeps
these sha256 digests of json.dumps(report, sort_keys=True) unchanged.  Also
guards against module-level mutable state in the package, and checks that
the benchmark's trace hooks still find every layer function they name."""

import hashlib
import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import hslattice
from hslattice.experiments import run_hsp_experiment, run_shift_experiment

HSP_DIGESTS = {
    (1, 1): "0b42bcc3b60617a1334e7c75907ced997852fd5dfae40a6010f76b0356a639d7",
    (1, 2): "b304e7152463cb888ecdd70059c4d5f0681624e5ee5f6976a0986057b29d548c",
    (2, 1): "30751a36c0e6162e75b5bb5e2329cb45cde2f6acfb6c47314436ede53e4e4f5a",
    (2, 2): "4302cc159beae3cad6cf798e5056bd2103e66e33ea1a720f0497722cc6239c59",
    (3, 1): "2dc389725c9ce4704ac8ab94624662dc1da779ee3d24c0456b95e8b072dfc39e",
    (3, 2): "8f2d98da8c8e93486063745b147e823424ac35e8d5f5aab5e7c3315d95e87506",
    (4, 1): "365dce5cf33bc7935e9b64156ab5bbf00044ac819d810b14cca1217510d16430",
    (4, 2): "017a34d305d3faf57516830c89b105185b8825c1d2e28c324b840b463d1e1007",
    (5, 1): "95ac2b8f0139ddfbcd70eaadd3be10e3f21534731529c94defad953ce46b80e7",
    (5, 2): "84a82dc7c70447b6e6073e969c2f5d816ab182e38506106a6e3bee4c8b9dfb5e",
}

# Multi-stage HSP reports (k = 5, n = 160: five coarse stages).  A full-rank
# secret stops swapping after the first stage, so its last stage is swap-free;
# a rank-4 secret swaps in every stage.
MULTI_STAGE_CASES = [
    ({"k": 5, "secret": {"random_rank": 5, "entry_bound": 64}, "n": 160},
     "e4da61447a77de257bbcbd87d687f2e7e2e10a81e74a1a6d948616ed50290fa3"),
    ({"k": 5, "secret": {"random_rank": 4, "entry_bound": 64}, "n": 160},
     "ff714e93c9ddbc4e0f7905765a0d77c663d97bf9eb90bc65ce4c2e75f6873015"),
]

SHIFT_CASES = [
    ({"k": 1, "basis": [[8]], "t": 2, "shift_bound": 3, "check": True}, "exact", 3,
     "6bc4fcfcef646b95a73843372ea0083fb0d1fab31bd3438805742b60069a77cb"),
    ({"k": 1, "basis": [[2]], "t": 1}, "gaussian", 3,
     "da258f37dd1298ba855eaff26dfd681af0e6d105439aea97f6b0d2031ed7ed9a"),
    ({"k": 1, "basis": [], "t": 1}, "gaussian", 3,
     "fd27ccad91d5afef516177c83b209b0441006834234d1d9596bd815927fec1fb"),
    ({"k": 2, "basis": [[4, 0], [0, 4]], "t": 2, "check": True}, "exact", 2,
     "4618cc83f81c5121ebf765c5fcf5edd83412627a60effd4076a0172e7a8dfbea"),
    ({"k": 1, "basis": [[8]], "t": 2}, "gaussian", 3,
     "a6b03cac1f2d0a110a9be17a4a60fa135f4580e77cbf04a7c95be4765ca66975"),
    ({"k": 1, "basis": [], "t": 1, "check": True}, "exact", 3,
     "a0bfe40d144ccc6d13a742da4808f4dd21febb03a64f9869b3ef78500b6c0a28"),
]


def digest(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("k,seed", sorted(HSP_DIGESTS))
def test_hsp_report_digest(k, seed):
    descriptor = {"k": k, "secret": {"random_rank": "random", "entry_bound": 16}}
    report = run_hsp_experiment(descriptor, seed=seed, trials=5, debug_trace=True)
    assert digest(report) == HSP_DIGESTS[k, seed]


@pytest.mark.parametrize("descriptor,expected", MULTI_STAGE_CASES,
                         ids=["k5-full-rank", "k5-rank-4"])
def test_multi_stage_hsp_report_digest(descriptor, expected):
    report = run_hsp_experiment(descriptor, seed=1, trials=3, debug_trace=True)
    assert digest(report) == expected


@pytest.mark.parametrize("descriptor,noise,trials,expected", SHIFT_CASES,
                         ids=["exact-8-t2", "gaussian-2-t1", "gaussian-trivial-t1",
                              "exact-diag44-t2", "gaussian-8-t2", "exact-trivial-t1"])
def test_shift_report_digest(descriptor, noise, trials, expected):
    report = run_shift_experiment(descriptor, seed=1, trials=trials, noise=noise)
    assert digest(report) == expected


def test_no_module_level_mutable_state():
    """Per-lattice data lives on the Lattice; no module holds a cache."""
    found = []
    for info in pkgutil.iter_modules(hslattice.__path__):
        module = importlib.import_module(f"hslattice.{info.name}")
        for name, value in vars(module).items():
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and isinstance(value, (dict, list, set)):
                found.append(f"{info.name}.{name}")
    assert found == []


def test_submodule_attributes_are_the_modules():
    """A name re-exported by the package must not shadow a submodule."""
    for info in pkgutil.iter_modules(hslattice.__path__):
        module = importlib.import_module(f"hslattice.{info.name}")
        assert getattr(hslattice, info.name) is module, info.name


def load_tracing():
    """perfbench/tracing.py, loaded from its file without importing perfbench."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def run_cli_lll(tmp_path):
    """`hslattice lattice lll` on a 2 x 2 matrix file, through the loaded CLI."""
    path = tmp_path / "matrix.txt"
    path.write_text("2 2\n3 1\n4 5\n")
    assert sys.modules["hslattice.cli"].main(["lattice", "lll", str(path)]) == 0


def test_trace_layers_resolve():
    """perfbench/tracing.py wraps each LAYERS function by name, so a rename in
    the package breaks benchmark runs with `--trace 1`, which nothing else here
    exercises."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _, module_name, attr in tracing.LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            assert hasattr(getattr(owner, attr), "__wrapped__"), f"{module_name}.{attr} is not traced"
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("run,layers", [
    (lambda ex, _: ex.run_hsp_experiment(
        {"k": 1, "secret": {"random_rank": "random", "entry_bound": 16}}, seed=1, trials=1),
     ["lattice.dual_sample_uniform"]),
    (lambda ex, _: ex.run_shift_experiment(
        {"k": 1, "basis": [[8]], "t": 1, "check": True}, seed=1, trials=1, noise="exact"),
     ["lattice.dual_sample_uniform", "lattice.dual_membership", "sieve.create_qubit",
      "sieve.tensor", "sieve.collimate", "sieve.shorten", "sieve.lift_shift"]),
    (lambda ex, _: ex.run_hsp_experiment(
        {"k": 2, "secret": {"random_rank": 1, "entry_bound": 16}}, seed=1, trials=1),
     ["alg_a.finite_stage", "matrix.snf_rational", "lattice.Lattice.from_generators"]),
    (lambda _, tmp: run_cli_lll(tmp), ["lll.lll"]),
], ids=["hsp-k1", "sieve-exact", "hsp-rank1", "cli-lll"])
def test_trace_layers_count_live_runs(run, layers, tmp_path):
    """A layer that resolves can still read 0 when the pipelines stop calling
    it by that name; one traced trial of each pipeline must count its calls."""
    # install() patches the names that loaded modules hold, so the CLI loads first.
    importlib.import_module("hslattice.cli")
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        run(sys.modules["hslattice.experiments"], tmp_path)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for name in layers:
        assert metrics[f"{name}.calls"] > 0, name
    if "lll.lll" in layers:
        # the input-size hook reads lll's RatMatrix argument: its least
        # denominator and its entries
        assert metrics["lll.lll.input_bits_p50"] > 0
