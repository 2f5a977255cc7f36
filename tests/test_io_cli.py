import concurrent.futures
import functools
import importlib
import importlib.util
import json
import multiprocessing
import subprocess
import sys
import time

import numpy as np
import pytest

import qps
from qps import channels as ch
from qps import fisher as fi
from qps import io as qio
from qps import mean_magic as mm
from qps import cli, states, verify
from qps.cli import main
from qps.config import Tolerances
from qps.errors import TooLargeError

from helpers import random_mixed_unitary_channel


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qps.cli", *args], capture_output=True, text=True
    )


def test_state_json_round_trip(tmp_path):
    rho = states.random_state(1, 3, seed=4)
    dense = tmp_path / "dense.json"
    sparse = tmp_path / "char.json"
    qio.write_state(rho, dense, form="dense")
    qio.write_state(rho, sparse, form="char")
    for path in (dense, sparse):
        back = qio.read_state(path)
        assert back.d == 3 and back.n == 1
        assert np.abs(back.mat - rho.mat).max() < 1e-10
    obj = json.loads(dense.read_text())
    assert set(obj) == {"d", "n", "matrix"}
    obj = json.loads(sparse.read_text())
    assert set(obj) == {"d", "n", "char"}
    assert all(set(e) == {"p", "q", "re", "im"} for e in obj["char"])


def test_channel_json_round_trip(tmp_path):
    lam = ch.random_channel(1, 3, seed=5)
    path = tmp_path / "chan.json"
    qio.write_channel(lam, path)
    obj = json.loads(path.read_text())
    assert obj["kind"] == "choi" and obj["n_doubled"] == 2
    back = qio.read_channel(path)
    assert np.abs(back.choi.mat - lam.choi.mat).max() < 1e-10
    qio.write_channel(lam, path, form="char")
    back = qio.read_channel(path)
    assert np.abs(back.choi.mat - lam.choi.mat).max() < 1e-10


def test_cli_params():
    r = run_cli("params", "--d", "7")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["circle"]["count"] == 1
    assert rep["circle"]["classes"][0]["representative"] == [2, 2]
    assert rep["hyperbola"]["count"] == 1
    assert rep["circle"]["formula"] == 1
    r = run_cli("params", "--d", "17")
    rep = json.loads(r.stdout)
    assert rep["circle"]["count"] == rep["circle"]["formula"] == 2
    r = run_cli("params", "--d", "2")
    rep = json.loads(r.stdout)
    assert rep["circle"]["count"] == 0 and "note" in rep
    r = run_cli("params", "--d", "9")
    assert r.returncode == 2


def test_cli_clt_and_determinism():
    r1 = run_cli("clt", "--d", "7", "--st", "2,2", "--seed", "1", "--N", "6")
    assert r1.returncode == 0, r1.stderr
    lines = r1.stdout.strip().split("\n")
    assert lines[0] == "N,l2_distance,paper_bound,H_0.5,H_1.0,H_2.0,H_inf"
    assert len(lines) == 8
    r2 = run_cli("clt", "--d", "7", "--st", "2,2", "--seed", "1", "--N", "6")
    assert r2.stdout == r1.stdout
    # stabilizer-like seed path still exits 0; bad family reports usage error
    r = run_cli("clt", "--d", "5", "--family", "beam-splitter", "--seed", "1")
    assert r.returncode == 2
    assert "no (s,t) classes for d=5" in r.stderr


def test_cli_default_params(tmp_path):
    # d = 3 and d = 5 have no beam-splitter class; the default G is Hadamard
    for cmd in ("clt", "entropy-sweep"):
        for d in ("3", "5"):
            r = run_cli(cmd, "--d", d, "--N", "3")
            assert r.returncode == 0, (cmd, d, r.stderr)
    assert run_cli("clt").returncode == 0
    # at d = 7 the default is the beam splitter of the first class, (2, 2)
    r_default = run_cli("clt", "--d", "7", "--seed", "1", "--N", "3")
    r_st = run_cli("clt", "--d", "7", "--st", "2,2", "--seed", "1", "--N", "3")
    assert r_default.returncode == 0 and r_default.stdout == r_st.stdout
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    qio.write_state(states.random_state(1, 3, seed=1), a)
    qio.write_state(states.random_state(1, 3, seed=2), b)
    assert main(["conv", str(a), str(b), "--out", str(tmp_path / "c.json")]) == 0


def test_cli_verify_qubits(tmp_path):
    out = tmp_path / "verify.json"
    for n in ("1", "2"):
        code = main(["verify", "--suite", "all", "--d", "2", "--n", n, "--seeds", "2",
                     "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["pass"]
        names = {c["name"] for c in rep["checks"]}
        assert "entropy.second_law" in names and "entropy.equality_case" not in names


def test_cli_gap(tmp_path, t_state):
    path = tmp_path / "t.json"
    qio.write_state(t_state, path)
    r = run_cli("gap", str(path))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert abs(rep["gap"] - 0.29289321881345254) < 1e-9
    assert rep["support_size"] == 3
    assert rep["tolerances"]["tol_one"] == 1e-8
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2,\n "n": ???}')
    r = run_cli("gap", str(bad))
    assert r.returncode == 2 and "line 2" in r.stderr


def test_cli_tolerance_override_ends_with_its_run(tmp_path):
    # three runs in one process: the second run's override must not reach the third
    path = tmp_path / "eta.json"
    qio.write_state(fi.smooth(states.basis_state(0, 3), 1e-7), path)
    reports = []
    for k, extra in enumerate(([], ["--tol-one", "1e-6"], [])):
        out = tmp_path / f"gap{k}.json"
        assert main(["gap", str(path), *extra, "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[2] == reports[0]
    assert json.loads(reports[0])["group_size"] == 1
    assert json.loads(reports[1])["group_size"] == 3


def test_cli_conv(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out = tmp_path / "out.json"
    qio.write_state(states.basis_state(0, 7), a)
    qio.write_state(states.basis_state(0, 7), b, form="char")
    code = main(["conv", "--st", "2,2", str(a), str(b), "--out", str(out)])
    assert code == 0
    res = qio.read_state(out)
    assert np.abs(res.mat - states.basis_state(0, 7).mat).max() < 1e-10


def test_cli_channel_clt(tmp_path):
    path = tmp_path / "chan.json"
    qio.write_channel(random_mixed_unitary_channel(1, 7, seed=2), path)
    out = tmp_path / "traj.csv"
    code = main(["channel-clt", str(path), "--st", "2,2", "--N", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,choi_l2_distance,paper_bound,diamond_bound,shifted,shift_p,shift_q"
    assert len(lines) == 6
    # a channel with a nontrivial mean gets shifted and says so
    wch = ch.weyl_conjugation_channel((1, 0), 7)
    qio.write_channel(wch, path)
    code = main(["channel-clt", str(path), "--st", "2,2", "--N", "2", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(row.split(",")[4] == "1" for row in rows)
    # the shift is a point of the Choi state's 2n = 2 qudits: p and q get 2 entries each
    shift, _ = ch.zero_mean_channel_shift(wch)
    assert len(shift) == 4
    want = [".".join(str(v) for v in shift[:2]), ".".join(str(v) for v in shift[2:])]
    assert all(row.split(",")[5:] == want for row in rows)


def test_cli_channel_clt_default_params(tmp_path):
    # d = 3 and d = 5 have no beam-splitter class; the default G serves them
    for d in (3, 5):
        path = tmp_path / f"chan{d}.json"
        qio.write_channel(random_mixed_unitary_channel(1, d, seed=1), path)
        r = run_cli("channel-clt", str(path), "--N", "3")
        assert r.returncode == 0, (d, r.stderr)
        assert len(r.stdout.strip().split("\n")) == 5
    # at d = 7 the default is the beam splitter of the first class, (2, 2)
    path = tmp_path / "chan7.json"
    qio.write_channel(random_mixed_unitary_channel(1, 7, seed=2), path)
    r_default = run_cli("channel-clt", str(path), "--N", "3")
    r_st = run_cli("channel-clt", str(path), "--st", "2,2", "--N", "3")
    assert r_default.returncode == 0 and r_default.stdout == r_st.stdout


def test_cli_clt_refuses_non_positive_g(capsys):
    # d = 2 has no positive G; an explicit non-positive G is refused the same way
    for argv in (["--d", "2", "--n", "2", "--N", "6"], ["--d", "3", "--g", "1,0,1,1", "--N", "2"]):
        assert main(["clt", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UnsupportedGError") and "positive G" in err


def test_cli_channel_clt_refuses_non_positive_g(tmp_path, capsys):
    path = tmp_path / "chan2.json"
    qio.write_channel(random_mixed_unitary_channel(1, 2, seed=1), path)
    out = tmp_path / "traj.csv"
    assert main(["channel-clt", str(path), "--N", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnsupportedGError") and "d=2" in err
    assert not out.exists()


def test_cli_rejects_flags_a_command_does_not_read(tmp_path):
    path = tmp_path / "rho.json"
    qio.write_state(states.random_state(1, 3, seed=1), path)
    assert run_cli("gap", str(path)).returncode == 0
    for extra in (["--jobs", "2"], ["--d", "3"], ["--seed", "1"]):
        r = run_cli("gap", *extra, str(path))
        assert r.returncode == 2 and "unrecognized arguments" in r.stderr
    assert run_cli("params", "--n", "2").returncode == 2
    assert run_cli("clt", "--jobs", "2", "--N", "1").returncode == 2
    for args in (["entropy-sweep", "--N", "1", "--tol-one", "0.5"],
                 ["entropy-sweep", "--N", "1", "--tol-supp", "0.5"],
                 ["conv", "--tol-one", "0.5", str(path), str(path)],
                 ["params", "--d", "13", "--tol-one", "0.5"],
                 ["params", "--d", "13", "--tol-supp", "0.5"]):
        r = run_cli(*args)
        assert r.returncode == 2 and "unrecognized arguments" in r.stderr
    # only the char form reads --tol-supp
    r = run_cli("conv", "--tol-supp", "0.5", str(path), str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: --tol-supp is read only by --form char\n"
    r = run_cli("conv", "--form", "char", "--tol-supp", "0.5", str(path), str(path))
    assert r.returncode == 0, r.stderr


def test_cli_entropy_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "entropy-sweep", "--d", "7", "--st", "2,2", "--seed", "2", "--N", "5",
        "--alphas", "0.5,1,2,inf", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,H_0.5,H_1.0,H_2.0,H_inf"
    cols = np.array([[float(v) for v in row.split(",")[1:]] for row in lines[1:]])
    assert (np.diff(cols, axis=0) > -1e-8).all()


def test_cli_verify(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--suite", "hudson", "--d", "3", "--seeds", "100", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and rep["suite"] == "hudson"
    assert {c["name"] for c in rep["checks"]} == {
        "hudson.stabilizers_nonnegative",
        "hudson.random_pure_negative",
    }
    code = main(["verify", "--suite", "nonsense", "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("suite", ["channels", "all"])
def test_cli_verify_refuses_oversized_channel_oracle(suite, monkeypatch, capsys):
    # refused before any suite runs: every suite function would fail the test
    def never(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "_SUITE_FNS", {key: never for key in verify._SUITE_FNS})
    assert main(["verify", "--suite", suite, "--d", "5", "--n", "2"]) == 2
    assert "TooLargeError" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["weyl", "all"])
def test_cli_verify_refuses_oversized_weyl_stack(suite, monkeypatch, capsys):
    # the weyl suite stacks d^4n entries: refused past the table cap, before any suite runs
    ran = []
    monkeypatch.setattr(verify, "_SUITE_FNS",
                        {key: (lambda *args, key=key: ran.append(key) or []) for key in verify.SUITES})
    monkeypatch.setenv("QPS_MAX_DIM", "80")
    with pytest.raises(TooLargeError):
        verify.run_suite(suite, 3, 1, 2)
    assert main(["verify", "--suite", suite, "--d", "3", "--n", "1", "--seeds", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: TooLargeError: the weyl suite stacks d^4n = 3^4 entries, "
        "past the dense-table cap 80\n"
    )
    assert ran == []
    monkeypatch.setenv("QPS_MAX_DIM", "81")
    verify.run_suite(suite, 3, 1, 2)
    assert "weyl" in ran


def test_env_dimension_cap(tmp_path):
    import os
    import subprocess

    env = dict(os.environ, QPS_MAX_DIM="10")
    r = subprocess.run(
        [sys.executable, "-m", "qps.cli", "clt", "--d", "7", "--st", "2,2", "--seed", "1", "--N", "2"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert "TooLarge" in r.stderr


def test_env_dimension_cap_not_integer():
    import os

    env = dict(os.environ, QPS_MAX_DIM="abc")
    r = subprocess.run(
        [sys.executable, "-m", "qps.cli", "params", "--d", "3"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "QPS_MAX_DIM" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_zero_tolerances_reach_report(tmp_path):
    path = tmp_path / "rho.json"
    qio.write_state(states.random_state(1, 3, seed=1), path)
    r = run_cli("gap", str(path), "--tol-one", "0", "--tol-supp", "0")
    assert r.returncode == 0, r.stderr
    tol = json.loads(r.stdout)["tolerances"]
    assert tol["tol_one"] == 0.0 and tol["tol_supp"] == 0.0


def test_cli_verify_seed(tmp_path):
    base = ["verify", "--suite", "duality", "--d", "3", "--seeds", "2"]
    paths = {}
    for tag, extra in (("default", []), ("zero", ["--seed", "0"]), ("seven", ["--seed", "7"])):
        paths[tag] = tmp_path / f"{tag}.json"
        assert main(base + extra + ["--out", str(paths[tag])]) == 0
    assert paths["zero"].read_bytes() == paths["default"].read_bytes()
    r0 = json.loads(paths["zero"].read_text())
    r7 = json.loads(paths["seven"].read_text())
    assert r7["pass"]
    assert {c["name"].rsplit(".", 1)[1] for c in r7["checks"]} == {"seed7", "seed8"}
    assert [c["slack"] for c in r7["checks"]] != [c["slack"] for c in r0["checks"]]


def test_cli_verify_jobs(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert main(["verify", "--suite", "duality", "--d", "3", "--seeds", "4", "--out", str(out1)]) == 0
    assert main([
        "verify", "--suite", "duality", "--d", "3", "--seeds", "4", "--jobs", "2", "--out", str(out2)
    ]) == 0
    # fan-out must merge by seed index: identical checks in identical order
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert r1["checks"] == r2["checks"]
    assert r1["pass"] and r2["pass"]


def _tol_one_task(args):
    return [args[3].tol_one]


def test_tolerance_overrides_reach_spawned_workers(monkeypatch):
    # spawn (and forkserver) workers re-import qps instead of inheriting its state
    spawn = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn)
    tol = Tolerances(tol_one=0.25)
    assert verify._map_tasks(_tol_one_task, 3, 1, 2, 2, 0, tol) == [0.25, 0.25]


def test_map_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    tol = Tolerances(tol_one=0.25)
    assert verify._map_tasks(_tol_one_task, 3, 1, 3, 64, 0, tol) == [0.25] * 3
    assert verify._map_tasks(_tol_one_task, 3, 1, 1, 64, 0, tol) == [0.25]
    assert sizes == [3]  # one task runs in-process, with no pool


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--n", "0"],
        ["clt", "--n", "-1"],
        ["entropy-sweep", "--n", "0"],
        ["verify", "--suite", "weyl", "--n", "0"],
        ["verify", "--seeds", "0"],
        ["verify", "--seeds", "-2"],
        ["verify", "--jobs", "0"],
        ["verify", "--jobs", "-3"],
    ],
)
def test_cli_refuses_counts_below_one(argv, capsys):
    # verify --seeds 0 once passed with no seeded check, and --n 0 died deep in a suite
    flag, value = argv[-2:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


@pytest.mark.parametrize("alphas", ["nan,1", "1,,2", "0.5,x", ""])
def test_cli_refuses_alphas_that_are_not_numbers(alphas, capsys):
    # a NaN order fails every comparison, so its second-law check could not fail
    assert main(["entropy-sweep", "--N", "2", "--alphas", alphas]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --alphas takes comma-separated numbers, got {alphas!r}\n"


@pytest.mark.parametrize("flag, value", [
    ("--tol-supp", "nan"), ("--tol-supp", "inf"), ("--tol-supp", "1"),
    ("--tol-one", "nan"), ("--tol-one", "-1"), ("--tol-one", "1.5"),
])
def test_cli_refuses_tolerances_outside_the_unit_interval(flag, value, tmp_path, capsys):
    # --tol-supp nan once gave an empty support and a zero gap, exit 0
    path = tmp_path / "b.json"
    qio.write_state(states.basis_state(1, 3, 2), path)
    name = flag[2:].replace("-", "_")
    for argv in (["gap", str(path)], ["clt", "--N", "1"],
                 ["verify", "--suite", "majorization", "--seeds", "1"]):
        assert main(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ConfigError: {name} ({flag}) must be in [0, 1), got {float(value)}\n"
        )


@pytest.mark.parametrize("command", ["clt", "entropy-sweep", "channel-clt"])
def test_cli_refuses_negative_N(command, tmp_path):
    args = [command, "--N", "-1"]
    if command == "channel-clt":
        path = tmp_path / "wc.json"
        qio.write_channel(ch.weyl_conjugation_channel([1, 2], 5), path)
        args.insert(1, str(path))
    r = run_cli(*args)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: --N must be >= 0, got -1\n"
    # --N 0 is the trajectory's first row alone
    r = run_cli(*args[:-1], "0")
    assert r.returncode == 0 and r.stderr == ""
    assert len(r.stdout.splitlines()) == 2


def test_cli_clt_decides_positivity_by_its_spectra(monkeypatch, eig_calls, capsys):
    # one eigvalsh per power, no Cholesky, and no M(rho) built
    tried, made = [], []
    real_cholesky, real_make = np.linalg.cholesky, mm.make_state
    monkeypatch.setattr(np.linalg, "cholesky", lambda mat: tried.append(1) or real_cholesky(mat))
    monkeypatch.setattr(mm, "make_state", lambda *a, **k: made.append(1) or real_make(*a, **k))
    assert main(["clt", "--d", "3", "--n", "2", "--N", "4", "--family", "hadamard"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert tried == [] and made == []
    assert len(eig_calls) == 5


def test_cli_gap_builds_no_mean_state(tmp_path, monkeypatch, capsys):
    path = tmp_path / "b.json"
    qio.write_state(states.basis_state(1, 3, 2), path)
    made = []
    real = mm.make_state
    monkeypatch.setattr(mm, "make_state", lambda *a, **k: made.append(1) or real(*a, **k))
    assert main(["gap", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert made == []
    assert (rep["group_size"], rep["mean_value_vector"], rep["zero_mean"]) == (9, [0, 2], False)


def test_cli_verify_tolerance_override_with_jobs(tmp_path):
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"v{jobs}.json"
        assert main([
            "verify", "--suite", "majorization", "--d", "3", "--seeds", "4", "--jobs", jobs,
            "--tol-one", "1e-6", "--out", str(out),
        ]) == 0
        reports.append(out.read_text())
    assert json.loads(reports[0])["config"]["tolerances"]["tol_one"] == 1e-6
    # the reports differ only in the jobs field they echo
    assert reports[1].replace('"jobs": 2', '"jobs": 1') == reports[0]


def test_public_names_resolve_to_their_modules():
    for name in qps.__all__:
        module = importlib.import_module(f"qps.{qps._EXPORTS[name]}")
        assert getattr(qps, name) is getattr(module, name)
    namespace = {}
    exec("from qps import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(qps.__all__)
    with pytest.raises(AttributeError):
        qps.no_such_name


def test_cli_import_loads_no_verify_stack():
    probe = (
        "import sys, qps.cli\n"
        "heavy = ('qps.verify', 'qps.channels', 'qps.fisher', 'qps.io',\n"
        "         'multiprocessing', 'concurrent.futures', 'numpy.random',\n"
        "         'numpy.fft', 'numpy.polynomial', 'hashlib', 'decimal')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


def test_cli_runs_load_no_numpy_fft():
    # weyl's matmul passes are the one d-point DFT: no run reaches for numpy.fft
    probe = (
        "import sys\n"
        "from qps.cli import main\n"
        "for argv in (['verify', '--suite', 'all', '--d', '3', '--n', '1', '--seeds', '1'],\n"
        "             ['verify', '--suite', 'hudson', '--d', '5', '--seeds', '1'],\n"
        "             ['clt', '--d', '3', '--n', '2', '--N', '2']):\n"
        "    sys.argv = ['qps', *argv]\n"
        "    assert main() == 0\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_verify_import_loads_no_process_pool():
    probe = (
        "import sys, qps.verify\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "print(','.join(m for m in pool if m in sys.modules))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


def _has_modules(*names):
    return all(importlib.util.find_spec(name) is not None for name in names)


needs_openssl = pytest.mark.skipif(not _has_modules("_hashlib"), reason="no OpenSSL hashlib")


def _run_main(prelude=""):
    """A seeded clt run and a verify run through main(), as `qps` calls it, after prelude;
    returns the process and a last line saying whether OpenSSL's `_hashlib` is loaded."""
    probe = (
        "import sys\n" + prelude + "from qps.cli import main\n"
        "for argv in (['clt', '--d', '3', '--n', '2', '--N', '4', '--seed', '5'],\n"
        "             ['verify', '--suite', 'all', '--d', '5', '--n', '1', '--seeds', '1']):\n"
        "    sys.argv = ['qps', *argv]\n"
        "    assert main() == 0\n"
        "print('hashlib' in sys.modules, sys.modules.get('_hashlib') is not None)\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r


@needs_openssl
@pytest.mark.skipif(not _has_modules(*cli._BUILTIN_HASHES), reason="builtin hashes narrowed")
def test_cli_main_keeps_openssl_out_and_every_byte_the_same():
    plain = _run_main()
    *out, flags = plain.stdout.splitlines()
    assert flags == "True False"  # numpy.random loaded hashlib, which left OpenSSL out
    first = _run_main("import hashlib\n")
    *out_openssl, flags = first.stdout.splitlines()
    assert flags == "True True"
    assert out == out_openssl and plain.stderr == first.stderr == ""


@needs_openssl
def test_library_use_keeps_openssl():
    # import qps, random_state and an in-process main([...]) leave hashlib as it is
    probe = (
        "import os, sys, qps\n"
        "from qps.cli import main\n"
        "assert main(['clt', '--d', '3', '--N', '2', '--out', os.devnull]) == 0\n"
        "qps.random_state(1, 3, seed=0)\n"
        "print(sys.modules.get('_hashlib') is not None)\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "True\n", "")


@needs_openssl
def test_cli_main_keeps_openssl_without_the_builtin_hashes():
    # with md5 and sha512 hidden, hashlib needs OpenSSL: it stays, and stderr stays empty
    r = _run_main("sys.modules['_md5'] = sys.modules['_sha512'] = None\n")
    assert r.stdout.splitlines()[-1] == "True True"
    assert r.stderr == ""


@pytest.mark.parametrize("args,named", [
    (("--suite", "entropy", "--d", "3", "--n", "4"), "d^4n = 3^16 entries"),
    (("--suite", "hudson", "--d", "3", "--n", "4"), "d^(n^2) = 3^16 candidate bases"),
], ids=["entropy-d3n4", "hudson-d3n4"])
def test_cli_verify_refuses_entropy_and_hudson_past_their_caps(args, named):
    # at (3, 4) hudson's rank-4 bases would fill a 3^16-row batch; it is refused first
    start = time.perf_counter()
    r = run_cli("verify", *args)
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error:") and named in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_verify_refuses_fisher_past_the_table_cap_before_any_work():
    # at (3, 7) d^2n = 3^14 is past the cap; the refusal comes before fisher_total runs
    start = time.perf_counter()
    r = run_cli("verify", "--suite", "fisher", "--d", "3", "--n", "7")
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: TooLargeError: d^2n = 3^14 exceeds the dense-table cap 4000000\n"


def test_fisher_suite_is_refused_before_its_first_task(monkeypatch):
    def never(args):
        raise AssertionError("a fisher task started")

    monkeypatch.setattr(verify, "_fisher_task", never)
    with pytest.raises(TooLargeError, match="3\\^14"):
        verify.run_suite("fisher", 3, 7, 1)
    monkeypatch.setenv("QPS_MAX_DIM", "1000")  # 3^8 past the lowered cap
    with pytest.raises(TooLargeError, match="3\\^8"):
        verify.run_suite("fisher", 3, 4, 1)


@pytest.mark.parametrize(
    "label", [{"p": [0, 0], "q": [0]}, {"p": [0], "q": []}, {"p": 0, "q": [0]}]
)
def test_cli_gap_refuses_char_label_of_wrong_length(tmp_path, label):
    # at n = 1 a long label once crashed the reader, a short one filled a whole row,
    # and a label that is not a list crashed on len()
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"d": 3, "n": 1, "char": [{**label, "re": 1.0, "im": 0.0}]}))
    r = run_cli("gap", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "obj",
    [
        {"d": 3, "n": 0, "char": [{"p": [], "q": [], "re": 1.0, "im": 0.0}]},
        {"d": 3, "n": -1, "char": [{"p": [], "q": [], "re": 1.0, "im": 0.0}]},
        {"d": 3, "n": 0, "matrix": {"re": [[1.0]], "im": [[0.0]]}},
    ],
)
def test_cli_gap_refuses_a_state_file_without_qudits(tmp_path, obj):
    # n < 1 once crashed the char reader and reached a reshape in the dense one
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    r = run_cli("gap", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr
    assert "n >= 1" in r.stderr


def test_char_reader_checks_the_table_cap_before_allocating(monkeypatch):
    monkeypatch.setenv("QPS_MAX_DIM", "80")
    obj = {"d": 3, "n": 2, "char": [{"p": [0, 0], "q": [0, 0], "re": 1.0, "im": 0.0}]}
    with pytest.raises(TooLargeError):
        qio.state_from_json(obj)
