import csv
import dataclasses
import subprocess
import sys
from unittest.mock import Mock
import numpy as np
import pytest
import scipy.linalg

from sobnat import cli, verify
from sobnat.kernel import KernelSpec
from sobnat.riemann import RiemannProblem, grad_step, prog

STEP_HEADER = ["step", "epoch", "lr", "train_loss", "wall_ms"]
EPOCH_HEADER = ["epoch", "train_acc", "test_acc"]


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "sobnat.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


TRAIN_QUICK = [
    "--count", "200", "--epochs", "2", "--batch-size", "20",
    "--layers", "8", "--seed", "3",
]


class TestTrain:
    def test_writes_logs_with_schema(self, tmp_path):
        out = tmp_path / "run"
        result = run_cli("train", "--dataset", "two-moons", "--variant", "sobolev_kfac",
                         *TRAIN_QUICK, "--out", str(out))
        assert result.returncode == 0, result.stderr
        header, rows = read_csv(out / "log_steps.csv")
        assert header == STEP_HEADER
        assert len(rows) == 2 * (150 // 20)
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        header, rows = read_csv(out / "log_epochs.csv")
        assert header == EPOCH_HEADER
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0 and 0.0 <= float(r[2]) <= 1.0
        assert "final_train_loss" in result.stdout

    def test_variant_switch_same_schema(self, tmp_path):
        out = tmp_path / "amari"
        result = run_cli("train", "--dataset", "two-moons", "--variant", "amari_kfac",
                         *TRAIN_QUICK, "--out", str(out))
        assert result.returncode == 0, result.stderr
        header, _ = read_csv(out / "log_steps.csv")
        assert header == STEP_HEADER

    def test_missing_csv_path_exits_2(self):
        result = run_cli("train", "--dataset", "csv:")
        assert result.returncode == 2
        assert "--dataset" in result.stderr

    def test_nonexistent_csv_exits_2(self):
        result = run_cli("train", "--dataset", "csv:/no/such/file.csv")
        assert result.returncode == 2
        assert "--dataset" in result.stderr

    def test_directory_as_csv_exits_2(self, tmp_path):
        result = run_cli("train", "--dataset", f"csv:{tmp_path}")
        assert result.returncode == 2
        assert "--dataset" in result.stderr
        assert "Traceback" not in result.stderr

    def test_undecodable_csv_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0,1.0,2.0\n\xff,2.0,3.0\n")
        result = run_cli("train", "--dataset", f"csv:{path}")
        assert result.returncode == 1
        assert result.stderr == "error: ParseError: line 2, column 1: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize("variant", ["sgd", "sobolev_kfac", "amari_dense"])
    def test_empty_training_split_is_a_test_fraction_error(self, tmp_path, capsys, variant):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--count", "4", "--test-fraction", "0.9", "--variant", variant,
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sobnat train [-h]")
        assert err.endswith(
            "sobnat train: error: --test-fraction: test fraction 0.9 leaves none of the 4 rows for training\n"
        )

    def test_unknown_variant_exits_2(self):
        result = run_cli("train", "--variant", "bogus")
        assert result.returncode == 2

    def test_csv_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "toy.csv"
        with open(path, "w") as fh:
            for i in range(80):
                label = i % 2
                x = rng.normal(size=2) + label
                fh.write(f"{label},{x[0]},{x[1]}\n")
        out = tmp_path / "csvrun"
        result = run_cli("train", "--dataset", f"csv:{path}", "--variant", "sgd",
                         "--epochs", "2", "--batch-size", "10", "--layers", "4",
                         "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "log_steps.csv").exists()

    def test_csv_regression_targets_last(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "reg.csv"
        with open(path, "w") as fh:
            for _ in range(60):
                x = rng.normal(size=2)
                fh.write(f"{x[0]},{x[1]},{x[0] + 0.5 * x[1]}\n")
        out = tmp_path / "regrun"
        result = run_cli("train", "--dataset", f"csv:{path}", "--csv-schema", "targets_last",
                         "--variant", "amari_dense", "--epochs", "2", "--batch-size", "15",
                         "--layers", "4", "--out", str(out))
        assert result.returncode == 0, result.stderr
        _, rows = read_csv(out / "log_steps.csv")
        # Squared loss decreases over the run; accuracy columns are nan.
        assert float(rows[-1][3]) < float(rows[0][3])

    def test_determinism_byte_identical_logs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_cli("train", "--dataset", "two-moons", "--variant", "sobolev_kfac",
                             *TRAIN_QUICK, "--no-walltime", "--out", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out)
        for fname in ("log_steps.csv", "log_epochs.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_1(self, tmp_path, capsys):
        out = tmp_path / "diverged"
        code = cli.main(["train", "--dataset", "two-moons", "--variant", "sgd", *TRAIN_QUICK,
                         "--lr", "1e300", "--out", str(out)])
        assert code == 1
        # lr 1e300 overflows the update of step 1, whose loss is still finite.
        err = capsys.readouterr().err
        assert "Diverged: non-finite update (train loss " in err and err.endswith(") at step 1\n")
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_override_file_overrides_defaults(self, tmp_path):
        # Three-layer fixture: default lr 0.01, file lr 0.02, flag lr 0.03.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=0.02\nepochs=1\nbatch-size=20\ncount=200\nlayers=4\nseed=1\n")
        out_default = tmp_path / "d"
        result = run_cli("train", "--dataset", "two-moons", "--variant", "sgd",
                         *TRAIN_QUICK, "--out", str(out_default))
        assert result.returncode == 0
        _, rows = read_csv(out_default / "log_steps.csv")
        assert float(rows[0][2]) == 0.01

        out_file = tmp_path / "f"
        result = run_cli("train", "--config", str(cfg), "--variant", "sgd",
                         "--out", str(out_file))
        assert result.returncode == 0, result.stderr
        _, rows = read_csv(out_file / "log_steps.csv")
        assert float(rows[0][2]) == 0.02

        out_flag = tmp_path / "g"
        result = run_cli("train", "--config", str(cfg), "--variant", "sgd",
                         "--lr", "0.03", "--out", str(out_flag))
        assert result.returncode == 0
        _, rows = read_csv(out_flag / "log_steps.csv")
        assert float(rows[0][2]) == 0.03

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key=1\n")
        result = run_cli("train", "--config", str(cfg))
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "line, flags, key",
        [
            ("lr=abc", [], "lr"),
            ("epochs=2.5", [], "epochs"),
            ("variant=bogus", [], "variant"),
            (None, ["--batch-size", "0"], "batch_size"),
            (None, ["--layers", "16,x"], "layers"),
            (None, ["--input-scale", "0"], "input_scale"),
            (None, ["--epochs", "-1"], "epochs"),
            (None, ["--test-fraction", "1.5"], "--test-fraction"),
            ("record_walltime=ture", [], "record_walltime"),
            ("skip_header=maybe", [], "skip_header"),
            (None, ["--variant", "sobolev_dense", "--damping", "nan"], "damping"),
            (None, ["--weight-decay", "nan"], "weight_decay"),
            (None, ["--lr", "inf"], "lr"),
            ("damping=inf", [], "damping"),
            (None, ["--count", "1"], "--count"),
            (None, ["--noise", "nan"], "--noise"),
            (None, ["--noise", "-1"], "--noise"),
            (None, ["--layers", "0"], "--layers"),
            (None, ["--seed", "-1"], "--seed"),
            ("activation=bogus", [], "--activation"),
            ("csv_schema=bogus", [], "--csv-schema"),
            ("lay=4", [], "'lay'"),
            ("config=x.cfg", [], "'config'"),
        ],
    )
    def test_bad_value_exits_2_naming_its_key(self, tmp_path, line, flags, key):
        args = ["train", *flags, "--out", str(tmp_path / "run")]
        if line is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            args += ["--config", str(cfg)]
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert key in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("word, value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("OFF", False),
])
def test_config_file_booleans(tmp_path, word, value):
    # skip_header is true through its switch, record_walltime false through --no-walltime.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"skip-header={word}\nrecord_walltime={word}\n")
    args = cli.parse_args(cli.build_parser(), ["train", "--config", str(cfg)])
    assert args.skip_header is value and args.record_walltime is value


@pytest.mark.parametrize("args, flag", [
    (["funcgd", "--count", "0"], "--count"),
    (["funcgd", "--steps", "-1"], "--steps"),
    (["funcgd", "--input-scale", "0"], "--input-scale"),
    (["funcgd", "--lr", "nan"], "--lr"),
    (["flatness", "--resolution", "0"], "--resolution"),
    (["flatness", "--epsilon", "0"], "--epsilon"),
    (["flatness", "--half-width", "0"], "--half-width"),
    (["flatness", "--reparam", "scale:0"], "--reparam"),
    (["flatness", "--reparam", "scale:abc"], "--reparam"),
    (["flatness", "--reparam", "tanh:-1"], "--reparam"),
    (["riemann", "--dim", "0"], "--dim"),
    (["riemann", "--instances", "0"], "--instances"),
    (["riemann", "--steps", "0"], "--steps"),
    (["riemann", "--seed", "-1"], "--seed"),
])
def test_bad_subcommand_value_exits_2_naming_its_flag(capsys, args, flag):
    # Rejected by the flag's argparse type before the command runs: no
    # traceback, and no vacuous success such as a rate held on 0 instances.
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("args, command", [
    (["train", "--dataset", "csv:{tmp}"], "train"),
    (["flatness", "--loss", "bogus"], "flatness"),
    (["verify", "--suite", "nope"], "verify"),
])
def test_command_error_prints_its_own_usage(tmp_path, capsys, args, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in args])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: sobnat {command} [-h]")


class TestSharedParser:
    """main reuses one argparse tree per process; no call's values reach the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_suite_selection_does_not_carry_over(self, capsys):
        assert cli.main(["verify", "--suite", "kernel"]) == 0
        assert "kernel:" in capsys.readouterr().out
        assert cli.main(["verify", "--suite", "flatness"]) == 0
        checks = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[")]
        assert checks and all(l.startswith("[PASS] flatness:") for l in checks)

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["riemann", "--dim", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(["riemann", "--instances", "2", "--steps", "10"]) == 0
        assert capsys.readouterr().out == (
            "riemann demo: decrease >= Prog, mirror == grad, and the 2LCR^2/T rate "
            "held on all 2 instances (10 steps each)\n"
        )

    def test_each_config_file_takes_its_own_keys(self, tmp_path, capsys):
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text(f"variant=sgd\nepochs=2\ncount=40\nlayers=4\nout={tmp_path / 'a'}\n")
        second.write_text(f"variant=amari_kfac\ncount=20\nout={tmp_path / 'b'}\n")
        assert cli.main(["train", "--config", str(first)]) == 0
        assert cli.main(["train", "--config", str(second)]) == 0
        out = capsys.readouterr().out
        assert "variant=sgd " in out and "variant=amari_kfac " in out
        assert len(read_csv(tmp_path / "a" / "log_epochs.csv")[1]) == 2
        # The second file sets no epochs: the default, not the first file's 2.
        assert len(read_csv(tmp_path / "b" / "log_epochs.csv")[1]) == cli.OptimConfig.epochs
        args = cli.parse_args(cli.build_parser(), ["train", "--config", str(second)])
        assert args.layers == [16, 16] and args.epochs == cli.OptimConfig.epochs


class TestVerify:
    def test_all_suites_pass(self):
        result = run_cli("verify")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all" in result.stdout and "checks passed" in result.stdout

    def test_kernel_suite_passes(self):
        result = run_cli("verify", "--suite", "kernel")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "[PASS] kernel:kernel_d0_quarter" in result.stdout

    def test_perturbed_kernel_constant_fails(self, monkeypatch, capsys):
        # Mutation check of the harness: a 1% kernel-constant error must trip
        # the quadrature oracle.
        exact = KernelSpec.constant.fget
        monkeypatch.setattr(KernelSpec, "constant", property(lambda spec: 1.01 * exact(spec)))
        assert cli.main(["verify", "--suite", "kernel"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suite, oracle", [("gradcheck", "gradcheck_error"), ("riemann", "decrease_shortfall")]
    )
    def test_nan_error_on_later_instance_fails(self, monkeypatch, capsys, suite, oracle):
        # A NaN error from the second instance, not only the first, must fail the suite.
        exact = getattr(verify, oracle)
        mock = Mock(side_effect=lambda *args: np.nan if mock.call_count == 2 else exact(*args))
        monkeypatch.setattr(verify, oracle, mock)
        assert cli.main(["verify", "--suite", suite]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_suite_filter_unknown(self):
        result = run_cli("verify", "--suite", "nope")
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1] == (
            f"sobnat verify: error: unknown suite 'nope'; choose from {sorted(verify.SUITES)}"
        )

    def test_selected_suites(self):
        result = run_cli("verify", "--suite", "exactness", "--suite", "riemann")
        assert result.returncode == 0, result.stdout
        assert "exactness:" in result.stdout and "riemann:" in result.stdout


class TestFlatness:
    def test_quadratic_volume(self):
        result = run_cli("flatness", "--epsilon", "0.04")
        assert result.returncode == 0, result.stderr
        line = [l for l in result.stdout.splitlines() if l.startswith("pullback")][0]
        volume = float(line.split()[2])
        assert volume == pytest.approx(0.4, abs=0.01)

    def test_reparam_report(self):
        result = run_cli("flatness", "--epsilon", "0.04", "--reparam", "scale:2")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        pull = [l for l in lines if l.startswith("pullback")][0]
        eucl = [l for l in lines if l.startswith("euclidean")][0]
        assert float(pull.split("discrepancy")[1].rstrip("%")) <= 2.0
        assert float(eucl.split("discrepancy")[1].rstrip("%")) >= 25.0

    def test_empty_band_exits_1(self):
        # No cell centre of a 2-cell grid lies in the band, so there is no volume to report.
        result = run_cli("flatness", "--resolution", "2")
        assert result.returncode == 1
        assert "EmptyRegion" in result.stderr and "resolution-2" in result.stderr

    def test_epsilon_too_large_exits_1(self):
        result = run_cli("flatness", "--epsilon", "5.0", "--half-width", "0.5")
        assert result.returncode == 1
        assert "UnboundedRegion" in result.stderr


class TestFuncgd:
    def test_writes_prediction_csv(self, tmp_path):
        out = tmp_path / "fgd.csv"
        result = run_cli("funcgd", "--count", "20", "--steps", "200", "--out", str(out))
        assert result.returncode == 0, result.stderr
        header, rows = read_csv(out)
        assert header == ["x", "y_true", "y_pred"]
        assert len(rows) == 20
        resid = float(result.stdout.split("training residual")[1].split()[0])
        assert resid < 2.0

    def test_diverging_run_exits_1_with_a_typed_error(self, tmp_path):
        out = tmp_path / "fgd.csv"
        result = run_cli("funcgd", "--lr", "50", "--out", str(out))
        assert result.returncode == 1
        assert "error: Diverged: non-finite coefficient at step " in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_predictions_are_the_cyclic_recursion(self, tmp_path):
        # f_t = f_{t-1} - lr k(., x_i) (f_{t-1}(x_i) - y_i), i = t mod n,
        # tracked at the training points with the unit-constant kernel
        # e^-r (1 + r) of the default input scale 1.
        out = tmp_path / "fgd.csv"
        result = run_cli("funcgd", "--count", "40", "--steps", "800", "--out", str(out))
        assert result.returncode == 0, result.stderr
        _, rows = read_csv(out)
        got = np.array([float(r[2]) for r in rows])
        xs = np.linspace(-2.0, 2.0, 40)
        ys = np.sin(2.0 * xs)
        r = np.abs(xs[:, None] - xs[None, :])
        k = np.exp(-r) * (1.0 + r)
        want = np.zeros(40)
        for t in range(800):
            i = t % 40
            want += k[:, i] * (-0.5 * (want[i] - ys[i]))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_package_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "sobnat", "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "train" in result.stdout


def test_cli_import_defers_scipy_modules_of_single_commands():
    # ndimage and optimize serve flatness only, integrate the kernel oracle only.
    deferred = ("scipy.integrate", "scipy.ndimage", "scipy.optimize")
    code = f"import sys, sobnat.cli; print([m for m in {deferred} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def reference_violations(instances, steps, seed, dim=3):
    """The demo's violations, counted step by step: a decrease short of Prog
    (NaN included), a mirror/grad gap, and a broken rate bound per instance.
    Returns (count, number of NaN decreases)."""
    gen = np.random.default_rng(seed)
    count = nans = 0
    for i in range(instances):
        m = gen.normal(size=(dim, dim))
        g = np.diag(gen.uniform(0.5, 3.0, size=dim)) if i % 2 else None
        problem = RiemannProblem.quadratic(m @ m.T + 0.5 * np.eye(dim), g)
        x0 = gen.normal(size=dim) * 2.0
        f = lambda x: 0.5 * float(x @ problem.hessian @ x)
        lam = np.max(scipy.linalg.eigh(problem.metric, problem.hessian, eigvals_only=True))
        coeff = 2.0 * problem.lipschitz_L * problem.compat_C * 2.0 * f(x0) * lam
        x, rate_broken = x0, False
        for k in range(1, steps + 1):
            nxt = grad_step(problem, x)
            decrease = f(x) - f(nxt)
            nans += bool(np.isnan(decrease))
            count += not decrease >= prog(problem, x) - verify.DECREASE_SLACK
            rate_broken |= f(nxt) > coeff / k + 1e-12 * max(1.0, f(x0))
            x = nxt
        count += rate_broken
        count += verify.mirror_grad_gap(problem, x0) != 0.0
    return count, nans


class TestRiemannCmd:
    def test_demo_passes(self):
        result = run_cli("riemann", "--instances", "5", "--steps", "50")
        assert result.returncode == 0, result.stdout
        assert "held on all" in result.stdout

    def test_demo_passes_at_dim_200(self):
        # Order 200 besides the default 3: numpy may take a product down another path by size.
        result = run_cli("riemann", "--dim", "200", "--instances", "2", "--steps", "50")
        assert result.returncode == 0, result.stdout
        assert "held on all 2 instances (50 steps each)" in result.stdout

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shrink, steps, diverges", [(0.4, 30, False), (1e-3, 150, True)])
    def test_shrunk_lipschitz_constant_fails_with_the_reference_count(
        self, monkeypatch, capsys, shrink, steps, diverges
    ):
        # An L below the certified one breaks decrease >= Prog and the rate.
        # At 1e-3 the iterates overflow, and their NaN decreases count too.
        quadratic = RiemannProblem.quadratic.__func__

        def shrunk(cls, h, g=None):
            problem = quadratic(cls, h, g)
            return dataclasses.replace(problem, lipschitz_L=problem.lipschitz_L * shrink)

        monkeypatch.setattr(RiemannProblem, "quadratic", classmethod(shrunk))
        expected, nans = reference_violations(4, steps, seed=5)
        assert (nans > 0) == diverges and expected > 0
        assert cli.main(["riemann", "--instances", "4", "--steps", str(steps), "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert out == f"riemann demo: {expected} violations over 4 instances\n"


class TestThreadCap:
    # The variants README names as byte-identical across thread counts, at
    # B = 500, where the batch's products reach order 500.
    @pytest.mark.parametrize("variant", ["sgd", "ntk_surrogate", "amari_kfac"])
    def test_thread_cap_env_does_not_change_results(self, tmp_path, variant):
        import os

        outs = []
        for name, cap in (("one", "1"), ("two", "2")):
            out = tmp_path / name
            env = dict(os.environ, OPENBLAS_NUM_THREADS=cap)
            result = subprocess.run(
                [sys.executable, "-m", "sobnat.cli", "train", "--dataset", "two-moons",
                 "--variant", variant, "--count", "2000", "--batch-size", "500",
                 "--epochs", "2", "--seed", "3", "--no-walltime", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=240,
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        assert (outs[0] / "log_steps.csv").read_bytes() == (outs[1] / "log_steps.csv").read_bytes()
