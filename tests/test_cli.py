import json

import numpy as np
import pytest

from mixedbvp.cli import main

PROTO_CFG = """\
s = 1
n = 1
gamma = 1
delta = 1
q = 0
chi = 0
a_over_pi = 1/1
phi[0] = sin(x)
psi[0] = sin(x) + sin(2*x)/4
K = 10
grid = 21
"""

SINGULAR_CFG = """\
s = 2
n = 2
gamma = 1
delta = 1
q = 1
chi = 0
a_over_pi = 1/2
phi[0] = sin(7*x)
K = 10
tol_singular = 1e-6
"""


def write_cfg(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, PROTO_CFG)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("solution.csv", "metadata.json", "denominator.json",
                     "residual.json", "run.log"):
            assert (out1 / name).exists(), name
        # timestamps live only in run.log, so everything else is
        # byte-identical across runs
        for name in ("solution.csv", "metadata.json", "denominator.json",
                     "residual.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta = json.loads((out1 / "metadata.json").read_text())
        assert meta["K_active"] == 2
        resid = json.loads((out1 / "residual.json").read_text())
        assert resid["ok"]

    def test_invalid_config_exit_2(self, tmp_path):
        bad = PROTO_CFG.replace("s = 1", "s = 3").replace("n = 1", "n = 2")
        bad = bad.replace("q = 0\n", "q = 0\npsi[1] = 0\nphi[1] = 0\n")
        cfg = write_cfg(tmp_path, bad)
        out = tmp_path / "bad"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert "b-integer" in err["message"]

    def test_singular_mode_exit_3(self, tmp_path):
        cfg = write_cfg(tmp_path, SINGULAR_CFG)
        out = tmp_path / "sing"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 3
        assert "k=7" in err["message"]

    def test_missing_config_exit_1(self, tmp_path):
        out = tmp_path / "none"
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)])
        assert code == 1


class TestDenominator:
    def test_rational_route(self, capsys):
        assert main(["denominator", "--two-n", "4", "--gamma", "1",
                     "--q", "1", "--a-ratio", "1/3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["separated"] is True
        assert report["delta1"] == pytest.approx(0.5)
        assert report["phase_over_pi"] == "1/2"

    def test_untabulated_exit_4(self, capsys):
        assert main(["denominator", "--two-n", "4", "--gamma", "1",
                     "--q", "3", "--a-ratio", "1/2"]) == 4

    def test_scan_route(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["denominator", "--tau", "sqrt2", "--b", "1",
                     "--epsilon", "0.5", "--kmax", "500",
                     "--phase", "1/2", "--cf-depth", "8",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["min_w"] > 0.0
        assert report["continued_fraction"]["quotients"][:4] == [1, 2, 2, 2]
        assert "17/12" in report["continued_fraction"]["convergents"]
        assert len(report["smallest"]) == 5
        assert report["smallest"][0]["k"] == 1

    def test_needs_one_route(self, capsys):
        assert main(["denominator", "--a-ratio", "1/3"]) == 2


class TestEigs:
    def test_model_csv(self, tmp_path, capsys):
        out = tmp_path / "eigs.csv"
        assert main(["eigs", "--s", "2", "--K", "5",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.allclose(rows[:, 1], (np.arange(1, 6)) ** 4)

    def test_stdout_csv(self, capsys):
        assert main(["eigs", "--s", "1", "--K", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = [float(line.split(",")[1]) for line in lines]
        assert got == [1.0, 4.0, 9.0]

    def test_model_aliasing_exit_1(self, capsys):
        assert main(["eigs", "--s", "1", "--K", "5000"]) == 1
        err = capsys.readouterr().err
        assert "K=5000 model modes alias on 8193 grid points" in err


class TestVerify:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PROTO_CFG)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ok"]

    def test_threshold_failure_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, PROTO_CFG)
        out = tmp_path / "fail.json"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--pde-tol", "1e-30"]) == 1
        assert capsys.readouterr().out.startswith("FAIL")
        report = json.loads(out.read_text())
        assert not report["ok"]
