"""Command-line interface: exit codes, files, determinism."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fbmbt.cli import main
from fbmbt.fgn import read_path
from fbmbt.skeleton import read_skeleton


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_fbm_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "x.path"
        code = run("generate", "--process", "fbm", "--hurst", "0.3",
                   "--spacing", "2e-3", "--half-extent", "4096",
                   "--seed", "42", "-o", str(out))
        assert code == 0
        path = read_path(out)
        assert path.hurst.value == 0.3
        assert path.half_extent == 4096
        assert path.seed_record.master_seed == 42
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.path", tmp_path / "b.path"
        for out in (a, b):
            assert run("generate", "--process", "fbm", "--hurst", "0.4",
                       "--spacing", "0.01", "--half-extent", "256",
                       "--seed", "7", "-o", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_hurst_names_constraint(self, tmp_path, capsys):
        code = run("generate", "--process", "fbm", "--hurst", "1.5",
                   "--spacing", "0.01", "--half-extent", "16",
                   "-o", str(tmp_path / "x.path"))
        assert code == 1
        assert "(0, 1)" in capsys.readouterr().err

    def test_bm_csv_format(self, tmp_path):
        out = tmp_path / "y.csv"
        assert run("generate", "--process", "bm", "--horizon", "1.0",
                   "--spacing", "0.25", "--seed", "3", "-o", str(out),
                   "--format", "csv") == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[0, 1] == 0.0

    def test_missing_required_parameter(self, tmp_path, capsys):
        code = run("generate", "--process", "fbm", "--spacing", "0.01",
                   "-o", str(tmp_path / "x.path"))
        assert code == 1
        assert "hurst" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
@pytest.mark.parametrize("argv, name", [
    (("generate", "--process", "bm", "--spacing", "1", "--horizon={}"), "horizon"),
    (("generate", "--process", "fbm", "--hurst", "0.3", "--spacing={}",
      "--half-extent", "4"), "spacing"),
    (("skeleton", "--level", "4", "--horizon={}"), "horizon"),
], ids=["bm-horizon", "fbm-spacing", "skeleton-horizon"])
def test_non_finite_or_non_positive_is_usage_error(tmp_path, capsys, argv, name, value):
    out = tmp_path / "x.out"
    code = run(*(a.format(value) for a in argv), "-o", str(out))
    assert code == 1
    assert f"{name} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


class TestSkeletonCommand:
    def test_writes_valid_structure(self, tmp_path):
        for horizon, steps in (("1", 1024), ("0.7", 716)):  # floor(2^10 h)
            out = tmp_path / f"s{horizon}.skel"
            assert run("skeleton", "--level", "10", "--horizon", horizon,
                       "--seed", "3", "-o", str(out)) == 0
            sk = read_skeleton(out)
            assert sk.level == 10 and sk.n_steps == steps
            assert sk.mode == "exact" and sk.source["kind"] == "exact-walk"
            assert np.all(np.abs(np.diff(sk.walk)) == 1)
            assert np.all(np.diff(sk.times) > 0)

    def test_zero_steps_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.skel"
        code = run("skeleton", "--level", "4", "--horizon", "0.05", "-o", str(out))
        assert code == 1
        assert "floor(2^4 * 0.05) = 0 steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--mode", "naive"), ("--spacing", "1e-3")])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s.skel"
        code = run("skeleton", "--level", "4", "--horizon", "1", flag, value,
                   "-o", str(out))
        assert code == 1
        assert flag in capsys.readouterr().err
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(f"{flag[2:]} = {value}\n")
        code = run("--config", str(cfgfile), "skeleton", "--level", "4",
                   "--horizon", "1", "-o", str(out))
        assert code == 1
        assert f"unknown key {flag[2:]!r}" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_branch_hurst_mismatch(self, tmp_path, capsys):
        code = run("verify", "--branch", "critical", "--hurst", "0.1",
                   "-o", str(tmp_path / "r.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert "critical" in err

    def test_subcritical_report_and_gate(self, tmp_path):
        out = tmp_path / "r.json"
        code = run("verify", "--branch", "subcritical", "--hurst", "0.10",
                   "--levels", "6,8,10", "--replicas", "400", "--seed", "9",
                   "-o", str(out), "--csv", str(tmp_path / "other.csv"))
        assert code in (0, 2)  # gate depends on MC slope at desk scale
        doc = json.loads(out.read_text())
        assert doc["body"]["extra"]["slope_target"] == pytest.approx(0.2)
        assert (tmp_path / "other.csv").read_text().startswith("level,")

    def test_csv_written_next_to_report_by_default(self, tmp_path):
        out = tmp_path / "r.json"
        code = run("verify", "--branch", "subcritical", "--hurst", "0.10",
                   "--levels", "4,6,8", "--replicas", "60", "--seed", "13",
                   "-o", str(out), "--no-gate")
        assert code == 0
        assert (tmp_path / "r.csv").read_text().startswith("level,")

    def test_report_body_deterministic(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run("verify", "--branch", "subcritical", "--hurst", "0.10",
                "--levels", "4,6,8", "--replicas", "80", "--seed", "11",
                "-o", str(out), "--no-gate")
            outs.append(json.loads(out.read_text()))
        assert outs[0]["body"] == outs[1]["body"]

    def test_no_gate_forces_success(self, tmp_path):
        code = run("verify", "--branch", "subcritical", "--hurst", "0.10",
                   "--levels", "4,6,8", "--replicas", "40", "--seed", "12",
                   "-o", str(tmp_path / "r.json"), "--no-gate")
        assert code == 0

    def test_bad_levels(self, tmp_path, capsys):
        code = run("verify", "--branch", "subcritical", "--hurst", "0.1",
                   "--levels", "8,6", "-o", str(tmp_path / "r.json"))
        assert code == 1

    def test_x_refine_flag_is_gone(self, tmp_path, capsys):
        code = run("verify", "--branch", "supercritical", "--hurst", "0.35",
                   "--x-refine", "16", "-o", str(tmp_path / "r.json"))
        assert code == 1
        assert "--x-refine" in capsys.readouterr().err

    def test_infinite_horizon_is_usage_error(self, tmp_path, capsys):
        code = run("verify", "--branch", "supercritical", "--hurst", "0.35",
                   "--t", "inf", "-o", str(tmp_path / "r.json"))
        assert code == 1
        assert "t must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestScalingCommand:
    def test_quadratic_report(self, tmp_path):
        out = tmp_path / "s.json"
        code = run("scaling", "--hurst", "0.5", "--power", "2",
                   "--levels", "8,10,12", "--replicas", "20", "--seed", "4",
                   "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        errs = [row["median_abs_error"] for row in doc["body"]["per_level"]]
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("flag, value, message", [
        ("--t", "inf", "t must be finite and > 0, got inf"),
        ("--replicas", "1", "replicas must be an integer >= 2, got 1"),
        ("--levels", "0,2", "levels must be strictly increasing integers >= 1"),
    ])
    def test_bad_layout_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "s.json"
        code = run("scaling", "--hurst", "0.1", "--power", "3", flag, value,
                   "-o", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cubic_without_increments_is_usage_error(self, tmp_path, capsys):
        # floor(2^2 * 0.1) = 0: the top level holds no increment
        out = tmp_path / "s.json"
        code = run("scaling", "--hurst", "0.1", "--power", "3", "--t", "0.1",
                   "--levels", "1,2", "--replicas", "5", "-o", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert "t = 0.1 leaves no increment at the top level 2" in err
        assert not out.exists()

    def test_cubic_requires_low_hurst(self, tmp_path, capsys):
        code = run("scaling", "--hurst", "0.7", "--power", "3",
                   "-o", str(tmp_path / "s.json"))
        assert code == 1


class TestSelftest:
    def test_exit_zero_and_summary(self, capsys):
        assert run("selftest", "--seed", "5") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out


class TestConfigPlumbing:
    def test_usage_error_for_unknown_command_flag(self, capsys):
        assert run("verify", "--branch", "nope", "--hurst", "0.1") == 1

    def test_outdir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FBMBT_OUTDIR", str(tmp_path))
        code = run("generate", "--process", "bm", "--horizon", "0.5",
                   "--spacing", "0.25", "--seed", "1")
        assert code == 0
        written = list(tmp_path.glob("bm_seed1.path"))
        assert len(written) == 1

    def test_config_file_overrides_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 99  # pinned\nhalf-extent = 32\n")
        out = tmp_path / "x.path"
        code = run("--config", str(cfgfile), "generate", "--process", "fbm",
                   "--hurst", "0.3", "--spacing", "0.5", "--half-extent", "8",
                   "--seed", "1", "-o", str(out))
        assert code == 0
        path = read_path(out)
        assert path.seed_record.master_seed == 99
        assert path.half_extent == 32

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("bogus = 1\n")
        code = run("--config", str(cfgfile), "selftest")
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_file_x_refine_is_unknown(self, tmp_path, capsys):
        cfgfile = tmp_path / "x.cfg"
        cfgfile.write_text("x_refine = 16\n")
        code = run("--config", str(cfgfile), "verify", "--branch", "supercritical",
                   "--hurst", "0.35", "--outdir", str(tmp_path))
        assert code == 1
        assert "unknown key 'x_refine'" in capsys.readouterr().err

    def test_config_file_converts_with_the_flag_type(self, tmp_path, capsys):
        # --kappa3 defaults to None; its config value must still be a float
        cfgfile = tmp_path / "k.cfg"
        cfgfile.write_text("kappa3 = 0\n")
        code = run("--config", str(cfgfile), "verify", "--branch", "critical",
                   "--hurst", str(1 / 6), "--levels", "4,6", "--replicas", "20",
                   "--no-gate", "--outdir", str(tmp_path))
        assert code == 0, capsys.readouterr().err

    def test_config_file_bad_value_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "r.cfg"
        cfgfile.write_text("replicas = abc\n")
        code = run("--config", str(cfgfile), "verify", "--branch", "critical",
                   "--hurst", str(1 / 6), "--outdir", str(tmp_path))
        assert code == 1
        assert "invalid replicas value 'abc'" in capsys.readouterr().err

    def test_relative_out_lands_in_outdir(self, tmp_path):
        code = run("generate", "--process", "bm", "--horizon", "0.5",
                   "--spacing", "0.25", "--seed", "2", "--outdir",
                   str(tmp_path), "-o", "rel.path")
        assert code == 0
        assert (tmp_path / "rel.path").exists()


_BAD_FLOAT = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "x", ""])
_BAD_INT = st.sampled_from(["-1", "0", "x", "2.5", ""])
_BAD_LEVELS = st.sampled_from(["", ",", "a,b", "6,4", "0,2", "-2,4", "4,4", "3.5"])


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _levels(hi):
    return st.lists(st.integers(1, hi), min_size=1, max_size=4, unique=True) \
        .map(lambda ls: ",".join(map(str, sorted(ls))))


def _argv(data, command, flags):
    """Valid values for every flag but at most one, drawn from its bad set."""
    broken = data.draw(st.one_of(st.none(), st.sampled_from(list(flags))))
    argv = [command]
    for flag, (good, bad) in flags.items():
        value = data.draw(bad if flag == broken else good)
        if value is not None:
            argv += [flag, value]
    return argv


class TestFuzzedFlags:
    """Any flag values give exit 0, 1 or 2: never 3 and never a traceback."""

    @staticmethod
    def _run_clean(argv, capsys):
        with tempfile.TemporaryDirectory() as out:
            code = main(argv + ["--outdir", out])
        err = capsys.readouterr().err
        event(f"exit {code}")
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and "runtime error" not in err, (argv, err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), branch=st.sampled_from(["supercritical", "critical",
                                                   "subcritical"]))
    def test_verify(self, capsys, data, branch):
        hurst = {"supercritical": _floats(0.17, 0.99), "critical": st.just(repr(1 / 6)),
                 "subcritical": _floats(0.01, 0.16)}[branch]
        flags = {
            "--branch": (st.just(branch), st.sampled_from(["bogus", ""])),
            "--hurst": (hurst, st.one_of(_BAD_FLOAT, _floats(-0.5, 1.5))),
            "--t": (_floats(0.05, 2.0), _BAD_FLOAT),
            "--levels": (_levels(7), _BAD_LEVELS),
            "--replicas": (st.integers(2, 6).map(str), _BAD_INT),
            "--workers": (st.sampled_from(["1", "2"]), _BAD_INT),
            "--kappa3": (st.one_of(st.none(), _floats(-3.0, 3.0)), _BAD_FLOAT),
            "--seed": (st.integers(0, 2**64).map(str), st.sampled_from(["-1", "x"])),
            "--f": (st.sampled_from(["sin", "cube", "gauss"]), st.just("nope")),
        }
        self._run_clean(_argv(data, "verify", flags), capsys)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), power=st.sampled_from(["2", "3"]))
    def test_scaling(self, capsys, data, power):
        hurst = _floats(0.01, 0.99) if power == "2" else st.just(repr(1 / 6))
        flags = {
            "--hurst": (hurst, st.one_of(_BAD_FLOAT, _floats(-0.5, 1.5))),
            "--power": (st.just(power), st.sampled_from(["4", "x"])),
            "--t": (_floats(0.05, 2.0), _BAD_FLOAT),
            "--levels": (_levels(9), _BAD_LEVELS),
            "--replicas": (st.integers(2, 6).map(str), _BAD_INT),
            "--seed": (st.integers(0, 2**64).map(str), st.sampled_from(["-1", "x"])),
        }
        self._run_clean(_argv(data, "scaling", flags), capsys)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_skeleton(self, capsys, data):
        flags = {
            "--level": (st.integers(1, 8).map(str), _BAD_INT),
            "--horizon": (_floats(0.01, 2.0), _BAD_FLOAT),
            "--seed": (st.integers(0, 2**64).map(str), st.sampled_from(["-1", "x"])),
        }
        self._run_clean(_argv(data, "skeleton", flags), capsys)
