"""Command-line interface: schemas, verdict wiring, determinism, exit codes."""

import json

import numpy as np
import pytest

from doleans import path_from_json
from doleans.cli import main, parse_control, run_lemma_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSampleCommand:
    def test_json_schema(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sample", "--model", "example2",
                               "--n", "3", "--seed", "9")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        for doc in docs:
            assert set(doc) == {"horizon", "jumps", "drift_kind", "cont_qv_kind"}
            path = path_from_json(doc)
            assert path.horizon == doc["horizon"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--model", "example1",
                               "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,horizon,t1,dm1")
        assert len(lines) == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "paths.json"
        code, out, _ = run_cli(capsys, "sample", "--model", "example3",
                               "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())) == 2


class TestExponentialCommand:
    def test_values_match_json(self, capsys):
        code, out, _ = run_cli(capsys, "exponential", "--model", "example1",
                               "--n", "4", "--seed", "3")
        assert code == 0
        docs = json.loads(out)
        assert all(d["value"] > 0.0 for d in docs)


@pytest.mark.parametrize("command", ["sample", "exponential"])
class TestPathCount:
    def test_negative_count_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "example1", "--n", "-2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--n" in out.err

    def test_zero_count_prints_no_paths(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--model", "example1", "--n", "0")
        assert code == 0 and out == "[]\n"


class TestConditionCommand:
    def test_example1_jacod(self, capsys):
        code, out, _ = run_cli(capsys, "condition", "--model", "example1",
                               "--kind", "jacod")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "diverging"
        assert 0.45 <= doc["divergence"]["slope"] <= 0.55

    def test_theorem1_zero_control_matches_jacod(self, capsys):
        _, out1, _ = run_cli(capsys, "condition", "--model", "example1",
                             "--kind", "jacod")
        _, out2, _ = run_cli(capsys, "condition", "--model", "example1",
                             "--kind", "theorem1", "--a", "0")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["verdict"] == d2["verdict"]
        assert d1["divergence"]["values"] == d2["divergence"]["values"]

    def test_protter_shimbo_example2(self, capsys):
        code, out, _ = run_cli(capsys, "condition", "--model", "example2",
                               "--kind", "protter-shimbo")
        assert code == 0
        assert json.loads(out)["verdict"] == "diverging"

    def test_indicator_control(self, capsys):
        code, out, _ = run_cli(capsys, "condition", "--model", "example3",
                               "--kind", "theorem1", "--a", "indicator:1.0")
        assert code == 0
        assert json.loads(out)["verdict"] == "finite"

    def test_levels_flag(self, capsys):
        code, out, _ = run_cli(capsys, "condition", "--model", "example1",
                               "--kind", "jacod", "--levels", "1e-2", "1e-3",
                               "1e-4", "1e-5", "1e-6")
        assert code == 0
        assert len(json.loads(out)["divergence"]["levels"]) == 5

    def test_csv_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "condition", "--model", "example1",
                               "--kind", "jacod", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,value"
        assert len(lines) == 5

    def test_deterministic_bytes(self, capsys):
        args = ("condition", "--model", "example2", "--kind", "theorem1",
                "--a", "0.5", "--n", "5000", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_unsupported_pairing_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "condition", "--model", "example1",
                               "--kind", "protter-shimbo")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("kind", ["protter-shimbo", "lepingle-memin"])
    def test_log_scale_kind_monte_carlo_is_an_error(self, capsys, kind):
        code, out, err = run_cli(capsys, "condition", "--model", "example2",
                                 "--kind", kind, "--n", "100")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_log_scale_exponent_overflow_is_an_error(self, capsys):
        # <M^d> at T = 400 is e^800 / 2, beyond float range
        code, out, err = run_cli(capsys, "condition", "--model", "example2",
                                 "--kind", "protter-shimbo",
                                 "--levels", "10", "20", "40", "400")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "400.0" in lines[0]

    def test_jump_time_level_past_the_cap_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "condition", "--model", "example2",
                                 "--kind", "jacod",
                                 "--levels", "10", "100", "1000", "1e5")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "1000.0" in lines[0] and "700.0" in lines[0]

    def test_two_driver_lemma1_rejects_short_levels(self, capsys):
        code, out, err = run_cli(capsys, "condition", "--model", "example3",
                                 "--kind", "lemma1", "--levels", "1.0")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_two_driver_levels_are_an_error(self, capsys):
        # one grid would cut example3's waiting time inside its bulk
        code, out, err = run_cli(capsys, "condition", "--model", "example3",
                                 "--kind", "theorem1", "--a", "indicator:1.0",
                                 "--levels", "1e-2", "1e-3", "1e-4", "1e-5")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "one-driver model" in lines[0]

    @pytest.mark.parametrize("n", ["1", "-7"])
    def test_unusable_monte_carlo_count_is_an_error(self, capsys, n):
        code, out, err = run_cli(capsys, "condition", "--model", "example1",
                                 "--kind", "jacod", "--n", n)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"got {n}" in lines[0]

    def test_invalid_combo_usage_error(self, capsys):
        # control forbidden for the plain jump condition
        with pytest.raises(SystemExit) as exc:
            main(["condition", "--model", "example1", "--kind", "jacod",
                  "--a", "0.5"])
        assert exc.value.code == 2

    def test_bad_control_spec_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["condition", "--model", "example1", "--kind", "theorem1",
                  "--a", "indicator:x"])
        assert exc.value.code == 2


class TestParseControl:
    def test_constant(self):
        assert parse_control("0.25").value_at(3.0) == 0.25

    def test_indicator(self):
        c = parse_control("indicator:1.5")
        assert c.value_at(1.5) == 0.0 and c.value_at(2.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_control("1.5")


class TestReproduce:
    def test_which_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "reproduce", "--which", "1",
                               "--n", "20000")
        assert code == 0
        assert out.count("[ok ]") == 4
        doc = json.loads((tmp_path / "reproduce1.json").read_text())
        assert doc["ok"] is True
        assert (tmp_path / "reproduce1.csv").exists()

    def test_which_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "reproduce", "--which", "2",
                               "--n", "20000")
        assert code == 0
        doc = json.loads((tmp_path / "reproduce2.json").read_text())
        checks = [r["check"] for r in doc["rows"]]
        assert sum("theorem1" in c for c in checks) == 4

    def test_which_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "reproduce", "--which", "3")
        assert code == 0
        doc = json.loads((tmp_path / "reproduce3.json").read_text())
        diverging = [r for r in doc["rows"]
                     if r["expected"] == "diverging"]
        assert len(diverging) == 5
        assert all(r["ok"] for r in doc["rows"])

    def test_reports_deterministic(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "reproduce", "--which", "3", "--out", "a.json")
        run_cli(capsys, "reproduce", "--which", "3", "--out", "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_mismatch_exits_nonzero_with_diff(self, capsys, tmp_path,
                                              monkeypatch):
        import doleans.cli as cli_mod

        def broken(which, seed, n):
            return {
                "which": which, "seed": seed, "n": n,
                "rows": [{"check": "forced", "expected": "finite",
                          "observed": "diverging", "ok": False}],
                "families": {}, "ok": False,
            }

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_mod, "run_reproduction", broken)
        code, out, err = run_cli(capsys, "reproduce", "--which", "1")
        assert code == 1
        assert "[FAIL]" in out
        assert "MISMATCH" in err and "forced" in err


class TestLemmas:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas")
        assert code == 0
        assert out.count("[ok ]") == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "lemmas", "--seed", "4")
        _, out2, _ = run_cli(capsys, "lemmas", "--seed", "4")
        assert out1 == out2

    def test_mutant_indicator_flip_detected(self):
        # flipping the indicator removes the boost exactly where the bare
        # quadratic is negative, between 1/(1+eps) and 1
        def mutant(x, eps):
            x = np.asarray(x, dtype=float)
            eps = np.asarray(eps, dtype=float)
            return ((1.0 - eps * eps) * x * x - 2.0 * x + 1.0
                    + 2.0 * eps * (1.0 - x >= eps))

        violations = run_lemma_suites(lemma2=mutant)
        assert violations
        name, (x, eps), value = violations[0]
        assert name.startswith("lemma2")
        assert 1.0 / (1.0 + eps) < x <= 1.0
        assert value < 0.0
