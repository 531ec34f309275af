"""Command-line interface: schemas, verdict wiring, determinism, exit codes."""

import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import doleans.cli as cli_mod
from doleans import mc, path_from_json
from doleans.cli import main, parse_control, run_lemma_suites, run_reproduction
from doleans.girsanov import lemma2_lhs, lemma3_gap


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
            assert set(doc) == {"horizon", "jumps", "drift_kind"}
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
        for n in ("-2", "2.5"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", "example1", "--n", n])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and "--n" in out.err

    def test_zero_count_prints_no_paths(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--model", "example1", "--n", "0")
        assert code == 0 and out == "[]\n"


_SEED_COMMANDS = {
    "sample": ["sample", "--model", "example1", "--n", "2"],
    # --n 0 draws no path: only the check at the boundary sees the seed
    "exponential": ["exponential", "--model", "example1", "--n", "0"],
    "condition": ["condition", "--model", "example1", "--kind", "jacod"],
    "reproduce": ["reproduce", "--which", "1"],
    "lemmas": ["lemmas"],
}


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", sorted(_SEED_COMMANDS))
def test_seed_outside_64_bits_is_an_error(capsys, command, seed):
    code, out, err = run_cli(capsys, *_SEED_COMMANDS[command], "--seed", seed)
    assert code == 1 and out == ""
    assert err == "error: seed must fit in 64 bits\n"


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

    @pytest.mark.parametrize("n", ["0", "100"])
    @pytest.mark.parametrize("kind, form", [("protter-shimbo", "<M^d>"),
                                            ("lepingle-memin", "compensator")])
    def test_unsupported_pairing_exits_nonzero(self, capsys, kind, form, n):
        # the missing closed form is named whatever the path count
        code, out, err = run_cli(capsys, "condition", "--model", "example1",
                                 "--kind", kind, "--n", n)
        assert code == 1 and out == ""
        assert err == f"error: model 'example1' carries no closed-form {form}\n"

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

    def test_nonfinite_cross_check_is_an_error(self, capsys, monkeypatch):
        # every Monte Carlo value NaN; the quadrature stays clean
        real = mc._run_streams
        monkeypatch.setattr(mc, "_run_streams", lambda n, seeds, kernel, *what: real(
            n, seeds, lambda rng, m: np.full(m, math.nan), *what))
        code, out, err = run_cli(capsys, "condition", "--model", "example1",
                                 "--kind", "lemma1", "--n", "1000")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "non-finite" in lines[0]

    def test_nonfinite_leaf_is_an_error(self, capsys, tmp_path, monkeypatch):
        real = cli_mod.evaluate_condition
        monkeypatch.setattr(cli_mod, "evaluate_condition", lambda *a, **k:
                            dataclasses.replace(real(*a, **k), quadrature=math.nan))
        report = tmp_path / "report.json"
        for extra in ((), ("--out", str(report))):
            code, out, err = run_cli(capsys, "condition", "--model", "example1",
                                     "--kind", "jacod", *extra)
            assert code == 1 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not report.exists()

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

    @pytest.mark.parametrize("flag", [("--eps", "0.25"), ("--streams", "4")])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        # theorem1's epsilon moves no value and the stream count is always
        # 16, so neither is a flag
        with pytest.raises(SystemExit) as exc:
            main(["condition", "--model", "example2", "--kind", "theorem1",
                  "--a", "0.5", *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


#: values for the README's placeholders: seed, path count, output file
_README_PLACEHOLDERS = {"S": "7", "N": "100", "F": "out.json"}


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines() -> list[list[str]]:
    block = _README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("doleans ")]


def test_readme_cli_lines_parse():
    # every documented line, its optional [...] groups included, is a valid
    # invocation, so a removed flag cannot linger in the docs
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    for tokens in lines:
        argv = [_README_PLACEHOLDERS.get(t.strip("[]"), t.strip("[]"))
                for t in tokens]
        parser = cli_mod._build_parser()
        args = parser.parse_args(argv)
        if args.command == "condition":
            cli_mod._condition_spec(parser, args)


def test_readme_library_block_runs():
    # the one python block runs as written, so a changed signature cannot
    # linger in the docs
    blocks = _README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], str(_README), "exec"), {})


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

    def test_numpy_arguments_are_written_as_python_ints(self):
        doc = run_reproduction(np.int64(2), np.int64(7), 2)
        assert type(doc["which"]) is int and type(doc["seed"]) is int
        assert json.dumps(doc) == json.dumps(run_reproduction(2, 7, 2))

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


class TestReproducePathCount:
    @pytest.mark.parametrize("n", ["1", "-5", "0"])
    def test_count_below_two_usage_error(self, capsys, tmp_path, monkeypatch, n):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--which", "1", "--n", n])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--n" in out.err
        assert list(tmp_path.iterdir()) == []

    def test_api_rejects_count_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(mc, "_quad_run", no_quadrature)
        for n in (1, 0, -5):
            with pytest.raises(ValueError, match=f"n must be .*got {n}"):
                run_reproduction(1, 0, n)
        for n in (2.5, 1000.0):
            with pytest.raises(TypeError):
                run_reproduction(1, 0, n)
        with pytest.raises(TypeError):
            run_reproduction(2.0, 0, 2)

    def test_nonfinite_leaf_is_an_error(self, capsys, tmp_path, monkeypatch):
        def overflowing(which, seed, n):
            return {"which": which, "seed": seed, "n": n,
                    "rows": [{"check": "c", "expected": "finite",
                              "observed": "finite", "ok": True,
                              "quadrature": math.inf}],
                    "families": {}, "ok": True}

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_mod, "run_reproduction", overflowing)
        code, out, err = run_cli(capsys, "reproduce", "--which", "1")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []


def _indicator_flipped(x, eps):
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    return ((1.0 - eps * eps) * x * x - 2.0 * x + 1.0
            + 2.0 * eps * (1.0 - x >= eps))


def _negative_and_nan(x, eps):
    vals = np.array(lemma2_lhs(x, eps))
    vals.flat[0] = -1.0
    vals.flat[-1] = math.nan
    return vals


class TestLemmas:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas")
        assert code == 0
        assert out.count("[ok ]") == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "lemmas", "--seed", "4")
        _, out2, _ = run_cli(capsys, "lemmas", "--seed", "4")
        assert out1 == out2

    def test_draws_are_philox_keyed_by_the_seed(self):
        calls = []

        def record(name, fn):
            def recorded(*args):
                calls.append((name, [np.array(a, copy=True) for a in args]))
                return fn(*args)
            return recorded

        run_lemma_suites(record("lemma2", lemma2_lhs),
                         record("lemma3", lemma3_gap), seed=2**64 - 1)
        rng = np.random.Generator(np.random.Philox(key=2**64 - 1))
        xr = rng.random(100_000)
        er = rng.uniform(1e-12, 1.0 - 1e-12, 100_000)
        ar = rng.random(100_000)
        dm = np.exp(rng.uniform(math.log(1e-9), math.log(1e6 + 1.0), 100_000)) - 1.0
        assert [name for name, _ in calls] == ["lemma2", "lemma2", "lemma3"]
        for (_, got), want in zip(calls[1:], ((xr, er), (ar, dm))):
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("mutant, reported", [
        # flipping the indicator removes the boost exactly where the bare
        # quadratic is negative, between 1/(1+eps) and 1
        (_indicator_flipped,
         lambda x, eps, value: 1.0 / (1.0 + eps) < x <= 1.0 and value < 0.0),
        # a nan elsewhere in the suite must not hide the -1
        (_negative_and_nan, lambda x, eps, value: math.isnan(value)),
    ], ids=["indicator-flip", "negative-and-nan"])
    def test_mutant_detected(self, mutant, reported, capsys, monkeypatch):
        violations = run_lemma_suites(lemma2=mutant)
        assert violations
        name, (x, eps), value = violations[0]
        assert name.startswith("lemma2")
        assert reported(x, eps, value)

        monkeypatch.setattr(cli_mod, "run_lemma_suites",
                            lambda seed: run_lemma_suites(lemma2=mutant, seed=seed))
        code, out, err = run_cli(capsys, "lemmas")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == len(violations)
        assert all(line.startswith("[FAIL] lemma2") for line in lines)
