import json
import os
import subprocess
import sys

import pytest

MODEL_DOC = {
    "states": ["w1", "w2", "w3", "w4"],
    "agents": [
        {"name": "ann", "partition": [["w1", "w2"], ["w3"], ["w4"]]},
        {"name": "bob", "partition": [["w1"], ["w2", "w3"], ["w4"]]},
    ],
    "events": {"E": ["w1", "w2", "w3"], "All": ["w1", "w2", "w3", "w4"]},
}


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "galaxyck", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    return str(path)


def test_model_check_pass(model_file):
    result = run_cli("model", "check", "--file", model_file, "--event", "E", "--state", "w1")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["check"] == "model-check"
    assert payload["pass"] is True
    assert payload["meet"] == [["w1", "w2", "w3"], ["w4"]]


def test_model_check_failure_exits_one(model_file):
    result = run_cli("model", "check", "--file", model_file, "--event", "E", "--state", "w4")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["pass"] is False


def test_model_check_subjective_mode(model_file):
    result = run_cli(
        "model", "check", "--file", model_file,
        "--event", "All", "--state", "w4", "--mode", "subjective",
    )
    assert result.returncode == 0


def test_model_check_malformed_partition(tmp_path):
    doc = json.loads(json.dumps(MODEL_DOC))
    doc["agents"][0]["partition"][1] = ["w2"]  # w2 now in two ann cells, w3 uncovered
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("model", "check", "--file", str(path), "--event", "E", "--state", "w1")
    assert result.returncode == 2
    assert "partition" in result.stderr


def test_model_check_unknown_event_and_state(model_file):
    assert run_cli(
        "model", "check", "--file", model_file, "--event", "nope", "--state", "w1"
    ).returncode == 2
    assert run_cli(
        "model", "check", "--file", model_file, "--event", "E", "--state", "nope"
    ).returncode == 2


def test_model_check_unreadable_and_invalid_json(tmp_path):
    missing = run_cli(
        "model", "check", "--file", str(tmp_path / "none.json"), "--event", "E", "--state", "w1"
    )
    assert missing.returncode == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    result = run_cli("model", "check", "--file", str(garbled), "--event", "E", "--state", "w1")
    assert result.returncode == 2
    assert "invalid JSON" in result.stderr


def test_emailgame_impossibility():
    result = run_cli("emailgame", "impossibility", "--T", "5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["check"] == "impossibility"
    assert payload["params"] == {"T": 5}
    assert payload["pass"] is True
    assert run_cli("emailgame", "impossibility", "--T", "0").returncode == 2


def test_emailgame_ast_ck():
    assert run_cli("emailgame", "ast-ck", "--t", "w+0").returncode == 0
    assert run_cli("emailgame", "ast-ck", "--t", "2*w+0").returncode == 0
    assert run_cli("emailgame", "ast-ck", "--t", "3").returncode == 1
    assert run_cli("emailgame", "ast-ck", "--t", "0").returncode == 2
    assert run_cli("emailgame", "ast-ck", "--t", "blah").returncode == 2


def test_emailgame_monotone():
    result = run_cli("emailgame", "monotone", "--samples", "0,4,w+0")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["check"] == "monotone"
    assert len(payload["cases"]) == 3


def test_emailgame_equilibrium():
    result = run_cli(
        "emailgame", "equilibrium", "--M", "2", "--L", "3", "--p", "1/2", "--eps", "1/10"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pass"] is True
    assert payload["params"]["M"] == "2/1"
    assert run_cli("emailgame", "equilibrium", "--eps", "2").returncode == 2
    assert run_cli("emailgame", "equilibrium", "--M", "-1").returncode == 2
    assert run_cli("emailgame", "equilibrium", "--finite-samples", "5..1").returncode == 2


def test_int_samples_caps_ranges():
    from galaxyck import cli

    assert cli._int_samples("0..9999") == list(range(10_000))
    with pytest.raises(cli.UsageError, match="more than 10000 counts"):
        cli._int_samples("0..10000")


def test_huge_sample_range_is_usage_error():
    result = run_cli("emailgame", "equilibrium", "--finite-samples", "0..100000000000000")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: range '0..100000000000000' has more than 10000 counts"
    ]


def test_sorites_demo_verdicts():
    result = run_cli("sorites", "demo", "--alpha", "w+0", "--probes", "10,1000000,w+0,w-5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    verdicts = [case["actual"] for case in payload["cases"]]
    assert verdicts == ["unrelated", "related", "related", "unrelated", "unrelated"]


def test_sorites_demo_edge_probes():
    payload = json.loads(run_cli("sorites", "demo", "--probes", "0,2*w+0").stdout)
    verdicts = [case["actual"] for case in payload["cases"][1:]]
    assert verdicts == ["related", "unrelated"]
    assert run_cli("sorites", "demo", "--probes", "nope").returncode == 2


def test_reports_are_deterministic():
    first = run_cli("emailgame", "equilibrium")
    second = run_cli("emailgame", "equilibrium")
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)  # round-trips


def test_report_schema_round_trip():
    payload = json.loads(run_cli("emailgame", "monotone", "--samples", "1,w+0").stdout)
    assert set(payload) == {"check", "params", "cases", "pass"}
    for case in payload["cases"]:
        assert set(case) == {"input", "expected", "actual", "pass"}


def test_text_format():
    result = run_cli("emailgame", "ast-ck", "--t", "w+0", "--format", "text")
    assert result.returncode == 0
    assert "result: PASS" in result.stdout


def test_text_format_model_check(model_file):
    result = run_cli(
        "model", "check", "--file", model_file, "--event", "E", "--state", "w1",
        "--format", "text",
    )
    assert result.returncode == 0
    assert "meet:" in result.stdout


def test_seed_env_var_has_no_effect():
    plain = run_cli("sorites", "demo")
    seeded = run_cli("sorites", "demo", env_extra={"SORITES_SEED": "abc"})
    assert plain.returncode == seeded.returncode == 0
    assert seeded.stdout == plain.stdout


def test_missing_subcommand_is_usage_error():
    assert run_cli("emailgame").returncode == 2
    assert run_cli().returncode == 2


@pytest.mark.parametrize(
    "exc,line",
    [
        (RuntimeError("boom\nsecond line"), "error: internal error: RuntimeError: boom"),
        (MemoryError(), "error: internal error: MemoryError"),
    ],
)
def test_internal_error_exits_three(monkeypatch, capsys, exc, line):
    from galaxyck import cli

    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_email_impossibility", crash)
    assert cli.main(["emailgame", "impossibility", "--T", "5"]) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
