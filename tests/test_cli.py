import contextlib
import errno
import io
import json
import os

import pytest

from galaxyck import cli, emailgame
from galaxyck.hypernat import finite
from galaxyck.reports import CheckReport
from helpers import run_cli

MODEL_DOC = {
    "states": ["w1", "w2", "w3", "w4"],
    "agents": [
        {"name": "ann", "partition": [["w1", "w2"], ["w3"], ["w4"]]},
        {"name": "bob", "partition": [["w1"], ["w2", "w3"], ["w4"]]},
    ],
    "events": {"E": ["w1", "w2", "w3"], "All": ["w1", "w2", "w3", "w4"]},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    return str(path)


def test_model_check_pass(model_file):
    result = run_cli(["model", "check", "--file", model_file, "--event", "E", "--state", "w1"])
    assert result.code == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["check"] == "model-check"
    assert payload["pass"] is True
    assert payload["meet"] == [["w1", "w2", "w3"], ["w4"]]


def test_model_check_failure_exits_one(model_file):
    result = run_cli(["model", "check", "--file", model_file, "--event", "E", "--state", "w4"])
    assert result.code == 1
    payload = json.loads(result.stdout)
    assert payload["pass"] is False


def test_model_check_subjective_mode(model_file):
    result = run_cli(
        ["model", "check", "--file", model_file, "--event", "All", "--state", "w4",
         "--mode", "subjective"]
    )
    assert result.code == 0


def test_model_check_malformed_partition(tmp_path):
    doc = json.loads(json.dumps(MODEL_DOC))
    doc["agents"][0]["partition"][1] = ["w2"]  # w2 now in two ann cells, w3 uncovered
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli(["model", "check", "--file", str(path), "--event", "E", "--state", "w1"])
    assert result.code == 2
    assert "partition" in result.stderr


def test_model_check_unknown_event_and_state(model_file):
    assert run_cli(
        ["model", "check", "--file", model_file, "--event", "nope", "--state", "w1"]
    ).code == 2
    assert run_cli(
        ["model", "check", "--file", model_file, "--event", "E", "--state", "nope"]
    ).code == 2


def test_model_check_unreadable_and_invalid_json(tmp_path):
    missing = run_cli(
        ["model", "check", "--file", str(tmp_path / "none.json"), "--event", "E", "--state", "w1"]
    )
    assert missing.code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    result = run_cli(["model", "check", "--file", str(garbled), "--event", "E", "--state", "w1"])
    assert result.code == 2
    assert "invalid JSON" in result.stderr


def test_emailgame_impossibility():
    result = run_cli(["emailgame", "impossibility", "--T", "5"])
    assert result.code == 0
    payload = json.loads(result.stdout)
    assert payload["check"] == "impossibility"
    assert payload["params"] == {"T": 5}
    assert payload["pass"] is True
    assert run_cli(["emailgame", "impossibility", "--T", "0"]).code == 2
    assert run_cli(["emailgame", "impossibility", "--T", "1"]).code == 0


def test_impossibility_truncation_cap(monkeypatch):
    for T in ("1001", "1000000000"):
        result = run_cli(["emailgame", "impossibility", "--T", T])
        assert result.code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: --T must be <= 1000"]
    built = []

    def fake_check(T):
        built.append(T)
        return CheckReport("impossibility", {"T": T})

    monkeypatch.setattr(cli, "check_classical_impossibility", fake_check)
    assert run_cli(["emailgame", "impossibility", "--T", "1001"]).code == 2
    assert built == []  # rejected before any model is built
    assert run_cli(["emailgame", "impossibility", "--T", str(cli.MAX_T)]).code == 0
    assert built == [1000]


def test_model_file_size_cap(monkeypatch, model_file):
    size = os.path.getsize(model_file)
    argv = ["model", "check", "--file", model_file, "--event", "E", "--state", "w1"]
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", size)
    assert run_cli(argv).code == 0
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", size - 1)
    result = run_cli(argv)
    assert result.code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {model_file}: larger than {size - 1} bytes\n"


def test_model_file_read_stops_one_chunk_past_the_cap(monkeypatch):
    class Endless(io.BytesIO):
        """A file of spaces that never ends and counts the bytes it serves."""

        served = 0

        def read(self, size=-1):
            assert size > 0
            self.served += size
            return b" " * size

    stream = Endless()
    monkeypatch.setattr(cli, "open", lambda path, mode: stream, raising=False)
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", 10)
    with pytest.raises(cli.UsageError, match="larger than 10 bytes"):
        cli._load_json("endless.json")
    assert 10 < stream.served <= 10 + 64 * 1024


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs an endless file")
def test_endless_model_file_is_usage_error():
    result = run_cli(["model", "check", "--file", "/dev/zero", "--event", "E", "--state", "w1"])
    assert result.code == 2
    assert result.stderr == "error: /dev/zero: larger than 16777216 bytes\n"


@pytest.mark.parametrize(
    "content,message",
    [
        (b"\xff\xfe{}", "invalid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"states": [' + b"9" * 5000 + b"]}", "invalid JSON: Exceeds the limit"),
    ],
)
def test_model_check_undecodable_json_is_usage_error(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = run_cli(["model", "check", "--file", str(path), "--event", "E", "--state", "w1"])
    assert result.code == 2
    assert result.stderr.startswith(f"error: {path}: {message}")
    assert len(result.stderr.splitlines()) == 1


def test_long_count_is_usage_error():
    assert cli._hyper("9" * 1000) == finite(int("9" * 1000))
    # Parsed, 4300 nines would step to a count too long to render.
    result = run_cli(["emailgame", "monotone", "--samples", "9" * 4300])
    assert result.code == 2
    assert result.stderr == "error: a count has at most 1000 characters, got 4300\n"


def test_emailgame_ast_ck():
    assert run_cli(["emailgame", "ast-ck", "--t", "w+0"]).code == 0
    assert run_cli(["emailgame", "ast-ck", "--t", "2*w+0"]).code == 0
    assert run_cli(["emailgame", "ast-ck", "--t", "3"]).code == 1
    assert run_cli(["emailgame", "ast-ck", "--t", "1"]).code == 1  # the least count allowed
    assert run_cli(["emailgame", "ast-ck", "--t", "0"]).code == 2
    assert run_cli(["emailgame", "ast-ck", "--t", "blah"]).code == 2


def test_count_flags_take_ascii_digits_only():
    # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() and a Unicode \d read as 3.
    result = run_cli(["emailgame", "ast-ck", "--t", "\u0663"])
    assert result.code == 2
    assert result.stdout == ""
    assert "cannot parse '\u0663' as a hyper-natural" in result.stderr


@pytest.mark.parametrize("text", ["\u0663", "1_0", "+3"])
def test_truncation_is_read_in_the_count_grammar(text):
    # int() reads all three: as 3, 10 and 3.
    result = run_cli(["emailgame", "impossibility", "--T", text])
    assert result.code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: cannot parse {text!r} {_GRAMMAR_HINT}\n"


@pytest.mark.parametrize(
    "name,text",
    # "\u0662" is ARABIC-INDIC DIGIT TWO; Fraction reads these as 2, 10 and 2.
    [("M", "\u0662"), ("eps", "1_0"), ("L", "1_0"), ("p", "1/\u0662"), ("M", "2\xa0")],
)
def test_payoff_flags_take_ascii_without_underscores(name, text):
    result = run_cli(["emailgame", "equilibrium", f"--{name}", text])
    assert result.code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: --{name} is written in ASCII, with no '_'\n"


def test_payoff_flags_keep_every_documented_form():
    for text in ("2", "5/2", " 1/3 ", "0.25", "1e-1", "1.5E+0"):
        assert run_cli(["emailgame", "equilibrium", "--L", text]).code == 0, text


def test_emailgame_monotone():
    result = run_cli(["emailgame", "monotone", "--samples", "0,4,w+0"])
    assert result.code == 0
    payload = json.loads(result.stdout)
    assert payload["check"] == "monotone"
    assert len(payload["cases"]) == 3


def test_emailgame_equilibrium():
    result = run_cli(
        ["emailgame", "equilibrium", "--M", "2", "--L", "3", "--p", "1/2", "--eps", "1/10"]
    )
    assert result.code == 0
    payload = json.loads(result.stdout)
    assert payload["pass"] is True
    assert payload["params"]["M"] == "2/1"
    assert run_cli(["emailgame", "equilibrium", "--eps", "2"]).code == 2
    assert run_cli(["emailgame", "equilibrium", "--M", "-1"]).code == 2
    assert run_cli(["emailgame", "equilibrium", "--finite-samples", "5..1"]).code == 2


def test_payoff_parameter_length_cap():
    # At the cap, agent 2's expected payoff at count 0 carries the digits
    # of M, p and eps at once (2996 in its numerator) and still renders.
    at_cap = {
        "M": "9" * 1000,
        "p": "1/" + str(10**998 - 3),
        "eps": "1/" + str(10**998 - 11),
        "L": "1e995",
    }
    argv = ["emailgame", "equilibrium"] + [f"--{k}={v}" for k, v in at_cap.items()]
    result = run_cli(argv)
    assert result.code == 0
    payload = json.loads(result.stdout)
    case = next(
        c for c in payload["cases"] if (c["input"]["agent"], c["input"]["own_count"]) == (2, "0")
    )
    assert len(case["actual"]["expected_payoff"].split("/")[0]) == 2996

    past_cap = [("M", "9" * 1001), ("L", "1e996"), ("M", "1e10000"), ("eps", "1e-4301"),
                ("M", "1e100000000"), ("M", "1E10000\x1f"), ("p", "\x1c1e-5000\x1d")]
    for name, text in past_cap:
        result = run_cli(["emailgame", "equilibrium", f"--{name}={text}"])
        assert result.code == 2
        assert result.stderr == f"error: --{name} exceeds 1000 characters, counting eN as N more\n"


_GRAMMAR_HINT = "as a hyper-natural (try 7, w+0, w-5 or 2*w+0)"


@pytest.mark.parametrize(
    "option,line",
    [
        (("--huge-samples", "5"), "error: 5 is not a huge sample"),
        pytest.param(
            ("--finite-samples", "1,-2"),
            f"error: cannot parse '-2' {_GRAMMAR_HINT}",
            id="option1-error: cannot parse '-2'",
        ),
        (("--finite-samples", "w+0"), "error: w+0 is not a finite sample"),
        (("--finite-samples", "1_0"), f"error: cannot parse '1_0' {_GRAMMAR_HINT}"),
        (("--finite-samples", "+3"), f"error: cannot parse '+3' {_GRAMMAR_HINT}"),
        (("--finite-samples", "0..w+0"), "error: w+0 is not a finite sample"),
        (("--finite-samples", "x..3"), f"error: cannot parse 'x' {_GRAMMAR_HINT}"),
        (("--finite-samples", "1" * 1001), "error: a count has at most 1000 characters, got 1001"),
        (("--finite-samples", "0..1..2"), f"error: cannot parse '1..2' {_GRAMMAR_HINT}"),
        (("--M", "1ex"), "error: bad payoff parameters: Invalid literal for Fraction: '1ex'"),
    ],
)
def test_equilibrium_count_tiers_are_usage_errors(option, line):
    result = run_cli(["emailgame", "equilibrium", *option])
    assert result.code == 2
    assert result.stdout == ""
    assert result.stderr == line + "\n"


def test_finite_samples_may_be_empty():
    result = run_cli(["emailgame", "equilibrium", "--finite-samples", "", "--huge-samples", "w+0"])
    assert result.code == 0
    payload = json.loads(result.stdout)
    assert payload["params"]["finite_samples"] == []
    assert payload["params"]["huge_samples"] == ["w+0"]


def test_equilibrium_audit_error_is_internal(monkeypatch):
    def crash(s, params):
        raise ValueError("boom")

    monkeypatch.setattr(emailgame, "state_probability", crash)
    result = run_cli(["emailgame", "equilibrium"])
    assert result.code == 3
    assert result.stderr == "error: internal error: ValueError: boom\n"


def test_int_samples_caps_ranges():
    assert cli._finite_samples("0..9999") == list(range(10_000))
    assert cli._finite_samples("3..3") == [3]
    assert cli._finite_samples("10000..19999") == list(range(10_000, 20_000))
    with pytest.raises(cli.UsageError, match="more than 10000 counts"):
        cli._finite_samples("0..10000")


def test_huge_sample_range_is_usage_error():
    result = run_cli(["emailgame", "equilibrium", "--finite-samples", "0..100000000000000"])
    assert result.code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: range '0..100000000000000' has more than 10000 counts"
    ]


@pytest.mark.parametrize(
    "argv,entry",
    [
        (["emailgame", "equilibrium", "--finite-samples"], "0"),
        (["emailgame", "equilibrium", "--huge-samples"], "w+0"),
        (["emailgame", "monotone", "--samples"], "w+0"),
        (["sorites", "demo", "--probes"], "w+0"),
    ],
    ids=["finite-samples", "huge-samples", "samples", "probes"],
)
def test_comma_lists_share_the_range_cap(argv, entry):
    result = run_cli([*argv, ",".join([entry] * 10_001)])
    assert result.code == 2
    assert result.stdout == ""
    assert result.stderr == "error: a comma list has more than 10000 entries\n"
    # Empty entries are not counted.
    assert cli._split_csv(",".join([entry] * 10_000) + ",,") == [entry] * 10_000


def test_sorites_demo_verdicts():
    result = run_cli(["sorites", "demo", "--alpha", "w+0", "--probes", "10,1000000,w+0,w-5"])
    assert result.code == 0
    payload = json.loads(result.stdout)
    verdicts = [case["actual"] for case in payload["cases"]]
    assert verdicts == ["unrelated", "related", "related", "unrelated", "unrelated"]


def test_sorites_demo_edge_probes():
    payload = json.loads(run_cli(["sorites", "demo", "--probes", "0,2*w+0"]).stdout)
    verdicts = [case["actual"] for case in payload["cases"][1:]]
    assert verdicts == ["related", "unrelated"]
    assert run_cli(["sorites", "demo", "--probes", "nope"]).code == 2


def test_report_schema_round_trip():
    payload = json.loads(run_cli(["emailgame", "monotone", "--samples", "1,w+0"]).stdout)
    assert set(payload) == {"check", "params", "cases", "pass"}
    for case in payload["cases"]:
        assert set(case) == {"input", "expected", "actual", "pass"}


def test_text_format():
    result = run_cli(["emailgame", "ast-ck", "--t", "w+0", "--format", "text"])
    assert result.code == 0
    assert "result: PASS" in result.stdout


def test_text_format_model_check(model_file):
    result = run_cli(
        ["model", "check", "--file", model_file, "--event", "E", "--state", "w1",
         "--format", "text"]
    )
    assert result.code == 0
    assert "meet:" in result.stdout


def test_seed_env_var_has_no_effect(monkeypatch):
    plain = run_cli(["sorites", "demo"])
    monkeypatch.setenv("SORITES_SEED", "abc")
    seeded = run_cli(["sorites", "demo"])
    assert plain.code == seeded.code == 0
    assert seeded.stdout == plain.stdout


def test_missing_subcommand_is_usage_error():
    assert run_cli(["emailgame"]).code == 2
    assert run_cli([]).code == 2


@pytest.mark.parametrize(
    "exc,line",
    [
        (RuntimeError("boom\nsecond line"), "error: internal error: RuntimeError: boom"),
        (MemoryError(), "error: internal error: MemoryError"),
        # Only an error in writing the report is a failed write.
        (OSError("disk gone"), "error: internal error: OSError: disk gone"),
    ],
)
def test_internal_error_exits_three(monkeypatch, exc, line):
    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_email_impossibility", crash)
    result = run_cli(["emailgame", "impossibility", "--T", "5"])
    assert result.code == cli.EXIT_INTERNAL == 3
    assert result.stdout == ""
    assert result.stderr == line + "\n"


class UnwritableStdout(io.StringIO):
    def write(self, text):
        raise OSError("no space left\nsecond line")


def test_failed_report_write_exits_three():
    err = io.StringIO()
    with contextlib.redirect_stdout(UnwritableStdout()), contextlib.redirect_stderr(err):
        code = cli.main(["emailgame", "impossibility", "--T", "5"])
    assert code == cli.EXIT_INTERNAL
    assert err.getvalue() == "error: cannot write the report: no space left\n"


def test_a_closed_pipe_leaves_the_stream_on_devnull():
    read_end, write_end = os.pipe()
    os.close(read_end)
    err = io.StringIO()
    with open(write_end, "w", encoding="utf-8") as stream:
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(err):
            code = cli.main(["emailgame", "impossibility", "--T", "5"])
        # What the stream still holds now goes to os.devnull, without an error.
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert code == cli.EXIT_INTERNAL
    broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    assert err.getvalue() == f"error: cannot write the report: {broken}\n"
