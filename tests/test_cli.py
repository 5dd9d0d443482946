"""End-to-end command-line behavior, including exit codes and determinism."""

import json

import pytest

from drinfeld_deuring import cli
from drinfeld_deuring.cli import main
from drinfeld_deuring.fields import base_field
from drinfeld_deuring.modulus import primes_up_to_degree

H22 = "s^6 + s^5 + a*s^4 + s^3 + a*s^2 + s + 1"


def test_compute_universal_delta(capsys):
    rc = main(["compute", "--q", "2", "--prime", "T^2+T+1",
               "--var", "delta", "--method", "universal"])
    assert rc == 0
    assert capsys.readouterr().out == "s^3 + a*s^2 + a*s + 1\n"


def test_compute_all_methods_match(capsys):
    rc = main(["compute", "--q", "2", "--prime", "T^2+T+1"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "direct: s^3 + a*s^2 + a*s + 1",
        "grec: s^3 + a*s^2 + a*s + 1",
        "universal: s^3 + a*s^2 + a*s + 1",
        "MATCH",
    ]


def test_compute_lambda_variable(capsys):
    rc = main(["compute", "--q", "2", "--prime", "T^2+T+1",
               "--var", "lambda", "--method", "direct"])
    assert rc == 0
    assert capsys.readouterr().out == H22 + "\n"


def test_prime_T_is_invalid(capsys):
    rc = main(["compute", "--q", "2", "--prime", "T"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_reducible_prime_is_invalid(capsys):
    assert main(["compute", "--q", "2", "--prime", "T^2+1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_q_is_invalid(capsys):
    assert main(["compute", "--q", "6", "--prime", "T+1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_method_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--q", "2", "--prime", "T^2+T+1",
              "--method", "fast"])
    assert exc.value.code == 2


def test_compute_json_single(capsys):
    rc = main(["compute", "--q", "2", "--prime", "T^2+T+1",
               "--method", "grec", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "grec"
    assert payload["h_coeffs"] == ["1", "a", "a", "1"]
    assert payload["p"] == "T^2 + T + 1"


def test_compute_json_all(capsys):
    rc = main(["compute", "--q", "3", "--prime", "T+1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is True
    assert [r["method"] for r in payload["results"]] == \
        ["direct", "grec", "universal"]


def test_verify_text(capsys):
    rc = main(["verify", "--q", "2", "--max-degree", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.rstrip().endswith("checks passed")
    assert "three-way-h[T^2 + T + 1]" in out


def test_verify_json(capsys):
    rc = main(["verify", "--q", "3", "--max-degree", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def _verify_checks(capsys, argv):
    rc = main(argv)
    checks = json.loads(capsys.readouterr().out)["checks"]
    return rc, {c["name"]: c["pass"] for c in checks}


def test_verify_flags_a_wrong_grec_h(monkeypatch, capsys):
    argv = ["verify", "--q", "2", "--max-degree", "2", "--format", "json"]
    rc, good = _verify_checks(capsys, argv)
    assert rc == 0 and all(good.values())
    grec = cli.deuring_h_grec
    monkeypatch.setattr(cli, "deuring_h_grec", lambda prime: grec(prime) + 1)
    rc, bad = _verify_checks(capsys, argv)
    assert rc == 1
    assert list(bad) == list(good)
    three_way = [n for n in good if n.startswith("three-way-h[")]
    assert three_way and not any(bad[n] for n in three_way)
    assert all(bad[n] == good[n] for n in good if n not in three_way)


def test_verify_computes_H_once_per_prime(monkeypatch):
    calls = []
    H = cli.deuring_H

    def counted(prime, h):
        calls.append(prime)
        return H(prime, h)

    monkeypatch.setattr(cli, "deuring_H", counted)
    cli._verify_rows(2, 3)
    assert calls == list(primes_up_to_degree(base_field(2), 3))


def test_verify_bad_degree(capsys):
    assert main(["verify", "--q", "2", "--max-degree", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_text(capsys):
    rc = main(["graph", "--q", "2", "--prime", "T^2+T+1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "size: 3 (expected 3)" in out
    assert "out-degree: all 2 (q-regular: yes)" in out
    assert "closed: yes" in out and "connected: yes" in out


def test_graph_json_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    rc = main(["graph", "--q", "3", "--prime", "T+2", "--format", "json",
               "--dot", str(dot)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["size"] == 1
    assert payload["component"]["ok"] is True
    text = dot.read_text()
    assert text.count("v0 -> v0;") == 3


def test_output_file(tmp_path, capsys):
    out = tmp_path / "h.txt"
    rc = main(["compute", "--q", "2", "--prime", "T^2+T+1",
               "--method", "direct", "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "s^3 + a*s^2 + a*s + 1\n"


def test_identities_and_tower_alias(capsys):
    assert main(["identities", "--q", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["tower", "--q", "2"]) == 0
    assert capsys.readouterr().out == first
    assert "all 4 checks passed" in first


def test_deterministic_output(capsys):
    args = ["compute", "--q", "3", "--prime", "T^2+1", "--format", "json"]
    assert main(args) == 0
    a = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == a
