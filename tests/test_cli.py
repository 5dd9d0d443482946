"""End-to-end command-line behavior, including exit codes and determinism."""

import json
import os
import re
import stat
import time

import pytest

from drinfeld_deuring import cli
from drinfeld_deuring.cli import main
from drinfeld_deuring.fields import IndexKernel, base_field
from drinfeld_deuring.modulus import primes_up_to_degree
import golden_cli
from test_isogeny_graph import _lose_a_root

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


def test_main_builds_the_parser_once(capsys):
    # a cached parser gives the same usage errors and help on every call
    cli.build_parser.cache_clear()
    outs = []
    for _ in range(2):
        for argv in (["compute", "--q", "2", "--prime", "T+1", "--method",
                      "fast"], ["graph", "--help"], ["--help"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            outs.append((exc.value.code, capsys.readouterr()))
        assert main(["compute", "--q", "2", "--prime", "T+1"]) == 0
        capsys.readouterr()
    assert outs[:4] == outs[4:]
    assert [code for code, _ in outs[:4]] == [2, 0, 0, 2]
    assert cli.build_parser.cache_info().misses == 1


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


def test_verify_reduces_u_d_once_per_prime(monkeypatch):
    from drinfeld_deuring import drinfeld, universal

    calls = []
    reduce = universal.u_mod_prime

    def counted(prime):
        calls.append(prime)
        return reduce(prime)

    # the universal route's reference and the module's own, which
    # check_simple_roots reads; verify's certificate reads the route's h
    monkeypatch.setattr(drinfeld, "u_mod_prime", counted)
    monkeypatch.setattr(universal, "u_mod_prime", counted)
    cli._verify_rows(2, 3)
    assert calls == list(primes_up_to_degree(base_field(2), 3))


def test_verify_builds_no_generic_U_d(monkeypatch):
    # the H-universal rows run the U-recurrence over kappa, per prime
    from drinfeld_deuring import universal

    monkeypatch.setattr(universal, "_U_cache", {})
    cli._verify_rows(2, 3)
    assert universal._U_cache == {}


def test_verify_runs_the_kappa_oracles_without_sum_copies(monkeypatch):
    # U_mod_prime and the separability certificate run on kappa's index
    # lists: while either runs, every kernel's sum_copies raises, and
    # verify still passes every row at q = 5 and q = 4 up to degree 3
    sum_copies = IndexKernel.sum_copies
    running, seen = [], set()

    def refused(self, copies):
        if running:
            raise AssertionError("sum_copies reached from a kappa oracle")
        return sum_copies(self, copies)

    def guarded(oracle):
        def run(*args):
            running.append(oracle)
            seen.add(oracle)
            try:
                return oracle(*args)
            finally:
                running.pop()
        return run

    oracles = {cli.U_mod_prime, cli._certified}
    monkeypatch.setattr(IndexKernel, "sum_copies", refused)
    monkeypatch.setattr(cli, "U_mod_prime", guarded(cli.U_mod_prime))
    monkeypatch.setattr(cli, "_certified", guarded(cli._certified))
    for q in (5, 4):
        rows = cli._verify_rows(q, 3)
        assert rows and all(ok for _, ok in rows)
    assert seen == oracles


def test_verify_h_shape_reads_the_certificate_on_the_universal_h(
        monkeypatch, capsys):
    argv = ["verify", "--q", "2", "--max-degree", "3", "--format", "json"]
    rc, good = _verify_checks(capsys, argv)
    seen = []

    def refused(prime, h):
        seen.append(h == cli.deuring_h_universal(prime))
        return False

    monkeypatch.setattr(cli, "_certified", refused)
    rc, bad = _verify_checks(capsys, argv)
    assert rc == 1 and list(bad) == list(good)
    shape = [n for n in good if n.startswith("h-shape[")]
    assert len(seen) == len(shape) and all(seen)
    assert not any(bad[n] for n in shape)
    assert all(bad[n] == good[n] for n in good if n not in shape)


def test_compute_computes_H_once_per_distinct_h(monkeypatch, capsys):
    calls = []
    H = cli.deuring_H

    def counted(prime, h):
        calls.append(prime)
        return H(prime, h)

    monkeypatch.setattr(cli, "deuring_H", counted)
    # --var lambda prints H; text for --var delta builds none (below)
    assert main(["compute", "--q", "2", "--prime", "T^4+T+1",
                 "--var", "lambda", "--method", "all"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.endswith("MATCH\n")


@pytest.mark.parametrize("method", ["all", "universal"])
def test_compute_delta_text_builds_no_H(method, monkeypatch, capsys):
    argv = ["compute", "--q", "2", "--prime", "T^4+T+1", "--method", method]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def unreachable(prime, h):
        raise AssertionError("H built for --var delta")

    monkeypatch.setattr(cli, "deuring_H", unreachable)
    assert main(argv + ["--var", "delta"]) == 0
    assert capsys.readouterr().out == expected
    # JSON and --var lambda still print H
    for extra in (["--format", "json"], ["--var", "lambda"]):
        with pytest.raises(AssertionError):
            main(argv + extra)


@pytest.mark.parametrize("q, prime", [("2", "T^9+T^4+1"), ("16", "T^3 + x"),
                                      ("5", "T^4 + 2")])
def test_graph_beyond_the_cap_is_invalid(q, prime, capsys):
    # kappa fits under the cardinality cap, kappa_2 does not
    assert main(["graph", "--q", q, "--prime", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 300
    assert "65536" in captured.err


@pytest.mark.parametrize("command", ["compute", "graph"])
def test_deeply_nested_prime_is_invalid(command, capsys):
    deep = "(" * 3000 + "T+1" + ")" * 3000
    assert main([command, "--q", "2", "--prime", deep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_verify_bad_degree(capsys):
    assert main(["verify", "--q", "2", "--max-degree", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_out_of_cap_degree_fails_before_any_row(monkeypatch, capsys):
    def unreachable(field, i):
        raise AssertionError("a verify row ran past the cap check")

    monkeypatch.setattr(cli, "check_u_zero", unreachable)
    assert main(["verify", "--q", "7", "--max-degree", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "cap" in captured.err


def test_compute_out_of_cap_prime_is_invalid(monkeypatch, capsys):
    from drinfeld_deuring import poly

    def unreachable(f):
        raise AssertionError("is_irreducible ran on an out-of-cap prime")

    monkeypatch.setattr(poly, "is_irreducible", unreachable)
    assert main(["compute", "--q", "2", "--prime", "T^1000+T+1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "cap" in captured.err


def _one_error_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("prime, degree", [
    ("T^99999999999+1", 99999999999), ("T^30000000+1", 30000000),
    ("(T^9+1)*(T^9+T+1)", 18), ("T^2*(T^8)^2+1", 18)])
def test_huge_prime_degree_is_refused_while_parsing(prime, degree, capsys):
    start = time.perf_counter()
    assert main(["compute", "--q", "2", "--prime", prime]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    _one_error_line(captured)
    assert captured.err == (f"error: residue field of cardinality 2^{degree} "
                            f"exceeds the 65536 cap\n")


@pytest.mark.parametrize("prime", ["T^2+T+1+", "T*", "-", "(T", "((T+1)",
                                   "T^", "T^-"])
def test_prime_cut_short_is_end_of_input(prime, capsys):
    assert main(["compute", "--q", "2", "--prime", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected end of input\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--q", "2", "--max-degree", "17"],
     "residue field of cardinality 2^17 exceeds the 65536 cap"),
    (["verify", "--q", "2", "--max-degree", "10000000000"],
     "residue field of cardinality 2^10000000000 exceeds the 65536 cap"),
    (["compute", "--q", "1000000007", "--prime", "T+1"],
     "field of cardinality 1000000007 exceeds the 65536 cap"),
    (["verify", "--q", "1000000007", "--max-degree", "1"],
     "field of cardinality 1000000007 exceeds the 65536 cap")],
    ids=["verify-degree-17", "verify-degree-1e10", "compute-huge-q",
         "verify-huge-q"])
def test_huge_q_and_max_degree_are_refused_at_once(argv, message, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    _one_error_line(captured)
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["identities", "--q", "128"], ["identities", "--q", "81"],
    ["verify", "--q", "128", "--max-degree", "1"]])
def test_identities_over_the_budget_are_refused_at_once(
        argv, monkeypatch, capsys):
    from drinfeld_deuring import tower

    def unreachable(q):
        raise AssertionError("an identity ran over the budget")

    monkeypatch.setattr(tower, "j_chain_check", unreachable)
    monkeypatch.setattr(cli, "check_u_zero", unreachable)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    _one_error_line(captured)
    q = argv[2]
    assert captured.err == (f"error: tower identities at q = {q} exceed "
                            f"the q <= 64 budget\n")


def test_compute_H_at_degree_one_builds_only_the_powers_it_reads():
    # deg h + 1 = 2 powers of S, not q of them
    start = time.perf_counter()
    assert main(["compute", "--q", "256", "--prime", "T+1",
                 "--var", "lambda", "--output", os.devnull]) == 0
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["compute", "--q", "2", "--prime", "T^2+T+1", "--output"],
    ["verify", "--q", "2", "--max-degree", "1", "--output"],
    ["graph", "--q", "2", "--prime", "T^2+T+1", "--dot"],
    ["graph", "--q", "2", "--prime", "T^2+T+1", "--output"]])
def test_unwritable_output_path_is_invalid(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured)
    assert str(path) in captured.err
    assert main(argv + [str(tmp_path)]) == 2
    _one_error_line(capsys.readouterr())
    # a path below a regular file cannot be written, by root either
    plain = tmp_path / "plain"
    plain.write_text("kept\n")
    assert main(argv + [str(plain / "out.txt")]) == 2
    _one_error_line(capsys.readouterr())
    assert plain.read_text() == "kept\n"


_VERIFY_Q2 = ["verify", "--q", "2", "--max-degree", "2"]


def _verify_q2_stdout(capsys):
    assert main(_VERIFY_Q2) == 0
    return capsys.readouterr().out.encode()


def test_output_over_a_longer_file_leaves_exactly_the_new_bytes(
        tmp_path, capsys):
    expected = _verify_q2_stdout(capsys)
    out = tmp_path / "report.txt"
    out.write_bytes(b"junk\n" * (len(expected) // 5 + 100))
    inode = out.stat().st_ino
    assert main(_VERIFY_Q2 + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == expected
    # rewritten in place: the same inode
    assert out.stat().st_ino == inode
    # and a shorter file grows to the full text
    out.write_bytes(b"x")
    assert main(_VERIFY_Q2 + ["--output", str(out)]) == 0
    assert out.read_bytes() == expected


def test_output_to_dev_null_exits_0_and_prints_nothing(capsys):
    # ftruncate fails on a character device; only regular files are cut
    if not os.path.exists(os.devnull):
        pytest.skip("no null device")
    assert main(_VERIFY_Q2 + ["--output", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_output_to_a_pipe(capsys):
    # ftruncate fails on a pipe too; /dev/fd/N reopens the pipe's write end
    expected = _verify_q2_stdout(capsys)
    read_fd, write_fd = os.pipe()
    try:
        path = f"/dev/fd/{write_fd}"
        if not os.path.exists(path):
            pytest.skip("no /dev/fd")
        assert main(_VERIFY_Q2 + ["--output", path]) == 0
        os.close(write_fd)
        write_fd = None
        with os.fdopen(read_fd, "rb") as fh:
            read_fd = None
            assert fh.read() == expected
    finally:
        for fd in (read_fd, write_fd):
            if fd is not None:
                os.close(fd)


def test_output_through_a_symlink_updates_the_target(tmp_path, capsys):
    expected = _verify_q2_stdout(capsys)
    target = tmp_path / "target.txt"
    target.write_text("old contents that are longer than nothing\n" * 50)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(_VERIFY_Q2 + ["--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
def test_output_keeps_the_file_mode(mode, tmp_path, capsys):
    out = tmp_path / "report.txt"
    out.write_text("junk\n" * 1000)
    out.chmod(mode)
    assert main(_VERIFY_Q2 + ["--output", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert out.read_bytes() == _verify_q2_stdout(capsys)


def test_dot_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    fresh, dot = tmp_path / "fresh.dot", tmp_path / "g.dot"
    dot.write_text("digraph junk {}\n" * 500)
    for path in (fresh, dot):
        assert main(["graph", "--q", "3", "--prime", "T-1", "--dot",
                     str(path)]) == 0
    assert dot.read_bytes() == fresh.read_bytes()


def test_graph_fails_when_h_needs_a_larger_field(monkeypatch, capsys):
    # the walk's root test misses one root of h, as if it lay beyond kappa_2
    _lose_a_root(monkeypatch, cli._parse_prime(2, "T^2+T+1"))
    assert main(["graph", "--q", "2", "--prime", "T^2+T+1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check failed:" in captured.err


def test_graph_fails_when_a_neighbor_needs_a_larger_field(monkeypatch, capsys):
    from drinfeld_deuring import isogeny_graph

    # the neighbor solve loses one target of the single vertex
    real = isogeny_graph._neighbor_solver

    def lossy(*args):
        solve = real(*args)
        return lambda delta0: solve(delta0)[:-1]

    monkeypatch.setattr(isogeny_graph, "_neighbor_solver", lossy)
    assert main(["graph", "--q", "3", "--prime", "T-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check failed:" in captured.err and "kappa_2" in captured.err


def test_graph_out_of_cap_kappa_2_fails_before_h(monkeypatch, capsys):
    from drinfeld_deuring import drinfeld, isogeny_graph

    def unreachable(*_args):
        raise AssertionError("graph computed h or a root past the cap check")

    monkeypatch.setattr(drinfeld, "deuring_h_universal", unreachable)
    monkeypatch.setattr(isogeny_graph, "_root_test", unreachable)
    monkeypatch.setattr(isogeny_graph, "_first_root", unreachable)
    # kappa = F_{2^9} fits under the cap, kappa_2 = F_{2^18} does not
    assert main(["graph", "--q", "2", "--prime", "T^9+T^4+1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and "65536" in captured.err


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


@pytest.mark.parametrize("entry, command", [
    pytest.param(entry, command, id=command)
    for entry in golden_cli.FAST for command in entry.commands])
def test_golden_stdout(entry, command, tmp_path, capsys):
    # every FAST entry of the registry, in process
    code = main(golden_cli.argv(command, str(tmp_path)))
    stdout = capsys.readouterr().out.encode()
    assert golden_cli.mismatches(entry, code, stdout, str(tmp_path)) == []


def test_golden_registry_is_well_formed():
    # each command parses, no two runs share an argument list and an
    # environment, each exit-0 entry has a stdout digest, and FAST, run in
    # this process, sets no environment
    assert not any(entry.env for entry in golden_cli.FAST)
    parser = cli.build_parser()
    runs = []
    for entry in golden_cli.FAST + golden_cli.SLOW:
        assert entry.exit or entry.stdout is not None, entry.commands
        for digest in [entry.stdout, *entry.files.values()]:
            assert digest is None or re.fullmatch("[0-9a-f]{64}", digest)
        for command in entry.commands:
            argv = golden_cli.argv(command, "tmp")
            parser.parse_args(argv)
            runs.append((tuple(argv), tuple(sorted(entry.env.items()))))
    assert len(runs) == len(set(runs))
