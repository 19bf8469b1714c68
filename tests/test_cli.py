import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from starsemi import ModelSpec, INVOLUTION, POE, check_all, enumeration, search_counterexample
from starsemi.cli import run
from starsemi.fileformat import load_structure, serialize_structure
from starsemi.structure import validate_structure

STRUCTURES = pathlib.Path(__file__).resolve().parent.parent / "structures"
SRC = STRUCTURES.parent / "src"


def run_cli(*argv):
    buf = io.StringIO()
    code = run(list(argv), stdout=buf)
    return code, buf.getvalue()


def test_validate_example2_exit_zero():
    code, out = run_cli("validate", str(STRUCTURES / "example2.txt"))
    assert code == 0
    assert "po-semigroup" in out and "involution" in out


def test_validate_expect_missing_tier_exit_one():
    code, out = run_cli("validate", str(STRUCTURES / "example2.txt"), "--expect", "poe")
    assert code == 1
    assert "MISSING" in out


def test_validate_expect_ok():
    code, _ = run_cli("validate", str(STRUCTURES / "example2.txt"),
                      "--expect", "involution,po-semigroup")
    assert code == 0


def test_validate_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\nmult\n0 0\n0 9\n")
    code, _ = run_cli("validate", str(bad))
    assert code == 2


def test_missing_file_exit_two():
    code, _ = run_cli("validate", "/nonexistent/f.txt")
    assert code == 2


def test_usage_error_exit_two():
    code, _ = run_cli("search")  # missing required --order
    assert code == 2


def test_check_onepoint_all_claims():
    code, out = run_cli("check", str(STRUCTURES / "onepoint.txt"), "--claims", "all")
    assert code == 0
    assert "fail" not in out.split()


def test_check_unknown_claim_exit_two():
    code, _ = run_cli("check", str(STRUCTURES / "onepoint.txt"), "--claims", "prop99")
    assert code == 2


def test_check_json_round_trips_reports():
    path = STRUCTURES / "chain2.txt"
    code, out = run_cli("check", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    S, _ = validate_structure(load_structure(path))
    from starsemi import report_record
    expected = [report_record(r, S) for r in check_all(S)]
    assert doc["reports"] == expected


def test_check_detects_failure_exit_one(tmp_path):
    spec = ModelSpec(order=3, required_tiers=frozenset({INVOLUTION, POE}))
    sweep = search_counterexample(spec, ("mut-prop15-all",))
    model, _ = sweep.counterexample
    f = tmp_path / "cx.txt"
    f.write_text(serialize_structure(model))
    code, out = run_cli("check", str(f), "--claims", "mut-prop15-all")
    assert code == 1
    assert "witness" in out


def test_classify_chain2():
    code, out = run_cli("classify", str(STRUCTURES / "chain2.txt"))
    assert code == 0
    assert "idempotent" in out and "star_semiprime" in out


def test_classify_without_top_exit_one():
    code, _ = run_cli("classify", str(STRUCTURES / "example2.txt"))
    assert code == 1


def test_classify_json():
    code, out = run_cli("classify", str(STRUCTURES / "chain2.txt"), "--json")
    doc = json.loads(out)
    assert doc["profile"]["star_regular"] is True
    assert {e["element"] for e in doc["elements"]} == {"0", "e"}


def test_filters_output():
    code, out = run_cli("filters", str(STRUCTURES / "chain2.txt"))
    assert code == 0
    assert "N(0) = {0, e}" in out
    assert "N(e) = {e}" in out


def test_filters_output_is_unchanged_on_example2():
    # one class and no windows: example2 has no greatest element
    path = str(STRUCTURES / "example2.txt")
    code, out = run_cli("filters", path)
    assert code == 0
    assert out == "".join(f"N({x}) = {{a, b, c, d, f}}\n" for x in "abcdf") + \
        "class {a, b, c, d, f} greatest=-\n"
    code, out = run_cli("filters", path, "--json")
    assert code == 0
    everything = ["a", "b", "c", "d", "f"]
    doc = {"command": "filters", "file": path,
           "filters": [{"element": x, "filter": everything, "window": None}
                       for x in everything],
           "classes": [{"members": everything, "greatest": None}]}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_filters_output_with_windows_is_unchanged_on_chain2():
    code, out = run_cli("filters", str(STRUCTURES / "chain2.txt"))
    assert code == 0
    assert out == ("N(0) = {0, e}   window = {0, e}\n"
                   "N(e) = {e}   window = {e}\n"
                   "class {0} greatest=0\n"
                   "class {e} greatest=e\n")


def test_filters_json_without_involution(tmp_path):
    f = tmp_path / "nostar.txt"
    f.write_text("n 2\nmult\n0 0\n0 1\nleq\n0 <= 1\n")
    code, out = run_cli("filters", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["window"] is None for row in doc["filters"])


def test_search_order3_sweep_exit_zero():
    code, out = run_cli("search", "--order", "3", "--tiers", "involution,poe",
                        "--claims", "all")
    assert code == 0
    assert "34 model" in out


def test_search_default_tiers_print_as_their_explicit_spelling():
    # the default tier set is closed under prerequisites, as --tiers is
    default = run_cli("search", "--order", "3", "--claims", "all", "--json")
    explicit = run_cli("search", "--order", "3", "--tiers", "involution,poe",
                       "--claims", "all", "--json")
    assert default == explicit
    assert json.loads(default[1])["tiers"] == ["involution", "po-groupoid", "poe"]


def test_search_counterexample_exit_one():
    code, out = run_cli("search", "--order", "2", "--tiers", "involution,poe",
                        "--claims", "mut-prop17-all-idem")
    assert code == 1
    assert "COUNTEREXAMPLE" in out


def test_search_json_and_catalog(tmp_path):
    outdir = tmp_path / "cat"
    code, out = run_cli("search", "--order", "2", "--tiers", "involution,poe",
                        "--json", "--out", str(outdir))
    assert code == 0
    doc = json.loads(out)
    assert doc["models"] == 4
    assert (outdir / "index.txt").exists()
    assert len(list(outdir.glob("model_*.txt"))) == 4


def test_search_reads_the_stream_once_and_writes_the_same_catalog(tmp_path, monkeypatch):
    # --claims with --out builds each model once, and its catalog is the one
    # that --out alone writes
    calls = []
    finish = enumeration._finish_model

    def counted(*args):
        calls.append(None)
        return finish(*args)

    monkeypatch.setattr(enumeration, "_finish_model", counted)
    swept, plain = tmp_path / "swept", tmp_path / "plain"
    code, _ = run_cli("search", "--order", "4", "--tiers", "involution,poe",
                      "--claims", "prop07", "--out", str(swept))
    assert code == 0 and len(calls) == 482
    code, _ = run_cli("search", "--order", "4", "--tiers", "involution,poe",
                      "--out", str(plain))
    assert code == 0
    names = sorted(p.name for p in plain.iterdir())
    assert len(names) == 483 and sorted(p.name for p in swept.iterdir()) == names
    for name in names:
        assert (swept / name).read_text() == (plain / name).read_text()


def test_search_counterexample_with_out_writes_the_whole_catalog(tmp_path):
    outdir = tmp_path / "cat"
    code, out = run_cli("search", "--order", "2", "--tiers", "involution,poe",
                        "--claims", "mut-prop17-all-idem", "--out", str(outdir))
    assert code == 1
    assert "COUNTEREXAMPLE" in out
    assert len((outdir / "index.txt").read_text().splitlines()) == 4
    assert len(list(outdir.glob("model_*.txt"))) == 4


def test_search_unknown_tier_exit_two():
    code, _ = run_cli("search", "--order", "2", "--tiers", "involutionn")
    assert code == 2


def test_orders_example2():
    code, out = run_cli("orders", str(STRUCTURES / "example2.txt"))
    assert code == 0
    assert "5 compatible order(s)" in out
    assert "(equality)" in out


def test_orders_require_greatest():
    code, out = run_cli("orders", str(STRUCTURES / "example2.txt"), "--require-greatest")
    assert code == 0
    assert "3 compatible order(s)" in out


def test_orders_json():
    code, out = run_cli("orders", str(STRUCTURES / "example2.txt"), "--json")
    doc = json.loads(out)
    assert doc["count"] == 5
    assert [] in doc["orders"]  # the equality order has no covering pairs


def test_orders_limit_zero_prints_no_order():
    code, out = run_cli("orders", str(STRUCTURES / "example2.txt"), "--limit", "0")
    assert code == 0
    assert out.splitlines() == ["0 compatible order(s)"]


@pytest.mark.parametrize("argv", [
    ("search", "--order", "3", "--limit", "-2", "--claims", "all"),
    ("search", "--order", "3", "--limit", "-1", "--json"),
    ("orders", str(STRUCTURES / "example2.txt"), "--limit", "-1"),
    ("validate", str(STRUCTURES / "example2.txt"), "--max-witnesses", "-1"),
])
def test_negative_limit_exit_two(argv):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""


def test_search_past_the_order_bound_writes_nothing(tmp_path):
    out_dir = tmp_path / "catalog"
    code, out = run_cli("search", "--order", "7", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ("check", str(STRUCTURES / "chain2.txt"), "--claims", ""),
    ("check", str(STRUCTURES / "chain2.txt"), "--claims", "", "--json"),
    ("search", "--order", "2", "--claims", ","),
    ("search", "--order", "2", "--claims", ""),
])
def test_empty_claim_selection_exit_two(argv):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""


def test_candidate_file_validates_with_poe():
    code, out = run_cli("validate", str(STRUCTURES / "example2_candidate_order.txt"),
                        "--expect", "involution,poe,po-semigroup")
    assert code == 0


def test_help_and_version_exit_zero():
    assert run_cli("--help")[0] == 0
    assert run_cli("--version")[0] == 0


def test_a_closed_stdout_ends_the_run_without_a_traceback():
    # `search ... --json | head -1`: the pipe holds one page, so the rest of
    # the 6 kB report is still unwritten when the reader goes away
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs Linux pipe sizes")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "starsemi", "search", "--order", "3", "--claims", "all", "--json"],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    assert os.read(read_end, 2) == b"{\n"
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [
    ("search", "--order", "2", "--tiers", ""),
    ("search", "--order", "2", "--tiers", ","),
    ("validate", str(STRUCTURES / "example2.txt"), "--expect", ""),
    ("validate", str(STRUCTURES / "example2.txt"), "--expect", ","),
])
def test_a_tier_list_naming_no_tier_exit_two(argv):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""


# sha256 over the exit code, stdout and stderr of every run below. A
# deliberate change of the output must update it and say so in CHANGES.md.
SHIPPED_OUTPUT_SHA256 = "37f4c861eacc48cc2470245746ea03314879fbc11d5d2bc1a68f7dc77d9cd0e4"


def test_output_on_every_shipped_structure_is_unchanged(capsys, monkeypatch):
    # the five subcommands that read a file, plain and --json, on every file
    # of structures/ (the paths are relative, so the digest does not depend on
    # where the repo lives)
    monkeypatch.chdir(STRUCTURES.parent)
    digest = hashlib.sha256()
    for path in sorted(STRUCTURES.glob("*.txt")):
        name = f"structures/{path.name}"
        for argv in (["validate", name], ["classify", name], ["check", name, "--claims", "all"],
                     ["filters", name], ["orders", name]):
            for flags in ([], ["--json"]):
                code = run(argv + flags)
                captured = capsys.readouterr()
                digest.update(repr((argv + flags, code, captured.out, captured.err)).encode())
    assert digest.hexdigest() == SHIPPED_OUTPUT_SHA256
