"""End-to-end CLI checks via subprocess: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diosum.cf import IrrationalSpec
from diosum.predict import clog
from diosum.reals import dist_nearest

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "row_schema.json"


def run_cli(*args, env_extra=None, check=True, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "diosum", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_expand_csv_row_count():
    proc = run_cli("expand", "--alpha", "phi", "--terms", "8", "--format", "csv")
    rows = parse_csv(proc.stdout)
    assert len(rows) == 9
    assert [r["a_k"] for r in rows] == ["1"] * 9
    assert rows[8]["q_k"] == "34"
    assert proc.stdout.splitlines()[0].startswith("row_type,")  # header row


def test_expand_golden_bytes():
    # text-mode subprocess capture translates the CSV CRLF to \n
    proc = run_cli("expand", "--alpha", "sqrt2", "--terms", "3", "--format", "csv")
    golden = (
        "row_type,alpha,k,a_k,p_k,q_k,s_k\n"
        "digit,sqrt2,0,1,1,1,0\n"
        "digit,sqrt2,1,2,3,2,2\n"
        "digit,sqrt2,2,2,7,5,4\n"
        "digit,sqrt2,3,2,17,12,6\n"
    )
    assert proc.stdout == golden


def test_expand_e_pattern_json():
    proc = run_cli("expand", "--alpha", "e", "--terms", "12", "--format", "json")
    digits = [json.loads(line)["a_k"] for line in proc.stdout.splitlines()]
    assert digits == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1]


def test_expand_surd_is_phi():
    a = run_cli("expand", "--alpha", "surd:1,5,2", "--terms", "5").stdout
    b = run_cli("expand", "--alpha", "phi", "--terms", "5").stdout
    assert [r["a_k"] for r in parse_csv(a)] == [r["a_k"] for r in parse_csv(b)]


def test_byte_identical_reruns():
    args = ("compare", "--theorem", "thm2.2", "--alpha", "phi", "--N", "100,1000")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_sum_harmonic_value():
    proc = run_cli("sum", "--family", "harmonic", "--alpha", "phi", "--N", "100",
                   "--format", "json")
    row = json.loads(proc.stdout.splitlines()[0])
    assert abs(row["value"] - 36.81323666) < 1e-6
    assert row["width"] < 1e-7


def test_sum_multidim_cli():
    proc = run_cli("sum", "--family", "multidim", "--alpha", "cbrt2,cbrt4",
                   "--N", "4", "--weight", "linf", "--format", "json")
    row = json.loads(proc.stdout.splitlines()[0])
    assert row["terms"] == (2 * 4 + 1) ** 2 - 1


def test_compare_geometric_grid():
    proc = run_cli("compare", "--theorem", "thm2.2", "--alpha", "phi",
                   "--N-geom", "100:1000000:x10")
    rows = parse_csv(proc.stdout)
    assert len(rows) == 5
    for row in rows:
        assert math.isfinite(float(row["normalized_residual"]))
        assert row["error"] == ""


def test_compare_multidim():
    proc = run_cli("compare", "--theorem", "thm3.3", "--alpha", "cbrt2,cbrt4",
                   "--N", "16,32", "--format", "json")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == 2 and all(math.isfinite(r["measured"]) for r in rows)


def test_mc_single_sample_matches_library():
    proc = run_cli("mc", "--samples", "1", "--seed0", "7", "--stat",
                   "khinchin-levy", "--K", "200", "--format", "json")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    sample = next(r for r in rows if r["row_type"] == "mc-sample")
    from diosum import predict

    res = predict.metric_stats([7], 200)
    assert sample["log_qK_over_K"] == res["samples"][0].log_qK_over_K
    agg = next(r for r in rows if r["row_type"] == "mc-aggregate")
    assert agg["median"] == sample["log_qK_over_K"]


def test_mc_sums_rows():
    proc = run_cli("mc", "--samples", "3", "--seed0", "42", "--N", "10000",
                   "--c", "1/2", "--format", "json")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    samples = [r for r in rows if r["row_type"] == "mc-sample"]
    aggs = [r for r in rows if r["row_type"] == "mc-aggregate"]
    assert len(samples) == 3 and len(aggs) == 2
    assert all(0.5 < r["s1_over_2NlogN"] < 2.0 for r in samples)


def test_exit_code_usage():
    assert run_cli("sum", "--family", "bogus", "--alpha", "phi", "--N", "5",
                   check=False).returncode == 2
    assert run_cli("expand", "--alpha", "pi", "--terms", "4",
                   check=False).returncode == 2
    assert run_cli("sum", "--family", "dist", "--alpha", "phi", "--c", "0.5",
                   "--N", "5", check=False).returncode == 2  # reals rejected


def test_exit_code_precision_exhaustion():
    proc = run_cli(
        "expand", "--alpha", "uniform:3", "--terms", "4000",
        env_extra={"DIOSUM_MAX_PRECISION_BITS": "256"},
        check=False,
    )
    assert proc.returncode == 3
    assert "precision" in proc.stderr.lower()


def test_exit_code_block_mismatch():
    proc = run_cli("compare", "--theorem", "thm2.2", "--alpha", "phi",
                   "--N", "100", "--K", "3", check=False)
    assert proc.returncode == 4
    rows = parse_csv(proc.stdout)
    assert "block-mismatch" in rows[0]["error"]


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "diosum.cfg"
    cfg.write_text("format = json\nterms = 3\n# comment line\n")
    proc = run_cli("expand", "--alpha", "phi", "--config", str(cfg))
    assert proc.stdout.lstrip().startswith("{")
    assert len(proc.stdout.splitlines()) == 4
    # explicit flag wins over the config default
    proc2 = run_cli("expand", "--alpha", "phi", "--config", str(cfg),
                    "--format", "csv")
    assert proc2.stdout.startswith("row_type,")


def test_config_boolean_keys(tmp_path):
    args = ("compare", "--theorem", "thm3.2", "--alpha", "sqrt2", "--beta", "1/3",
            "--N", "100", "--config")
    header = {}
    for value in ("true", "1", "false", "0"):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"evidence = {value}\n")
        header[value] = parse_csv(run_cli(*args, str(cfg)).stdout)[0].keys()
    assert "hyp_min_evidence" in header["true"] and header["1"] == header["true"]
    assert "hyp_min_evidence" not in header["false"] and header["0"] == header["false"]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("evidence = yes\n")
    proc = run_cli(*args, str(cfg), check=False)
    assert proc.returncode == 2
    assert "'evidence'" in proc.stderr and "Traceback" not in proc.stderr


def test_config_keys_of_other_subcommands_are_ignored(tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("family = harmonic\nevidence = true\nterms = 2\n")
    proc = run_cli("expand", "--alpha", "phi", "--config", str(cfg))
    assert [r["a_k"] for r in parse_csv(proc.stdout)] == ["1", "1", "1"]


def test_output_file(tmp_path):
    out = tmp_path / "rows.csv"
    run_cli("expand", "--alpha", "sqrt2", "--terms", "4", "--output", str(out))
    rows = parse_csv(out.read_text())
    assert [r["a_k"] for r in rows] == ["1", "2", "2", "2", "2"]


def test_json_rows_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    outputs = [
        run_cli("expand", "--alpha", "e", "--terms", "5", "--format", "json"),
        run_cli("sum", "--family", "dist", "--alpha", "phi", "--c", "1/2",
                "--N", "50,100", "--format", "json"),
        run_cli("compare", "--theorem", "thm1.1", "--alpha", "phi", "--N", "100",
                "--format", "json"),
        run_cli("mc", "--samples", "2", "--seed0", "1", "--N", "1000",
                "--format", "json"),
        run_cli("mc", "--samples", "2", "--seed0", "1", "--stat", "diamond-vaaler",
                "--K", "50", "--format", "json", check=False),
    ]
    validated = 0
    for proc in outputs:
        for line in proc.stdout.splitlines():
            jsonschema.validate(json.loads(line), schema)
            validated += 1
    assert validated > 10


def test_shifted_cli_excludes_min():
    proc = run_cli("sum", "--family", "shifted", "--alpha", "phi", "--beta", "1/3",
                   "--mode", "exclude-min", "--N", "50", "--format", "json")
    row = json.loads(proc.stdout.splitlines()[0])
    assert 1 <= row["excluded_index"] <= 50
    assert row["terms"] == 49


def test_shifted_hypothesis_evidence_column():
    # finite-range evidence, never asserted; the batched column must equal a
    # per-index oracle of the same rel_bits = 20 enclosures exactly
    for alpha, N in (("sqrt2", 2000), ("phi", 1500)):
        spec = IrrationalSpec.parse(alpha)
        for beta in ("1/3", "2/7"):
            proc = run_cli("compare", "--theorem", "thm3.2", "--alpha", alpha,
                           "--beta", beta, "--N", str(N), "--evidence", "--format", "json")
            row = json.loads(proc.stdout.splitlines()[0])
            oracle = min(
                n * clog(clog(n)) * float(dist_nearest(spec, n, Fraction(beta), rel_bits=20).hi)
                for n in range(1, N + 1)
            )
            assert row["hyp_min_evidence"] == oracle > 0


def test_mc_skipped_samples_logged():
    proc = run_cli(
        "mc", "--samples", "2", "--seed0", "1", "--stat", "khinchin-levy",
        "--K", "5000",
        env_extra={"DIOSUM_MAX_PRECISION_BITS": "4096"},
        check=False,
    )
    # digit extraction for K = 5000 needs ~17k bits: both samples skip,
    # with reasons on stderr, and the command still exits cleanly
    assert proc.returncode == 0
    assert proc.stderr.count("skipped seed") == 2
    agg = [r for r in parse_csv(proc.stdout) if r.get("row_type") == "mc-aggregate"]
    assert agg and agg[0]["count"] == "0"


def test_cli_and_kernel_imports_leave_numpy_unloaded():
    # numpy is imported by the functions that use it, which keeps CLI start-up
    # short; kernel.discrepancy_profile is one of them
    code = ("import sys; import diosum.kernel; k = 'numpy' in sys.modules; "
            "import diosum.cli; print(k, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, check=True)
    assert proc.stdout.split() == ["False", "False"]


def test_cli_never_tracebacks():
    bad_invocations = [
        ("sum", "--family", "dist", "--alpha", "phi"),  # missing N
        ("sum", "--family", "dist", "--alpha", "phi", "--c", "-1/2", "--N", "5"),
        ("sum", "--family", "frac", "--alpha", "phi", "--weight", "1", "--N", "5"),
        ("compare", "--theorem", "thm9.9", "--alpha", "phi", "--N", "5"),
        ("expand", "--alpha", "surd:1,4,2", "--terms", "3"),  # D a square
        ("expand", "--alpha", "digits:1,0,2", "--terms", "2"),
        ("mc", "--samples", "2", "--stat", "sums"),  # missing --N
        ("sum", "--family", "multidim", "--alpha", "phi,phi", "--N", "2"),
        ("expand", "--alpha", "phi", "--terms", "-3"),
        ("sum", "--family", "dist", "--alpha", "phi", "--c", "1/2",
         "--N-geom", "10:100:5"),
    ]
    for args in bad_invocations:
        proc = run_cli(*args, check=False)
        assert proc.returncode in (2, 3, 4), (args, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, args


def test_sum_rejects_N_below_one():
    for family in ("dist", "frac", "cofrac"):
        proc = run_cli("sum", "--family", family, "--alpha", "phi", "--c", "1/2",
                       "--N", "0", check=False)
        assert proc.returncode == 2, (family, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_parse_count_exact():
    from diosum.cli import _parse_count
    from diosum.errors import DiosumError

    assert _parse_count("1e23") == 10**23
    assert _parse_count("1.5E1") == 15
    assert _parse_count("3e+400") == 3 * 10**400
    for text in ("1.25e1", "1e-1", "1/2e3", "2e3e4", "1.5"):
        with pytest.raises(DiosumError):
            _parse_count(text)


def test_mc_rejects_bad_sum_arguments():
    # a usage error, not two skipped samples and exit 0
    for bad in (["--N", "0"], ["--N", "100", "--c=-1/2"]):
        proc = run_cli("mc", "--samples", "2", "--stat", "sums", *bad, check=False)
        assert proc.returncode == 2, (bad, proc.stderr)
        assert "skipped seed" not in proc.stderr and proc.stdout == ""


def test_expand_writes_convergents_past_int_str_limit():
    # q_500 of this spec has about 4500 digits, past Python's default 4300
    spec = "digits:0,999999999*600"
    for fmt in ("csv", "json"):
        proc = run_cli("expand", "--alpha", spec, "--terms", "500", "--format", fmt)
        last = proc.stdout.splitlines()[-1]
        # parsing the value back would hit the same limit in this process
        q_text = last.split('"q_k": ')[1].split(",")[0] if fmt == "json" else last.split(",")[5]
        assert q_text.isdigit() and len(q_text) > 4300


def test_sum_rejects_weight_the_family_does_not_take():
    for family, takes in (("shifted", "1 or 1/n"), ("frac", "1 or 1/n"),
                          ("cofrac", "1 or 1/n"), ("dist", "1"), ("harmonic", "1/n")):
        proc = run_cli("sum", "--family", family, "--alpha", "phi", "--c", "1/2",
                       "--N", "10", "--weight", "linf", check=False)
        assert proc.returncode == 2, (family, proc.stderr)
        assert f"takes --weight {takes}" in proc.stderr, proc.stderr
        assert proc.stdout == ""
    proc = run_cli("sum", "--family", "multidim", "--alpha", "cbrt2,cbrt4",
                   "--N", "4", "--weight", "1/n", check=False)
    assert proc.returncode == 2 and "takes --weight 1 or linf" in proc.stderr


def test_c_zero_is_rejected_not_replaced():
    # --c 0 used to be read as "no --c" and run with c = 1/2
    for args in (("sum", "--family", "dist", "--alpha", "phi", "--N", "100"),
                 ("compare", "--theorem", "thm2.1", "--alpha", "phi", "--N", "100"),
                 ("mc", "--samples", "2", "--stat", "sums", "--N", "100")):
        proc = run_cli(*args, "--c", "0", check=False)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "c must be a positive rational" in proc.stderr, proc.stderr
        assert proc.stdout == "" and "skipped seed" not in proc.stderr


def test_compare_rejects_weight_the_theorem_does_not_take():
    for theorem, weight, takes in (("thm3.1", "linf", "1/n or 1"),
                                   ("thm3.2", "linf", "1 or 1/n"),
                                   ("thm3.3", "1/n", "1 or linf"),
                                   ("thm2.1", "1/n", "1"), ("thm2.2", "1", "1/n"),
                                   ("thm1.1", "1/n", "1")):
        alpha = "cbrt2,cbrt4" if theorem == "thm3.3" else "phi"
        proc = run_cli("compare", "--theorem", theorem, "--alpha", alpha, "--N", "100",
                       "--weight", weight, check=False)
        assert proc.returncode == 2, (theorem, proc.stderr)
        assert f"{theorem}" in proc.stderr and f"takes --weight {takes}," in proc.stderr
        assert proc.stdout == ""
    proc = run_cli("compare", "--theorem", "thm1.1", "--alpha", "phi", "--N", "100",
                   "--family", "harmonic", "--weight", "1", check=False)
    assert proc.returncode == 2 and "takes --weight 1/n," in proc.stderr


def test_bad_worker_count_is_a_usage_error():
    # the values themselves are checked in test_sums; here, the exit code
    for raw in ("abc", "0"):
        for args in (("sum", "--family", "dist", "--alpha", "phi", "--N", "40000"),
                     ("mc", "--samples", "1", "--stat", "sums", "--N", "40000")):
            proc = run_cli(*args, env_extra={"DIOSUM_WORKERS": raw}, check=False)
            assert proc.returncode == 2, (raw, args, proc.stderr)
            assert "DIOSUM_WORKERS" in proc.stderr and "Traceback" not in proc.stderr
            assert proc.stdout == ""


def test_bad_kernel_choice_is_a_usage_error():
    # a missing extension is simulated by blocking its import
    no_ext = ("import sys; sys.modules['diosum._ckernel'] = None; "
              "from diosum.cli import main; sys.exit(main(sys.argv[1:]))")
    for raw, cmd in (("gpu", [sys.executable, "-m", "diosum"]),
                     ("c", [sys.executable, "-c", no_ext])):
        for args in (("sum", "--family", "dist", "--alpha", "phi", "--N", "400"),
                     ("mc", "--samples", "1", "--stat", "sums", "--N", "400")):
            proc = subprocess.run([*cmd, *args], capture_output=True, text=True, cwd=ROOT,
                                  env=dict(os.environ, DIOSUM_KERNEL=raw))
            assert proc.returncode == 2, (raw, args, proc.stderr)
            assert "DIOSUM_KERNEL" in proc.stderr and "Traceback" not in proc.stderr
            assert proc.stdout == ""


def test_exclude_min_rejects_N_zero():
    # used to search an empty range up to the cap and report a tie among []
    proc = run_cli("sum", "--family", "shifted", "--alpha", "phi", "--beta", "1/3",
                   "--mode", "exclude-min", "--N", "0", check=False)
    assert proc.returncode == 2 and "N must be >= 1" in proc.stderr, proc.stderr


@pytest.mark.parametrize("args", [
    ("sum", "--family", "harmonic", "--alpha", "phi", "--N", "99999999999999999999999"),
    ("compare", "--theorem", "thm2.1", "--alpha", "phi", "--N", "1e21"),
    ("mc", "--samples", "2", "--stat", "sums", "--N", "1e20"),
    ("sum", "--family", "multidim", "--alpha", "cbrt2,cbrt4", "--N", "1e20"),
], ids=["sum", "compare", "mc", "multidim"])
def test_sums_past_2_64_terms_exit_2_at_once(args):
    # these used to run with no output until killed
    proc = run_cli(*args, check=False, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "below 2**64" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
