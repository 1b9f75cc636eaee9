import hashlib
import json
import math
import random
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from wnocpower import __version__
from wnocpower.cli import EXIT_DATA, EXIT_EXTRAPOLATION, EXIT_OK, EXIT_USAGE, main
from wnocpower.exampledata import EXAMPLES_DIR, default_bundle
from wnocpower.regression import ExpFitModel, save_model
from wnocpower.survey import BlockKind
from wnocpower.units import FrequencyGhz

BUNDLE = default_bundle()
# The outputs of the README commands on the shipped surveys.
GOLDEN = Path(__file__).parent / "data" / "bundle"
# SHA-256 of multi-chunk, multi-level CLI sweeps on the golden models, each with its argv.
SWEEP_DIGESTS = GOLDEN.parent / "sweep"


@pytest.fixture()
def models(tmp_path):
    """Fit the three example surveys into model files once per test."""
    paths = {}
    for kind, csv_path in (
        ("PA", BUNDLE.pa_csv),
        ("OSC", BUNDLE.oscillator_csv),
        ("MIXER", BUNDLE.mixer_csv),
    ):
        out = tmp_path / f"{kind.lower()}_model.json"
        assert main(["fit", str(csv_path), "--block", kind, "--out", str(out)]) == EXIT_OK
        paths[kind] = out
    return paths


def model_flags(models):
    return [
        "--pa-model", str(models["PA"]),
        "--osc-model", str(models["OSC"]),
        "--mixer-model", str(models["MIXER"]),
    ]


# --- fit -----------------------------------------------------------------


def test_fit_writes_model_and_manifest(tmp_path, capsys):
    out = tmp_path / "pa.json"
    code = main(["fit", str(BUNDLE.pa_csv), "--block", "PA", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    for needle in ("a ", "b ", "R^2 (log domain)", "R^2 (linear)", "GHz", "1/GHz"):
        assert needle in stdout
    doc = json.loads(out.read_text())
    assert doc["block"] == "PA"
    assert doc["n_points"] == 12
    assert (doc["valid_lo_ghz"], doc["valid_hi_ghz"]) == (0.9, 309.3)
    assert doc["strategy"] == "pareto-upper"
    assert len(doc["source_dataset_digest"]) == 64
    manifest = json.loads((tmp_path / "pa.json.manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["input_digests"] == {
        str(BUNDLE.pa_csv): hashlib.sha256(BUNDLE.pa_csv.read_bytes()).hexdigest()}
    assert manifest["tool_version"]


def test_fit_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["fit", str(BUNDLE.mixer_csv), "--block", "MIXER", "--out", str(out1)]) == EXIT_OK
    assert main(["fit", str(BUNDLE.mixer_csv), "--block", "MIXER", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "m1.json.manifest.json").read_text())
    m2 = json.loads((tmp_path / "m2.json.manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    m1["parameters"].pop("out"), m2["parameters"].pop("out")
    assert m1 == m2


def test_fit_single_row_survey_fails_with_diagnostics(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("block,frequency_ghz,metric,label\nPA,60,20,a\n")
    code = main(["fit", str(csv_path), "--block", "PA", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    assert "2 distinct frequencies" in capsys.readouterr().err


def test_fit_bad_row_reports_row_number(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("block,frequency_ghz,metric,label\nPA,60,20,a\nPA,-3,10,b\n")
    code = main(["fit", str(csv_path), "--block", "PA", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    assert "row 3" in capsys.readouterr().err


def test_fit_block_mismatch(tmp_path, capsys):
    code = main(["fit", str(BUNDLE.oscillator_csv), "--block", "PA", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    assert "OSC records" in capsys.readouterr().err


def test_fit_binned_max_strategy(tmp_path):
    out = tmp_path / "m.json"
    code = main(["fit", str(BUNDLE.pa_csv), "--block", "PA",
                 "--strategy", "binned-max", "--bins", "6", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["strategy"] == "binned-max:6"


def test_fit_binned_max_requires_bins(tmp_path, capsys):
    code = main(["fit", str(BUNDLE.pa_csv), "--block", "PA",
                 "--strategy", "binned-max", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_USAGE
    assert "--bins" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["fit", "--frob"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = main(["fit", str(tmp_path / "absent.csv"), "--block", "PA", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    capsys.readouterr()


# --- breakdown -------------------------------------------------------------


def test_breakdown_prints_table_with_units(models, capsys):
    code = main(["breakdown", *model_flags(models), "--freq", "60",
                 "--p-if", "-5", "--p-mixer-out", "-10", "--p-pa-out", "0", "--p-osc-rf", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "P_DC [mW]" in out and "share [%]" in out and "GHz" in out and "dBm" in out
    assert "total" in out


def test_breakdown_without_pa_reports_zero_row(models, capsys):
    code = main(["breakdown", *model_flags(models), "--freq", "60", "--p-mixer-out", "-10"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PA out = absent" in out
    pa_line = next(line for line in out.splitlines() if line.strip().startswith("PA"))
    assert "0.000000" in pa_line and "0.00" in pa_line


def test_breakdown_warns_on_extrapolation(models, capsys):
    code = main(["breakdown", *model_flags(models), "--freq", "243", "--p-mixer-out", "-10"])
    assert code == EXIT_OK
    assert "MIXER" in capsys.readouterr().err


def test_breakdown_strict_extrapolation_exit_code(models, capsys):
    code = main(["breakdown", *model_flags(models), "--freq", "243",
                 "--p-mixer-out", "-10", "--strict"])
    assert code == EXIT_EXTRAPOLATION
    capsys.readouterr()


def test_breakdown_kind_mismatch(models, capsys):
    code = main(["breakdown",
                 "--pa-model", str(models["OSC"]),
                 "--osc-model", str(models["OSC"]),
                 "--mixer-model", str(models["MIXER"]),
                 "--freq", "60", "--p-mixer-out", "-10"])
    assert code == EXIT_DATA
    assert "OSC model" in capsys.readouterr().err


def test_breakdown_invalid_power_ordering(models, capsys):
    code = main(["breakdown", *model_flags(models), "--freq", "60",
                 "--p-mixer-out", "-5", "--p-pa-out", "-10"])
    assert code == EXIT_DATA
    assert "must exceed mixer output" in capsys.readouterr().err


def test_breakdown_zero_gain_pa_treated_as_absent(models, capsys):
    code = main(["breakdown", *model_flags(models), "--freq", "60",
                 "--p-mixer-out", "0", "--p-pa-out", "0"])
    assert code == EXIT_OK
    assert "PA out = absent" in capsys.readouterr().out


def test_breakdown_out_csv(models, tmp_path, capsys):
    out_csv = tmp_path / "row.csv"
    code = main(["breakdown", *model_flags(models), "--freq", "60",
                 "--p-mixer-out", "-10", "--out-csv", str(out_csv)])
    assert code == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("frequency_ghz,")
    assert len(lines) == 2
    assert (tmp_path / "row.csv.manifest.json").exists()
    capsys.readouterr()


def test_breakdown_out_json(models, tmp_path, capsys):
    out_json = tmp_path / "bd.json"
    code = main(["breakdown", *model_flags(models), "--freq", "60",
                 "--p-mixer-out", "-10", "--out-json", str(out_json)])
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["config"]["frequency_ghz"] == 60.0
    capsys.readouterr()


# --- sweep -------------------------------------------------------------------


def test_sweep_levels_and_freqs_row_count(models, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *model_flags(models),
                 "--levels", "-15,-10,-5,0", "--freqs", "30,60,140,243",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 16
    capsys.readouterr()


def test_sweep_range_two_points(models, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *model_flags(models), "--range", "10:100:2",
                 "--p-mixer-out", "-10", "--out", str(out)])
    assert code == EXIT_OK
    rows = out.read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [10.0, 100.0]
    capsys.readouterr()


def test_sweep_malformed_range_is_usage_error(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--range", "10:100",
                 "--p-mixer-out", "-10", "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_sweep_requires_exactly_one_grid_spec(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--p-mixer-out", "-10",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    code = main(["sweep", *model_flags(models), "--freqs", "10,20", "--range", "1:2:2",
                 "--p-mixer-out", "-10", "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_sweep_unsorted_freqs_is_data_error(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--freqs", "60,30",
                 "--p-mixer-out", "-10", "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_DATA
    assert "strictly increasing" in capsys.readouterr().err


def test_sweep_needs_mixer_level_or_levels(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--freqs", "30,60",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "wnocpower sweep: one of the arguments --p-mixer-out --levels is required\n")
    assert list(tmp_path.glob("s.csv*")) == []


def test_sweep_level_source_usage_error_comes_before_a_bad_range(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--range", "60:30:5",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "wnocpower sweep: one of the arguments --p-mixer-out --levels is required\n")


def test_sweep_strict_flags_extrapolated_rows(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--freqs", "30,243",
                 "--p-mixer-out", "-10", "--strict", "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_EXTRAPOLATION
    capsys.readouterr()


def test_sweep_is_deterministic(models, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", *model_flags(models), "--freqs", "30,60,140",
            "--p-mixer-out", "-5", "--p-pa-out", "0"]
    assert main([*args, "--out", str(a)]) == EXIT_OK
    assert main([*args, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# --- recommend -----------------------------------------------------------------


def test_recommend_monotone_boundary(models, capsys):
    code = main(["recommend", *model_flags(models), "--range", "20:140",
                 "--p-mixer-out", "-5", "--p-pa-out", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "recommended operating frequency: 20 GHz" in out
    assert "boundary: lower" in out


def test_recommend_rejects_fully_extrapolated_range(models, capsys):
    code = main(["recommend", *model_flags(models), "--range", "200:300",
                 "--p-mixer-out", "-5"])
    assert code == EXIT_EXTRAPOLATION
    assert "no frequency in [200.0, 300.0] GHz" in capsys.readouterr().err


def test_recommend_allow_extrapolation_flags_all_blocks(models, capsys):
    code = main(["recommend", *model_flags(models), "--range", "320:400",
                 "--p-mixer-out", "-5", "--p-pa-out", "0", "--allow-extrapolation"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "320 GHz" in captured.out
    for token in ("PA", "OSC", "MIXER"):
        assert token in captured.err


# --- validate-examples ------------------------------------------------------------


def test_validate_examples_passes(capsys):
    assert main(["validate-examples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_validate_examples_writes_its_golden_bytes(capsys):
    for data_dir in ([], ["--data-dir", str(EXAMPLES_DIR)]):
        assert main(["validate-examples", *data_dir]) == EXIT_OK
        assert capsys.readouterr().out.encode() == (GOLDEN / "validate-examples.stdout").read_bytes()


def test_validate_examples_missing_dir(tmp_path, capsys):
    assert main(["validate-examples", "--data-dir", str(tmp_path)]) == EXIT_DATA
    assert capsys.readouterr().err == "4 of 4 checks failed\n"


@pytest.mark.parametrize("levels", [
    ["--p-mixer-out", "-10", "--p-pa-out", "4000"],  # overflows a float in mW
    ["--p-mixer-out", "-4000", "--p-osc-rf", "-4000"],  # every draw rounds to 0 mW
    ["--p-mixer-out", "-10", "--p-if", "-4000"],  # divides by 0 mW
])
def test_breakdown_unrepresentable_power_is_data_error(models, capsys, levels):
    code = main(["breakdown", *model_flags(models), "--freq", "60", *levels])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "dBm" in err


@pytest.mark.parametrize("command", [
    ["breakdown", "--freq", "60"],
    ["sweep", "--freqs", "30,60", "--out", "sweep.csv"],
    ["recommend", "--range", "20:140"],
])
def test_two_unrepresentable_levels_name_the_same_one_in_every_command(models, tmp_path, capsys,
                                                                        monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    levels = ["--p-mixer-out", "4000", "--p-osc-rf", "5000"]
    assert main([*command, *model_flags(models), *levels]) == EXIT_DATA
    assert capsys.readouterr().err == "error: 5000.0 dBm overflows a float in mW\n"


def test_readme_commands_write_the_golden_bundle_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for kind, csv_path, out in (("PA", BUNDLE.pa_csv, "pa.json"),
                                ("OSC", BUNDLE.oscillator_csv, "osc.json"),
                                ("MIXER", BUNDLE.mixer_csv, "mix.json")):
        assert main(["fit", str(csv_path), "--block", kind, "--out", out]) == EXIT_OK
    models = ["--pa-model", "pa.json", "--osc-model", "osc.json", "--mixer-model", "mix.json"]
    capsys.readouterr()
    assert main(["breakdown", *models, "--freq", "60", "--p-if", "-5", "--p-mixer-out", "-10",
                 "--p-pa-out", "0", "--p-osc-rf", "0",
                 "--out-csv", "breakdown.csv", "--out-json", "breakdown.json"]) == EXIT_OK
    (tmp_path / "breakdown.stdout").write_bytes(capsys.readouterr().out.encode())
    assert main(["sweep", *models, "--levels", "-15,-10,-5,0", "--freqs", "30,60,140,243",
                 "--p-pa-out", "5", "--out", "sweep.csv"]) == EXIT_OK
    capsys.readouterr()
    assert main(["recommend", *models, "--range", "20:140", "--p-mixer-out", "-5",
                 "--p-pa-out", "0"]) == EXIT_OK
    (tmp_path / "recommend.stdout").write_bytes(capsys.readouterr().out.encode())
    # a two-point grid still settles the answer to the float
    assert main(["recommend", *models, "--range", "20:140", "--p-mixer-out", "-5",
                 "--p-pa-out", "0", "--n-grid", "2"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / "recommend.stdout").read_bytes()
    assert main(["validate-examples"]) == EXIT_OK
    (tmp_path / "validate-examples.stdout").write_bytes(capsys.readouterr().out.encode())
    golden = sorted(GOLDEN.iterdir())
    assert len(golden) == 9
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
    # each result's manifest: its five keys, this version and the digest of each input as read
    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert len(manifests) == 6
    for manifest in manifests:
        doc = json.loads(manifest.read_text())
        assert sorted(doc) == ["command", "input_digests", "parameters", "timestamp",
                               "tool_version"], manifest.name
        assert doc["tool_version"] == __version__
        for path, digest in doc["input_digests"].items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest, manifest.name


def test_interior_minimum_recommendation_writes_its_golden_bytes(capsys):
    # The bundle PA and oscillator with a rising-FoM mixer: a minimum inside the range.
    interior = GOLDEN.parent / "interior"
    assert main(["recommend", "--pa-model", str(GOLDEN / "pa.json"),
                 "--osc-model", str(GOLDEN / "osc.json"),
                 "--mixer-model", str(interior / "mix.json"),
                 "--range", "20:140", "--p-mixer-out", "-5", "--p-pa-out", "0"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (interior / "recommend.stdout").read_bytes()


def test_cli_import_does_not_load_numpy(tmp_path):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wnocpower

    src = str(Path(wnocpower.__file__).resolve().parent.parent)
    fits = [["fit", str(csv), "--block", kind, "--out", str(tmp_path / f"{kind}.json")]
            for kind, csv in (("PA", BUNDLE.pa_csv), ("OSC", BUNDLE.oscillator_csv),
                              ("MIXER", BUNDLE.mixer_csv))]
    breakdown = ["breakdown", "--pa-model", str(tmp_path / "PA.json"),
                 "--osc-model", str(tmp_path / "OSC.json"),
                 "--mixer-model", str(tmp_path / "MIXER.json"), "--freq", "60",
                 "--p-mixer-out", "-10", "--p-pa-out", "0", "--out-csv", str(tmp_path / "bd.csv")]
    # only what the import, then the commands, add counts; -S keeps any site hook from loading
    # modules first, so the check is the same on every host, and -W error fails on any warning
    code = ("import json, sys; before = set(sys.modules); import wnocpower.cli; "
            "imported = set(sys.modules) - before; "
            "codes = [wnocpower.cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted(imported), sorted(set(sys.modules) - before)]))")
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", code,
                           json.dumps([*fits, breakdown])],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    codes, added, run = json.loads(proc.stdout.splitlines()[-1])
    added = set(added)
    assert "wnocpower.cli" in added
    assert "numpy" not in added
    assert not added & {"hashlib", "_hashlib"}
    assert not added & {"dataclasses", "inspect"}  # ~10 ms of a cold start, with what they load
    # fitting digests the survey and each result's manifest digests its inputs, all without
    # hashlib, which would load OpenSSL
    assert codes == [EXIT_OK] * 4
    assert sorted(p.name for p in tmp_path.glob("*.manifest.json")) == [
        "MIXER.json.manifest.json", "OSC.json.manifest.json", "PA.json.manifest.json",
        "bd.csv.manifest.json"]
    assert not set(run) & {"hashlib", "_hashlib"}
    assert "typing" not in run  # annotations come from builtins and collections.abc


def test_no_wnocpower_class_is_a_dataclass():
    """A frozen dataclass compiles its generated methods at import; every value type is a
    record or a slotted class instead."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wnocpower

    src = str(Path(wnocpower.__file__).resolve().parent.parent)
    code = ("import json, sys; import wnocpower.cli; print(json.dumps(sorted("
            "f'{name}.{value.__name__}' for name, module in list(sys.modules.items()) "
            "if name.split('.')[0] == 'wnocpower' for value in vars(module).values() "
            "if isinstance(value, type) and value.__module__ == name "
            "and hasattr(value, '__dataclass_fields__'))))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == []


def test_failed_write_leaves_no_partial_file_and_no_stale_manifest(models, tmp_path, capsys,
                                                                    monkeypatch):
    import wnocpower.cli as cli

    out = tmp_path / "out" / "sweep.csv"
    out.parent.mkdir()
    manifest = tmp_path / "out" / "sweep.csv.manifest.json"

    def run_sweep(level, path):
        return main(["sweep", *model_flags(models), "--freqs", "30,60",
                     "--p-mixer-out", level, "--out", str(path)])

    assert run_sweep("-5", out) == EXIT_OK
    before = out.read_bytes(), manifest.read_bytes()

    # a rendered text that cannot be encoded fails halfway through the write
    monkeypatch.setattr(cli, "breakdowns_to_csv", lambda rows: "frequency_ghz\n\udc80\n")
    assert run_sweep("-10", out) == EXIT_DATA
    assert (out.read_bytes(), manifest.read_bytes()) == before
    assert run_sweep("-10", out.with_name("fresh.csv")) == EXIT_DATA
    assert sorted(p.name for p in out.parent.iterdir()) == ["sweep.csv", "sweep.csv.manifest.json"]
    monkeypatch.undo()

    # a new result whose manifest cannot be written keeps no manifest of the old one
    real_write = cli.write_text_atomic

    def fail(path, text):
        if str(path).endswith(".manifest.json"):
            raise OSError("disk full")
        real_write(path, text)

    monkeypatch.setattr(cli, "write_text_atomic", fail)
    assert run_sweep("-10", out) == EXIT_DATA
    assert out.read_bytes() != before[0]
    assert not manifest.exists()
    capsys.readouterr()


def test_manifest_records_exactly_its_five_keys_and_the_inputs_as_read(models, tmp_path,
                                                                       capsys):
    import hashlib

    osc = tmp_path / "osc.json"
    osc.write_bytes(models["OSC"].read_bytes())
    digest = hashlib.sha256(osc.read_bytes()).hexdigest()
    code = main(["breakdown", "--osc-model", str(osc), "--mixer-model", str(models["MIXER"]),
                 "--freq", "60", "--p-mixer-out", "-5", "--out-json", str(osc)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "osc.json.manifest.json").read_text())
    assert sorted(manifest) == ["command", "input_digests", "parameters", "timestamp",
                                "tool_version"]
    assert manifest["command"] == "breakdown" and manifest["tool_version"] == __version__
    parameters = manifest["parameters"]
    assert "func" not in parameters and None not in parameters.values()
    assert "pa_model" not in parameters and "p_pa_out" not in parameters
    assert parameters["osc_model"] == parameters["out_json"] == str(osc)
    assert manifest["input_digests"] == {
        str(osc): digest,
        str(models["MIXER"]): hashlib.sha256(models["MIXER"].read_bytes()).hexdigest(),
    }
    assert hashlib.sha256(osc.read_bytes()).hexdigest() != digest
    capsys.readouterr()


def test_sweep_manifest_records_its_three_model_files(models, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", *model_flags(models), "--freqs", "30,60", "--levels", "-10,-5",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["input_digests"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in models.values()}
    capsys.readouterr()


def test_sweep_out_through_symlink_keeps_link_and_updates_target(models, tmp_path, capsys):
    target = tmp_path / "runs" / "sweep-1.csv"
    target.parent.mkdir()
    target.write_text("stale\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)

    assert main(["sweep", *model_flags(models), "--freqs", "30,60",
                 "--p-mixer-out", "-5", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text().startswith("frequency_ghz,")
    assert sorted(p.name for p in target.parent.iterdir()) == ["sweep-1.csv"]
    capsys.readouterr()


def test_atomic_write_to_a_fifo_writes_in_place(tmp_path):
    import os
    import stat

    from wnocpower.fileio import write_text_atomic

    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # a reader opened first lets the write open the FIFO without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text_atomic(fifo, "a,b\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.read(reader, 64) == b"a,b\n"
    finally:
        os.close(reader)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_fit_block_mismatch_names_both_kinds(tmp_path, capsys):
    code = main(["fit", str(BUNDLE.oscillator_csv), "--block", "PA", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {BUNDLE.oscillator_csv} holds OSC records, expected PA\n"


def test_fit_binned_max_of_frequencies_with_equal_log10(tmp_path, capsys):
    # 100.0 and the next double up share one log10, so both fall in one bin
    # and the single-point frontier cannot be fitted
    csv_path = tmp_path / "near.csv"
    csv_path.write_text("block,frequency_ghz,metric,label\nPA,100.0,20,a\n"
                        "PA,100.00000000000001,30,b\n")
    code = main(["fit", str(csv_path), "--block", "PA", "--strategy", "binned-max",
                 "--bins", "3", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "2 distinct frequencies" in err


def test_breakdown_with_overflowing_fit_is_data_error(models, tmp_path, capsys):
    doc = json.loads(models["MIXER"].read_text())
    doc["b"] = 5.0
    mix5 = tmp_path / "mix5.json"
    mix5.write_text(json.dumps(doc))
    code = main(["breakdown", "--osc-model", str(models["OSC"]), "--mixer-model", str(mix5),
                 "--freq", "200", "--p-mixer-out", "-5"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: MIXER fit at 200.0 GHz = inf") and len(err.splitlines()) == 1


def test_p_pa_out_help_states_the_zero_gain_rule(capsys):
    assert main(["breakdown", "--help"]) == EXIT_OK
    assert "equal to --p-mixer-out" in " ".join(capsys.readouterr().out.split())


def test_sweep_usage_shows_the_level_source_as_one_required_group(capsys):
    assert main(["sweep", "--help"]) == EXIT_OK
    usage = " ".join(capsys.readouterr().out.split())
    assert "(--p-mixer-out P_MIXER_OUT | --levels LEVELS)" in usage


@pytest.mark.parametrize("flag, shown", [("--help", "usage: wnocpower"),
                                         ("--version", f"wnocpower {__version__}")] + [
    (f"{sub} --help", f"usage: wnocpower {sub}")
    for sub in ("fit", "breakdown", "sweep", "recommend", "validate-examples")])
def test_top_level_help_and_version_return_zero(flag, shown, capsys):
    assert main(flag.split()) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(shown) and captured.err == ""


def test_version_is_stated_once():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == __version__


def test_sweep_with_empty_freqs_is_a_usage_error(models, tmp_path, capsys):
    code = main(["sweep", *model_flags(models), "--freqs=", "--p-mixer-out", "-5",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "wnocpower sweep: argument --freqs: not a comma-separated number list: ''\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag, text", [("--freqs", "30,,60"), ("--freqs", "30,60,"),
                                        ("--freqs", "30, ,60"), ("--levels", "-15,,-5")])
def test_a_comma_list_with_an_empty_field_is_a_usage_error(models, tmp_path, capsys, flag,
                                                           text):
    other = ["--p-mixer-out", "-5"] if flag == "--freqs" else ["--freqs", "30,60"]
    code = main(["sweep", *model_flags(models), f"{flag}={text}", *other,
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"wnocpower sweep: argument {flag}: not a comma-separated number list: {text!r}\n")
    assert list(tmp_path.glob("s.csv*")) == []


@pytest.mark.parametrize("levels, message", [
    (["--p-mixer-out", "0", "--levels=-10"],
     "argument --levels: not allowed with argument --p-mixer-out"),
    (["--levels="], "argument --levels: not a comma-separated number list: ''"),
], ids=["both-level-flags", "empty-levels"])
def test_sweep_needs_exactly_one_nonempty_level_source(models, tmp_path, capsys, levels, message):
    out = tmp_path / "s.csv"
    code = main(["sweep", *model_flags(models), "--freqs", "30,60", *levels, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"wnocpower sweep: {message}\n"
    assert list(tmp_path.glob("s.csv*")) == []


def test_recommend_malformed_range_is_usage_error(models, capsys):
    code = main(["recommend", *model_flags(models), "--range", "10", "--p-mixer-out", "-5"])
    assert code == EXIT_USAGE
    assert "expected lo:hi (got '10')" in capsys.readouterr().err


def _model_file(tmp_path, kind, a, b):
    """A model JSON of the trend a * exp(b * f) fitted on [1, 300] GHz."""
    path = tmp_path / f"{kind.token}.json"
    save_model(path, kind, ExpFitModel(a, b, FrequencyGhz(1.0), FrequencyGhz(300.0),
                                       1.0, 1.0, 2, "test"), "0" * 64)
    return str(path)


# the --range flags and answer of each rising-FoM case: with no PA the total falls with frequency
_RISING = {"range-end": (["10:300"], "300 GHz"),
           "span-end": (["10:400"], "300 GHz"),  # the models' span ends at 300 GHz
           # past the span, the oscillator's efficiency 0.1 * exp(0.005 f) reaches 1 at ln(10)/0.005
           "efficiency-1": (["10:600", "--allow-extrapolation"], "460.517 GHz")}


@pytest.mark.parametrize("case, label", [("bundle", "(at admissible bound: lower)"),
                                         ("interior", "(interior minimum)"),
                                         ("range-end", "(at range boundary: upper)"),
                                         ("span-end", "(at admissible bound: upper)"),
                                         ("efficiency-1", "(at admissible bound: upper)")])
def test_recommend_labels_which_bound_the_answer_sits_on(models, tmp_path, capsys, case, label):
    search = ["10:300"]
    if case == "bundle":  # 12.7 GHz is where the oscillator's span starts
        flags, expected = [*model_flags(models), "--p-pa-out", "0"], "12.7 GHz"
    elif case == "interior":
        flags = ["--osc-model", _model_file(tmp_path, BlockKind.OSCILLATOR, 0.5, -0.007),
                 "--mixer-model", _model_file(tmp_path, BlockKind.MIXER, 0.01, 0.03)]
        expected = "145.062 GHz"
    else:
        flags = ["--osc-model", _model_file(tmp_path, BlockKind.OSCILLATOR, 0.1, 0.005),
                 "--mixer-model", _model_file(tmp_path, BlockKind.MIXER, 0.01, 0.01)]
        search, expected = _RISING[case]
    code = main(["recommend", *flags, "--range", *search, "--p-mixer-out", "-5"])
    assert code == EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"recommended operating frequency: {expected} {label}"


@pytest.mark.parametrize("command, message", [
    (["breakdown", "--freq", "60"], "total draw at 60.0 GHz: power in mW must be finite (got inf)"),
    (["sweep", "--freqs", "60", "--out", "s.csv"],
     "sweep failed at 60.0 GHz: total draw at 60.0 GHz: power in mW must be finite (got inf)"),
], ids=["breakdown", "sweep"])
def test_total_past_the_float_range_is_a_one_line_data_error(tmp_path, monkeypatch, capsys,
                                                             command, message):
    # flat PAE 100 %, efficiency 1 and FoM 1/mW: the PA and the oscillator draw 1e308 mW each
    monkeypatch.chdir(tmp_path)
    flags = ["--pa-model", _model_file(tmp_path, BlockKind.PA, 100.0, 0.0),
             "--osc-model", _model_file(tmp_path, BlockKind.OSCILLATOR, 1.0, 0.0),
             "--mixer-model", _model_file(tmp_path, BlockKind.MIXER, 1.0, 0.0)]
    code = main([*command, *flags, "--p-mixer-out", "-10", "--p-pa-out", "3080",
                 "--p-osc-rf", "3080"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


_NO_MODELS = ["--osc-model", "osc.json", "--mixer-model", "mix.json"]
_HUGE = "1" + "0" * 400  # a grid size past the float range
_SURVEY_HEADER = b"block,frequency_ghz,metric,label\n"
_OSC_MODEL = (GOLDEN / "osc.json").read_bytes()
_OSC_ARGV = ["breakdown", "--osc-model", "INPUT", "--mixer-model", "INPUT", "--freq", "60",
             "--p-mixer-out", "-1e1"]


@pytest.mark.parametrize("argv, data, code, needle", [
    (["sweep", *_NO_MODELS, "--freqs", "30", "--levels", "abc", "--out", "s.csv"], None,
     EXIT_USAGE, "not a comma-separated number list: 'abc'"),
    (["recommend", *_NO_MODELS, "--range", "a:b", "--p-mixer-out", "-5"], None,
     EXIT_USAGE, "expected lo:hi with numeric fields (got 'a:b')"),
    (["fit", "INPUT", "--block", "PA", "--bins", "4", "--out", "m.json"], _SURVEY_HEADER,
     EXIT_USAGE, "fit: --bins only applies to --strategy binned-max"),
    (["fit", "INPUT", "--block", "PA", "--out", "m.json"], b"",
     EXIT_DATA, "error: survey CSV has no header row"),
    (["fit", "INPUT", "--block", "PA", "--out", "m.json"], b"# only a comment\n\n",
     EXIT_DATA, "error: survey CSV has no header row"),
    (["fit", "INPUT", "--block", "PA", "--out", "m.json"], _SURVEY_HEADER + b"PA,60,20,\xff\n",
     EXIT_DATA, "error: survey CSV is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in "
                "position 42: invalid start byte"),
    (["fit", "INPUT", "--block", "PA", "--out", "m.json"], _SURVEY_HEADER + b"PA,60,20,  \n",
     EXIT_DATA, "error: row 2: record label must be non-empty"),
    (["fit", "INPUT", "--block", "PA", "--out", "m.json"],
     _SURVEY_HEADER + b"PA,60,22.5,a\nPA,90,15,b\nPA,60,22.5,a\n", EXIT_DATA,
     "error: row 4: duplicate record (frequency, metric, label)=(60.0, 22.5, 'a')"),
    (["breakdown", "--osc-model", "INPUT", "--mixer-model", "INPUT", "--freq", "60",
      "--p-mixer-out", "-5"], b"[]", EXIT_DATA, "must be a JSON object"),
    (_OSC_ARGV, b"[]", EXIT_DATA, "error: INPUT: model document must be a JSON object"),
    (_OSC_ARGV, b"\xff" + _OSC_MODEL, EXIT_DATA,
     "error: INPUT: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (_OSC_ARGV, _OSC_MODEL.replace(b'"a":', b'"amplitude":'), EXIT_DATA,
     "error: INPUT: model document is missing field 'a'"),
    (_OSC_ARGV, _OSC_MODEL.replace(b'"a": 0.4355771354849838', b'"a": -1.0'), EXIT_DATA,
     "error: INPUT: amplitude must be finite and > 0 (got -1.0)"),
    (_OSC_ARGV, _OSC_MODEL.replace(b'"n_points": 12', b'"n_points": 2.9'), EXIT_DATA,
     "error: INPUT: model document field 'n_points' is invalid: expected an integer, got 2.9"),
    (["sweep", *_NO_MODELS, "--freqs", "30", "--levels", "-1e1,x", "--out", "s.csv"], None,
     EXIT_USAGE, "argument --levels: not a comma-separated number list: '-1e1,x'"),
    (["breakdown", *_NO_MODELS, "--freq", "60", "--p-mixer-out", "-5", "--strict", "-1e1"], None,
     EXIT_USAGE, "argument --strict: ignored explicit argument '-1e1'"),
    (["--version", "-1e1"], None, EXIT_USAGE, "argument --version: ignored explicit argument"),
    (["fit", "INPUT", "--block", "PA", "--out", "missing/m.json"],
     _SURVEY_HEADER + b"PA,60,20,a\nPA,90,10,b\n", EXIT_DATA,
     "error: [Errno 2] No such file or directory: 'missing/m.json'"),
    (["sweep", *_NO_MODELS, "--range", f"20:30:{_HUGE}", "--p-mixer-out", "-5", "--out", "s.csv"],
     None, EXIT_DATA, f"error: frequency grid needs <= 2**53 points (got {_HUGE})"),
    (["recommend", "--osc-model", str(GOLDEN / "osc.json"), "--mixer-model",
      str(GOLDEN / "mix.json"), "--range", "20:140", "--p-mixer-out", "-5", "--n-grid", _HUGE],
     None, EXIT_DATA, f"error: frequency grid needs <= 2**53 points (got {_HUGE})"),
], ids=["levels-not-numbers", "range-not-numbers", "bins-without-binned-max", "empty-survey",
        "comments-only-survey", "non-utf8-survey", "blank-label", "repeated-survey-row",
        "model-json-list", "model-json-list-at-1e1-dbm", "model-not-utf8", "model-without-a",
        "model-with-negative-a", "model-with-fractional-n-points",
        "levels-from-1e1-not-numbers", "flag-given-1e1", "version-given-1e1",
        "model-out-in-missing-dir", "sweep-grid-past-the-float-range",
        "recommend-grid-past-the-float-range"])
def test_bad_input_is_one_line_with_its_exit_code(tmp_path, monkeypatch, capsys, argv, data, code,
                                                  needle):
    monkeypatch.chdir(tmp_path)
    if data is not None:
        (tmp_path / "INPUT").write_bytes(data)
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and needle in lines[0]
    assert lines[0] == needle or not needle.startswith("error: ")  # then it is the whole line
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if data is None else ["INPUT"])


# --- streaming sweep ---------------------------------------------------------------


def test_sweep_across_chunk_boundaries_matches_library_csv(models, tmp_path, capsys):
    import wnocpower.cli as cli
    from wnocpower.blocks import MixerModel, OscModel, PaModel
    from wnocpower.chain import ChainConfig, breakdowns_to_csv, frequency_grid, sweep
    from wnocpower.regression import load_model
    from wnocpower.units import PowerDbm

    n = 2 * cli._SWEEP_CHUNK + 1
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *model_flags(models), "--range", f"20:250:{n}", "--levels", "-10,-5",
                 "--p-pa-out", "3", "--out", str(out)]) == EXIT_OK
    assert f"wrote {2 * n} rows" in capsys.readouterr().out

    pa, osc, mix = (cls(load_model(models[key])[1]) for cls, key in
                    ((PaModel, "PA"), (OscModel, "OSC"), (MixerModel, "MIXER")))
    grid = [FrequencyGhz(f) for f in frequency_grid(20.0, 250.0, n)]
    rows = [bd for level in (-10.0, -5.0)
            for _f, bd in sweep(pa, osc, mix, ChainConfig(grid[0], PowerDbm(level),
                                                          p_pa_out=PowerDbm(3.0)), grid)]
    assert out.read_text() == breakdowns_to_csv(rows)


@pytest.mark.parametrize("name", ["pa_two_levels", "no_pa_three_levels"])
def test_multi_chunk_sweeps_write_their_recorded_bytes(tmp_path, capsys, name):
    # Both grids cross the mixer's 140 GHz span end. At 128 points a chunk, pa_two_levels takes
    # 20 chunks per level and no_pa_three_levels 17.
    digests = {csv_name: digest for digest, csv_name in
               (line.split() for line in (SWEEP_DIGESTS / "SHA256SUMS").read_text().splitlines())}
    argv = (SWEEP_DIGESTS / f"{name}.argv").read_text().split()
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--pa-model", str(GOLDEN / "pa.json"), "--osc-model",
                 str(GOLDEN / "osc.json"), "--mixer-model", str(GOLDEN / "mix.json"),
                 *argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[out.name]


def test_cli_sweep_builds_no_breakdown_per_row(models, tmp_path, capsys, monkeypatch):
    import wnocpower.chain as chain

    built = []
    real = chain.PowerBreakdown

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(chain, "PowerBreakdown", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *model_flags(models), "--range", "20:250:2049", "--levels", "-10,-5",
                 "--p-pa-out", "3", "--out", str(out)]) == EXIT_OK
    assert "wrote 4098 rows" in capsys.readouterr().out
    assert built == []


def test_cli_sweep_memory_is_flat_in_the_row_count(models, tmp_path, capsys):
    # Nothing of a chunk outlives its write, so 16 chunks per level peak where two points do.
    import tracemalloc

    import wnocpower.cli as cli

    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing; its peak would not be this test's")

    def peak(n):
        argv = ["sweep", *model_flags(models), "--range", f"20:250:{n}", "--levels", "-10,-5",
                "--p-pa-out", "3", "--out", str(tmp_path / "sweep.csv")]
        tracemalloc.reset_peak()
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(2)  # a first call fills the caches of argparse, re and the imports
        small, large = peak(2), peak(16 * cli._SWEEP_CHUNK)
    finally:
        tracemalloc.stop()
    assert f"wrote {32 * cli._SWEEP_CHUNK} rows" in capsys.readouterr().out
    assert large - small <= 128 * 1024, (small, large)


def test_in_process_calls_leave_no_cyclic_garbage(models, capsys):
    # Ten calls hold what one holds: the parser is built once per process, not once a call.
    import gc
    import tracemalloc

    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing; its figures would not be this test's")
    argv = ["breakdown", *model_flags(models), "--freq", "60", "--p-mixer-out", "-5"]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # a collection during the calls would hide the cycles they leave
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK  # a first call fills the caches of argparse, re and the imports
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        one = tracemalloc.get_traced_memory()[0] - base
        for _ in range(9):
            assert main(argv) == EXIT_OK
        ten = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert capsys.readouterr().out.count("TX chain DC power at 60 GHz") == 11
    assert ten - one <= 16 * 1024, (one, ten)


def _pa_survey(n: int) -> str:
    """A seeded PA survey of ``n`` rows on a 0.5 GHz grid, five technology nodes, no notes."""
    rng = random.Random(7)
    nodes = ("28nm CMOS", "40nm CMOS", "65nm CMOS", "22nm FD-SOI", "130nm SiGe")
    lines = ["block,frequency_ghz,metric,label,technology_node,notes"]
    for i in range(n):
        f = rng.randrange(20, 600) / 2
        metric = float(f"{45.0 * math.exp(-0.008 * f) * rng.uniform(0.5, 1.3):.6g}")
        lines.append(f"PA,{f!r},{metric!r},paper-{i:05d},{rng.choice(nodes)},")
    return "\n".join(lines) + "\n"


def test_cli_fit_memory_peaks_at_the_records_it_keeps(tmp_path, capsys):
    # The parse decodes the file's bytes a chunk at a time and the digest hashes its canonical
    # text a chunk at a time, so a fit peaks at its dataset plus the duplicate-key set, the
    # file's bytes and a fixed margin.
    import gc
    import tracemalloc

    from wnocpower.survey import load_survey_csv

    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing; its peak would not be this test's")
    survey = tmp_path / "survey.csv"
    survey.write_text(_pa_survey(2500))
    argv = ["fit", str(survey), "--block", "PA", "--out", str(tmp_path / "pa.json")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK  # a first call fills the caches of argparse, re and the imports
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        data = load_survey_csv(survey)
        held = tracemalloc.get_traced_memory()[0] - base
        del data
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "points fitted" in capsys.readouterr().out
    # Measured under CPython 3.11: +303 KiB, and +713 KiB when the parse held the text whole.
    assert peak <= held + 384 * 1024, (held, peak)


def test_manifest_timestamp_is_utc_to_the_second(models, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    before = datetime.now(timezone.utc).replace(microsecond=0)
    assert main(["sweep", *model_flags(models), "--freqs", "30,60", "--p-mixer-out", "-5",
                 "--out", str(out)]) == EXIT_OK
    after = datetime.now(timezone.utc)
    stamp = json.loads(Path(f"{out}.manifest.json").read_text())["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
    assert before <= datetime.fromisoformat(stamp) <= after


def test_manifest_timestamp_reads_the_clock_of_time_time(models, tmp_path, monkeypatch):
    # time.gmtime() alone reads a coarser clock, which can still be a second behind this one
    monkeypatch.setattr("wnocpower.cli.time.time", lambda: 1700000000.9995)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *model_flags(models), "--freqs", "30,60", "--p-mixer-out", "-5",
                 "--out", str(out)]) == EXIT_OK
    stamp = json.loads(Path(f"{out}.manifest.json").read_text())["timestamp"]
    assert stamp == "2023-11-14T22:13:20+00:00"


def test_sweep_failure_after_the_first_chunk_keeps_the_previous_result(tmp_path, capsys):
    # Oscillator efficiency 0.01 * exp(0.04 f) passes 1 at ~115.1 GHz: point ~1720 of 3000.
    flags = ["--osc-model", _model_file(tmp_path, BlockKind.OSCILLATOR, 0.01, 0.04),
             "--mixer-model", _model_file(tmp_path, BlockKind.MIXER, 0.01, 0.03),
             "--p-mixer-out", "-5"]
    out = tmp_path / "out" / "sweep.csv"
    out.parent.mkdir()
    assert main(["sweep", *flags, "--range", "1:100:3000", "--out", str(out)]) == EXIT_OK
    before = sorted((p.name, p.read_bytes()) for p in out.parent.iterdir())
    capsys.readouterr()

    assert main(["sweep", *flags, "--range", "1:200:3000", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: sweep failed at 115.") and len(err.splitlines()) == 1
    assert sorted((p.name, p.read_bytes()) for p in out.parent.iterdir()) == before


@pytest.mark.parametrize("grid", [
    ["--range", "100:100.00000000000003:10"],  # a step below one ulp repeats a frequency
    ["--freqs", ",".join(["30"] * 2 + [str(31 + i) for i in range(1024)])],
    ["--freqs", ",".join([str(30 + i) for i in range(1024)] * 2)],  # repeats at a chunk end
], ids=["sub-ulp-range", "repeat-at-start", "repeat-at-chunk-boundary"])
def test_sweep_checks_the_whole_grid_before_the_first_row(models, tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    code = main(["sweep", *model_flags(models), *grid, "--p-mixer-out", "-5", "--out", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: sweep frequencies must be strictly increasing\n"
    assert list(tmp_path.glob("*s.csv*")) == []


def test_model_files_with_a_byte_order_mark_give_the_same_breakdown(models, capsys):
    argv = ["breakdown", *model_flags(models), "--freq", "60", "--p-mixer-out", "-10",
            "--p-pa-out", "0"]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr()
    for path in models.values():
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("flag", ["--p-if", "--p-mixer-out", "--p-pa-out", "--p-osc-rf"])
def test_a_negative_level_in_any_float_notation_may_follow_its_flag(models, capsys, flag):
    levels = {"--p-if": "-5", "--p-mixer-out": "-20", "--p-pa-out": "0", "--p-osc-rf": "0"}
    outputs = []
    for value in ("-10", "-1e1", "-10.0", "-.1e2", "-1E+1"):
        scenario = [tok for pair in (levels | {flag: value}).items() for tok in pair]
        assert main(["breakdown", *model_flags(models), "--freq", "60", *scenario]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert all(out == outputs[0] for out in outputs)


@pytest.mark.parametrize("grid", [["--range", "-1e1:100:5"], ["--freqs", "-10"],
                                  ["--freqs", "-1e1,30"]])
def test_sweep_from_a_negative_frequency_is_a_data_error(models, tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    code = main(["sweep", *model_flags(models), *grid, "--p-mixer-out", "-1e1", "--out", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: frequency in GHz must be finite and > 0 (got -10.0)\n"
    assert list(tmp_path.glob("*s.csv*")) == []


@pytest.mark.parametrize("grid, shown", [(["--range", "-1e1:100:5"], "-10.0"),
                                         (["--freqs=-5,10"], "-5.0")])
@pytest.mark.parametrize("with_models", [False, True])
def test_sweep_checks_its_frequencies_before_it_reads_a_model(tmp_path, monkeypatch, capsys,
                                                                grid, shown, with_models):
    monkeypatch.chdir(tmp_path)
    if with_models:
        for name in ("osc.json", "mix.json"):
            (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    code = main(["sweep", "--osc-model", "osc.json", "--mixer-model", "mix.json", *grid,
                 "--p-mixer-out", "-5", "--out", "s.csv"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: frequency in GHz must be finite and > 0 (got {shown})\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag, dbm, message", [
    ("--p-mixer-out", "-4000", "-4000.0 dBm rounds to 0 mW"),
    ("--p-mixer-out", "5000", "5000.0 dBm overflows a float in mW"),
    ("--p-if", "-4000", "-4000.0 dBm rounds to 0 mW"),
    ("--p-if", "5000", "5000.0 dBm overflows a float in mW"),
    ("--p-osc-rf", "-4000", "-4000.0 dBm rounds to 0 mW"),
    ("--p-osc-rf", "5000", "5000.0 dBm overflows a float in mW"),
    ("--p-pa-out", "5000", "5000.0 dBm overflows a float in mW"),
])
@pytest.mark.parametrize("command", [
    ["breakdown", "--freq", "60"],
    ["sweep", "--freqs", "30,60", "--out", "sweep.csv"],
    ["recommend", "--range", "20:140"],
])
def test_an_unrepresentable_level_is_named_by_every_command(models, tmp_path, monkeypatch, capsys,
                                                             command, flag, dbm, message):
    monkeypatch.chdir(tmp_path)
    levels = {"--p-mixer-out": "-5", flag: dbm}
    argv = [*command, *model_flags(models), *[tok for item in levels.items() for tok in item]]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec, shown", [("1:inf:5", "inf"), ("nan:100:5", "nan"),
                                         ("-inf:100:5", "-inf"), ("1:nan:5", "nan")])
def test_sweep_range_with_a_non_finite_end_names_it(models, tmp_path, capsys, spec, shown):
    out = tmp_path / "s.csv"
    code = main(["sweep", *model_flags(models), f"--range={spec}", "--p-mixer-out", "-5",
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: frequency range ends must be finite (got {shown} GHz)\n"
    assert list(tmp_path.glob("*s.csv*")) == []


def test_sweep_out_of_memory_is_a_one_line_data_error(models, tmp_path, capsys, monkeypatch):
    import wnocpower.cli as cli

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "sweep", exhausted)
    code = main(["sweep", *model_flags(models), "--freqs", "30,60", "--p-mixer-out", "-5",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: out of memory\n"
    assert list(tmp_path.glob("*s.csv*")) == []


def test_sweep_of_200k_rows_fits_in_a_96_mib_address_space(models, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wnocpower

    resource = pytest.importorskip("resource")
    limit = 96 * 1024 * 1024

    def cap_address_space():  # applies to the child process only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(wnocpower.__file__).resolve().parent.parent)
    out = tmp_path / "big.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "wnocpower.cli", "sweep", *model_flags(models),
         "--range", "40:240:50000", "--levels", "-15,-10,-5,0", "--p-pa-out", "5",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_address_space,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "wrote 200000 rows" in proc.stdout
    with open(out, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 200_000


def test_atomic_write_keeps_the_old_file_when_the_chunks_fail(tmp_path):
    from wnocpower.fileio import write_text_atomic

    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def chunks():
        yield "new,"
        raise ValueError("halfway")

    with pytest.raises(ValueError, match="halfway"):
        write_text_atomic(path, chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    write_text_atomic(path, iter(["a,b\n", "1,2\n"]))
    assert path.read_text() == "a,b\n1,2\n"
