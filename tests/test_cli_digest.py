import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from logdetreg import ModelKind, ModelSpec
from logdetreg.cli import COMMANDS, main
from logdetreg.data import load_csv
from logdetreg.model import _mlp_blocks

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

REPORT = {"cost": "logdet", "cost_value": -0.5, "params": [1.0, 0.25], "converged": True}


def write_pair(tmp_path, report_b, stderr_b="q: 2 -> 2\n"):
    """Two work directories: a JSON report, a CSV file and a stderr line."""
    dirs = tmp_path / "a", tmp_path / "b"
    for work, report, stderr in zip(dirs, (REPORT, report_b), ("q: 2 -> 2\n", stderr_b)):
        work.mkdir()
        (work / "fit.json").write_text(json.dumps(report, indent=2) + "\n")
        (work / "d.csv").write_text("z1,y1\r\n0.5,1.5\r\n")
        (work / "fit.stderr").write_text(stderr)
    return dirs


def test_identical_pair(tmp_path, capsys):
    a, b = write_pair(tmp_path, REPORT)
    assert cli_digest.compare(a, b) == ([], True)
    assert cli_digest.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "all outputs identical\n"


def test_last_bit_json_difference(tmp_path, capsys):
    b_report = dict(REPORT, params=[1.0, 0.25 + 2.0**-54], cost_value=-0.5 - 2.0**-53)
    a, b = write_pair(tmp_path, b_report)
    assert cli_digest.compare(a, b) == ([
        "fit.json: JSON skeleton identical; max abs diff 1.11e-16 at $.cost_value, "
        "max rel diff 2.22e-16 at $.params[1]"], True)
    assert cli_digest.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("fit.json: JSON skeleton identical;")


def test_structural_difference_exits_non_zero(tmp_path, capsys):
    # a key dropped from the report, a changed stderr line, a file on one side
    b_report = {k: v for k, v in REPORT.items() if k != "converged"}
    a, b = write_pair(tmp_path, b_report, stderr_b="q: 2 -> 1\n")
    (b / "extra.json").write_text("{}\n")
    lines, same = cli_digest.compare(a, b)
    assert not same
    assert lines == ["extra.json: only in B", "fit.json: JSON skeleton differs",
                     "fit.stderr: text differs"]
    assert cli_digest.main(["--compare", str(a), str(b)]) == 1
    capsys.readouterr()


def test_inputs_reach_both_factor_routes_and_the_overflow(tmp_path):
    # the MLP log-det fits at d = 1 and d = 3 (the written-out and the
    # LAPACK route of factor_small) have data of their model's dimensions,
    # and overflow.csv is finite with an overflowing Y^T Z / n
    cli_digest.write_mlp_data(tmp_path)
    cli_digest.write_overflow_data(tmp_path)
    names = {name for name, _ in cli_digest.commands()}
    for d in (1, 3):
        assert f"fit_mlp_d{d}_logdet" in names
        model = cli_digest.MODELS[f"mlp_d{d}.json"]
        assert (model["input_dim"], model["output_dim"]) == (d, d)
        data = load_csv(tmp_path / f"mlp_d{d}.csv")
        assert (data.n, data.input_dim, data.output_dim) == (120, d, d)
    assert "fit_overflow_logdet" in names
    data = load_csv(tmp_path / "overflow.csv")
    assert np.isfinite(data.inputs).all() and np.isfinite(data.outputs).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(data.outputs.T @ data.inputs / data.n).all()


def test_bad_mask_command():
    # bad_mask.json's mask holds the string "false", a usage error
    doc = cli_digest.MODELS["bad_mask.json"]
    assert "false" in doc["mask"] and len(doc["mask"]) == doc["input_dim"] * doc["output_dim"]
    assert "bad_mask.json" in dict(cli_digest.commands())["fit_bad_mask"]


def test_nonidentifiable_and_negative_seed_commands():
    # mlp_nonident.json masks exactly hidden unit 0's output weights, so the
    # unit's input weights and bias leave the fit unchanged; the negative
    # seed command passes --seed -1 to an MLP fit, which draws its starts
    commands = dict(cli_digest.commands())
    doc = cli_digest.MODELS["mlp_nonident.json"]
    spec = ModelSpec(ModelKind.MLP, doc["input_dim"], doc["output_dim"], doc["hidden_units"])
    _, _, b, _ = _mlp_blocks(spec, np.arange(spec.full_param_count))
    assert [i for i, free in enumerate(doc["mask"]) if not free] == b[0].tolist() == [9, 10]
    assert "mlp_nonident.json" in commands["fit_mlp_nonident_logdet"]
    argv = commands["fit_negative_seed"]
    assert argv[argv.index("--seed") + 1] == "-1" and "mlp.json" in argv


@pytest.mark.parametrize("name, argv", cli_digest.usage_commands(), ids=repr)
def test_usage_commands_exit_0_or_2(name, argv, capsys):
    # argparse answers each itself: help exits 0, every other one 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    capsys.readouterr()
    assert exc.value.code == (0 if "--help" in argv else 2)


def test_usage_commands_cover_every_subcommand_help():
    helps = {argv[0] for _, argv in cli_digest.usage_commands() if argv[1:] == ["--help"]}
    assert helps == set(COMMANDS)
