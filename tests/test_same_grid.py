"""scripts/same_grid.py: two grid output directories hold the same numbers."""
import importlib.util
import json
from pathlib import Path

from imbnode.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_grid.py"


def _same_grid():
    spec = importlib.util.spec_from_file_location("same_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _grid(tmp_path, name):
    spec = tmp_path / f"{name}.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 8,8,4",
                "sbm_p_in = 0.5",
                "sbm_p_out = 0.1",
                "sbm_dim = 3",
                "protocol = proportional",
                "variants = origin,gs_t",
                "seeds = 0",
                "max_epochs = 2",
                "embed_dim = 5",
                "hidden_dim = 5",
                f"out = {tmp_path / name}",
            ]
        )
    )
    assert cli_main(["grid", "--spec", str(spec)]) == 0
    return tmp_path / name


def test_reruns_compare_equal_and_a_changed_epoch_line_is_named(tmp_path, capsys):
    same_grid = _same_grid()
    a, b = _grid(tmp_path, "a"), _grid(tmp_path, "b")
    capsys.readouterr()
    # the runs' head lines differ in wall_time only
    assert (a / "records" / "gs_t_s0.jsonl").read_text() != (b / "records" / "gs_t_s0.jsonl").read_text()
    assert same_grid.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "same grid\n"

    record = b / "records" / "gs_t_s0.jsonl"
    lines = record.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace('"epoch": 1', '"epoch": 7')
    record.write_text("".join(lines))
    assert same_grid.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "records/gs_t_s0.jsonl:3: lines differ; largest relative difference 0.857\n"


def test_spec_settings_are_compared_without_out(tmp_path, capsys):
    same_grid = _same_grid()
    a, b = _grid(tmp_path, "a"), _grid(tmp_path, "b")
    capsys.readouterr()
    spec = json.loads((b / "spec.json").read_text())
    assert spec["out"] != json.loads((a / "spec.json").read_text())["out"]
    assert same_grid.main([str(a), str(b)]) == 0

    spec["train"]["lr"] *= 2
    (b / "spec.json").write_text(json.dumps(spec, indent=2))
    assert same_grid.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "same grid\nspec.json: train.lr differs\n"


def test_every_differing_file_is_named_with_its_first_differing_line(tmp_path, capsys):
    same_grid = _same_grid()
    a, b = _grid(tmp_path, "a"), _grid(tmp_path, "b")
    capsys.readouterr()
    for name, lineno in (("origin_s0.jsonl", 2), ("gs_t_s0.jsonl", 3)):
        record = b / "records" / name
        lines = record.read_text().splitlines(keepends=True)
        for i in range(lineno - 1, len(lines)):  # this line and every later one
            lines[i] = lines[i].replace('"epoch": ', '"epoch": 9')
        record.write_text("".join(lines))
    assert same_grid.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "records/gs_t_s0.jsonl:3: lines differ; largest relative difference 0.989\n"  # epoch 1 against 91
        "records/origin_s0.jsonl:2: lines differ; largest relative difference 1\n"  # epoch 0 against 90
    )


def test_moved_numbers_are_reported_with_their_largest_relative_difference(tmp_path, capsys):
    """A table cell and a record's loss that moved in their last bits are
    named with the largest relative move over the file's numeric fields;
    a changed text field moves no number."""
    same_grid = _same_grid()
    a, b = _grid(tmp_path, "a"), _grid(tmp_path, "b")
    capsys.readouterr()
    runs = b / "runs.csv"
    rows = runs.read_text().splitlines(keepends=True)
    cells = rows[1].split(",")
    f_a = float(cells[-1])
    f_b = f_a * (1.0 + 2e-15)
    cells[-1] = f"{f_b!r}\n"
    rows[1] = ",".join(cells)
    runs.write_text("".join(rows))

    record = b / "records" / "gs_t_s0.jsonl"
    lines = record.read_text().splitlines(keepends=True)
    epochs = [json.loads(line) for line in lines[1:]]
    loss_a = epochs[0]["edge_loss"]
    loss_b = loss_a * (1.0 - 5e-15)  # the largest move; epoch 1's val_acc moves less
    epochs[0]["edge_loss"], epochs[1]["val_acc"] = loss_b, epochs[1]["val_acc"] * (1.0 + 1e-15)
    record.write_text(lines[0] + "".join(json.dumps(e) + "\n" for e in epochs))
    origin = b / "records" / "origin_s0.jsonl"
    head = json.loads(origin.read_text().splitlines()[0])
    head["variant"] = "renamed"
    origin.write_text(json.dumps(head) + "\n" + "".join(origin.read_text().splitlines(keepends=True)[1:]))

    assert same_grid.main([str(a), str(b)]) == 1
    run_moved = abs(f_b - f_a) / max(abs(f_a), abs(f_b))
    loss_moved = abs(loss_b - loss_a) / max(abs(loss_a), abs(loss_b))
    assert run_moved > 0.0 and loss_moved > 0.0
    assert capsys.readouterr().out == (
        f"runs.csv:2: lines differ; largest relative difference {run_moved:.3g}\n"
        f"records/gs_t_s0.jsonl:2: lines differ; largest relative difference {loss_moved:.3g}\n"
        "records/origin_s0.jsonl:1: variant differs\n"
    )


def test_a_record_head_names_its_first_differing_key(tmp_path, capsys):
    """A head line that lost a config key, whose nested number moved or
    whose list grew names the first such key's path; a moved number keeps
    its largest relative difference."""
    same_grid = _same_grid()
    a, b = _grid(tmp_path, "a"), _grid(tmp_path, "b")
    capsys.readouterr()
    edits = {
        "origin_s0.jsonl": lambda head: head["config"].pop("eta"),
        "gs_t_s0.jsonl": lambda head: head["config"].update(lr=2 * head["config"]["lr"]),
    }
    for name, edit in edits.items():
        record = b / "records" / name
        head, *epochs = record.read_text().splitlines(keepends=True)
        head = json.loads(head)
        edit(head)
        record.write_text(json.dumps(head) + "\n" + "".join(epochs))
    assert same_grid.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "records/gs_t_s0.jsonl:1: config.lr differs; largest relative difference 0.5\n"
        "records/origin_s0.jsonl:1: config.eta differs\n"
    )
    # a list that grew names its first extra entry
    record = b / "records" / "gs_t_s0.jsonl"
    epochs = record.read_text().splitlines(keepends=True)[1:]
    head = json.loads((a / "records" / "gs_t_s0.jsonl").read_text().splitlines()[0])  # lr as it was
    head["pretrain_losses"].append(0.5)
    record.write_text(json.dumps(head) + "\n" + "".join(epochs))
    assert same_grid.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "records/gs_t_s0.jsonl:1: pretrain_losses[0] differs"
