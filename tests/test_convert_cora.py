"""scripts/convert_cora.py: the classic Cora release into the dataset formats."""
import importlib.util
from pathlib import Path

import numpy as np

from imbnode.graph import load_graph

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convert_cora.py"


def _convert_module():
    spec = importlib.util.spec_from_file_location("convert_cora", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_papers_convert_and_load(tmp_path, capsys):
    src, dst = tmp_path / "cora", tmp_path / "out"
    src.mkdir()
    (src / "cora.content").write_text(
        "31336 0 1 0 1 Neural_Networks\n"
        "1061127 1 0 0 0 Case_Based\n"
        "1106406 0 0 1 1 Neural_Networks\n"
    )
    # `<cited> <citing>`; paper 99999 is in no content line
    (src / "cora.cites").write_text("31336 1061127\n1106406 31336\n99999 31336\n")
    _convert_module().main(src, dst)
    assert capsys.readouterr().out.splitlines() == [
        f"3 nodes, 2 classes -> {dst}",
        "skipped 1 citations referencing unknown papers",
    ]

    g = load_graph(dst / "edges.tsv", dst / "features.txt", dst / "labels.txt")
    # nodes in content order; class names numbered alphabetically
    np.testing.assert_array_equal(g.features, [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 1]])
    np.testing.assert_array_equal(g.labels, [1, 0, 1])
    assert g.m == 2
    # the two known citations, symmetrized; the unknown one is gone
    np.testing.assert_array_equal(g.adjacency.toarray(), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
