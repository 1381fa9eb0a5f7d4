import json
import time

import pytest

from hamperm.cli import main
from hamperm.graphs import Graph, gen_boll_digraph, read_graph, write_graph
from hamperm.oracle import verify_circuit
from hamperm.solver import SolveParams, solve_digraph
from hamperm.tsp import WeightMatrix, write_weights


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_boll_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, _ = run(
        capsys,
        ["gen", "--model", "boll", "--n", "50", "--seed", "1", "--out", str(out)],
    )
    assert code == 0
    g = read_graph(str(out))
    assert not g.directed and g.min_degree() >= 2
    assert f"edges: {g.m}" in stdout


def test_gen_mout_arc_count(tmp_path, capsys):
    out = tmp_path / "d.txt"
    code, stdout, _ = run(
        capsys,
        ["gen", "--model", "mout", "--n", "50", "--m", "3", "--out", str(out)],
    )
    assert code == 0
    d = read_graph(str(out))
    assert d.directed and d.m == 150


def test_gen_inout_degrees(tmp_path, capsys):
    out = tmp_path / "d.txt"
    code, _, _ = run(
        capsys,
        ["gen", "--model", "inout", "--n", "50", "--i", "2", "--o", "2",
         "--out", str(out)],
    )
    assert code == 0
    d = read_graph(str(out))
    assert d.min_outdeg() >= 2 and d.min_indeg() >= 2


def test_gen_missing_model_param(tmp_path, capsys):
    out = tmp_path / "d.txt"
    code, _, err = run(
        capsys, ["gen", "--model", "mout", "--n", "50", "--out", str(out)]
    )
    assert code == 1 and "error" in err


def test_gen_unwritable_out_exits_1(capsys):
    code, stdout, err = run(
        capsys,
        ["gen", "--model", "boll", "--n", "20", "--out", "/nonexistent/x.txt"],
    )
    assert code == 1 and stdout == "" and err.startswith("error: ")


def test_solve_k6_roundtrip(tmp_path, capsys):
    path = tmp_path / "k6.txt"
    g = Graph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    write_graph(g, str(path))
    code, stdout, err = run(capsys, ["solve", str(path), "--format", "json"])
    assert code == 0
    rec = json.loads(stdout)
    assert rec["outcome"] == "circuit"
    assert verify_circuit(g, rec["metrics"]["circuit"])
    assert "wall time" in err  # timing goes to stderr, not the record


def test_solve_records_restarts(tmp_path, capsys):
    # this Boll digraph stalls and restarts its search; the record counts
    # the restarts as the library's report does
    path = tmp_path / "d.txt"
    write_graph(gen_boll_digraph(16, 36)[0], str(path))
    code, stdout, _ = run(capsys, ["solve", str(path), "--seed", "36", "--format", "json"])
    assert code == 0
    rep = solve_digraph(read_graph(str(path)), SolveParams(seed=36))
    assert json.loads(stdout)["metrics"]["restarts"] == rep.restarts > 0


def test_solve_pendant_exits_2(tmp_path, capsys):
    path = tmp_path / "pendant.txt"
    write_graph(Graph(4, [(1, 2), (2, 3), (3, 4), (4, 2)]), str(path))
    code, stdout, _ = run(capsys, ["solve", str(path), "--format", "json"])
    assert code == 2
    assert json.loads(stdout)["outcome"] == "infeasible-precondition"


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/file.txt"])
    assert code == 1 and "error" in err


def test_solve_determinism_byte_identical(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert run(
        capsys,
        ["gen", "--model", "boll", "--n", "40", "--seed", "3", "--out", str(path)],
    )[0] == 0
    _, out1, _ = run(capsys, ["solve", str(path), "--seed", "5", "--format", "json"])
    _, out2, _ = run(capsys, ["solve", str(path), "--seed", "5", "--format", "json"])
    assert out1 == out2


def test_json_and_table_agree(tmp_path, capsys):
    path = tmp_path / "g.txt"
    run(capsys, ["gen", "--model", "boll", "--n", "30", "--seed", "2",
                 "--out", str(path)])
    _, js, _ = run(capsys, ["solve", str(path), "--seed", "1", "--format", "json"])
    _, table, _ = run(capsys, ["solve", str(path), "--seed", "1"])
    rec = json.loads(js)
    assert f"outcome: {rec['outcome']}" in table
    assert f"iterations: {rec['metrics']['iterations']}" in table


def test_prob_theoremA(capsys):
    code, stdout, _ = run(
        capsys,
        ["prob", "--which", "theoremA", "--n", "50", "--trials", "20000",
         "--seed", "1", "--format", "json"],
    )
    assert code == 0
    rec = json.loads(stdout)
    assert rec["metrics"]["closed_form"] == "47/96"
    assert abs(rec["metrics"]["estimate"] - 47 / 96) < 0.02


def test_prob_theoremE(capsys):
    code, stdout, _ = run(
        capsys, ["prob", "--which", "theoremE", "--n", "5", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(stdout)
    assert rec["metrics"]["p"] == "49/81"
    assert rec["metrics"]["p_prime"] == "32/81"


# the metrics of `prob --n 10 --trials 200 --seed 3` for every --which
PROB_METRICS = {
    "theoremA": {"abs_error": 0.0025000000000000022, "closed_form": "7/16",
                 "estimate": 0.44, "trials": 200},
    "theoremD": {"abs_error": 0.021666666666666667, "closed_form": "7/24",
                 "estimate": 0.27, "trials": 200},
    "lemma1": {"four_tuple": ["35/128", "21/128", "21/128", "51/128"]},
    "lemma2": {"four_tuple": ["49/256", "63/256", "63/256", "81/256"]},
    "theoremE": {"p": "48769/65536", "p_prime": "16767/65536"},
    "census2": {"rows": [{"bound": 0.24853249917449788, "empirical": 0.255,
                          "n": 10, "pass": False}]},
    "censusArc": {"rows": [{"bound": 0.46051701859880917, "empirical": 0.2,
                            "n": 10, "pass": True}]},
}


@pytest.mark.parametrize("which", sorted(PROB_METRICS))
def test_prob_records_are_pinned(capsys, which):
    code, stdout, _ = run(
        capsys,
        ["prob", "--which", which, "--n", "10", "--trials", "200",
         "--seed", "3", "--format", "json"],
    )
    assert code == 0
    want = {
        "artifacts": [],
        "command": "prob",
        "metrics": PROB_METRICS[which],
        "outcome": "ok",
        "params": {"n": 10, "trials": 200, "which": which},
        "seed": 3,
    }
    assert stdout == json.dumps(want, sort_keys=True) + "\n"


def test_prob_bad_n(capsys):
    code, _, err = run(capsys, ["prob", "--which", "theoremA", "--n", "3"])
    assert code == 1 and "error" in err


def test_oracle_enumerate_k4(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    write_graph(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
                str(path))
    code, stdout, _ = run(
        capsys, ["oracle", str(path), "--mode", "enumerate", "--format", "json"]
    )
    assert code == 0
    assert json.loads(stdout)["metrics"]["count"] == 3


ORACLE_FILES = {
    # a digraph on 6 vertices with two directed Hamilton circuits
    "digraph": (
        "d 6 14\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n1 3\n3 5\n5 1\n"
        "2 6\n6 4\n4 2\n3 1\n6 5\n",
        [[1, 2, 3, 4, 5, 6], [1, 3, 4, 2, 6, 5]],
    ),
    # K2,3: bipartite with unequal sides, so no Hamilton circuit
    "k23": ("g 5 6\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n", []),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FILES))
def test_oracle_modes_agree(tmp_path, capsys, name):
    text, want = ORACLE_FILES[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    for mode in ("enumerate", "brute"):
        code, stdout, _ = run(
            capsys, ["oracle", str(path), "--mode", mode, "--format", "json"]
        )
        assert code == 0
        metrics = json.loads(stdout)["metrics"]
        assert metrics["circuits"] == want
        assert metrics["count"] == len(want)


def test_oracle_cap_is_an_error(tmp_path, capsys):
    path = tmp_path / "big.txt"
    g = Graph(14, [(v, v % 14 + 1) for v in range(1, 15)])
    write_graph(g, str(path))
    code, _, err = run(capsys, ["oracle", str(path), "--mode", "brute"])
    assert code == 1 and "error" in err


def test_tsp_four_city(tmp_path, capsys):
    path = tmp_path / "w.txt"
    write_weights(
        WeightMatrix([[0, 1, 2, 5], [1, 0, 5, 2], [2, 5, 0, 1], [5, 2, 1, 0]]),
        str(path),
    )
    code, stdout, _ = run(capsys, ["tsp", str(path), "--format", "json"])
    assert code == 0
    rec = json.loads(stdout)
    assert rec["metrics"]["weight"] == 6


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    run(capsys, ["gen", "--model", "boll", "--n", "30", "--seed", "2",
                 "--out", str(path)])
    monkeypatch.setenv("HAMPERM_SEED", "9")
    _, out_env, _ = run(capsys, ["solve", str(path), "--format", "json"])
    monkeypatch.delenv("HAMPERM_SEED")
    _, out_flag, _ = run(capsys, ["solve", str(path), "--seed", "9",
                                  "--format", "json"])
    assert out_env == out_flag


def test_seed_env_invalid_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.txt"
    run(capsys, ["gen", "--model", "boll", "--n", "30", "--seed", "2",
                 "--out", str(path)])
    monkeypatch.setenv("HAMPERM_SEED", "abc")
    code, stdout, err = run(capsys, ["solve", str(path), "--format", "json"])
    assert code == 1 and stdout == ""
    assert "HAMPERM_SEED" in err
    # an explicit --seed does not consult the environment
    assert run(capsys, ["solve", str(path), "--seed", "9"])[0] == 0


def test_tsp_negative_budget_exits_1(tmp_path, capsys):
    path = tmp_path / "w.txt"
    write_weights(
        WeightMatrix([[0, 1, 2, 5], [1, 0, 5, 2], [2, 5, 0, 1], [5, 2, 1, 0]]),
        str(path),
    )
    code, stdout, err = run(capsys, ["tsp", str(path), "--budget", "-1"])
    assert code == 1 and stdout == ""
    assert "budget" in err


def test_tsp_zero_denominator_exits_1(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("w 4\n0 1 2 5\n1 0 1/0 2\n2 1/0 0 1\n5 2 1 0\n")
    code, stdout, err = run(capsys, ["tsp", str(path)])
    assert code == 1 and stdout == ""
    assert "error: line 3: bad number '1/0'" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, ["frobnicate"])[0] == 1
    assert run(capsys, ["gen", "--model", "nope", "--n", "5", "--out", "x"])[0] == 1
    assert run(capsys, ["solve"])[0] == 1


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["oracle", "--mode", "brute"], ["tsp"]],
    ids=["solve", "oracle", "tsp"],
)
def test_non_utf8_file_exits_1(tmp_path, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"g 3 3\n1 2\n2 \xff3\n3 1\n")
    code, stdout, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_tsp_huge_exponent_exits_1_at_once(tmp_path, capsys):
    # Fraction would build 10**(10**8) for this token
    path = tmp_path / "w.txt"
    path.write_text("w 4\n0 1 2 5\n1 0 1e100000000 2\n2 1e100000000 0 1\n5 2 1 0\n")
    t0 = time.process_time()
    code, stdout, err = run(capsys, ["tsp", str(path)])
    assert time.process_time() - t0 < 1.0
    assert code == 1 and stdout == ""
    assert "error: line 3: bad number '1e100000000'" in err
