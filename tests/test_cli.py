import json
import os
import shlex
import subprocess
import sys

import pytest

from sympair.cli import run

ALG = os.path.join(os.path.dirname(__file__), "..", "algebras")


def alg(name):
    return os.path.join(ALG, name)


def test_validate(capsys):
    code = run(["validate", alg("sl2.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim k = 1" in out and "dim p = 2" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "basis": ["a", "b", "c"],
        "brackets": {"[0,1]": {"0": "1"}, "[0,2]": {"2": "1"}, "[1,2]": {"2": "1"}},
        "sigma": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }))
    code = run(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Jacobi" in err and "Fraction(" not in err


def test_usage_error():
    assert run(["no-such-command"]) == 1


def test_star_rou_omega(capsys):
    code = run(["star-rou", alg("sl2.json"), "--p", "omega", "--q", "omega"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "omega^2 + 16/15"


def test_star_cf_matches(capsys):
    run(["star-cf", alg("sl2.json"), "--p", "omega", "--q", "omega"])
    out = capsys.readouterr().out.strip()
    assert out == "omega^2 + 16/15"


def test_warnings_enter_stderr_and_the_json_report(tmp_path, capsys):
    # omega # omega^2: the unknown order-6 terms of E are dropped, and the report says so
    with open(alg("sl2.json")) as fh:
        data = json.load(fh)
    data["definitions"]["omega2"] = {"H^4": "1", "H^2*(X+Y)^2": "2", "(X+Y)^4": "1"}
    path, report = tmp_path / "sl2w.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert run(["star-cf", str(path), "--p", "omega", "--q", "omega2", "--json", str(report)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: TruncationWarning: degrees 2 and 4:")
    (entry,) = json.loads(report.read_text())["warnings"]
    assert entry["category"] == "TruncationWarning" and entry["message"].startswith("degrees 2 and 4:")
    assert err[0] == f"warning: {entry['category']}: {entry['message']}"


def test_no_warnings_give_an_empty_list(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["star-cf", alg("sl2.json"), "--p", "omega", "--q", "omega", "--json", str(report)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text())["warnings"] == []


def test_star_rou_unknown_name(capsys):
    code = run(["star-rou", alg("sl2.json"), "--p", "nope", "--q", "omega"])
    assert code == 2
    assert "no definition" in capsys.readouterr().err


def test_bch_order1(capsys):
    code = run(["bch", "--order", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 * X" in out and "1 * Y" in out


def test_zsym_even_order(capsys):
    run(["zsym", "--order", "4"])
    out = capsys.readouterr().out
    # even-length components vanish: only orders 1 and 3 print
    assert "[X,[X,Y]]" in out and "[X,Y]]" in out


def test_invariants_solvable(capsys):
    code = run(["invariants", alg("solvable4.json"), "--degree", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dimension 2" in out


def test_duflo_check(capsys):
    assert run(["duflo-check", alg("sl2.json"), "--degree", "3"]) == 0
    assert "holds" in capsys.readouterr().out


def test_hc_project(capsys):
    code = run(["hc-project", alg("sl2.json"), "--poly", "omega"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H^2" in out and "weyl-invariant: True" in out


def test_hc_project_renders_signed_coefficients(tmp_path, capsys):
    # -omega^2 + 2 omega - 1/2 restricts to -H^4 + 2 H^2 - 1/2 on p0 = span(H)
    with open(alg("sl2.json")) as fh:
        data = json.load(fh)
    data["definitions"]["f"] = {"H^4": "-1", "H^2*(X+Y)^2": "-2", "(X+Y)^4": "-1",
                                "H^2": "2", "(X+Y)^2": "2", "1": "-1/2"}
    path = tmp_path / "sl2f.json"
    path.write_text(json.dumps(data))
    code = run(["hc-project", str(path), "--poly", "f"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "-H^4 + 2*H^2 - 1/2"


def test_char(capsys):
    pol = alg(os.path.join("polarizations", "heisenberg3.json"))
    code = run(["char", alg("heisenberg3.json"), "--poly", "zz", "--f", "z", "--pol", pol])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "1"


def test_densities(capsys):
    code = run(["densities", alg("sl2.json"), "--kind", "J_half", "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/3" in out and "1/90" in out


def test_graph_weight_and_json_roundtrip(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run([
        "graph-weight",
        "--graph", alg(os.path.join("graphs", "wedge.json")),
        "--samples", "50000", "--seed", "7",
        "--json", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0 and "weight =" in out
    data = json.loads(report_path.read_text())
    assert data["command"][1] == "graph-weight"
    assert data["inputs_digest"]
    entry = next(r for r in data["results"] if r["label"] == "weight")
    assert abs(entry["value"] - 0.5) < 0.02
    assert entry["std_error"] > 0
    assert entry["nonfinite"] == 0
    assert "non-finite" not in out


def test_graph_weight_pattern_zero(capsys):
    code = run([
        "graph-weight",
        "--graph", alg(os.path.join("graphs", "pattern_zero.json")),
        "--samples", "20000", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "pattern" in out


def test_graph_weight_zero_samples(capsys):
    code = run(["graph-weight", "--graph", alg(os.path.join("graphs", "wedge.json")), "--samples", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "samples" in err and "Traceback" not in err


def test_validate_rejects_bracket_target_out_of_range(tmp_path, capsys):
    bad = tmp_path / "bad_target.json"
    bad.write_text(json.dumps({
        "name": "bad", "basis": ["a", "b"],
        "brackets": {"[0,1]": {"5": "1"}},
        "sigma": [["1", "0"], ["0", "-1"]],
    }))
    code = run(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "target index 5" in err and "Traceback" not in err


def test_graph_weight_rejects_edge_to_missing_vertex(tmp_path, capsys):
    bad = tmp_path / "bad_edge.json"
    bad.write_text(json.dumps({"n": 1, "m": 2, "edges": [[0, 1, "+"], [0, 7, "+"]]}))
    code = run(["graph-weight", "--graph", str(bad), "--samples", "1000"])
    err = capsys.readouterr().err
    assert code == 2
    assert "edge (0, 7, '+'): target 7 is neither" in err and "Traceback" not in err


def test_graph_weight_reports_nonfinite_count(tmp_path, capsys, monkeypatch):
    import sympair.cli
    from sympair.graphs import WeightEstimate
    monkeypatch.setattr(sympair.cli, "weight_mc", lambda g, samples, seed: WeightEstimate(0.5, 0.01, samples, seed, 3))
    report_path = tmp_path / "report.json"
    code = run(["graph-weight", "--graph", alg(os.path.join("graphs", "wedge.json")),
                "--samples", "1000", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0 and "non-finite samples left out: 3" in out
    entry = next(r for r in json.loads(report_path.read_text())["results"] if r["label"] == "weight")
    assert entry["nonfinite"] == 3


def test_e_series(capsys):
    code = run(["e-series", "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/2 * [X,Y]" in out and "1/240" in out


def test_e_series_reads_the_order4_constant(monkeypatch, tmp_path, capsys):
    # the printed and reported coefficient follow starprod.LN_E_ORDER4_COEFF
    from fractions import Fraction
    from sympair import starprod
    monkeypatch.setattr(starprod, "LN_E_ORDER4_COEFF", Fraction(1, 240))
    report_path = tmp_path / "e.json"
    assert run(["e-series", "--order", "4", "--json", str(report_path)]) == 0
    assert "order-4 term = 1/240 * (tr_p - tr_k)(ad[X,Y])^2" in capsys.readouterr().out
    labels = {r["label"]: r["value"] for r in json.loads(report_path.read_text())["results"]}
    assert labels["scalar_order4_coefficient"] == "1/240"


def test_json_report_exact_values(tmp_path):
    report_path = tmp_path / "r.json"
    run(["validate", alg("sl2.json"), "--json", str(report_path)])
    data = json.loads(report_path.read_text())
    labels = {r["label"]: r["value"] for r in data["results"]}
    assert labels == {"dim_k": "1", "dim_p": "2"}


def test_unwritable_json_path_is_an_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code = run(["validate", alg("sl2.json"), "--json", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "Traceback" not in err


def _readme_block(section, language):
    """The first `language` code block under the README heading `section`."""
    with open(os.path.join(ALG, "..", "README.md")) as fh:
        text = fh.read()
    return text.split(f"## {section}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The lines of the README's "Command line" block, as argument lists without `sympair`."""
    block = _readme_block("Command line", "sh")
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]
    assert commands, "README has no command-line block"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_line_examples_run(monkeypatch, capsys, argv):
    monkeypatch.chdir(os.path.join(ALG, ".."))
    assert run(argv) == 0, capsys.readouterr().err


def test_readme_library_use_block_runs():
    """The "Library use" block runs as written, and each line commented `# True` holds."""
    lines, checks = [], 0
    for line in _readme_block("Library use", "python").splitlines():
        code, _, comment = line.partition("#")
        if comment.strip().startswith("True"):
            line, checks = f"assert {code.strip()}", checks + 1
        lines.append(line)
    assert checks >= 3
    exec(compile("\n".join(lines), "README.md", "exec"), {})


def test_loading_an_algebra_does_not_import_hashlib():
    """hashlib (and libcrypto with it) loads only when a report digests its input file."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, sympair.io; sympair.io.load_algebra_file(sys.argv[1]); "
            "print('hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, alg("sl2.json")], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_deterministic_reports(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["graph-weight", "--graph", alg(os.path.join("graphs", "bernoulli.json")),
         "--samples", "30000", "--seed", "11", "--json", str(p1)])
    run(["graph-weight", "--graph", alg(os.path.join("graphs", "bernoulli.json")),
         "--samples", "30000", "--seed", "11", "--json", str(p2)])
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    assert d1["results"] == d2["results"]
    assert d1["inputs_digest"] == d2["inputs_digest"]


def test_star_dk_abelian(capsys):
    code = run(["star-dk", alg("abelian2.json"), "--p", "quad", "--q", "quad"])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "quad^2"


def test_densities_q_kind(capsys):
    code = run(["densities", alg("sl2.json"), "--kind", "q_half", "--order", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "1/6" in out  # (1/48) tr_g(ad X)^2 = (1/6)(H^2 + ...)


def _validate_file(tmp_path, capsys, data):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code = run(["validate", str(path)])
    return code, capsys.readouterr().err


SIGMA2 = [["1", "0"], ["0", "-1"]]


def test_validate_rejects_zero_denominator(tmp_path, capsys):
    code, err = _validate_file(tmp_path, capsys, {
        "name": "bad", "basis": ["a", "b"], "brackets": {"[0,1]": {"0": "1/0"}}, "sigma": SIGMA2})
    assert code == 2
    assert "[0,1]" in err and "1/0" in err and "Traceback" not in err


def test_validate_rejects_repeated_basis_name(tmp_path, capsys):
    code, err = _validate_file(tmp_path, capsys, {"name": "bad", "basis": ["a", "a"], "sigma": SIGMA2})
    assert code == 2
    assert "basis name 'a' is repeated" in err


def test_validate_names_missing_key(tmp_path, capsys):
    for key in ("name", "basis", "sigma"):
        data = {"name": "bad", "basis": ["a", "b"], "sigma": SIGMA2}
        del data[key]
        code, err = _validate_file(tmp_path, capsys, data)
        assert code == 2
        assert f"missing key '{key}' in algebra file" in err
    code, err = _validate_file(tmp_path, capsys, [])
    assert code == 2 and "JSON object" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sympair", "bch", "--order", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "log(e^X e^Y) through order 2:\n  1 * X\n  1 * Y\n  1/2 * [X,Y]\n"


def test_bch_beyond_order_eight(capsys):
    code = run(["bch", "--order", "9"])
    out = capsys.readouterr().out
    assert code == 0 and "through order 9" in out


def test_validate_missing_file(tmp_path, capsys):
    code = run(["validate", str(tmp_path / "nonexistent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "No such file" in err and "Traceback" not in err


def test_validate_rejects_non_rational_sigma(tmp_path, capsys):
    code, err = _validate_file(tmp_path, capsys, {"name": "bad", "basis": ["a", "b"], "sigma": [[None, "0"], ["0", "1"]]})
    assert code == 2
    assert "sigma" in err and "not an exact rational: None" in err


def _graph_weight_file(tmp_path, capsys, data):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code = run(["graph-weight", "--graph", str(path), "--samples", "1000"])
    return code, capsys.readouterr().err


def test_graph_weight_rejects_malformed_files(tmp_path, capsys):
    cases = [
        ([1, 2], "JSON object"),
        ({"n": 1, "m": 2, "edges": [[0, 1, "+"], [0, 2]]}, "[source, target, color] triples"),
        ({"n": 1, "m": 2}, "missing key 'edges' in graph file"),
        ({"n": "1", "m": 2, "edges": []}, "vertex counts"),
        ({"n": 1, "m": 2, "edges": [[0, 1, "++"], [0, 2, "+"]]}, "color '++' is neither '+' nor '-'"),
        ({"n": 2, "m": 2, "edges": [[0, 1, "+"], [0, 2, "+"], [1, 9, "+"]]},
         "edge (1, 9, '+'): target 9 is neither 'inf' nor a vertex 0..3"),
        ({"n": 2, "m": 2, "edges": [[0, 1, "+"], [5, 2, "+"]]}, "edge (5, 2, '+'): source 5 is not a vertex 0..3"),
        ({"n": 1, "m": 0, "edges": [[0, 0, "-"]]}, "edge (0, 0, '-'): loops are not allowed"),
        ({"n": 1, "m": 2, "edges": [[0, 1, "+"], [0, 1, "+"]]},
         "edge (0, 1, '+'): double edge with identical source, target, color"),
        ({"n": 1, "m": 1, "edges": [[1, 0, "+"]]},
         "edge (1, 0, '+'): edges leaving the real axis must carry the dashed color"),
        ({"n": 1, "m": 1, "edges": [[0, 1, "-"]]}, "edge (0, 1, '-'): edges into ground vertices must carry the solid color"),
        ({"n": 1, "m": 0, "edges": [[0, "inf", "+"]]}, "edge (0, 'inf', '+'): edges to infinity carry the dashed color"),
    ]
    # JSON non-integer vertices would be truncated or coerced to a vertex by int()
    good = [[0, 1, "+"], [0, 3, "+"], [1, 2, "+"], [1, 3, "+"]]
    for bad in ([0.7, 2, "+"], [0, 2.9, "+"], [True, 2, "+"], ["0", 2, "+"], [0, None, "+"], [0, "Inf", "+"]):
        cases.append(({"n": 2, "m": 2, "edges": good[:3] + [bad]},
                      f"edge {tuple(bad)!r}: the source must be an integer and the target an integer or 'inf'"))
    for data, message in cases:
        code, err = _graph_weight_file(tmp_path, capsys, data)
        assert code == 2
        assert message in err and "Traceback" not in err


def test_graph_weight_reports_untouched_vertex(tmp_path, capsys):
    # no edge touches ground vertex 3: the weight is exactly zero, with nothing drawn
    path, report_path = tmp_path / "graph.json", tmp_path / "report.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "edges": [[0, 1, "+"], [0, 2, "+"], [1, 0, "+"], [1, 2, "+"]]}))
    code = run(["graph-weight", "--graph", str(path), "--samples", "1000", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "predicate: Zero(untouched_vertex)" in out and "weight = 0.000000 +- 0.000000" in out
    results = {r["label"]: r for r in json.loads(report_path.read_text())["results"]}
    assert results["predicate"]["value"] == "untouched_vertex"
    assert (results["weight"]["value"], results["weight"]["std_error"]) == (0.0, 0.0)


def test_graph_weight_rejects_negative_seed(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 1, "m": 2, "edges": [[0, 1, "+"], [0, 2, "+"]]}))
    code = run(["graph-weight", "--graph", str(path), "--samples", "1000", "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err


def _fixture(name, **changes):
    with open(alg(name)) as fh:
        data = json.load(fh)
    data.update(changes)
    return data


CHAR = ["char", "--poly", "zz", "--f", "z"]
SL2_REST = {"[0,2]": {"2": "-2"}, "[1,2]": {"0": "1"}}  # the sl2 brackets other than [0,1]

#: command, algebra file data, polarization file data or None, message naming the key and the file
MALFORMED = [
    pytest.param(["validate"], _fixture("sl2.json", adapted={"k": [["0", "1", "-1"]]}), None,
                 "missing key 'p' in the 'adapted' block of algebra file", id="adapted-without-p"),
    pytest.param(["validate"], _fixture("sl2.json", adapted={"p": [["1", "0"]], "k": [["0", "1", "-1"]]}), None,
                 "'adapted' key 'p' in algebra file must be a list of vectors of length 3", id="adapted-short-vector"),
    pytest.param(["validate"], _fixture("sl2.json", adapted=[]), None,
                 "the 'adapted' block of algebra file must hold a JSON object", id="adapted-not-object"),
    pytest.param(CHAR, _fixture("heisenberg3.json"), {},
                 "missing key 'b' in polarization file", id="polarization-without-b"),
    pytest.param(CHAR, _fixture("heisenberg3.json"), {"b": 5},
                 "key 'b' in polarization file", id="polarization-b-number"),
    pytest.param(CHAR, _fixture("heisenberg3.json"), {"b": [["1", None, "0"]]},
                 "key 'b' in polarization file", id="polarization-b-not-rational"),
    pytest.param(CHAR, _fixture("heisenberg3.json"), [["1", "1", "0"]],
                 "must hold a JSON object", id="polarization-top-level-list"),
    pytest.param(["star-dk", "--p", "nope", "--q", "zz"], _fixture("heisenberg3.json"), None,
                 "no definition named 'nope' under key 'definitions' in algebra file", id="missing-definition"),
    pytest.param(["hc-project", "--poly", "zz"], _fixture("heisenberg3.json"), None,
                 "missing key 'iwasawa' in algebra file", id="missing-iwasawa"),
    pytest.param(["hc-project", "--poly", "omega"], _fixture("sl2.json", iwasawa={"p0": 1}), None,
                 "'iwasawa' key 'p0' in algebra file must be a list of vectors of length 3", id="iwasawa-not-vectors"),
    pytest.param(["hc-project", "--poly", "omega"],
                 _fixture("sl2.json", iwasawa={"p0": [["1", "0", "0"]], "n_plus": [["0", "1", "0"]], "k0": [],
                                               "r": [["0", "1", "-1"], ["0", "1", "-1"]]}), None,
                 "k0 + r is not a basis of k", id="iwasawa-r-dependent"),
    pytest.param(["star-rou", "--p", "zz", "--q", "zz", "--lambda", "mu"],
                 _fixture("solvable4.json", characters={"mu": [None]}), None,
                 "'characters' key 'mu' in algebra file: not an exact rational", id="character-not-rational"),
    pytest.param(["star-rou", "--p", "zz", "--q", "zz"],
                 _fixture("solvable4.json", definitions={"zz": {"z": None}}), None,
                 "definition 'zz' in algebra file, monomial 'z': not an exact rational", id="definition-not-rational"),
    pytest.param(["star-rou", "--p", "omega", "--q", "omega"],
                 _fixture("sl2.json", definitions={"omega": {"H^2": True, "(X+Y)^2": 1}}), None,
                 "definition 'omega' in algebra file, monomial 'H^2': not an exact rational: True",
                 id="definition-boolean"),
    pytest.param(["validate"], _fixture("sl2.json", brackets={"[0,1]": {"1": True}, "[0,2]": {"2": -2}, "[1,2]": {"0": 1}}),
                 None, "bracket '[0,1]' in algebra file: not an exact rational: True", id="bracket-boolean"),
    pytest.param(["validate"], _fixture("sl2.json", brackets={"[0,1]": {"1": "2", "01": "3"}, **SL2_REST}), None,
                 "bracket '[0,1]' in algebra file: target index 1 is repeated", id="bracket-target-repeated"),
    pytest.param(["validate"], _fixture("sl2.json", brackets={"[0,1]": {"1": "2"}, "[0, 1]": {"1": "3"}, **SL2_REST}),
                 None, "bracket '[0, 1]' in algebra file repeats the basis pair (0, 1)", id="bracket-pair-repeated"),
    pytest.param(["validate"], _fixture("sl2.json", brackets={"[0,1]": {"7": "1"}, **SL2_REST}), None,
                 "bracket '[0,1]' in algebra file: target index 7 outside 0..2", id="bracket-target-out-of-range"),
    *[pytest.param(["validate"], _fixture("sl2.json", brackets={key: {"1": "2"}, **SL2_REST}), None,
                   f"bracket '{key}' in algebra file: the key must be [i,j] with 0 <= i < j < 3", id=f"bracket-key-{name}")
      for key, name in (("[1,0]", "out-of-order"), ("[0,9]", "out-of-range"), ("[0;1]", "malformed"))],
    pytest.param(["validate"], _fixture("sl2.json", sigma=[[-1, 0, 0], [0, 0, -1], [0, -1, False]]), None,
                 "key 'sigma' in algebra file: not an exact rational: False", id="sigma-boolean"),
    pytest.param(["hc-project", "--poly", "omega"], _fixture("sl2.json", weyl=5), None,
                 "key 'weyl' in algebra file must be a list of 3x3 matrices", id="weyl-number"),
    pytest.param(["validate"], _fixture("sl2.json", brackets=5), None,
                 "the 'brackets' block of algebra file must hold a JSON object", id="brackets-number"),
    pytest.param(["validate"], _fixture("sl2.json", brackets={"[0,1]": 5}), None,
                 "bracket '[0,1]' in algebra file must hold a JSON object", id="bracket-value-number"),
    pytest.param(["validate"], _fixture("sl2.json", basis=5), None,
                 "key 'basis' in algebra file must be a list of names", id="basis-number"),
    pytest.param(["validate"], _fixture("sl2.json", basis=[1, 2, 3]), None,
                 "key 'basis' in algebra file must be a list of names", id="basis-not-names"),
    pytest.param(["validate"], _fixture("sl2.json", basis=[]), None,
                 "key 'basis' in algebra file must name at least one vector", id="basis-empty"),
    pytest.param(["validate"], {**_fixture("sl2.json"), "name": 5}, None,
                 "key 'name' in algebra file must be a string", id="name-number"),
    pytest.param(["validate"], _fixture("sl2.json", sigma=[["-1", "0", "0"], ["0", "0", "-1"]]), None,
                 "key 'sigma' in algebra file must be a 3x3 matrix", id="sigma-two-rows"),
    pytest.param(["validate"], _fixture("sl2.json", sigma=[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), None,
                 "sigma^2 != identity on basis vector 'H': defect (3, 0, 0)", id="sigma-not-involution"),
    pytest.param(["validate"], _fixture("sl2.json", sigma=[["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), None,
                 "sigma is not a bracket automorphism on basis pair ('H', 'X'): defect (0, 4, 0)",
                 id="sigma-not-automorphism"),
    pytest.param(["validate"], _fixture("sl2.json", sigma=5), None,
                 "key 'sigma' in algebra file must be a list of vectors of length 3", id="sigma-number"),
    pytest.param(["star-dk", "--p", "a", "--q", "b"], _fixture("sl2.json", definitions={"a": {"H^x": 1}, "b": {"H": 1}}),
                 None, "definition 'a' in algebra file, monomial 'H^x': exponent 'x' is not a non-negative integer",
                 id="monomial-exponent-not-integer"),
    pytest.param(["star-dk", "--p", "a", "--q", "b"], _fixture("sl2.json", definitions={"a": {"H^-1": 1}, "b": {"H": 1}}),
                 None, "definition 'a' in algebra file, monomial 'H^-1': exponent '-1' is not a non-negative integer",
                 id="monomial-exponent-negative"),
    pytest.param(["star-dk", "--p", "a", "--q", "b"], _fixture("sl2.json", definitions={"a": {"Q^2": 1}, "b": {"H": 1}}),
                 None, "definition 'a' in algebra file, monomial 'Q^2': unknown symbol 'Q'", id="monomial-unknown-symbol"),
]


@pytest.mark.parametrize("command, algebra, polarization, message", MALFORMED)
def test_malformed_files_name_key_and_file(tmp_path, capsys, command, algebra, polarization, message):
    alg_path, pol_path = tmp_path / "alg.json", tmp_path / "pol.json"
    alg_path.write_text(json.dumps(algebra))
    argv = [command[0], str(alg_path)] + command[1:]
    if polarization is not None:
        pol_path.write_text(json.dumps(polarization))
        argv += ["--pol", str(pol_path)]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err and '"' not in err


@pytest.mark.parametrize("argv, message", [
    (["densities", alg("sl2.json"), "--order", "-2"], "density order must be even and >= 0"),
    (["duflo-check", alg("sl2.json"), "--degree", "-1"], "degree must be >= 0"),
])
def test_negative_order_or_degree_is_rejected(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("lam", ["trk", "half-trk"])
def test_duflo_check_at_the_trk_characters(capsys, lam):
    assert run(["duflo-check", alg("sl2.json"), "--degree", "2", "--lambda", lam]) == 0
    assert capsys.readouterr().out == "duflo relation at degree 2: holds\n"


def test_star_rou_at_a_file_defined_character(capsys):
    assert run(["star-rou", alg("solvable4.json"), "--p", "zz", "--q", "zz", "--lambda", "mu"]) == 0
    assert capsys.readouterr().out == "zz^2\n"


def test_star_rou_rejects_an_unknown_character(capsys):
    assert run(["star-rou", alg("solvable4.json"), "--p", "zz", "--q", "zz", "--lambda", "nope"]) == 2
    assert capsys.readouterr().err == ("validation error: unknown character 'nope' "
                                       "(use zero | trk | half-trk or a file-defined name)\n")


@pytest.mark.parametrize("form, code, out, err", [
    ("0,0,1", 0, "1\n", ""),
    ("0,1", 2, "", "error: form needs one coordinate per basis symbol\n"),
    ("w", 2, "", "error: unknown form 'w'\n"),
])
def test_char_reads_the_form_as_coordinates_or_a_basis_symbol(capsys, form, code, out, err):
    pol = alg(os.path.join("polarizations", "heisenberg3.json"))
    assert run(["char", alg("heisenberg3.json"), "--poly", "zz", "--f", form, "--pol", pol]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_products_render_past_constant_and_other_block_definitions(tmp_path, capsys):
    # a constant cannot name the product, and a definition over k does not resolve over p
    with open(alg("sl2.json")) as fh:
        data = json.load(fh)
    data["definitions"].update({"aaa": {"1": "3"}, "kk": {"X-Y": "1"}})
    path = tmp_path / "sl2defs.json"
    path.write_text(json.dumps(data))
    assert run(["star-rou", str(path), "--p", "omega", "--q", "omega"]) == 0
    assert capsys.readouterr().out == "omega^2 + 16/15\n"
