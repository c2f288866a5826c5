import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fragchain import catalan, dist_discrete, mobius, tree_prob_discrete
from fragchain.cli import run
from fragchain.serialize import dist_from_csv, fragtree_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def rates_file(tmp_path):
    p = tmp_path / "rates.json"
    p.write_text(json.dumps({"mode": "discrete",
                             "rho": {"1": 0.1, "2": 0.05, "3": 0.2,
                                     "4": 0.1, "5": 0.15}}))
    return str(p)


@pytest.fixture
def crates_file(tmp_path):
    p = tmp_path / "crates.json"
    p.write_text(json.dumps({"mode": "continuous",
                             "rho": {"1": 0.7, "2": 1.3, "3": 0.4}}))
    return str(p)


@pytest.fixture
def tree_file(tmp_path):
    p = tmp_path / "tree.json"
    p.write_text(json.dumps({"links": [1, 5], "root": 3, "edges": [[3, 4]]}))
    return str(p)


@pytest.fixture
def rooted_file(tmp_path):
    p = tmp_path / "rooted.json"
    p.write_text(json.dumps({"root": 0,
                             "edges": [[0, 1], [0, 2], [1, 3], [1, 4]]}))
    return str(p)


def test_dist_subset(rates_file, capsys, rates5):
    assert run(["dist", "--rates", rates_file, "--time", "3",
                "--subset", "2,4"]) == 0
    out = capsys.readouterr().out
    table = dist_from_csv(io.StringIO(out))
    assert abs(table[(2, 4)] - dist_discrete([2, 4], rates5, 3)) < 1e-15


def test_dist_full_table(rates_file, tmp_path, rates5):
    out = tmp_path / "table.csv"
    assert run(["dist", "--rates", rates_file, "--time", "2",
                "--out", str(out)]) == 0
    with open(out) as fh:
        table = dist_from_csv(fh)
    assert len(table.entries) == 32
    assert abs(table.total() - 1.0) < 1e-12


def test_dist_exact_json(rates_file, capsys):
    assert run(["dist", "--rates", rates_file, "--time", "2",
                "--subset", "3", "--exact", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    (entry,) = d["entries"]
    assert entry["subset"] == [3]
    assert Fraction(entry["probability"]).denominator > 1


# P(G) at t=3 for rho = (0.1, 0.15, 0.2, 0.05, 0.3) read as decimals, in
# table order: by size, then lexicographically
EXACT_T3 = (
    "1/125 19/1000 34203/800000 2401/32000 10609/800000 117/1000 "
    "17097/800000 3717/100000 1683/200000 9/125 9111/160000 13203/1000000 "
    "22743/200000 13491/800000 591/4000 22491/800000 2871/200000 "
    "14103/4000000 5607/200000 489/100000 123/3125 1767/200000 "
    "28413/4000000 5679/100000 51453/4000000 3171/200000 1113/1000000 "
    "81/10000 477/250000 129/50000 3753/1000000 171/500000").split()


def test_dist_exact_json_golden(tmp_path, capsys):
    p = tmp_path / "decimal.json"
    p.write_text(json.dumps({"mode": "discrete",
                             "rho": {"1": 0.1, "2": 0.15, "3": 0.2,
                                     "4": 0.05, "5": 0.3}}))
    assert run(["dist", "--rates", str(p), "--time", "3", "--exact",
                "--format", "json"]) == 0
    subsets = sorted(([a for a in range(1, 6) if m >> (a - 1) & 1]
                      for m in range(32)), key=lambda g: (len(g), g))
    want = {"mode": "discrete", "time": 3,
            "entries": [{"subset": g, "probability": q}
                        for g, q in zip(subsets, EXACT_T3)]}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_dist_oracle_route_agrees(rates_file, capsys):
    assert run(["dist", "--rates", rates_file, "--time", "4"]) == 0
    direct = capsys.readouterr().out
    assert run(["dist", "--rates", rates_file, "--time", "4", "--oracle"]) == 0
    oracle = capsys.readouterr().out
    a = dist_from_csv(io.StringIO(direct))
    b = dist_from_csv(io.StringIO(oracle))
    assert set(a.entries) == set(b.entries)
    assert all(abs(a[g] - b[g]) < 1e-12 for g in a.entries)


def test_dist_endpoints(rates_file, capsys):
    assert run(["dist", "--rates", rates_file, "--time", "4",
                "--subset", "1,5", "--endpoints"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("subset,probability\n1;5,")


def test_dist_continuous(crates_file, capsys):
    assert run(["dist", "--rates", crates_file, "--time", "0.7",
                "--subset", "2"]) == 0
    assert capsys.readouterr().out.startswith("subset,probability\n2,")


def test_dist_bad_time(rates_file):
    assert run(["dist", "--rates", rates_file, "--time", "1.5",
                "--subset", "2"]) == 2


def test_dist_missing_rates_file(tmp_path):
    assert run(["dist", "--rates", str(tmp_path / "nope.json"),
                "--time", "1"]) == 2


def test_treeprob(rates_file, tree_file, capsys, rates5):
    assert run(["treeprob", "--rates", rates_file, "--tree", tree_file,
                "--time", "5"]) == 0
    from fragchain import FragTree
    expected = tree_prob_discrete(FragTree(5, 3, {}, {3: 4}), rates5, 5)
    assert float(capsys.readouterr().out) == pytest.approx(expected, abs=1e-15)


def test_treeprob_rejects_rooted_file(rates_file, rooted_file):
    assert run(["treeprob", "--rates", rates_file, "--tree", rooted_file,
                "--time", "2"]) == 2


def test_trees_count(capsys):
    assert run(["trees", "--links", "6", "--subset", "2,3,5",
                "--format", "count"]) == 0
    assert int(capsys.readouterr().out) == catalan(3)


def test_trees_json(capsys):
    assert run(["trees", "--links", "4", "--subset", "1,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 2
    assert all(d["links"] == [1, 4] for d in payload)


def test_trees_budget_exceeded():
    assert run(["trees", "--links", "5", "--subset", "2,4",
                "--format", "count", "--budget", "1"]) == 3


def test_poset_summary(rooted_file, capsys):
    assert run(["poset", "--tree", rooted_file]) == 0
    out = capsys.readouterr().out
    assert "edges: 4" in out
    assert "elements: 16" in out
    assert "cover pairs: 24" in out
    assert "stump cut sets: 10" in out


def test_poset_interval(rooted_file, capsys):
    assert run(["poset", "--tree", rooted_file, "--interval", "3,4:"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["{}", "3", "4", "3,4"]


def test_poset_factorize(rooted_file, capsys):
    assert run(["poset", "--tree", rooted_file, "--factorize", "3,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["2", "3"]


def test_poset_dot(rooted_file, capsys):
    assert run(["poset", "--tree", rooted_file, "--dot",
                "--highlight", "3,4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "bold" in out


def test_poset_incomparable_interval(rooted_file):
    assert run(["poset", "--tree", rooted_file, "--interval", "1:3"]) == 2


def test_mobius_values(rooted_file, capsys, tree4):
    cases = [("3,4", "", "1"), ("1,3,4", "", "0"), ("3", "", "-1")]
    for h, k, expected in cases:
        assert run(["mobius", "--tree", rooted_file,
                    "--from", h, "--to", k]) == 0
        assert capsys.readouterr().out.strip() == expected
        assert str(mobius(tree4, [int(x) for x in h.split(",") if x],
                          [int(x) for x in k.split(",") if x]).value) == expected
        assert run(["mobius", "--tree", rooted_file,
                    "--from", h, "--to", k, "--recursive"]) == 0
        assert capsys.readouterr().out.strip() == expected


def test_mobius_incomparable(rooted_file, capsys):
    assert run(["mobius", "--tree", rooted_file, "--from", "1", "--to", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0 (incomparable)"
    assert run(["mobius", "--tree", rooted_file, "--from", "1", "--to", "3",
                "--recursive"]) == 2


def test_simulate_subset(rates_file, capsys):
    assert run(["simulate", "--rates", rates_file, "--time", "3",
                "--subset", "2", "--samples", "3000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["samples"] == 3000 and rep["seed"] == 1729
    assert abs(rep["z"]) < 4


def test_simulate_tree_and_coupled(rates_file, tree_file, capsys):
    assert run(["simulate", "--rates", rates_file, "--time", "3",
                "--tree", tree_file, "--samples", "3000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["z"]) < 4
    assert run(["simulate", "--rates", rates_file, "--time", "3",
                "--tree", tree_file, "--samples", "3000", "--coupled"]) == 0
    repc = json.loads(capsys.readouterr().out)
    assert abs(repc["z"]) < 4
    assert rep["exact"] == repc["exact"]


def test_simulate_needs_one_target(rates_file, tree_file):
    assert run(["simulate", "--rates", rates_file, "--time", "2"]) == 2
    assert run(["simulate", "--rates", rates_file, "--time", "2",
                "--tree", tree_file, "--subset", "2"]) == 2


def test_verify_passes(rates_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--rates", rates_file, "--t-grid", "0,1,3",
                "--shape-edges", "3", "--inversion-trials", "5",
                "--samples", "2000", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "verify: PASS" in text
    assert "FAIL" not in text.replace("verify: PASS", "")
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert len(rep["groups"]) == 10
    assert all(g["seconds"] >= 0 for g in rep["groups"])  # none is skipped


def test_verify_skips_mc_when_no_samples(capsys):
    assert run(["verify", "--n", "3", "--t-grid", "0,1",
                "--shape-edges", "2", "--inversion-trials", "3",
                "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert "skip  mc_tree_concordance" in out


def test_verify_negative_control(rates_file, capsys):
    code = run(["verify", "--rates", rates_file, "--t-grid", "1,3",
                "--shape-edges", "2", "--inversion-trials", "3",
                "--samples", "0", "--inject-perturbation", "1e-6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL  discrete_formula_vs_matrix" in out
    assert "verify: FAIL" in out


def test_verify_fails_when_estimates_without_spread_disagree(capsys):
    # one trajectory: direct estimate 1, coupled 0, both standard errors 0
    assert run(["verify", "--n", "2", "--samples", "1", "--seed", "2"]) == 1
    assert "FAIL  coupled_vs_direct" in capsys.readouterr().out


def test_usage_errors():
    assert run(["no-such-command"]) == 2
    assert run(["dist"]) == 2  # missing required arguments


def test_simulate_rejects_zero_samples(rates_file, capsys):
    assert run(["simulate", "--rates", rates_file, "--time", "2",
                "--subset", "2", "--samples", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_simulate_rejects_negative_samples(rates_file, tree_file, capsys):
    assert run(["simulate", "--rates", rates_file, "--time", "2",
                "--subset", "2", "--samples", "-5"]) == 2
    assert run(["simulate", "--rates", rates_file, "--time", "2",
                "--tree", tree_file, "--samples", "-5", "--coupled"]) == 2
    assert capsys.readouterr().out == ""


def test_duplicate_subset_links_rejected(rates_file, capsys):
    assert run(["dist", "--rates", rates_file, "--time", "2",
                "--subset", "2,2"]) == 2
    assert run(["simulate", "--rates", rates_file, "--time", "2",
                "--subset", "3,1,3", "--samples", "100"]) == 2
    assert run(["trees", "--links", "5", "--subset", "4,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("error:") for line in captured.err.splitlines())


def test_dist_table_cap(tmp_path, capsys):
    p = tmp_path / "rates21.json"
    p.write_text(json.dumps({"mode": "discrete",
                             "rho": {str(a): 0.04 for a in range(1, 22)}}))
    assert run(["dist", "--rates", str(p), "--time", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.fixture
def frag_and_rooted_files(tmp_path):
    """A fragmentation tree on 9 links and the same tree as a bare rooted
    tree, its edges in preorder with the left child first."""
    frag = tmp_path / "frag.json"
    frag.write_text(json.dumps({
        "links": [1, 9], "root": 4,
        "edges": [[4, 2], [2, 1], [2, 3], [4, 6], [6, 5], [6, 8], [8, 7]]}))
    rooted = tmp_path / "frag_rooted.json"
    rooted.write_text(json.dumps({
        "root": 4,
        "edges": [[4, 2], [2, 1], [2, 3], [4, 6], [6, 5], [6, 8], [8, 7]]}))
    return str(frag), str(rooted)


def test_poset_and_mobius_on_fragtree_file(frag_and_rooted_files, capsys):
    frag, rooted = frag_and_rooted_files
    commands = [
        ["poset"],
        ["poset", "--dot"],
        ["poset", "--dot", "--highlight", "3,8"],
        ["poset", "--interval", "3,7:"],
        ["poset", "--factorize", "6,1,3"],
        ["mobius", "--from", "3,7", "--to", ""],
        ["mobius", "--from", "1,3,8", "--to", "3"],
        ["mobius", "--from", "2,6", "--to", ""],
        ["mobius", "--from", "1,3,5,7", "--to", "", "--recursive"],
        ["mobius", "--from", "2", "--to", "6"],
    ]
    for cmd in commands:
        assert run(cmd[:1] + ["--tree", frag] + cmd[1:]) == 0
        on_frag = capsys.readouterr().out
        assert run(cmd[:1] + ["--tree", rooted] + cmd[1:]) == 0
        assert capsys.readouterr().out == on_frag, cmd
        assert on_frag


def test_poset_and_mobius_reject_empty_fragtree(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"links": [1, 4], "root": None, "edges": []}))
    for argv in (["poset", "--tree", str(p)],
                 ["mobius", "--tree", str(p), "--from", "", "--to", ""]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_mobius_unknown_vertex(rooted_file, frag_and_rooted_files, capsys):
    for path in (rooted_file, frag_and_rooted_files[0]):
        assert run(["mobius", "--tree", path, "--from", "9", "--to", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown vertex 9\n"


def test_verify_rejects_negative_samples(capsys):
    assert run(["verify", "--n", "3", "--t-grid", "0,1", "--shape-edges", "2",
                "--inversion-trials", "3", "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("option", [
    ["--n", "0"], ["--n", "13"], ["--t-grid", "1,-2"], ["--t-grid", ""],
    ["--shape-edges", "-1"], ["--shape-edges", "0"],
    ["--inversion-trials", "-3"], ["--tol", "-1"], ["--tol", "nan"],
], ids=lambda o: " ".join(o))
def test_verify_rejects_bad_option_before_any_group(option, capsys):
    assert run(["verify", "--samples", "0"] + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_rejects_oversized_rates_file(tmp_path, capsys):
    p = tmp_path / "rates13.json"
    p.write_text(json.dumps({"mode": "discrete",
                             "rho": {str(a): 0.05 for a in range(1, 14)}}))
    assert run(["verify", "--rates", str(p), "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_oracles_import_only_the_standard_library(tmp_path):
    # verify and both dist --oracle routes, run in a fresh interpreter,
    # import no module from outside the standard library and fragchain
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"mode": "discrete",
                                 "rho": {"1": 0.1, "2": 0.2, "3": 0.3}}))
    crates = tmp_path / "crates.json"
    crates.write_text(json.dumps({"mode": "continuous",
                                  "rho": {"1": 0.7, "2": 1.3, "3": 0.4}}))
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "from fragchain.cli import run",
        "assert run(['verify', '--n', '4', '--samples', '200']) == 0",
        f"assert run(['dist', '--rates', {str(rates)!r}, '--time', '3', '--oracle']) == 0",
        f"assert run(['dist', '--rates', {str(crates)!r}, '--time', '1.5', '--oracle']) == 0",
        "allowed = set(sys.stdlib_module_names) | {'fragchain'}",
        "extra = sorted(m for m in set(sys.modules) - before",
        "               if m.split('.')[0] not in allowed)",
        "assert not extra, extra",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _fresh_python(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_commands_import_only_what_they_run(rates_file, tree_file, rooted_file):
    # trees, poset and mobius never load the probability or simulation
    # layers, and no command loads dataclasses (which pulls in inspect)
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "from fragchain.cli import run",
        "assert run(['trees', '--links', '6', '--subset', '2,4', '--format', 'count']) == 0",
        f"assert run(['poset', '--tree', {rooted_file!r}]) == 0",
        f"assert run(['poset', '--tree', {tree_file!r}, '--dot']) == 0",
        f"assert run(['mobius', '--tree', {rooted_file!r}, '--from', '3,4', '--to', '']) == 0",
        "heavy = {'fragchain.probabilities', 'fragchain.simulate'} & set(sys.modules)",
        "assert not heavy, heavy",
        f"assert run(['dist', '--rates', {rates_file!r}, '--time', '2']) == 0",
        f"assert run(['treeprob', '--rates', {rates_file!r}, '--tree', {tree_file!r}, '--time', '2']) == 0",
        f"assert run(['simulate', '--rates', {rates_file!r}, '--time', '2', '--subset', '3', '--samples', '50']) == 0",
        "assert run(['verify', '--n', '3', '--samples', '50']) == 0",
        "loaded = set(sys.modules) - before",
        "assert 'fragchain.probabilities' in loaded and 'dataclasses' not in loaded",
    ])
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr


API = """BudgetError CUT ConsistencyError DEFAULT_BUDGET DEFAULT_SEED DEP DistTable
EMPTY FIRE FragTree Fragment IND MobiusValue RateSpec RootedTree Trajectory
atom_probability aux_consistent batch_tree_counts catalan chain_fragments
check_transition_spectrum child_slot_keys classify_tree coupled_construction
covers_below dist_continuous dist_continuous_all dist_discrete
dist_discrete_all dist_discrete_endpoints down_set enumerate_atoms
enumerate_fragmentation_trees enumerate_stump_cut_sets enumerate_tree_shapes
errors estimate_state_prob estimate_tree_prob estimate_tree_prob_coupled
external_slots fragment_family fragments fragments_of generator_matrix_dist
hasse_edges internal_slots interval is_stump_cut_set lambda_diff lambda_value
leq_p marginal_internal_law matches_tree minimal_edges minimal_vertices mobius
mobius_inversion_check mobius_recursive poset probabilities
product_factorization random_rates random_tree sample_aux simulate
simulate_continuous simulate_discrete slot_order stump_cut_set stump_set
substream subtree support_atoms transition_matrix_dist transition_rows
tree_prob_continuous tree_prob_discrete trees""".split()


def test_package_names_resolve_lazily():
    # `import fragchain` loads no submodule; every public name is the object
    # its submodule defines, and the modules themselves are public names
    script = "\n".join([
        "import importlib, sys",
        "import fragchain",
        "assert [m for m in sys.modules if m.startswith('fragchain.')] == []",
        f"assert fragchain.__all__ == {API!r}",
        "mods = {m: importlib.import_module('fragchain.' + m) for m in",
        "        ('errors', 'fragments', 'poset', 'probabilities', 'simulate', 'trees')}",
        "for name in fragchain.__all__:",
        "    obj = getattr(fragchain, name)",
        "    if name in mods:",
        "        assert obj is mods[name], name",
        "        continue",
        "    homes = [m for m in mods.values() if hasattr(m, name)]",
        "    assert homes and all(getattr(m, name) is obj for m in homes), name",
        "    assert getattr(fragchain, name) is obj, name",
        "ns = {}",
        "exec('from fragchain import *', ns)",
        "assert sorted(k for k in ns if k != '__builtins__') == fragchain.__all__",
        "try:",
        "    fragchain.no_such_name",
        "except AttributeError:",
        "    pass",
        "else:",
        "    raise AssertionError('unknown name resolved')",
    ])
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr


VERIFY_N4_STDOUT = """\
pass  mobius_closed_vs_recursive       17 shapes, 675 pairs, 0 mismatches
pass  mobius_inversion_roundtrip       20 trials, 0 mismatches
pass  discrete_formula_vs_matrix       n=4, t in [0, 1, 2, 5, 10], max|err|=1.665e-16, recursion max|err|=1.110e-16
pass  normalization_discrete           max|sum-1|=1.110e-16
pass  endpoints_vs_tree_formula        max|err|=5.551e-17
pass  matrix_triangular_eigenvalues    states=16, max_diag_error=0.000e+00
pass  continuous_tree_sum_vs_closed    n=4, max|err|=3.053e-16
pass  normalization_continuous         max|sum-1|=1.110e-16
pass  mc_tree_concordance              N=2000, max|z|=2.89
pass  coupled_vs_direct                N=2000, max|z|=0.80
verify: PASS
"""


def test_verify_golden_stdout(capsys):
    # coupled_vs_direct reads its direct estimate from the concordance batch;
    # the report is the one the separate direct estimate gave
    assert run(["verify", "--n", "4", "--samples", "2000"]) == 0
    assert capsys.readouterr().out == VERIFY_N4_STDOUT


@pytest.mark.parametrize("content", [
    {"mode": "discrete", "rho": {"1": None, "2": 0.1}},
    {"mode": "discrete", "rho": {"1": [1], "2": 0.1}},
    {"mode": "discrete", "rho": [0.1, 0.2]},
    [0.1, 0.2],
], ids=["null rate", "list rate", "rho array", "array file"])
@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
def test_malformed_rates_file_exits_2(content, exact, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(content))
    assert run(["dist", "--rates", str(p), "--time", "2"] + exact) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("rho,args", [
    ({"1": float("inf"), "2": 0.5}, ["dist", "--time", "0"]),
    ({"1": 1e308, "2": 1e308}, ["dist", "--time", "1", "--oracle"]),
    ({"1": 1e308, "2": 1e308}, ["treeprob", "--time", "1"]),
], ids=["Infinity", "overflowing total, oracle", "overflowing total, treeprob"])
def test_rates_not_finite_as_floats_exit_2(rho, args, tmp_path, capsys):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"mode": "continuous", "rho": rho}))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"links": [1, 2], "root": 1, "edges": [[1, 2]]}))
    extra = ["--tree", str(tree)] if args[0] == "treeprob" else []
    assert run(args + ["--rates", str(rates)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_negative_seed_exits_2(rates_file, tree_file, capsys):
    for args in (["simulate", "--rates", rates_file, "--time", "3", "--samples", "10",
                  "--tree", tree_file],
                 ["simulate", "--rates", rates_file, "--time", "3", "--samples", "10",
                  "--subset", "2"],
                 ["verify", "--samples", "0"]):
        assert run(args + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # verify prints no group first
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("content", [
    {"links": [1, 4], "root": 2, "edges": [[2, "x"]]},
    {"links": [1, 4], "root": "2", "edges": []},
    {"links": [1, None], "root": 2, "edges": []},
    [[0, 1]],
], ids=["edge label", "root label", "links", "array file"])
def test_malformed_tree_file_exits_2(content, rates_file, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(content))
    for args in (["treeprob", "--rates", rates_file, "--time", "2"],
                 ["poset"], ["mobius", "--from", "2", "--to", ""]):
        assert run(args + ["--tree", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3 and all(line.startswith("error:") for line in lines)


@pytest.mark.parametrize("n", [None, float("inf"), 2.5, "2", True],
                         ids=["null", "Infinity", "fraction", "string", "bool"])
@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["float", "exact"])
def test_rates_file_with_bad_n_exits_2(n, exact, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"mode": "discrete", "n": n,
                             "rho": {"1": 0.1, "2": 0.2}}))
    assert run(["dist", "--rates", str(p), "--time", "2"] + exact) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("content", [
    {"root": 0, "edges": [[0, [1]]]},
    {"root": [0], "edges": []},
    {"root": 0, "edges": [[{"v": 0}, 1]]},
    {"root": 0.5, "edges": [[0.5, 1]]},
], ids=["list child", "list root", "object parent", "float label"])
def test_rooted_tree_file_with_bad_label_exits_2(content, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(content))
    for args in (["poset"], ["mobius", "--from", "1", "--to", ""]):
        assert run(args + ["--tree", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error:") for line in lines)


def test_verify_single_link_passes(capsys):
    # with one link at total rate 1 the tree of {1} has probability 1
    # exactly; its z-score is skipped like that of a tree below 1e-3
    assert run(["verify", "--n", "1", "--samples", "300"]) == 0
    assert capsys.readouterr().out.endswith("verify: PASS\n")


@pytest.mark.parametrize("links", ["0", "-2"])
def test_trees_rejects_links_below_1(links, capsys):
    assert run(["trees", "--links", links, "--subset", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --links must be at least 1\n"


@pytest.mark.parametrize("option", [["--exact"], ["--method", "direct"]],
                         ids=["exact", "direct"])
def test_discrete_options_with_continuous_rates_exit_2(option, crates_file, tmp_path,
                                                       capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"links": [1, 3], "root": 2, "edges": []}))
    for args in (["dist", "--subset", "2"], ["dist"], ["treeprob", "--tree", str(tree)]):
        assert run(args + ["--rates", crates_file, "--time", "0.7"] + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3 and all(line.startswith("error:") for line in lines)


@pytest.mark.parametrize("args", [
    ["trees", "--links", "4", "--subset", "1,3"],
    ["dist", "--time", "2", "--method", "direct"],
    ["dist", "--time", "2"],
], ids=["trees", "dist direct", "dist auto"])
def test_negative_budget_exits_2(args, rates_file, capsys):
    if args[0] == "dist":
        args = args + ["--rates", rates_file]
    assert run(args + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["--oracle", "--method", "direct", "--subset", "1"],
    ["--oracle", "--method", "direct"],
    ["--endpoints", "--method", "direct", "--subset", "1"],
    ["--endpoints"],
    ["--endpoints", "--oracle", "--subset", "1"],
], ids=["oracle direct", "oracle direct table", "endpoints direct",
        "endpoints without subset", "endpoints oracle"])
def test_dist_rejects_options_of_another_route(args, rates_file, capsys):
    assert run(["dist", "--rates", rates_file, "--time", "2"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_method_expanded_exits_2(rates_file, capsys):
    # the paper's route forms its denominators one way, --method direct
    assert run(["dist", "--rates", rates_file, "--time", "2", "--method", "expanded"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--method: invalid choice" in captured.err and "expanded" in captured.err


def _loaded_by_entry_point(argv, cwd):
    """Exit code of `python -m fragchain.cli ARGV` in a fresh interpreter,
    and the modules it loads from the package import on, as its -v log
    names them. Modules that start-up loads before, which vary with the
    site, are left out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-v", "-m", "fragchain.cli"] + argv,
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    names = [line.split("'")[1] for line in proc.stderr.splitlines()
             if line.startswith("import '")]
    return proc.returncode, names[names.index("fragchain"):]


def test_entry_point_loads_only_what_each_command_runs(rates_file, tree_file,
                                                       rooted_file, tmp_path):
    # one fresh interpreter per command of the benchmark's cli session
    commands = {
        "dist subset": ["dist", "--rates", rates_file, "--time", "4", "--subset", "2,4"],
        "dist table": ["dist", "--rates", rates_file, "--time", "4", "--format", "json"],
        "treeprob": ["treeprob", "--rates", rates_file, "--tree", tree_file, "--time", "4"],
        "trees": ["trees", "--links", "8", "--subset", "1,3,5,6,8", "--format", "count"],
        "poset": ["poset", "--tree", rooted_file],
        "mobius": ["mobius", "--tree", rooted_file, "--from", "3,4", "--to", ""],
        "simulate": ["simulate", "--rates", rates_file, "--time", "2", "--subset", "3",
                     "--samples", "2000", "--seed", "11"],
        "verify": ["verify", "--n", "4", "--samples", "2000"],
    }
    for name, argv in commands.items():
        code, loaded = _loaded_by_entry_point(argv, tmp_path)
        assert code == 0, name
        # the entry point runs as __main__; nothing imports it a second time
        assert "fragchain.cli" not in loaded, name
        assert ("fragchain.checks" in loaded) == (name == "verify"), name
        if name in ("dist subset", "dist table", "simulate"):
            assert not {"fragchain.fragments", "fragchain.trees"} & set(loaded), name
        if name in ("poset", "mobius"):
            assert "fragchain.fragments" not in loaded, name
        if name not in ("simulate", "verify"):
            assert "random" not in loaded, name


VERIFY_N5_NO_SAMPLES_STDOUT = """\
pass  mobius_closed_vs_recursive       17 shapes, 675 pairs, 0 mismatches
pass  mobius_inversion_roundtrip       20 trials, 0 mismatches
pass  discrete_formula_vs_matrix       n=5, t in [0, 1, 2, 5, 10], max|err|=3.476e-16, recursion max|err|=8.327e-17
pass  normalization_discrete           max|sum-1|=1.110e-16
pass  endpoints_vs_tree_formula        max|err|=1.665e-16
pass  matrix_triangular_eigenvalues    states=32, max_diag_error=0.000e+00
pass  continuous_tree_sum_vs_closed    n=5, max|err|=3.053e-16
pass  normalization_continuous         max|sum-1|=1.110e-16
skip  mc_tree_concordance              samples=0
skip  coupled_vs_direct                samples=0
verify: PASS
"""

VERIFY_N6_NO_SAMPLES_STDOUT = """\
pass  mobius_closed_vs_recursive       17 shapes, 675 pairs, 0 mismatches
pass  mobius_inversion_roundtrip       20 trials, 0 mismatches
pass  discrete_formula_vs_matrix       n=6, t in [0, 1, 2, 5, 10], max|err|=1.866e-15, recursion max|err|=2.776e-17
pass  normalization_discrete           max|sum-1|=1.110e-16
pass  endpoints_vs_tree_formula        max|err|=1.110e-16
pass  matrix_triangular_eigenvalues    states=64, max_diag_error=0.000e+00
pass  continuous_tree_sum_vs_closed    n=6, max|err|=3.664e-15
pass  normalization_continuous         max|sum-1|=2.220e-16
skip  mc_tree_concordance              samples=0
skip  coupled_vs_direct                samples=0
verify: PASS
"""


@pytest.mark.parametrize("n, want", [("5", VERIFY_N5_NO_SAMPLES_STDOUT),
                                     ("6", VERIFY_N6_NO_SAMPLES_STDOUT)],
                         ids=["n5", "n6"])
def test_verify_golden_stdout_without_samples(n, want, capsys):
    # pins the direct route's digits at the sizes where it sums most trees
    assert run(["verify", "--n", n, "--samples", "0"]) == 0
    assert capsys.readouterr().out == want
