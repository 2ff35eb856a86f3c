"""Command-line interface: JSON shape, exit codes, determinism, DOT."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from groupdom import cli
from groupdom import corpus as corpus_module
from groupdom import lattice as lattice_module
from groupdom.cli import main
from groupdom.complexes import lattice_f_vectors
from groupdom.corpus import get_lattice
from groupdom.groups import DEFAULT_ELEMENT_CAP


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse(out):
    doc = json.loads(out)
    assert set(doc) == {"group", "command", "result", "timing_ms", "budget"}
    return doc


class TestGammaCommand:
    def test_d8(self, capsys):
        code, out, _ = run(capsys, "gamma", "D8")
        assert code == 0
        doc = parse(out)
        assert doc["group"] == "D8"
        assert doc["result"]["gamma"] == 2
        assert doc["result"]["optimal"] is True
        assert len(doc["result"]["witness"]) == 2

    def test_aleph0(self, capsys):
        code, out, _ = run(capsys, "gamma", "C5")
        assert code == 0
        assert parse(out)["result"]["gamma"] == "aleph0"


class TestOtherCommands:
    def test_subgroups(self, capsys):
        code, out, _ = run(capsys, "subgroups", "S4")
        doc = parse(out)
        assert code == 0
        assert doc["result"]["subgroup_count"] == 30

    def test_sum(self, capsys):
        code, out, _ = run(capsys, "sum", "D36")
        assert parse(out)["result"]["sum_number"] == 3

    @pytest.mark.parametrize("label,value", [("S4/V4", 4), ("D36/C9", 3), ("Q8/Z", 3)])
    def test_sum_of_a_corpus_quotient(self, capsys, label, value):
        # the corpus's quotient labels are not specs: they are built as
        # ``verify`` builds them
        code, out, _ = run(capsys, "sum", label)
        assert code == 0
        doc = parse(out)
        assert doc["group"] == label
        assert doc["result"]["sum_number"] == value and doc["result"]["optimal"] is True

    def test_graph_with_dot(self, capsys, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, out, _ = run(capsys, "--dot", str(dot_path), "graph", "Q8")
        assert code == 0
        doc = parse(out)
        assert doc["result"]["vertices"] == 4
        assert doc["result"]["edges"] == 6
        text = dot_path.read_text()
        assert text.count("--") == 6

    def test_burnside(self, capsys):
        code, out, _ = run(capsys, "burnside", "S3")
        doc = parse(out)
        assert doc["result"]["index_bound"]["bound"] == 4
        assert doc["result"]["table_of_marks"][0][0] == 6

    def test_complex(self, capsys):
        code, out, _ = run(capsys, "complex", "Q8")
        doc = parse(out)
        assert doc["result"]["models"]["intersection"]["is_simplex"] is True
        assert doc["result"]["report"]["collapse"]["collapsed_to_point"] is True

    def test_complex_document_pins(self, capsys):
        # the collapse probe depends on the exact collapse order, and the
        # f-vectors and Betti vectors on the four constructions
        _, out, _ = run(capsys, "complex", "S4")
        result = parse(out)["result"]
        assert result["report"]["collapse"] == {
            "collapsed_to_point": False, "remaining_faces": 27, "steps": 428}
        models = {k: (m["f_vector"], m["betti"], m["euler"])
                  for k, m in result["models"].items()}
        assert models == {
            "intersection": ([28, 130, 212, 230, 172, 84, 24, 3],
                             [0, 12, 0, 0, 0, 0, 0, 0], -11),
            "order": ([28, 63, 24], [0, 12, 0], -11),
            "atom_nerve": ([13, 66, 78, 54, 24, 7, 1], [0, 12, 0, 0, 0, 0, 0], -11),
            "coatom_nerve": ([8, 28, 10, 1], [0, 12, 0, 0], -11),
        }
        _, out, _ = run(capsys, "complex", "Q8")
        assert parse(out)["result"]["report"]["collapse"] == {
            "collapsed_to_point": True, "remaining_faces": 1, "steps": 7}

    def test_complex_past_the_face_budget(self, capsys):
        # the atom nerve and the intersection complex of S5 have more faces
        # than the budget: K's homology comes from its strong core (16
        # vertices, 35 facets), whose faces fit the budget, and the atom
        # nerve reads K's.  Both complexes' face counts come from the Möbius
        # function of the lattice, 2,147,525,967 and 6,560,835 faces, none
        # of them enumerated
        code, out, _ = run(capsys, "complex", "S5")
        assert code == 0
        result = parse(out)["result"]
        atom_nerve = result["models"]["atom_nerve"]
        assert sum(atom_nerve["f_vector"]) == 2_147_525_967
        assert (len(atom_nerve["vertex_labels"]), len(atom_nerve["facets"])) == (41, 16)
        f_vector = result["models"]["intersection"]["f_vector"]
        assert f_vector == [154, 3371, 20774, 78076, 216480, 466130, 796790, 1094400,
                            1215600, 1093960, 795600, 464100, 214200, 76500, 20400,
                            3825, 450, 25]
        assert sum(f_vector) == 6_560_835
        assert result["models"]["intersection"]["euler"] == 61
        assert result["report"]["collapse"] is None
        for name, profile in result["report"]["profiles"].items():
            betti = profile["betti"]
            while betti and betti[-1] == 0:
                betti.pop()
            assert betti == [0, 0, 60], name
            assert set(profile) - {"betti_from"} == {"betti", "euler", "dim"}, name
            assert result["models"][name]["euler"] == 61, name
            assert isinstance(result["models"][name]["f_vector"], list), name
        assert result["report"]["profiles_agree"] is True

    def test_complex_counts_every_model_past_the_face_budget(self, capsys):
        # S6: K and both nerves have null profiles, past the face budget, and
        # still carry their f-vectors counted from the lattice, each of Euler
        # characteristic 1 + μ(1, S6) = -719; the order model lists no chains
        code, out, _ = run(capsys, "complex", "S6")
        assert code == 0
        result = parse(out)["result"]
        counted = lattice_f_vectors(get_lattice("S6"))
        for name, model in result["models"].items():
            assert model["f_vector"] == list(counted[name]), name
            assert sum((-1) ** k * c for k, c in enumerate(model["f_vector"])) == -719, name
            assert model["is_simplex"] is False, name
            assert model["complete"] is (name == "order"), name
            assert "facets" not in model, name
        assert result["models"]["order"]["betti"] == [0, 0, 0, 720, 0]

    def test_corpus(self, capsys):
        code, out, _ = run(capsys, "--order-max", "12", "corpus")
        doc = parse(out)
        labels = [e["label"] for e in doc["result"]["entries"]]
        assert "Q8" in labels and "D8" in labels and "A4" in labels
        assert code == 0


class TestVerify:
    def test_small_corpus_clean(self, capsys):
        code, out, _ = run(capsys, "--order-max", "10", "verify")
        assert code == 0
        doc = parse(out)
        assert doc["result"]["violations"] == []
        assert doc["result"]["group_count"] > 5

    def test_expected_checks_present(self, capsys):
        code, out, _ = run(capsys, "--order-max", "8", "verify")
        doc = parse(out)
        q8 = next(g for g in doc["result"]["groups"] if g["group"] == "Q8")
        names = {c["name"]: c for c in q8["expected_checks"]}
        assert names["gamma"]["ok"] and names["gamma"]["source"] == "paper"
        assert names["subgroup_count"]["ok"]

    def test_order_max_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "verify", "--order-max", "4")
        assert code == 0
        after = parse(out)["result"]
        code, out, _ = run(capsys, "--order-max", "4", "verify")
        assert after == parse(out)["result"]
        assert after["order_max"] == 4


@pytest.mark.parametrize("label", ["A5", "S4"])
def test_verify_step_computes_the_derived_series_once(monkeypatch, label):
    """The enumeration of a non-solvable group (A5) hands its series to the
    lattice, and for a solvable one (S4) the lattice computes it on first
    use; classification and the characteristic subgroups read it there."""
    for cache in ("_GROUPS", "_LATTICES", "_GAMMAS"):
        monkeypatch.setattr(corpus_module, cache, {})
    calls = []
    original = lattice_module.derived_series
    for module in [m for name, m in sys.modules.items() if name.startswith("groupdom.")]:
        if getattr(module, "derived_series", None) is original:  # under any import
            monkeypatch.setattr(module, "derived_series",
                                lambda G: calls.append(G) or original(G))
    cli._verify_one(label, DEFAULT_ELEMENT_CAP, None)
    assert len(calls) == 1


class TestBudgetFlag:
    def test_solver_abort_sets_exceeded(self, capsys, monkeypatch):
        import groupdom.cli as cli

        # at --budget-ms 0 the lattice stage would abort first (exit 3), so
        # enumerate without a budget and let the solve run out
        enumerate_subgroups = cli.enumerate_subgroups
        monkeypatch.setattr(cli, "enumerate_subgroups",
                            lambda G, deadline=None: enumerate_subgroups(G))
        for command in ("sum", "gamma"):
            code, out, _ = run(capsys, "--budget-ms", "0", command, "C2xC2xC2xC2")
            doc = parse(out)
            assert code == 0 and doc["result"]["optimal"] is False
            assert doc["budget"]["exceeded"] is True

    def test_burnside_products_abort(self, capsys, monkeypatch):
        import groupdom.cli as cli

        # enumerate without a budget so that the product loop aborts
        enumerate_subgroups = cli.enumerate_subgroups
        monkeypatch.setattr(cli, "enumerate_subgroups",
                            lambda G, deadline=None: enumerate_subgroups(G))
        code, out, err = run(capsys, "--budget-ms", "0", "burnside", "S4")
        assert code == 3 and out == ""
        assert "Burnside products" in err

    def test_complex_core_chain_budget_leaves_order_incomplete(self, capsys, monkeypatch):
        import groupdom.complexes as complexes
        from groupdom.errors import BudgetExceeded

        def too_many_chains(L, vertices=None):
            raise BudgetExceeded("maximal chain budget exceeded", partial=0)

        # the command builds the order complex of the poset core only: past
        # the chain budget there, the order model is incomplete, with its
        # counted f-vector, and the command still exits 0
        monkeypatch.setattr(complexes, "order_complex", too_many_chains)
        code, out, err = run(capsys, "complex", "S4")
        assert code == 0 and err == ""
        result = parse(out)["result"]
        order = result["models"]["order"]
        assert order["complete"] is False and "betti" not in order, order
        assert (order["f_vector"], order["is_simplex"]) == ([28, 63, 24], False)
        assert result["report"]["profiles"]["order"] is None
        assert result["report"]["profiles_agree"] is None
        assert result["models"]["intersection"]["complete"] is True

    @pytest.mark.parametrize("spec", ["C13", "C2xC2xC4", "D24", "Q8", "S4", "A4",
                                      "SD(7,3)", "perm:4:(1,2,3,4);(1,2)"])
    def test_cap_below_the_order_aborts(self, capsys, spec):
        # every spec kind stops at the cap, not only permutation closures
        code, out, err = run(capsys, "--cap", "7", "subgroups", spec)
        assert code == 3 and out == ""
        assert "element cap 7 exceeded" in err

    def test_verify_stops_at_deadline(self, capsys, monkeypatch):
        import groupdom.cli as cli

        # the deadline is checked before each group, so a zero budget
        # verifies none of them
        verified = []
        verify_one = cli._verify_one
        monkeypatch.setattr(cli, "_verify_one", lambda label, cap, deadline:
                            verified.append(label) or verify_one(label, cap, deadline))
        code, out, err = run(capsys, "--budget-ms", "0", "--order-max", "48", "verify")
        assert code == 3 and out == ""
        assert "verify exceeded" in err
        assert verified == []

    def test_stages_share_one_deadline(self, capsys, monkeypatch):
        import groupdom.cli as cli

        # the lattice stage ignores the deadline but spends 60 ms of the
        # 50 ms budget, so the solve starts past it instead of with a fresh
        # 50 ms of its own
        enumerate_subgroups = cli.enumerate_subgroups

        def slow_enumerate(G, deadline=None):
            L = enumerate_subgroups(G)
            time.sleep(0.06)
            return L

        monkeypatch.setattr(cli, "enumerate_subgroups", slow_enumerate)
        code, out, _ = run(capsys, "--budget-ms", "50", "sum", "C2xC2xC2xC2")
        doc = parse(out)
        assert code == 0 and doc["result"]["optimal"] is False
        assert doc["budget"]["exceeded"] is True

    def test_verify_solve_abort_is_not_a_violation(self):
        import groupdom.cli as cli
        from groupdom.errors import BudgetExceeded
        from groupdom.groups import DEFAULT_ELEMENT_CAP

        # a solve of A6 cut off by the deadline reports its class cover,
        # whose 16 equals Cohn's pin only because that start happens to be
        # optimal: verify must abort on a cut-off solve, never check it
        with pytest.raises(BudgetExceeded, match="A6"):
            cli._verify_one("A6", DEFAULT_ELEMENT_CAP, time.monotonic())

    def test_default_run_not_exceeded(self, capsys):
        for command in ("sum", "gamma"):
            code, out, _ = run(capsys, command, "C2xC2xC2xC2")
            doc = parse(out)
            assert code == 0 and doc["result"]["optimal"] is True
            assert doc["budget"]["exceeded"] is False


class TestErrors:
    def test_bad_spec_exits_2(self, capsys):
        code, out, err = run(capsys, "gamma", "D7")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("spec", ["S4/C2", "Z", "Q8/"])
    def test_unknown_label_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "sum", spec)
        assert code == 2
        assert "error" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["gamma"], ["verify", "S4"], ["corpus", "S4"]])
    def test_spec_rule_exits_2(self, capsys, argv):
        # a spec is given exactly when the command is neither verify nor corpus
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "group spec" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "verify" in capsys.readouterr().out

    def test_flag_after_the_spec(self, capsys):
        code, after, _ = run(capsys, "gamma", "S4", "--json")
        assert code == 0
        code, before, _ = run(capsys, "--json", "gamma", "S4")
        assert code == 0
        assert after.startswith("{\n  ")  # pretty-printed in both places
        after, before = json.loads(after), json.loads(before)
        del after["timing_ms"], before["timing_ms"]
        assert after == before and after["result"]["gamma"] == 4

    @pytest.mark.parametrize("argv", [["gamma", "--json", "S4"], ["gamma", "S4", "--json"],
                                      ["--json", "gamma", "S4"], ["graph", "--dot", "PATH", "Q8"]])
    def test_a_flag_may_stand_anywhere(self, capsys, tmp_path, argv):
        # before the command, between it and its spec or after the spec, a
        # flag takes effect and leaves the result as it is without the flag
        dot = tmp_path / "g.dot"
        code, out, _ = run(capsys, *[str(dot) if a == "PATH" else a for a in argv])
        assert code == 0
        _, plain, _ = run(capsys, *[a for a in argv if a not in ("--json", "--dot", "PATH")])
        if "--json" in argv:
            assert out.startswith("{\n  ")  # pretty-printed
        else:
            assert dot.read_text().count("--") == 6  # Q8's six edges
        assert parse(out)["result"] == parse(plain)["result"]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_is_accepted(self, command):
        argv = [command] if command in ("verify", "corpus") else [command, "S4"]
        args = cli.make_parser().parse_args(argv)
        assert args.command == command
        assert args.spec == (None if len(argv) == 1 else "S4")

    def test_cap_exceeded_exits_3(self, capsys):
        code, out, err = run(capsys, "--cap", "10", "gamma", "S4")
        assert code == 3
        assert "budget" in err


def test_sum_of_a5_does_not_import_numpy_ma():
    # the derived series dedupes commutators through a mask, not np.unique,
    # which loads numpy.ma; a fresh process shows what a command imports
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from groupdom import cli; cli.main(['sum', 'A5']); "
            "sys.exit(3 * ('numpy.ma' in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_runs_one_blas_thread_unless_the_caller_sets_it():
    # the CLI sets OPENBLAS_NUM_THREADS before numpy loads, and only when it
    # is unset; the thread count changes no document
    src = Path(__file__).resolve().parent.parent / "src"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(src)
    code = "import os, groupdom.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    docs = []
    for preset, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        env = dict(base, **preset)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected
        done = subprocess.run([sys.executable, "-m", "groupdom.cli", "gamma", "S4"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        del doc["timing_ms"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["result"]["gamma"] == 4


def _argv(command, *flags):
    """``command`` on S4, or on the corpus up to order 4 for the two
    commands that take no spec."""
    if command in ("verify", "corpus"):
        return [*flags, "--order-max", "4", command]
    return [*flags, command, "S4"]


class TestEnvelope:
    """Every command prints one document, through one ``_emit`` call, or
    nothing at all."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        calls = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda *a, **k: calls.append(a) or emit(*a, **k))
        return calls

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_one_document_names_its_command_and_group(self, capsys, emitted, command):
        code, out, err = run(capsys, *_argv(command))
        assert (code, err, len(emitted)) == (0, "", 1)
        doc = parse(out)
        assert doc["command"] == command
        assert doc["group"] == (None if command in ("verify", "corpus") else "S4")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_a_bad_spec_prints_nothing(self, capsys, emitted, command):
        if command in ("verify", "corpus"):  # a spec at all is the bad one
            with pytest.raises(SystemExit) as exc:
                main([command, "S4"])
            code = exc.value.code
        else:
            code = main([command, "X9"])
        assert (code, capsys.readouterr().out, emitted) == (2, "", [])

    # ``corpus`` lists pinned entries and reads no deadline
    @pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - {"corpus"}))
    def test_a_zero_budget_prints_nothing(self, capsys, emitted, command):
        code, out, err = run(capsys, *_argv(command, "--budget-ms", "0"))
        assert (code, out, emitted) == (3, "", [])
        assert err.startswith("budget exceeded: ")


class TestDeterminism:
    def test_identical_invocations_match(self, capsys):
        def normalized(argv):
            code, out, _ = run(capsys, *argv)
            doc = json.loads(out)
            doc["timing_ms"] = 0
            return json.dumps(doc, sort_keys=True)

        for argv in [["gamma", "D36"], ["subgroups", "S4"],
                     ["burnside", "S3"], ["complex", "D8"]]:
            assert normalized(argv) == normalized(argv)


class TestViolationExit:
    def test_violation_verdict_exits_1(self, capsys, monkeypatch):
        import groupdom.cli as cli

        def fake_verify_one(label, cap, deadline):
            return {"group": label, "order": 1, "gamma": 1,
                    "reports": [{"theorem": "fake", "verdict": "violation"}],
                    "expected_checks": []}

        monkeypatch.setattr(cli, "_verify_one", fake_verify_one)
        code, out, _ = run(capsys, "--order-max", "2", "verify")
        assert code == 1
        doc = parse(out)
        assert doc["result"]["violations"]
