"""Command-line surface: exit codes and output contracts."""

import hashlib
import json

import pytest

from blobalg import cli
from blobalg import verify as vf


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestDims:
    def test_table(self, capsys):
        rc, out, _ = run(capsys, "dims", "--k", "5")
        assert rc == 0
        assert "k=5: 1428" in out
        assert "k=1: 5" in out

    def test_usage_error(self, capsys):
        # k < 1 is refused by the argument parser, k above --max-k by the command
        with pytest.raises(SystemExit) as exc:
            cli.main(["dims", "--k", "0"])
        assert exc.value.code == 2 and "error" in capsys.readouterr().err
        rc, _, err = run(capsys, "dims", "--k", "7")
        assert rc == 2 and "error" in err
        # blob_dim adds the grade-0 and grade-1 counts, so both must exist
        rc, out, err = run(capsys, "dims", "--k", "3", "--bound", "0")
        assert rc == 2 and "--bound" in err and not out


class TestBasisAndMul:
    def test_basis_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "basis", "--k", "1", "--grades", "0,1")
        assert rc == 0
        assert len(json.loads(out)) == 5

    def test_mul(self, capsys):
        rc, out, _ = run(capsys, "mul", "--k", "2", "T0", "T0^-1")
        assert rc == 0
        blob = json.loads(out)
        assert blob["terms"][0]["diagram"]["pairs"] == [["T1", "B1"], ["T2", "B2"]]

    def test_element_json_of_another_k_is_usage_error(self, capsys):
        element = run(capsys, "mul", "--k", "2", "T1", "T1")[1].strip()
        rc, out, _ = run(capsys, "mul", "--k", "2", element, element)
        assert rc == 0 and json.loads(out)["k"] == 2
        for argv in ([element, element], ["T0", element]):
            rc, out, err = run(capsys, "mul", "--k", "1", *argv)
            assert rc == 2 and "k=2" in err and "--k is 1" in err and not out, argv


class TestVerify:
    def test_theorem3(self, capsys):
        rc, out, _ = run(capsys, "verify", "theorem3", "--k", "4")
        assert rc == 0 and "result: pass" in out

    def test_theorem3_k6(self, capsys):
        rc, out, _ = run(capsys, "verify", "theorem3", "--k", "6")
        assert rc == 0 and "result: pass" in out

    def test_relations_past_k6(self, capsys):
        # the relation sheet has no k limit
        for k in ("7", "40"):
            rc, out, _ = run(capsys, "verify", "relations", "--k", k)
            assert rc == 0 and "result: pass" in out, k

    def test_presentation_seeded(self, capsys):
        rc, out, _ = run(capsys, "--json", "verify", "presentation", "--k", "1")
        assert rc == 0
        blob = json.loads(out)
        assert blob["passed"] and blob["seed"] == 0
        # k = 1 is checked exactly: no trials ran, and --trials is refused
        assert blob["mode"] == "exact" and blob["trials"] == 0
        assert blob["primes"] and not any(blob["primes"].values())
        rc, out, err = run(capsys, "--json", "verify", "presentation", "--k", "1",
                           "--trials", "2")
        assert rc == 2 and "--trials" in err and not out

    def test_exact_check_refuses_trials_and_seed(self, capsys):
        # a presentation at k <= 2 is checked exactly, which reads neither
        # option; at k = 3 both are read
        module = ["module", "--J", "", "--r1", "3/2", "--r2", "11/2", "--c"]
        for argv, option in (
                (["verify", "presentation", "--k", "2", "--trials", "3"], "--trials"),
                (["verify", "presentation", "--k", "2", "--seed", "5"], "--seed"),
                (["--seed", "5", "verify", "presentation", "--k", "1"], "--seed"),
                (module + ["7/2,9/2", "--trials", "2"], "--trials"),
                (module + ["7/2", "--seed", "4"], "--seed"),
                (["--seed", "4"] + module + ["7/2,9/2"], "--seed")):
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and option in err and "exactly" in err and not out, argv
        rc, out, _ = run(capsys, "--json", "verify", "presentation", "--k", "3",
                         "--trials", "2", "--seed", "5")
        assert rc == 0 and (json.loads(out)["trials"], json.loads(out)["seed"]) == (2, 5)

    def test_presentation_primes_are_pinned(self, capsys):
        # the trial primes of every module at k = 5, and the points each
        # module's check discarded, as drawn with the twelve-base primality
        # test and each entry lifted on its own: a faster primality test or
        # lift must not move them
        from blobalg import calib as cb
        from blobalg import schurweyl as sw
        rc, out, _ = run(capsys, "--json", "verify", "presentation", "--k", "5",
                         "--trials", "10")
        assert rc == 0
        p63 = sw.SWParams(6, 3)
        discarded = {}
        for (_l1, l) in sw.level_nodes(p63, 5):
            if not sw.zero_multiplicity(p63, 5, l):
                m = sw.module_for(p63, 5, l)
                rep = cb.check_presentation(m, trials=10, seed=0)
                discarded["l=%d(dim %d)" % (l, m.n)] = rep["discarded"]
        text = json.dumps({"primes": json.loads(out)["primes"], "discarded": discarded},
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "70ce56537951c5e9879f40cc371aa6290890bcceba22e55ca18bd3f5b10cf40e"
        assert json.loads(out)["discarded"] == discarded

    def test_presentation_k6(self, capsys):
        # every module at k = 6, the two 56-dimensional ones included
        rc, out, _ = run(capsys, "--json", "verify", "presentation", "--k", "6",
                         "--trials", "10")
        assert rc == 0
        blob = json.loads(out)
        assert blob["passed"] and blob["mode"] == "modular" and blob["trials"] == 10
        assert len(blob["checks"]) == 8 and all(blob["checks"].values())
        assert sum("(dim 56)" in name for name in blob["checks"]) == 2
        assert all(len(primes) == 10 for primes in blob["primes"].values())

    def test_presentation_text_states_what_ran(self, capsys):
        rc, out, _ = run(capsys, "verify", "presentation", "--k", "3",
                         "--trials", "2", "--seed", "7")
        assert rc == 0
        lines = out.splitlines()
        assert lines[1] == "mode: modular  trials: 2  seed: 7"
        primes = [line.split()[1:] for line in lines if "primes:" in line]
        assert len(primes) == 7 and all(len(ps) == 2 for ps in primes)
        reduced = [line.split()[1:] for line in lines if "reduced:" in line]
        assert reduced == [["H:Tk", "ext:TkT1", "ext:TkT0", "ext:W1word"]] * 7
        rc, out, _ = run(capsys, "verify", "presentation", "--k", "2")
        assert rc == 0
        assert out.splitlines()[1] == "mode: exact  trials: 0  seed: 0"
        assert "primes:" not in out
        assert out.count("    reduced: H:Tk ext:T1TkT1Tk ext:TkT0 ext:W1word\n") == 6

    def test_empty_chart_is_usage_error(self, capsys):
        # a bound below every skew region leaves no check to pass
        for argv in (["figure1", "--bound-diag", "-1"],
                     ["--json", "verify", "classification", "--k", "2", "--bound-diag", "1"]):
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and "no skew region" in err and not out, argv
        assert vf._report("empty", {})["passed"] is False

    def test_presentation_zero_trials_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "verify", "presentation", "--k", "3",
                           "--trials", "0")
        assert rc == 2 and "trials" in err and "pass" not in out

    def test_other_suites_options_are_usage_errors(self, capsys):
        for argv, option in (
                (["theorem3", "--trials", "5"], "--trials"),
                (["relations", "--r1", "1"], "--r1"),
                (["classification", "--bound-diag", "3", "--trials", "9"], "--trials"),
                (["presentation", "--r2", "3"], "--r2"),
                (["presentation", "--bound-diag", "3"], "--bound-diag")):
            rc, out, err = run(capsys, "verify", *argv, "--k", "2")
            assert rc == 2 and option in err and not out, argv
        # no suite reads --max-k
        for suite in ("classification", "theorem3"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", suite, "--max-k", "9", "--k", "2"])
            out = capsys.readouterr()
            assert exc.value.code == 2 and "--max-k" in out.err and not out.out, suite

    def test_seed_where_nothing_reads_it_is_usage_error(self, capsys):
        for argv in (["verify", "theorem3", "--k", "2", "--seed", "5"],
                     ["--seed", "5", "verify", "classification", "--k", "2"],
                     ["--seed", "5", "figure1"],
                     ["dims", "--k", "3", "--seed", "4"],
                     ["--seed", "4", "basis", "--k", "1"]):
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and "--seed" in err and not out, argv

    def test_seed_before_or_after_the_subcommand(self, capsys):
        for argv in (["--seed", "3", "verify", "presentation"],
                     ["verify", "presentation", "--seed", "3"]):
            rc, out, _ = run(capsys, "--json", *argv, "--k", "3", "--trials", "2")
            assert rc == 0 and json.loads(out)["seed"] == 3, argv
        module = ["module", "--c", "7/2,9/2,11/2", "--J", "", "--r1", "3/2",
                  "--r2", "11/2", "--trials", "2"]
        for argv in (["--seed", "6"] + module, module + ["--seed", "6"], module):
            rc, out, _ = run(capsys, *argv)
            seed = json.loads(out)["presentation"]["seed"]
            assert rc == 0 and seed == (6 if "--seed" in argv else 0), argv

    def test_suite_options_and_defaults(self, capsys):
        rc, out, _ = run(capsys, "--json", "verify", "classification", "--k", "2",
                         "--r1", "1", "--r2", "4", "--bound-diag", "5")
        blob = json.loads(out)
        assert rc == 0 and blob["passed"] and len(blob["checks"]) == 40
        # omitted, the chart is (3/2, 11/2) at diagonal bound 7
        rc, out, _ = run(capsys, "--json", "verify", "classification", "--k", "2")
        blob = json.loads(out)
        assert rc == 0 and blob["passed"] and len(blob["checks"]) == 71
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "relations", "--k", "3", "--max-k", "2"])
        assert exc.value.code == 2 and "--max-k" in capsys.readouterr().err
        rc, out, _ = run(capsys, "--json", "verify", "presentation", "--k", "3")
        assert rc == 0 and json.loads(out)["trials"] == 10


class TestRegionAndModule:
    def test_region_report(self, capsys):
        rc, out, _ = run(capsys, "--json", "region", "--c", "7/2,9/2,11/2",
                         "--J", "", "--r1", "3/2", "--r2", "11/2")
        assert rc == 0
        blob = json.loads(out)
        assert blob["skew"] and blob["tl_shape"]
        assert len(blob["fillings"]) == 7

    def test_region_lists_fillings_once(self, capsys, monkeypatch):
        # the report's listing, skew test and vanishing conditions share
        # one walk over the configuration's fillings
        from blobalg import regions as rg
        listed = []
        walk = rg._ideal_walk
        monkeypatch.setattr(rg, "_ideal_walk",
                            lambda config: listed.append(config) or walk(config))
        rg._fillings.cache_clear()
        rc, out, _ = run(capsys, "--json", "region", "--c", "7/2,9/2,11/2",
                         "--J", "", "--r1", "3/2", "--r2", "11/2")
        assert rc == 0 and len(listed) == 1
        assert json.loads(out)["vanishing"]["fillings"] == 7

    def test_module_report(self, capsys):
        rc, out, _ = run(capsys, "module", "--c", "7/2,9/2", "--J", "",
                         "--r1", "3/2", "--r2", "11/2")
        assert rc == 0
        blob = json.loads(out)
        pres = blob["presentation"]
        assert pres["passed"] and pres["witness"] is None
        assert pres["mode"] == "exact" and pres["primes"] == []
        assert blob["nullity"]["is_tl_module"]
        rc, out, _ = run(capsys, "module", "--c", "7/2,9/2,11/2", "--J", "",
                         "--r1", "3/2", "--r2", "11/2", "--trials", "3",
                         "--seed", "4")
        assert rc == 0
        pres = json.loads(out)["presentation"]
        assert pres["mode"] == "modular" and pres["passed"]
        assert (pres["trials"], pres["seed"], len(pres["primes"])) == (3, 4, 3)

    def test_module_b_verified(self, capsys, monkeypatch):
        from blobalg import calib as cb
        argv = ("module", "--c", "7/2,9/2,11/2", "--J", "", "--r1", "3/2",
                "--r2", "11/2", "--trials", "2")
        # b is computed from the central character already reported
        calls = []
        central_character = cb.central_character
        monkeypatch.setattr(cb, "central_character",
                            lambda m: calls.append(m) or central_character(m))
        rc, out, _ = run(capsys, *argv)
        blob = json.loads(out)
        assert rc == 0 and blob["b_verified"] is True and blob["b"] is not None
        assert len(calls) == 1
        # a b that fails I1 I2 I1 = b I1 is a failed check
        b_constant = cb.b_constant
        monkeypatch.setattr(cb, "b_constant",
                            lambda m, *rest: {**b_constant(m, *rest), "verified": False})
        rc, out, _ = run(capsys, *argv)
        assert rc == cli.CHECK_FAILED and json.loads(out)["b_verified"] is False

    def test_module_symmetrizable(self, capsys, monkeypatch):
        argv = ("module", "--c", "7/2,9/2,11/2", "--J", "", "--r1", "3/2",
                "--r2", "11/2", "--trials", "2")
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and json.loads(out)["symmetrizable"] is True
        # the field is symmetric_form's verdict on the module
        from blobalg import calib as cb
        monkeypatch.setattr(cb, "symmetric_form", lambda m: None)
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and json.loads(out)["symmetrizable"] is False

    def test_module_matrices(self, capsys):
        # the dense grid of the sparse generators, zero entries included;
        # the digest was recorded when the matrices were stored dense
        rc, out, _ = run(capsys, "module", "--c", "7/2,9/2,11/2", "--J", "",
                         "--r1", "3/2", "--r2", "11/2", "--trials", "2",
                         "--matrices")
        assert rc == 0
        blob = json.loads(out)
        mats = blob["matrices"]
        assert blob["dim"] == 7 and sorted(mats) == ["T0", "T1", "T2", "W"]
        assert "0" in mats["T1"][0]
        text = json.dumps(mats, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == \
            "172246958f94384595fb3cd99654790d31354a938521b077b53ad66290a6a095"

    def test_decimal_r_values(self, capsys):
        rc, out, _ = run(capsys, "--json", "region", "--c", "1,2",
                         "--J", "", "--r1", "1.5", "--r2", "5.5")
        assert rc == 0


class TestSchurWeyl:
    def test_dims_table(self, capsys):
        rc, out, _ = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "3",
                         "--dims")
        assert rc == 0
        blob = json.loads(out)
        row = [r for r in blob["dims"] if r["l"] == 2][0]
        assert row["dim_formula"] == 7 == row["dim_paths"] == row["dim_fillings"]
        assert blob["dim_sum_ok"]

    def test_dot(self, capsys, tmp_path):
        out_path = tmp_path / "graph.dot"
        rc, _, _ = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "9",
                       "--dot", "--out", str(out_path))
        assert rc == 0
        text = out_path.read_text()
        assert text.startswith("digraph") and '"9:' in text

    def test_dot_with_tables(self, capsys, tmp_path):
        # the graph goes to --out, the tables to standard output
        out_path = tmp_path / "graph.dot"
        rc, out, _ = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "2",
                         "--dot", "--bvalues", "--out", str(out_path))
        assert rc == 0 and out_path.read_text().startswith("digraph")
        assert json.loads(out)["b_values"]

    def test_ignored_options_are_usage_errors(self, capsys, tmp_path):
        out_path = tmp_path / "x.dot"
        for extra in (["--dot", "--bvalues"], ["--dot", "--dims"],
                      ["--bvalues", "--out", str(out_path)], ["--out", str(out_path)]):
            rc, out, err = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "2",
                               *extra)
            assert rc == 2 and "--out" in err and not out, extra
        assert not out_path.exists()

    def test_hypothesis_violation(self, capsys):
        rc, _, err = run(capsys, "schurweyl", "--a", "4", "--b", "3")
        assert rc == 2 and "a > b + 2" in err

    def test_a_not_above_b_plus_two(self, capsys):
        # names the given a and b and the condition that failed, not b = 0
        rc, out, err = run(capsys, "schurweyl", "--a", "3", "--b", "3")
        assert rc == 2 and not out
        assert "a > b + 2 >= 3" in err and "a = 3 is not above b + 2 = 5" in err
        assert "given a = 3, b = 3" in err and "b = 0" not in err

    def test_b_zero_is_a_usage_error(self, capsys):
        for extra in ([], ["--dot"]):
            rc, out, err = run(capsys, "schurweyl", "--a", "3", "--b", "0", "--k", "2",
                               *extra)
            assert rc == 2 and "a > b + 2" in err and "b = 0" in err and not out, extra


class TestExitCodes:
    def usage_exit(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        return exc.value.code, capsys.readouterr().err

    def test_bad_rational_is_usage_error(self, capsys):
        code, err = self.usage_exit(capsys, "region", "--c", "1,2", "--r1", "abc",
                                    "--r2", "11/2")
        assert code == 2 and "--r1" in err
        code, err = self.usage_exit(capsys, "region", "--c", "1,x", "--r1", "3/2",
                                    "--r2", "11/2")
        assert code == 2 and "--c" in err

    def test_bad_grades_is_usage_error(self, capsys):
        code, err = self.usage_exit(capsys, "basis", "--k", "2", "--grades", "0,x")
        assert code == 2 and "--grades" in err

    def test_bad_root_and_scalar_are_usage_errors(self, capsys):
        rc, _, err = run(capsys, "region", "--c", "1,2", "--J", "e2,ex",
                         "--r1", "3/2", "--r2", "11/2")
        assert rc == 2 and "ex" in err
        rc, out, err = run(capsys, "region", "--c", "1/2,3/2", "--r1", "3/2",
                           "--r2", "11/2", "--J", "x2")
        assert rc == 2 and "x2" in err and not out
        for text in ("qint(", "bb(t,x)"):
            rc, _, err = run(capsys, "mul", "--k", "2", text, "T0")
            assert rc == 2 and "error" in err
        rc, _, err = run(capsys, "mul", "--k", "2", "{bad", "T0")
        assert rc == 2 and "JSON" in err
        # a denominator outside the scalar domain, and element JSON of the wrong shape
        term = {"coeff": 1, "diagram": {"k": 1, "L": 0, "R": 0, "pairs": [["T1", "B1"]]}}
        wrong_row = dict(term, coeff={"num": [[1, 0, 0]], "den": [[1, 0, 0, 0, 0, 0, 0]]})
        # u*1 written twice is refused, not read as 2u*1 or u*1, and so is a
        # coefficient with one exponent vector in two rows
        u_term = dict(term, coeff={"num": [[1, 0, 1, 0, 0, 0, 0]],
                                   "den": [[1, 0, 0, 0, 0, 0, 0]]})
        row_twice = dict(term, coeff={"num": [[1, 0, 1, 0, 0, 0, 0]] * 2,
                                      "den": [[1, 0, 0, 0, 0, 0, 0]]})
        # integers past Python's int-to-text digit limit: a coefficient of
        # element JSON that cannot be read, products that cannot be printed
        big = json.dumps({"k": 1, "terms": [u_term]}).replace(
            '"num": [[1, 0, 1', '"num": [[%s, 0, 1' % ("1" * 5000))
        for text, why in (("(1/(u-3))*T0", "cyclotomic"), ("(1/0)*T0", "division by zero"),
                          ('{"k":1}', "'terms'"),
                          (json.dumps({"k": 1, "terms": [term]}), "'coeff'"),
                          (json.dumps({"k": 1, "terms": [wrong_row]}), "scalar JSON"),
                          (json.dumps({"k": 1, "terms": [u_term, u_term]}),
                           "repeats the diagram"),
                          (json.dumps({"k": 1, "terms": [row_twice]}),
                           "repeats the exponents"),
                          (big, "bad element JSON"), ("10^3000*10^3000", "cannot print"),
                          ("2^20000", "cannot print")):
            rc, out, err = run(capsys, "mul", "--k", "1", text, "T0")
            assert rc == 2 and why in err and not out, text

    def test_out_of_range_k_is_usage_error(self, capsys):
        for argv in (["verify", "presentation", "--k", "0"],
                     ["verify", "theorem3", "--k", "0"],
                     ["verify", "classification", "--k", "0"],
                     ["mul", "--k", "0", "T0", "T0"], ["mul", "--k", "-1", "T0", "T0"],
                     ["basis", "--k", "0"], ["dims", "--k", "x"],
                     ["schurweyl", "--a", "6", "--b", "3", "--k", "-1"]):
            code, err = self.usage_exit(capsys, *argv)
            assert code == 2 and "--k" in err, argv
        # level 0 has a dimension table but no modules
        rc, out, _ = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "0")
        assert rc == 0 and json.loads(out)["dim_sum_ok"]
        rc, out, err = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "0",
                           "--bvalues")
        assert rc == 2 and "k >= 1" in err and not out

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        # a missing directory, and a path that is a directory: the OS message
        # names the path, and nothing is printed
        for path, why in ((tmp_path / "missing" / "x.dot", "No such file"),
                          (tmp_path, "Is a directory")):
            for extra in ((), ("--dims",)):
                rc, out, err = run(capsys, "schurweyl", "--a", "6", "--b", "3", "--k", "2",
                                   "--dot", "--out", str(path), *extra)
                assert rc == 2 and why in err and str(path) in err and not out, extra

    def test_suites_below_k2_are_usage_errors(self, capsys):
        for suite in ("relations", "theorem3"):
            rc, out, err = run(capsys, "verify", suite, "--k", "1")
            assert rc == 2 and "--k" in err and not out, suite
        rc, out, err = run(capsys, "mul", "--k", "1", "Dodd", "T0")
        assert rc == 2 and "Dodd" in err and not out
        rc, out, err = run(capsys, "mul", "--k", "2", "T2", "E1")
        assert rc == 2 and "T2 out of range" in err and not out

    def test_bad_expressions_are_usage_errors(self, capsys):
        deep = "-" * 10000 + "T1"
        for text, why in (("qint(", "never closed"), ("bb(t,x)", "'x'"),
                          ("(1/0)*T0", "division by zero"),
                          ("(1/(u-3))*T0", "cyclotomic"), ("E1^-1", "invertible"),
                          ("T1 T2", "syntax"), ("1.5*T1", "'1.5'"), ("u.num", "u.num"),
                          ("__import__('os')", "__import__"), ("T5", "T5"),
                          (deep, "nested")):
            rc, out, err = run(capsys, "mul", "--k", "3", "--", text, "T0")
            assert rc == 2 and why in err and not out, text[:50]
            assert len(err) < 200
        rc, out, _ = run(capsys, "mul", "--k", "4", "--", "-(T1+T2)*T3", "E1")
        assert rc == 0 and json.loads(out)["terms"]

    def test_internal_fault_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "cmd_dims", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["dims", "--k", "1"])
        # mul catches a ValueError only from reading JSON and printing
        monkeypatch.setattr(cli.dg, "element_to_json", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["mul", "--k", "1", "T0", "T0"])
