import hashlib
import json
import sys

import pytest

import csdepth.configuration
import csdepth.depth
from csdepth import (
    Configuration,
    configuration_to_json_dict,
    find_cross_position,
    generate_witnesses,
    random_configuration,
)
import csdepth.cli
from csdepth.cli import main
from csdepth.errors import ViolationError

from helpers import interior_example_d5, symmetric_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_config(tmp_path, capsys, d=2, seed=7):
    code, out, _ = run_cli(capsys, "gen", "-d", str(d), "--seed", str(seed))
    assert code == 0
    path = tmp_path / "config.json"
    path.write_text(out)
    return path


class TestGen:
    def test_emits_manifest_and_config(self, capsys):
        doc = run_json(capsys, "gen", "-d", "2", "--seed", "3")
        assert doc["manifest"]["command"] == "gen"
        assert doc["manifest"]["seed"] == 3
        assert doc["result"]["d"] == 2
        assert len(doc["result"]["colours"]) == 3

    def test_digest_matches_result(self, capsys):
        doc = run_json(capsys, "gen", "-d", "2", "--seed", "3")
        payload = json.dumps(doc["result"], separators=(",", ":")).encode()
        assert doc["manifest"]["output_digest"] == \
            "sha256:" + hashlib.sha256(payload).hexdigest()

    def test_dimension_6_exits_2_before_sampling(self, capsys, monkeypatch):
        import csdepth.search
        calls = []
        monkeypatch.setattr(csdepth.search, "_sample_point", lambda *a: calls.append(a))
        monkeypatch.setattr(csdepth.search, "validate", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "gen", "-d", "6")
        assert code == 2
        assert out == ""
        assert "validation in dimension 6 needs allow_high_dimension=True" in err
        assert calls == []


class TestDepth:
    def test_pipeline_from_gen(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        doc = run_json(capsys, "depth", str(path))
        assert doc["result"]["depth"] == len(doc["result"]["witnesses"])
        assert doc["result"]["depth"] >= 4

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = run_cli(capsys, "depth", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "depth", "/nonexistent/x.json")
        assert code == 2

    def test_directory_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "depth", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"d": 1, "colours": "\xe9"}')
        code, out, err = run_cli(capsys, "depth", str(bad))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_overlong_coordinate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"d": 1, "colours": [[["1" + "0" * 5000], ["-1"]],
                                                        [["1"], ["-1"]]]}))
        code, out, err = run_cli(capsys, "depth", str(path))
        assert code == 2
        assert err.startswith("error: colours[0][0]:")
        assert out == ""

    def test_boolean_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"d": True, "colours": [[["1"], ["-1"]],
                                                           [["1"], ["-1"]]]}))
        code, out, err = run_cli(capsys, "depth", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


class TestDDepth:
    def test_happy_path(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        doc = run_json(capsys, "ddepth", str(path),
                       "--colours", "0,1", "--dir", "1,-1/2")
        assert doc["result"]["d_depth"] >= 0
        assert doc["result"]["direction"] == ["1", "-1/2"]

    def test_origin_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        code, _, err = run_cli(capsys, "ddepth", str(path),
                               "--colours", "0,1", "--dir", "0,0")
        assert code == 2

    def test_bad_colours_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        code, _, _ = run_cli(capsys, "ddepth", str(path),
                             "--colours", "0", "--dir", "1,1")
        assert code == 2
        code, _, _ = run_cli(capsys, "ddepth", str(path),
                             "--colours", "a,b", "--dir", "1,1")
        assert code == 2


class TestCross:
    def test_found_on_low_depth_config(self, tmp_path, capsys):
        # seed 7 generates a depth-5 configuration (checked in test_depth)
        path = write_config(tmp_path, capsys, seed=7)
        doc = run_json(capsys, "cross", str(path), "--colours", "0,1")
        assert doc["result"]["found"] is True
        assert doc["result"]["certificate"]["covered"] is True

    def test_failure_is_exit_zero(self, tmp_path, capsys):
        sym = {"d": 2, "colours": [
            [["1", "0"], ["0", "1"], ["-1", "-1"]]] * 3}
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(sym))
        doc = run_json(capsys, "cross", str(path), "--colours", "0,1")
        assert doc["result"]["found"] is False
        assert doc["result"]["min_d_depth"] >= 2


class TestCrossCheck:
    def test_covered_pairs(self, tmp_path, capsys):
        pairs = {"d": 2, "colours": [[["1", "0"], ["-1", "0"]],
                                     [["0", "1"], ["0", "-1"]]]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        doc = run_json(capsys, "cross-check", str(path))
        assert doc["result"]["covered"] is True

    def test_boolean_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"d": True, "colours": [[["1"], ["-1"]]]}))
        code, out, err = run_cli(capsys, "cross-check", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_uncovered_pairs(self, tmp_path, capsys):
        pairs = {"d": 2, "colours": [[["1", "0"], ["1", "1"]],
                                     [["2", "1"], ["3", "-1"]]]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        doc = run_json(capsys, "cross-check", str(path))
        assert doc["result"]["covered"] is False
        assert "uncovered_direction" in doc["result"]

    def test_dimension_12_exits_2_before_any_cone(self, tmp_path, capsys, monkeypatch):
        import csdepth.crosspos
        monkeypatch.setattr(csdepth.crosspos, "ConeSpec", _fail_if_called("a cone"))
        # the cross-polytope: the pair +e_i, -e_i for each colour i
        colours = [[[str(s * (k == i)) for k in range(12)] for s in (1, -1)] for i in range(12)]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"d": 12, "colours": colours}))
        code, out, err = run_cli(capsys, "cross-check", str(path))
        assert code == 2
        assert out == ""
        assert "exact coverage in dimension 12 needs allow_high_dimension=True" in err


class TestWitness:
    def test_meets_bound(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        doc = run_json(capsys, "witness", str(path))
        assert doc["result"]["count"] >= doc["result"]["bound"]
        assert len(doc["result"]["simplices"]) == doc["result"]["count"]


class TestBeyondCoverage:
    """Beyond the coverage limit no cross position can be certified:
    `witness` enumerates instead of stopping on the refusal, and `cross` is
    refused before any cone."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "d5.json"
        path.write_text(json.dumps(configuration_to_json_dict(interior_example_d5())))
        return path

    def test_witness_exits_0(self, capsys, path):
        doc = run_json(capsys, "witness", str(path))
        assert doc["result"]["count"] == 7446
        assert [s["colour"] for s in doc["result"]["stage_log"]] == [-1]

    def test_cross_on_a_generated_configuration_exits_2_before_any_cone(
            self, tmp_path, capsys, monkeypatch):
        import csdepth.crosspos
        path = write_config(tmp_path, capsys, d=5, seed=1)
        monkeypatch.setattr(csdepth.crosspos, "_ConeFamily", _fail_if_called("a cone table"))
        code, out, err = run_cli(capsys, "cross", str(path), "--colours", "1,2,3,4,5")
        assert code == 2
        assert out == ""
        assert err == ("error: exact coverage in dimension 5 needs allow_high_dimension=True "
                       "(cell counts grow combinatorially: expect millions of cells and "
                       "hours of work beyond dimension 4)\n")


class TestSearch:
    def test_small_run(self, capsys):
        doc = run_json(capsys, "search", "-d", "2", "--restarts", "2",
                       "--steps", "50", "--seed", "1")
        assert doc["result"]["best_depth"] >= 4
        assert doc["result"]["comparison"]["conjecture"] == 5

    def test_best_config_feeds_back(self, tmp_path, capsys):
        doc = run_json(capsys, "search", "-d", "2", "--restarts", "2",
                       "--steps", "50", "--seed", "1")
        config_path = tmp_path / "best.json"
        config_path.write_text(json.dumps(doc["result"]["best_config"]))
        depth_doc = run_json(capsys, "depth", str(config_path))
        assert depth_doc["result"]["depth"] == doc["result"]["best_depth"]


class TestVerify:
    def test_passes_on_generated_config(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        doc = run_json(capsys, "verify", str(path))
        assert doc["result"]["passed"] is True
        names = [c["name"] for c in doc["result"]["checks"]]
        assert "antipodal_equivalence" in names
        assert "depth_lower_bounds" in names

    def test_degenerate_config_still_verifies(self, tmp_path, capsys):
        sym = {"d": 2, "colours": [
            [["1", "0"], ["0", "1"], ["-1", "-1"]]] * 3}
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(sym))
        doc = run_json(capsys, "verify", str(path))
        assert doc["result"]["passed"] is True

    def test_one_minor_table_per_verify(self, tmp_path, capsys, monkeypatch):
        # at d = 4 the staged witnesses fail at stage 0 and fall back to the
        # enumeration, which reads the depth report of depth_lower_bounds
        import csdepth.witness

        path = write_config(tmp_path, capsys, d=4, seed=1)
        depths, tables = [], []
        table = csdepth.depth._MinorTable
        monkeypatch.setattr(csdepth.depth, "_MinorTable",
                            lambda *args: tables.append(args) or table(*args))
        for module in (csdepth.cli, csdepth.witness):
            depth = module.colourful_depth
            monkeypatch.setattr(module, "colourful_depth",
                                lambda config, f=depth: depths.append(config) or f(config))
        doc = run_json(capsys, "verify", str(path))
        assert doc["result"]["passed"] is True
        assert len(depths) == 2 and len(tables) == 1

    def _depth_check(self, capsys, path):
        code, out, _ = run_cli(capsys, "verify", str(path))
        doc = json.loads(out)
        check = next(c for c in doc["result"]["checks"] if c["name"] == "depth_lower_bounds")
        return code, doc["result"]["passed"], check

    def test_literature_range_in_detail(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        code, passed, check = self._depth_check(capsys, path)
        assert code == 0 and passed and check["passed"]
        assert check["detail"].endswith("; general position: minimum 5, maximum 9")

    def test_planted_depths_outside_literature_range_fail(self, tmp_path, capsys,
                                                          monkeypatch):
        # d = 2: depth 4 meets floor((d+2)^2/4) = 4 and 2d = 4 but not the
        # general-position minimum d^2+1 = 5; depth 10 exceeds d^(d+1)+1 = 9
        import csdepth.cli as cli_mod
        from csdepth.depth import DepthReport

        path = write_config(tmp_path, capsys)
        for planted in (4, 10):
            monkeypatch.setattr(cli_mod, "colourful_depth",
                                lambda config, k=planted: DepthReport(k, ()))
            code, passed, check = self._depth_check(capsys, path)
            assert code == 1 and not passed and not check["passed"]
            assert check["detail"].startswith(f"depth {planted}, bounds 4 and 4;")

    def test_literature_range_skipped_off_general_position(self, tmp_path, capsys):
        sym = {"d": 2, "colours": [
            [["1", "0"], ["0", "1"], ["-1", "-1"]]] * 3}
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(sym))
        code, passed, check = self._depth_check(capsys, path)
        assert code == 0 and passed
        assert "general position" not in check["detail"]


class TestExitCodes:
    def test_violation_branch_exits_1(self, capsys, monkeypatch):
        import csdepth.cli as cli_mod

        real_build = cli_mod.build_parser

        def fake_build():
            parser = real_build()
            for action in parser._subparsers._group_actions:
                for sub in action.choices.values():
                    sub.set_defaults(func=_raise)
            return parser

        def _raise(args):
            raise ViolationError("synthetic violation", counterexample="{}")

        monkeypatch.setattr(cli_mod, "build_parser", fake_build)
        code = cli_mod.main(["gen", "-d", "2"])
        out = capsys.readouterr()
        assert code == 1
        assert "violation" in out.out


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_config(tmp_path, capsys)
        first = run_cli(capsys, "depth", str(path))
        second = run_cli(capsys, "depth", str(path))
        assert first == second

    @pytest.mark.skipif(sys.implementation.name != "cpython",
                        reason="the builtin sha256 modules are CPython's")
    def test_digest_skips_openssl(self):
        """The digest comes from CPython's lean builtin module (`_sha256`,
        renamed `_sha2` in 3.12), not from `hashlib`'s OpenSSL binding
        `_hashlib`, and equals `hashlib.sha256` on a sample payload."""
        assert csdepth.cli.sha256.__module__ != "_hashlib"
        payload = b'{"depth":7,"witnesses":[]}' * 100
        assert csdepth.cli.sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


def _fail_if_called(what):
    def fail(*args, **kwargs):
        pytest.fail(f"{what} started")
    return fail


class TestHighDimensionRefusal:
    """Every command exits 2 with one `error:` line at the first dimension
    its rule in `errors.DIMENSION_LIMITS` refuses, before any hull test,
    general-position sweep, sample, cone or minor table is started.
    `witness`, `verify`, `search` and `cross` meet the validation limit at
    d = 6 (`cross` checks it first), `cross` the coverage limit at d = 5 and
    `ddepth` the subset-depth limit, which has no override, at d = 6."""

    REFUSALS = {  # (command, first argument): the start of the error line
        ("witness", "d6.json"): "validation in dimension 6 needs allow_high_dimension=True",
        ("cross", "d6.json"): "validation in dimension 6 needs allow_high_dimension=True",
        ("search", "-d"): "validation in dimension 6 needs allow_high_dimension=True",
        ("verify", "d6.json"): "validation in dimension 6 needs allow_high_dimension=True",
        ("cross", "d5.json"): "exact coverage in dimension 5 needs allow_high_dimension=True",
        ("ddepth", "d6.json"): "subset depth in dimension 6 is refused (",
    }

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        import csdepth.crosspos
        import csdepth.search
        cls = [[str(k + 1) if k == i else "1" for k in range(6)] for i in range(7)]
        (tmp_path / "d6.json").write_text(json.dumps({"d": 6, "colours": [cls] * 7}))
        (tmp_path / "d5.json").write_text(
            json.dumps(configuration_to_json_dict(interior_example_d5())))
        monkeypatch.chdir(tmp_path)
        for module, name, what in [
                (csdepth.depth, "origin_in_convex_hull", "a hull test"),
                (csdepth.configuration, "_dependent_subsets", "the general-position sweep"),
                (csdepth.search, "_sample_point", "sampling"),
                (csdepth.depth, "_ConeFamily", "a cone table"),
                (csdepth.crosspos, "_ConeFamily", "a cone table"),
                (csdepth.depth, "_MinorTable", "a minor table")]:
            monkeypatch.setattr(module, name, _fail_if_called(what))

    @pytest.mark.parametrize("argv", [
        ["witness", "d6.json"],
        ["cross", "d6.json", "--colours", "0,1,2,3,4,5"],
        ["search", "-d", "6", "--restarts", "1", "--steps", "1"],
        ["verify", "d6.json"],
        ["cross", "d5.json", "--colours", "1,2,3,4,5"],
        ["ddepth", "d6.json", "--colours", "0,1,2,3,4,5", "--dir", "1,0,0,0,0,0"],
    ])
    def test_exits_2_before_any_work(self, capsys, inputs, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: " + self.REFUSALS[argv[0], argv[1]])
        if argv[0] == "ddepth":  # d_depth takes no override, so offers none
            assert "allow_high_dimension" not in err


class TestDepthRefusal:
    def test_dimension_7_exits_2_before_any_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(csdepth.depth, "_MinorTable", _fail_if_called("a minor table"))
        cls = [[str(k + 1) if k == i else "1" for k in range(7)] for i in range(8)]
        path = tmp_path / "d7.json"
        path.write_text(json.dumps({"d": 7, "colours": [cls] * 8}))
        code, out, err = run_cli(capsys, "depth", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: depth in dimension 7 needs allow_high_dimension=True")
        assert "Traceback" not in err


class TestSweepCallers:
    """Which commands run the general-position sweep: `verify` reports the
    full validation (digests recorded before `witness` and `cross` stopped
    running the sweep), while `witness` and `cross` never start it."""

    def test_witness_and_cross_skip_the_sweep(self, monkeypatch):
        # fresh objects: random_configuration caches its validation
        configs = [Configuration(d, random_configuration(d, seed).colours)
                   for d, seed in ((2, 5), (3, 1))]
        monkeypatch.setattr(csdepth.configuration, "_dependent_subsets",
                            _fail_if_called("the general-position sweep"))
        for config in configs:
            d = config.dimension
            assert len(generate_witnesses(config).simplices) >= (d + 2) ** 2 // 4
            find_cross_position(config, tuple(range(d)))

    @pytest.mark.parametrize("config, digest", [
        (symmetric_example,
         "4bdd0ea08d6bb9ca53ffc853489ae743666389e53a0b04203e0d5b012fdb255a"),
        (lambda: random_configuration(3, 1),
         "3615f68e9d79271f39f7d6d5c46a8fae6525ada477db42babdd6252b817c06c2"),
    ])
    def test_verify_reports_full_validation(self, tmp_path, capsys, monkeypatch,
                                            config, digest):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(configuration_to_json_dict(config())))
        sweeps = []
        sweep = csdepth.configuration._dependent_subsets
        monkeypatch.setattr(csdepth.configuration, "_dependent_subsets",
                            lambda *args: sweeps.append(args) or sweep(*args))
        result = run_json(capsys, "verify", str(path))
        assert result["manifest"]["output_digest"] == "sha256:" + digest
        assert len(sweeps) == 1
        assert result["result"]["checks"][0]["name"] == "validation"
