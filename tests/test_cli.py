import io
import json

import pytest

from copthrottle import cli, families
from copthrottle.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from copthrottle.graphio import to_json
from copthrottle.verify import SUITES, SuiteResult, suite_options


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_path9_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "path", "--param", "n=9")
        assert code == EXIT_OK
        assert "th_c(G) = 4" in out and "th_c_x(G) = 5" in out
        assert "chordal product identity th_c_x = 1 + rad = 5: holds" in out

    def test_m_ell_cop_number(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "m_ell", "--param", "l=1", "--format", "json"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["cop_number"] == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "cycle", "--param", "n=4", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "k,capt_k,th_sum_k,th_prod_k,witness"

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == EXIT_INPUT and "cannot load" in err

    def test_budget_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--family", "grid", "--param", "rows=3",
            "--param", "cols=4", "--budget", "50",
        )
        assert code == EXIT_BUDGET and "budget" in err.lower()

    def test_file_input(self, capsys, tmp_path):
        from copthrottle import families

        path = tmp_path / "g.json"
        path.write_text(to_json(families.cycle(5)))
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == EXIT_OK and "th_c(G) = 3" in out

    def test_dot_prints_the_graph_without_solving(self, capsys):
        # throttling_report(P30) would exceed the default budget at k = 6
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "path", "--param", "n=30", "--format", "dot"
        )
        assert code == EXIT_OK and out.startswith("graph P30 {") and "  28 -- 29;" in out

    def test_byte_identical_reruns(self, capsys):
        args = ("analyze", "--family", "path", "--param", "n=7", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("command", ["analyze", "play"])
    def test_param_without_family_refused(self, capsys, tmp_path, command):
        path = tmp_path / "p3.json"
        path.write_text(to_json(families.path(3)))
        code, out, err = run_cli(capsys, command, "--input", str(path), "--param", "n=9")
        assert code == EXIT_INPUT and out == ""
        assert "--param sets a family parameter; give --family too" in err


class TestGenerate:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--family", "petersen", "--format", "json"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["n"] == 10 and len(obj["edges"]) == 15

    def test_seed_passthrough(self, capsys):
        code, out1, _ = run_cli(
            capsys, "generate", "--family", "random_tree", "--param", "n=9",
            "--seed", "7", "--format", "json",
        )
        code, out2, _ = run_cli(
            capsys, "generate", "--family", "random_tree", "--param", "n=9",
            "--param", "seed=7", "--format", "json",
        )
        assert out1 == out2

    def test_seed_zero_passthrough(self, capsys):
        args = ("generate", "--family", "random_tree", "--param", "n=4")
        code, out1, _ = run_cli(capsys, *args, "--seed", "0")
        assert code == EXIT_OK
        assert out1 == run_cli(capsys, *args, "--param", "seed=0")[1]

    def test_seed_for_a_family_without_one_refused(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--family", "path", "--param", "n=3",
                                 "--seed", "5")
        assert code == EXIT_INPUT and out == ""
        assert "family 'path' takes parameters ('n',), got ['n', 'seed']" in err

    def test_seed_given_twice_refused(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--family", "random_tree", "--param", "n=4",
                                 "--param", "seed=1", "--seed", "2")
        assert code == EXIT_INPUT and out == ""
        assert "give one of --seed and --param seed=" in err

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "path",
                               "--param", "n=3", "--format", "dot")
        assert code == EXIT_OK and out.startswith("graph")

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--list")
        assert code == EXIT_OK and "m_ell(l)" in out

    def test_unknown_family_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "zorp")
        assert code == EXIT_INPUT

    def test_csv_refused_with_usage(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--family", "path", "--param", "n=4", "--format", "csv"
        )
        assert code == EXIT_INPUT
        assert err.startswith("usage: copthrottle generate") and "invalid choice: 'csv'" in err

    def test_options_it_does_not_read_refused(self, capsys):
        for extra in (["--input", "g.json"], ["--budget", "9"]):
            code, _, err = run_cli(capsys, "generate", "--family", "path", "--param", "n=4", *extra)
            assert code == EXIT_INPUT and f"unrecognized arguments: {' '.join(extra)}" in err


class TestVerify:
    def test_passing_suite_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "guard-lemma")
        assert code == EXIT_OK and "[PASS] guard-lemma" in out

    def test_failing_suite_exit_3_with_counterexample(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "chordal-capture", "--count", "80"
        )
        assert code == EXIT_VERIFY
        assert "[FAIL] chordal-capture" in out
        assert "first counterexample graph" in out

    def test_unknown_suite_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == EXIT_INPUT

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lambert", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload[0]["suite"] == "lambert" and payload[0]["failed"] == 0

    def test_m_ell_param_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "m-ell", "--param", "ell=1"
        )
        assert code == EXIT_OK and "[PASS] m-ell" in out

    def test_param_no_suite_reads_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "lambert", "--param", "foo=3", "--input", "/nonexistent.g6"
        )
        assert code == EXIT_INPUT and out == ""
        assert "no selected suite reads --param foo; suites that do: none" in err

    def test_input_outside_outerplanar_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "iq", "--input", "x.g6")
        assert code == EXIT_INPUT and out == ""
        assert "no selected suite reads --input; suites that do: outerplanar" in err

    @pytest.mark.parametrize("suite,flag,value,readers", [
        ("lambert", "--seed", "7", "boundary-corners, certificates, chordal-capture, "
         "corner-sandwich, iq, low-thcx, meirmoon, outerplanar, prod-chordal, prop-bounds, "
         "star-lemma, tree-bound, unicyclic-bound"),
        ("m-ell", "--count", "3", "boundary-corners, certificates, chordal-capture, "
         "corner-sandwich, iq, lambert, low-thcx, meirmoon, outerplanar, prod-chordal, "
         "prop-bounds, star-lemma, tree-bound, unicyclic-bound"),
        ("guard-lemma", "--budget", "5", "certificates, chordal-capture, corner-sandwich, iq, "
         "low-thcx, m-ell, outerplanar, prod-chordal, prop-bounds, star-lemma, tree-bound, "
         "unicyclic-bound"),
    ])
    def test_flag_no_suite_reads_refused(self, capsys, suite, flag, value, readers):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value)
        assert code == EXIT_INPUT and out == ""
        assert f"no selected suite reads {flag}; suites that do: {readers}\n" in err

    def test_param_owned_by_an_option_refused(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "lambert", "--param", "count=3")
        assert code == EXIT_INPUT and "--param count: use --count" in err

    def test_all_suites_take_ell(self, capsys, monkeypatch):
        # `--suite all` accepts an option some suite reads; each suite gets only its own
        calls = {}

        def record(name, **options):
            calls[name] = options
            return SuiteResult(name)

        monkeypatch.setattr(cli, "run_suite", record)
        for spelling in ("ell=5", "l=5"):
            calls.clear()
            assert run_cli(capsys, "verify", "--suite", "all", "--param", spelling)[0] == EXIT_OK
            assert calls == {name: {"ell": 5} if name == "m-ell" else {} for name in SUITES}
        calls.clear()
        assert run_cli(capsys, "verify", "--suite", "all", "--seed", "42")[0] == EXIT_OK
        assert calls == {
            name: {"seed": 42} if "seed" in suite_options(name) else {} for name in SUITES
        }


class TestPlay:
    def test_format_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "play", "--family", "path", "--param", "n=3", "--format", "json"
        )
        assert code == EXIT_INPUT and "unrecognized arguments: --format json" in err

    def test_as_robber_on_p5(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "play", "--family", "path", "--param", "n=5",
            "--cops", "1", "--as", "robber",
            stdin="move 0\nmove 0\n", monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert "cops open at 2" in out
        assert "caught" in out and "after 2 round(s)" in out

    def test_as_cops_on_c4_value_inf(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "play", "--family", "cycle", "--param", "n=4",
            "--cops", "1", "--as", "cops",
            stdin="place 0\nvalue\nquit\n", monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK and "value: inf" in out

    def test_illegal_move_lists_legal(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "play", "--family", "path", "--param", "n=5",
            "--cops", "1", "--as", "robber",
            stdin="move 7\nmove 4\nmove 7\nquit\n", monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert "out of range" in out or "illegal" in out

    def test_hint_shows_optimal(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "play", "--family", "path", "--param", "n=5",
            "--cops", "1", "--as", "robber",
            stdin="move 0\nhint\nmove 0\n", monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK and "optimal robber moves" in out

    def play_c4_cops(self, capsys, monkeypatch, cops, stdin):
        code, out, _ = run_cli(
            capsys, "play", "--family", "cycle", "--param", "n=4",
            "--cops", str(cops), "--as", "cops", stdin=stdin, monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        return out.splitlines()

    def test_team_move_needs_unsorted_pairing(self, capsys, monkeypatch):
        # 0 2 -> 2 3 is legal only as 0->3, 2->2; the sorted pairing 0->2 is not
        lines = self.play_c4_cops(capsys, monkeypatch, 2, "place 0 2\nmove 2 3\nquit\n")
        assert lines[3:] == [
            "round 1: your cops at 0 2; move v1 ... vk> move 2 3",
            "robber moves to 0",
            "round 2: your cops at 2 3; move v1 ... vk> quit",
            "game abandoned after 1 round(s).",
        ]

    def test_illegal_team_move_refused(self, capsys, monkeypatch):
        lines = self.play_c4_cops(capsys, monkeypatch, 2, "place 0 2\nmove 0 0\nquit\n")
        assert lines[3:] == [
            "round 1: your cops at 0 2; move v1 ... vk> move 0 0",
            "illegal team move; each cop may stay or step to a neighbor",
            "your cops: 0 2",
            "round 1: your cops at 0 2; move v1 ... vk> quit",
            "game abandoned after 0 round(s).",
        ]

    def test_cops_on_every_vertex_capture_at_once(self, capsys, monkeypatch):
        lines = self.play_c4_cops(capsys, monkeypatch, 4, "place 0 1 2 3\n")
        assert lines == [
            "Cops and Robbers on C4 (n=4), 4 cop(s); you play the cops.",
            "place your 4 cop(s): place v1 ... vk> place 0 1 2 3",
            "robber starts at 0 (game value 0)",
            "capture! robber caught at 0 after 0 round(s).",
        ]

    def test_superscript_digit_gets_usage_line(self, capsys, monkeypatch):
        # "²".isdigit() is true but int("²") raises
        code, out, _ = run_cli(
            capsys, "play", "--family", "path", "--param", "n=3",
            "--as", "cops", stdin="place ²\nquit\n", monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert out.splitlines() == [
            "Cops and Robbers on P3 (n=3), 1 cop(s); you play the cops.",
            "place your 1 cop(s): place v1 ... vk> place ²",
            "say: place v1 ... v1",
            "place your 1 cop(s): place v1 ... vk> quit",
        ]

    def test_end_of_input_abandons(self, capsys, monkeypatch):
        lines = self.play_c4_cops(capsys, monkeypatch, 2, "place 0 2\nmove 2 3\n")
        assert lines[-2:] == [
            "robber moves to 0",
            "round 2: your cops at 2 3; move v1 ... vk> game abandoned after 1 round(s).",
        ]
