"""Command-line interface: output formats, byte stability and exit codes."""

import hashlib
import json
import math

import pytest

from bohrlab import cli
from bohrlab.montecarlo import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_rp(self, capsys):
        code, out, _ = run(capsys, "radius", "--kind", "rp", "--p", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["radius"] - 1.0 / 3.0) < 1e-9
        assert payload["kind"] == "rp"

    def test_psymmetric(self, capsys):
        code, out, _ = run(capsys, "radius", "--kind", "psymmetric", "--p", "1", "--m", "1")
        assert code == 0
        assert abs(json.loads(out)["radius"] - 1.0 / math.sqrt(2.0)) < 1e-10

    def test_be_harmonic(self, capsys):
        code, out, _ = run(capsys, "radius", "--kind", "be_harmonic", "--p", "1")
        assert code == 0
        assert abs(json.loads(out)["radius"] - 1.0 / math.sqrt(5.0)) < 1e-12

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "radius", "--kind", "psymmetric", "--p", "1")
        assert code == 2
        assert "error" in err.lower()

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "radius", "--kind", "rp", "--p", "3")
        assert code == 2
        assert err.strip()

    def test_mp_lower_near_two(self, capsys):
        code, out, _ = run(capsys, "radius", "--kind", "mp_lower", "--p", "1.9999")
        assert code == 0
        assert 0.999 < json.loads(out)["radius"] < 1.0


class TestEnvelopeCommand:
    def test_header_and_p2_values(self, capsys):
        code, out, _ = run(
            capsys, "envelope", "--p", "2", "--r-start", "0.1", "--r-end", "0.6", "--steps", "4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,value,argmax,exact"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.split(",")[1] == "1"

    def test_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "envelope", "--p", "1", "--r-start", "0.34", "--r-end", "0.7",
            "--steps", "37",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            r_s, value_s, _, exact_s = line.split(",")
            r, value = float(r_s), float(value_s)
            closed = (3.0 - math.sqrt(8.0 * (1.0 - r * r))) / r
            assert abs(value - closed) < 1e-10
            assert exact_s == "true"

    def test_doubled_at_harmonic_radius(self, capsys):
        code, out, _ = run(
            capsys, "envelope", "--p", "1", "--r-start", "0.2", "--r-end", "0.2",
            "--steps", "1", "--doubled",
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[1] == "1"

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "envelope", "--p", "1", "--r-start", "0.5", "--r-end", "0.2", "--steps", "3"
        )
        assert code == 2 and err.strip()
        # a bad exponent is caught before the CSV header is written
        code, out, err = run(
            capsys, "envelope", "--p", "3", "--r-start", "0.1", "--r-end", "0.2", "--steps", "2"
        )
        assert code == 2 and out == "" and err.strip()


class TestVerifyCommand:
    def test_passing_claim_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", "theorem1", "--p", "1", "--r", "0.5",
            "--trials", "50", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert payload["claim_id"] == "theorem1"

    def test_be_emits_two_reports(self, capsys):
        code, out, _ = run(
            capsys, "verify", "be", "--p", "1", "--r", "0.65",
            "--trials", "20", "--seed", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["claim_id"] == "be_analytic"
        assert json.loads(lines[1])["claim_id"] == "be_harmonic"

    def test_unknown_claim_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense", "--seed", "1")
        assert code == 2

    def test_out_of_range_p_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "theorem1", "--p", "3", "--r", "0.5",
            "--trials", "5", "--seed", "1",
        )
        assert code == 2 and err.strip()

    def test_negative_trials_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "theorem1", "--p", "1", "--r", "0.5",
            "--trials", "-5", "--seed", "1",
        )
        assert code == 2 and out == "" and "trial" in err

    def test_missing_seed_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem1", "--p", "1", "--r", "0.5")
        assert code == 2

    def test_failures_map_to_exit_1(self, capsys, monkeypatch):
        fake = VerificationReport(
            claim_id="theorem1", trials=1, failures=1, worst_margin=-1.0, seed=0, params={}
        )
        monkeypatch.setattr(cli.montecarlo, "verify_theorem1", lambda *a, **k: fake)
        code, out, _ = run(
            capsys, "verify", "theorem1", "--p", "1", "--r", "0.5",
            "--trials", "1", "--seed", "0",
        )
        assert code == 1
        assert json.loads(out)["failures"] == 1

    def test_theoremB(self, capsys):
        code, out, _ = run(capsys, "verify", "theoremB", "--p", "1.5", "--seed", "0")
        assert code == 0
        assert json.loads(out)["claim_id"] == "theoremB"


class TestExtremalCommand:
    def test_mobius_attainment_gap(self, capsys):
        from bohrlab import maximize_envelope

        argmax = float(maximize_envelope(1.0, 0.5).argmax)
        code, out, _ = run(
            capsys, "extremal", "--family", "mobius", "--a", repr(argmax),
            "--p", "1", "--r", "0.5", "--order", "400",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["gap"]) < 1e-8
        assert len(payload["coeffs"]) == 401

    def test_be_at_radius_brackets_one(self, capsys):
        a = 1.0 / math.sqrt(2.0)
        code, out, _ = run(
            capsys, "extremal", "--family", "be", "--a", repr(a),
            "--p", "1", "--r", repr(a), "--order", "400",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["powered_sum_lower"] <= 1.0 + 1e-9
        assert payload["powered_sum_upper"] >= 1.0 - 1e-9
        assert abs(payload["envelope_value"] - 1.0) < 1e-12

    def test_psymmetric_at_radius(self, capsys):
        a = math.sqrt(2.0) / 2.0
        r = 1.0 / math.sqrt(2.0)
        code, out, _ = run(
            capsys, "extremal", "--family", "psymmetric", "--a", repr(a), "--m", "1",
            "--p", "1", "--r", repr(r), "--order", "400",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["powered_sum_lower"] - 1.0) < 1e-9
        assert abs(payload["gap"]) < 1e-8

    def test_invalid_parameter_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "extremal", "--family", "mobius", "--a", "1.5", "--r", "0.5"
        )
        assert code == 2

    def test_negative_order_exits_2(self, capsys):
        code, out, err = run(
            capsys, "extremal", "--family", "mobius", "--a", "0.5", "--r", "0.5", "--order", "-5"
        )
        assert code == 2 and out == "" and "order" in err


@pytest.mark.parametrize(
    "target, argv",
    [
        (
            (cli.montecarlo, "verify_theorem1"),
            ("verify", "theorem1", "--p", "1", "--r", "0.5", "--trials", "100000000000", "--seed", "1"),
        ),
        (
            (cli, "mobius_automorphism_coeffs"),
            ("extremal", "--family", "mobius", "--a", "0.5", "--r", "0.5", "--order", "100000000000"),
        ),
    ],
)
@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 745. GiB"), MemoryError()])
def test_out_of_memory_exits_2(capsys, monkeypatch, target, argv, exc):
    # the command is replaced by one that raises, so nothing is allocated: a
    # host that overcommits memory could grant the real allocation
    def oversized(*args, **kwargs):
        raise exc

    monkeypatch.setattr(*target, oversized)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {str(exc) or 'out of memory'}\n"


@pytest.mark.parametrize("size", [2**60, 2**63, 10**20], ids=["2^60", "2^63", "10^20"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "theorem1", "--p", "1", "--r", "0.5", "--seed", "1", "--trials"),
        ("extremal", "--family", "mobius", "--a", "0.5", "--r", "0.5", "--order"),
        ("verify", "theorem1", "--p", "1", "--r", "0.5", "--seed", "1", "--depth"),
        ("envelope", "--p", "1", "--r-start", "0.1", "--r-end", "0.2", "--steps"),
    ],
    ids=["trials", "order", "depth", "steps"],
)
def test_count_past_numpy_sizes_exits_2(capsys, argv, size):
    # numpy would refuse each of these sizes without allocating, but by
    # ValueError, OverflowError or IndexError, which are not usage errors
    code, out, err = run(capsys, *argv, str(size))
    assert code == 2 and out == ""
    assert err == f"error: {argv[-1]} must lie below 2^56, got {size}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("radius", "--kind", "psymmetric", "--p", "1", "--m", "nan"),
        ("extremal", "--family", "psymmetric", "--p", "1", "--m", "nan", "--a", "0.5", "--r", "0.5"),
        ("radius", "--kind", "be_harmonic", "--p", "nan"),
        ("radius", "--kind", "be_harmonic", "--p", "inf"),
        ("verify", "be", "--p", "inf", "--r", "0.5", "--seed", "1", "--trials", "3"),
        ("verify", "theorem2", "--p", "inf", "--r", "0.5", "--seed", "1", "--trials", "3"),
        ("verify", "theorem2", "--p", "nan", "--r", "0.5", "--seed", "1", "--trials", "3"),
        # --p is unused by this family but echoed; nan must not reach the JSON
        ("extremal", "--family", "be", "--a", "0.5", "--r", "0.5", "--p", "nan"),
        # the CSV header must not precede the error
        ("envelope", "--p", "nan", "--r-start", "0.1", "--r-end", "0.2", "--steps", "2"),
        # one more per radius kind with an option, claim and extremal family;
        # argparse reads "-inf" as an option unless it is joined with "="
        ("radius", "--kind", "rp", "--p", "nan"),
        ("radius", "--kind", "mp_lower", "--p=-inf"),
        ("radius", "--kind", "psymmetric", "--p", "inf", "--m", "1"),
        ("radius", "--kind", "be_harmonic", "--p=-inf"),
        ("verify", "theorem1", "--p", "1", "--r", "nan", "--seed", "1", "--trials", "3"),
        ("verify", "lemma21", "--R", "inf", "--seed", "1", "--trials", "3"),
        ("verify", "theorem2", "--p", "1", "--r=-inf", "--seed", "1", "--trials", "3"),
        ("verify", "be", "--p", "1", "--r", "nan", "--seed", "1", "--trials", "3"),
        ("verify", "theoremB", "--p", "nan", "--seed", "1"),
        ("extremal", "--family", "mobius", "--a", "nan", "--r", "0.5"),
        ("extremal", "--family", "psymmetric", "--p", "2", "--m", "1", "--a", "0.5", "--r", "inf"),
        ("extremal", "--family", "be", "--a=-inf", "--r", "0.5"),
    ],
)
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.strip()


class TestTableCommand:
    def test_table_contents(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,params,value"
        table = {}
        for line in lines[1:]:
            name, params, value = line.split(",")
            table[(name, params)] = float(value)
        assert abs(table[("powered_radius", "p=1")] - 1.0 / 3.0) < 1e-9
        assert abs(table[("be_radius", "")] - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(table[("harmonic_radius", "p=1")] - 0.2) < 1e-10
        assert abs(table[("psymmetric_radius", "p=2 m=2")] - 2.0 ** (-0.25)) < 1e-10
        assert ("asymptotic_gap", "p=1.5 r=0.9 C=0") in table

    def test_byte_stability(self, capsys):
        _, first, _ = run(capsys, "table")
        _, second, _ = run(capsys, "table")
        assert first == second


class TestByteStability:
    def test_verify_output_stable(self, capsys):
        argv = ["verify", "lemma21", "--R", "1.0", "--trials", "25", "--seed", "7"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seventeen_digit_reals(self, capsys):
        _, out, _ = run(capsys, "radius", "--kind", "be", )
        assert "0.70710678118654746" in out or "0.70710678118654757" in out

    # stdout pinned at the commit before the scalar layer stopped its bisection
    # early and cached its candidate grids: every byte must stay the same
    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ("radius", "--kind", "rp", "--p", "1.05"),
                '{"kind":"rp","params":{"p":1.05},"radius":0.38409002451868846,'
                '"method":"minimization","residual":5.5511151231257827e-16}\n',
            ),
            (
                ("radius", "--kind", "rp", "--p", "1.37"),
                '{"kind":"rp","params":{"p":1.3700000000000001},"radius":0.59762959530092163,'
                '"method":"minimization","residual":2.2204460492503131e-16}\n',
            ),
            (
                ("radius", "--kind", "rp", "--p", "1.5"),
                '{"kind":"rp","params":{"p":1.5},"radius":0.67723039766008786,'
                '"method":"minimization","residual":1.1102230246251565e-16}\n',
            ),
            (
                ("radius", "--kind", "rp", "--p", "1.95"),
                '{"kind":"rp","params":{"p":1.95},"radius":0.96563752886556364,'
                '"method":"minimization","residual":2.2204460492503131e-16}\n',
            ),
            (  # p < 1: the grid carries the boundary-layer seeds
                ("envelope", "--p", "0.5", "--r-start", "0.01", "--r-end", "0.3", "--steps", "3"),
                "r,value,argmax,exact\n"
                "0.01,1.0001020145854491,0.99979604405854094,true\n"
                "0.155,1.0318057742884412,0.94366445801765819,true\n"
                "0.29999999999999999,1.1413361931262935,0.82548138875846067,true\n",
            ),
            (
                ("envelope", "--p", "1", "--r-start", "0.1", "--r-end", "0.3", "--steps", "3", "--doubled"),
                "r,value,argmax,exact\n"
                "0.10000000000000001,1,1,true\n"
                "0.20000000000000001,1,1,true\n"
                "0.29999999999999999,1.0889047392694364,0.7370396787526351,true\n",
            ),
            (
                ("envelope", "--p", "1.5", "--r-start", "0.2", "--r-end", "0.9", "--steps", "3"),
                "r,value,argmax,exact\n"
                "0.20000000000000001,1,1,true\n"
                "0.55000000000000004,1,1,true\n"
                "0.90000000000000002,1.2792153274519757,0.71428186116175352,false\n",
            ),
            (
                ("extremal", "--family", "be", "--a", "0.5", "--r", "0.6", "--order", "6"),
                '{"family":"be","a":0.5,"p":1,"m":0,"r":0.59999999999999998,"order":6,'
                '"coeffs":[[0,0],[0.5,0],[-0.75,0],[-0.375,0],[-0.1875,0],[-0.09375,0],'
                '[-0.046875,0]],"powered_sum_lower":0.68477699999999997,'
                '"powered_sum_upper":0.7547609999999999,"envelope_value":0.74999999999999989,'
                '"gap":-0.0047610000000000152}\n',
            ),
            # pinned at the commit before the parameter rules moved into
            # bohrlab.errors and the radius and verify commands into tables
            (
                ("radius", "--kind", "mp_lower", "--p", "1.3"),
                '{"kind":"mp_lower","params":{"p":1.3},"radius":0.48035849210218168,'
                '"method":"closed_form","residual":0}\n',
            ),
            (
                ("radius", "--kind", "psymmetric", "--p", "3", "--m", "1"),
                '{"kind":"psymmetric","params":{"m":1,"p":3},"radius":0.83378300630386071,'
                '"method":"polynomial_roots","residual":0}\n',
            ),
            (
                ("radius", "--kind", "harmonic_p1"),
                '{"kind":"harmonic_p1","params":{},"radius":0.20000000000000001,'
                '"method":"bisection","residual":0}\n',
            ),
            (
                ("radius", "--kind", "be"),
                '{"kind":"be","params":{},"radius":0.70710678118654746,'
                '"method":"bisection","residual":1.1102230246251565e-16}\n',
            ),
            (
                ("radius", "--kind", "be_harmonic", "--p", "1.5"),
                '{"kind":"be_harmonic","params":{"p":1.5},"radius":0.53301374599221174,'
                '"method":"bisection","residual":1.1102230246251565e-16}\n',
            ),
            # the verify lines re-recorded when trials moved from PCG64 seeds
            # to splitmix64 counter streams; only worst_trial and max_sum moved
            (
                ("verify", "theorem1", "--p", "1", "--r", "0.5", "--trials", "20", "--seed", "3"),
                '{"claim_id":"theorem1","trials":20,"failures":0,"worst_margin":0,"seed":3,'
                '"params":{"depth":12,"order":64,"p":1,"r":0.5,"witness_min_slack":0,'
                '"worst_trial":14}}\n',
            ),
            (
                ("verify", "lemma21", "--R", "0.5", "--trials", "20", "--seed", "3"),
                '{"claim_id":"lemma21","trials":20,"failures":0,"worst_margin":0,"seed":3,'
                '"params":{"R":0.5,"depth":12,"order":64,'
                '"witness_max_abs_slack":5.5511151231257827e-17,"worst_trial":19}}\n',
            ),
            (
                ("verify", "theorem2", "--p", "1", "--r", "0.5", "--trials", "20", "--seed", "3"),
                '{"claim_id":"theorem2","trials":20,"failures":0,"worst_margin":0,"seed":3,'
                '"params":{"depth":12,"order":64,"p":1,"r":0.5,"witness_min_slack":0,'
                '"worst_trial":18}}\n',
            ),
            (
                ("verify", "be", "--p", "1.5", "--r", "0.6", "--trials", "20", "--seed", "3"),
                '{"claim_id":"be_analytic","trials":20,"failures":0,'
                '"worst_margin":0.013092599131794391,"seed":3,"params":{"depth":12,'
                '"max_sum":0.71904158550656394,"order":64,"r":0.59999999999999998,'
                '"witness_min_slack":0.013092599131794391,"worst_trial":18}}\n'
                '{"claim_id":"be_harmonic","trials":20,"failures":0,'
                '"worst_margin":0.02078320563480851,"seed":3,"params":{"depth":12,'
                '"order":64,"p":1.5,"r":0.59999999999999998,'
                '"witness_min_slack":0.02078320563480851,"worst_trial":7}}\n',
            ),
            (
                ("verify", "theoremB", "--p", "1.5", "--seed", "3"),
                '{"claim_id":"theoremB","trials":4,"failures":0,'
                '"worst_margin":0.60737201803740581,"seed":3,"params":{"p":1.5,'
                '"ratio_0.5":0.8408964152537145,"ratio_0.9":0.73433115823047901,'
                '"ratio_0.99":0.70976560532028166,"ratio_0.999":0.70737201803740579}}\n',
            ),
        ],
    )
    def test_pinned_stdout(self, capsys, argv, want):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want

    def test_pinned_failing_run(self, capsys):
        # sampled pairs exceed the doubled-envelope bound in the upper part of
        # the nominal p = 1 range: exit code 1, and the worst trial, which
        # sample_schur(2, 16, 12) replays with omega on stream 1
        code, out, _ = run(
            capsys, "verify", "theorem2", "--p", "1", "--r", "0.81", "--trials", "50", "--seed", "2"
        )
        assert code == 1 and out == (
            '{"claim_id":"theorem2","trials":50,"failures":1,'
            '"worst_margin":-0.040091684175830977,"seed":2,"params":{"depth":12,"order":121,'
            '"p":1,"r":0.81000000000000005,"witness_min_slack":-8.8817841970012523e-16,'
            '"worst_trial":16}}\n'
        )

    @pytest.mark.parametrize(
        "argv, length, digest",
        [
            (
                ("extremal", "--family", "mobius", "--a", "0.3", "--p", "1.5", "--r", "0.4"),
                11621,
                "b5a8d99f60650c6fc34e882f35fe8dde711364b5ecf23b031a7d9bbbf79b6fbe",
            ),
            (
                ("extremal", "--family", "be", "--a", "0.7", "--r", "0.7"),
                11358,
                "aed61280e64d1bcf4ecd59b71b105e2b88f296e9ac615bc77336c6f7cd4feb73",
            ),
        ],
    )
    def test_pinned_extremal_digest(self, capsys, argv, length, digest):
        # 401 coefficient pairs at the default order
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out) == length
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_list_refused(self, bad):
        import numpy as np

        for items in ([0.5, bad], [np.float64(0.5), np.float64(bad)], [[1.0, 2.0], [bad, 0.0]]):
            with pytest.raises(cli.BohrlabError):
                cli._json_value(items)

    def test_float_list_bytes(self):
        import numpy as np

        items = [0.1, np.float64(1) / 3, -0.0, 5e-324, 1e300, 2.0]
        assert cli._json_value(items) == (
            "[0.10000000000000001,0.33333333333333331,-0,4.9406564584124654e-324,1.0000000000000001e+300,2]"
        )
        assert cli._json_value([1, 0.5, True, "x"]) == '[1,0.5,true,"x"]'
        assert cli._json_value([]) == "[]"
