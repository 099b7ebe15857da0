import json

import pytest

import zdgspec.analysis
import zdgspec.cli
import zdgspec.divisor_graph
import zdgspec.join_spectrum
from zdgspec import eigen
from zdgspec.analysis import analyze_range
from zdgspec.cli import CSV_HEADER, build_parser, main, record_csv, record_json
from zdgspec.join_spectrum import exact_total_spectrum
from zdgspec.numtheory import factorize, is_prime

EXPECTED_15 = (
    '{"n":15,"vertex_count":6,'
    '"spectrum":[{"value":0,"multiplicity":1,"exact":true},'
    '{"value":2,"multiplicity":3,"exact":true},'
    '{"value":4,"multiplicity":1,"exact":true},'
    '{"value":6,"multiplicity":1,"exact":true}],'
    '"mu":2,"lambda":6,"kappa":2,"delta":2,"Delta":4,'
    '"laplacian_integral":true,"complement_disconnected":true,'
    '"lambda_equals_order":true,"mu_equals_kappa":true,"method":"reduced"}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reemit(obj) -> str:
    """Canonical serialization rules as documented: fixed order (as parsed),
    12 significant digits, integral values without a decimal point, and a
    non-integral value whose 12 digits read as an integer in full."""
    if isinstance(obj, dict):
        return "{" + ",".join(f'"{k}":{reemit(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(reemit(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj == int(obj):
            return str(int(obj))
        text = format(obj, ".12g")
        return repr(obj) if text.isdigit() else text
    return '"' + obj + '"'


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_15_json(capsys):
    code, out, _ = run(capsys, "spectrum", "15", "--format", "json", "--method", "reduced")
    assert code == 0
    assert out.strip() == EXPECTED_15


def test_spectrum_9_auto_uses_closed_form(capsys):
    code, out, _ = run(capsys, "spectrum", "9")
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "closed_form"
    assert record["spectrum"] == [
        {"value": 0, "multiplicity": 1, "exact": True},
        {"value": 2, "multiplicity": 1, "exact": True},
    ]


def test_spectrum_prime_rejected(capsys):
    code, out, err = run(capsys, "spectrum", "7")
    assert code == 2
    assert out == ""
    assert "Z_7 has no zero divisors" in err


def test_spectrum_closed_form_requires_prime_power(capsys):
    code, _, err = run(capsys, "spectrum", "12", "--method", "closed-form")
    assert code == 2
    assert "prime power p^t" in err and "pq" in err


def test_spectrum_closed_form_takes_pq(capsys):
    code, out, _ = run(capsys, "spectrum", "15", "--method", "closed-form")
    assert code == 0
    closed = json.loads(out)
    assert closed["method"] == "closed_form"
    _, out, _ = run(capsys, "spectrum", "15", "--method", "reduced")
    assert {**closed, "method": "reduced"} == json.loads(out)
    # auto takes the closed form for pq as for p^t
    _, out, _ = run(capsys, "spectrum", "15")
    assert json.loads(out) == closed


@pytest.mark.parametrize("n", ["1024", "15"])
def test_reduced_method_on_a_closed_family(capsys, n):
    # --method reduced still runs the reduced route on p^t and pq, and
    # prints the same record under its own label
    _, closed, _ = run(capsys, "spectrum", n)
    code, out, _ = run(capsys, "spectrum", n, "--method", "reduced")
    assert code == 0
    assert out == closed.replace('"method":"closed_form"', '"method":"reduced"')


def test_analyze_labels_its_route(capsys):
    _, out, _ = run(capsys, "analyze", "1024")
    assert out.endswith("method = closed_form\n")
    _, out, _ = run(capsys, "analyze", "12")
    assert out.endswith("method = reduced\n")


def test_spectrum_brute_method_and_cap(capsys):
    code, out, _ = run(capsys, "spectrum", "12", "--method", "brute")
    assert code == 0
    assert json.loads(out)["method"] == "brute"

    code, _, err = run(capsys, "spectrum", "12", "--method", "brute", "--cap", "3")
    assert code == 3
    assert "cap" in err


def test_spectrum_brute_refuses_past_the_cap_before_the_reduced_analysis(
    capsys, monkeypatch
):
    # 8648640 has 446 proper divisors and 6989759 vertices: the cap refuses
    # it before any residue polynomial is computed
    monkeypatch.setattr(
        zdgspec.join_spectrum,
        "residue_polynomials",
        lambda graphs: pytest.fail("reduced analysis ran"),
    )
    code, out, err = run(capsys, "spectrum", "8648640", "--method", "brute")
    assert (code, out) == (3, "")
    assert err == "explicit graph for n=8648640 has 6989759 vertices, above the cap 1200\n"


@pytest.mark.parametrize(
    "n, code",
    [
        ("6983776800", 5),  # 2302 proper divisors: the reduced gate first
        ("9999999999999999", 3),  # inside the gate, past the cap
    ],
)
def test_spectrum_brute_refusal_order(capsys, n, code):
    got, out, err = run(capsys, "spectrum", n, "--method", "brute")
    assert (got, out) == (code, "")
    assert ("cap" in err) == (code == 3)


def test_json_round_trip_byte_identical(capsys):
    for n in ("12", "15", "16", "360"):
        _, out, _ = run(capsys, "spectrum", n, "--format", "json", "--method", "reduced")
        line = out.strip()
        assert reemit(json.loads(line)) == line


def test_inexact_value_never_prints_as_an_integer(capsys):
    # the largest quotient value lies 1.5e-6 above the class value 2700080
    code, out, _ = run(capsys, "spectrum", "8100243")
    assert code == 0
    record = json.loads(out)
    assert record["spectrum"][-2:] == [
        {"value": 2700080, "multiplicity": 1, "exact": True},
        {"value": 2700080.000001539, "multiplicity": 1, "exact": False},
    ]
    assert record["lambda"] == 2700080.000001539
    assert reemit(record) == out.strip()


def test_spectrum_csv_and_text(capsys):
    code, out, _ = run(capsys, "spectrum", "15", "--format", "csv")
    header, row = out.strip().split("\n")
    assert header.startswith("n,vertex_count,mu,lambda,kappa,delta,Delta,")
    assert row.startswith("15,6,2,6,2,2,4,true,true,true,true,")
    assert row.endswith("0:1;2:3;4:1;6:1")

    code, out, _ = run(capsys, "spectrum", "15", "--format", "text")
    assert "spectrum = 0:1 2:3 4:1 6:1" in out
    assert "mu = 2" in out


def test_analyze_text_undefined_mu(capsys):
    code, out, _ = run(capsys, "analyze", "4")
    assert code == 0
    assert "mu = undefined" in out
    assert "vertex_count = 1" in out


# ---------------------------------------------------------------------------
# graph dumps


def test_divisor_graph_18(capsys):
    code, out, _ = run(capsys, "divisor-graph", "18")
    assert code == 0
    assert out == (
        "n = 18\n"
        "vertices = 2 3 6 9\n"
        "weights = 6 2 2 1\n"
        "edges:\n"
        "2 9\n"
        "3 6\n"
        "6 9\n"
        "L:\n"
        "1 0 0 -1\n"
        "0 2 -2 0\n"
        "0 -2 3 -1\n"
        "-6 0 -2 8\n"
    )


def test_graph_edges_and_summary(capsys):
    code, out, _ = run(capsys, "graph", "8", "--edges")
    assert code == 0
    assert out == "2 4\n4 6\n"

    code, out, _ = run(capsys, "graph", "9")
    assert "vertices = 2" in out
    assert "edges = 1" in out


def test_graph_respects_cap(capsys):
    code, _, err = run(capsys, "graph", "100", "--edges", "--cap", "10")
    assert code == 3
    assert "cap" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "4", "30")
    assert code == 0
    assert out.strip().endswith("checked 19, passed 19, failed 0")
    assert out.count("PASS") == 19


def test_verify_sees_a_snapping_defect(capsys, monkeypatch):
    # a snap tolerance of 0.05 pulls quotient values onto integers they are
    # not; compared with the oracle's raw eigenvalues, verify must fail
    code, _, _ = run(capsys, "verify", "4", "100")
    assert code == 0
    monkeypatch.setattr(eigen, "INTEGER_SNAP_TOL", 0.05)
    code, out, _ = run(capsys, "verify", "4", "100")
    assert code == 1
    assert "FAIL n=40 " in out


def test_verify_empty_range(capsys):
    code, out, _ = run(capsys, "verify", "5", "5")
    assert code == 0
    assert "checked 0, passed 0, failed 0" in out


def test_verify_invalid_range(capsys):
    code, _, err = run(capsys, "verify", "10", "4")
    assert code == 2
    assert "invalid range" in err


def test_verify_cap_skips(capsys):
    code, out, _ = run(capsys, "verify", "4", "40", "--cap", "10")
    assert code == 0
    assert "SKIP" in out
    assert "skipped" in out


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "4", "20"),
        ("graph", "12"),
        ("spectrum", "12", "--method", "brute"),
        ("spectrum", "12"),
    ],
)
def test_cap_below_one_exits_2(capsys, cap, argv):
    # a cap of 0 used to skip every n and pass with nothing checked, and
    # every method of spectrum refuses it, not only the one it would reach
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert code == 2
    assert out == ""
    assert err == f"--cap must be positive, got {cap}\n"


# ---------------------------------------------------------------------------
# survey


def test_survey_csv_rows(capsys):
    code, out, _ = run(capsys, "survey", "4", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 20  # header + 19 composites
    by_n = {row.split(",")[0]: row for row in lines[1:]}
    cells16 = by_n["16"].split(",")
    assert cells16[3] == "7"  # lambda
    assert cells16[7] == "true"  # integral
    cells12 = by_n["12"].split(",")
    assert cells12[10] == "false"  # mu_eq_kappa
    cells4 = by_n["4"].split(",")
    assert cells4[2] == ""  # undefined mu stays empty


def test_survey_json_rows_carry_quotient_flags(capsys):
    code, out, _ = run(capsys, "survey", "4", "20", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["n"] for r in rows] == [4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20]
    assert all("mu_from_quotient" in r and "lambda_from_quotient" in r for r in rows)
    reduced = {r["n"] for r in rows if r["method"] == "reduced"}
    assert reduced == {12, 18, 20}  # every other n is p^t or pq
    for line in out.strip().split("\n"):
        assert reemit(json.loads(line)) == line


def test_survey_rows_equal_per_n_analysis(capsys):
    # the rows of a chunked survey are byte for byte those of each n analyzed
    # alone, as a range of one with its own residue polynomial
    composites = [n for n in range(4, 2001) if not is_prime(n)]
    alone = [next(analyze_range([n])) for n in composites]
    code, out, _ = run(capsys, "survey", "4", "2000")
    assert code == 0
    assert out.splitlines() == [CSV_HEADER] + [record_csv(r, s) for r, s, _ in alone]
    code, out, _ = run(capsys, "survey", "4", "2000", "--format", "json")
    assert code == 0
    assert out.splitlines() == [record_json(*row, True) for row in alone]


# the modules that take n from the command line to its spectra, divisor_graph
# among them for its one gate, ``require_reducible``; eigen keeps its own
# guard for direct callers of char_poly_integer
_DRIVER_MODULES = (
    zdgspec.analysis,
    zdgspec.divisor_graph,
    zdgspec.join_spectrum,
    zdgspec.cli,
)


def _spy(monkeypatch, name, record):
    """Have ``record`` see every call of ``name`` from the driver modules."""
    for module in _DRIVER_MODULES:
        real = getattr(module, name, None)
        if real is not None:

            def spy(*args, real=real, **kwargs):
                record(*args, **kwargs)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)


def test_survey_refuses_each_n_once(capsys, monkeypatch):
    # one check_order and one vertex_count call per n of the range
    orders, counted = [], []
    _spy(monkeypatch, "check_order", orders.append)
    _spy(monkeypatch, "vertex_count", lambda f: counted.append(f.n))
    code, _, _ = run(capsys, "survey", "4", "2000")
    assert code == 0
    composites = [n for n in range(4, 2001) if not is_prime(n)]
    assert counted == composites
    assert orders == [factorize(n).divisor_count() - 2 for n in composites]


@pytest.mark.parametrize(
    "entry",
    [
        lambda: main(["spectrum", "72"]),
        lambda: main(["analyze", "72"]),
        lambda: exact_total_spectrum(72),
    ],
    ids=["spectrum", "analyze", "exact_total_spectrum"],
)
def test_single_n_is_a_range_of_one(capsys, monkeypatch, entry):
    # a lone n takes the driver's route: one residue_polynomials call, with
    # the one divisor graph of n
    seen = []
    real = zdgspec.join_spectrum.residue_polynomials

    def spy(graphs):
        seen.append([g.n for g in graphs])
        return real(graphs)

    monkeypatch.setattr(zdgspec.join_spectrum, "residue_polynomials", spy)
    entry()
    capsys.readouterr()
    assert seen == [[72]]


def test_no_lone_matrix_with_a_modulus(capsys, monkeypatch):
    # residues modulo a prime come only from lists of matrices, since
    # char_poly_integer refuses one matrix with a modulus: its lone-matrix
    # form is the integer lift's, which none of these n reaches
    moduli = []
    _spy(monkeypatch, "char_poly_integer", lambda m, modulus=None: moduli.append(modulus))
    for argv in (["survey", "4", "300"], ["spectrum", "72"], ["analyze", "720"]):
        assert run(capsys, *argv)[0] == 0
    exact_total_spectrum(72)
    assert set(moduli) == {eigen.EXCLUSION_PRIME}
    # the reduced route on pq splits modulo the prime and reaches the lift
    reduced = zdgspec.join_spectrum.reduced_spectrum(15)
    moduli.clear()
    assert exact_total_spectrum(reduced) is not None
    assert moduli == [eigen.EXCLUSION_PRIME, None]


def test_survey_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "survey", "4", "12", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().count("\n") == 7  # header + 6 composites


def test_survey_unwritable_path(capsys, monkeypatch):
    # the output is opened before the first n, so nothing is computed
    def no_work(ns):
        raise AssertionError("n analysed for an output that cannot open")

    monkeypatch.setattr(zdgspec.cli, "analyze_range", no_work)
    code, _, err = run(capsys, "survey", "4", "12", "--out", "/no-such-dir/rows.csv")
    assert code == 4
    assert err


@pytest.mark.parametrize("to_file", [False, True])
def test_survey_rows_before_a_refusal_stay_written(
    capsys, monkeypatch, tmp_path, to_file
):
    # with the order envelope lowered to 4, survey 4 12 writes the rows of
    # 4, 6, 8, 9 and 10 (at most 2 proper divisors each) and then refuses
    # 12 (4 proper divisors) off its factorization: exit 5, and the divisor
    # graph of 12 is never built
    _, rows, _ = run(capsys, "survey", "4", "10")

    def no_graph(n):
        raise AssertionError(f"divisor graph of {n} built for a refused order")

    monkeypatch.setattr(eigen, "MAX_ORDER", 4)
    monkeypatch.setattr(zdgspec.join_spectrum, "build_divisor_graph", no_graph)
    target = tmp_path / "rows.csv"
    out_args = ("--out", str(target)) if to_file else ()
    code, out, err = run(capsys, "survey", "4", "12", *out_args)
    assert code == 5
    assert "order 4 is too large" in err and "Traceback" not in err
    written = target.read_text() if to_file else out
    assert written == rows
    assert [row.split(",")[0] for row in rows.splitlines()[1:]] == [
        "4", "6", "8", "9", "10"
    ]


def test_survey_keeps_the_factorize_cache_bounded(tmp_path, capsys):
    # a range longer than the cache: every n is factored once when it is
    # tested and hit while it is analyzed, and the exclusion prime of the
    # one-prime integrality test stays cached throughout
    cache = factorize.cache_info()
    hi = cache.maxsize + 200
    code, _, _ = run(capsys, "survey", "4", str(hi), "--out", str(tmp_path / "r"))
    assert code == 0
    after = factorize.cache_info()
    assert after.currsize <= after.maxsize
    assert after.misses - cache.misses <= hi
    factorize(eigen.EXCLUSION_PRIME)
    assert factorize.cache_info().hits == after.hits + 1


@pytest.mark.parametrize("command", ["verify", "survey"])
def test_jobs_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "4", "20", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_parser_built_once_per_process(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "analyze", "15") == run(capsys, "analyze", "15")


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["analyze"], ["spectrum", "--method", "closed-form"]],
    ids=["spectrum", "analyze", "spectrum-closed-form"],
)
def test_vertex_count_beyond_int64_exits_5(capsys, argv):
    # 2^65 has a closed form, but the refusal comes before any route
    code, out, err = run(capsys, *argv, str(2**65))
    assert code == 5
    assert out == ""
    assert "int64" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["spectrum"], ["analyze"]], ids=["spectrum", "analyze"])
@pytest.mark.parametrize(
    "n", [3317044064679887385961981, 2**89 - 1], ids=["psi13", "2^89-1"]
)
def test_unproven_probable_prime_exits_5(capsys, argv, n):
    # psi_13 = 1287836182261 * 2575672364521 has |V| inside int64, yet passes
    # Miller-Rabin to all 13 bases, as the prime 2^89 - 1 does; from psi_13
    # on a pass proves nothing, so neither is refused as a prime (exit 2)
    code, out, err = run(capsys, *argv, str(n))
    assert code == 5
    assert out == ""
    assert "cannot prove" in err and "Traceback" not in err


def test_order_beyond_char_poly_envelope_exits_5(capsys, monkeypatch):
    # analyze 2520 needs the char-poly of its order-46 quotient; lowering the
    # order cap takes it down the path of a real n past the cap, such as
    # 6983776800 with 2302 proper divisors, without allocating one; the
    # refusal comes from the factorization, before the divisor graph
    def no_graph(n):
        raise AssertionError("divisor graph built for a refused order")

    monkeypatch.setattr(eigen, "MAX_ORDER", 40)
    monkeypatch.setattr(zdgspec.join_spectrum, "build_divisor_graph", no_graph)
    code, out, err = run(capsys, "analyze", "2520")
    assert code == 5
    assert out == ""
    assert "order 46" in err and "Traceback" not in err


def test_divisor_graph_beyond_the_order_envelope_exits_5(capsys, monkeypatch):
    # 6983776800 has 2302 proper divisors; the order is refused off the
    # factorization, before the divisor graph is built
    def no_graph(n):
        raise AssertionError("divisor graph built for a refused order")

    monkeypatch.setattr(zdgspec.cli, "build_divisor_graph", no_graph)
    code, out, err = run(capsys, "divisor-graph", "6983776800")
    assert code == 5
    assert out == ""
    assert "order 2302" in err and "Traceback" not in err
    # the limit is on proper divisors; this command computes no char-poly
    assert "2047 proper divisors" in err and "char-poly" not in err


@pytest.mark.parametrize("n", [9999999999999999, 3 * 2**61], ids=["10^16-1", "3*2^61"])
def test_candidate_window_beyond_its_bound_exits_5(capsys, monkeypatch, n):
    # rho grows with ||C||_F: about 1.6e5 for 10^16 - 1, so its 190 windows
    # may hold 5.9e7 integers, and 3.2e10 for 3 * 2^61; both are refused
    # before one candidate exists, not left to end in a MemoryError (exit 1)
    def no_roots(*args):
        raise AssertionError("candidates tested past the window bound")

    monkeypatch.setattr(zdgspec.join_spectrum, "integer_roots_complete", no_roots)
    code, out, err = run(capsys, "analyze", str(n))
    assert code == 5
    assert out == ""
    assert f"n={n}" in err and "candidate-root windows" in err
    assert "Traceback" not in err
