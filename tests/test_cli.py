"""End-to-end tests of the command line front end."""

import itertools
import json
import shlex
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicdyn.arith import check_odd_prime
from padicdyn.cli import (
    ENCODE_MAX_BITS,
    ORBIT_MAX_DIGITS,
    PROBE_MAX_BITS,
    SERIES_MAX_MONOMIALS,
    _check_orbit_work,
    _prime,
    run,
)
from padicdyn.errors import DocumentError, DomainError

README = Path(__file__).resolve().parent.parent / "README.md"


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def doubling_document():
    return {
        "dimension": 1,
        "components": [
            [
                {"exponents": [1], "numerator": 2},
                {"exponents": [2], "numerator": 1},
            ]
        ],
    }


def symplectic_document():
    return {
        "dimension": 4,
        "fixed_locus_dim": 2,
        "components": [
            [{"exponents": [1, 0, 0, 0], "numerator": 1}, {"exponents": [0, 0, 1, 1], "numerator": 1}],
            [{"exponents": [0, 1, 0, 0], "numerator": 1}, {"exponents": [0, 0, 2, 0], "numerator": 1}],
            [{"exponents": [0, 0, 1, 0], "numerator": -2}, {"exponents": [0, 0, 0, 2], "numerator": 1}],
            [{"exponents": [0, 0, 0, 1], "numerator": -2}, {"exponents": [0, 0, 2, 0], "numerator": 1}],
        ],
        "symplectic_form": [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
    }


def sqrt_document():
    """X^2 - (1 + x) with seed 1: the square root of 1 + x."""
    return {
        "num_vars": 1,
        "relation": [
            {"exponents": [0], "x_power": 2, "numerator": 1},
            {"exponents": [0], "x_power": 0, "numerator": -1},
            {"exponents": [1], "x_power": 0, "numerator": -1},
        ],
        "seed": [{"exponents": [0], "numerator": 1}],
        "seed_degree": 0,
    }


def tall_orbit_document():
    """(2x + y^2/7 + 3xy, -3y + 5x^2 + xy^2/3): heights grow about 2.7x per step."""
    return {
        "dimension": 2,
        "components": [
            [
                {"exponents": [1, 0], "numerator": 2},
                {"exponents": [0, 2], "numerator": 1, "denominator": 7},
                {"exponents": [1, 1], "numerator": 3},
            ],
            [
                {"exponents": [0, 1], "numerator": -3},
                {"exponents": [2, 0], "numerator": 5},
                {"exponents": [1, 2], "numerator": 1, "denominator": 3},
            ],
        ],
    }


def vanishing_document():
    """3 * 2^s - 2 * 3^s at p = 5: it vanishes at s = 1 alone."""
    return {"coefficients": [3, -2], "units": [2, 3], "prime": 5}


def readme_map_document():
    """The example map document of the README's "Map documents" section."""
    text = README.read_text(encoding="utf-8")
    block = text.split("### Map documents", 1)[1].split("```json", 1)[1]
    return json.loads(block.split("```", 1)[0])


def readme_command(subcommand, document):
    """The README's example line for a subcommand, run on the given document."""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"padicdyn {subcommand} "):
            words = shlex.split(line.split("#", 1)[0])
            return [document if w == "map.json" else w for w in words[1:]]
    raise AssertionError(f"README has no padicdyn {subcommand} example")


def run_bounded(tmp_path, arguments, seconds=30):
    """run_to_file in a worker thread; fails instead of hanging past the bound."""
    result = []
    worker = threading.Thread(
        target=lambda: result.append(run_to_file(tmp_path, arguments)), daemon=True
    )
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{arguments[0]} did not finish within {seconds} s"
    return result[0]


def run_to_file(tmp_path, arguments, name="out.json"):
    out = tmp_path / name
    code = run(arguments + ["--out", str(out)])
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, data


class TestAnalyze:
    def test_symplectic_fixture(self, tmp_path):
        doc = write_json(tmp_path, "map.json", symplectic_document())
        code, data = run_to_file(tmp_path, ["analyze", doc, "--degree", "6"])
        assert code == 0
        report = data["report"]
        assert report["eigenvalues"] == [1, 1, -2, -2]
        assert report["resonances"] == []
        assert report["symplectic"]["scaling"] == -2
        assert report["symplectic"]["holds"]
        assert sorted(report["symplectic"]["pairs"]) == [[1, -2], [1, -2]]

    def test_irrational_eigenvalue_exit_two(self, tmp_path):
        doc = write_json(
            tmp_path,
            "rot.json",
            {
                "dimension": 2,
                "components": [
                    [{"exponents": [0, 1], "numerator": -1}],
                    [{"exponents": [1, 0], "numerator": 1}],
                ],
            },
        )
        code, data = run_to_file(tmp_path, ["analyze", doc])
        assert code == 2
        assert data["error"]["kind"] == "IrrationalEigenvalueError"

    def test_malformed_document_exit_one(self, tmp_path):
        doc = write_json(
            tmp_path,
            "bad.json",
            {
                "dimension": 2,
                "components": [
                    [{"exponents": [1], "numerator": 1}],
                    [{"exponents": [0, 1], "numerator": 1}],
                ],
            },
        )
        code, data = run_to_file(tmp_path, ["analyze", doc])
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert "exponents" in data["error"]["location"]

    @pytest.mark.parametrize(
        "record, message",
        [
            (5, "components[1][0]: expected a term record"),
            ({"exponents": [0, 1, 0], "numerator": 1}, "components[1][0].exponents: expected 2 non-negative integers"),
            ({"exponents": [0, -1], "numerator": 1}, "components[1][0].exponents: expected an integer >= 0, got -1"),
            ({"exponents": [0, 1], "numerator": "1"}, "components[1][0].numerator: expected an integer"),
            # JSON true is no integer, though Python counts it as 1
            ({"exponents": [0, True], "numerator": 1}, "components[1][0].exponents: expected an integer"),
            ({"exponents": [0, 1], "numerator": True}, "components[1][0].numerator: expected an integer"),
            ({"exponents": [0, 1], "numerator": 1, "denominator": True}, "components[1][0].denominator: expected an integer"),
            ({"exponents": [0, 1], "numerator": 1, "denominator": 0}, "components[1][0].denominator: expected a nonzero integer"),
        ],
    )
    def test_term_record_messages(self, tmp_path, record, message):
        document = doubling_document()
        document["dimension"] = 2
        document["components"] = [[{"exponents": [1, 0], "numerator": 2}], [record]]
        code, data = run_to_file(tmp_path, ["analyze", write_json(tmp_path, "bad.json", document)])
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert data["error"]["message"] == message

    @pytest.mark.parametrize("variables", [[7], [None], ["x", "y"], "x"])
    def test_variables_must_be_n_names(self, tmp_path, variables):
        document = doubling_document()
        document["variables"] = variables
        code, data = run_to_file(tmp_path, ["analyze", write_json(tmp_path, "bad.json", document)])
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert (data["error"]["location"], data["error"]["message"]) == ("variables", "variables: expected 1 names")

    def test_named_variables_are_accepted(self, tmp_path):
        document = doubling_document()
        document["variables"] = ["t"]
        code, _ = run_to_file(tmp_path, ["analyze", write_json(tmp_path, "map.json", document)])
        assert code == 0

    def test_all_zero_symplectic_form_exit_one(self, tmp_path):
        document = symplectic_document()
        document["symplectic_form"] = [[0] * 4 for _ in range(4)]
        doc = write_json(tmp_path, "map.json", document)
        code, data = run_to_file(tmp_path, ["analyze", doc])
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert data["error"]["location"] == "symplectic_form"

    @pytest.mark.parametrize(
        "make_document, form, message",
        [
            (readme_map_document, [[1, 0], [0, 0]], "form is not antisymmetric"),
            (symplectic_document, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "form is degenerate"),
            (doubling_document, [[1]], "symplectic form needs even dimension"),
        ],
    )
    def test_bad_symplectic_form_exit_one(self, tmp_path, make_document, form, message):
        document = dict(make_document(), symplectic_form=form)
        code, data = run_to_file(tmp_path, ["analyze", write_json(tmp_path, "map.json", document)])
        assert code == 1
        assert data["error"] == {"kind": "document", "location": "symplectic_form", "message": f"symplectic_form: {message}"}

    def test_usage_error_exit_one(self):
        assert run(["analyze"]) == 1
        assert run(["no-such-command", "x"]) == 1


class TestLinearize:
    def test_exponential_coefficients(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        code, data = run_to_file(tmp_path, ["linearize", doc, "--degree", "3"])
        assert code == 0
        h = data["report"]["h"][0]
        coeffs = {tuple(rec["exponents"]): (rec["numerator"], rec["denominator"]) for rec in h}
        assert coeffs[(1,)] == (1, 1)
        assert coeffs[(2,)] == (1, 2)
        assert coeffs[(3,)] == (1, 6)
        assert data["report"]["residual_zero"]

    def test_resonant_map_exit_two(self, tmp_path):
        doc = write_json(
            tmp_path,
            "res.json",
            {
                "dimension": 2,
                "components": [
                    [{"exponents": [1, 0], "numerator": 4}, {"exponents": [0, 2], "numerator": 1}],
                    [{"exponents": [0, 1], "numerator": 2}],
                ],
            },
        )
        code, data = run_to_file(tmp_path, ["linearize", doc, "--degree", "4"])
        assert code == 2
        assert data["error"]["kind"] == "ResonantMonomialError"


    @pytest.mark.parametrize("command", ["linearize", "newton", "eisenstein"])
    def test_tall_series_coefficients_are_a_typed_error(self, tmp_path, command):
        # c = 2^13990 fits the 4300-digit limit of the JSON reader, but the
        # degree-3 coefficient of h (and the degree-2 one of the root of
        # X^2 = 1 + c x) carries c^2, which a report cannot write as text
        tall = 2**13990
        if command == "eisenstein":
            document = sqrt_document()
            document["relation"][2]["numerator"] = -tall
        else:
            document = doubling_document()
            document["components"][0][1]["numerator"] = tall
        doc = write_json(tmp_path, "tall.json", document)
        code, data = run_bounded(tmp_path, [command, doc, "--degree", "3"])
        assert code == 2, data
        assert data["error"]["kind"] == "HeightCeilingError"
        assert str(ENCODE_MAX_BITS) in data["error"]["message"]


class TestNewton:
    def test_agrees_with_order_by_order(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        code1, direct = run_to_file(tmp_path, ["linearize", doc, "--degree", "8"], "a.json")
        code2, newton = run_to_file(tmp_path, ["newton", doc, "--degree", "8"], "b.json")
        assert code1 == code2 == 0
        assert direct["report"]["h"] == newton["report"]["h"]
        orders = [it["delta_order"] for it in newton["report"]["newton_trace"]["iterations"]]
        assert orders == [2, 4, 8]


class TestEisenstein:
    def test_sqrt_document(self, tmp_path):
        doc = write_json(tmp_path, "sqrt.json", sqrt_document())
        code, data = run_to_file(tmp_path, ["eisenstein", doc, "--degree", "6"])
        assert code == 0
        assert data["report"]["denominator_primes"] == [2]
        coeffs = {
            tuple(rec["exponents"]): (rec["numerator"], rec["denominator"])
            for rec in data["report"]["coefficients"]
        }
        assert coeffs[(1,)] == (1, 2)
        assert coeffs[(2,)] == (-1, 8)

    @pytest.mark.parametrize(
        "field, value, location",
        [
            ("relation exponents", ["a"], "relation[0].exponents"),
            ("relation x_power", -1, "relation[0].x_power"),
            ("relation record", 7, "relation[0]"),
            ("seed denominator", 0, "seed[0].denominator"),
            ("seed exponents", [0, 0], "seed[0].exponents"),
            ("seed", "x", "seed"),
        ],
    )
    def test_malformed_document_exit_one_in_bounded_time(self, tmp_path, field, value, location):
        document = sqrt_document()
        if field == "seed":
            document["seed"] = value
        elif field == "relation record":
            document["relation"][0] = value
        else:
            part, key = field.split()
            document[part][0][key] = value
        doc = write_json(tmp_path, "bad.json", document)
        code, data = run_bounded(tmp_path, ["eisenstein", doc, "--degree", "6"])
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert data["error"]["location"] == location

    def test_huge_seed_degree_is_a_typed_error_in_bounded_time(self, tmp_path):
        # a seed cap of 10^8 is above the truncation cap of 2**16 - 1, so
        # the seed itself is refused
        document = sqrt_document()
        document["seed_degree"] = 100_000_000
        doc = write_json(tmp_path, "root.json", document)
        code, data = run_bounded(tmp_path, ["eisenstein", doc, "--degree", "40"], seconds=10)
        assert code == 2
        assert data["error"]["kind"] == "DomainError"


class TestOrbit:
    def test_digit_strings(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        code, data = run_to_file(
            tmp_path,
            ["orbit", doc, "--start", "3", "--steps", "3", "--prime", "3", "--precision", "12"],
        )
        assert code == 0
        report = data["report"]
        assert report["stays_in_neighbourhood"]
        assert report["constant_mod_level"]
        first = report["points"][0][0]
        assert first.endswith("e1")  # valuation of 3 at p = 3

    @pytest.mark.parametrize(
        "start, message",
        [("1", "starting point is outside the neighbourhood"), ("1/3", "coordinate 0 is not integral")],
    )
    def test_refused_start_exit_one(self, tmp_path, start, message):
        doc = write_json(tmp_path, "map.json", doubling_document())
        code, data = run_to_file(tmp_path, ["orbit", doc, "--start", start, "--steps", "3", "--prime", "3"])
        assert code == 1
        assert data["error"] == {"kind": "document", "location": "--start", "message": f"--start: {message}"}

    def test_non_integral_map_exit_two(self, tmp_path):
        doc = write_json(
            tmp_path,
            "bad.json",
            {
                "dimension": 1,
                "components": [
                    [
                        {"exponents": [1], "numerator": 2},
                        {"exponents": [2], "numerator": 1, "denominator": 3},
                    ]
                ],
            },
        )
        code, data = run_to_file(tmp_path, ["orbit", doc, "--start", "3", "--prime", "3"])
        assert code == 2
        assert data["error"]["kind"] == "IntegralityError"

    def test_zero_eigenvalue_without_prime_exit_two(self, tmp_path):
        squaring = write_json(
            tmp_path,
            "square.json",
            {"dimension": 1, "components": [[{"exponents": [2], "numerator": 1}]]},
        )
        code, data = run_bounded(tmp_path, ["orbit", squaring, "--start", "3"])
        assert code == 2
        assert data["error"]["kind"] == "DomainError"


    def test_truncation_at_the_key_cap_is_a_typed_error_in_bounded_time(self, tmp_path):
        # exponents are packed in 16-bit fields, so every series has a
        # truncation degree below 2**16
        doc = write_json(tmp_path, "map.json", dict(doubling_document(), truncation_degree=2**16))
        code, data = run_bounded(tmp_path, ["orbit", doc, "--start", "3", "--prime", "3"], seconds=10)
        assert code == 2
        assert data["error"]["kind"] == "DomainError"

    def test_work_ceiling_in_bounded_time(self, tmp_path):
        # 200000 steps at 64 digits used to run for 14 s and write 59 MB
        doc = write_json(tmp_path, "map.json", readme_map_document())
        arguments = ["orbit", doc, "--start", "3,3", "--prime", "3"]
        largest = ORBIT_MAX_DIGITS // (2 * 64) - 1
        code, data = run_bounded(tmp_path, arguments + ["--steps", "200000", "--precision", "64"], seconds=10)
        assert code == 1
        error = data["error"]
        assert (error["kind"], error["location"]) == ("document", "--steps")
        assert error["message"].endswith(f"ask for at most {largest} steps")
        assert str(ORBIT_MAX_DIGITS) in error["message"]
        too_precise = str(ORBIT_MAX_DIGITS // 2 + 1)
        code, data = run_bounded(tmp_path, arguments + ["--steps", "0", "--precision", too_precise], seconds=10)
        assert code == 1
        assert data["error"]["location"] == "--precision"
        assert data["error"]["message"].endswith(f"at most {ORBIT_MAX_DIGITS // 2}")

    def test_work_ceiling_boundary(self):
        for dim, precision, location in ((2, 64, "--precision"), (3, 96, "precision")):
            largest = ORBIT_MAX_DIGITS // (dim * precision) - 1
            _check_orbit_work(largest, dim, precision, location)
            with pytest.raises(DocumentError) as caught:
                _check_orbit_work(largest + 1, dim, precision, location)
            assert caught.value.path == "--steps"
        _check_orbit_work(0, 2, ORBIT_MAX_DIGITS // 2, "precision")
        with pytest.raises(DocumentError) as caught:
            _check_orbit_work(0, 2, ORBIT_MAX_DIGITS // 2 + 1, "precision")
        assert caught.value.path == "precision"

    def test_readme_example(self, tmp_path):
        doc = write_json(tmp_path, "map.json", readme_map_document())
        arguments = readme_command("orbit", doc)
        assert arguments[arguments.index("--start") + 1] == "3,3"
        code, data = run_bounded(tmp_path, arguments)
        assert code == 0, data
        assert data["report"]["stays_in_neighbourhood"]


class TestProbe:
    def test_dependent_diagonal(self, tmp_path):
        doc = write_json(
            tmp_path,
            "map.json",
            {
                "dimension": 2,
                "components": [
                    [{"exponents": [1, 0], "numerator": 2}],
                    [{"exponents": [0, 1], "numerator": 4}],
                ],
            },
        )
        code, data = run_to_file(
            tmp_path, ["probe", doc, "--start", "1,1", "--points", "50", "--degree", "2"]
        )
        assert code == 0
        assert data["report"]["mode"] == "diagonal"
        assert data["report"]["lower_bound"] == 1
        assert data["report"]["estimated_dimension"] == 1

    def test_independent_diagonal(self, tmp_path):
        doc = write_json(
            tmp_path,
            "map.json",
            {
                "dimension": 2,
                "components": [
                    [{"exponents": [1, 0], "numerator": 2}],
                    [{"exponents": [0, 1], "numerator": 3}],
                ],
            },
        )
        code, data = run_to_file(
            tmp_path, ["probe", doc, "--start", "1,1", "--points", "60", "--degree", "4"]
        )
        assert code == 0
        assert data["report"]["lower_bound"] == 2
        assert data["report"]["kernel_dimension"] == 0

    def test_nonlinear_map_uses_orbit_mode(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        code, data = run_to_file(
            tmp_path, ["probe", doc, "--start", "1/2", "--points", "8", "--degree", "1"]
        )
        assert code == 0
        assert data["report"]["mode"] == "orbit"
        assert data["report"]["points_used"] == 8


    def test_readme_example(self, tmp_path):
        doc = write_json(tmp_path, "map.json", readme_map_document())
        code, data = run_bounded(tmp_path, readme_command("probe", doc))
        assert code == 0, data
        assert data["report"]["mode"] == "orbit"
        assert data["report"]["points_used"] == 60

    def test_tall_orbit_points_rejected_in_bounded_time(self, tmp_path):
        doc = write_json(tmp_path, "tall.json", tall_orbit_document())
        arguments = ["probe", doc, "--start", "1,1", "--degree", "3", "--points"]
        code, data = run_bounded(tmp_path, arguments + ["30"])
        assert code == 1
        error = data["error"]
        assert error["kind"] == "document"
        assert error["location"] == "--points"
        assert "orbit point 11 " in error["message"]
        assert str(PROBE_MAX_BITS) in error["message"]
        code, data = run_bounded(tmp_path, arguments + ["11"])
        assert code == 0, data
        assert data["report"]["points_used"] == 11

    def test_tall_kernel_is_a_typed_error(self, tmp_path):
        # the points stay below PROBE_MAX_BITS, but the kernel does not fit
        # Python's 4300-digit integer-to-text limit
        doc = write_json(tmp_path, "tall.json", tall_orbit_document())
        code, data = run_bounded(
            tmp_path, ["probe", doc, "--start", "1,1", "--points", "9", "--degree", "3"]
        )
        assert code == 2, data
        assert data["error"]["kind"] == "HeightCeilingError"
        assert str(ENCODE_MAX_BITS) in data["error"]["message"]
        text = tmp_path / "out.txt"
        code = run(
            ["probe", doc, "--start", "1,1", "--points", "9", "--degree", "3",
             "--format", "text", "--out", str(text)]
        )
        assert code == 2
        assert "HeightCeilingError" in text.read_text(encoding="utf-8")


class TestPrimeArguments:
    def test_non_primes_rejected_in_bounded_time(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        composite = write_json(tmp_path, "composite.json", dict(doubling_document(), prime=9))
        vanishing = write_json(
            tmp_path, "inst.json", {"coefficients": [3, -2], "units": [2, 3], "prime": 1}
        )
        cases = [
            (["vanishing", vanishing, "--smax", "10"], "prime"),
            (["orbit", doc, "--start", "3", "--prime", "1"], "--prime"),
            (["orbit", doc, "--start", "3", "--prime", "0"], "--prime"),
            (["newton", doc, "--degree", "4", "--prime", "9"], "--prime"),
            (["orbit", composite, "--start", "3"], "prime"),
        ]
        for arguments, location in cases:
            code, data = run_bounded(tmp_path, arguments)
            assert code == 1, arguments
            assert data["error"]["kind"] == "document"
            assert data["error"]["location"] == location

    def test_two_rejected_in_bounded_time(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        at_two = write_json(tmp_path, "two.json", dict(doubling_document(), prime=2))
        vanishing = write_json(
            tmp_path, "inst.json", {"coefficients": [3, -2], "units": [3, 5], "prime": 2}
        )
        cases = [
            (["newton", doc, "--degree", "4", "--prime", "2"], "--prime"),
            (["orbit", doc, "--start", "3", "--prime", "2"], "--prime"),
            (["analyze", doc, "--prime", "2"], "--prime"),
            (["vanishing", vanishing, "--smax", "10"], "prime"),
            (["linearize", at_two, "--degree", "4"], "prime"),
        ]
        for arguments, location in cases:
            code, data = run_bounded(tmp_path, arguments)
            assert code == 1, arguments
            assert data["error"]["kind"] == "document"
            assert data["error"]["location"] == location
            assert "odd prime" in data["error"]["message"]


    def test_accepts_exactly_the_library_odd_primes(self):
        for value in range(-5, 60):
            try:
                check_odd_prime(value)
            except DomainError:
                with pytest.raises(DocumentError, match="expected an odd prime"):
                    _prime(value, "prime")
            else:
                assert _prime(value, "prime") == value
        for value in (True, "3", 3.0, None):
            with pytest.raises(DocumentError, match="expected an odd prime"):
                _prime(value, "--prime")


class TestFlags:
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        sqrt = write_json(tmp_path, "sqrt.json", sqrt_document())
        cases = [
            ["analyze", doc, "--precision", "8"],
            ["linearize", doc, "--prime", "3"],
            ["linearize", doc, "--precision", "8"],
            ["newton", doc, "--degree", "4", "--precision", "8"],
            ["eisenstein", sqrt, "--prime", "3"],
            ["eisenstein", sqrt, "--precision", "8"],
            ["probe", doc, "--start", "1", "--prime", "3"],
            ["probe", doc, "--start", "1", "--precision", "8"],
        ]
        for arguments in cases:
            code, data = run_bounded(tmp_path, arguments)
            assert code == 1, arguments
            assert data["error"]["kind"] == "document"
            assert data["error"]["location"] == "arguments"
            assert data["error"]["message"].endswith(f"{arguments[0]} does not take {' '.join(arguments[-2:])}")

    def test_the_kept_flags_still_work(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        vanishing = write_json(tmp_path, "inst.json", {"coefficients": [3, -2], "units": [3, 5], "prime": 7})
        cases = [
            (["analyze", doc, "--prime", "5"], {"prime": 5}),
            (["newton", doc, "--degree", "4", "--prime", "5"], {"prime": 5}),
            (["orbit", doc, "--start", "5", "--steps", "2", "--prime", "5", "--precision", "9"], {"prime": 5, "precision": 9}),
            (["vanishing", vanishing, "--smax", "10", "--prime", "11", "--precision", "9"], {"prime": 11, "precision": 9}),
        ]
        for arguments, flags in cases:
            code, data = run_bounded(tmp_path, arguments)
            assert code == 0, (arguments, data)
            for name, value in flags.items():
                assert data["arguments"][name] == value
        assert run_to_file(tmp_path, ["analyze", doc, "--prime", "5"])[1]["report"]["default_prime"] == 5


class TestUsageErrors:
    """argparse's own usage errors end in the document-error payload."""

    CASES = [
        (["orbit", "m.json"], "orbit", "required: --start"),
        (["linearize", "m.json", "--degree", "x"], "linearize", "invalid int value: 'x'"),
    ]

    def test_written_to_out(self, tmp_path):
        for arguments, command, message in self.CASES:
            code, data = run_to_file(tmp_path, arguments)
            assert code == 1, arguments
            assert data["command"] == command
            assert data["error"]["kind"] == "document"
            assert data["error"]["location"] == "arguments"
            assert message in data["error"]["message"]

    def test_written_to_stdout(self, capsys):
        for arguments, command, message in self.CASES:
            assert run(arguments) == 1
            captured = capsys.readouterr()
            data = json.loads(captured.out)
            assert data["command"] == command
            assert data["error"]["location"] == "arguments"
            assert message in data["error"]["message"]
            assert captured.err == ""

    def test_an_unreadable_command_line_still_answers(self, capsys):
        for arguments in (["no-such-command", "x"], [], ["orbit", "m.json", "--out"]):
            assert run(arguments) == 1
            data = json.loads(capsys.readouterr().out)
            assert data["command"] is None
            assert data["error"]["location"] == "arguments"

    def test_help_exits_zero(self, capsys):
        assert run(["linearize", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: padicdyn linearize")


class TestIntegerArguments:
    def test_out_of_range_flags_rejected_in_bounded_time(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        sqrt = write_json(tmp_path, "sqrt.json", sqrt_document())
        vanishing = write_json(
            tmp_path, "inst.json", {"coefficients": [3, -2], "units": [2, 3], "prime": 5}
        )
        cases = [
            (["orbit", doc, "--start", "3", "--steps", "-5"], "--steps"),
            (["orbit", doc, "--start", "3", "--level", "0"], "--level"),
            (["analyze", doc, "--degree", "-3"], "--degree"),
            (["eisenstein", sqrt, "--degree", "-3"], "--degree"),
            (["linearize", doc, "--degree", "1"], "--degree"),
            (["newton", doc, "--degree", "1"], "--degree"),
            (["probe", doc, "--start", "3", "--points", "0"], "--points"),
            (["probe", doc, "--start", "3", "--degree", "0"], "--degree"),
            (["vanishing", vanishing, "--smax", "0"], "--smax"),
            (["orbit", doc, "--start", "3", "--precision", "0"], "--precision"),
            (["vanishing", vanishing, "--precision", "-5"], "--precision"),
        ]
        for arguments, location in cases:
            code, data = run_bounded(tmp_path, arguments)
            assert code == 1, arguments
            assert data["error"]["kind"] == "document"
            assert data["error"]["location"] == location

    @pytest.mark.parametrize("command", ["analyze", "linearize", "newton", "eisenstein"])
    def test_degree_above_the_series_ceiling_refused_in_bounded_time(self, tmp_path, command):
        document = sqrt_document() if command == "eisenstein" else doubling_document()
        doc = write_json(tmp_path, "doc.json", document)
        code, data = run_bounded(tmp_path, [command, doc, "--degree", "100000"], seconds=10)
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert data["error"]["location"] == "--degree"
        # one variable: C(1 + d, 1) = d + 1 monomials
        assert data["error"]["message"].endswith(f"largest accepted degree is {SERIES_MAX_MONOMIALS - 1}")

    @pytest.mark.parametrize("command", ["analyze", "linearize"])
    def test_truncation_above_the_series_ceiling_refused_in_bounded_time(self, tmp_path, command):
        # both work at the document's truncation: analyze by default, and
        # linearize where it normalizes the map
        document = dict(doubling_document(), truncation_degree=100_000)
        doc = write_json(tmp_path, "doc.json", document)
        code, data = run_bounded(tmp_path, [command, doc], seconds=10)
        assert code == 1
        assert data["error"]["location"] == "truncation_degree"

    def test_series_ceiling_boundary(self, tmp_path):
        # four variables: C(16, 4) = 1820 and C(17, 4) = 2380 monomials
        doc = write_json(tmp_path, "map.json", symplectic_document())
        code, _ = run_bounded(tmp_path, ["analyze", doc, "--degree", "12"])
        assert code == 0
        code, data = run_bounded(tmp_path, ["analyze", doc, "--degree", "13"])
        assert code == 1
        assert data["error"]["message"].endswith("largest accepted degree is 12")

    def test_smallest_values_accepted(self, tmp_path):
        doc = write_json(tmp_path, "map.json", doubling_document())
        sqrt = write_json(tmp_path, "sqrt.json", sqrt_document())
        cases = [
            ["orbit", doc, "--start", "3", "--steps", "0", "--level", "1", "--precision", "1"],
            ["eisenstein", sqrt, "--degree", "0"],
            ["linearize", doc, "--degree", "2"],
        ]
        for arguments in cases:
            code, _ = run_bounded(tmp_path, arguments)
            assert code == 0, arguments


    @pytest.mark.parametrize(
        "command, field",
        [
            ("analyze", "dimension"),
            ("analyze", "fixed_locus_dim"),
            ("analyze", "truncation_degree"),
            ("orbit", "precision"),
            ("eisenstein", "num_vars"),
            ("eisenstein", "seed_degree"),
            ("vanishing", "precision"),
        ],
    )
    def test_a_boolean_document_field_is_not_an_integer(self, tmp_path, command, field):
        document = {"eisenstein": sqrt_document, "vanishing": vanishing_document}.get(command, doubling_document)()
        document[field] = True
        arguments = [command, write_json(tmp_path, "doc.json", document)]
        code, data = run_bounded(tmp_path, arguments + (["--start", "3"] if command == "orbit" else []))
        assert code == 1
        assert data["error"]["location"] == field
        assert data["error"]["message"] == f"{field}: expected an integer"


class TestVanishing:
    @pytest.mark.parametrize("value", ["x", 2.5, -3, 0])
    def test_document_precision_is_checked(self, tmp_path, value):
        doc = write_json(tmp_path, "inst.json", dict(vanishing_document(), precision=value))
        code, data = run_bounded(tmp_path, ["vanishing", doc, "--smax", "10"])
        assert code == 1
        assert data["error"]["kind"] == "document"
        assert data["error"]["location"] == "precision"

    def test_planted_instance(self, tmp_path):
        doc = write_json(
            tmp_path,
            "inst.json",
            {"coefficients": [3, -2], "units": [2, 3], "prime": 5},
        )
        code, data = run_to_file(tmp_path, ["vanishing", doc, "--smax", "60"])
        assert code == 0
        assert data["report"]["solutions"] == [1]
        assert data["report"]["certificate"]["stabilizing_exponent"] == 4
        assert data["report"]["certificate"]["separating_polynomial"]["verified"]


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, tmp_path):
        doc = write_json(tmp_path, "map.json", symplectic_document())
        _, first = run_to_file(tmp_path, ["analyze", doc, "--degree", "5"], "r1.json")
        _, second = run_to_file(tmp_path, ["analyze", doc, "--degree", "5"], "r2.json")
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_text_format(self, tmp_path, capsys):
        doc = write_json(tmp_path, "map.json", doubling_document())
        code = run(["analyze", doc, "--format", "text"])
        captured = capsys.readouterr()
        assert code == 0
        assert "eigenvalues" in captured.out


@st.composite
def conjugacy_documents(draw):
    """Map documents in 1-3 variables with small rational coefficients: a
    diagonal, resonant, zero or non-diagonal linear part, a fixed locus of
    any dimension, and nonlinear terms that keep the locus fixed."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["diagonal", "resonant", "zero", "non-diagonal"]))
    pool = [2, 3, -2, -5, Fraction(1, 2), Fraction(-3, 7)]
    tail = [draw(st.sampled_from(pool)) for _ in range(n - r)]
    if tail and kind == "resonant":
        # lambda_0^2 = lambda_1, or (-1)^3 = -1 with one transverse variable
        tail[:2] = [Fraction(2), Fraction(4)] if len(tail) > 1 else [Fraction(-1)]
    if tail and kind == "zero":
        tail[draw(st.integers(0, len(tail) - 1))] = Fraction(0)
    lams = [Fraction(1)] * r + [Fraction(x) for x in tail]
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    components = [
        [{"exponents": unit[j], "numerator": lam.numerator, "denominator": lam.denominator}] if lam else []
        for j, lam in enumerate(lams)
    ]
    if kind == "non-diagonal" and r < n and n > 1:
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(r, n - 1).filter(lambda j: j != i))
        components[i].append({"exponents": unit[j], "numerator": draw(st.integers(1, 3))})
    # a term moves no point of the locus when it has a transverse variable
    monomials = [e for e in itertools.product(range(4), repeat=n) if 2 <= sum(e) <= 4 and sum(e[r:]) >= 1]
    if monomials:
        for _ in range(draw(st.integers(0, 4))):
            components[draw(st.integers(0, n - 1))].append(
                {
                    "exponents": list(draw(st.sampled_from(monomials))),
                    "numerator": draw(st.integers(-4, 4)),
                    "denominator": draw(st.sampled_from([1, 2, 3, 7])),
                }
            )
    return {
        "dimension": n,
        "fixed_locus_dim": r,
        "truncation_degree": draw(st.integers(2, 8)),
        "components": components,
    }


class TestConjugacyCommandsFuzz:
    """linearize and newton end every drawn document in one JSON payload,
    with exit 0, 1 or 2, in bounded time."""

    @settings(
        max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        document=conjugacy_documents(),
        command=st.sampled_from(["linearize", "newton"]),
        degree=st.integers(2, 6),
        prime=st.sampled_from([None, 2, 3, 7, 9]),
    )
    def test_every_document_ends_in_one_payload(self, tmp_path, document, command, degree, prime):
        doc = write_json(tmp_path, "fuzz.json", document)
        # linearize takes no --prime
        arguments = [command, doc, "--degree", str(degree)]
        if prime is not None and command == "newton":
            arguments += ["--prime", str(prime)]
        out = tmp_path / "fuzz-out.json"
        out.unlink(missing_ok=True)
        started = time.perf_counter()
        code = run(arguments + ["--out", str(out)])
        assert time.perf_counter() - started < 10
        assert code in (0, 1, 2)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["command"] == command
        assert ("report" in payload) == (code == 0) and ("error" in payload) == (code != 0)


@st.composite
def eisenstein_documents(draw):
    """Root documents in 1-2 variables: a relation of X-degree 1-4 with small
    coefficients, and a seed of degree <= 3 read at a drawn seed degree.
    Half the relations are drawn term by term; the other half are
    (X - psi) G(X) for the seed polynomial psi and a drawn G, so that the
    seed starts a root, or its truncation is close to one."""
    n = draw(st.integers(1, 2))
    monomials = [e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3]
    coefficients = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))

    def polynomial(max_terms):
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), coefficients), max_size=max_terms))
        return {e: c for e, c in terms if c}

    top = draw(st.integers(1, 4))
    psi = polynomial(4)
    if draw(st.booleans()):
        # (X - psi) G(X) with G of X-degree top - 1 and a nonzero lead
        g = {k: polynomial(3) for k in range(top)}
        g[top - 1][(0,) * n] = g[top - 1].get((0,) * n, 0) + 1
        relation = {}
        for k, poly in g.items():
            for e, c in poly.items():
                relation[(e, k + 1)] = relation.get((e, k + 1), 0) + c
                for f, p in psi.items():
                    key = (tuple(a + b for a, b in zip(e, f)), k)
                    relation[key] = relation.get(key, 0) - c * p
    else:
        relation = {(e, k): c for k in range(top + 1) for e, c in polynomial(3).items()}
        relation[((0,) * n, top)] = draw(st.integers(1, 3))

    def record(exps, c):
        return {"exponents": list(exps), "numerator": c.numerator, "denominator": c.denominator}

    return {
        "num_vars": n,
        "relation": [dict(record(e, c), x_power=k) for (e, k), c in relation.items()],
        "seed": [record(e, c) for e, c in psi.items()],
        "seed_degree": draw(st.integers(0, 4)),
    }


class TestEisensteinCommandFuzz:
    """eisenstein ends every drawn document in one JSON payload, with exit
    0, 1 or 2, in bounded time."""

    @settings(
        max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(document=eisenstein_documents(), degree=st.integers(0, 12))
    def test_every_document_ends_in_one_payload(self, tmp_path, document, degree):
        doc = write_json(tmp_path, "fuzz.json", document)
        out = tmp_path / "fuzz-out.json"
        out.unlink(missing_ok=True)
        started = time.perf_counter()
        code = run(["eisenstein", doc, "--degree", str(degree), "--out", str(out)])
        assert time.perf_counter() - started < 10
        assert code in (0, 1, 2)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["command"] == "eisenstein"
        assert ("report" in payload) == (code == 0) and ("error" in payload) == (code != 0)
