"""CLI and JSON schema coverage: round trips, validation exit codes, and the
determinism of seeded property reports."""

import hashlib
import json
from fractions import Fraction

import pytest

from gradalg import (GradedMatrix, GroupElement, SchemaError,
                     identity_matrix, quaternion_units, scalar_mul, zero_matrix)
from gradalg.cli import main
from gradalg.jsonio import (algebra_from_json, algebra_to_json, canonical_json,
                            element_from_json, element_to_json, matrix_digest,
                            matrix_from_json, matrix_to_json)
from gradalg.randgen import random_matrix

from reference_data import rank_even, unit_pattern_1111


@pytest.fixture
def identity_file(tmp_path, H):
    X = identity_matrix(H, rank_even((1, 1, 1, 1)))
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(matrix_to_json(X)))
    return str(path)


class TestJsonRoundTrips:
    def test_algebra(self, EH):
        assert algebra_from_json(algebra_to_json(EH)) == EH

    def test_element(self, EH):
        i, j, k = quaternion_units(EH)
        a = EH.scalar(Fraction(3, 7)) + i * 2 + EH.odd_generator(1) * k * 5
        assert element_from_json(element_to_json(a)) == a

    def test_matrix(self, H, rng):
        X = random_matrix(rng, H, rank_even((0, 2, 1, 1)))
        assert matrix_from_json(matrix_to_json(X)) == X

    def test_even_half_ranks_accepted(self, H):
        X = identity_matrix(H, rank_even((1, 1, 1, 1)))
        obj = matrix_to_json(X)
        obj["ranks"] = [1, 1, 1, 1]
        assert matrix_from_json(obj) == X

    def test_digest_stability(self, H, rng):
        X = random_matrix(rng, H, rank_even((1, 1, 1, 1)))
        assert matrix_digest(X) == matrix_digest(X)

    def test_schema_errors(self, H):
        with pytest.raises(SchemaError):
            matrix_from_json({"ranks": [1], "degree": [0], "entries": []})
        with pytest.raises(SchemaError):
            algebra_from_json({"p": 1})
        with pytest.raises(SchemaError):
            matrix_from_json({"algebra": {"p": 0, "q": 2}, "ranks": [1, 1, 1],
                              "degree": [0, 0, 0], "entries": []})

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None],
                             ids=["fraction", "float", "bool", "string", "null"])
    @pytest.mark.parametrize("field", ["mask", "theta", "num", "den", "p", "q"])
    def test_integer_fields_reject_non_integers(self, EH, field, bad):
        # int() would have truncated 1.5 to 1 and loaded a different matrix
        X = identity_matrix(EH, rank_even((1, 1, 1, 1)))
        obj = matrix_to_json(X)
        if field in ("p", "q"):
            obj["algebra"][field] = bad
        else:
            obj["entries"][0][0][0][field] = bad
        with pytest.raises(SchemaError, match=f'"{field}" must be a JSON integer'):
            matrix_from_json(obj)

    def test_non_integer_numerator_exits_2(self, tmp_path, H, capsys):
        obj = matrix_to_json(identity_matrix(H, rank_even((1, 1, 1, 1))))
        obj["entries"][0][0][0]["num"] = 1.5
        path = tmp_path / "fraction.json"
        path.write_text(json.dumps(obj))
        assert main(["gdet", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"num" must be a JSON integer' in captured.err

    def test_homogeneity_validated_on_load(self, H, units):
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        grid = identity_matrix(H, rk).grid()
        grid[0][0] = i
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)
        from gradalg import HomogeneityError
        with pytest.raises(HomogeneityError):
            matrix_from_json(matrix_to_json(X))


class TestSubcommands:
    def test_gdet_identity(self, identity_file, capsys):
        assert main(["gdet", "--input", identity_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gdet"] == {"terms": [{"den": 1, "mask": 0, "num": 1}]}

    def test_gtr_identity(self, identity_file, capsys):
        assert main(["gtr", "--input", identity_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gtr"]["terms"] == [{"den": 1, "mask": 0, "num": 4}]

    def test_gdet_routes_agree(self, identity_file, capsys):
        main(["gdet", "--input", identity_file, "--route", "udl"])
        udl = json.loads(capsys.readouterr().out)
        main(["gdet", "--input", identity_file, "--route", "ldu"])
        ldu = json.loads(capsys.readouterr().out)
        assert udl["gdet"] == ldu["gdet"]

    def test_strict_rejects_bad_dimension(self, tmp_path, H, units, capsys):
        i, _, _ = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 0, 0))))
        path = tmp_path / "odd_r2.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        assert main(["gdet", "--input", str(path), "--strict"]) == 4
        assert "DimensionNotAdmissible" in capsys.readouterr().err

    def test_lax_computes_bad_dimension(self, tmp_path, H, units, capsys):
        i, _, _ = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 0, 0))))
        path = tmp_path / "odd_r2.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        with pytest.warns(UserWarning):
            assert main(["gdet", "--input", str(path), "--lax"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gdet"]["terms"] == [{"den": 1, "mask": 0, "num": -1}]

    def test_schema_violation_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["gdet", "--input", str(path)]) == 2

    def test_missing_file_exit(self, tmp_path):
        assert main(["gdet", "--input", str(tmp_path / "nope.json")]) == 2

    def test_homogeneity_violation_exit(self, tmp_path, H, units):
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        grid = identity_matrix(H, rk).grid()
        grid[0][0] = i
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)
        path = tmp_path / "inhomogeneous.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        assert main(["gtr", "--input", str(path)]) == 3

    def test_gdet_coeffs(self, tmp_path, H, capsys):
        pattern = unit_pattern_1111(H)
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(matrix_to_json(pattern)))
        assert main(["gdet-coeffs", "--pattern", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["coefficients"]) == 24
        by_perm = {tuple(row["perm"]): row["coeff"]["terms"]
                   for row in out["coefficients"]}
        assert by_perm[(0, 1, 2, 3)] == [{"den": 1, "mask": 0, "num": 1}]

    def test_gdet_coeffs_zero_pattern(self, tmp_path, H, capsys):
        # every coefficient of the zero pattern is 0; none needs sampling
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(matrix_to_json(zero_matrix(H, rank_even((1, 1, 0, 0))))))
        assert main(["gdet-coeffs", "--pattern", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["perm"] for row in out["coefficients"]] == [[0, 1], [1, 0]]
        assert all(row["coeff"] == {"terms": []} for row in out["coefficients"])

    def test_gdet_coeffs_normalized(self, tmp_path, H, capsys):
        pattern = unit_pattern_1111(H)
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(matrix_to_json(pattern)))
        assert main(["gdet-coeffs", "--pattern", str(path), "--normalized"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["normalized"] is True
        by_perm = {tuple(row["perm"]): row["coeff"]["terms"]
                   for row in out["coefficients"]}
        # row-major abstract signs: the swap of the last two indices is -1
        assert by_perm[(0, 1, 3, 2)] == [{"den": 1, "mask": 0, "num": -1}]

    def test_gdet_coeffs_normalized_runs_the_oracle_once(self, tmp_path, H, capsys,
                                                         monkeypatch):
        from gradalg import determinant
        calls = []
        original = determinant.multilinear_coefficients

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(determinant, "multilinear_coefficients", counted)
        monkeypatch.setattr("gradalg.cli.multilinear_coefficients", counted)
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(matrix_to_json(unit_pattern_1111(H))))
        assert main(["gdet-coeffs", "--pattern", str(path), "--normalized"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_gber_over_extension_ring(self, tmp_path, EH, capsys):
        from gradalg import RankVector
        from gradalg.randgen import random_invertible
        import random as _random
        rk = RankVector(3, (1, 1, 1, 1, 1, 1, 0, 0))
        X = random_invertible(_random.Random(5), EH, rk)
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        code = main(["gber", "--input", str(path)])
        assert code in (0, 4)  # 4 only for a non-regular corner
        if code == 0:
            out = json.loads(capsys.readouterr().out)
            assert "gber" in out

    def test_bad_ranks_exit(self, capsys):
        assert main(["check", "--property", "udl", "--trials", "1",
                     "--ranks", "1,1,1"]) == 2

    def test_liouville_needs_degree_zero(self, tmp_path, H, units, capsys):
        i, _, _ = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 1, 1))))
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        assert main(["liouville", "--input", str(path)]) == 4

    def test_gber_and_ddet(self, identity_file, capsys):
        assert main(["gber", "--input", identity_file]) == 0
        assert json.loads(capsys.readouterr().out)["gber"] == {
            "terms": [{"den": 1, "mask": 0, "num": 1}]}
        assert main(["ddet", "--input", identity_file]) == 0
        assert json.loads(capsys.readouterr().out)["ddet_squared"] == {
            "num": 1, "den": 1}

    def test_ddet_of_zero_matrix(self, tmp_path, H, capsys):
        X = scalar_mul(H.zero(), identity_matrix(H, rank_even((1, 1, 1, 1))))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(matrix_to_json(X)))
        assert main(["ddet", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ddet_squared"] == {
            "num": 0, "den": 1}

    def test_liouville(self, identity_file, capsys):
        assert main(["liouville", "--input", identity_file, "--order", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "PASS"
        assert out["lhs"] == out["rhs"]


class TestCheckCommand:
    @pytest.mark.parametrize("prop", ["multiplicativity", "heredity",
                                      "homological", "dieudonne", "udl"])
    def test_properties_pass(self, prop, capsys):
        assert main(["check", "--property", prop, "--trials", "3",
                     "--seed", "42", "--ranks", "1,1,1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert [t["index"] for t in report["trials"]] == [0, 1, 2]

    def test_liouville_property(self, capsys):
        assert main(["check", "--property", "liouville", "--trials", "2",
                     "--seed", "9", "--ranks", "1,1,1,1"]) == 0

    def test_documented_invocation(self, capsys):
        assert main(["check", "--property", "multiplicativity", "--trials",
                     "10", "--seed", "42", "--ranks", "1,1,1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["trials"]) == 10 and report["all_pass"]

    def test_seed_determinism(self, capsys):
        main(["check", "--property", "multiplicativity", "--trials", "4",
              "--seed", "13", "--ranks", "0,2,1,1"])
        first = capsys.readouterr().out
        main(["check", "--property", "multiplicativity", "--trials", "4",
              "--seed", "13", "--ranks", "0,2,1,1"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("prop,ranks,digest", [
        ("multiplicativity", "1,1,1,1",
         "5f1a10589a761b6cdbd63024c46b90454268a08aa6102867237caefd9fa38956"),
        ("heredity", "1,1,1,1",
         "73ebd6a06eaae88b82ae252402497e18b2cc5d4efc213d2ad3c2e29550461257"),
        ("homological", "1,1,1,1",
         "736ae838c01f3f12ff31ae428b33cc330159ac25402562b44df997632f845def"),
        ("liouville", "1,1,1,1",
         "c86f32bf4603a771d7626e07b9a112cf704cfa00d89a6849055e5fd08a8e1fd4"),
        ("dieudonne", "1,1,1,1",
         "7d2c195e2d79da168008c8e480d027e24010b426c7400fd56297dfab2fff4acc"),
        ("udl", "1,1,1,1",
         "127300652b736b541b8b30c3eade58513e04d48acfbe29fbac23ce64397704b3"),
        ("multiplicativity", "0,2,1,1",
         "8b44c6a6461c11389083ab5f52e50bc338cb20d6ca43d777788598418bae4e7d"),
        ("heredity", "0,2,1,1",
         "9a00cf3f53bedb395b6ff75ef6aa2b86b12df83ef7148f71fbedf4a73b46449e"),
        ("homological", "0,2,1,1",
         "63de52a1f9615aaa2e032c23f25f799d468fb497aa396646a6d5ba4b32ff5b27"),
        ("liouville", "0,2,1,1",
         "1edef570eab780882e92896173e2f57ce3f26cb4045bc538c330e142237188e5"),
        ("dieudonne", "0,2,1,1",
         "46bb28557d42cc023ed78018097fa8174922f25a7bfd0b1537c03c21addf825e"),
        ("udl", "0,2,1,1",
         "a7d586c564f06cee26b8a148b9ae00ad356f28c722460990674b109d7b654e72"),
    ])
    def test_pinned_report(self, prop, ranks, digest, capsys):
        # SHA-256 of the whole report: any change to a sampled input, to the
        # order of rng draws or to a verdict shows here
        main(["check", "--property", prop, "--trials", "4", "--seed", "42",
              "--ranks", ranks])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sampler_is_bounded(self, capsys, monkeypatch):
        from gradalg import determinant
        from gradalg.errors import RegularityError
        calls = []

        def never_regular(X):
            calls.append(1)
            if len(calls) > 5000:
                raise AssertionError("retry loop is unbounded")
            raise RegularityError("stub")

        monkeypatch.setattr(determinant, "gdet0", never_regular)
        monkeypatch.setattr("gradalg.cli.gdet0", never_regular, raising=False)
        assert main(["check", "--property", "multiplicativity", "--trials", "1",
                     "--seed", "3"]) == 4
        assert len(calls) == 500
        err = capsys.readouterr().err
        assert "multiplicativity" in err and "500 draws" in err

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GRADALG_SEED", "321")
        main(["check", "--property", "udl", "--trials", "2", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 321

    def test_property_failure_exit(self, capsys, monkeypatch):
        from gradalg import cli as climod

        def failing(rng, alg, ranks):
            from gradalg.randgen import random_matrix
            return False, (random_matrix(rng, alg, ranks),)

        monkeypatch.setitem(climod._TRIALS, "udl", failing)
        assert main(["check", "--property", "udl", "--trials", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["all_pass"] is False

    def test_internal_error_exit(self, capsys, monkeypatch):
        from gradalg import cli as climod

        def broken(rng, alg, ranks):
            raise RuntimeError("stub bug")

        monkeypatch.setitem(climod._TRIALS, "udl", broken)
        assert main(["check", "--property", "udl", "--trials", "1"]) == 5
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("internal error: RuntimeError: stub bug\n")

    @pytest.mark.parametrize("prop,ranks,trials", [
        ("multiplicativity", "1,1,1,1", "0"), ("udl", "1,1,1,1", "-3"),
        ("udl", "0,0,0,0", "1"), ("homological", "1,0,0,0", "1"),
        ("heredity", "0,0,0,0", "1"), ("homological", "0,0,0,0", "1")])
    def test_degenerate_input_is_schema_error(self, prop, ranks, trials, capsys):
        assert main(["check", "--property", prop, "--trials", trials,
                     "--ranks", ranks]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("schema error:")

    def test_report_is_canonical_json(self, capsys):
        main(["check", "--property", "udl", "--trials", "1", "--seed", "5"])
        raw = capsys.readouterr().out
        assert raw == canonical_json(json.loads(raw)) + "\n"
