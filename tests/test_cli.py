import csv
import io as _pyio
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from inclab import apps, cli, construct, io
from inclab.errors import ValidationError
from inclab.geom import Circle, ImplicitPair, Line, Plane, Point3, Sphere, TriPoly, point


# coordinate fields that are not a JSON array of the right length
MALFORMED_RECORDS = [
    {"kind": "sphere", "center": "123", "radius2": "1"},
    {"kind": "sphere", "center": {"1": 0, "2": 0, "3": 0}, "radius2": "1"},
    {"kind": "sphere", "center": ["1", "2"], "radius2": "1"},
    {"kind": "line", "origin": ["0", "0", "0"], "direction": ["1", "0"]},
    {"kind": "line", "origin": "000", "direction": ["1", "0", "0"]},
    {"kind": "circle", "center": ["0", "0", "0"], "normal": ["0", "0", "1", "0"], "radius2": "1"},
    {"kind": "circle", "center": ["0", "0", "0"], "normal": "001", "radius2": "1"},
    {"kind": "plane", "coeffs": "1234"},
    {"kind": "plane", "coeffs": ["1", "2", "3"]},
]


class TestRationalFormat:
    def test_round_trip(self):
        for x in (F(3), F(-7, 2), F(0), F(22, 7)):
            assert io.parse_rational(io.format_rational(x)) == x

    def test_bad_rational(self):
        with pytest.raises(ValidationError):
            io.parse_rational("1/0")
        with pytest.raises(ValidationError):
            io.parse_rational("abc")


class TestPointsCsv:
    def test_round_trip(self):
        pts = [point(1, F(2, 3), -4), point(0, 0, F(-1, 7))]
        assert io.points_from_csv(io.points_to_csv(pts)) == pts

    def test_header_required(self):
        with pytest.raises(ValidationError):
            io.points_from_csv("1,2,3\n")

    def test_field_over_csv_limit(self):
        with pytest.raises(ValidationError):
            io.points_from_csv("x,y,z\n" + "1" * 200_000 + ",0,0\n")

    def test_deterministic(self):
        pts = construct.gen_random_on_variety("sphere", 8, seed=1).points
        assert io.points_to_csv(pts) == io.points_to_csv(pts)


class TestObjectRecords:
    def test_all_kinds_round_trip(self):
        objects = [
            Plane(F(1), F(-2), F(0), F(5, 3)),
            Sphere(point(1, 2, 3), F(9, 4)),
            Line(point(0, 0, 0), (F(1), F(2), F(-2))),
            Circle(point(1, 0, 0), (F(0), F(0), F(1)), F(4)),
            ImplicitPair(
                TriPoly({(0, 1, 0): F(1), (1, 0, 0): F(-1)}),
                TriPoly({(0, 0, 1): F(1), (2, 0, 0): F(-1), (0, 2, 0): F(-1)}),
            ),
        ]
        text = io.objects_to_json(objects)
        back = io.objects_from_json(text)
        assert back == objects
        assert io.objects_to_json(back) == text

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            io.object_from_record({"kind": "torus"})

    def test_malformed_values(self):
        with pytest.raises(ValidationError):
            io.object_from_record({"kind": "sphere", "center": [0, 0, 0], "radius2": 1})
        with pytest.raises(ValidationError):
            io.object_from_record({"kind": "implicit", "poly": ["1"]})

    @pytest.mark.parametrize("record", MALFORMED_RECORDS)
    def test_malformed_coordinate_fields(self, record):
        with pytest.raises(ValidationError):
            io.object_from_record(record)
        with pytest.raises(ValidationError):
            io.objects_from_json(json.dumps([record]))

    def test_wrong_length_vectors_in_geom(self):
        with pytest.raises(ValidationError):
            Line(point(0, 0, 0), (F(1), F(0)))
        with pytest.raises(ValidationError):
            Circle(point(0, 0, 0), (F(0), F(0), F(1), F(0)), F(1))

    def test_bad_json(self):
        with pytest.raises(ValidationError):
            io.objects_from_json("{not json")


# strings near the edge of `Fraction(s.strip())`'s syntax
_PIECES = ["0", "1", "7", "12", "007", "-", "+", "/", ".", "e", "E", "_", " ", "\t", "\n",
           "\x1c", "\u00a0", "\u3000", "\u0663", "\u096a", "\u00b2", "x", "inf", "nan"]
rational_strings = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=8).map("".join),
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "-", "+"]),
        st.integers(0, 10**30).map(str),
        st.one_of(st.just(""), st.integers(0, 10**6).map("/{}".format)),
        st.sampled_from(["", " ", "\n"]),
    ),
    st.text(max_size=6),
)
json_values = st.one_of(
    rational_strings, st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.just("1"), max_size=3), st.dictionaries(st.just("1"), st.just("1")),
)
# mostly values that parse, so that most whole files parse
field_strings = st.one_of(
    st.integers(-20, 20).map(str),
    st.fractions(max_denominator=9).map(str),
    st.sampled_from(["1.5", "-2e1", "1_0", " 3 ", "+4/6", "\u0663", "1e-2", "0/7", "3 / 4", "1/0"]),
)
radius_strings = st.fractions(min_value=F(1, 9), max_value=20, max_denominator=9).map(str)


def _outcome(parse, *args):
    """The parsed value, or ValidationError if the parser rejects it."""
    try:
        return parse(*args)
    except ValidationError:
        return ValidationError


def _vec(n):
    return st.lists(field_strings, min_size=n, max_size=n)


def _poly():
    keys = st.tuples(*[st.integers(0, 2)] * 3).map(lambda m: "%d,%d,%d" % m)
    return st.dictionaries(keys, field_strings, max_size=3)


object_records = st.one_of(
    st.fixed_dictionaries({"kind": st.just("plane"), "coeffs": _vec(4)}),
    st.fixed_dictionaries({"kind": st.just("sphere"), "center": _vec(3), "radius2": radius_strings}),
    st.fixed_dictionaries({"kind": st.just("implicit"), "poly": _poly()}),
    st.fixed_dictionaries({"kind": st.just("line"), "origin": _vec(3), "direction": _vec(3)}),
    st.fixed_dictionaries({"kind": st.just("circle"), "center": _vec(3), "normal": _vec(3),
                           "radius2": radius_strings}),
    st.fixed_dictionaries({"kind": st.just("implicit_pair"), "f": _poly(), "g": _poly()}),
)


class TestParserDifferential:
    """`io`'s integer fast path and per-file interning against the parsers
    that send every field through `Fraction(s.strip())`."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(json_values)
    @example("3 / 4")
    @example("-3/-4")
    @example("+-3")
    @example("1_000")
    @example("\u0661\u0662")
    @example("1/0")
    @example("1/000")
    @example(" -0/5 ")
    @example("3/04")
    @example("")
    @example(3)
    @example(None)
    def test_parse_rational(self, s):
        got = _outcome(io.parse_rational, s)
        assert got == _outcome(oracle.parse_rational, s)
        assert got is ValidationError or type(got) is F

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(field_strings, field_strings, field_strings), max_size=8))
    @example([(" 7 ", "\u3000-3/4\n", "\x1c12"), ("7", "\r", "-3/4")])
    def test_points_csv(self, rows):
        buf = _pyio.StringIO()
        # "\r\n" makes the writer quote a field holding a bare "\r"
        csv.writer(buf, lineterminator="\r\n").writerows([("x", "y", "z"), *rows])
        text = buf.getvalue()
        assert _outcome(io.points_from_csv, text) == _outcome(oracle.points_from_csv, text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(object_records, max_size=6))
    def test_objects_json(self, records):
        text = json.dumps(records)
        assert _outcome(io.objects_from_json, text) == _outcome(oracle.objects_from_json, text)

    def test_generated_instances(self, tmp_path):
        prefix = str(tmp_path / "ds")
        assert cli.main(["generate", "elekes", "--k", "3", "--out-prefix", prefix]) == 0
        points = (tmp_path / "ds.points.csv").read_text()
        objects = (tmp_path / "ds.objects.json").read_text()
        assert io.points_from_csv(points) == oracle.points_from_csv(points)
        assert io.objects_from_json(objects) == oracle.objects_from_json(objects)


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    @pytest.mark.parametrize("record", MALFORMED_RECORDS)
    def test_count_rejects_malformed_record(self, tmp_path, capsys, record):
        ppath, opath = tmp_path / "p.csv", tmp_path / "o.json"
        ppath.write_text(io.points_to_csv([point(0, 0, 0), point(1, 2, 3)]))
        opath.write_text(json.dumps([record]))
        assert self.run("count", "--points", str(ppath), "--objects", str(opath)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_generate_and_count(self, tmp_path, capsys):
        prefix = str(tmp_path / "e2")
        assert self.run("generate", "elekes", "--k", "2", "--out-prefix", prefix) == 0
        assert self.run(
            "count", "--points", prefix + ".points.csv", "--objects", prefix + ".objects.json"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"incidences": 16}

    def test_generate_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        for p in (p1, p2):
            assert self.run(
                "generate", "variety", "--variety", "sphere", "--n", "6",
                "--seed", "3", "--out-prefix", p,
            ) == 0
        assert (tmp_path / "a.points.csv").read_bytes() == (tmp_path / "b.points.csv").read_bytes()

    def test_verify(self, capsys):
        assert self.run(
            "verify", "--formula", "lines_GK",
            "--params", "m=4096,n=4096,q=4096", "--observed", "0",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound"] == 106496.0 and payload["ratio"] == 0.0

    def test_verify_large_perfect_power_exponent(self, capsys):
        cases = [
            ("PS_planar", "m=1000,n=1000,k=200"),
            ("KST_naive", "m=10,n=1000,k=120"),
            ("rich_points_a", "n=1000,q=10,r=1000,k=60"),
        ]
        for formula, params in cases:
            assert self.run(
                "verify", "--formula", formula, "--params", params, "--observed", "5"
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["bound"] > 0 and payload["formula"] == formula

    def test_verify_bound_overflow_is_validation_error(self, capsys):
        assert self.run(
            "verify", "--formula", "similar_triangles",
            "--params", "n=" + "1" + "0" * 200, "--observed", "5",
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_generate_packing(self, tmp_path, capsys):
        prefix, packed = str(tmp_path / "t"), str(tmp_path / "pk")
        assert self.run("generate", "elekes", "--k", "2", "--out-prefix", prefix) == 0
        assert self.run(
            "generate", "packing", "--points", prefix + ".points.csv",
            "--objects", prefix + ".objects.json", "--copies", "3", "--seed", "1",
            "--out-prefix", packed,
        ) == 0
        assert self.run(
            "count", "--points", packed + ".points.csv", "--objects", packed + ".objects.json"
        ) == 0
        assert json.loads(capsys.readouterr().out) == {"incidences": 3 * 16}

    def test_partition_census(self, tmp_path, capsys):
        prefix = str(tmp_path / "g")
        assert self.run("generate", "elekes", "--k", "2", "--out-prefix", prefix) == 0
        assert self.run(
            "partition", "--points", prefix + ".points.csv",
            "--rounds", "2", "--delta", "1/4", "--seed", "1",
            "--census", "--cross-lines", "2",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["census"].values()) == 16
        assert all(c <= 3 for c in payload["crossings"])  # degree 2 polynomial

    def test_parser_built_once_keeps_no_state(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        prefix = str(tmp_path / "g")
        assert self.run("generate", "elekes", "--k", "2", "--out-prefix", prefix) == 0
        argv = ("partition", "--points", prefix + ".points.csv", "--rounds", "2", "--seed", "1")
        assert self.run(*argv, "--census", "--cross-lines", "2") == 0
        first = json.loads(capsys.readouterr().out)
        assert set(first) == {"partition", "census", "crossings"}
        assert self.run(*argv) == 0
        assert json.loads(capsys.readouterr().out) == {"partition": first["partition"]}

    def test_partition_negative_cross_lines(self, tmp_path, capsys):
        ppath = tmp_path / "p.csv"
        ppath.write_text(io.points_to_csv([point(i, i * i, 1) for i in range(8)]))
        assert self.run(
            "partition", "--points", str(ppath), "--rounds", "1", "--cross-lines", "-3"
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation" and "--cross-lines" in err["message"]

    def test_decompose(self, tmp_path, capsys):
        pts = [point(1, 0, 0), point(0, 1, 0)]
        spheres = [
            Sphere(point(0, 0, 0), F(1)),
            Sphere(point(0, 0, 1), F(2)),
            Sphere(point(0, 0, -2), F(5)),
        ]
        ppath, spath = tmp_path / "p.csv", tmp_path / "s.json"
        ppath.write_text(io.points_to_csv(pts))
        spath.write_text(io.objects_to_json(spheres))
        assert self.run("decompose", "--points", str(ppath), "--surfaces", str(spath)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["J"] == 5 and payload["residual_edges"] == []

    @pytest.mark.parametrize("curve", [
        Line(point(0, 0, 0), (F(1), F(0), F(0))),
        Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(1)),
    ])
    def test_decompose_rejects_curves(self, tmp_path, capsys, curve):
        ppath, spath = tmp_path / "p.csv", tmp_path / "s.json"
        ppath.write_text(io.points_to_csv([point(1, 0, 0)]))
        spath.write_text(io.objects_to_json([curve, Sphere(point(0, 0, 0), F(1))]))
        assert self.run("decompose", "--points", str(ppath), "--surfaces", str(spath)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "planes and spheres" in err["message"]

    def test_triangles(self, tmp_path, capsys):
        pts = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
        ppath = tmp_path / "sq.csv"
        ppath.write_text(io.points_to_csv(pts))
        assert self.run("triangles", "--points", str(ppath), "--shape", "1,2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count_bruteforce"] == 4 and payload["flags"] == []

    def test_triangles_builds_no_witnesses(self, tmp_path, capsys, monkeypatch):
        # t = -1: the pairs (0, 1) and (-2, -3) share an apex circle
        pts = [point(0, 0, 0), point(1, 0, 0), point(-2, 0, 0), point(-3, 0, 0), point(-1, 1, 0)]
        ppath = tmp_path / "line.csv"
        ppath.write_text(io.points_to_csv(pts))
        argv = ("triangles", "--points", str(ppath), "--shape", "2,5")
        assert self.run(*argv) == 0
        expected = capsys.readouterr().out
        payload = json.loads(expected)
        assert payload["circles"] > 0 and payload["max_circle_multiplicity"] == 2

        def refuse(*args, **kwargs):
            raise AssertionError("witness built")

        monkeypatch.setattr(apps, "triangle_circles", refuse)
        monkeypatch.setattr(apps, "Circle", refuse)
        assert self.run(*argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("flag, entries", [
        ("--lines", ["--lines", "1"]),
        ("--point", ["--lines", "1:0", "--point", "1:2:3"]),
        ("--witness", ["--lines", "1:0", "--witness", "1:2"]),
    ])
    def test_generate_paraboloid_rejects_bad_arity(self, tmp_path, capsys, flag, entries):
        argv = ["generate", "paraboloid", *entries, "--out-prefix", str(tmp_path / "pl")]
        assert self.run(*argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and flag in err["message"]
        assert not list(tmp_path.iterdir())

    def test_generate_sphere_zero_radius(self, tmp_path, capsys):
        assert self.run(
            "generate", "variety", "--variety", "sphere", "--n", "3", "--radius2", "0",
            "--out-prefix", str(tmp_path / "z"),
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "radius2" in err["message"]

    def test_distances_modes(self, tmp_path, capsys):
        pts = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
        ppath = tmp_path / "sq.csv"
        ppath.write_text(io.points_to_csv(pts))
        assert self.run("distances", "--points", str(ppath), "--mode", "repeated", "--d2", "2") == 0
        assert json.loads(capsys.readouterr().out)["value"] == 2

    def test_report_fit(self, tmp_path, capsys):
        spath = tmp_path / "s.csv"
        spath.write_text("scale,observed\n8,64\n16,256\n32,1024\n")
        assert self.run("report", "--series", str(spath), "--fit") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fit"]["slope"] == pytest.approx(2.0)

    def test_report_non_integer_row(self, tmp_path, capsys):
        spath = tmp_path / "s.csv"
        spath.write_text("scale,observed\n1,a\n")
        assert self.run("report", "--series", str(spath)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_partition_exhausted_record(self, tmp_path, capsys):
        # two rounds on six points leave cells of 3 that no threshold bisects
        pts = [point(0, 0, 0), point(5, 1, 2), point(-3, 7, 1),
               point(2, -4, 6), point(8, 3, -5), point(-6, -2, 4)]
        ppath = tmp_path / "six.csv"
        ppath.write_text(io.points_to_csv(pts))
        assert self.run("partition", "--points", str(ppath), "--rounds", "2") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "search" and "round 2" in err["message"]
        assert F(err["best_imbalance"]) > F(5, 8)

    def test_validation_exit_code(self, tmp_path, capsys):
        assert self.run(
            "count", "--points", str(tmp_path / "missing.csv"),
            "--objects", str(tmp_path / "missing.json"),
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_output_file_atomic(self, tmp_path, capsys):
        pts = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
        ppath = tmp_path / "sq.csv"
        ppath.write_text(io.points_to_csv(pts))
        out = tmp_path / "result.json"
        assert self.run(
            "distances", "--points", str(ppath), "--mode", "distinct",
            "--output", str(out),
        ) == 0
        assert json.loads(out.read_text())["value"] == 2
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".inclab-")]
        assert leftovers == []
