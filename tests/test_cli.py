import contextlib
import csv
import io as _pyio
import json
import os
import stat
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from inclab import apps, cli, construct, engine, geom, io
from inclab.errors import ValidationError
from inclab.geom import (
    Circle, Implicit, ImplicitPair, Line, Plane, Point3, Sphere, TriPoly, point,
)
from test_engine import incidence_instances


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


# a point field: fresh, or one of a few arrays that files then repeat
_SHARED_POINTS = [["0", "0", "0"], ["1", "-2", "3/4"], [" 1", "-2", "3/4"], ["1.5", "0", "1/0"]]
_point_field = st.one_of(st.sampled_from(_SHARED_POINTS).map(list), _vec(3))

object_records = st.one_of(
    st.fixed_dictionaries({"kind": st.just("plane"), "coeffs": _vec(4)}),
    st.fixed_dictionaries({"kind": st.just("sphere"), "center": _point_field,
                           "radius2": radius_strings}),
    st.fixed_dictionaries({"kind": st.just("implicit"), "poly": _poly()}),
    st.fixed_dictionaries({"kind": st.just("line"), "origin": _point_field, "direction": _vec(3)}),
    st.fixed_dictionaries({"kind": st.just("circle"), "center": _point_field, "normal": _vec(3),
                           "radius2": radius_strings}),
    st.fixed_dictionaries({"kind": st.just("implicit_pair"), "f": _poly(), "g": _poly()}),
)


MALFORMED_POINT_FIELDS = [
    ["1", "2", "3", "4"], ["1", "2"], ["1", 2, "3"], [["1"], "2", "3"], ["1", ["2"], "3"],
    [{"1": "1"}, "2", "3"], {"1": "0", "2": "0", "3": "0"}, "123", None, ["1", "2", "x"],
]


def _point_field_files(field, valid_first: bool) -> list[str]:
    """An objects file per kind with a point field: the field in a record,
    after a record with a valid array of the same strings if valid_first."""
    texts = []
    for kind, key in [("sphere", "center"), ("line", "origin"), ("circle", "center")]:
        def record(value):
            return {"kind": kind, key: value, "radius2": "1",
                    "direction": ["1", "0", "0"], "normal": ["0", "0", "1"]}

        records = [record(["1", "2", "3"])] if valid_first else []
        texts.append(json.dumps([*records, record(field)]))
    return texts


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

    def test_repeated_centres_share_one_point(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        p1.write_text(io.points_to_csv([point(0, 0, 0), point(1, 1, 2), point(-1, 2, 5)]))
        p2.write_text(io.points_to_csv([point(3, 0, 1), point(F(1, 2), -1, 0)]))
        prefix = str(tmp_path / "ds")
        assert cli.main(["generate", "distance-spheres", "--points", str(p1),
                         "--points2", str(p2), "--out-prefix", prefix]) == 0
        text = (tmp_path / "ds.objects.json").read_text()
        spheres = io.objects_from_json(text)
        assert spheres == oracle.objects_from_json(text)
        centres = {id(s.center) for s in spheres}
        assert len(spheres) > len(centres) == 2
        line = {"kind": "line", "origin": ["3", "0", "1"], "direction": ["1", "0", "0"]}
        circle = {"kind": "circle", "center": ["3", "0", "1"], "normal": ["0", "0", "1"],
                  "radius2": "2"}
        objects = io.objects_from_json(json.dumps([*json.loads(text), line, circle]))
        assert objects[-1].center is objects[-2].origin is objects[0].center

    # each malformed point field, alone and after a valid array of the
    # same strings
    @pytest.mark.parametrize("field", MALFORMED_POINT_FIELDS)
    @pytest.mark.parametrize("valid_first", [False, True])
    def test_malformed_point_field_first_or_repeated(self, field, valid_first):
        for text in _point_field_files(field, valid_first):
            with pytest.raises(ValidationError):
                io.objects_from_json(text)

    def test_generated_instances(self, tmp_path):
        prefix = str(tmp_path / "ds")
        assert cli.main(["generate", "elekes", "--k", "3", "--out-prefix", prefix]) == 0
        points = (tmp_path / "ds.points.csv").read_text()
        objects = (tmp_path / "ds.objects.json").read_text()
        assert io.points_from_csv(points) == oracle.points_from_csv(points)
        assert io.objects_from_json(objects) == oracle.objects_from_json(objects)


def _csv(rows, header=("x", "y", "z")) -> str:
    buf = _pyio.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _respell(s: str, how: int) -> str:
    """A rational string as `io` writes it, spelled another way that
    `Fraction(s.strip())` reads as the same value."""
    value = F(s)
    if how == 1:
        return f"{2 * value.numerator}/{2 * value.denominator}"
    if how == 2:
        return f" {s}\t"
    if how == 3 and value.denominator == 1:
        return f"{value.numerator}.0"
    if how == 4 and value > 0:
        return f"+{s}"
    return s


def _respelled(value, rnd, spelling: dict):
    """A record tree with its rational strings respelled at random: each
    string mostly one way throughout (`spelling`), so that repeated fields
    stay repeated, and sometimes another way."""
    if type(value) is list:
        return [_respelled(v, rnd, spelling) for v in value]
    if type(value) is dict:
        return {k: v if k == "kind" else _respelled(v, rnd, spelling) for k, v in value.items()}
    how = spelling.setdefault(value, rnd.randrange(5))
    return _respell(value, how if rnd.random() < 0.8 else rnd.randrange(5))


# radii^2 over a prime above the instances' denominators (at most 12)
OFF_FRAME_RADII = st.builds(F, st.integers(1, 60), st.sampled_from([13, 17, 19]))


@st.composite
def count_files(draw):
    """Points and objects of every kind (`test_engine.incidence_instances`:
    mixed denominators, objects through chosen points, duplicates), with
    more spheres around the centres of spheres and circles: through a point,
    just off one, or with a radius^2 that is mostly not an integer in the
    frame.  They are written to files whose rationals are spelled several
    ways."""
    pts, objs = draw(incidence_instances())
    anchors = [o.origin if isinstance(o, Line) else o.center
               for o in objs if isinstance(o, (Sphere, Circle, Line))]
    _, den = geom.integer_coords([*pts, *anchors])
    for obj in list(objs):
        if isinstance(obj, (Sphere, Circle)):
            through = geom.dist2(obj.center, draw(st.sampled_from(pts)))
            # just off a point: den^2 r^2 falls 1/13 past an integer
            off = through + F(1, 13 * den * den)
            for r2 in draw(st.lists(st.sampled_from([through, off]) | OFF_FRAME_RADII,
                                    max_size=2)):
                if r2 > 0:
                    objs.append(Sphere(obj.center, r2))
    rnd, spelling = draw(st.randoms(use_true_random=False)), {}
    points_text = _csv(_respelled([io._point_field(p) for p in pts], rnd, spelling))
    objects_text = json.dumps(_respelled([io.object_to_record(o) for o in objs], rnd, spelling))
    return pts, objs, points_text, objects_text


def _count(points_text: str, objects_text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `inclab count` on the two texts."""
    out, err = _pyio.StringIO(), _pyio.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        ppath, opath = os.path.join(tmp, "p.csv"), os.path.join(tmp, "o.json")
        with open(ppath, "w") as fh:
            fh.write(points_text)
        with open(opath, "w") as fh:
            fh.write(objects_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["count", "--points", ppath, "--objects", opath])
    return rc, out.getvalue(), err.getvalue()


def _count_through_objects(points_text: str, objects_text: str) -> tuple[int, str, str]:
    """What `inclab count` writes, from `io.points_from_csv`,
    `io.objects_from_json` and the all-pairs oracle."""
    try:
        pts = io.points_from_csv(points_text)
        objs = io.objects_from_json(objects_text)
    except ValidationError as exc:
        return 1, "", json.dumps({"error": "validation", "message": str(exc)}) + "\n"
    return 0, io.dumps_json({"incidences": len(oracle.incidence_edges(pts, objs))}), ""


class TestCountReader:
    """`inclab count` reads its files straight into integer rows; it must
    count what the all-pairs oracle counts on the parsed objects and refuse
    what `io.points_from_csv` and `io.objects_from_json` refuse, with the
    same message, points first."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(count_files())
    def test_count_matches_all_pairs_oracle(self, files):
        pts, objs, points_text, objects_text = files
        assert io.points_from_csv(points_text) == pts
        assert io.objects_from_json(objects_text) == objs
        want = io.dumps_json({"incidences": len(oracle.incidence_edges(pts, objs))})
        assert _count(points_text, objects_text) == (0, want, "")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(field_strings, field_strings, field_strings), max_size=4),
           st.sampled_from([("x", "y", "z"), (" x", "y ", "z"), ("x", "y")]),
           st.lists(object_records, max_size=6))
    def test_count_refuses_what_the_parsers_refuse(self, rows, header, records):
        points_text, objects_text = _csv(rows, header), json.dumps(records)
        assert _count(points_text, objects_text) == _count_through_objects(points_text, objects_text)

    @pytest.mark.parametrize("field", MALFORMED_POINT_FIELDS)
    @pytest.mark.parametrize("valid_first", [False, True])
    def test_count_refuses_malformed_point_field(self, field, valid_first):
        points_text = _csv([("1", "2", "3")])
        for objects_text in _point_field_files(field, valid_first):
            got = _count(points_text, objects_text)
            assert got[0] == 1
            assert got == _count_through_objects(points_text, objects_text)

    @pytest.mark.parametrize("objects_text", [
        "{not json", "{}", "[1]", '[{"kind": "torus"}]', '[{"kind": "sphere"}]',
        '[{"kind": "implicit", "poly": {"0,0,0": "1"}}]',
        '[{"kind": "implicit", "poly": {"-1,0,0": "1"}}]',
        '[{"kind": "implicit_pair", "f": {"1,0,0": "2"}, "g": {"1,0,0": "-4/3"}}]',
        '[{"kind": "implicit_pair", "f": {}, "g": {"1,0,0": "1"}}]',
        '[{"kind": "plane", "coeffs": ["0", "0", "0", "1"]}]',
        '[{"kind": "sphere", "center": ["0", "0", "0"], "radius2": "0"}]',
        '[{"kind": "line", "origin": ["0", "0", "0"], "direction": ["0", "0/3", "0"]}]',
        '[{"kind": "circle", "center": ["0", "0", "0"], "normal": ["0", "0", "0"], '
        '"radius2": "0"}]',
        '[{"kind": "circle", "center": ["0", "0", "0"], "normal": ["0", "0", "1"], '
        '"radius2": "-1/2"}]',
    ])
    def test_count_refuses_malformed_record(self, objects_text):
        for points_text in (_csv([("1", "2", "3")]), "1,2,3\n"):
            got = _count(points_text, objects_text)
            assert got[0] == 1
            assert got == _count_through_objects(points_text, objects_text)

    def test_count_of_implicit_terms_that_cancel(self):
        # "1,0,0" and "01,0,0" name one monomial; the later value, 0, drops it,
        # and a negative exponent on a zero coefficient is dropped with it
        points_text = _csv([("0", "0", "1"), ("0", "0", "2"), ("1", "0", "1")])
        objects_text = json.dumps([{"kind": "implicit", "poly": {
            "1,0,0": "1", "0,0,1": "1", "01,0,0": "0", "-1,0,0": "0/5", "0,0,0": "-1"}}])
        assert _count(points_text, objects_text) == (0, '{\n  "incidences": 2\n}\n', "")
        assert _count(points_text, objects_text) == _count_through_objects(
            points_text, objects_text)

    def test_count_builds_no_geometric_object(self, tmp_path, capsys, monkeypatch):
        p1 = [point(0, 0, 0), point(1, 1, 2), point(-1, 2, 5), point(F(1, 2), 0, 1)]
        p2 = [point(3, 0, 1), point(F(1, 2), -1, 0)]
        (tmp_path / "p1.csv").write_text(io.points_to_csv(p1))
        (tmp_path / "p2.csv").write_text(io.points_to_csv(p2))
        prefix = str(tmp_path / "ds")
        assert cli.main(["generate", "distance-spheres", "--points", str(tmp_path / "p1.csv"),
                         "--points2", str(tmp_path / "p2.csv"), "--out-prefix", prefix]) == 0
        capsys.readouterr()

        def refuse(self):
            raise AssertionError(f"inclab count built a {type(self).__name__}")

        monkeypatch.setattr(geom.Sphere, "__post_init__", refuse)
        monkeypatch.setattr(geom.Point3, "__post_init__", refuse)
        assert cli.main(["count", "--points", prefix + ".points.csv",
                         "--objects", prefix + ".objects.json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"incidences": len(p1) * len(p2)}


# strings the JSON writer must escape: quotes, backslashes, control and
# non-ASCII characters, a lone surrogate
_JSON_TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "a", "\u00e9",
                              "\u2028", "\U0001f600", "\ud800"]), max_size=6).map("".join),
)
json_trees = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), st.integers(-10**200, 10**200), st.booleans(),
              st.none(), st.floats()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
        # non-str keys: json converts them, and raises TypeError on a mix it cannot sort
        st.dictionaries(st.one_of(st.integers(-3, 3), st.none(), st.booleans()), children,
                        max_size=3),
    ),
    max_leaves=24,
)
_rationals = st.one_of(st.integers(-10**30, 10**30), st.fractions(),
                       st.fractions(max_denominator=10**12))
_small_coords = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_small_points = st.lists(st.tuples(_small_coords, _small_coords, _small_coords).map(
    lambda t: point(*t)), max_size=5, unique=True)


def _dumped(dump, value):
    """The JSON text, or TypeError if the writer rejects the value."""
    try:
        return dump(value)
    except TypeError:
        return TypeError


class TestWriterDifferential:
    """`io`'s writers against `csv.writer`, `json.dumps` and `Fraction(x)`,
    and the integer distance-sphere family against the `Fraction` one."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_trees)
    @example({"incidences": 3})
    @example({"b": [1, {"c": [], "a": {}}], "": ["x", -7]})
    @example([True, 1, None, 1.5])
    @example({1: "x", 2: ["y"]})
    @example({"k": None})
    @example({1: 0, "1": 1})
    def test_dumps_json(self, value):
        def reference(v):
            return json.dumps(v, indent=2, sort_keys=True) + "\n"

        assert _dumped(io.dumps_json, value) == _dumped(reference, value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_rationals, st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(["3/6", " -4 ", "1.25", "-0", "7e3"])))
    def test_format_rational(self, x):
        assert io.format_rational(x) == oracle.format_rational(x)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_rationals, _rationals, _rationals).map(lambda t: point(*t)),
                    max_size=8))
    def test_points_csv(self, pts):
        assert io.points_to_csv(pts) == oracle.points_to_csv(pts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(object_records, max_size=6))
    def test_objects_json(self, records):
        objects = _outcome(io.objects_from_json, json.dumps(records))
        if objects is not ValidationError:
            assert io.objects_to_json(objects) == oracle.objects_to_json(objects)

    def test_objects_json_every_kind(self):
        poly = TriPoly({(0, 1, 0): F(1), (1, 0, 0): F(-1, 3), (0, 0, 0): 5})
        quadric = TriPoly({(0, 0, 1): 1, (2, 0, 0): -1, (0, 2, 0): F(-10**20, 7)})
        objects = [
            Plane(F(1), F(-2), F(0), F(5, 3)), Plane(1, -2, 0, 4),
            Sphere(point(1, F(-2, 9), 3), F(9, 4)), Sphere(point(0, 0, 0), 2),
            Implicit(quadric),
            Line(point(0, 0, F(1, 2)), (F(1), F(2), F(-2))), Line(point(1, 2, 3), [0, -1, 7]),
            Circle(point(1, 0, 0), (F(0), F(0), F(1)), F(4)), Circle(point(0, 0, 0), [1, 1, 0], 3),
            ImplicitPair(poly, quadric),
        ]
        lift = construct.gen_paraboloid_lift([(1, 2), (F(-1, 2), 0)], [(1, 0, F(2, 3))])
        for objs in (objects, [], lift.curves + lift.surfaces,
                     construct.gen_elekes_grid(2).curves):
            assert io.objects_to_json(objs) == oracle.objects_to_json(objs)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_small_points, _small_points)
    def test_distance_spheres(self, p1, p2):
        got = _outcome(construct.gen_distance_spheres, p1, p2)
        assert got == _outcome(oracle.gen_distance_spheres, p1, p2)
        if got is not ValidationError:
            assert io.objects_to_json(got[0]) == oracle.objects_to_json(got[0])

    def test_atomic_write_large(self, tmp_path):
        text = "".join(f"{i},\u00e9{i},\U0001f600\n" for i in range(12_000))
        assert len(text.encode()) > 64 * 1024
        path = tmp_path / "big.txt"
        path.write_text("old")
        io.atomic_write(str(path), text)
        assert path.read_bytes() == text.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["big.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)],
                             ids=["022", "027", "077"])
    def test_atomic_write_mode_follows_umask(self, tmp_path, umask, mode):
        # a new file and a replaced one get 0o666 under the umask, as open() gives
        new, kept = tmp_path / "new.json", tmp_path / "kept.json"
        kept.write_text("old")
        kept.chmod(0o644)
        old = os.umask(umask)
        try:
            io.atomic_write(str(new), "{}\n")
            io.atomic_write(str(kept), "{}\n")
        finally:
            os.umask(old)
        for path in (new, kept):
            assert path.read_text() == "{}\n"
            assert stat.S_IMODE(path.stat().st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "new.json"]

    def test_atomic_write_failure_leaves_no_temp(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        (target / "x").write_text("")
        with pytest.raises(OSError):  # os.replace cannot put a file over a directory
            io.atomic_write(str(target), "x" * 70_000)
        path = tmp_path / "kept.txt"
        path.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            io.atomic_write(str(path), "\ud800")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "kept.txt"]


_O, _A = point(0, 0, 0), point(1, 0, 0)
# (files written to the test's directory, argv with {dir} for that
# directory, a piece of the validation message)
BAD_INPUTS = {
    "report-fit-zero-scale": (
        {"s.csv": "scale,observed\n0,1\n1,2\n2,3\n"},
        ["report", "--series", "{dir}/s.csv", "--fit"], "scales must be positive"),
    "bipartite-overlap": (
        {"p1.csv": io.points_to_csv([_O]), "p2.csv": io.points_to_csv([_O, _A])},
        ["distances", "--points", "{dir}/p1.csv", "--points2", "{dir}/p2.csv",
         "--mode", "bipartite"], "P1 and P2 must be disjoint"),
    "bipartite-without-points2": (
        {"p1.csv": io.points_to_csv([_O])},
        ["distances", "--points", "{dir}/p1.csv", "--mode", "bipartite"],
        "bipartite mode needs --points2"),
    "triangles-one-shape-field": (
        {"p.csv": io.points_to_csv([_O, _A, point(0, 1, 0)])},
        ["triangles", "--points", "{dir}/p.csv", "--shape", "1"], "--shape expects rho1,rho2"),
    "verify-param-without-value": (
        {}, ["verify", "--formula", "lines_GK", "--params", "m4", "--observed", "3"],
        "bad --params entry"),
    "report-one-field-row": (
        {"s.csv": "scale,observed\n8\n"}, ["report", "--series", "{dir}/s.csv"],
        "series row needs scale,observed"),
    "unit-spheres-duplicate-points": (
        {"p.csv": io.points_to_csv([_O, _A, _O])},
        ["generate", "unit-spheres", "--points", "{dir}/p.csv", "--out-prefix", "{dir}/u"],
        "points must be distinct"),
    "packing-equal-template-circles": (
        {"p.csv": io.points_to_csv([_A]),
         "o.json": io.objects_to_json([Circle(_O, (0, 0, 1), 1), Circle(_O, (0, 0, 2), 1)])},
        ["generate", "packing", "--points", "{dir}/p.csv", "--objects", "{dir}/o.json",
         "--copies", "1", "--out-prefix", "{dir}/k"], "template objects must be distinct"),
    "packing-duplicate-template-points": (
        {"p.csv": io.points_to_csv([_A, _A]),
         "o.json": io.objects_to_json([Circle(_O, (0, 0, 1), 1)])},
        ["generate", "packing", "--points", "{dir}/p.csv", "--objects", "{dir}/o.json",
         "--copies", "2", "--out-prefix", "{dir}/k"], "template points must be distinct"),
    "paraboloid-duplicate-points": (
        {}, ["generate", "paraboloid", "--lines", "1:2", "--point", "0:0", "0:0",
             "--out-prefix", "{dir}/pl"], "points must be distinct"),
    "paraboloid-repeated-witness": (
        {}, ["generate", "paraboloid", "--lines", "1:2", "--witness", "0:0:1", "0:0:1",
             "--out-prefix", "{dir}/pl"], "quadrics must be distinct"),
    "paraboloid-zero-witnesses": (
        {}, ["generate", "paraboloid", "--lines", "1:2", "3:4", "--witness", "0:0:0",
             "--out-prefix", "{dir}/pl"], "quadrics must be distinct"),
    "distance-spheres-duplicate-points2": (
        {"p1.csv": io.points_to_csv([_O]), "p2.csv": io.points_to_csv([_A, _A])},
        ["generate", "distance-spheres", "--points", "{dir}/p1.csv", "--points2",
         "{dir}/p2.csv", "--out-prefix", "{dir}/d"], "points must be distinct"),
    "decompose-duplicate-points": (
        {"p.csv": io.points_to_csv([point(1, 0, 0), point(1, 0, 0), point(0, 1, 0)]),
         "s.json": io.objects_to_json([Sphere(_O, 1), Plane(0, 0, 1, 0)])},
        ["decompose", "--points", "{dir}/p.csv", "--surfaces", "{dir}/s.json"],
        "points must be distinct"),
    "verify-degree-plan": (
        {}, ["verify", "--formula", "degree_plan", "--observed", "3"],
        "invalid choice: 'degree_plan'"),
    "output-in-missing-directory": (
        {"p.csv": io.points_to_csv([_O, _A])},
        ["distances", "--points", "{dir}/p.csv", "--mode", "distinct",
         "--output", "{dir}/missing/out.json"], "cannot write {dir}/missing/out.json"),
    "out-prefix-in-missing-directory": (
        {}, ["generate", "elekes", "--k", "2", "--out-prefix", "{dir}/missing/e"],
        "cannot write {dir}/missing/e.points.csv"),
}


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

    def test_count_builds_no_incidence_graph(self, tmp_path, capsys, monkeypatch):
        def graph(*_):
            raise AssertionError("inclab count needs only the number")

        monkeypatch.setattr(engine, "count_incidences", graph)
        prefix = str(tmp_path / "e2")
        assert self.run("generate", "elekes", "--k", "2", "--out-prefix", prefix) == 0
        assert self.run(
            "count", "--points", prefix + ".points.csv", "--objects", prefix + ".objects.json"
        ) == 0
        assert capsys.readouterr().out == '{\n  "incidences": 16\n}\n'

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
        assert payload["sense"] == "upper" and payload["flag"] is False

    def test_verify_lower_bound(self, capsys):
        for observed, flag in (("2526", False), ("1", True)):
            assert self.run(
                "verify", "--formula", "dd_variety", "--params", "n=960", "--observed", observed,
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["sense"] == "lower" and payload["flag"] is flag

    def test_verify_degree_plan_exits_1(self, capsys):
        assert self.run(
            "verify", "--formula", "degree_plan", "--params", "m=500,n=900,k=2", "--observed", "5"
        ) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "validation"

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

    def test_distances_bipartite(self, tmp_path, capsys):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text(io.points_to_csv([_O]))
        p2.write_text(io.points_to_csv([_A, point(0, 2, 0), point(0, 0, -1)]))
        assert self.run(
            "distances", "--points", str(p1), "--points2", str(p2), "--mode", "bipartite"
        ) == 0
        assert json.loads(capsys.readouterr().out) == {"mode": "bipartite", "value": 2}

    @pytest.mark.parametrize("files, argv, message", BAD_INPUTS.values(), ids=BAD_INPUTS)
    def test_bad_input_exits_1_with_record(self, tmp_path, capsys, files, argv, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert self.run(*(a.format(dir=tmp_path) for a in argv)) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "validation"
        assert message.format(dir=tmp_path) in record["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    def test_output_directory_exits_1_with_record(self, tmp_path, capsys):
        # os.replace cannot put the written file over a directory
        ppath, target = tmp_path / "p.csv", tmp_path / "out"
        ppath.write_text(io.points_to_csv([_O, _A]))
        target.mkdir()
        (target / "kept").write_text("old")
        assert self.run(
            "distances", "--points", str(ppath), "--mode", "distinct", "--output", str(target)
        ) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "validation"
        assert record["message"].startswith(f"cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "p.csv"]
        assert [p.name for p in target.iterdir()] == ["kept"]

    def test_distances_repeated_duplicate_points(self, tmp_path, capsys):
        ppath = tmp_path / "dup.csv"
        ppath.write_text(io.points_to_csv([point(0, 0, 0), point(1, 0, 0), point(1, 0, 0)]))
        assert self.run("distances", "--points", str(ppath), "--mode", "repeated", "--d2", "1") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "validation", "message": "points must be distinct"}

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

    def test_partition_duplicate_points(self, tmp_path, capsys):
        ppath = tmp_path / "same.csv"
        ppath.write_text(io.points_to_csv([point(1, F(1, 2), -3)] * 4))
        assert self.run("partition", "--points", str(ppath), "--rounds", "2") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "validation", "message": "points must be distinct"}

    @pytest.mark.parametrize("argv", [
        ("verify", "--formula", "bad", "--observed", "3"),
        ("count", "--points", "p.csv"),
        ("partition", "--points", "p.csv", "--rounds", "two"),
        ("bogus",),
        (),
    ], ids=["bad-choice", "missing-required", "non-int", "unknown-command", "no-command"])
    def test_usage_error_exits_1_with_record(self, capsys, argv):
        assert self.run(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "validation" and record["message"].startswith("inclab")
        assert len(err.splitlines()) == 1

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["count", "--help"]):
            with pytest.raises(SystemExit) as exc:
                self.run(*argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: inclab")

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
