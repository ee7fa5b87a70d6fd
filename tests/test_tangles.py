import numpy as np
import pytest

from longmap.errors import BadParameter, ParseError, ValidationError
from longmap.tangles import (
    TangleDiagram,
    WirtingerCode,
    fig8,
    longitude_word,
    parse,
    serialize,
    torus2n,
)


def test_code_validation():
    with pytest.raises(ValidationError):
        WirtingerCode(kappa=(0, 1), eps=(1,))
    with pytest.raises(ValidationError):
        WirtingerCode(kappa=(5,), eps=(1,))
    with pytest.raises(ValidationError):
        WirtingerCode(kappa=(0,), eps=(2,))


def test_writhe():
    assert torus2n(5).code.writhe == 5
    assert torus2n(5, -1).code.writhe == -5
    assert fig8().code.writhe == 0


def test_trefoil_construction():
    d = torus2n(3)
    assert d.code.kappa == (2, 0, 1)
    assert d.code.eps == (1, 1, 1)
    assert d.bridge_arcs == (0, 2)
    assert d.schedule == ((1, 1), (3, 3))
    assert d.residual_crossings == (2,)
    assert not d.terminal_is_initial


def test_torus_code_is_braid_recurrence():
    # arc j carries braid color q_(2j mod n); crossing i relates out-arc i,
    # in-arc i-1 and over-arc kappa(i).  In braid colors the relation must
    # read q_(m+1) = q_m^-1 q_(m-1) q_m with m the over-arc color index.
    for n in (3, 5, 7, 9, 11):
        code = torus2n(n).code
        for i in range(1, n + 1):
            out_q = (2 * i) % n
            in_q = (2 * (i - 1)) % n
            over_q = (2 * code.kappa[i - 1]) % n
            assert (over_q + 1) % n == out_q
            assert (over_q - 1) % n == in_q


def test_fig8_construction():
    d = fig8()
    assert d.code.kappa == (2, 3, 0, 1)
    assert d.code.eps == (1, -1, 1, -1)
    assert d.bridge_arcs == (0, 2)
    assert d.terminal_is_initial
    assert set(d.residual_crossings) == {2, 3}


def _reduce(word):
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def test_longitude_word_fig8():
    w = longitude_word(fig8().code)
    assert w.lead_exponent == 0
    assert w.factors == ((2, 1), (3, -1), (0, 1), (1, -1))


def test_longitude_word_trefoil():
    w = longitude_word(torus2n(3).code)
    assert w.lead_exponent == -3
    assert w.factors == ((2, 1), (0, 1), (1, 1))
    # as a free word with x0 = x1 = x2 it reduces to the identity
    collapsed = [(0, -1)] * 3 + [(0, 1)] * 3
    assert _reduce(collapsed) == ()


def test_schedule_validation():
    code = WirtingerCode(kappa=(1, 2, 0), eps=(1, 1, 1))
    with pytest.raises(ValidationError):
        # duplicate targets
        TangleDiagram(code, bridge_arcs=(0, 2),
                      schedule=((1, 1), (1, 2)))
    with pytest.raises(ValidationError):
        # arc 1 never defined
        TangleDiagram(code, bridge_arcs=(0, 2), schedule=((3, 3),))
    with pytest.raises(ValidationError):
        # crossing 3 cannot define arc 1
        TangleDiagram(code, bridge_arcs=(0, 2),
                      schedule=((1, 3), (3, 3)))


# one input per rule of the walk, in the walk's order; T(2,3) is
# kappa 2,0,1 with bridges 0, 2 and schedule ((1, 1), (3, 3))
@pytest.mark.parametrize("bridges,schedule,message", [
    ((0,), ((1, 1), (3, 3)), r"bridge arcs must be arc 0 followed by an arc "
                             r"in 1\.\.3, not \(0,\)"),
    ((0, 4), ((1, 1), (3, 3)), r"an arc in 1\.\.3, not \(0, 4\)"),
    ((0, 2), ((1, 1), (1, 2)), "schedule targets must be distinct"),
    ((0, 2), ((3, 3),), "must cover exactly the non-seeded arcs"),
    ((0, 2), ((1, 1), (3, 4)), "crossing 4 out of range"),
    ((0, 2), ((1, 3), (3, 3)), "crossing 3 cannot define arc 1"),
    ((0, 2), ((3, 3), (1, 1)),
     r"schedule entry \(3, 3\) references undefined arcs"),
], ids=["bridge-count", "bridge-range", "distinct", "cover", "crossing",
        "adjacent", "undefined"])
def test_each_rule_of_the_walk(bridges, schedule, message):
    code = torus2n(3).code
    with pytest.raises(ValidationError, match=message):
        TangleDiagram(code, bridge_arcs=bridges, schedule=schedule)


# entry 4:4 defines arc 4 under its own over-arc 4, so it reads an arc
# that only it defines; it used to pass, and the solver then read the
# basepoint's word for arc 4
KINK = """tangle n=4
kappa=2,0,1,4
eps=+,+,+,+
bridges=0,2
schedule=1:1;3:3;4:4
"""


def test_an_entry_may_not_read_the_arc_it_defines():
    with pytest.raises(ValidationError,
                       match=r"entry \(4, 4\) references undefined arcs"):
        parse(KINK)
    # the same tangle with arc 4 left to the residual check is fine
    d = parse(KINK.replace(";4:4", "").replace("1,4", "1,0"))
    assert d.residual_crossings == (2, 4) and d.terminal_is_initial


def test_steps_are_resolved_once_and_stay_out_of_eq_and_repr():
    d = fig8()
    assert d.steps() is d.steps()
    same = TangleDiagram(d.code, d.bridge_arcs, d.schedule, d.name)
    assert same == d and hash(same) == hash(d) and repr(same) == repr(d)
    assert "residual" not in repr(d) and "steps" not in repr(d)


@pytest.mark.parametrize("kappa,eps,message", [
    ((2.7, 0, 1), (1, 1, 1), "kappa values must be integers"),
    (("2", 0, 1), (1, 1, 1), "kappa values must be integers"),
    ((2, 0, 1), (1.5, 1, 1), "eps values must be integers"),
    ((2, 0, 1), (1.0, 1, 1), "eps values must be integers"),
], ids=["kappa-float", "kappa-str", "eps-float", "eps-integral-float"])
def test_code_fields_are_not_truncated(kappa, eps, message):
    # int() once turned kappa 2.7 into 2, eps 1.5 into 1 and '2' into 2
    with pytest.raises(ValidationError, match=message):
        WirtingerCode(kappa, eps)


@pytest.mark.parametrize("bridges,schedule,message", [
    ((0, 2.0), ((1, 1), (3, 3)), "bridge arcs must be integers"),
    ((0.0, 2), ((1, 1), (3, 3)), "bridge arcs must be integers"),
    ((0, 2), ((1, 1.5), (3, 3)), "schedule entries must be integers"),
    ((0, 2), ((1, 1), ("3", 3)), "schedule entries must be integers"),
], ids=["seed-float", "basepoint-float", "crossing-float", "arc-str"])
def test_diagram_fields_are_not_truncated(bridges, schedule, message):
    # bridges (0, 2.0) passed and then failed in the solver, and (0.0, 2)
    # serialized as bridges=0.0,2, which parse rejects
    with pytest.raises(ValidationError, match=message):
        TangleDiagram(torus2n(3).code, bridges, schedule)


def test_numpy_integers_are_integers():
    code = WirtingerCode(np.array([2, 0, 1]), np.array([1, 1, 1]))
    d = TangleDiagram(code, np.array([0, 2]), np.array([[1, 1], [3, 3]]),
                      name="torus2n(3,+1)")
    assert d == torus2n(3)
    assert all(type(v) is int for v in (*code.kappa, *d.bridge_arcs))
    assert serialize(d) == serialize(torus2n(3))


def test_bad_torus_params():
    with pytest.raises(BadParameter):
        torus2n(4)
    with pytest.raises(BadParameter):
        torus2n(1)
    with pytest.raises(BadParameter):
        torus2n(5, 2)


# n = 2: the bridges and the terminal arc define every arc, so the
# schedule is empty
EMPTY_SCHEDULE = TangleDiagram(WirtingerCode((1, 0), (1, 1)), (0, 1), ())
# n = 0: no crossing and no bridges, written with empty kappa= and eps=
TRIVIAL = TangleDiagram(WirtingerCode((), ()))


@pytest.mark.parametrize(
    "diagram", [torus2n(3), torus2n(7, -1), fig8(), EMPTY_SCHEDULE, TRIVIAL],
    ids=["t3", "t7m", "fig8", "empty-schedule", "trivial"])
def test_roundtrip(diagram):
    back = parse(serialize(diagram))
    # the name is not written, and is not part of == or hash
    assert back == diagram
    assert hash(back) == hash(diagram)
    assert back.code == diagram.code
    assert back.bridge_arcs == diagram.bridge_arcs
    assert back.schedule == diagram.schedule
    assert back.residual_crossings == diagram.residual_crossings
    assert back.terminal_is_initial == diagram.terminal_is_initial


def test_parse_comments_and_blanks():
    text = """
# trefoil
tangle n=3
kappa=1,2,0   # over-arcs
eps=+,+,+
"""
    d = parse(text)
    assert d.code.n == 3
    assert not d.bridge_arcs


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as ei:
        parse("tangle n=3\nkappa=1,2,0\neps=+,?,+\n")
    assert ei.value.line == 3
    with pytest.raises(ParseError):
        parse("kappa=1,2,0\n")
    with pytest.raises(ParseError):
        parse("tangle n=3\nkappa=1,2,0\neps=+,+,+\ncolor=red\n")
    with pytest.raises(ParseError):
        parse("tangle n=3\nkappa=1,2,0\neps=+,+,+\nschedule=oops\n"
              "bridges=0,2\n")
    # a repeated key once replaced the earlier line
    lines = serialize(fig8()).splitlines(keepends=True)
    for line in lines[1:]:
        key = line.split("=")[0]
        with pytest.raises(ParseError, match=f"repeated key '{key}'") as ei:
            parse("".join(lines) + line)
        assert ei.value.line == len(lines) + 1


_HEAD = "tangle n=3\n"


@pytest.mark.parametrize("text,error,message,line", [
    ("tangle n3\n", ParseError, "malformed tangle header", 1),
    ("# trefoil\ntangle m=3\n", ParseError, "unknown header key 'm'", 2),
    ("tangle n=three\n", ParseError, "bad crossing count 'three'", 1),
    (_HEAD + "kappa=1,2,0\neps\n", ParseError,
     "expected key=value, got 'eps'", 3),
    (_HEAD + "kappa=1,x,0\neps=+,+,+\n", ParseError,
     "kappa entries must be integers", 2),
    (_HEAD + "kappa=1,2,0\neps=+,+,+\n\nbridges=0,two\n", ParseError,
     "bridge entries must be integers", 5),
    ("# only a comment\n\n", ParseError, "missing 'tangle n=<N>' header",
     None),
    (_HEAD + "kappa=1,2,0\n", ParseError, "missing kappa or eps line", None),
    (_HEAD + "eps=+,+,+\n", ParseError, "missing kappa or eps line", None),
    (_HEAD + "kappa=1,2,0\neps=+,+\n", ValidationError,
     "eps has 2 entries, expected 3", None),
], ids=["malformed-header", "header-key", "crossing-count", "no-equals",
        "kappa-int", "bridges-int", "no-header", "no-eps", "no-kappa",
        "eps-count"])
def test_parse_error_messages(text, error, message, line):
    with pytest.raises(error) as ei:
        parse(text)
    want = message if line is None else f"line {line}: {message}"
    assert str(ei.value) == want
    if error is ParseError:
        assert ei.value.line == line


def test_parse_length_mismatch():
    with pytest.raises(ValidationError):
        parse("tangle n=4\nkappa=1,2,0\neps=+,+,+\n")


def test_parse_bridges_without_schedule():
    with pytest.raises(ValidationError):
        parse("tangle n=3\nkappa=1,2,0\neps=+,+,+\nbridges=0,2\n")


def test_parse_requires_two_bridges():
    # a valid schedule for three seeded arcs; the solver seeds only two
    text = ("tangle n=4\nkappa=2,3,0,1\neps=+,-,+,-\nbridges=0,2,4\n"
            "schedule=1:1;3:4\n")
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert ei.value.line == 4
    with pytest.raises(ParseError):
        parse(text.replace("bridges=0,2,4", "bridges=0"))


def test_bridges_start_at_the_basepoint_arc():
    # bridges=2,0 would put the basepoint on arc 2 and the seed on arc 0
    text = serialize(fig8()).replace("bridges=0,2", "bridges=2,0")
    with pytest.raises(ValidationError):
        parse(text)
    d = fig8()
    for bridges in ((2, 0), (0, 0)):
        with pytest.raises(ValidationError):
            TangleDiagram(d.code, bridge_arcs=bridges, schedule=d.schedule)


def test_parse_infers_terminal_identification():
    d = parse(serialize(fig8()))
    assert d.terminal_is_initial


def test_residual_crossings_and_terminal_arc_are_derived():
    # T(2,n) leaves its second bridge's crossing for the residual check
    # and defines the terminal arc; fig8 leaves arc 4 to the basepoint
    for n in range(3, 102, 2):
        for sign in (1, -1):
            for d in (torus2n(n, sign), parse(serialize(torus2n(n, sign)))):
                assert d.residual_crossings == ((n + 1) // 2,)
                assert not d.terminal_is_initial
    for d in (fig8(), parse(serialize(fig8()))):
        assert d.residual_crossings == (2, 3)
        assert d.terminal_is_initial
    assert not TangleDiagram(fig8().code).terminal_is_initial


def test_steps_read_the_crossing_relation_both_ways():
    # fig8 defines arc 1 forward at crossing 1 (from arc 0 under arc 2)
    # and arc 3 backward at crossing 4 (from arc 4 under arc 1, sign
    # flipped from eps(4) = -1)
    assert list(fig8().steps()) == [(1, 0, 2, 1), (3, 4, 1, 1)]
    assert list(torus2n(3, -1).steps()) == [(1, 0, 2, -1), (3, 2, 1, -1)]
