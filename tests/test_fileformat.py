import random

import pytest
from hypothesis import given, settings, strategies as st

from starsemi import (
    FormatError, INVOLUTION, RawStructure, StructureError, parse_structure, serialize_structure,
    validate_structure,
)
from starsemi.fileformat import load_structure
from starsemi.sampling import random_model

from conftest import STRUCTURES
from support import EXAMPLE2_MULT, EXAMPLE2_STAR


def test_parse_example2_file(example2_path):
    raw = load_structure(example2_path)
    assert raw.n == 5
    assert raw.mult == EXAMPLE2_MULT
    assert raw.star == EXAMPLE2_STAR
    assert raw.labels == ("a", "b", "c", "d", "f")
    assert raw.leq == tuple(tuple(i == j for j in range(5)) for i in range(5))


def test_closure_applied_to_leq_pairs():
    raw = parse_structure("n 3\nmult\n0 0 0\n0 0 0\n0 0 0\nleq\n0 <= 1\n1 <= 2\n")
    assert raw.leq[0][2] and raw.leq[0][0]  # transitive and reflexive closure


def test_cycle_rejected_with_witness():
    text = "n 2\nlabels p q\nmult\np p\np p\nleq\np <= q\nq <= p\n"
    with pytest.raises(FormatError) as err:
        parse_structure(text, source="cyc.txt")
    assert "cycle" in str(err.value) and "p" in str(err.value) and "q" in str(err.value)
    assert "cyc.txt:" in str(err.value)


def test_comments_and_blank_lines_ignored():
    text = """
# heading comment
n 2   # trailing comment
mult
0 0   # row comment
0 1

leq
0 <= 1
"""
    raw = parse_structure(text)
    assert raw.mult == ((0, 0), (0, 1))
    assert raw.leq[0][1]


def test_default_labels_and_missing_star():
    raw = parse_structure("n 2\nmult\n0 0\n0 1\n")
    assert raw.labels is None and raw.star is None
    S, report = validate_structure(raw)
    assert INVOLUTION not in report.accepted


def test_star_defaults_to_fixed_points():
    raw = parse_structure("n 3\nmult\n0 0 0\n0 0 0\n0 0 0\nstar\n1 -> 2\n2 -> 1\n")
    assert raw.star == (0, 2, 1)


@pytest.mark.parametrize("text,needle", [
    ("", "empty"),
    ("mult\n0\n", "first line"),
    ("n x\n", "bad element count"),
    ("n 25\n", "element count must be at most 24"),
    ("n 2\nmult\n0 0\n", "needs 2 rows"),
    ("n 2\nmult\n0 0 0\n0 0\n", "3 entries"),
    ("n 2\nmult\n0 0\n0 9\n", "unknown element label"),
    ("n 2\nlabels a\nmult\na a\na a\n", "expected 2 labels"),
    ("n 2\nleq\n0 <= 1\n", "missing mult"),
    ("n 2\nmult\n0 0\n0 0\nmult\n0 0\n0 0\n", "duplicate"),
    ("n 2\nmult\n0 0\n0 0\nleq\n0 < 1\n", "expected 'x <= y'"),
    ("n 2\nmult\n0 0\n0 0\nstar\n0 => 1\n", "expected 'x -> y'"),
    ("n 2\nmult\n0 0\n0 0\nstar\n0 -> 1\n1 -> 1\n", "bijection"),
    ("n 2\nmult\n0 0\n0 0\nstar\n0 -> 1\n0 -> 0\n", "mapped twice"),
    ("n 2\nlabels mult x\nmult\nx x\nx x\n", "keyword"),
    ("n 2\nwhat\n", "unknown section"),
])
def test_parse_errors(text, needle):
    with pytest.raises(FormatError) as err:
        parse_structure(text)
    assert needle in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(FormatError) as err:
        parse_structure("n 2\nmult\n0 0\n0 7\n", source="f.txt")
    assert str(err.value).startswith("f.txt:4:")


def test_a_large_element_count_is_refused_on_its_line():
    # refused before the star section would build a list of n entries or
    # the pairs be looked up among n default labels
    with pytest.raises(FormatError) as err:
        parse_structure("n 1000000\nstar\n0 -> 1\nleq\n0 <= 1\n", source="big.txt")
    assert str(err.value) == "big.txt:1: element count must be at most 24, got 1000000"


@pytest.mark.parametrize("section", ["mult\n0 0 0\n0 0 0\n0 0 0\n", "leq\n0 <= 1\n",
                                     "star\n0 -> 1\n1 -> 0\n"])
def test_labels_after_a_section_that_names_elements_are_refused(section):
    # read after the section, the labels would rename the elements it named
    text = "n 3\n" + section + "labels 2 1 0\n"
    with pytest.raises(FormatError) as err:
        parse_structure(text, source="late.txt")
    line = 2 + section.count("\n")
    assert str(err.value) == f"late.txt:{line}: labels must come before mult, leq and star"


def test_labels_before_the_sections_name_their_elements():
    raw = parse_structure("n 3\nlabels 2 1 0\nleq\n0 <= 1\nstar\n2 -> 1\n1 -> 2\n"
                          "mult\n0 0 0\n0 0 0\n0 0 0\n")
    # the label 0 is element 2 and the label 1 element 1
    assert raw.leq[2][1] and not raw.leq[0][1]
    assert raw.star == (1, 0, 2)
    text = serialize_structure(raw)
    assert "0 <= 1" in text and "2 -> 1" in text
    assert parse_structure(text) == raw


def test_serializer_emits_transitive_reduction():
    raw = parse_structure("n 3\nmult\n0 0 0\n0 0 0\n0 0 0\nleq\n0 <= 1\n1 <= 2\n0 <= 2\n")
    text = serialize_structure(raw)
    assert "0 <= 1" in text and "1 <= 2" in text
    assert "0 <= 2" not in text  # implied pair omitted


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 9))
def test_round_trip_is_semantic_identity(seed):
    S = random_model(random.Random(seed), 8)
    raw2 = parse_structure(serialize_structure(S))
    assert raw2.mult == S.raw.mult
    assert raw2.leq == S.raw.leq
    assert raw2.star == S.raw.star
    S2, _ = validate_structure(raw2)
    assert S2.tiers == S.tiers


def test_round_trip_example2(example2_path):
    raw = load_structure(example2_path)
    assert parse_structure(serialize_structure(raw)) == raw


@pytest.mark.parametrize("keyword", ["n", "labels", "mult", "leq", "star"])
def test_a_section_keyword_is_refused_as_a_label(keyword):
    # the parser refuses such a label, so the structure could not be read back
    message = f"label '{keyword}' collides with a section keyword"
    with pytest.raises(StructureError, match=f"^{message}$"):
        RawStructure(n=2, mult=((0, 0), (0, 1)), leq=((True, True), (False, True)),
                     labels=(keyword, "b"))
    text = f"n 2\nlabels {keyword} b\nmult\n{keyword} {keyword}\n{keyword} b\n"
    with pytest.raises(FormatError, match=message):
        parse_structure(text)


def test_the_labels_of_every_shipped_structure_round_trip():
    for path in sorted(STRUCTURES.glob("*.txt")):
        raw = load_structure(path)
        labels = tuple(raw.label(x) for x in range(raw.n))  # 0..n-1 where the file has none
        again = parse_structure(serialize_structure(raw))
        assert again.labels == labels
        assert (again.mult, again.leq, again.star) == (raw.mult, raw.leq, raw.star)
        assert RawStructure(n=raw.n, mult=raw.mult, leq=raw.leq, star=raw.star,
                            labels=labels) == again
