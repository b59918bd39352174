"""Every public entry that branches on an enum refuses a value that is not
its member (``name_core.enum_member``).

A ``str`` enum member equals its value, so ``"full" == NamePart.FULL``, but
``"full" is NamePart.FULL`` is false: without the check a plain string
takes the other branch with no error.
"""

import ast
import math
from pathlib import Path

import pytest

from gendec.corpus import RawNamePart, char_frequency
from gendec.errors import ConfigError
from gendec.evaluate import extract_texts
from gendec.name_core import (
    Gender, InputVariant, NamePart, NameRecord, NameRole, enum_member, part_text,
)
from gendec.translit import build_reading_dictionary
from gendec.vectorize import TokenizerConfig, Weighting, fit_vocabulary, transform
from tests.conftest import REFERENCE_ROWS

RECORDS = [NameRecord(*row) for row in REFERENCE_ROWS]
READINGS, _ = build_reading_dictionary(RECORDS)
TEXTS = ["tamai kazu", "iwama yuka"]
TFIDF_VOCAB = fit_vocabulary(TEXTS, TokenizerConfig(), Weighting.TFIDF)

# Each public entry called with a plain string where a member belongs; the
# comment gives what the call did before it was refused.
SITES = {
    # returned 'kazu', the given name
    "part_text": (lambda: part_text("Tamai Kazu", "full"), "part", "full"),
    # converted the romaji
    "extract_texts-variant": (
        lambda: extract_texts(RECORDS, NamePart.FULL, "original", READINGS),
        "variant", "original"),
    # took the given name's fallbacks as well as the family name's
    "extract_texts-part": (
        lambda: extract_texts(RECORDS, "last", InputVariant.CONVERTED, READINGS),
        "part", "last"),
    # fitted no idf
    "fit_vocabulary": (lambda: fit_vocabulary(TEXTS, TokenizerConfig(), "tfidf"),
                       "weighting", "tfidf"),
    # returned TF-IDF rows
    "transform": (lambda: transform(TEXTS, TFIDF_VOCAB, "count"), "weighting", "count"),
    # counted family-name kanji
    "char_frequency-part": (lambda: char_frequency(RECORDS, Gender.FEMALE, "first"),
                            "part", "first"),
    # returned []
    "char_frequency-gender": (lambda: char_frequency(RECORDS, "female", NamePart.FIRST),
                              "gender", "female"),
    # accepted a given-name row with no gender
    "RawNamePart-role": (lambda: RawNamePart("Kazu", "かず", "和", None, "given"),
                         "role", "given"),
    # was accepted, and write_raw_csv then raised a raw AttributeError
    "RawNamePart-gender": (lambda: RawNamePart("Yuka", "ゆか", "由花", "female",
                                               NameRole.GIVEN), "gender", "female"),
}
ENUMS = {"part": NamePart, "variant": InputVariant, "weighting": Weighting,
         "gender": Gender, "role": NameRole}


@pytest.mark.parametrize("site", SITES)
def test_plain_string_is_refused(site):
    call, what, value = SITES[site]
    with pytest.raises(ConfigError) as refused:
        call()
    assert str(refused.value) == f"{what} must be a {ENUMS[what].__name__}, got {value!r}"


def test_enum_member_returns_a_member_and_refuses_the_rest():
    assert enum_member(NamePart, NamePart.FULL, "part") is NamePart.FULL
    for value in ("full", InputVariant.ORIGINAL, None):
        with pytest.raises(ConfigError) as refused:
            enum_member(NamePart, value, "part")
        assert str(refused.value) == f"part must be a NamePart, got {value!r}"


SRC = Path(__file__).resolve().parents[1] / "src" / "gendec"


def _public_functions(tree: ast.Module):
    """Public module functions, and public classes' public methods and
    ``__post_init__``, with their qualified names."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and (
                        not method.name.startswith("_") or method.name == "__post_init__"):
                    yield f"{node.name}.{method.name}", method


def _is_member(node: ast.expr) -> bool:
    """``Enum.MEMBER``: an upper-case attribute of a capitalized name."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id[:1].isupper() and node.attr.isupper())


def _enum_tests(function: ast.FunctionDef):
    """(enum, input, line) of each ``<input> is <Enum>.<MEMBER>`` test, and
    the first line of each ``enum_member(<Enum>, <input>, ...)`` call.  The
    inputs are the parameters, and in ``__post_init__`` the ``self.<field>``s."""
    params = {arg.arg for arg in function.args.args + function.args.kwonlyargs} - {"self"}

    def is_input(node: ast.expr) -> bool:
        if function.name == "__post_init__":
            return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "self")
        return isinstance(node, ast.Name) and node.id in params

    tests, checked = [], {}
    for node in ast.walk(function):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "enum_member" and len(node.args) >= 2):
            key = (ast.unparse(node.args[0]), ast.unparse(node.args[1]))
            checked[key] = min(checked.get(key, math.inf), node.lineno)
        elif (isinstance(node, ast.Compare)
              and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
            operands = [node.left, *node.comparators]
            tests += [(ast.unparse(member.value), ast.unparse(value), node.lineno)
                      for member in filter(_is_member, operands)
                      for value in filter(is_input, operands)]
    return tests, checked


def test_every_enum_test_on_an_input_follows_its_check():
    """In a public function, a parameter (or a ``__post_init__`` field) that
    meets ``is <Enum>.<MEMBER>`` has first passed ``enum_member(<Enum>, ...)``."""
    unchecked, guarded = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for name, function in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            tests, checked = _enum_tests(function)
            if tests:
                guarded.add(name)
            unchecked += [f"{path.relative_to(SRC)}:{line} {name}: {value} is {enum}.*"
                          for enum, value, line in tests
                          if checked.get((enum, value), math.inf) > line]
    assert unchecked == []
    # The walk sees the entries it was written for.
    assert {"part_text", "extract_texts", "fit_vocabulary", "transform", "char_frequency",
            "RawNamePart.__post_init__", "PairingConfig.__post_init__"} <= guarded
