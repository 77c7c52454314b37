import json
from fractions import Fraction

from galaxyck.reports import jsonable


class HashableDict(dict):
    """A dict that can be a set member; jsonable renders it as a dict."""

    def __hash__(self):
        return hash(tuple(sorted(self.items())))


def test_set_members_sort_by_their_canonical_json_text():
    # JSON text reorders strings against plain str order: '"a b"' < '"a"'
    # because ' ' < '"', a quote or backslash is escaped, and "é" becomes
    # "\u00e9".  Lists come after strings ('[' > '"'), dicts last, and a
    # dict's key is its text with sorted keys.
    strings = {"a", "a b", 'a"', "\\", "é"}
    assert sorted(strings) == ["\\", "a", "a b", 'a"', "é"]
    assert jsonable(strings) == ["\\", "é", "a b", "a", 'a"']
    mixed = strings | {
        ("a", 1),
        ("a b", Fraction(1, 3)),
        HashableDict(b=1, a=2),
        HashableDict(a=3),
    }
    assert jsonable(frozenset(mixed)) == [
        "\\",
        "é",
        "a b",
        "a",
        'a"',
        ["a b", "1/3"],
        ["a", 1],
        {"b": 1, "a": 2},
        {"a": 3},
    ]
    for value in (strings, mixed, {frozenset({"y", "x"}), frozenset({"x y"}), ("é",), ("\\",)}):
        members = [jsonable(member) for member in value]
        assert jsonable(value) == sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
