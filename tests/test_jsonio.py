import json

import pytest

from symbidisc import Jacobian2, SymPoint, lift, make_candidate, make_moebius
from symbidisc.jsonio import (
    candidate_from_json,
    complex_from_json,
    complex_to_json,
    dumps,
    g2_from_json,
    g2_to_json,
    jacobian_to_json,
    moebius_from_json,
    moebius_to_json,
    sympoint_from_json,
    sympoint_to_json,
)


class TestComplex:
    def test_roundtrip(self):
        z = 0.3 - 1.7j
        assert complex_from_json(complex_to_json(z)) == z

    def test_real_shorthand(self):
        assert complex_from_json(2.5) == 2.5 + 0j
        assert complex_from_json(-1) == -1 + 0j

    def test_negative_zero_flushed(self):
        assert complex_to_json(complex(-0.0, -0.0)) == {"re": 0.0, "im": 0.0}

    def test_partial_keys_default_to_zero(self):
        assert complex_from_json({"re": 1.0}) == 1.0 + 0j
        assert complex_from_json({"im": 2.0}) == 2.0j

    @pytest.mark.parametrize("bad", [True, "1", [1, 2], {"re": 1, "x": 2}, None,
                                     float("nan"), {"re": 1, "im": float("inf")},
                                     {"re": 10**400}, {"re": None}, {"re": [1]}, {"re": {}},
                                     {"re": "0.5"}, {"re": True}, {"im": False}])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            complex_from_json(bad)


class TestDomainTypes:
    def test_moebius_roundtrip(self):
        h = make_moebius(1j, 0.3 + 0.4j)
        back = moebius_from_json(json.loads(dumps(moebius_to_json(h))))
        assert back == h

    def test_moebius_input_is_validated(self):
        with pytest.raises(ValueError):
            moebius_from_json({"tau": 1, "a": 2})

    @pytest.mark.parametrize("bad", [{"tau": 1}, {"a": 0}, [1, 0]])
    def test_moebius_needs_tau_and_a(self, bad):
        with pytest.raises(ValueError, match="needs keys 'tau' and 'a'"):
            moebius_from_json(bad)

    @pytest.mark.parametrize("bad", [{}, {"tau": 1, "a": 0}, [{"tau": 1, "a": 0}]])
    def test_g2_needs_h(self, bad):
        with pytest.raises(ValueError, match="needs key 'h'"):
            g2_from_json(bad)

    @pytest.mark.parametrize("decode,obj", [
        (sympoint_from_json, {"s": 0, "p": 0, "q": 0}),
        (moebius_from_json, {"tau": 1, "a": 0, "b": 0}),
        (g2_from_json, {"h": {"tau": 1, "a": 0}, "H": 0}),
        (candidate_from_json, {"terms": [], "cap": 4}),
        (candidate_from_json, {"terms": [{"j": 1, "k": 0, "S": 1, "s": 0}]}),
    ], ids=["point", "moebius", "g2", "candidate", "term"])
    def test_unknown_key_raises(self, decode, obj):
        # a mistyped optional key would otherwise be read as its default
        with pytest.raises(ValueError, match=r"^unexpected keys \['\w+'\] in "):
            decode(obj)

    def test_sympoint_roundtrip(self):
        pt = SymPoint(0.9 + 0.3j, 0.2 - 0.1j)
        assert sympoint_from_json(sympoint_to_json(pt)) == pt

    def test_g2_roundtrip(self):
        H = lift(make_moebius(-1, 0.25j))
        assert g2_from_json(g2_to_json(H)) == H

    def test_jacobian_roundtrip(self):
        J = Jacobian2(1, 0.5 - 0.5j, 0, 2j)
        text = ('[[{"re":1.0,"im":0.0},{"re":0.5,"im":-0.5}],'
                '[{"re":0.0,"im":0.0},{"re":0.0,"im":2.0}]]')
        assert dumps(jacobian_to_json(J)) == text
        decoded = [[complex_from_json(z) for z in row] for row in json.loads(text)]
        assert Jacobian2(*decoded[0], *decoded[1]) == J


class TestCandidate:
    def test_roundtrip(self):
        F = make_candidate({(1, 0): (1, 0), (0, 1): (0.5j, 1), (2, 0): (0, 0.3)})
        text = ('{"degree_cap":4,"terms":[{"j":0,"k":1,"S":{"re":0.0,"im":0.5},"P":1},'
                '{"j":1,"k":0,"S":1,"P":0},{"j":2,"k":0,"P":{"re":0.3,"im":0.0}}]}')
        assert candidate_from_json(json.loads(text)) == F

    def test_terms_sorted_in_output(self):
        back = candidate_from_json(json.loads(
            '{"terms":[{"j":2,"k":0,"P":1},{"j":1,"k":0,"S":1},{"j":0,"k":1,"P":1}]}'))
        assert list(back.terms) == [(0, 1), (1, 0), (2, 0)]

    def test_shape_checked(self):
        for bad in ([], {"degree_cap": 4}, {"terms": {}}, {"terms": [[1, 0]]}):
            with pytest.raises(ValueError):
                candidate_from_json(bad)

    def test_rejects_duplicate_monomials(self):
        with pytest.raises(ValueError):
            candidate_from_json({"terms": [
                {"j": 1, "k": 0, "S": 1, "P": 0},
                {"j": 1, "k": 0, "S": 2, "P": 0},
            ]})

    def test_rejects_missing_exponents(self):
        with pytest.raises(ValueError):
            candidate_from_json({"terms": [{"S": 1, "P": 0}]})

    @pytest.mark.parametrize("field,bad", [
        ("j", 1.7), ("j", 1.0), ("j", True), ("k", "1"), ("k", None), ("k", False),
        ("degree_cap", 4.5), ("degree_cap", True),
    ])
    def test_rejects_non_integer_exponents(self, field, bad):
        obj = {"degree_cap": 4, "terms": [{"j": 1, "k": 0, "S": 1, "P": 0},
                                          {"j": 0, "k": 1, "S": 0, "P": 1}]}
        if field == "degree_cap":
            obj["degree_cap"] = bad
        else:
            obj["terms"][0][field] = bad
        with pytest.raises(ValueError):
            candidate_from_json(obj)

    def test_dumps_is_single_line(self):
        assert "\n" not in dumps(jacobian_to_json(Jacobian2(1, 0.5j, 0, 1)))
