"""Instance documents: canonical round trips and located errors."""

import json

import pytest

from smallcover.catalog import catalog, get_entry
from smallcover.errors import InputError
from smallcover.instancefile import emit_instance, parse_instance


def emit_entry(name):
    entry = get_entry(name)
    return emit_instance(entry.name, entry.complex, entry.chi)


class TestRoundTrip:
    def test_emit_parse_emit_is_identity(self):
        for name in ("rp3", "cross3", "deltas0", "gon5", "rp2_6v"):
            text = emit_entry(name)
            K, chi = parse_instance(text)
            again = emit_instance(name, K, chi)
            assert again == text, name

    def test_parse_rp3(self):
        K, chi = parse_instance(emit_entry("rp3"))
        assert K.facets == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert chi.n == 3

    def test_lambda_free_document(self):
        K, chi = parse_instance(emit_entry("rp2_6v"))
        assert chi is None
        assert K.dim == 2

    def test_all_catalog_entries_round_trip(self):
        for name in catalog():
            text = emit_entry(name)
            K, chi = parse_instance(text)
            assert emit_instance(name, K, chi) == text, name


class TestErrors:
    def test_syntax_error_is_located(self):
        with pytest.raises(InputError) as err:
            parse_instance('{"name": "x", ')
        assert "line 1" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(InputError) as err:
            parse_instance(json.dumps({"name": "x"}))
        assert "missing field" in str(err.value)

    def test_bad_lambda_entry(self):
        doc = json.loads(emit_entry("rp2"))
        doc["lambda"][0][0] = 2
        with pytest.raises(InputError) as err:
            parse_instance(json.dumps(doc))
        assert "row 0, column 0" in str(err.value)

    def test_facet_independence_failure_names_facet(self):
        doc = {
            "name": "bad",
            "n": 2,
            "vertices": [1, 2, 3],
            "facets": [[1, 2], [1, 3], [2, 3]],
            "lambda": [[1, 0, 1], [0, 1, 0]],
        }
        with pytest.raises(InputError) as err:
            parse_instance(json.dumps(doc))
        assert "facet (1, 3)" in str(err.value)

    def test_undeclared_facet_vertex(self):
        doc = {
            "name": "bad",
            "n": 1,
            "vertices": [1],
            "facets": [[1, 2]],
            "lambda": [[1]],
        }
        with pytest.raises(InputError):
            parse_instance(json.dumps(doc))

    def test_wrong_row_length(self):
        doc = {
            "name": "bad",
            "n": 1,
            "vertices": [1, 2],
            "facets": [[1], [2]],
            "lambda": [[1]],
        }
        with pytest.raises(InputError):
            parse_instance(json.dumps(doc))


class TestBooleansAreNotIntegers:
    # JSON true/false parse to Python bools, which are ints; the schema's
    # integers must not accept them
    def rp2_doc(self):
        return json.loads(emit_entry("rp2"))

    def rejected(self, doc):
        with pytest.raises(InputError) as err:
            parse_instance(json.dumps(doc))
        return str(err.value)

    def test_n(self):
        doc = self.rp2_doc()
        doc["n"] = True
        assert "field 'n'" in self.rejected(doc)

    def test_vertices(self):
        doc = self.rp2_doc()
        doc["vertices"][0] = True
        assert "field 'vertices'" in self.rejected(doc)

    def test_facet_entries(self):
        doc = self.rp2_doc()
        doc["facets"][0][0] = True
        assert "facet [True, 2]" in self.rejected(doc)

    def test_lambda_entries(self):
        doc = self.rp2_doc()
        doc["lambda"][0][1] = True
        assert "lambda entry at row 0, column 1" in self.rejected(doc)

    def test_boolean_zero_sphere_document(self):
        # read as n = 1 with lambda [[1, 1]], this would be a valid 0-sphere
        doc = {"name": "x", "n": True, "vertices": [1, 2], "facets": [[1], [2]],
               "lambda": [[1, True]]}
        assert "field 'n'" in self.rejected(doc)
        doc["n"] = 1
        assert "lambda entry at row 0, column 1" in self.rejected(doc)
