"""Triple model, three-way indexing, distributed store, schema mappings."""

import pytest

from repro.errors import StorageError
from repro.pgrid import build_network
from repro.triples import (
    DistributedTripleStore,
    MappingCatalog,
    SchemaMapping,
    Triple,
    av_key,
    av_value_range,
    av_string_prefix_range,
    oid_key,
    triples_from_tuple,
    tuple_from_triples,
    v_key,
    v_value_range,
)


class TestTripleModel:
    def test_construction(self):
        t = Triple("a12", "year", 2006)
        assert t.oid == "a12" and t.value == 2006

    def test_rejects_empty_oid_or_attribute(self):
        with pytest.raises(StorageError):
            Triple("", "a", 1)
        with pytest.raises(StorageError):
            Triple("x", "", 1)

    def test_rejects_reserved_characters(self):
        with pytest.raises(StorageError):
            Triple("x", "a", "bad\x01value")
        with pytest.raises(StorageError):
            Triple("x\x02", "a", 1)

    def test_rejects_exotic_value_types(self):
        with pytest.raises(StorageError):
            Triple("x", "a", [1, 2])  # type: ignore[arg-type]
        with pytest.raises(StorageError):
            Triple("x", "a", True)  # bools are not storable values

    def test_namespace_parsing(self):
        t = Triple("x", "dblp:confname", "ICDE")
        assert t.namespace == "dblp"
        assert t.local_name == "confname"
        plain = Triple("x", "confname", "ICDE")
        assert plain.namespace is None
        assert plain.local_name == "confname"

    def test_identity_includes_value(self):
        # Attributes may be multi-valued (Fig. 3 has_published), so two
        # triples differing only in value are distinct facts.
        a = Triple("x", "age", 30)
        b = Triple("x", "age", 31)
        assert a.identity() != b.identity()
        assert a.identity() == Triple("x", "age", 30).identity()

    def test_vertical_decomposition_skips_nulls(self):
        triples = triples_from_tuple("o1", {"a": 1, "b": None, "c": "x"})
        assert {t.attribute for t in triples} == {"a", "c"}

    def test_tuple_roundtrip(self):
        values = {"title": "X", "year": 2007}
        triples = triples_from_tuple("o1", values)
        oid, back = tuple_from_triples(triples)
        assert oid == "o1" and back == values

    def test_recompose_rejects_mixed_oids(self):
        with pytest.raises(StorageError):
            tuple_from_triples([Triple("a", "x", 1), Triple("b", "x", 1)])

    def test_recompose_rejects_empty(self):
        with pytest.raises(StorageError):
            tuple_from_triples([])


class TestIndexKeys:
    def test_index_tags_disjoint(self):
        keys = [oid_key("a"), av_key("a", "b"), v_key("b")]
        tags = {k[:2] for k in keys}
        assert len(tags) == 3

    def test_av_range_numeric_bounds(self):
        kr = av_value_range("year", 2005, 2006, True, False)
        assert kr.contains(av_key("year", 2005))
        assert kr.contains(av_key("year", 2005.5))
        assert not kr.contains(av_key("year", 2006))
        assert not kr.contains(av_key("year", 2004))

    def test_av_range_inclusive_high(self):
        kr = av_value_range("year", None, 2006, True, True)
        assert kr.contains(av_key("year", 2006))
        assert not kr.contains(av_key("year", 2007))

    def test_av_range_excludes_other_attributes(self):
        kr = av_value_range("year", None, None)
        assert not kr.contains(av_key("years", 2005))
        assert not kr.contains(av_key("yea", 2005))

    def test_av_inclusive_string_bound_excludes_extensions(self):
        kr = av_value_range("name", None, "ab", True, True)
        assert kr.contains(av_key("name", "ab"))
        assert not kr.contains(av_key("name", "ab\x03"))
        assert not kr.contains(av_key("name", "abc"))

    def test_av_prefix_range(self):
        kr = av_string_prefix_range("confname", "ICDE")
        assert kr.contains(av_key("confname", "ICDE 2006"))
        assert kr.contains(av_key("confname", "ICDE"))
        assert not kr.contains(av_key("confname", "VLDB 2006"))

    def test_v_range_mixed_types(self):
        kr = v_value_range(low=0, high=None)
        assert kr.contains(v_key(5))
        assert kr.contains(v_key("anything"))  # strings sort above numbers
        assert not kr.contains(v_key(-3))


class TestDistributedStore:
    @pytest.fixture()
    def store(self):
        pnet = build_network(16, replication=2, seed=44, split_by="population")
        return DistributedTripleStore(pnet)

    def test_figure2_posting_count(self, store):
        """Figure 2: two 3-attribute tuples produce 18 postings."""
        store.insert_tuple("a12", {"title": "Similarity...",
                                   "confname": "ICDE 2006 - WS", "year": 2006})
        store.insert_tuple("v34", {"title": "Progressive...",
                                   "confname": "ICDE 2005", "year": 2005})
        distinct = {(e.key, e.item_id) for p in store.pnet.peers for e in p.store}
        assert len(distinct) == 18

    def test_by_oid_reassembles_tuple(self, store):
        store.insert_tuple("a12", {"title": "T", "year": 2006})
        triples, _trace = store.by_oid("a12")
        _oid, values = tuple_from_triples(triples)
        assert values == {"title": "T", "year": 2006}

    def test_av_exact(self, store):
        store.insert(Triple("x", "year", 2005))
        store.insert(Triple("y", "year", 2006))
        triples, _trace = store.by_attribute_value("year", 2005)
        assert [t.oid for t in triples] == ["x"]

    def test_v_index_finds_unknown_attribute(self, store):
        store.insert(Triple("x", "confname", "ICDE 2005"))
        store.insert(Triple("y", "series", "ICDE 2005"))
        triples, _trace = store.by_value("ICDE 2005")
        assert sorted(t.attribute for t in triples) == ["confname", "series"]

    def test_attribute_range(self, store):
        for oid, year in [("a", 2004), ("b", 2005), ("c", 2006), ("d", 2007)]:
            store.insert(Triple(oid, "year", year))
        triples, _trace, complete = store.attribute_range("year", 2005, 2006)
        assert complete
        assert sorted(t.oid for t in triples) == ["b", "c"]

    def test_attribute_prefix(self, store):
        store.insert(Triple("a", "confname", "ICDE 2006 - WS"))
        store.insert(Triple("b", "confname", "ICDE 2005"))
        store.insert(Triple("c", "confname", "VLDB 2005"))
        triples, _trace, _complete = store.attribute_prefix("confname", "ICDE")
        assert sorted(t.oid for t in triples) == ["a", "b"]

    def test_value_prefix_across_attributes(self, store):
        store.insert(Triple("a", "confname", "ICDE 2005"))
        store.insert(Triple("b", "series", "ICDE"))
        triples, _trace, _complete = store.value_prefix("ICDE")
        assert sorted(t.oid for t in triples) == ["a", "b"]

    def test_update_value_moves_index_postings(self, store):
        original = Triple("a12", "year", 2006)
        store.insert(original)
        updated, _trace = store.update_value(original, 2007)
        assert updated.value == 2007
        old_hits, _ = store.by_attribute_value("year", 2006)
        new_hits, _ = store.by_attribute_value("year", 2007)
        assert old_hits == [] and [t.oid for t in new_hits] == ["a12"]
        by_oid, _ = store.by_oid("a12")
        assert [t.value for t in by_oid] == [2007]

    def test_delete_removes_all_postings(self, store):
        t = Triple("a", "k", "v")
        store.insert(t)
        store.delete(t)
        assert store.by_oid("a")[0] == []
        assert store.by_attribute_value("k", "v")[0] == []
        assert store.by_value("v")[0] == []

    def test_int_and_integral_float_values_are_one_triple(self):
        # Triple equality treats 1 and 1.0 as the same value, so they must
        # share one item id: stored once per key, and one delete removes it.
        store = DistributedTripleStore(build_network(8, replication=2, seed=3))
        store.insert(Triple("o", "a", 1))
        store.insert(Triple("o", "a", 1.0))
        ids_by_key: dict[str, set[str]] = {}
        for peer in store.pnet.peers:
            for entry in peer.store:
                ids_by_key.setdefault(entry.key, set()).add(entry.item_id)
        assert {oid_key("o"), av_key("a", 1), v_key(1)} <= set(ids_by_key)
        assert all(len(ids) == 1 for ids in ids_by_key.values())
        store.delete(Triple("o", "a", 1.0))
        assert store.by_oid("o")[0] == []
        assert store.by_attribute_value("a", 1)[0] == []
        assert store.by_value(1)[0] == []

    def test_bulk_insert_equivalent_to_routed(self, store):
        triples = [Triple(f"o{i}", "n", i) for i in range(10)]
        store.bulk_insert(triples)
        for i in range(10):
            hits, _ = store.by_attribute_value("n", i)
            assert [t.oid for t in hits] == [f"o{i}"]

    def test_qgram_postings_require_enabled_index(self, store):
        with pytest.raises(StorageError):
            store.qgram_postings("abc")

    def test_qgram_postings_when_enabled(self):
        pnet = build_network(8, replication=1, seed=45, split_by="population")
        store = DistributedTripleStore(pnet, enable_qgram_index=True)
        store.insert(Triple("a", "series", "ICDE"))
        triples, _trace = store.qgram_postings("CDE")
        assert [t.oid for t in triples] == ["a"]


class TestMappings:
    @pytest.fixture()
    def catalog(self):
        pnet = build_network(16, replication=2, seed=46, split_by="population")
        return MappingCatalog(DistributedTripleStore(pnet))

    def test_add_and_resolve_both_directions(self, catalog):
        catalog.add(SchemaMapping("dblp:title", "ilm:papertitle", 0.9))
        forward, _ = catalog.equivalents("dblp:title")
        backward, _ = catalog.equivalents("ilm:papertitle")
        assert forward == backward
        assert forward[0].confidence == pytest.approx(0.9)

    def test_confidence_filter(self, catalog):
        catalog.add(SchemaMapping("a", "b", 0.4))
        weak, _ = catalog.equivalents("a", min_confidence=0.5)
        strong, _ = catalog.equivalents("a", min_confidence=0.3)
        assert weak == [] and len(strong) == 1

    def test_expansions_exclude_self(self, catalog):
        catalog.add(SchemaMapping("a", "b"))
        catalog.add(SchemaMapping("c", "a"))
        names, _ = catalog.expansions("a")
        assert sorted(names) == ["b", "c"]

    def test_bulk_add(self, catalog):
        catalog.bulk_add([SchemaMapping("x", "y"), SchemaMapping("y", "z")])
        names, _ = catalog.expansions("y")
        assert sorted(names) == ["x", "z"]

    def test_unknown_attribute_has_no_mappings(self, catalog):
        names, _ = catalog.expansions("never-mapped")
        assert names == []
