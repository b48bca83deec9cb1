"""Synthetic workloads.

The paper's demonstration domain is "data about contacts and publications"
following the Figure-3 schema (Person / Publication / Conference / Research
Area).  :class:`ConferenceWorkload` generates that domain with seedable
sizes, Zipf-skewed conference popularity, and optional typo injection (so
similarity predicates have something to find).  :func:`zipf_values` /
:func:`skewed_strings` provide raw skewed key sets for the load-balancing
experiment (E3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.triples.triple import Value

#: Conference series of the evaluation domain (paper's own venue included).
SERIES = ["ICDE", "VLDB", "SIGMOD", "EDBT", "CIKM", "P2P", "ICDCS", "NETDB"]

#: Research areas for interested_in / classified_in edges (Fig. 3).
AREAS = [
    "distributed systems",
    "query processing",
    "data integration",
    "overlay networks",
    "information retrieval",
    "ranking",
]

# fmt: off
_SYLLABLES = [
    "ka", "ri", "mo", "ta", "el", "an", "so", "ve", "li", "du",
    "ha", "no", "pe", "su", "mi", "ro", "ba", "ce", "wi", "ju",
]
# fmt: on

# fmt: off
_TITLE_WORDS = [
    "similarity", "queries", "structured", "overlays", "skyline",
    "processing", "distributed", "storage", "universal", "triple",
    "routing", "cost", "aware", "adaptive", "indexing", "search",
    "progressive", "ranking", "heterogeneous", "schema",
]
# fmt: on


def zipf_cumulative(n_items: int, s: float) -> list[float]:
    """Normalized cumulative rank weights of a Zipf(s) distribution.

    The shared inverse-CDF table behind :func:`zipf_values` and the
    workload drivers' key popularity (:mod:`repro.load.drivers`).
    ``s == 0`` degenerates to uniform.
    """
    if n_items < 1:
        raise ValueError("need at least one item")
    weights = [1.0 / (rank**s) if s > 0 else 1.0 for rank in range(1, n_items + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    return cumulative


def zipf_rank(cumulative: list[float], u: float) -> int:
    """Rank index whose cumulative weight first reaches ``u`` (binary search)."""
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def zipf_values(rng: random.Random, n_items: int, count: int, s: float) -> list[int]:
    """``count`` samples from a Zipf(s) distribution over ``n_items`` ranks.

    Implemented by inverse-CDF over the normalized rank weights (exact, no
    rejection), deterministic per rng.
    """
    cumulative = zipf_cumulative(n_items, s)
    return [zipf_rank(cumulative, rng.random()) for _ in range(count)]


def skewed_strings(count: int, s: float, seed: int = 0, alphabet_size: int = 26) -> list[str]:
    """Random 8-letter strings whose *first letters* follow Zipf(s).

    Because P-Grid's hash is order preserving, first-letter skew translates
    directly into key-space density skew — the stress case of experiment E3.
    """
    rng = random.Random(seed)
    firsts = zipf_values(rng, alphabet_size, count, s)
    result = []
    for first in firsts:
        rest = "".join(chr(ord("a") + rng.randrange(26)) for _ in range(7))
        result.append(chr(ord("a") + first) + rest)
    return result


def poisson_arrivals(rng: random.Random, rate: float, horizon: float) -> list[float]:
    """Arrival instants of a Poisson process of ``rate``/s over ``horizon``.

    The open-loop workload driver (:mod:`repro.load.drivers`) injects one
    operation per instant; exponential inter-arrival gaps make the offered
    load exact in expectation and bursty in the small, like real traffic.
    """
    if rate <= 0 or horizon <= 0:
        raise ValueError("rate and horizon must be > 0")
    arrivals: list[float] = []
    t = rng.expovariate(rate)
    while t < horizon:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return arrivals


def lookup_key_pool(store, attributes: tuple[str, ...] = ("published_in", "title")) -> list[str]:
    """Routable A#v posting keys of a loaded domain, hottest attributes first.

    Extracts the DHT keys the query mix actually probes (the A#v index keys
    of ``attributes``), so a workload driver can replay the *storage-level*
    footprint of the conference queries as concurrent point lookups.  The
    returned keys are sorted by descending posting count — rank 0 is the
    most popular value, ready for Zipf-ranked sampling.
    """
    from repro.triples.index import av_index_range, av_key
    from repro.triples.store import stored_triples

    counts: dict[str, int] = {}
    for triple in stored_triples(store.pnet.all_entries(av_index_range())):
        if triple.attribute in attributes:
            key = av_key(triple.attribute, triple.value)
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts, key=lambda key: (-counts[key], key))


def ingest_tuples(count: int, seed: int = 0) -> list[dict[str, Value]]:
    """Publication-like tuples for the batched-ingest scenario (E9b).

    Each tuple decomposes into four triples (12 postings under the default
    indexes), so messages/tuple directly exposes the routing amortization of
    the destination-grouped bulk inserts.
    """
    rng = random.Random(seed)
    tuples: list[dict[str, Value]] = []
    for index in range(count):
        series = rng.choice(SERIES)
        year = 2000 + rng.randrange(7)
        tuples.append(
            {
                "title": f"{make_title(rng)} #{index}",
                "published_in": f"{series} {year}",
                "year": year,
                "classified_in": rng.choice(AREAS),
            }
        )
    return tuples


def batched(items: list, size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of ``size`` (last may be short)."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    return [items[i : i + size] for i in range(0, len(items), size)]


def make_name(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3)).capitalize()


def make_title(rng: random.Random) -> str:
    words = rng.sample(_TITLE_WORDS, k=rng.randint(3, 5))
    return " ".join(words).capitalize()


def inject_typo(rng: random.Random, text: str) -> str:
    """One random edit (substitution, deletion, transposition) for fuzzy data."""
    if len(text) < 2:
        return text + "x"
    kind = rng.randrange(3)
    position = rng.randrange(len(text) - 1)
    if kind == 0:  # substitution
        return text[:position] + rng.choice("abcdefghij") + text[position + 1 :]
    if kind == 1:  # deletion
        return text[:position] + text[position + 1 :]
    return (  # transposition
        text[:position] + text[position + 1] + text[position] + text[position + 2 :]
    )


@dataclass
class ConferenceWorkload:
    """The Figure-3 domain: people, publications, conferences, areas."""

    num_authors: int = 100
    num_publications: int = 200
    num_conferences: int = 24
    seed: int = 0
    conference_skew: float = 0.8  # Zipf s over conference popularity
    typo_rate: float = 0.05  # fraction of confname references with typos

    people: list[dict[str, Value]] = field(default_factory=list)
    publications: list[dict[str, Value]] = field(default_factory=list)
    conferences: list[dict[str, Value]] = field(default_factory=list)
    areas: list[dict[str, Value]] = field(default_factory=list)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        self.conferences = []
        for index in range(self.num_conferences):
            series = SERIES[index % len(SERIES)]
            year = 2000 + index % 7
            self.conferences.append(
                {
                    "confname": f"{series} {year}",
                    "series": series,
                    "year": year,
                }
            )
        self.areas = [{"areaname": area} for area in AREAS]

        conf_choice = zipf_values(
            rng, self.num_conferences, self.num_publications, self.conference_skew
        )
        self.publications = []
        for index in range(self.num_publications):
            conference = self.conferences[conf_choice[index]]
            confname = str(conference["confname"])
            if rng.random() < self.typo_rate:
                confname = inject_typo(rng, confname)
            self.publications.append(
                {
                    "title": f"{make_title(rng)} #{index}",
                    "published_in": confname,
                    "year": conference["year"],
                    "classified_in": rng.choice(AREAS),
                }
            )

        self.people = []
        for index in range(self.num_authors):
            pub_count = min(self.num_publications, max(1, int(rng.expovariate(1 / 3.0)) + 1))
            published = rng.sample(range(self.num_publications), pub_count)
            person: dict[str, Value] = {
                "name": f"{make_name(rng)} {make_name(rng)}",
                "age": rng.randint(24, 65),
                "email": f"author{index}@example.org",
                "num_of_pubs": pub_count,
                "interested_in": rng.choice(AREAS),
            }
            self.people.append(person)
            # has_published edges are separate triples (multi-valued attribute).
            person["_published_titles"] = [  # type: ignore[assignment]
                str(self.publications[p]["title"]) for p in published
            ]

    # -- loading ------------------------------------------------------------------

    def load_into(self, unistore) -> dict[str, list[str]]:
        """Bulk-load the whole domain; returns the OIDs per entity kind."""
        from repro.triples.triple import Triple

        person_tuples = []
        edge_triples = []
        for person in self.people:
            titles = person.pop("_published_titles", [])
            person_tuples.append(person)
            person["_published_titles"] = titles  # keep for reuse
        person_oids = unistore.bulk_load_tuples(
            [{k: v for k, v in p.items() if not k.startswith("_")} for p in self.people],
            "person",
        )
        for oid, person in zip(person_oids, self.people):
            for title in person.get("_published_titles", []):
                edge_triples.append(Triple(oid, "has_published", title))
        unistore.store.bulk_insert(edge_triples)
        pub_oids = unistore.bulk_load_tuples(self.publications, "pub")
        conf_oids = unistore.bulk_load_tuples(self.conferences, "conf")
        area_oids = unistore.bulk_load_tuples(self.areas, "area")
        unistore.refresh_statistics()
        return {
            "person": person_oids,
            "pub": pub_oids,
            "conf": conf_oids,
            "area": area_oids,
        }

    def all_triples(self):
        """The whole domain as plain triples (for reference-executor tests)."""
        from repro.triples.triple import Triple

        triples = []
        for index, person in enumerate(self.people):
            oid = f"person:{index:06d}"
            for key, value in person.items():
                if key.startswith("_"):
                    continue
                triples.append(Triple(oid, key, value))
            for title in person.get("_published_titles", []):
                triples.append(Triple(oid, "has_published", title))
        for index, pub in enumerate(self.publications):
            oid = f"pub:{index:06d}"
            for key, value in pub.items():
                triples.append(Triple(oid, key, value))
        for index, conf in enumerate(self.conferences):
            oid = f"conf:{index:06d}"
            for key, value in conf.items():
                triples.append(Triple(oid, key, value))
        return triples

    # -- query mix -----------------------------------------------------------------

    def query_mix(self) -> dict[str, str]:
        """Representative VQL queries over this domain (used by E2/E10)."""
        some_conf = str(self.conferences[0]["confname"])
        return {
            "lookup": (f"SELECT ?p WHERE {{(?p,'published_in','{some_conf}')}}"),
            "range": (
                "SELECT ?t,?y WHERE {(?p,'title',?t) (?p,'year',?y) "
                "FILTER ?y >= 2003 AND ?y <= 2005}"
            ),
            "join": (
                "SELECT ?name,?title WHERE {(?a,'name',?name) "
                "(?a,'has_published',?title) (?p,'title',?title) "
                f"(?p,'published_in','{some_conf}')}}"
            ),
            "similarity": (
                "SELECT ?c WHERE {(?x,'published_in',?c) "
                "FILTER edist(?c,'" + some_conf + "')<3}"
            ),
            "skyline": (
                "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
                "(?a,'num_of_pubs',?cnt)} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"
            ),
            "topn": (
                "SELECT ?name,?cnt WHERE {(?a,'name',?name) (?a,'num_of_pubs',?cnt)} "
                "ORDER BY ?cnt DESC LIMIT 10"
            ),
        }
