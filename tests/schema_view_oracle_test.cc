// Oracle tests of the flat SchemaView and the per-version class
// kernels. The reference is the three-pass hash-map builder the flat
// view replaced, kept here on plain containers and computed from the
// triple list, together with the per-pair centrality/relevance kernels
// the measures used before they read the per-version kernel cell.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "measures/centrality.h"
#include "measures/measure_context.h"
#include "measures/relevance.h"
#include "rdf/knowledge_base.h"
#include "schema/schema_view.h"
#include "version/versioned_kb.h"

namespace evorec::schema {
namespace {

using rdf::kAnyTerm;
using rdf::TermId;
using rdf::Triple;

std::vector<TermId> Sorted(const std::set<TermId>& s) {
  return {s.begin(), s.end()};
}

template <class Map>
auto Get(const Map& map, const typename Map::key_type& key) ->
    typename Map::mapped_type {
  auto it = map.find(key);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

std::vector<TermId> Vec(std::span<const TermId> span) {
  return {span.begin(), span.end()};
}

// The three-pass builder, on ordered containers.
struct ReferenceView {
  std::set<TermId> classes, properties;
  std::map<TermId, std::vector<TermId>> parents, children;
  std::map<TermId, std::vector<TermId>> domains, ranges, instances;
  std::map<TermId, TermId> instance_type;
  std::map<std::tuple<TermId, TermId, TermId>, size_t> connections;
  std::map<TermId, size_t> total_connections;
  std::map<TermId, std::set<TermId>> property_adjacent, properties_touching;

  static ReferenceView Build(const std::vector<Triple>& triples,
                             const rdf::Vocabulary& voc) {
    ReferenceView r;
    for (const Triple& t : triples) {  // pass 1: schema-level triples
      if (t.predicate == voc.rdf_type) {
        if (t.object == voc.rdfs_class || t.object == voc.owl_class) {
          r.classes.insert(t.subject);
        } else if (t.object == voc.rdf_property) {
          r.properties.insert(t.subject);
        } else {
          r.classes.insert(t.object);
        }
      } else if (t.predicate == voc.rdfs_subclass_of) {
        r.classes.insert(t.subject);
        r.classes.insert(t.object);
        auto& ps = r.parents[t.subject];
        if (t.subject != t.object &&
            std::find(ps.begin(), ps.end(), t.object) == ps.end()) {
          ps.push_back(t.object);
          r.children[t.object].push_back(t.subject);
        }
      } else if (t.predicate == voc.rdfs_domain) {
        r.properties.insert(t.subject);
        r.classes.insert(t.object);
        r.domains[t.subject].push_back(t.object);
      } else if (t.predicate == voc.rdfs_range) {
        r.properties.insert(t.subject);
        r.classes.insert(t.object);
        r.ranges[t.subject].push_back(t.object);
      }
    }
    for (const Triple& t : triples) {  // pass 2: typing, property usage
      if (t.predicate == voc.rdf_type) {
        if (r.classes.count(t.object) && !r.classes.count(t.subject)) {
          r.instances[t.object].push_back(t.subject);
          r.instance_type.emplace(t.subject, t.object);
        }
      } else if (!voc.IsSchemaPredicate(t.predicate)) {
        r.properties.insert(t.predicate);
      }
    }
    for (const Triple& t : triples) {  // pass 3: connections
      if (voc.IsSchemaPredicate(t.predicate)) continue;
      auto from = r.instance_type.find(t.subject);
      auto to = r.instance_type.find(t.object);
      if (from == r.instance_type.end() || to == r.instance_type.end()) {
        continue;
      }
      ++r.connections[{t.predicate, from->second, to->second}];
      ++r.total_connections[from->second];
      if (to->second != from->second) ++r.total_connections[to->second];
      r.property_adjacent[from->second].insert(to->second);
      r.property_adjacent[to->second].insert(from->second);
    }
    for (const auto& [p, ds] : r.domains) {
      for (TermId d : ds) {
        r.properties_touching[d].insert(p);
        for (TermId rg : Get(r.ranges, p)) {
          if (d == rg) continue;
          r.property_adjacent[d].insert(rg);
          r.property_adjacent[rg].insert(d);
        }
      }
    }
    for (const auto& [p, rs] : r.ranges) {
      for (TermId rg : rs) r.properties_touching[rg].insert(p);
    }
    return r;
  }

  std::vector<TermId> PropertyNeighbors(TermId n) const {
    std::set<TermId> out = Get(property_adjacent, n);
    out.erase(n);
    return Sorted(out);
  }

  std::vector<TermId> Neighborhood(TermId n) const {
    std::set<TermId> out = Get(property_adjacent, n);
    for (TermId p : Get(parents, n)) out.insert(p);
    for (TermId c : Get(children, n)) out.insert(c);
    out.erase(n);
    return Sorted(out);
  }

  std::vector<TermId> Reach(TermId start,
                            const std::map<TermId, std::vector<TermId>>& adj)
      const {
    std::set<TermId> seen{start};
    std::deque<TermId> queue{start};
    std::vector<TermId> out;
    while (!queue.empty()) {
      const TermId node = queue.front();
      queue.pop_front();
      for (TermId next : Get(adj, node)) {
        if (seen.insert(next).second) {
          out.push_back(next);
          queue.push_back(next);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  size_t DepthOf(TermId cls) const {
    size_t depth = 0;
    std::set<TermId> frontier{cls}, visited{cls};
    while (true) {
      std::set<TermId> next;
      for (TermId node : frontier) {
        for (TermId p : Get(parents, node)) {
          if (visited.insert(p).second) next.insert(p);
        }
      }
      if (next.empty()) return depth;
      ++depth;
      frontier.swap(next);
    }
  }

  size_t Distance(TermId a, TermId b) const {
    if (a == b) return 0;
    std::map<TermId, size_t> dist{{a, 0}};
    std::deque<TermId> queue{a};
    while (!queue.empty()) {
      const TermId node = queue.front();
      queue.pop_front();
      std::vector<TermId> next = Get(parents, node);
      for (TermId c : Get(children, node)) next.push_back(c);
      for (TermId n : next) {
        if (dist.count(n)) continue;
        if (n == b) return dist[node] + 1;
        dist[n] = dist[node] + 1;
        queue.push_back(n);
      }
    }
    return std::numeric_limits<size_t>::max();
  }

  bool Acyclic() const {
    std::map<TermId, size_t> indegree;
    for (TermId c : classes) indegree[c] = 0;
    for (const auto& [child, ps] : parents) {
      for (TermId p : ps) ++indegree[p];
    }
    std::deque<TermId> queue;
    for (const auto& [c, d] : indegree) {
      if (d == 0) queue.push_back(c);
    }
    size_t processed = 0;
    while (!queue.empty()) {
      const TermId node = queue.front();
      queue.pop_front();
      ++processed;
      for (TermId p : Get(parents, node)) {
        if (--indegree[p] == 0) queue.push_back(p);
      }
    }
    return processed == classes.size();
  }
};

void ExpectMatches(const SchemaView& view, const ReferenceView& ref,
                   TermId probe_bound) {
  ASSERT_EQ(view.classes(), Sorted(ref.classes));
  ASSERT_EQ(view.properties(), Sorted(ref.properties));

  std::vector<TermId> probes;
  for (TermId id = 0; id < probe_bound; ++id) probes.push_back(id);
  probes.push_back(kAnyTerm);
  const ClassHierarchy& h = view.hierarchy();
  for (TermId id : probes) {
    SCOPED_TRACE("id " + std::to_string(id));
    EXPECT_EQ(view.IsClass(id), ref.classes.count(id) > 0);
    EXPECT_EQ(view.IsProperty(id), ref.properties.count(id) > 0);
    EXPECT_EQ(view.DomainsOf(id), Get(ref.domains, id));
    EXPECT_EQ(view.RangesOf(id), Get(ref.ranges, id));
    EXPECT_EQ(view.InstancesOf(id), Get(ref.instances, id));
    EXPECT_EQ(view.InstanceCount(id), Get(ref.instances, id).size());
    auto type = ref.instance_type.find(id);
    EXPECT_EQ(view.TypeOf(id),
              type == ref.instance_type.end() ? kAnyTerm : type->second);
    EXPECT_EQ(view.TotalConnectionsOf(id), Get(ref.total_connections, id));
    EXPECT_EQ(view.Neighborhood(id), ref.Neighborhood(id));
    EXPECT_EQ(view.PropertyNeighbors(id), ref.PropertyNeighbors(id));
    EXPECT_EQ(view.PropertiesTouching(id),
              Sorted(Get(ref.properties_touching, id)));
    EXPECT_EQ(Vec(h.Parents(id)), Get(ref.parents, id));
    EXPECT_EQ(Vec(h.Children(id)), Get(ref.children, id));
  }

  ASSERT_EQ(view.connections().size(), ref.connections.size());
  size_t i = 0;
  for (const auto& [key, count] : ref.connections) {
    const PropertyConnection& c = view.connections()[i++];
    const auto [p, from, to] = key;
    EXPECT_EQ(std::make_tuple(c.property, c.classes.from, c.classes.to,
                              c.instance_count),
              std::make_tuple(p, from, to, count));
    EXPECT_EQ(view.ConnectionCount(p, from, to), count);
    EXPECT_EQ(view.ConnectionCount(p, to, from),
              Get(ref.connections, std::make_tuple(p, to, from)));
  }
  EXPECT_EQ(view.ConnectionCount(kAnyTerm, kAnyTerm, kAnyTerm), 0u);

  const auto& lists = view.NeighborhoodLists();
  ASSERT_EQ(lists.size(), view.classes().size());
  for (size_t c = 0; c < lists.size(); ++c) {
    EXPECT_EQ(lists[c], ref.Neighborhood(view.classes()[c]));
  }

  // Hierarchy queries against the reference's plain BFS.
  EXPECT_EQ(h.AllClasses(), Sorted(ref.classes));
  size_t edges = 0;
  std::vector<TermId> roots;
  for (TermId c : ref.classes) {
    edges += Get(ref.parents, c).size();
    if (Get(ref.parents, c).empty()) roots.push_back(c);
  }
  EXPECT_EQ(h.edge_count(), edges);
  EXPECT_EQ(h.Roots(), roots);
  EXPECT_EQ(h.IsAcyclic(), ref.Acyclic());
  std::vector<TermId> classes = Sorted(ref.classes);
  classes.push_back(probe_bound);  // an unknown id
  for (TermId a : classes) {
    SCOPED_TRACE("class " + std::to_string(a));
    EXPECT_EQ(h.Ancestors(a), ref.Reach(a, ref.parents));
    EXPECT_EQ(h.Descendants(a), ref.Reach(a, ref.children));
    EXPECT_EQ(h.DepthOf(a), ref.DepthOf(a));
    const std::vector<TermId> ancestors = ref.Reach(a, ref.parents);
    for (TermId b : classes) {
      EXPECT_EQ(h.UndirectedDistance(a, b), ref.Distance(a, b));
      EXPECT_EQ(h.IsSubclassOf(a, b),
                a == b || std::binary_search(ancestors.begin(),
                                             ancestors.end(), b));
    }
  }
}

// Random triples over a term pool shared by every round (so later
// rounds overlap earlier ones) plus a few fresh terms per round (so the
// dictionary keeps growing). Covers classes typed as instances,
// multi-typed instances, self-connections, domain == range, datatype
// ranges, undeclared classes/properties, literals and the other schema
// predicates.
std::vector<Triple> RandomTriples(rdf::Dictionary& dict,
                                  const rdf::Vocabulary& voc,
                                  std::mt19937& rng, int round) {
  const auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  const auto chance = [&](double p) {
    return std::bernoulli_distribution(p)(rng);
  };
  const auto iri = [&](const std::string& name) {
    return dict.InternIri("http://t/" +
                          (chance(0.05) ? "r" + std::to_string(round) + "/"
                                        : std::string()) +
                          name);
  };
  const TermId xsd_string =
      dict.InternIri("http://www.w3.org/2001/XMLSchema#string");
  std::vector<TermId> classes, properties, instances;
  for (size_t i = 0; i < 24; ++i) classes.push_back(iri("C" + std::to_string(i)));
  for (size_t i = 0; i < 8; ++i) {
    properties.push_back(iri("P" + std::to_string(i)));
  }
  for (size_t i = 0; i < 80; ++i) {
    instances.push_back(iri("i" + std::to_string(i)));
  }
  const auto any_class = [&] { return classes[pick(classes.size())]; };
  const auto any_property = [&] { return properties[pick(properties.size())]; };
  const auto any_instance = [&] { return instances[pick(instances.size())]; };

  std::vector<Triple> out;
  for (size_t i = 0; i < classes.size(); ++i) {
    if (chance(0.5)) out.emplace_back(classes[i], voc.rdf_type, voc.rdfs_class);
    if (chance(0.2)) out.emplace_back(classes[i], voc.rdf_type, voc.owl_class);
    if (i > 0 && chance(0.7)) {
      out.emplace_back(classes[i], voc.rdfs_subclass_of, classes[pick(i)]);
    }
    if (chance(0.1)) out.emplace_back(classes[i], voc.rdfs_subclass_of, any_class());
    if (chance(0.05)) {
      out.emplace_back(classes[i], voc.rdfs_subclass_of, classes[i]);
    }
    if (chance(0.1)) out.emplace_back(classes[i], voc.rdf_type, any_class());
    if (chance(0.1)) {
      out.emplace_back(classes[i], voc.rdfs_label,
                       dict.Intern(rdf::Term::Literal("label")));
    }
  }
  for (TermId p : properties) {
    if (chance(0.6)) out.emplace_back(p, voc.rdf_type, voc.rdf_property);
    if (chance(0.05)) out.emplace_back(p, voc.rdf_type, voc.rdfs_class);
    TermId domain = kAnyTerm;
    if (chance(0.7)) {
      domain = any_class();
      out.emplace_back(p, voc.rdfs_domain, domain);
    }
    if (chance(0.15)) out.emplace_back(p, voc.rdfs_domain, any_class());
    if (chance(0.2)) {
      out.emplace_back(p, voc.rdfs_range, xsd_string);
    } else if (domain != kAnyTerm && chance(0.25)) {
      out.emplace_back(p, voc.rdfs_range, domain);
    } else if (chance(0.7)) {
      out.emplace_back(p, voc.rdfs_range, any_class());
    }
    if (chance(0.1)) out.emplace_back(p, voc.rdfs_subproperty_of, any_property());
  }
  for (TermId x : instances) {
    const double r = std::uniform_real_distribution<double>(0, 1)(rng);
    const size_t types = r < 0.1 ? 0 : r < 0.75 ? 1 : r < 0.95 ? 2 : 3;
    for (size_t k = 0; k < types; ++k) {
      out.emplace_back(x, voc.rdf_type,
                       chance(0.05) ? iri("U" + std::to_string(pick(4)))
                                    : any_class());
    }
  }
  for (size_t e = 0; e < 160; ++e) {
    const TermId s = any_instance();
    const TermId p = chance(0.1) ? iri("Q" + std::to_string(pick(3)))
                                 : any_property();
    TermId o = any_instance();
    if (chance(0.05)) o = s;  // self-connection
    if (chance(0.1)) o = dict.Intern(rdf::Term::Literal(std::to_string(e)));
    if (chance(0.05)) o = any_class();
    out.emplace_back(s, p, o);
  }
  // Vocabulary terms used as classes: declared classes and properties
  // then read as instances of rdfs:Class / rdf:Property.
  if (chance(0.3)) {
    out.emplace_back(voc.rdfs_class, voc.rdfs_subclass_of, iri("Resource"));
  }
  if (chance(0.3)) {
    out.emplace_back(voc.rdf_property, voc.rdfs_subclass_of, iri("Resource"));
  }
  return out;
}

// A seeded history: a random base, then commits mixing removals (which
// leave tombstones in the segment stack) and new random triples.
struct History {
  version::VersionedKnowledgeBase vkb;
  std::vector<std::shared_ptr<const rdf::KnowledgeBase>> pinned;

  explicit History(uint32_t seed) {
    std::mt19937 rng(seed);
    const rdf::Vocabulary voc = vkb.vocabulary();
    for (int round = 0; round < 5; ++round) {
      version::ChangeSet changes;
      const std::vector<Triple> current =
          (*vkb.Snapshot(vkb.head()))->store().Match(rdf::TriplePattern{});
      for (const Triple& t : current) {
        if (std::bernoulli_distribution(0.15)(rng)) {
          changes.removals.push_back(t);
        }
      }
      for (const Triple& t : RandomTriples(vkb.dictionary(), voc, rng, round)) {
        if (round == 0 || std::bernoulli_distribution(0.3)(rng)) {
          changes.additions.push_back(t);
        }
      }
      EXPECT_TRUE(vkb.Commit(std::move(changes), "oracle", "round").ok());
      // Pinned copies share the frozen segments; later rounds keep
      // interning terms into the shared dictionary.
      pinned.push_back(
          std::make_shared<const rdf::KnowledgeBase>(**vkb.Snapshot(vkb.head())));
    }
  }
};

TEST(FlatViewOracleTest, EveryAccessorMatchesTheThreePassReference) {
  bool saw_multi_segment = false;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    History history(seed);
    // Probe ids beyond the dictionary as it stands after every pin.
    const TermId probe_bound =
        static_cast<TermId>(history.vkb.dictionary().size() + 3);
    for (size_t v = 0; v < history.pinned.size(); ++v) {
      SCOPED_TRACE("version " + std::to_string(v + 1));
      const rdf::KnowledgeBase& kb = *history.pinned[v];
      saw_multi_segment |= kb.store().segments().size() > 1;
      const SchemaView view = SchemaView::Build(kb);
      const ReferenceView ref = ReferenceView::Build(
          kb.store().Match(rdf::TriplePattern{}), kb.vocabulary());
      ExpectMatches(view, ref, probe_bound);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_TRUE(saw_multi_segment);
}

TEST(FlatViewOracleTest, DictionaryGrowthAfterPinLeavesTheViewUnchanged) {
  History history(7);
  const rdf::KnowledgeBase& kb = *history.pinned.front();
  const SchemaView before = SchemaView::Build(kb);
  for (int i = 0; i < 5000; ++i) {
    history.vkb.dictionary().InternIri("http://t/late/" + std::to_string(i));
  }
  const SchemaView after = SchemaView::Build(kb);
  EXPECT_EQ(before.classes(), after.classes());
  EXPECT_EQ(before.connections().size(), after.connections().size());
  const ReferenceView ref = ReferenceView::Build(
      kb.store().Match(rdf::TriplePattern{}), kb.vocabulary());
  ExpectMatches(after, ref,
                static_cast<TermId>(history.vkb.dictionary().size() + 3));
}

// ------------------------------------------------ per-version kernels

std::string Hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

// The per-pair centrality kernel over a union universe.
std::vector<double> PairCentrality(const SchemaView& view,
                                   measures::CentralityDirection direction,
                                   const std::vector<TermId>& universe) {
  std::vector<double> out(universe.size(), 0.0);
  const std::vector<size_t> totals = measures::PropertyInstanceTotals(view);
  for (const PropertyConnection& conn : view.connections()) {
    const size_t p = rdf::SortedIndexOf(view.properties(), conn.property);
    const double c = measures::ConnectionContribution(
        view, conn, p == rdf::kNotInUniverse ? 0 : totals[p]);
    if (c <= 0.0) continue;
    if (direction != measures::CentralityDirection::kIn) {
      const size_t i = rdf::SortedIndexOf(universe, conn.classes.from);
      if (i != rdf::kNotInUniverse) out[i] += c;
    }
    if (direction != measures::CentralityDirection::kOut) {
      const size_t i = rdf::SortedIndexOf(universe, conn.classes.to);
      if (i != rdf::kNotInUniverse) out[i] += c;
    }
  }
  return out;
}

// The per-pair relevance kernel: a centrality map plus Neighborhood()
// recomputed for every neighbour of every class.
std::map<TermId, double> PairRelevance(const SchemaView& view) {
  const std::vector<double> dense = PairCentrality(
      view, measures::CentralityDirection::kTotal, view.classes());
  std::map<TermId, double> centrality;
  for (size_t i = 0; i < dense.size(); ++i) {
    centrality[view.classes()[i]] = dense[i];
  }
  std::map<TermId, double> relevance;
  for (TermId cls : view.classes()) {
    double acc = Get(centrality, cls);
    for (TermId neighbor : view.Neighborhood(cls)) {
      acc += Get(centrality, neighbor) /
             (1.0 + static_cast<double>(view.Neighborhood(neighbor).size()));
    }
    relevance[cls] =
        acc * std::log2(2.0 + static_cast<double>(view.InstanceCount(cls)));
  }
  return relevance;
}

void ExpectBitIdentical(const measures::MeasureReport& report,
                        const std::vector<TermId>& universe,
                        const std::vector<double>& expected) {
  ASSERT_EQ(report.size(), universe.size());
  for (size_t i = 0; i < universe.size(); ++i) {
    EXPECT_EQ(report.scores()[i].term, universe[i]);
    EXPECT_EQ(Hex(report.scores()[i].score), Hex(expected[i]))
        << "class " << universe[i];
  }
}

TEST(ClassKernelOracleTest, ShiftReportsAreBitIdenticalToPerPairKernels) {
  for (uint32_t seed = 20; seed < 28; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    History history(seed);
    std::mt19937 rng(seed);
    for (int trial = 0; trial < 4; ++trial) {
      const size_t a = rng() % history.pinned.size();
      const size_t b = rng() % history.pinned.size();
      auto ctx = measures::EvolutionContext::Build(history.pinned[a],
                                                   history.pinned[b]);
      ASSERT_TRUE(ctx.ok());
      const std::vector<TermId>& universe = ctx->union_classes();
      for (auto direction : {measures::CentralityDirection::kIn,
                             measures::CentralityDirection::kOut,
                             measures::CentralityDirection::kTotal}) {
        const std::vector<double> before =
            PairCentrality(ctx->view_before(), direction, universe);
        const std::vector<double> after =
            PairCentrality(ctx->view_after(), direction, universe);
        std::vector<double> expected(universe.size());
        for (size_t i = 0; i < universe.size(); ++i) {
          expected[i] = std::abs(after[i] - before[i]);
        }
        auto report = measures::CentralityShiftMeasure(direction).Compute(*ctx);
        ASSERT_TRUE(report.ok());
        ExpectBitIdentical(*report, universe, expected);
      }
      const auto before = PairRelevance(ctx->view_before());
      const auto after = PairRelevance(ctx->view_after());
      std::vector<double> expected(universe.size());
      for (size_t i = 0; i < universe.size(); ++i) {
        expected[i] =
            std::abs(Get(after, universe[i]) - Get(before, universe[i]));
      }
      auto report = measures::RelevanceShiftMeasure().Compute(*ctx);
      ASSERT_TRUE(report.ok());
      ExpectBitIdentical(*report, universe, expected);
    }
  }
}

}  // namespace
}  // namespace evorec::schema
