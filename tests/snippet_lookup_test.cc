// The snippet stages answer a result's questions by lookups: per-label
// entity and attribute columns (NodeClassification) and the inverted
// index's posting lists, clipped to the result's id range. This suite keeps
// the linear scans those lookups replaced as its reference — each walks
// every node of the result subtree — and requires the lookups to agree with
// them on every result root tried: item instances and the membership test
// (ItemInstanceLookup::IsInstance) on every node, feature statistics (types
// and counts), the return entity (label, instances, evidence) and the
// IList's entity-name set. The stage's budget-aware instance selection must
// select what the plain greedy selects over the scanned instances, at
// bounds from 0 to 64. It repeats every comparison on a snapshot round
// trip, where the columns are rebuilt by NodeClassification::Restore.
//
// Values are counted, ranked and matched by their id in the document's
// value dictionary. The reference counts and ranks by string instead (the
// string-keyed statistics and ranking the ids replaced), and the ranked
// features must agree with it exactly: value strings, labels, score bits,
// occurrences and order. Every document checked must also carry a
// consistent dictionary, the same one after the round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/movies_dataset.h"
#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus_snapshot.h"
#include "snippet/dominant_features.h"
#include "snippet/feature_statistics.h"
#include "snippet/ilist.h"
#include "snippet/instance_selector.h"
#include "snippet/result_key.h"
#include "snippet/return_entity.h"

namespace extract {
namespace {

// ---------------------------------------------------------------------------
// Reference: the sequential scans over [root, subtree_end(root)).

// Label of the nearest entity strictly above `n` inside the result, or the
// result root's label when there is none.
LabelId ScanEntityLabel(const IndexedDocument& doc,
                        const NodeClassification& classification, NodeId n,
                        NodeId root) {
  for (NodeId cur = doc.parent(n);
       cur != kInvalidNode && doc.IsAncestorOrSelf(root, cur);
       cur = doc.parent(cur)) {
    if (classification.IsEntity(cur)) return doc.label(cur);
  }
  return doc.label(root);
}

std::vector<ItemInstances> ScanItemInstances(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId root, const IList& ilist) {
  std::vector<ItemInstances> out(ilist.size());
  for (NodeId id = root; id < doc.subtree_end(root); ++id) {
    for (size_t i = 0; i < ilist.size(); ++i) {
      const IListItem& item = ilist[i];
      const std::string token = ToLowerCopy(item.token);
      if (doc.is_element(id)) {
        if (item.kind == IListItemKind::kKeyword) {
          if (!token.empty() && ContainsToken(doc.label_name(id), token)) {
            out[i].nodes.push_back(id);
          }
        } else if (item.kind == IListItemKind::kEntityName) {
          if (classification.IsEntity(id) &&
              doc.label(id) == item.entity_label) {
            out[i].nodes.push_back(id);
          }
        }
        continue;
      }
      const NodeId owner = doc.parent(id);
      if (item.kind == IListItemKind::kKeyword) {
        if (!token.empty() && ContainsToken(doc.text(id), token)) {
          out[i].nodes.push_back(id);
        }
      } else if (item.kind == IListItemKind::kResultKey ||
                 item.kind == IListItemKind::kDominantFeature) {
        if (doc.text(id) == item.display && doc.is_element(owner) &&
            doc.label(owner) == item.attribute_label &&
            classification.IsAttribute(owner) &&
            ScanEntityLabel(doc, classification, owner, root) ==
                item.entity_label) {
          out[i].nodes.push_back(id);
        }
      }
    }
  }
  return out;
}

// The paper's greedy as first written: every instance of every item is
// walked to the tree in full, and an item is accepted iff its cheapest
// instance (the first in document order on a tie) fits the budget.
Selection ReferenceGreedy(const IndexedDocument& doc, NodeId root,
                          const std::vector<ItemInstances>& instances,
                          size_t bound) {
  std::set<NodeId> tree = {root};
  Selection out;
  out.covered.assign(instances.size(), false);
  for (size_t i = 0; i < instances.size(); ++i) {
    std::vector<NodeId> best_path;
    bool found = false;
    for (NodeId instance : instances[i].nodes) {
      std::vector<NodeId> path;
      for (NodeId cur = instance; tree.count(cur) == 0; cur = doc.parent(cur)) {
        path.push_back(cur);
      }
      if (!found || path.size() < best_path.size()) {
        best_path = path;
        found = true;
      }
    }
    if (found && tree.size() - 1 + best_path.size() <= bound) {
      tree.insert(best_path.begin(), best_path.end());
      out.covered[i] = true;
    }
  }
  out.nodes.assign(tree.begin(), tree.end());
  return out;
}

using StatsMap = std::map<FeatureType, std::pair<size_t, std::map<std::string, size_t>>>;

StatsMap ScanStatistics(const IndexedDocument& doc,
                        const NodeClassification& classification,
                        NodeId root) {
  StatsMap out;
  for (NodeId id = root; id < doc.subtree_end(root); ++id) {
    if (!doc.is_element(id) || !classification.IsAttribute(id)) continue;
    const NodeId text = doc.sole_text_child(id);
    if (text == kInvalidNode) continue;
    auto& [total, values] =
        out[FeatureType{ScanEntityLabel(doc, classification, id, root),
                        doc.label(id)}];
    ++total;
    ++values[doc.text(text)];
  }
  return out;
}

// The id-keyed statistics as strings. Also requires what the id form
// promises: types strictly ascending, each type's values strictly ascending
// by id, and each value's text node holding the string its id names.
StatsMap AsMap(const IndexedDocument& doc,
               const NodeClassification& classification,
               const FeatureStatistics& stats) {
  StatsMap out;
  for (size_t t = 0; t < stats.types().size(); ++t) {
    const FeatureTypeStats& type = stats.types()[t];
    if (t > 0) {
      EXPECT_LT(stats.types()[t - 1].type, type.type);
    }
    auto& [total, values] = out[type.type];
    total = type.total_occurrences;
    for (size_t v = 0; v < type.values.size(); ++v) {
      const ValueCount& value = type.values[v];
      if (v > 0) {
        EXPECT_LT(type.values[v - 1].value, value.value);
      }
      EXPECT_LT(value.value, classification.num_values());
      if (value.value >= classification.num_values()) continue;
      EXPECT_EQ(doc.text(value.text),
                doc.text(classification.value_text(value.value)));
      values[doc.text(value.text)] = value.count;
    }
  }
  return out;
}

/// One feature of the reference ranking.
struct ReferenceFeature {
  FeatureType type;
  std::string value;
  double score = 0.0;
  size_t occurrences = 0;
};

// The string-keyed ranking the id-keyed one replaced, over string-keyed
// statistics: dominance (N(e,a,v) * D > N, or D == 1) and DS from the
// per-string counts, ties by occurrences, then (type, value string).
std::vector<ReferenceFeature> ReferenceRanking(
    const StatsMap& stats, const DominantFeatureOptions& options) {
  std::vector<ReferenceFeature> out;
  for (const auto& [type, counts] : stats) {
    const auto& [total, values] = counts;
    for (const auto& [value, count] : values) {
      if (options.normalize) {
        if (values.size() != 1 && count * values.size() <= total) continue;
        out.push_back(ReferenceFeature{
            type, value,
            static_cast<double>(count) / (static_cast<double>(total) /
                                          static_cast<double>(values.size())),
            count});
      } else {
        out.push_back(
            ReferenceFeature{type, value, static_cast<double>(count), count});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ReferenceFeature& a, const ReferenceFeature& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.occurrences != b.occurrences) {
                return a.occurrences > b.occurrences;
              }
              if (a.type != b.type) return a.type < b.type;
              return a.value < b.value;
            });
  if (options.max_features > 0 && out.size() > options.max_features) {
    out.resize(options.max_features);
  }
  return out;
}

/// The ranked features must be the reference's, field for field.
void ExpectRankingMatchesReference(const IndexedDocument& doc,
                                   const NodeClassification& classification,
                                   const FeatureStatistics& stats,
                                   const StatsMap& reference_stats) {
  for (bool normalize : {true, false}) {
    for (size_t max_features : {0u, 3u}) {
      DominantFeatureOptions options;
      options.normalize = normalize;
      options.max_features = max_features;
      SCOPED_TRACE(std::string(normalize ? "dominance" : "raw count") +
                   " ranking, max_features " + std::to_string(max_features));
      const std::vector<RankedFeature> ranked =
          IdentifyDominantFeatures(doc, stats, options);
      const std::vector<ReferenceFeature> expected =
          ReferenceRanking(reference_stats, options);
      ASSERT_EQ(ranked.size(), expected.size());
      for (size_t i = 0; i < ranked.size(); ++i) {
        const RankedFeature& got = ranked[i];
        const ReferenceFeature& want = expected[i];
        ASSERT_EQ(got.feature.value, want.value) << "rank " << i;
        ASSERT_EQ(got.feature.type, want.type) << "rank " << i;
        ASSERT_EQ(std::bit_cast<uint64_t>(got.score),
                  std::bit_cast<uint64_t>(want.score))
            << "rank " << i << ": " << got.score << " vs " << want.score;
        ASSERT_EQ(got.occurrences, want.occurrences) << "rank " << i;
        ASSERT_LT(got.feature.value_id, classification.num_values());
        ASSERT_EQ(doc.text(classification.value_text(got.feature.value_id)),
                  want.value)
            << "rank " << i;
      }
    }
  }
}

bool MatchesAnyKeyword(const std::string& name, const Query& query) {
  for (const std::string& keyword : query.keywords) {
    if (ContainsToken(name, keyword)) return true;
  }
  return false;
}

ReturnEntityInfo ScanReturnEntity(const IndexedDocument& doc,
                                  const NodeClassification& classification,
                                  const Query& query, NodeId root) {
  struct LabelInfo {
    std::vector<NodeId> instances;
    uint32_t min_depth = UINT32_MAX;
    bool name_match = false;
    bool attribute_match = false;
  };
  std::map<LabelId, LabelInfo> by_label;
  for (NodeId id = root; id < doc.subtree_end(root); ++id) {
    if (!doc.is_element(id) || !classification.IsEntity(id)) continue;
    LabelInfo& info = by_label[doc.label(id)];
    info.instances.push_back(id);
    info.min_depth = std::min(info.min_depth, doc.depth(id));
    info.name_match =
        info.name_match || MatchesAnyKeyword(doc.label_name(id), query);
    for (NodeId c : doc.children(id)) {
      if (doc.is_element(c) && classification.IsAttribute(c) &&
          MatchesAnyKeyword(doc.label_name(c), query)) {
        info.attribute_match = true;
      }
    }
  }
  ReturnEntityInfo out;
  auto pick = [&](auto predicate, ReturnEntityEvidence evidence) {
    const LabelInfo* best = nullptr;
    for (const auto& [label, info] : by_label) {
      if (!predicate(info)) continue;
      if (best == nullptr || info.min_depth < best->min_depth ||
          (info.min_depth == best->min_depth &&
           info.instances[0] < best->instances[0])) {
        best = &info;
        out.label = label;
      }
    }
    if (best == nullptr) return false;
    out.instances = best->instances;
    out.evidence = evidence;
    return true;
  };
  if (by_label.empty()) return out;
  if (pick([](const LabelInfo& i) { return i.name_match; },
           ReturnEntityEvidence::kNameMatch)) {
    return out;
  }
  if (pick([](const LabelInfo& i) { return i.attribute_match; },
           ReturnEntityEvidence::kAttributeMatch)) {
    return out;
  }
  pick([](const LabelInfo&) { return true; },
       ReturnEntityEvidence::kDefaultHighest);
  return out;
}

std::map<std::string, LabelId> ScanEntityNames(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId root) {
  std::map<std::string, LabelId> out;
  for (NodeId id = root; id < doc.subtree_end(root); ++id) {
    if (doc.is_element(id) && classification.IsEntity(id)) {
      out.emplace(doc.label_name(id), doc.label(id));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The comparison.

/// Compares every lookup with its reference scan for one result root.
void ExpectLookupsMatchScans(const XmlDatabase& db, NodeId root,
                             const std::vector<Query>& queries,
                             const std::string& where) {
  const IndexedDocument& doc = db.index();
  const NodeClassification& classification = db.classification();
  SCOPED_TRACE(where + " root " + std::to_string(root) + " <" +
               (doc.is_element(root) ? doc.label_name(root) : "#text") + ">");

  const FeatureStatistics stats =
      FeatureStatistics::Compute(doc, classification, root);
  const StatsMap reference_stats = ScanStatistics(doc, classification, root);
  ASSERT_EQ(AsMap(doc, classification, stats), reference_stats);
  ExpectRankingMatchesReference(doc, classification, stats, reference_stats);
  if (::testing::Test::HasFatalFailure()) return;

  // The IList's entity names: with no keyword, key or feature nothing else
  // enters the list and nothing is deduplicated away.
  const IList names_only = BuildIListWithFeatures(
      doc, Query{}, root, ResultKeyInfo{}, {}, classification);
  std::map<std::string, LabelId> names;
  for (const IListItem& item : names_only.items()) {
    ASSERT_EQ(item.kind, IListItemKind::kEntityName);
    names.emplace(item.display, item.entity_label);
  }
  ASSERT_EQ(names, ScanEntityNames(doc, classification, root));

  for (const Query& query : queries) {
    SCOPED_TRACE("query '" + query.ToString() + "'");
    const ReturnEntityInfo entity =
        IdentifyReturnEntity(doc, classification, query, root);
    const ReturnEntityInfo expected_entity =
        ScanReturnEntity(doc, classification, query, root);
    ASSERT_EQ(entity.label, expected_entity.label);
    ASSERT_EQ(entity.instances, expected_entity.instances);
    ASSERT_EQ(entity.evidence, expected_entity.evidence);

    const ResultKeyInfo key =
        IdentifyResultKey(doc, classification, db.keys(), entity, root);
    // The paper's ranking keeps dominant features only; the raw ranking
    // keeps every feature, so every attribute value of the result is tried.
    for (bool normalize : {true, false}) {
      DominantFeatureOptions features;
      features.normalize = normalize;
      SCOPED_TRACE(normalize ? "dominance ranking" : "raw count ranking");
      const IList ilist = BuildIList(doc, query, root, key, stats,
                                     classification, features);
      const std::vector<ItemInstances> found =
          FindItemInstances(db, root, ilist);
      const std::vector<ItemInstances> expected =
          ScanItemInstances(doc, classification, root, ilist);
      ASSERT_EQ(found.size(), expected.size());
      for (size_t i = 0; i < found.size(); ++i) {
        ASSERT_EQ(found[i].nodes, expected[i].nodes)
            << "item " << i << " '" << ilist[i].display << "' ("
            << IListItemKindToString(ilist[i].kind) << ")";
        // The membership test the selection asks of a full tree.
        const ItemInstanceLookup lookup(db, root, ilist[i]);
        for (NodeId n = root; n < doc.subtree_end(root); ++n) {
          ASSERT_EQ(lookup.IsInstance(n),
                    std::binary_search(expected[i].nodes.begin(),
                                       expected[i].nodes.end(), n))
              << "node " << n << ", item " << i << " '" << ilist[i].display
              << "' (" << IListItemKindToString(ilist[i].kind) << ")";
        }
      }
      // The stage's budget-aware selection is the greedy over the reference
      // lists, and both are the plain greedy's.
      for (size_t bound : {0u, 1u, 2u, 3u, 5u, 10u, 25u, 64u}) {
        const Selection selected = SelectInstances(db, root, ilist, bound);
        const Selection greedy =
            SelectInstancesGreedy(doc, root, expected, bound);
        const Selection reference = ReferenceGreedy(doc, root, expected, bound);
        ASSERT_EQ(greedy.nodes, reference.nodes) << "bound " << bound;
        ASSERT_EQ(greedy.covered, reference.covered) << "bound " << bound;
        ASSERT_EQ(selected.nodes, reference.nodes) << "bound " << bound;
        ASSERT_EQ(selected.covered, reference.covered) << "bound " << bound;
      }
    }
  }
}

std::vector<Query> ParseQueries(const std::vector<std::string>& texts) {
  std::vector<Query> out;
  for (const std::string& text : texts) out.push_back(Query::Parse(text));
  return out;
}

/// The element ids of `db`, or a seeded sample of `sample` of them plus the
/// document root when `sample` is nonzero.
std::vector<NodeId> Roots(const XmlDatabase& db, size_t sample,
                          uint64_t seed) {
  const IndexedDocument& doc = db.index();
  std::vector<NodeId> elements;
  for (NodeId id = 0; id < static_cast<NodeId>(doc.num_nodes()); ++id) {
    if (doc.is_element(id)) elements.push_back(id);
  }
  if (sample == 0 || elements.size() <= sample) return elements;
  Rng rng(seed);
  std::set<NodeId> picked = {doc.root()};
  while (picked.size() < sample) {
    picked.insert(elements[rng.Uniform(elements.size())]);
  }
  return {picked.begin(), picked.end()};
}

/// Writes `db` as a one-document snapshot image and faults it back in: the
/// Restore path, which rebuilds the columns from the decoded document.
std::shared_ptr<const XmlDatabase> RoundTrip(const XmlDatabase& db,
                                             const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".xcsn";
  {
    Result<CorpusSnapshotWriter> writer = CorpusSnapshotWriter::Create(path);
    EXPECT_TRUE(writer.ok()) << writer.status();
    if (!writer.ok()) return nullptr;
    EXPECT_TRUE(writer->Add(name, db).ok());
    EXPECT_TRUE(writer->Finish().ok());
  }
  Result<std::shared_ptr<CorpusSnapshot>> snapshot = CorpusSnapshot::Open(path);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  if (!snapshot.ok()) return nullptr;
  Result<const CorpusSnapshot::SnapshotDocument*> faulted =
      (*snapshot)->Fault(0);
  EXPECT_TRUE(faulted.ok()) << faulted.status();
  std::remove(path.c_str());
  return faulted.ok() ? (*faulted)->db : nullptr;
}

/// Every attribute entry of `classification`, label by label.
std::vector<AttributeEntry> AllAttributes(
    const IndexedDocument& doc, const NodeClassification& classification) {
  std::vector<AttributeEntry> out;
  const NodeId end = static_cast<NodeId>(doc.num_nodes());
  for (LabelId label = 0; label < classification.num_labels(); ++label) {
    for (const AttributeEntry& entry :
         classification.AttributesIn(label, 0, end)) {
      out.push_back(entry);
    }
  }
  return out;
}

/// The value dictionary of `db`: ids ascend strictly with their strings,
/// each attribute's id names its own text (kNoValue exactly when it has
/// none), and every id is some attribute's.
void ExpectDictionaryConsistent(const XmlDatabase& db,
                                const std::string& where) {
  SCOPED_TRACE(where + " value dictionary");
  const IndexedDocument& doc = db.index();
  const NodeClassification& classification = db.classification();
  for (ValueId v = 0; v < classification.num_values(); ++v) {
    ASSERT_TRUE(doc.is_text(classification.value_text(v))) << "id " << v;
    if (v > 0) {
      ASSERT_LT(doc.text(classification.value_text(v - 1)),
                doc.text(classification.value_text(v)))
          << "id " << v;
    }
  }
  std::vector<bool> used(classification.num_values(), false);
  for (const AttributeEntry& entry : AllAttributes(doc, classification)) {
    ASSERT_EQ(entry.text, doc.sole_text_child(entry.node));
    if (entry.text == kInvalidNode) {
      ASSERT_EQ(entry.value, kNoValue) << "node " << entry.node;
      continue;
    }
    ASSERT_LT(entry.value, classification.num_values())
        << "node " << entry.node;
    ASSERT_EQ(doc.text(classification.value_text(entry.value)),
              doc.text(entry.text))
        << "node " << entry.node;
    used[entry.value] = true;
  }
  ASSERT_EQ(std::count(used.begin(), used.end(), false), 0);
}

/// Runs the comparison on `xml` loaded directly and on its snapshot round
/// trip, over `sample` roots (0 = every element).
void CheckDocument(const std::string& name, const std::string& xml,
                   const std::vector<std::string>& query_texts, size_t sample,
                   uint64_t seed) {
  Result<XmlDatabase> db = XmlDatabase::Load(xml);
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectDictionaryConsistent(*db, name);
  if (::testing::Test::HasFatalFailure()) return;
  const std::vector<Query> queries = ParseQueries(query_texts);
  const std::vector<NodeId> roots = Roots(*db, sample, seed);
  for (NodeId root : roots) {
    ExpectLookupsMatchScans(*db, root, queries, name);
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::shared_ptr<const XmlDatabase> restored = RoundTrip(*db, name);
  ASSERT_NE(restored, nullptr);
  ExpectDictionaryConsistent(*restored, name + " (snapshot)");
  if (::testing::Test::HasFatalFailure()) return;
  // Classify and Restore derive the same ids.
  ASSERT_EQ(restored->classification().num_values(),
            db->classification().num_values());
  const std::vector<AttributeEntry> loaded =
      AllAttributes(db->index(), db->classification());
  const std::vector<AttributeEntry> faulted =
      AllAttributes(restored->index(), restored->classification());
  ASSERT_EQ(loaded.size(), faulted.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_EQ(loaded[i].node, faulted[i].node);
    ASSERT_EQ(loaded[i].text, faulted[i].text);
    ASSERT_EQ(loaded[i].entity, faulted[i].entity);
    ASSERT_EQ(loaded[i].value, faulted[i].value) << "node " << loaded[i].node;
  }
  for (NodeId root : roots) {
    ExpectLookupsMatchScans(*restored, root, queries, name + " (snapshot)");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------

TEST(SnippetLookupTest, RandomShapesEveryRoot) {
  for (size_t levels : {1u, 2u, 3u}) {
    for (bool dtd : {true, false}) {
      RandomXmlOptions options;
      options.levels = levels;
      options.entities_per_parent = 4;
      options.domain_size = 5;
      options.include_dtd = dtd;
      options.seed = 100 + levels * 2 + (dtd ? 1 : 0);
      const RandomXmlData data = GenerateRandomXml(options);
      std::vector<std::string> queries = {"e0", "e1 e2", "a0 db"};
      for (size_t i = 0; i + 1 < data.keyword_pool.size(); i += 2) {
        queries.push_back(data.keyword_pool[i] + " " +
                          data.keyword_pool[i + 1]);
      }
      SCOPED_TRACE("levels " + std::to_string(levels) +
                   (dtd ? " with DTD" : " without DTD"));
      CheckDocument("random", data.xml, queries, /*sample=*/0, 0);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SnippetLookupTest, RetailerSampledRoots) {
  CheckDocument("retailer", GenerateRetailerXml(),
                {"texas apparel retailer", "store texas", "clothes man",
                 "houston casual suit"},
                /*sample=*/60, 11);
}

TEST(SnippetLookupTest, StoresSampledRoots) {
  CheckDocument("stores", GenerateStoresXml(),
                {"store texas", "merchandises jeans", "outwear woman"},
                /*sample=*/60, 12);
}

TEST(SnippetLookupTest, MoviesSampledRoots) {
  CheckDocument("movies", GenerateMoviesXml(),
                {"drama stone", "movie actor", "year director"},
                /*sample=*/60, 13);
}

// A mixed-content element's late text child follows the postings of the
// elements nested before it, so its keyword instances leave the posting
// walk out of order.
TEST(SnippetLookupTest, MixedContent) {
  CheckDocument("mixed",
                "<r><a>texas <b>texas</b> texas</a><a>x <b>y</b> texas</a>"
                "<a><b>texas</b></a></r>",
                {"texas", "b", "a texas"}, /*sample=*/0, 0);
}

// One element whose tag and text both hold the token (a posting with both
// source bits), and tag names that tokenize into several words.
TEST(SnippetLookupTest, TokenInTagAndText) {
  CheckDocument("tag_and_text",
                "<db><texas>texas</texas><texas>texas rocks</texas>"
                "<store_texas><name>texas store</name></store_texas>"
                "<store_texas><name>Austin</name></store_texas></db>",
                {"texas", "store", "texas store", "rocks name"},
                /*sample=*/0, 0);
}

// Multi-word values, XML attributes and empty attributes.
TEST(SnippetLookupTest, MultiWordAndEmptyValues) {
  CheckDocument(
      "values",
      "<db><store id=\"s1\"><city>New York</city><name>Big Apple</name>"
      "<note></note></store><store id=\"s2\"><city>New York</city>"
      "<name>Empire Goods</name><note></note></store>"
      "<store id=\"s3\"><city>San Antonio</city><name>Alamo Wear</name>"
      "<note>open late</note></store></db>",
      {"york", "new york", "id s2", "note", "store apple"}, /*sample=*/0, 0);
}

// A document without a single entity: statistics fall back to the root's
// label, and the return entity is kNone.
TEST(SnippetLookupTest, EntityFreeResult) {
  CheckDocument("entity_free",
                "<db><info><city>Austin</city><state>Texas</state></info>"
                "<owner><name>Ann</name></owner></db>",
                {"texas", "info city", "austin ann"}, /*sample=*/0, 0);
}

// One attribute label under two entity labels, sharing values: the
// features (mall, name, Alamo) and (store, name, Alamo) are distinct, so
// an instance must match the entity label as well as the value.
TEST(SnippetLookupTest, SharedValueUnderTwoEntityLabels) {
  CheckDocument("two_entities",
                "<db><mall><name>Alamo</name><store><name>Alamo</name></store>"
                "<store><name>Beta</name></store></mall><mall><name>Beta</name>"
                "<store><name>Alamo</name></store><store><name>Alamo</name>"
                "</store></mall></db>",
                {"alamo", "beta", "store mall", "name"}, /*sample=*/0, 0);
}

// Rooted at a connection node, the attributes' nearest entity lies above
// the result, so they are attributed to the root's label instead.
TEST(SnippetLookupTest, NearestEntityAboveTheRoot) {
  CheckDocument(
      "entity_above",
      "<db><store><info><city>Houston</city><name>Levis</name></info>"
      "<product><kind>jeans</kind></product><product><kind>shirt</kind>"
      "</product></store><store><info><city>Austin</city><name>ESprit</name>"
      "</info><product><kind>jeans</kind></product></store></db>",
      {"store houston", "info", "jeans kind", "levis"}, /*sample=*/0, 0);
}

}  // namespace
}  // namespace extract
