// One-document snapshot images: a single database written through
// CorpusSnapshotWriter and read back through CorpusSnapshot::Fault must
// restore every column and derived structure exactly, and every malformed
// image must be refused with a precise status.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "search/corpus_snapshot.h"
#include "snippet/snippet_service.h"
#include "snippet/snippet_tree.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace extract {
namespace {

/// Payload blobs start right after the fixed-size header.
constexpr size_t kHeaderBytes = 96;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes `db` as a one-document image at `path`.
Status SaveOne(const XmlDatabase& db, const std::string& path) {
  Result<CorpusSnapshotWriter> writer = CorpusSnapshotWriter::Create(path);
  EXTRACT_RETURN_IF_ERROR(writer.status());
  EXTRACT_RETURN_IF_ERROR(writer->Add("db", db));
  return writer->Finish();
}

/// Opens a one-document image and faults its document in. The database
/// outlives the snapshot: it shares nothing with the mapping.
Result<std::shared_ptr<const XmlDatabase>> LoadOne(const std::string& path) {
  Result<std::shared_ptr<CorpusSnapshot>> snapshot = CorpusSnapshot::Open(path);
  EXTRACT_RETURN_IF_ERROR(snapshot.status());
  if ((*snapshot)->doc_count() != 1) {
    return Status::ParseError("expected a one-document image");
  }
  Result<const CorpusSnapshot::SnapshotDocument*> doc = (*snapshot)->Fault(0);
  EXTRACT_RETURN_IF_ERROR(doc.status());
  return (*doc)->db;
}

/// Round-trips `db` through an image file.
Result<std::shared_ptr<const XmlDatabase>> RoundTrip(const XmlDatabase& db,
                                                     const std::string& name) {
  const std::string path = TempPath(name);
  EXTRACT_RETURN_IF_ERROR(SaveOne(db, path));
  Result<std::shared_ptr<const XmlDatabase>> restored = LoadOne(path);
  std::remove(path.c_str());
  return restored;
}

/// A snippet's served bytes: its tree, its coverage and its XML.
std::string Render(const Snippet& snippet) {
  return RenderSnippet(snippet) + RenderCoverage(snippet) +
         (snippet.tree != nullptr ? WriteXml(*snippet.tree) : std::string());
}

/// Saves a tiny document, applies `mutate` to the image bytes and loads the
/// result.
template <typename Mutate>
Status LoadMutated(const std::string& name, Mutate mutate) {
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  EXPECT_TRUE(db.ok());
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveOne(*db, path).ok());
  std::string bytes = ReadFile(path);
  mutate(bytes);
  WriteFile(path, bytes);
  Status status = LoadOne(path).status();
  std::remove(path.c_str());
  return status;
}

TEST(SnapshotTest, RoundTripPreservesDocument) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  auto restored = RoundTrip(*db, "snapshot_roundtrip.xcsn");
  ASSERT_TRUE(restored.ok()) << restored.status();

  const IndexedDocument& a = db->index();
  const IndexedDocument& b = (*restored)->index();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (NodeId n = 0; n < static_cast<NodeId>(a.num_nodes()); ++n) {
    EXPECT_EQ(a.parent(n), b.parent(n));
    EXPECT_EQ(a.kind(n), b.kind(n));
    EXPECT_EQ(a.depth(n), b.depth(n));
    EXPECT_EQ(a.subtree_end(n), b.subtree_end(n));
    if (a.is_element(n)) {
      EXPECT_EQ(a.label_name(n), b.label_name(n));
    } else {
      EXPECT_EQ(a.text(n), b.text(n));
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesClassification) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  auto restored = RoundTrip(*db, "snapshot_classification.xcsn");
  ASSERT_TRUE(restored.ok()) << restored.status();
  const XmlDatabase& r = **restored;
  for (NodeId n = 0; n < static_cast<NodeId>(db->index().num_nodes()); ++n) {
    ASSERT_EQ(db->classification().category(n), r.classification().category(n))
        << n;
  }
  EXPECT_EQ(db->classification().entity_labels(),
            r.classification().entity_labels());
  EXPECT_EQ(db->inverted().vocabulary_size(), r.inverted().vocabulary_size());
  EXPECT_EQ(db->inverted().total_postings(), r.inverted().total_postings());
}

// A lone <store> is an entity only because the DTD declares store* (data
// inference sees one instance). The image stores no DTD, so the faulted-in
// document must carry that decision in its classification and serve the
// snippets of its in-memory twin.
TEST(SnapshotTest, DtdClassificationSurvivesWithoutTheDtd) {
  constexpr std::string_view kXml = R"(<!DOCTYPE retailers [
  <!ELEMENT retailers (retailer*)>
  <!ELEMENT retailer (name, product, store*)>
  <!ELEMENT store (name, state, city, merchandises)>
  <!ELEMENT merchandises (clothes*)>
  <!ELEMENT clothes (fitting, category)>
  <!ELEMENT name (#PCDATA)> <!ELEMENT product (#PCDATA)>
  <!ELEMENT state (#PCDATA)> <!ELEMENT city (#PCDATA)>
  <!ELEMENT fitting (#PCDATA)> <!ELEMENT category (#PCDATA)>
]>
<retailers>
  <retailer>
    <name>Brook Brothers</name>
    <product>apparel</product>
    <store>
      <name>Galleria</name><state>Texas</state><city>Houston</city>
      <merchandises>
        <clothes><fitting>man</fitting><category>suit</category></clothes>
        <clothes><fitting>woman</fitting><category>skirt</category></clothes>
      </merchandises>
    </store>
  </retailer>
</retailers>)";
  auto db = XmlDatabase::Load(kXml);
  ASSERT_TRUE(db.ok()) << db.status();
  // The same document classified by data inference alone (no DTD).
  auto parsed = ParseXml(kXml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto flat = IndexedDocument::Build(**parsed);
  ASSERT_TRUE(flat.ok()) << flat.status();
  auto without_dtd = XmlDatabase::FromIndexedDocument(
      std::move(*flat), /*dtd=*/nullptr, LoadOptions{});
  ASSERT_TRUE(without_dtd.ok()) << without_dtd.status();
  auto restored = RoundTrip(*db, "snapshot_dtd_effect.xcsn");
  ASSERT_TRUE(restored.ok()) << restored.status();

  const NodeId store = [&] {
    const IndexedDocument& doc = (*restored)->index();
    for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
      if (doc.is_element(n) && doc.label_name(n) == "store") return n;
    }
    return kInvalidNode;
  }();
  ASSERT_NE(store, kInvalidNode);
  EXPECT_FALSE(without_dtd->classification().IsEntity(store));
  EXPECT_TRUE(db->classification().IsEntity(store));
  EXPECT_TRUE((*restored)->classification().IsEntity(store));

  XSeekEngine engine;
  SnippetService memory_service(&*db);
  SnippetService restored_service(restored->get());
  for (const char* text : {"Texas suit", "Galleria", "apparel Houston"}) {
    const Query query = Query::Parse(text);
    auto memory_results = engine.Search(*db, query);
    auto restored_results = engine.Search(**restored, query);
    ASSERT_TRUE(memory_results.ok() && restored_results.ok()) << text;
    ASSERT_EQ(memory_results->size(), restored_results->size()) << text;
    ASSERT_FALSE(memory_results->empty()) << text;
    for (size_t i = 0; i < memory_results->size(); ++i) {
      auto a = memory_service.Generate(query, (*memory_results)[i],
                                       SnippetOptions{});
      auto b = restored_service.Generate(query, (*restored_results)[i],
                                         SnippetOptions{});
      ASSERT_TRUE(a.ok() && b.ok()) << text;
      EXPECT_EQ(Render(*a), Render(*b)) << text;
    }
  }
}

TEST(SnapshotTest, SearchAndSnippetsIdenticalAfterReload) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  auto restored = RoundTrip(*db, "snapshot_search.xcsn");
  ASSERT_TRUE(restored.ok()) << restored.status();

  Query query = Query::Parse("Texas apparel retailer");
  XSeekEngine engine;
  auto results_a = engine.Search(*db, query);
  auto results_b = engine.Search(**restored, query);
  ASSERT_TRUE(results_a.ok());
  ASSERT_TRUE(results_b.ok());
  ASSERT_EQ(results_a->size(), results_b->size());

  SnippetService service_a(&*db);
  SnippetService service_b(restored->get());
  SnippetOptions options;
  options.size_bound = 15;
  auto snip_a = service_a.Generate(query, results_a->front(), options);
  auto snip_b = service_b.Generate(query, results_b->front(), options);
  ASSERT_TRUE(snip_a.ok());
  ASSERT_TRUE(snip_b.ok());
  EXPECT_EQ(snip_a->ilist.ToString(), snip_b->ilist.ToString());
  EXPECT_EQ(snip_a->nodes, snip_b->nodes);
}

TEST(SnapshotTest, RejectsBadMagic) {
  Status status = LoadMutated("snapshot_magic.xcsn",
                              [](std::string& bytes) { bytes[0] = 'Y'; });
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(SnapshotTest, RejectsBadVersion) {
  Status status = LoadMutated("snapshot_version.xcsn",
                              [](std::string& bytes) { bytes[4] = 99; });
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("version 99"), std::string::npos) << status;
}

TEST(SnapshotTest, RejectsCorruptPayload) {
  Status status = LoadMutated("snapshot_payload.xcsn", [](std::string& bytes) {
    bytes[kHeaderBytes + 128] ^= 0x5A;  // inside the only payload blob
  });
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos) << status;
}

TEST(SnapshotTest, RejectsTruncation) {
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  ASSERT_TRUE(db.ok());
  const std::string path = TempPath("snapshot_truncation.xcsn");
  ASSERT_TRUE(SaveOne(*db, path).ok());
  const std::string bytes = ReadFile(path);
  for (size_t keep : {size_t{0}, size_t{3}, size_t{8}, size_t{15},
                      bytes.size() - 1}) {
    WriteFile(path, bytes.substr(0, keep));
    EXPECT_EQ(LoadOne(path).status().code(), StatusCode::kParseError)
        << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, FileRoundTrip) {
  auto db = XmlDatabase::Load(GenerateMoviesXml());
  ASSERT_TRUE(db.ok());
  const std::string path = TempPath("extract_snapshot_test.xcsn");
  ASSERT_TRUE(SaveOne(*db, path).ok());
  {
    auto restored = LoadOne(path);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ((*restored)->index().num_nodes(), db->index().num_nodes());
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadOne("/nonexistent/path.xcsn").status().code(),
            StatusCode::kNotFound);
}

TEST(FromFlatColumnsTest, RejectsInconsistentColumns) {
  LabelTable labels;
  labels.Intern("a");
  // Size mismatch.
  EXPECT_FALSE(IndexedDocument::FromFlatColumns(
                   labels, {kInvalidNode}, {0, 0},
                   {IndexedNodeKind::kElement}, {""})
                   .ok());
  // Root with a parent.
  EXPECT_FALSE(IndexedDocument::FromFlatColumns(
                   labels, {0}, {0}, {IndexedNodeKind::kElement}, {""})
                   .ok());
  // Parent after child (not pre-order).
  EXPECT_FALSE(IndexedDocument::FromFlatColumns(
                   labels, {kInvalidNode, 2, 0}, {0, 0, 0},
                   {IndexedNodeKind::kElement, IndexedNodeKind::kElement,
                    IndexedNodeKind::kElement},
                   {"", "", ""})
                   .ok());
  // Text node with a child.
  EXPECT_FALSE(IndexedDocument::FromFlatColumns(
                   labels, {kInvalidNode, 0, 1},
                   {0, kInvalidLabel, kInvalidLabel},
                   {IndexedNodeKind::kElement, IndexedNodeKind::kText,
                    IndexedNodeKind::kText},
                   {"", "x", "y"})
                   .ok());
  // Label out of range.
  EXPECT_FALSE(IndexedDocument::FromFlatColumns(
                   labels, {kInvalidNode}, {7}, {IndexedNodeKind::kElement},
                   {""})
                   .ok());
  // Empty.
  EXPECT_FALSE(
      IndexedDocument::FromFlatColumns(labels, {}, {}, {}, {}).ok());
}

}  // namespace
}  // namespace extract
