#include "search/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "snippet/snippet_service.h"

namespace extract {
namespace {

TEST(SnapshotTest, RoundTripPreservesDocument) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  std::string bytes = SaveDatabaseSnapshot(*db);
  auto restored = LoadDatabaseSnapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();

  const IndexedDocument& a = db->index();
  const IndexedDocument& b = restored->index();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (NodeId n = 0; n < static_cast<NodeId>(a.num_nodes()); ++n) {
    EXPECT_EQ(a.parent(n), b.parent(n));
    EXPECT_EQ(a.kind(n), b.kind(n));
    EXPECT_EQ(a.depth(n), b.depth(n));
    EXPECT_EQ(a.subtree_end(n), b.subtree_end(n));
    EXPECT_EQ(CompareDewey(a.dewey(n), b.dewey(n)), 0);
    if (a.is_element(n)) {
      EXPECT_EQ(a.label_name(n), b.label_name(n));
    } else {
      EXPECT_EQ(a.text(n), b.text(n));
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesDtdAndClassification) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  auto restored = LoadDatabaseSnapshot(SaveDatabaseSnapshot(*db));
  ASSERT_TRUE(restored.ok());
  ASSERT_NE(restored->dtd(), nullptr);
  EXPECT_EQ(restored->dtd()->root_name(), "retailers");
  EXPECT_TRUE(restored->dtd()->IsStarChild("retailers", "retailer"));
  // Derived structures rebuilt identically: same entity labels & counts.
  EXPECT_EQ(db->classification().entity_labels().size(),
            restored->classification().entity_labels().size());
  EXPECT_EQ(db->classification().CountCategory(NodeCategory::kEntity),
            restored->classification().CountCategory(NodeCategory::kEntity));
  EXPECT_EQ(db->inverted().vocabulary_size(),
            restored->inverted().vocabulary_size());
  EXPECT_EQ(db->inverted().total_postings(),
            restored->inverted().total_postings());
}

TEST(SnapshotTest, NoDtdRoundTrip) {
  RetailerDatasetOptions options;
  options.include_dtd = false;
  auto db = XmlDatabase::Load(GenerateRetailerXml(options));
  ASSERT_TRUE(db.ok());
  auto restored = LoadDatabaseSnapshot(SaveDatabaseSnapshot(*db));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dtd(), nullptr);
}

TEST(SnapshotTest, SearchAndSnippetsIdenticalAfterReload) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  auto restored = LoadDatabaseSnapshot(SaveDatabaseSnapshot(*db));
  ASSERT_TRUE(restored.ok());

  Query query = Query::Parse("Texas apparel retailer");
  XSeekEngine engine;
  auto results_a = engine.Search(*db, query);
  auto results_b = engine.Search(*restored, query);
  ASSERT_TRUE(results_a.ok());
  ASSERT_TRUE(results_b.ok());
  ASSERT_EQ(results_a->size(), results_b->size());

  SnippetService service_a(&*db);
  SnippetService service_b(&*restored);
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
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  ASSERT_TRUE(db.ok());
  std::string bytes = SaveDatabaseSnapshot(*db);
  bytes[0] = 'Y';
  EXPECT_EQ(LoadDatabaseSnapshot(bytes).status().code(),
            StatusCode::kParseError);
}

TEST(SnapshotTest, RejectsBadVersion) {
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  ASSERT_TRUE(db.ok());
  std::string bytes = SaveDatabaseSnapshot(*db);
  bytes[4] = 99;  // version field
  EXPECT_FALSE(LoadDatabaseSnapshot(bytes).ok());
}

TEST(SnapshotTest, RejectsCorruptPayload) {
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  ASSERT_TRUE(db.ok());
  std::string bytes = SaveDatabaseSnapshot(*db);
  bytes[bytes.size() / 2] ^= 0x5A;
  auto restored = LoadDatabaseSnapshot(bytes);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotTest, RejectsTruncation) {
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  ASSERT_TRUE(db.ok());
  std::string bytes = SaveDatabaseSnapshot(*db);
  for (size_t keep : {size_t{0}, size_t{3}, size_t{8}, size_t{15},
                      bytes.size() - 1}) {
    EXPECT_FALSE(LoadDatabaseSnapshot(bytes.substr(0, keep)).ok())
        << "kept " << keep;
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  auto db = XmlDatabase::Load(GenerateMoviesXml());
  ASSERT_TRUE(db.ok());
  std::string path = ::testing::TempDir() + "/extract_snapshot_test.bin";
  ASSERT_TRUE(SaveDatabaseSnapshotToFile(*db, path).ok());
  auto restored = LoadDatabaseSnapshotFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->index().num_nodes(), db->index().num_nodes());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadDatabaseSnapshotFromFile("/nonexistent/path.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(FnvTest, KnownValues) {
  // FNV-1a 64 test vectors.
  EXPECT_EQ(internal::Fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(internal::Fnv1a("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(internal::Fnv1a("ab"), internal::Fnv1a("ba"));
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
