// Corpus snapshot tests: the mmap-able whole-corpus store. Pins the format
// contract (precise statuses for every corruption/truncation/version-skew
// shape, the term directory included; every byte of a whole image flipped
// and every truncation; re-stamped bad posting lists), byte-equivalence of
// snapshot-backed serving against the in-memory corpus — search pages,
// snippets, and the HTTP wire — lazy fault-in semantics (counters, retry,
// term-directory pruning that never touches payloads), crash-safe saving
// (over a mapped file, abandoned mid-save), the two-layer corpus
// composition (overlay shadowing, hides, instance scoping), and churn under
// concurrent mutation (exercised by the TSan CI job).

#include "search/corpus_snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "http/http_server.h"
#include "http/query_endpoints.h"
#include "http_test_util.h"
#include "search/corpus.h"
#include "snippet/snippet_tree.h"
#include "xml/parser.h"

namespace extract {
namespace {

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

/// Writes the three demo datasets (names pre-sorted, so directory order
/// matches write order) and returns the snapshot path.
std::string WriteDemoSnapshot(const std::string& name) {
  const std::string path = TempPath(name);
  auto writer = CorpusSnapshotWriter::Create(path);
  EXPECT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->Add("movies", *XmlDatabase::Load(GenerateMoviesXml()))
                  .ok());
  EXPECT_TRUE(
      writer->Add("retailer", *XmlDatabase::Load(GenerateRetailerXml())).ok());
  EXPECT_TRUE(writer->Add("stores", *XmlDatabase::Load(GenerateStoresXml()))
                  .ok());
  EXPECT_TRUE(writer->Finish().ok());
  return path;
}

// ------------------------------------------------------------ round trip

TEST(CorpusSnapshotTest, WriterRoundTripFaultsInEquivalentDocuments) {
  const std::string path = WriteDemoSnapshot("corpus_roundtrip.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  CorpusSnapshot& snap = **snapshot;

  ASSERT_EQ(snap.doc_count(), 3u);
  EXPECT_EQ(snap.name(0), "movies");  // sorted by name
  EXPECT_EQ(snap.name(1), "retailer");
  EXPECT_EQ(snap.name(2), "stores");
  EXPECT_EQ(snap.FindIndex("retailer"), 1);
  EXPECT_EQ(snap.FindIndex("zzz"), -1);

  // Nothing is resident until touched.
  CorpusSnapshotStats stats = snap.Stats();
  EXPECT_EQ(stats.documents, 3u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_GT(stats.file_bytes, 0u);
  EXPECT_EQ(snap.ResidentOrNull(1), nullptr);

  auto doc = snap.Fault(1);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->name, "retailer");
  EXPECT_EQ(snap.ResidentOrNull(1), *doc);
  EXPECT_EQ(snap.Fault(1).value(), *doc);  // second touch: same pointer

  stats = snap.Stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.fault_failures, 0u);

  // The decoded document matches a fresh parse node for node.
  auto fresh = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(fresh.ok());
  const IndexedDocument& a = fresh->index();
  const IndexedDocument& b = (*doc)->db->index();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId n = 0; n < static_cast<NodeId>(a.num_nodes()); ++n) {
    ASSERT_EQ(a.parent(n), b.parent(n)) << "node " << n;
    ASSERT_EQ(a.kind(n), b.kind(n)) << "node " << n;
    if (a.is_element(n)) {
      ASSERT_EQ(a.label_name(n), b.label_name(n)) << "node " << n;
    } else {
      ASSERT_EQ(a.text(n), b.text(n)) << "node " << n;
    }
  }
  EXPECT_EQ(fresh->inverted().vocabulary_size(),
            (*doc)->db->inverted().vocabulary_size());
  EXPECT_EQ(fresh->inverted().total_postings(),
            (*doc)->db->inverted().total_postings());
  std::remove(path.c_str());
}

TEST(CorpusSnapshotTest, WriterRejectsDuplicateNames) {
  const std::string path = TempPath("corpus_dup.xcsn");
  auto writer = CorpusSnapshotWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  auto db = XmlDatabase::Load("<a>x</a>");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(writer->Add("doc", *db).ok());
  EXPECT_EQ(writer->Add("doc", *db).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(writer->Finish().ok());
  std::remove(path.c_str());
}

// ------------------------------------------------- corruption / skew

TEST(CorpusSnapshotTest, OpenRejectsCorruptionWithPreciseStatuses) {
  const std::string path = WriteDemoSnapshot("corpus_corrupt.xcsn");
  const std::string good = ReadFile(path);
  ASSERT_GT(good.size(), 64u);
  const std::string mutated = TempPath("corpus_corrupt_mut.xcsn");

  auto open_mutated = [&](const std::string& bytes) {
    WriteFile(mutated, bytes);
    return CorpusSnapshot::Open(mutated).status();
  };

  {  // bad magic
    std::string bytes = good;
    bytes[0] = 'Y';
    Status status = open_mutated(bytes);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("bad magic"), std::string::npos) << status;
  }
  {  // version skew
    std::string bytes = good;
    bytes[4] = 99;
    Status status = open_mutated(bytes);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
        << status;
  }
  {  // header corruption
    std::string bytes = good;
    bytes[16] ^= 0x5A;  // inside the checksummed header region
    Status status = open_mutated(bytes);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
        << status;
  }
  {  // directory corruption (directory sits at EOF)
    std::string bytes = good;
    bytes[bytes.size() - 1] ^= 0x5A;
    Status status = open_mutated(bytes);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("directory checksum mismatch"),
              std::string::npos)
        << status;
  }
  {  // truncation at every interesting boundary
    for (size_t keep : {size_t{0}, size_t{10}, size_t{63}, size_t{64},
                        good.size() / 2, good.size() - 1}) {
      Status status = open_mutated(good.substr(0, keep));
      EXPECT_EQ(status.code(), StatusCode::kParseError) << "kept " << keep;
    }
    Status status = open_mutated(good.substr(0, good.size() - 8));
    EXPECT_NE(status.message().find("truncated"), std::string::npos) << status;
  }
  {  // trailing garbage
    Status status = open_mutated(good + std::string(8, '\0'));
    EXPECT_NE(status.message().find("trailing"), std::string::npos) << status;
  }
  // The pristine file still opens — no mutation above was destructive.
  EXPECT_TRUE(CorpusSnapshot::Open(path).ok());
  EXPECT_EQ(CorpusSnapshot::Open(TempPath("no_such.xcsn")).status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(CorpusSnapshotTest, PayloadCorruptionSurfacesAtFaultInAndIsSticky) {
  const std::string path = WriteDemoSnapshot("corpus_payload.xcsn");
  std::string bytes = ReadFile(path);
  // Payload blobs start right after the 96-byte header; names were added in
  // sorted order, so the first blob is document 0 ("movies"). Flip a byte
  // deep inside it (past the section TOC, so framing stays plausible).
  bytes[96 + 128] ^= 0x5A;
  WriteFile(path, bytes);

  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();  // open never reads payloads
  CorpusSnapshot& snap = **snapshot;

  Status fault = snap.Fault(0).status();
  EXPECT_EQ(fault.code(), StatusCode::kParseError);
  EXPECT_NE(fault.message().find("payload checksum mismatch"),
            std::string::npos)
      << fault;
  EXPECT_NE(fault.message().find("movies"), std::string::npos) << fault;
  // Deterministic on retry, nothing retained, failure counted.
  EXPECT_FALSE(snap.Fault(0).ok());
  EXPECT_EQ(snap.ResidentOrNull(0), nullptr);
  EXPECT_EQ(snap.Stats().fault_failures, 2u);
  EXPECT_EQ(snap.Stats().resident, 0u);
  // The other documents are untouched by the corruption.
  EXPECT_TRUE(snap.Fault(1).ok());
  EXPECT_TRUE(snap.Fault(2).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------- term directory

/// Documents ForEachCandidate visits for `text`, by name.
std::vector<std::string> CandidateNames(const CorpusSnapshot& snap,
                                        const std::string& text) {
  std::vector<std::string> names;
  Status status = snap.ForEachCandidate(
      Query::Parse(text), [&](size_t i, std::span<const TermDocStats>) {
        names.emplace_back(snap.name(i));
      });
  EXPECT_TRUE(status.ok()) << status;
  return names;
}

TEST(CorpusSnapshotTest, TermDirectoryPrunesWithoutFaultingIn) {
  const std::string path = WriteDemoSnapshot("corpus_terms.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  CorpusSnapshot& snap = **snapshot;

  // Only the documents holding the keyword, with its stats.
  EXPECT_EQ(CandidateNames(snap, "texas"),
            (std::vector<std::string>{"retailer", "stores"}));
  EXPECT_TRUE(CandidateNames(snap, "xyzzyplugh").empty());
  EXPECT_TRUE(CandidateNames(snap, "texas xyzzyplugh").empty());
  ASSERT_TRUE(snap.ForEachCandidate(
                      Query::Parse("texas texas"),
                      [&](size_t, std::span<const TermDocStats> stats) {
                        ASSERT_EQ(stats.size(), 2u);
                        EXPECT_GT(stats[0].postings, 0u);
                        EXPECT_EQ(stats[0].postings, stats[1].postings);
                        EXPECT_GT(stats[0].max_depth, 0u);
                      })
                  .ok());
  // No keywords: every document, with nothing to bound it by.
  EXPECT_EQ(CandidateNames(snap, "").size(), 3u);
  // The directory never reads a payload — nothing became resident.
  EXPECT_EQ(snap.Stats().resident, 0u);

  // Corpus-level: a search that cannot match anything completes without a
  // single fault-in, and a top-k page faults in only what it opens.
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  XSeekEngine engine;
  auto hits = corpus.SearchAll(Query::Parse("xyzzyplugh"), engine);
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_TRUE(hits->empty());
  auto top = corpus.SearchTopK(Query::Parse("xyzzyplugh"), engine,
                               RankingOptions{}, CorpusServingOptions{}, 10);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_TRUE(top->empty());
  EXPECT_EQ(corpus.SnapshotStatsSnapshot()->resident, 0u);
  std::remove(path.c_str());
}

// The term directory is part of the format contract: any byte flip inside
// it either fails Open (its index is checksummed) or fails the first query
// that reads the damaged list — never a different page.
TEST(CorpusSnapshotTest, TermDirectoryCorruptionNeverServesAWrongPage) {
  const std::string path = TempPath("corpus_terms_flip.xcsn");
  XmlCorpus memory;
  ASSERT_TRUE(memory.AddDocument("a", "<s><i><n>texas boots</n></i></s>").ok());
  ASSERT_TRUE(memory.AddDocument("b", "<s><i><n>ohio boots</n></i></s>").ok());
  ASSERT_TRUE(memory.SaveSnapshot(path).ok());
  const std::string good = ReadFile(path);
  uint64_t terms_offset = 0;
  uint64_t terms_size = 0;
  std::memcpy(&terms_offset, good.data() + 48, 8);
  std::memcpy(&terms_size, good.data() + 56, 8);
  ASSERT_GT(terms_size, 0u);
  ASSERT_LE(terms_offset + terms_size, good.size());

  XSeekEngine engine;
  const std::vector<std::string> queries = {"boots", "texas boots", "ohio"};
  std::vector<std::vector<CorpusResult>> reference;
  for (const std::string& text : queries) {
    auto page = memory.SearchAll(Query::Parse(text), engine);
    ASSERT_TRUE(page.ok());
    reference.push_back(*page);
  }
  const std::string mutated = TempPath("corpus_terms_flip_mut.xcsn");
  size_t refused_at_open = 0;
  size_t refused_at_query = 0;
  for (uint64_t at = terms_offset; at < terms_offset + terms_size; ++at) {
    std::string bytes = good;
    bytes[at] ^= 0x20;
    WriteFile(mutated, bytes);
    auto snapshot = CorpusSnapshot::Open(mutated);
    if (!snapshot.ok()) {
      EXPECT_EQ(snapshot.status().code(), StatusCode::kParseError) << at;
      ++refused_at_open;
      continue;
    }
    XmlCorpus corpus;
    ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      const Query query = Query::Parse(queries[q]);
      for (size_t k : {size_t{1}, std::numeric_limits<size_t>::max()}) {
        auto page = k == 1 ? corpus.SearchTopK(query, engine, RankingOptions{},
                                               CorpusServingOptions{}, k)
                           : corpus.SearchAll(query, engine);
        if (!page.ok()) {
          EXPECT_EQ(page.status().code(), StatusCode::kParseError) << at;
          ++refused_at_query;
          continue;
        }
        const size_t n = std::min(k, reference[q].size());
        ASSERT_EQ(page->size(), n) << "byte " << at << " " << queries[q];
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ((*page)[i].document, reference[q][i].document) << at;
          EXPECT_EQ((*page)[i].result.root, reference[q][i].result.root) << at;
          EXPECT_EQ((*page)[i].score, reference[q][i].score) << at;
        }
      }
    }
  }
  EXPECT_GT(refused_at_open, 0u);
  EXPECT_GT(refused_at_query, 0u);

  // Truncating the term directory (dropping its last entry and re-framing
  // the header around the shorter region) is refused at Open.
  {
    std::string bytes = good;
    bytes.erase(static_cast<size_t>(terms_offset + terms_size - 16), 16);
    auto put = [&bytes](size_t at, uint64_t v) {
      std::memcpy(bytes.data() + at, &v, 8);
    };
    uint64_t dir_offset = 0;
    std::memcpy(&dir_offset, good.data() + 24, 8);
    put(8, bytes.size());          // file size
    put(24, dir_offset - 16);      // document directory offset
    put(56, terms_size - 16);      // term directory size
    put(88, snapshot_internal::Hash64(
                reinterpret_cast<const uint8_t*>(bytes.data()), 88));
    WriteFile(mutated, bytes);
    Status status = CorpusSnapshot::Open(mutated).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
    EXPECT_NE(status.message().find("term directory"), std::string::npos)
        << status;
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(CorpusSnapshotTest, VersionOneImageIsRefusedByName) {
  const std::string path = WriteDemoSnapshot("corpus_v1.xcsn");
  const std::string good = ReadFile(path);
  for (char version : {1, 2, 3, 4}) {
    std::string bytes = good;
    bytes[4] = version;  // the version field every image starts with
    WriteFile(path, bytes);
    Status status = CorpusSnapshot::Open(path).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    const std::string expected = "unsupported version " +
                                 std::to_string(version) + " (expected 5)";
    EXPECT_NE(status.message().find(expected), std::string::npos) << status;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------ whole-image fuzz

uint64_t U64At(const std::string& bytes, uint64_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

void PutU64At(std::string* bytes, uint64_t at, uint64_t v) {
  std::memcpy(bytes->data() + at, &v, 8);
}

/// Byte offset of the document directory's entries (four u64 words per
/// document: payload offset, payload size, payload checksum, node count).
uint64_t DirectoryEntriesAt(const std::string& image) {
  const uint64_t dir_offset = U64At(image, 24);
  const uint64_t doc_count = U64At(image, 16);
  const uint64_t name_bytes = U64At(image, dir_offset);
  return dir_offset + 8 + 8 * (doc_count + 1) + ((name_bytes + 7) & ~7ull);
}

/// Recomputes every checksum of an image — each payload's, the document
/// directory's and the header's — so a mutation inside a payload reaches
/// the decoder instead of failing a checksum.
void RestampChecksums(std::string* image) {
  const auto* data = reinterpret_cast<const uint8_t*>(image->data());
  const uint64_t entries = DirectoryEntriesAt(*image);
  for (uint64_t i = 0; i < U64At(*image, 16); ++i) {
    const uint64_t entry = entries + 32 * i;
    PutU64At(image, entry + 16,
             snapshot_internal::Hash64(data + U64At(*image, entry),
                                       U64At(*image, entry + 8)));
  }
  const uint64_t dir_offset = U64At(*image, 24);
  PutU64At(image, 40,
           snapshot_internal::Hash64(data + dir_offset, U64At(*image, 32)));
  PutU64At(image, 88, snapshot_internal::Hash64(data, 88));
}

/// Byte offset of the posting node ids (i32 each) of `token` in the first
/// document's payload: its inverted-index section holds the token count,
/// the posting total, the token offsets and bytes (8-aligned), then the
/// posting begins and the node ids.
uint64_t PostingNodesAt(const std::string& image, std::string_view token) {
  const uint64_t payload = U64At(image, DirectoryEntriesAt(image));
  const uint64_t inverted = payload + U64At(image, payload + 8 * 5);
  const uint64_t token_count = U64At(image, inverted);
  const uint64_t offsets = inverted + 16;
  const uint64_t token_bytes = offsets + 8 * (token_count + 1);
  const uint64_t begins =
      (token_bytes + U64At(image, offsets + 8 * token_count) + 7) & ~7ull;
  const uint64_t nodes = begins + 8 * (token_count + 1);
  for (uint64_t t = 0; t < token_count; ++t) {
    const uint64_t o0 = U64At(image, offsets + 8 * t);
    const uint64_t o1 = U64At(image, offsets + 8 * (t + 1));
    if (image.compare(token_bytes + o0, o1 - o0, token) == 0) {
      return nodes + 4 * U64At(image, begins + 8 * t);
    }
  }
  ADD_FAILURE() << "token '" << token << "' not in the first payload";
  return 0;
}

std::string RenderPage(const std::vector<CorpusResult>& page) {
  std::string out;
  for (const CorpusResult& hit : page) {
    char score[64];
    std::snprintf(score, sizeof(score), "%a", hit.score);
    out += hit.document + " " + std::to_string(hit.result.root) + " " +
           score + "\n";
  }
  return out;
}

/// The fixed query set of the corruption tests, served by `corpus`: per
/// query, SearchAll's page, SearchTopK's k = 1 page and the snippets of
/// `pages[q]` (the in-memory reference page), each rendered to bytes — or
/// the failing status.
std::vector<Result<std::string>> ServeQuerySet(
    const XmlCorpus& corpus, const std::vector<Query>& queries,
    const std::vector<std::vector<CorpusResult>>& pages) {
  XSeekEngine engine;
  std::vector<Result<std::string>> out;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto all = corpus.SearchAll(queries[q], engine);
    out.push_back(all.ok() ? Result<std::string>(RenderPage(*all))
                           : Result<std::string>(all.status()));
    auto top = corpus.SearchTopK(queries[q], engine, RankingOptions{},
                                 CorpusServingOptions{}, 1);
    out.push_back(top.ok() ? Result<std::string>(RenderPage(*top))
                           : Result<std::string>(top.status()));
    auto snippets =
        corpus.GenerateSnippets(queries[q], pages[q], SnippetOptions{});
    if (!snippets.ok()) {
      out.push_back(snippets.status());
      continue;
    }
    std::string rendered;
    for (const Snippet& snippet : *snippets) {
      rendered += RenderSnippet(snippet) + RenderCoverage(snippet) + "\n";
    }
    out.push_back(rendered);
  }
  return out;
}

// Every byte of a whole image flipped, and the image truncated at every
// length: each mutated image either fails Open with ParseError, or serves
// every call of the query set with the in-memory reference bytes or a
// ParseError. Nothing may crash (the suite runs under ASan/UBSan in CI).
TEST(CorpusSnapshotTest, WholeImageCorruptionFailsPreciselyOrServesTheReference) {
  // Document "a" is classified through its DTD; the image keeps the
  // classification, not the DTD.
  const std::string with_dtd =
      "<!DOCTYPE shop [\n"
      "  <!ELEMENT shop (item*)>\n"
      "  <!ELEMENT item (name, state)>\n"
      "  <!ELEMENT name (#PCDATA)>\n"
      "  <!ELEMENT state (#PCDATA)>\n"
      "]>\n"
      "<shop><item><name>texas boots</name>"
      "<state>texas</state></item><item>"
      "<name>ohio boots</name><state>ohio</state>"
      "</item></shop>";
  auto parsed = ParseXml(with_dtd);
  ASSERT_TRUE(parsed.ok() && (*parsed)->has_dtd());
  XmlCorpus memory;
  ASSERT_TRUE(memory.AddDocument("a", with_dtd).ok());
  ASSERT_TRUE(memory
                  .AddDocument("b",
                               "<s><i><n>texas hats</n></i>"
                               "<i><n>boots</n></i></s>")
                  .ok());
  const std::string path = TempPath("corpus_fuzz.xcsn");
  ASSERT_TRUE(memory.SaveSnapshot(path).ok());
  const std::string good = ReadFile(path);

  XSeekEngine engine;
  std::vector<Query> queries;
  std::vector<std::vector<CorpusResult>> pages;
  for (const char* text : {"boots", "texas boots", "texas", "ohio"}) {
    queries.push_back(Query::Parse(text));
    auto page = memory.SearchAll(queries.back(), engine);
    ASSERT_TRUE(page.ok()) << page.status();
    ASSERT_FALSE(page->empty()) << text;
    pages.push_back(std::move(*page));
  }
  const std::vector<Result<std::string>> reference =
      ServeQuerySet(memory, queries, pages);
  for (const Result<std::string>& call : reference) {
    ASSERT_TRUE(call.ok()) << call.status();
  }

  const std::string mutated = TempPath("corpus_fuzz_mut.xcsn");
  size_t refused_at_open = 0;
  size_t refused_at_query = 0;
  auto check = [&](const std::string& bytes, const std::string& label) {
    WriteFile(mutated, bytes);
    auto snapshot = CorpusSnapshot::Open(mutated);
    if (!snapshot.ok()) {
      EXPECT_EQ(snapshot.status().code(), StatusCode::kParseError)
          << label << ": " << snapshot.status();
      ++refused_at_open;
      return;
    }
    XmlCorpus corpus;
    ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok()) << label;
    const std::vector<Result<std::string>> served =
        ServeQuerySet(corpus, queries, pages);
    for (size_t i = 0; i < served.size(); ++i) {
      if (!served[i].ok()) {
        EXPECT_EQ(served[i].status().code(), StatusCode::kParseError)
            << label << " call " << i << ": " << served[i].status();
        ++refused_at_query;
        continue;
      }
      EXPECT_EQ(*served[i], *reference[i]) << label << " call " << i;
    }
  };
  for (size_t at = 0; at < good.size(); ++at) {
    std::string bytes = good;
    bytes[at] = static_cast<char>(~bytes[at]);
    check(bytes, "byte " + std::to_string(at) + " flipped");
  }
  for (size_t keep = 0; keep < good.size(); ++keep) {
    check(good.substr(0, keep), "truncated to " + std::to_string(keep));
  }
  EXPECT_GT(refused_at_open, 0u);
  EXPECT_GT(refused_at_query, 0u);
  // The pristine image still serves the reference.
  check(good, "pristine");
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

// A payload whose checksums were re-stamped around a bad posting list
// passes every checksum test, so the decoder itself must refuse a posting
// id the index could not have built: out of range, a text node, a
// duplicate, or descending. Serving such a list reads outside the
// document's node columns.
TEST(CorpusSnapshotTest, RestampedBadPostingFailsFaultIn) {
  XmlCorpus memory;
  ASSERT_TRUE(memory
                  .AddDocument("a",
                               "<s><i><n>texas boots</n></i>"
                               "<i><n>ohio boots</n></i></s>")
                  .ok());
  // Pre-order ids: 0 s, 1 i, 2 n, 3 "texas boots", 4 i, 5 n, ...
  const XmlDatabase& db = *memory.Find("a");
  ASSERT_EQ(db.inverted().Find("boots")->nodes, (std::vector<NodeId>{2, 5}));
  ASSERT_TRUE(db.index().is_text(3));
  const std::string path = TempPath("corpus_postings.xcsn");
  ASSERT_TRUE(memory.SaveSnapshot(path).ok());
  const std::string good = ReadFile(path);
  const uint64_t at = PostingNodesAt(good, "boots");
  ASSERT_GT(at, 0u);
  int32_t stored[2];
  std::memcpy(stored, good.data() + at, sizeof(stored));
  ASSERT_EQ(stored[0], 2);
  ASSERT_EQ(stored[1], 5);
  {  // Re-stamping an intact image reproduces the writer's checksums.
    std::string bytes = good;
    RestampChecksums(&bytes);
    ASSERT_EQ(bytes, good);
  }

  struct Mutation {
    const char* name;
    int32_t nodes[2];
  };
  const Mutation mutations[] = {
      {"out of range", {1 << 28, 5}},
      {"text node", {3, 5}},
      {"duplicate", {2, 2}},
      {"descending", {5, 2}},
  };
  const std::string mutated = TempPath("corpus_postings_mut.xcsn");
  XSeekEngine engine;
  for (const Mutation& m : mutations) {
    std::string bytes = good;
    std::memcpy(bytes.data() + at, m.nodes, sizeof(m.nodes));
    RestampChecksums(&bytes);
    WriteFile(mutated, bytes);
    auto snapshot = CorpusSnapshot::Open(mutated);
    ASSERT_TRUE(snapshot.ok()) << m.name << ": " << snapshot.status();
    Status fault = (*snapshot)->Fault(0).status();
    EXPECT_EQ(fault.code(), StatusCode::kParseError) << m.name << ": " << fault;
    EXPECT_NE(fault.message().find("bad posting node"), std::string::npos)
        << m.name << ": " << fault;
    XmlCorpus corpus;
    ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
    auto hits = corpus.SearchAll(Query::Parse("boots"), engine);
    EXPECT_EQ(hits.status().code(), StatusCode::kParseError) << m.name;
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

// ------------------------------------------------------------ safe saving

/// Files in the temp directory left behind by a writer of `path`.
size_t LeftoverTempFiles(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(CorpusSnapshotSaveTest, AbandonedWriterLeavesOldFileByteIdentical) {
  const std::string path = WriteDemoSnapshot("corpus_abandon.xcsn");
  const std::string before = ReadFile(path);
  {
    auto writer = CorpusSnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Add("only", *XmlDatabase::Load("<a>b</a>")).ok());
    EXPECT_EQ(LeftoverTempFiles(path), 1u);  // the save in progress
    EXPECT_EQ(ReadFile(path), before);
  }  // destroyed before Finish
  EXPECT_EQ(ReadFile(path), before);
  EXPECT_EQ(LeftoverTempFiles(path), 0u);
  EXPECT_TRUE(CorpusSnapshot::Open(path).ok());
  std::remove(path.c_str());
}

// Saving over the image a live corpus has mapped must not disturb it:
// readers pinned to the old mapping keep faulting in its documents while
// the new image replaces the path, and a re-attach serves the new image.
TEST(CorpusSnapshotSaveTest, SaveOverAttachedPathWhileReadersSearch) {
  const std::string path = WriteDemoSnapshot("corpus_save_live.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  XSeekEngine engine;
  auto expected = corpus.SearchAll(Query::Parse("texas"), engine);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->empty());

  std::atomic<bool> stop{false};
  std::atomic<size_t> pages{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto hits = corpus.SearchAll(Query::Parse("texas"), engine);
        ASSERT_TRUE(hits.ok()) << hits.status();
        ASSERT_EQ(hits->size(), expected->size());
        for (size_t i = 0; i < hits->size(); ++i) {
          ASSERT_EQ((*hits)[i].document, (*expected)[i].document);
          ASSERT_EQ((*hits)[i].score, (*expected)[i].score);
        }
        pages.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Save a different corpus over the mapped path, several times.
  XmlCorpus replacement;
  ASSERT_TRUE(
      replacement.AddDocument("zz_new", "<s><i><n>texas new</n></i></s>").ok());
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(replacement.SaveSnapshot(path).ok());
  }
  while (pages.load(std::memory_order_relaxed) < 10) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(LeftoverTempFiles(path), 0u);

  auto reopened = CorpusSnapshot::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(corpus.AttachSnapshot(*reopened).ok());
  EXPECT_EQ(corpus.DocumentNames(), std::vector<std::string>{"zz_new"});
  auto hits = corpus.SearchAll(Query::Parse("texas"), engine);
  ASSERT_TRUE(hits.ok()) << hits.status();
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].document, "zz_new");
  std::remove(path.c_str());
}

// ----------------------------------------- equivalence vs in-memory corpus

class SnapshotEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(memory_.AddDocument("movies", GenerateMoviesXml()).ok());
    ASSERT_TRUE(memory_.AddDocument("retailer", GenerateRetailerXml()).ok());
    ASSERT_TRUE(memory_.AddDocument("stores", GenerateStoresXml()).ok());

    path_ = TempPath("corpus_equiv.xcsn");
    ASSERT_TRUE(memory_.SaveSnapshot(path_).ok());
    auto snapshot = CorpusSnapshot::Open(path_);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(snapshot_backed_.AttachSnapshot(*snapshot).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  XmlCorpus memory_;
  XmlCorpus snapshot_backed_;
  XSeekEngine engine_;
  std::string path_;
};

TEST_F(SnapshotEquivalenceTest, SearchPagesAndSnippetsAreByteIdentical) {
  for (const char* text :
       {"texas", "texas apparel retailer", "movie", "science fiction",
        "store manager", "xyzzyplugh", ""}) {
    const Query query = Query::Parse(text);
    auto a = memory_.SearchAll(query, engine_);
    auto b = snapshot_backed_.SearchAll(query, engine_);
    ASSERT_EQ(a.ok(), b.ok()) << text;
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code()) << text;
      continue;
    }
    ASSERT_EQ(a->size(), b->size()) << text;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].document, (*b)[i].document) << text;
      EXPECT_EQ((*a)[i].result.root, (*b)[i].result.root) << text;
      EXPECT_EQ((*a)[i].score, (*b)[i].score) << text;
    }
    if (a->empty()) continue;

    auto snip_a = memory_.GenerateSnippets(query, *a, SnippetOptions{});
    auto snip_b = snapshot_backed_.GenerateSnippets(query, *b,
                                                    SnippetOptions{});
    ASSERT_TRUE(snip_a.ok()) << snip_a.status();
    ASSERT_TRUE(snip_b.ok()) << snip_b.status();
    ASSERT_EQ(snip_a->size(), snip_b->size());
    for (size_t i = 0; i < snip_a->size(); ++i) {
      EXPECT_EQ(RenderSnippet((*snip_a)[i]), RenderSnippet((*snip_b)[i]))
          << text << " slot " << i;
      EXPECT_EQ((*snip_a)[i].nodes, (*snip_b)[i].nodes) << text;
      EXPECT_EQ((*snip_a)[i].covered, (*snip_b)[i].covered) << text;
    }
  }
}

TEST_F(SnapshotEquivalenceTest, TopKMatchesAcrossBackends) {
  const Query query = Query::Parse("texas");
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
    auto a = memory_.SearchTopK(query, engine_, RankingOptions{},
                                CorpusServingOptions{}, k);
    auto b = snapshot_backed_.SearchTopK(query, engine_, RankingOptions{},
                                         CorpusServingOptions{}, k);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->size(), b->size()) << "k=" << k;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].document, (*b)[i].document) << "k=" << k;
      EXPECT_EQ((*a)[i].score, (*b)[i].score) << "k=" << k;
    }
  }
}

TEST_F(SnapshotEquivalenceTest, FindAndNamesMatch) {
  EXPECT_EQ(memory_.DocumentNames(), snapshot_backed_.DocumentNames());
  EXPECT_EQ(memory_.size(), snapshot_backed_.size());
  ASSERT_NE(snapshot_backed_.Find("stores"), nullptr);
  EXPECT_EQ(snapshot_backed_.Find("stores")->index().num_nodes(),
            memory_.Find("stores")->index().num_nodes());
  EXPECT_EQ(snapshot_backed_.Find("absent"), nullptr);
}

/// Zeroes the legitimately backend-dependent counters of a response body:
/// wall-clock timings, and the search work counters term-directory pruning
/// and bound-ordered opening are SUPPOSED to shrink (fewer producers
/// opened, fewer candidates scanned, fewer pull rounds, earlier
/// termination). Result content — documents, scores, keys, snippets — is
/// never scrubbed.
std::string ScrubWorkCounters(std::string body) {
  for (const std::string field :
       {"_ns\":", "producers\":", "pull_rounds\":", "candidates_total\":",
        "candidates_scored\":", "early_terminated\":"}) {
    for (size_t at = body.find(field); at != std::string::npos;
         at = body.find(field, at + 1)) {
      const size_t value = at + field.size();
      size_t end = value;
      while (end < body.size() && std::isalnum(static_cast<unsigned char>(
                                      body[end])) != 0) {
        ++end;
      }
      body.replace(value, end - value, "0");
    }
  }
  return body;
}

TEST_F(SnapshotEquivalenceTest, HttpWireIsByteIdentical) {
  memory_.EnableSnippetCache();
  snapshot_backed_.EnableSnippetCache();
  HttpServer server_a{HttpServerOptions{}};
  HttpServer server_b{HttpServerOptions{}};
  QueryService service_a(&memory_, &engine_, QueryServiceOptions{});
  QueryService service_b(&snapshot_backed_, &engine_, QueryServiceOptions{});
  service_a.Register(&server_a);
  service_b.Register(&server_b);
  ASSERT_TRUE(server_a.Start().ok());
  ASSERT_TRUE(server_b.Start().ok());

  // SSE in slot order: completion order is schedule-dependent by design,
  // so only slot order has one byte sequence to compare.
  const std::vector<std::string> targets = {
      "/query?q=texas", "/query?q=" + testing::UrlEncode("movie actor"),
      "/query?q=texas&mode=sse&order=slot", "/query?q=xyzzyplugh",
      "/query?q="};
  for (const std::string& target : targets) {
    testing::HttpResponse a = testing::Get(server_a.port(), target);
    testing::HttpResponse b = testing::Get(server_b.port(), target);
    ASSERT_TRUE(a.valid && b.valid) << target;
    EXPECT_EQ(a.status, b.status) << target;
    // The wire is backend-blind: identical except timing/work counters.
    EXPECT_EQ(ScrubWorkCounters(a.body), ScrubWorkCounters(b.body)) << target;
  }
  server_a.Stop();
  server_b.Stop();
}

TEST_F(SnapshotEquivalenceTest, StatsReportsSnapshotCounters) {
  // Touch one document, then check /stats surfaces the fault-in counters.
  ASSERT_NE(snapshot_backed_.Find("stores"), nullptr);
  auto stats = snapshot_backed_.SnapshotStatsSnapshot();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->documents, 3u);
  EXPECT_GE(stats->resident, 1u);
  EXPECT_EQ(stats->path, path_);
  EXPECT_FALSE(memory_.SnapshotStatsSnapshot().has_value());

  HttpServer server{HttpServerOptions{}};
  QueryService service(&snapshot_backed_, &engine_, QueryServiceOptions{});
  service.Register(&server);
  ASSERT_TRUE(server.Start().ok());
  testing::HttpResponse response = testing::Get(server.port(), "/stats");
  ASSERT_TRUE(response.valid);
  EXPECT_NE(response.body.find("\"snapshot\""), std::string::npos);
  EXPECT_NE(response.body.find("\"resident\""), std::string::npos);
  EXPECT_NE(response.body.find("\"faults\""), std::string::npos);
  server.Stop();
}

// ------------------------------------------------- two-layer composition

TEST(CorpusSnapshotLayerTest, OverlayShadowingAndHides) {
  const std::string path = WriteDemoSnapshot("corpus_layers.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());

  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("overlay", "<a><b>unique</b></a>").ok());
  ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  EXPECT_EQ(corpus.size(), 4u);

  // Snapshot names are taken: AddDocument must refuse, not shadow.
  EXPECT_EQ(corpus.AddDocument("stores", "<x/>").code(),
            StatusCode::kAlreadyExists);

  // Removing a snapshot document hides it (the mapping is immutable).
  ASSERT_TRUE(corpus.RemoveDocument("stores").ok());
  EXPECT_EQ(corpus.size(), 3u);
  EXPECT_EQ(corpus.Find("stores"), nullptr);
  EXPECT_EQ(corpus.RemoveDocument("stores").code(), StatusCode::kNotFound);

  // A hidden name is free again — the overlay now shadows the snapshot.
  ASSERT_TRUE(corpus.AddDocument("stores", "<shadow>texas</shadow>").ok());
  EXPECT_EQ(corpus.size(), 4u);
  ASSERT_NE(corpus.Find("stores"), nullptr);
  EXPECT_EQ(corpus.Find("stores")->index().num_nodes(), 2u);

  // Attaching over a colliding overlay name is refused atomically.
  auto again = CorpusSnapshot::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(corpus.AttachSnapshot(*again).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(corpus.AttachSnapshot(nullptr).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CorpusSnapshotLayerTest, SaveSnapshotRoundTripsTheVisibleSet) {
  const std::string first = TempPath("corpus_resave_a.xcsn");
  const std::string second = TempPath("corpus_resave_b.xcsn");
  {
    XmlCorpus corpus;
    ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
    ASSERT_TRUE(corpus.SaveSnapshot(first).ok());
  }
  XmlCorpus corpus;
  auto snapshot = CorpusSnapshot::Open(first);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  ASSERT_TRUE(corpus.AddDocument("extra", "<a><b>two</b></a>").ok());
  // Save again: the snapshot layer + overlay flatten into one image.
  ASSERT_TRUE(corpus.SaveSnapshot(second).ok());

  auto reopened = CorpusSnapshot::Open(second);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->doc_count(), 2u);
  EXPECT_EQ((*reopened)->name(0), "extra");
  EXPECT_EQ((*reopened)->name(1), "stores");
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// ------------------------------------------------------------------ churn

// Readers search and fault in lazily while a writer hides snapshot
// documents and churns overlay documents. Epoch pins must keep every
// observed view coherent; TSan (CI) verifies the synchronization.
TEST(CorpusSnapshotChurnTest, ConcurrentSearchSurvivesMutation) {
  const std::string path = WriteDemoSnapshot("corpus_churn.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());

  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  XSeekEngine engine;

  std::atomic<bool> stop{false};
  std::atomic<size_t> pages{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&corpus, &engine, &stop, &pages, t] {
      const Query query =
          Query::Parse(t % 2 == 0 ? "texas" : "movie");
      // At least one read per reader, however late it starts: a "texas"
      // read always faults a snapshot document in.
      do {
        // One pin for the whole read: the hits name documents of the view
        // they were searched under, which the writer may since have hidden
        // or removed from the current view.
        const CorpusPin pin = corpus.PinView();
        auto hits = corpus.SearchAll(query, engine, RankingOptions{},
                                     CorpusServingOptions{}, pin);
        ASSERT_TRUE(hits.ok()) << hits.status();
        if (!hits->empty()) {
          auto snippets = corpus.GenerateSnippets(
              query, *hits, SnippetOptions{}, pin);
          ASSERT_TRUE(snippets.ok()) << snippets.status();
        }
        pages.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(
        corpus.AddDocument("churn", "<a><b>texas churn</b></a>").ok());
    ASSERT_TRUE(corpus.RemoveDocument("churn").ok());
    if (round == 10) {
      ASSERT_TRUE(corpus.RemoveDocument("movies").ok());  // hide snapshot doc
    }
  }
  while (pages.load(std::memory_order_relaxed) < 30) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(corpus.size(), 2u);  // movies hidden, churn removed
  EXPECT_GE(corpus.SnapshotStatsSnapshot()->resident, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace extract
