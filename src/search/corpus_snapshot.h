// Corpus snapshot: a whole-corpus, mmap-able persistent store with lazy
// per-document fault-in (the netdata tiered-storage shape: memory-mapped
// hot data, the OS page cache doing hot/cold tiering).
//
// On-disk layout (version 5; all integers little-endian, sections 8-byte
// aligned, built by CorpusSnapshotWriter in one streaming pass plus a
// directory pass at Finish):
//
//   +----------------------------------------------------------------+
//   | header (96 B): magic "XCSN" | u32 version | u64 file_size      |
//   |   u64 doc_count | u64 dir_offset | u64 dir_size               |
//   |   u64 dir_checksum | u64 terms_offset | u64 terms_size        |
//   |   u64 terms_checksum | 2 x u64 reserved | u64 header_checksum |
//   +----------------------------------------------------------------+
//   | document payload blobs, one per document, 8-aligned:           |
//   |   fixed section TOC (six section offsets, the node count, two  |
//   |   zero words) -> flat zero-parse columns for the label table,  |
//   |   node columns (parent/label/kind), text arena, node           |
//   |   classification, mined keys and the inverted index (sorted    |
//   |   token arena + CSR posting lists). No DTD: its effect is the  |
//   |   stored classification                                        |
//   +----------------------------------------------------------------+
//   | term directory: u64 term_count | u64 entry_count |            |
//   |   u64 key_bytes | key offsets | list begins | list checksums | |
//   |   key arena (one case-folded token per term, sorted bytewise)  |
//   |   | entries: per term, the documents holding the token in name |
//   |   order, each u32 document index, u32 posting count, u32       |
//   |   deepest posting depth, u32 fewest master-entity subtree      |
//   |   edges (search_engine.h TermDocStats)                         |
//   +----------------------------------------------------------------+
//   | document directory: name arena + per-document entries         |
//   |   (payload window, payload checksum, node count), sorted by    |
//   |   name for binary search                                       |
//   +----------------------------------------------------------------+
//
// Checksums: one function, Hash64, covers the header (its first 88 bytes,
// stored in its last word), the document directory, the term directory's
// index (everything before its entries), each term's entry list and each
// payload. Images of other versions (v1 to v4) are refused by number.
//
// Open() maps the file and validates the header, the document directory and
// the term directory's index — O(documents + vocabulary), never O(corpus
// bytes): neither a payload nor a term's entry list is read. A term's
// entries are verified against their checksum on first use; a document
// decodes ("faults in") on first touch, verified against its own checksum,
// and stays resident for the snapshot's lifetime, so the resident set is the
// touched set. Fault-in failures retain nothing and are retryable.
//
// The snapshot composes with the live-mutable corpus (search/corpus.h):
// CorpusView holds a shared_ptr to the snapshot, so an epoch pin keeps the
// mapping alive for a whole query and swapping a re-opened snapshot file is
// just an epoch publish. ForEachCandidate() answers "which documents could
// match this query" from the term directory alone, with the per-keyword
// stats an engine turns into a score bound
// (SearchEngine::DocumentScoreBound) — so search under AND keyword
// semantics (SearchEngine::RequiresAllKeywords) opens only documents that
// hold every keyword, and top-k search only those whose bound reaches the
// page.

#ifndef EXTRACT_SEARCH_CORPUS_SNAPSHOT_H_
#define EXTRACT_SEARCH_CORPUS_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mmap_file.h"
#include "common/result.h"
#include "search/search_engine.h"

namespace extract {

namespace snapshot_internal {

/// Fast 64-bit content hash (word-at-a-time; not cryptographic) used for
/// every checksum of the image.
uint64_t Hash64(const uint8_t* data, size_t n);

/// \brief A validated view of a snapshot image's header, document
/// directory and term-directory index over raw bytes (the mapped file).
/// Holds pointers into the image; the bytes must outlive the view.
struct ImageView {
  const uint8_t* base = nullptr;
  uint64_t file_size = 0;
  uint64_t doc_count = 0;
  const uint64_t* name_offsets = nullptr;  ///< doc_count + 1 entries
  const char* name_bytes = nullptr;
  uint64_t name_bytes_len = 0;
  const uint64_t* entries = nullptr;  ///< doc_count * kDirEntryWords

  /// Term directory: term_count keys (one token each) sorted bytewise, each
  /// owning the entry range [list_begin[t], list_begin[t+1]).
  uint64_t term_count = 0;
  const uint8_t* key_offsets = nullptr;    ///< u64[term_count + 1]
  const uint8_t* list_begin = nullptr;     ///< u64[term_count + 1]
  const uint8_t* list_checksum = nullptr;  ///< u64[term_count]
  const char* key_bytes = nullptr;
  const uint8_t* term_entries = nullptr;   ///< kTermEntryBytes each

  std::string_view name(size_t i) const {
    return std::string_view(name_bytes + name_offsets[i],
                            name_offsets[i + 1] - name_offsets[i]);
  }
  uint64_t entry(size_t i, size_t field) const;
};

}  // namespace snapshot_internal

/// Point-in-time counters of one open snapshot — the /stats "snapshot"
/// object and the scale bench's fault-in telemetry.
struct CorpusSnapshotStats {
  uint64_t documents = 0;       ///< documents in the snapshot file
  uint64_t resident = 0;        ///< faulted-in (decoded) documents
  uint64_t faults = 0;          ///< successful fault-ins
  uint64_t fault_failures = 0;  ///< failed fault-in attempts (retryable)
  uint64_t fault_ns = 0;        ///< cumulative decode+verify time
  uint64_t open_ns = 0;         ///< wall time of Open()
  uint64_t file_bytes = 0;      ///< snapshot file size
  std::string path;
};

/// \brief Streaming snapshot writer: Add documents (any order, unique
/// names), then Finish. Blobs are written as they are added, so the
/// in-memory footprint is one blob plus the directories — corpus size never
/// needs to fit in memory.
///
/// Saving is crash-safe and safe over a mapped file: the image is written
/// to a fresh temporary file beside `path`, and only a successful Finish
/// renames it over `path` — after making it durable when it replaces an
/// existing file. Readers that mapped the old image keep its bytes (the
/// rename never truncates it), and a crash or a failed or abandoned save
/// leaves the old file exactly as it was.
class CorpusSnapshotWriter {
 public:
  /// Creates the temporary file beside `path` and reserves the header;
  /// `path` itself is not touched until Finish.
  static Result<CorpusSnapshotWriter> Create(const std::string& path);

  CorpusSnapshotWriter(CorpusSnapshotWriter&& other) noexcept;
  CorpusSnapshotWriter& operator=(CorpusSnapshotWriter&&) = delete;
  /// A writer destroyed before Finish succeeded removes its temporary file.
  ~CorpusSnapshotWriter();

  /// Serializes and appends one document. kAlreadyExists on a duplicate
  /// name, kResourceExhausted past 2^32 - 1 documents, Internal on I/O
  /// failure (which also closes the writer).
  Status Add(std::string_view name, const XmlDatabase& db);

  /// Writes the term and document directories and the header, then renames
  /// the temporary file over `path`. When `path` already exists, the file
  /// is fsynced before the rename and its directory after; a save to a new
  /// path skips both (a crash can only leave a torn image there, which
  /// Open refuses). On any failure before the rename the temporary file is
  /// removed and `path` is left as it was. The writer is closed afterwards
  /// either way.
  Status Finish();

 private:
  CorpusSnapshotWriter() = default;

  /// Closes and removes the temporary file, then returns `status`.
  Status Abandon(Status status);

  std::FILE* file_ = nullptr;
  std::string path_;       ///< the image Finish replaces
  std::string temp_path_;  ///< where the image is written until then
  uint64_t offset_ = 0;  ///< current write offset (8-aligned after each Add)
  struct Entry {
    std::string name;
    uint64_t payload_off = 0;
    uint64_t payload_size = 0;
    uint64_t payload_checksum = 0;
    uint64_t num_nodes = 0;
  };
  std::vector<Entry> entries_;
  std::unordered_set<std::string> names_;  ///< duplicate detection in Add
  /// The term directory under construction: token -> (index into
  /// entries_, stats) per document holding the token.
  std::unordered_map<std::string,
                     std::vector<std::pair<uint32_t, TermDocStats>>>
      terms_;
  /// Per-Add scratch, kept to reuse its capacity: the encoded blob and the
  /// master entity of every node.
  std::string blob_;
  std::vector<NodeId> master_;
};

/// \brief One open, lazily faulted snapshot file. Immutable and internally
/// synchronized: any number of threads may Fault / ForEachCandidate / read
/// names concurrently. Intended to be held by shared_ptr — CorpusView
/// shares it, so epoch pins keep the mapping alive (see file comment).
class CorpusSnapshot {
 public:
  /// Maps and validates `path` (header, document directory and term
  /// directory index only — no payload or term list is read). NotFound
  /// for a missing file, ParseError with a precise message for any
  /// corruption/truncation/version skew.
  static Result<std::shared_ptr<CorpusSnapshot>> Open(const std::string& path);

  size_t doc_count() const { return static_cast<size_t>(view_.doc_count); }

  /// Name of document `i` (documents are sorted by name). The view borrows
  /// the mapping — copy it to outlive the snapshot.
  std::string_view name(size_t i) const { return view_.name(i); }

  /// Index of `name`, or -1. O(log doc_count) over the mapped directory.
  ptrdiff_t FindIndex(std::string_view name) const;

  /// \brief One faulted-in document: the decoded database plus the
  /// identity the corpus serves it under. Stable for the snapshot's
  /// lifetime once returned.
  struct SnapshotDocument {
    std::shared_ptr<const XmlDatabase> db;
    std::string name;
    /// Registration id under the attached corpus (instance_base + index);
    /// see XmlCorpus::AttachSnapshot.
    uint64_t instance = 0;
    /// Snippet-cache document id, "<name>@<instance>".
    std::string cache_id;
  };

  /// \brief Returns document `i`, decoding ("faulting in") on first touch:
  /// the payload checksum is verified, the flat columns are rebuilt into an
  /// XmlDatabase, and the result is published for every later call. A
  /// failure (corrupt payload, injected fault) retains nothing and is
  /// retryable. Thread-safe; concurrent faults of the same document decode
  /// once.
  Result<const SnapshotDocument*> Fault(size_t i) const;

  /// The already-resident document `i`, or nullptr (never decodes).
  const SnapshotDocument* ResidentOrNull(size_t i) const {
    return slots_[i].doc.load(std::memory_order_acquire);
  }

  /// Visitor of ForEachCandidate: a document index and its per-keyword
  /// term-directory stats, parallel to the query's keywords.
  using CandidateFn =
      std::function<void(size_t, std::span<const TermDocStats>)>;

  /// \brief Calls `fn(i, stats)`, in name order, for every document i that
  /// holds every query keyword (case-folded) — exactly the documents that
  /// can yield a result under AND keyword semantics
  /// (SearchEngine::RequiresAllKeywords). `stats` is parallel to the
  /// query's keywords, each entry the document's directory entry for that
  /// keyword. A keyword-less query visits every document with empty stats.
  ///
  /// Reads only the term directory: nothing faults in, and a keyword absent
  /// from the corpus costs one binary search. A term's entry list is
  /// checksum-verified on its first use; ParseError when that fails.
  Status ForEachCandidate(const Query& query, const CandidateFn& fn) const;

  /// \brief Base registration id for cache scoping, assigned once by
  /// XmlCorpus::AttachSnapshot (document i serves as instance base + i).
  /// Faulting before attachment uses base 0.
  void SetInstanceBase(uint64_t base) {
    instance_base_.store(base, std::memory_order_relaxed);
  }
  uint64_t instance_base() const {
    return instance_base_.load(std::memory_order_relaxed);
  }

  CorpusSnapshotStats Stats() const;
  const std::string& path() const { return path_; }

  CorpusSnapshot(const CorpusSnapshot&) = delete;
  CorpusSnapshot& operator=(const CorpusSnapshot&) = delete;
  ~CorpusSnapshot();

 private:
  CorpusSnapshot() = default;

  struct Slot {
    std::atomic<const SnapshotDocument*> doc{nullptr};
  };

  /// One term's entry range in the mapping.
  struct TermList {
    const uint8_t* entries = nullptr;
    size_t size = 0;
  };
  /// The entry list of `token`, verified on first use; an empty list when
  /// the token is absent.
  Result<TermList> FindTerm(std::string_view token) const;

  MmapFile file_;
  snapshot_internal::ImageView view_;
  std::string path_;
  /// Per term: its entry list passed verification. Set once, never reset.
  std::unique_ptr<std::atomic<bool>[]> term_verified_;
  std::unique_ptr<Slot[]> slots_;
  /// Fault-in is sharded: slot i serializes on mutex i % kFaultShards, so
  /// unrelated documents decode concurrently.
  static constexpr size_t kFaultShards = 64;
  mutable std::array<std::mutex, kFaultShards> fault_mu_;
  std::atomic<uint64_t> instance_base_{0};
  mutable std::atomic<uint64_t> faults_{0};
  mutable std::atomic<uint64_t> fault_failures_{0};
  mutable std::atomic<uint64_t> fault_ns_{0};
  mutable std::atomic<uint64_t> resident_{0};
  uint64_t open_ns_ = 0;
};

}  // namespace extract

#endif  // EXTRACT_SEARCH_CORPUS_SNAPSHOT_H_
