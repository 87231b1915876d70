#include "search/corpus_snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/fault.h"
#include "common/string_util.h"

namespace extract {

// The on-disk format stores integers in little-endian byte order and the
// loader reads mapped arrays in place; a big-endian port would need byte
// swapping in the scalar helpers below.
static_assert(std::endian::native == std::endian::little,
              "corpus snapshot format requires a little-endian target");

namespace snapshot_internal {

namespace {

constexpr char kMagic[4] = {'X', 'C', 'S', 'N'};
constexpr uint32_t kVersion = 4;
constexpr size_t kHeaderSize = 96;
constexpr size_t kBlobTocWords = 10;

// Header fields (byte offsets).
constexpr size_t kHeaderFileSize = 8;
constexpr size_t kHeaderDocCount = 16;
constexpr size_t kHeaderDirOffset = 24;
constexpr size_t kHeaderDirSize = 32;
constexpr size_t kHeaderDirChecksum = 40;
constexpr size_t kHeaderTermsOffset = 48;
constexpr size_t kHeaderTermsSize = 56;
constexpr size_t kHeaderTermsChecksum = 64;
constexpr size_t kHeaderChecksum = kHeaderSize - 8;

// Document directory entry fields (u64 words).
constexpr size_t kEntryPayloadOff = 0;
constexpr size_t kEntryPayloadSize = 1;
constexpr size_t kEntryPayloadChecksum = 2;
constexpr size_t kEntryNumNodes = 3;
constexpr size_t kDirEntryWords = 4;

// Term directory: three count words, then per-term arrays, then entries of
// four u32 fields (document index, TermDocStats in declaration order).
constexpr size_t kTermsPrologueWords = 3;
constexpr size_t kTermEntryBytes = 16;

// ------------------------------------------------------- byte building ----

void PutU64Raw(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void PutU32Raw(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutI32Raw(std::string* out, int32_t v) {
  PutU32Raw(out, static_cast<uint32_t>(v));
}

void PutF64Raw(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64Raw(out, bits);
}

void Pad8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

void SetU64(std::string* out, size_t pos, uint64_t v) {
  std::memcpy(out->data() + pos, &v, 8);
}

// ---------------------------------------------------------- byte reads ----

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

double LoadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Copies `n` bytes into a column; an empty column may have no storage,
/// and memcpy requires valid pointers even for zero bytes.
void CopyColumn(void* dst, const uint8_t* src, size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

/// Bounds-checked cursor over one document blob. Sections are addressed by
/// the blob TOC; every read checks the window before touching bytes.
class SectionReader {
 public:
  SectionReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status SeekTo(uint64_t off) {
    if (off > size_ || off % 8 != 0) {
      return Status::ParseError("snapshot bad section offset");
    }
    pos_ = static_cast<size_t>(off);
    return Status::OK();
  }

  Result<uint64_t> U64() {
    const uint8_t* p;
    EXTRACT_ASSIGN_OR_RETURN(p, Raw(8));
    return LoadU64(p);
  }

  /// Returns a pointer to the next `count` bytes and advances past them.
  Result<const uint8_t*> Raw(uint64_t count) {
    if (count > size_ - pos_) {
      return Status::ParseError("snapshot truncated section");
    }
    const uint8_t* p = data_ + pos_;
    pos_ += static_cast<size_t>(count);
    return p;
  }

  /// Skips the zero padding inserted after byte-granular columns.
  void Align8() { pos_ = std::min(size_, (pos_ + 7) & ~size_t{7}); }

  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ----------------------------------------------------- directory layout ----

/// One document's directory record, writer-side.
struct DirRecord {
  std::string_view name;
  uint64_t payload_off = 0;
  uint64_t payload_size = 0;
  uint64_t payload_checksum = 0;
  uint64_t num_nodes = 0;
};

/// Serializes the document directory for records already sorted by name.
std::string BuildDirectory(const std::vector<DirRecord>& records) {
  std::string dir;
  uint64_t name_bytes_len = 0;
  for (const DirRecord& r : records) name_bytes_len += r.name.size();
  PutU64Raw(&dir, name_bytes_len);
  uint64_t off = 0;
  for (const DirRecord& r : records) {
    PutU64Raw(&dir, off);
    off += r.name.size();
  }
  PutU64Raw(&dir, off);
  for (const DirRecord& r : records) dir.append(r.name);
  Pad8(&dir);
  for (const DirRecord& r : records) {
    PutU64Raw(&dir, r.payload_off);
    PutU64Raw(&dir, r.payload_size);
    PutU64Raw(&dir, r.payload_checksum);
    PutU64Raw(&dir, r.num_nodes);
  }
  return dir;
}

/// One term of the term directory, writer-side: its key and its entries
/// (document index + stats), documents ascending.
struct TermRecord {
  std::string_view key;
  const std::vector<std::pair<uint32_t, TermDocStats>>* docs = nullptr;
};

/// Serializes the term directory for records sorted by key. Returns the
/// bytes and, in *index_checksum, the Hash64 of everything before the
/// entries (the part Open verifies).
std::string BuildTermDirectory(const std::vector<TermRecord>& terms,
                               uint64_t* index_checksum) {
  std::string out;
  uint64_t key_bytes = 0;
  uint64_t entry_count = 0;
  for (const TermRecord& t : terms) {
    key_bytes += t.key.size();
    entry_count += t.docs->size();
  }
  PutU64Raw(&out, terms.size());
  PutU64Raw(&out, entry_count);
  PutU64Raw(&out, key_bytes);
  uint64_t off = 0;
  for (const TermRecord& t : terms) {
    PutU64Raw(&out, off);
    off += t.key.size();
  }
  PutU64Raw(&out, off);
  uint64_t begin = 0;
  for (const TermRecord& t : terms) {
    PutU64Raw(&out, begin);
    begin += t.docs->size();
  }
  PutU64Raw(&out, begin);
  std::string entries(static_cast<size_t>(entry_count * kTermEntryBytes),
                      '\0');
  size_t at = 0;
  for (const TermRecord& t : terms) {
    const size_t list_start = at;
    for (const auto& [doc, stats] : *t.docs) {
      const uint32_t fields[4] = {doc, stats.postings, stats.max_depth,
                                  stats.min_entity_edges};
      std::memcpy(entries.data() + at, fields, kTermEntryBytes);
      at += kTermEntryBytes;
    }
    PutU64Raw(&out, Hash64(reinterpret_cast<const uint8_t*>(entries.data()) +
                               list_start,
                           at - list_start));
  }
  for (const TermRecord& t : terms) out.append(t.key);
  Pad8(&out);
  *index_checksum =
      Hash64(reinterpret_cast<const uint8_t*>(out.data()), out.size());
  out.append(entries);
  return out;
}

/// The header's checksummed fields, in file order after magic + version.
struct HeaderFields {
  uint64_t file_size = 0;
  uint64_t doc_count = 0;
  uint64_t dir_offset = 0;
  uint64_t dir_size = 0;
  uint64_t dir_checksum = 0;
  uint64_t terms_offset = 0;
  uint64_t terms_size = 0;
  uint64_t terms_checksum = 0;
};

std::string BuildHeader(const HeaderFields& f) {
  std::string header;
  header.append(kMagic, 4);
  PutU32Raw(&header, kVersion);
  for (uint64_t word : {f.file_size, f.doc_count, f.dir_offset, f.dir_size,
                        f.dir_checksum, f.terms_offset, f.terms_size,
                        f.terms_checksum, uint64_t{0}, uint64_t{0}}) {
    PutU64Raw(&header, word);
  }
  PutU64Raw(&header,
            Hash64(reinterpret_cast<const uint8_t*>(header.data()),
                   header.size()));
  return header;
}

// -------------------------------------------------------- blob encoding ----

/// The database's posting lists by token, sorted bytewise.
using SortedPostings = std::vector<std::pair<std::string, const PostingList*>>;

SortedPostings SortPostings(const InvertedIndex& inverted) {
  SortedPostings postings;
  for (std::string& token : inverted.Tokens()) {
    const PostingList* list = inverted.Find(token);
    postings.emplace_back(std::move(token), list);
  }
  std::sort(postings.begin(), postings.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return postings;
}

/// Serializes one database into a flat self-contained payload blob in
/// *blob (whose capacity is reused); `postings` is
/// SortPostings(db.inverted()).
void EncodeDocumentBlob(const XmlDatabase& db, const SortedPostings& postings,
                        std::string* blob) {
  const IndexedDocument& doc = db.index();
  const size_t n = doc.num_nodes();
  uint64_t toc[kBlobTocWords] = {};
  std::string& out = *blob;
  out.assign(kBlobTocWords * 8, '\0');

  // Label table: count | offsets[count+1] | bytes.
  toc[0] = out.size();
  const LabelTable& labels = doc.labels();
  PutU64Raw(&out, labels.size());
  {
    uint64_t off = 0;
    for (LabelId id = 0; id < labels.size(); ++id) {
      PutU64Raw(&out, off);
      off += labels.Name(id).size();
    }
    PutU64Raw(&out, off);
    for (LabelId id = 0; id < labels.size(); ++id) out.append(labels.Name(id));
    Pad8(&out);
  }

  // Node columns: n | parent[n] | label[n] | kind[n].
  toc[1] = out.size();
  PutU64Raw(&out, n);
  for (size_t i = 0; i < n; ++i) {
    PutI32Raw(&out, doc.parent(static_cast<NodeId>(i)));
  }
  Pad8(&out);
  for (size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    PutU32Raw(&out, doc.is_element(id) ? doc.label(id) : kInvalidLabel);
  }
  Pad8(&out);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(doc.is_element(static_cast<NodeId>(i)) ? 0 : 1);
  }
  Pad8(&out);

  // Text arena: total | offsets[n+1] | bytes.
  toc[2] = out.size();
  {
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) total += doc.text(static_cast<NodeId>(i)).size();
    PutU64Raw(&out, total);
    uint64_t off = 0;
    for (size_t i = 0; i < n; ++i) {
      PutU64Raw(&out, off);
      off += doc.text(static_cast<NodeId>(i)).size();
    }
    PutU64Raw(&out, off);
    for (size_t i = 0; i < n; ++i) out.append(doc.text(static_cast<NodeId>(i)));
    Pad8(&out);
  }

  // Partition grid.
  toc[3] = out.size();
  const std::vector<NodeId>& bounds = db.partitions().bounds();
  PutU64Raw(&out, bounds.size());
  for (NodeId b : bounds) PutI32Raw(&out, b);
  Pad8(&out);

  // Classification: per-node categories, pair table, entity labels.
  toc[4] = out.size();
  const NodeClassification& cls = db.classification();
  PutU64Raw(&out, n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(cls.category(static_cast<NodeId>(i))));
  }
  Pad8(&out);
  PutU64Raw(&out, cls.pair_categories().size());
  for (const auto& [key, category] : cls.pair_categories()) {
    PutU32Raw(&out, key.first);
    PutU32Raw(&out, key.second);
    PutU32Raw(&out, static_cast<uint32_t>(category));
    PutU32Raw(&out, 0);
  }
  PutU64Raw(&out, cls.entity_labels().size());
  for (LabelId label : cls.entity_labels()) PutU32Raw(&out, label);
  Pad8(&out);

  // Mined keys.
  toc[5] = out.size();
  {
    std::vector<LabelId> key_entities = db.keys().EntityLabels();
    PutU64Raw(&out, key_entities.size());
    for (LabelId label : key_entities) {
      const std::vector<KeyCandidate>& cands = db.keys().CandidatesOf(label);
      PutU32Raw(&out, label);
      PutU32Raw(&out, static_cast<uint32_t>(cands.size()));
      for (const KeyCandidate& c : cands) {
        PutU32Raw(&out, c.entity_label);
        PutU32Raw(&out, c.attribute_label);
        PutF64Raw(&out, c.distinct_ratio);
        PutF64Raw(&out, c.coverage);
        PutF64Raw(&out, c.mean_position);
        PutU32Raw(&out, c.strict ? 1 : 0);
        PutU32Raw(&out, 0);
      }
    }
  }

  // Inverted index: sorted token arena + CSR posting lists.
  toc[6] = out.size();
  {
    PutU64Raw(&out, postings.size());
    uint64_t total = 0;
    for (const auto& [t, list] : postings) total += list->size();
    PutU64Raw(&out, total);
    uint64_t off = 0;
    for (const auto& [t, list] : postings) {
      PutU64Raw(&out, off);
      off += t.size();
    }
    PutU64Raw(&out, off);
    for (const auto& [t, list] : postings) out.append(t);
    Pad8(&out);
    uint64_t begin = 0;
    for (const auto& [t, list] : postings) {
      PutU64Raw(&out, begin);
      begin += list->size();
    }
    PutU64Raw(&out, begin);
    for (const auto& [t, list] : postings) {
      for (NodeId node : list->nodes) PutI32Raw(&out, node);
    }
    Pad8(&out);
    for (const auto& [t, list] : postings) {
      for (PostingSource source : list->sources) {
        out.push_back(static_cast<char>(source));
      }
    }
    Pad8(&out);
  }

  toc[7] = n;

  for (size_t k = 0; k < kBlobTocWords; ++k) SetU64(&out, 8 * k, toc[k]);
}

// -------------------------------------------------------- blob decoding ----

/// Decodes a payload blob back into a database, restoring every derived
/// structure from its stored section (no re-classification, no re-mining,
/// no re-tokenization). The caller has already verified the checksum.
Result<XmlDatabase> DecodeDocumentBlob(const uint8_t* data, size_t size) {
  if (size < kBlobTocWords * 8) {
    return Status::ParseError("snapshot document blob too short");
  }
  uint64_t toc[kBlobTocWords];
  std::memcpy(toc, data, sizeof(toc));
  SectionReader reader(data, size);

  // Label table.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[0]));
  LabelTable labels;
  {
    uint64_t count;
    EXTRACT_ASSIGN_OR_RETURN(count, reader.U64());
    if (count >= size) return Status::ParseError("snapshot bad label count");
    const uint8_t* offs_bytes;
    EXTRACT_ASSIGN_OR_RETURN(offs_bytes, reader.Raw((count + 1) * 8));
    const uint8_t* bytes;
    EXTRACT_ASSIGN_OR_RETURN(bytes, reader.Raw(LoadU64(offs_bytes + 8 * count)));
    uint64_t prev = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t o0 = LoadU64(offs_bytes + 8 * i);
      uint64_t o1 = LoadU64(offs_bytes + 8 * (i + 1));
      if (o0 != prev || o1 < o0) {
        return Status::ParseError("snapshot bad label offsets");
      }
      prev = o1;
      std::string_view name(reinterpret_cast<const char*>(bytes + o0),
                            static_cast<size_t>(o1 - o0));
      if (labels.Intern(name) != i) {
        return Status::ParseError("snapshot duplicate label");
      }
    }
  }

  // Node columns.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[1]));
  uint64_t n;
  EXTRACT_ASSIGN_OR_RETURN(n, reader.U64());
  if (n != toc[7] || n > size) {
    return Status::ParseError("snapshot bad node count");
  }
  std::vector<NodeId> parent(static_cast<size_t>(n));
  std::vector<LabelId> label(static_cast<size_t>(n));
  std::vector<IndexedNodeKind> kind(static_cast<size_t>(n));
  {
    const uint8_t* p;
    EXTRACT_ASSIGN_OR_RETURN(p, reader.Raw(n * 4));
    CopyColumn(parent.data(), p, static_cast<size_t>(n) * 4);
    reader.Align8();
    EXTRACT_ASSIGN_OR_RETURN(p, reader.Raw(n * 4));
    CopyColumn(label.data(), p, static_cast<size_t>(n) * 4);
    reader.Align8();
    EXTRACT_ASSIGN_OR_RETURN(p, reader.Raw(n));
    for (uint64_t i = 0; i < n; ++i) {
      if (p[i] > 1) return Status::ParseError("snapshot bad node kind");
      kind[i] = p[i] == 0 ? IndexedNodeKind::kElement : IndexedNodeKind::kText;
    }
  }

  // Text arena.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[2]));
  std::vector<std::string> text(static_cast<size_t>(n));
  {
    uint64_t total;
    EXTRACT_ASSIGN_OR_RETURN(total, reader.U64());
    const uint8_t* offs_bytes;
    EXTRACT_ASSIGN_OR_RETURN(offs_bytes, reader.Raw((n + 1) * 8));
    if (LoadU64(offs_bytes + 8 * n) != total) {
      return Status::ParseError("snapshot bad text arena length");
    }
    const uint8_t* bytes;
    EXTRACT_ASSIGN_OR_RETURN(bytes, reader.Raw(total));
    uint64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t o0 = LoadU64(offs_bytes + 8 * i);
      uint64_t o1 = LoadU64(offs_bytes + 8 * (i + 1));
      if (o0 != prev || o1 < o0) {
        return Status::ParseError("snapshot bad text offsets");
      }
      prev = o1;
      text[i].assign(reinterpret_cast<const char*>(bytes + o0),
                     static_cast<size_t>(o1 - o0));
    }
  }

  IndexedDocument doc;
  EXTRACT_ASSIGN_OR_RETURN(
      doc, IndexedDocument::FromFlatColumns(std::move(labels), std::move(parent),
                                            std::move(label), std::move(kind),
                                            std::move(text)));
  const size_t num_labels = doc.labels().size();

  // Partition grid.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[3]));
  IndexPartitions partitions;
  {
    uint64_t count;
    EXTRACT_ASSIGN_OR_RETURN(count, reader.U64());
    if (count > size) return Status::ParseError("snapshot bad partition count");
    const uint8_t* p;
    EXTRACT_ASSIGN_OR_RETURN(p, reader.Raw(count * 4));
    std::vector<NodeId> grid(static_cast<size_t>(count));
    CopyColumn(grid.data(), p, static_cast<size_t>(count) * 4);
    if (!grid.empty() &&
        (grid.back() < 0 || static_cast<uint64_t>(grid.back()) > n)) {
      return Status::ParseError("snapshot bad partition bounds");
    }
    EXTRACT_ASSIGN_OR_RETURN(partitions,
                             IndexPartitions::FromBounds(std::move(grid)));
  }

  // Classification.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[4]));
  NodeClassification classification;
  {
    uint64_t count;
    EXTRACT_ASSIGN_OR_RETURN(count, reader.U64());
    if (count != n) {
      return Status::ParseError("snapshot bad classification size");
    }
    const uint8_t* per_node_bytes;
    EXTRACT_ASSIGN_OR_RETURN(per_node_bytes, reader.Raw(n));
    std::vector<NodeCategory> per_node(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      if (per_node_bytes[i] > 3) {
        return Status::ParseError("snapshot bad node category");
      }
      per_node[i] = static_cast<NodeCategory>(per_node_bytes[i]);
    }
    reader.Align8();
    uint64_t pair_count;
    EXTRACT_ASSIGN_OR_RETURN(pair_count, reader.U64());
    if (pair_count > size) {
      return Status::ParseError("snapshot bad pair count");
    }
    const uint8_t* pairs;
    EXTRACT_ASSIGN_OR_RETURN(pairs, reader.Raw(pair_count * 16));
    std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category;
    for (uint64_t i = 0; i < pair_count; ++i) {
      const uint8_t* rec = pairs + 16 * i;
      uint32_t category = LoadU32(rec + 8);
      if (category > 3) {
        return Status::ParseError("snapshot bad pair category");
      }
      pair_category[{LoadU32(rec), LoadU32(rec + 4)}] =
          static_cast<NodeCategory>(category);
    }
    uint64_t entity_count;
    EXTRACT_ASSIGN_OR_RETURN(entity_count, reader.U64());
    if (entity_count > num_labels) {
      return Status::ParseError("snapshot bad entity label count");
    }
    const uint8_t* entity_bytes;
    EXTRACT_ASSIGN_OR_RETURN(entity_bytes, reader.Raw(entity_count * 4));
    std::vector<LabelId> entity_labels(static_cast<size_t>(entity_count));
    CopyColumn(entity_labels.data(), entity_bytes,
               static_cast<size_t>(entity_count) * 4);
    if (!std::is_sorted(entity_labels.begin(), entity_labels.end())) {
      return Status::ParseError("snapshot entity labels not sorted");
    }
    classification = NodeClassification::Restore(
        doc, std::move(pair_category), std::move(per_node),
        std::move(entity_labels));
  }

  // Mined keys.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[5]));
  KeyIndex keys;
  {
    uint64_t entity_count;
    EXTRACT_ASSIGN_OR_RETURN(entity_count, reader.U64());
    if (entity_count > num_labels) {
      return Status::ParseError("snapshot bad key entity count");
    }
    std::map<LabelId, std::vector<KeyCandidate>> candidates;
    for (uint64_t e = 0; e < entity_count; ++e) {
      const uint8_t* head;
      EXTRACT_ASSIGN_OR_RETURN(head, reader.Raw(8));
      LabelId entity_label = LoadU32(head);
      uint32_t cand_count = LoadU32(head + 4);
      const uint8_t* body;
      EXTRACT_ASSIGN_OR_RETURN(body,
                               reader.Raw(static_cast<uint64_t>(cand_count) * 40));
      std::vector<KeyCandidate>& cands = candidates[entity_label];
      cands.resize(cand_count);
      for (uint32_t c = 0; c < cand_count; ++c) {
        const uint8_t* rec = body + 40 * c;
        cands[c].entity_label = LoadU32(rec);
        cands[c].attribute_label = LoadU32(rec + 4);
        cands[c].distinct_ratio = LoadF64(rec + 8);
        cands[c].coverage = LoadF64(rec + 16);
        cands[c].mean_position = LoadF64(rec + 24);
        cands[c].strict = LoadU32(rec + 32) != 0;
      }
    }
    keys = KeyIndex::Restore(std::move(candidates));
  }

  // Inverted index.
  EXTRACT_RETURN_IF_ERROR(reader.SeekTo(toc[6]));
  InvertedIndex inverted;
  {
    uint64_t token_count;
    EXTRACT_ASSIGN_OR_RETURN(token_count, reader.U64());
    uint64_t total_postings;
    EXTRACT_ASSIGN_OR_RETURN(total_postings, reader.U64());
    if (token_count > size || total_postings > size) {
      return Status::ParseError("snapshot bad inverted index size");
    }
    const uint8_t* token_offs;
    EXTRACT_ASSIGN_OR_RETURN(token_offs, reader.Raw((token_count + 1) * 8));
    const uint8_t* token_bytes;
    EXTRACT_ASSIGN_OR_RETURN(token_bytes,
                             reader.Raw(LoadU64(token_offs + 8 * token_count)));
    reader.Align8();
    const uint8_t* begins;
    EXTRACT_ASSIGN_OR_RETURN(begins, reader.Raw((token_count + 1) * 8));
    if (LoadU64(begins + 8 * token_count) != total_postings) {
      return Status::ParseError("snapshot bad posting totals");
    }
    const uint8_t* nodes_bytes;
    EXTRACT_ASSIGN_OR_RETURN(nodes_bytes, reader.Raw(total_postings * 4));
    reader.Align8();
    const uint8_t* sources_bytes;
    EXTRACT_ASSIGN_OR_RETURN(sources_bytes, reader.Raw(total_postings));
    std::unordered_map<std::string, PostingList> postings;
    postings.reserve(static_cast<size_t>(token_count));
    uint64_t prev_off = 0;
    uint64_t prev_begin = 0;
    for (uint64_t t = 0; t < token_count; ++t) {
      uint64_t o0 = LoadU64(token_offs + 8 * t);
      uint64_t o1 = LoadU64(token_offs + 8 * (t + 1));
      if (o0 != prev_off || o1 < o0) {
        return Status::ParseError("snapshot bad token offsets");
      }
      prev_off = o1;
      uint64_t b0 = LoadU64(begins + 8 * t);
      uint64_t b1 = LoadU64(begins + 8 * (t + 1));
      if (b0 != prev_begin || b1 < b0) {
        return Status::ParseError("snapshot bad posting offsets");
      }
      prev_begin = b1;
      std::string token(reinterpret_cast<const char*>(token_bytes + o0),
                        static_cast<size_t>(o1 - o0));
      PostingList list;
      const size_t len = static_cast<size_t>(b1 - b0);
      list.nodes.resize(len);
      CopyColumn(list.nodes.data(), nodes_bytes + 4 * b0, len * 4);
      list.sources.resize(len);
      NodeId prev_node = -1;
      for (size_t k = 0; k < len; ++k) {
        // The Build invariants InvertedIndex::Restore relies on: element
        // ids of this document, strictly ascending.
        const NodeId node = list.nodes[k];
        if (node <= prev_node || static_cast<uint64_t>(node) >= n ||
            doc.is_text(node)) {
          return Status::ParseError("snapshot bad posting node");
        }
        prev_node = node;
        uint8_t s = sources_bytes[b0 + k];
        if (s < 1 || s > 3) {
          return Status::ParseError("snapshot bad posting source");
        }
        list.sources[k] = static_cast<PostingSource>(s);
      }
      if (!postings.emplace(std::move(token), std::move(list)).second) {
        return Status::ParseError("snapshot duplicate token");
      }
    }
    inverted = InvertedIndex::Restore(std::move(postings));
  }

  return XmlDatabase::FromParts(std::move(doc), std::move(partitions),
                                std::move(classification), std::move(keys),
                                std::move(inverted));
}

// --------------------------------------------------------- image opening ----

/// Validates the header (checksum, version, framing), the document
/// directory (checksum, sorted unique names, every payload window inside
/// the payload region) and the term directory's index (checksum, framing,
/// sorted unique keys, non-empty lists) — never a payload or a term list.
/// ParseError with a precise message on any mismatch.
Result<ImageView> OpenImage(const uint8_t* data, size_t size) {
  if (size < 8) return Status::ParseError("snapshot too short");
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Status::ParseError("snapshot bad magic");
  }
  const uint32_t version = LoadU32(data + 4);
  if (version != kVersion) {
    return Status::ParseError("snapshot unsupported version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kVersion) + ")");
  }
  if (size < kHeaderSize) return Status::ParseError("snapshot too short");
  EXTRACT_INJECT_FAULT("snapshot.checksum");
  if (Hash64(data, kHeaderChecksum) != LoadU64(data + kHeaderChecksum)) {
    return Status::ParseError("snapshot header checksum mismatch");
  }
  EXTRACT_INJECT_FAULT("snapshot.truncated");
  const uint64_t file_size = LoadU64(data + kHeaderFileSize);
  if (size < file_size) {
    return Status::ParseError("snapshot truncated: have " +
                              std::to_string(size) + " of " +
                              std::to_string(file_size) + " bytes");
  }
  if (size > file_size) {
    return Status::ParseError("snapshot has trailing bytes");
  }

  ImageView view;
  view.base = data;
  view.file_size = file_size;
  view.doc_count = LoadU64(data + kHeaderDocCount);
  const uint64_t dir_offset = LoadU64(data + kHeaderDirOffset);
  const uint64_t dir_size = LoadU64(data + kHeaderDirSize);
  const uint64_t dir_checksum = LoadU64(data + kHeaderDirChecksum);
  const uint64_t terms_offset = LoadU64(data + kHeaderTermsOffset);
  const uint64_t terms_size = LoadU64(data + kHeaderTermsSize);
  const uint64_t terms_checksum = LoadU64(data + kHeaderTermsChecksum);
  if (view.doc_count > file_size / (kDirEntryWords * 8)) {
    return Status::ParseError("snapshot implausible document count");
  }
  if (dir_offset < kHeaderSize || dir_offset % 8 != 0 ||
      dir_size > file_size || dir_offset > file_size - dir_size ||
      dir_offset + dir_size != file_size) {
    return Status::ParseError("snapshot bad directory window");
  }
  // The term directory sits right before the document directory.
  if (terms_offset < kHeaderSize || terms_offset % 8 != 0 ||
      terms_size > dir_offset || terms_offset != dir_offset - terms_size) {
    return Status::ParseError("snapshot bad term directory window");
  }
  EXTRACT_INJECT_FAULT("snapshot.checksum");
  if (Hash64(data + dir_offset, static_cast<size_t>(dir_size)) !=
      dir_checksum) {
    return Status::ParseError("snapshot directory checksum mismatch");
  }

  // Directory framing: name arena + entries must tile dir_size exactly.
  const uint64_t dc = view.doc_count;
  const uint64_t fixed = 8 + 8 * (dc + 1) + 8 * kDirEntryWords * dc;
  if (dir_size < fixed) {
    return Status::ParseError("snapshot directory too small");
  }
  const uint8_t* dir = data + dir_offset;
  view.name_bytes_len = LoadU64(dir);
  const uint64_t padded_names = (view.name_bytes_len + 7) & ~uint64_t{7};
  if (padded_names != dir_size - fixed) {
    return Status::ParseError("snapshot bad directory framing");
  }
  view.name_offsets = reinterpret_cast<const uint64_t*>(dir + 8);
  view.name_bytes = reinterpret_cast<const char*>(dir + 8 + 8 * (dc + 1));
  view.entries = reinterpret_cast<const uint64_t*>(
      dir + 8 + 8 * (dc + 1) + padded_names);

  // O(doc_count) sanity pass: names sorted/unique and every payload window
  // inside the payload region. Payload bytes themselves stay untouched.
  if (view.name_offsets[0] != 0 ||
      view.name_offsets[dc] != view.name_bytes_len) {
    return Status::ParseError("snapshot bad name offsets");
  }
  for (uint64_t i = 0; i < dc; ++i) {
    if (view.name_offsets[i + 1] < view.name_offsets[i]) {
      return Status::ParseError("snapshot bad name offsets");
    }
    if (i > 0 && view.name(i - 1) >= view.name(i)) {
      return Status::ParseError("snapshot document names not sorted");
    }
    const uint64_t payload_off = view.entry(i, kEntryPayloadOff);
    const uint64_t payload_size = view.entry(i, kEntryPayloadSize);
    if (payload_off < kHeaderSize || payload_off % 8 != 0 ||
        payload_size > terms_offset ||
        payload_off > terms_offset - payload_size) {
      return Status::ParseError("snapshot bad payload window");
    }
  }

  // Term directory index: framing, checksum, then O(vocabulary) key and
  // list-range checks. The entries are verified per term on first use.
  const uint8_t* terms = data + terms_offset;
  if (terms_size < kTermsPrologueWords * 8) {
    return Status::ParseError("snapshot term directory too small");
  }
  const uint64_t term_count = LoadU64(terms);
  const uint64_t entry_count = LoadU64(terms + 8);
  const uint64_t key_bytes = LoadU64(terms + 16);
  if (term_count > terms_size / 24 || entry_count > terms_size / 16 ||
      key_bytes > terms_size) {
    return Status::ParseError("snapshot bad term directory counts");
  }
  const uint64_t index_size = kTermsPrologueWords * 8 +
                              8 * (term_count + 1) * 2 + 8 * term_count +
                              ((key_bytes + 7) & ~uint64_t{7});
  if (index_size > terms_size ||
      terms_size - index_size != entry_count * kTermEntryBytes) {
    return Status::ParseError("snapshot bad term directory framing");
  }
  EXTRACT_INJECT_FAULT("snapshot.checksum");
  if (Hash64(terms, static_cast<size_t>(index_size)) != terms_checksum) {
    return Status::ParseError("snapshot term directory checksum mismatch");
  }
  view.term_count = term_count;
  view.key_offsets = terms + kTermsPrologueWords * 8;
  view.list_begin = view.key_offsets + 8 * (term_count + 1);
  view.list_checksum = view.list_begin + 8 * (term_count + 1);
  view.key_bytes =
      reinterpret_cast<const char*>(view.list_checksum + 8 * term_count);
  view.term_entries = terms + index_size;
  if (LoadU64(view.key_offsets) != 0 ||
      LoadU64(view.key_offsets + 8 * term_count) != key_bytes ||
      LoadU64(view.list_begin) != 0 ||
      LoadU64(view.list_begin + 8 * term_count) != entry_count) {
    return Status::ParseError("snapshot bad term directory offsets");
  }
  std::string_view prev_key;
  for (uint64_t t = 0; t < term_count; ++t) {
    const uint64_t k0 = LoadU64(view.key_offsets + 8 * t);
    const uint64_t k1 = LoadU64(view.key_offsets + 8 * (t + 1));
    const uint64_t b0 = LoadU64(view.list_begin + 8 * t);
    const uint64_t b1 = LoadU64(view.list_begin + 8 * (t + 1));
    // Every key is a non-empty token; every list holds at least one
    // document.
    if (k1 <= k0 || k1 > key_bytes || b1 <= b0 || b1 > entry_count) {
      return Status::ParseError("snapshot bad term directory offsets");
    }
    const std::string_view key(view.key_bytes + k0,
                               static_cast<size_t>(k1 - k0));
    if (t > 0 && prev_key >= key) {
      return Status::ParseError("snapshot term keys not sorted");
    }
    prev_key = key;
  }
  return view;
}

}  // namespace

// --------------------------------------------------------------- hashes ----

uint64_t Hash64(const uint8_t* data, size_t n) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ (static_cast<uint64_t>(n) *
                                        0xC2B2AE3D27D4EB4FULL);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h ^= LoadU64(data + i) * 0x9DDFEA08EB382D69ULL;
    h = (h << 27) | (h >> 37);
    h *= 0x165667B19E3779F9ULL;
  }
  if (i < n) {
    uint64_t tail = 0;
    for (size_t j = 0; i + j < n; ++j) {
      tail |= static_cast<uint64_t>(data[i + j]) << (8 * j);
    }
    h ^= tail * 0x9DDFEA08EB382D69ULL;
    h = (h << 27) | (h >> 37);
    h *= 0x165667B19E3779F9ULL;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

uint64_t ImageView::entry(size_t i, size_t field) const {
  return entries[i * kDirEntryWords + field];
}

}  // namespace snapshot_internal

namespace {

using snapshot_internal::Hash64;
using snapshot_internal::ImageView;
using snapshot_internal::kEntryPayloadChecksum;
using snapshot_internal::kEntryPayloadOff;
using snapshot_internal::kEntryPayloadSize;
using snapshot_internal::kHeaderSize;
using snapshot_internal::kTermEntryBytes;
using snapshot_internal::LoadU32;
using snapshot_internal::LoadU64;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::string ErrnoText() { return std::strerror(errno); }

/// fsyncs the directory holding `path`, so a rename into it is durable.
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("cannot open directory " + dir + ": " +
                            ErrnoText());
  }
  const int rc = ::fsync(fd);
  const std::string error = rc != 0 ? ErrnoText() : "";
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("cannot sync directory " + dir + ": " + error);
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- writer ----

Result<CorpusSnapshotWriter> CorpusSnapshotWriter::Create(
    const std::string& path) {
  // Unique per process and writer, so concurrent saves of one path never
  // share a temporary file; O_EXCL refuses a stale leftover.
  static std::atomic<uint64_t> sequence{0};
  CorpusSnapshotWriter writer;
  writer.path_ = path;
  writer.temp_path_ = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                      std::to_string(sequence.fetch_add(1));
  const int fd = ::open(writer.temp_path_.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::Internal("cannot create " + writer.temp_path_ + ": " +
                            ErrnoText());
  }
  writer.file_ = ::fdopen(fd, "wb");
  if (writer.file_ == nullptr) {
    ::close(fd);
    return writer.Abandon(
        Status::Internal("cannot open " + writer.temp_path_ + " for writing"));
  }
  // Blobs are small; a large buffer keeps the write syscalls per image few.
  std::setvbuf(writer.file_, nullptr, _IOFBF, size_t{1} << 20);
  const char zeros[kHeaderSize] = {};
  if (std::fwrite(zeros, 1, sizeof(zeros), writer.file_) != sizeof(zeros)) {
    return writer.Abandon(Status::Internal("short write to " +
                                           writer.temp_path_));
  }
  writer.offset_ = sizeof(zeros);
  return writer;
}

CorpusSnapshotWriter::CorpusSnapshotWriter(CorpusSnapshotWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      offset_(other.offset_),
      entries_(std::move(other.entries_)),
      names_(std::move(other.names_)),
      terms_(std::move(other.terms_)),
      blob_(std::move(other.blob_)),
      master_(std::move(other.master_)) {}

CorpusSnapshotWriter::~CorpusSnapshotWriter() {
  if (file_ != nullptr) (void)Abandon(Status::OK());
}

Status CorpusSnapshotWriter::Abandon(Status status) {
  if (file_ != nullptr) std::fclose(std::exchange(file_, nullptr));
  std::remove(temp_path_.c_str());
  return status;
}

Status CorpusSnapshotWriter::Add(std::string_view name, const XmlDatabase& db) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("snapshot writer is closed");
  }
  // Term-directory entries address documents with 32 bits.
  if (entries_.size() >= std::numeric_limits<uint32_t>::max()) {
    return Status::ResourceExhausted("snapshot document limit reached");
  }
  if (!names_.insert(std::string(name)).second) {
    return Status::AlreadyExists("duplicate snapshot document name: " +
                                 std::string(name));
  }
  const IndexedDocument& doc = db.index();
  Entry entry;
  entry.name = std::string(name);
  const snapshot_internal::SortedPostings postings =
      snapshot_internal::SortPostings(db.inverted());
  snapshot_internal::EncodeDocumentBlob(db, postings, &blob_);
  entry.payload_off = offset_;
  entry.payload_size = blob_.size();
  entry.payload_checksum =
      Hash64(reinterpret_cast<const uint8_t*>(blob_.data()), blob_.size());
  entry.num_nodes = doc.num_nodes();
  while (blob_.size() % 8 != 0) blob_.push_back('\0');
  Status status = Status::OK();
  EXTRACT_FAULT_CHECK_INTO(status, "snapshot.write");
  if (status.ok() &&
      std::fwrite(blob_.data(), 1, blob_.size(), file_) != blob_.size()) {
    status = Status::Internal("short write to " + temp_path_);
  }
  if (!status.ok()) return Abandon(std::move(status));
  offset_ += blob_.size();

  // Term-directory stats of every token. Master entities come from one
  // pre-order pass (parents precede children) — MasterEntityOf's ancestor
  // walk, shared across the document's postings.
  const NodeClassification& classification = db.classification();
  master_.resize(doc.num_nodes());
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    const NodeId parent = doc.parent(n);
    master_[n] = (doc.is_element(n) && classification.IsEntity(n)) ? n
                 : parent == kInvalidNode ? doc.root()
                                          : master_[parent];
  }
  const uint32_t index = static_cast<uint32_t>(entries_.size());
  for (const auto& [token, list] : postings) {
    if (list->empty()) continue;
    TermDocStats stats;
    stats.postings = static_cast<uint32_t>(list->size());
    stats.min_entity_edges = std::numeric_limits<uint32_t>::max();
    for (NodeId node : list->nodes) {
      stats.max_depth = std::max(stats.max_depth, doc.depth(node));
      stats.min_entity_edges = std::min(
          stats.min_entity_edges,
          static_cast<uint32_t>(doc.subtree_edges(master_[node])));
    }
    terms_[token].emplace_back(index, stats);
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status CorpusSnapshotWriter::Finish() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("snapshot writer is closed");
  }
  // Directory order is name order; rank maps an Add index to it.
  std::vector<uint32_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return entries_[a].name < entries_[b].name;
  });
  std::vector<uint32_t> rank(entries_.size());
  std::vector<snapshot_internal::DirRecord> records;
  records.reserve(entries_.size());
  for (size_t j = 0; j < order.size(); ++j) {
    const Entry& e = entries_[order[j]];
    rank[order[j]] = static_cast<uint32_t>(j);
    snapshot_internal::DirRecord rec;
    rec.name = e.name;
    rec.payload_off = e.payload_off;
    rec.payload_size = e.payload_size;
    rec.payload_checksum = e.payload_checksum;
    rec.num_nodes = e.num_nodes;
    records.push_back(rec);
  }
  std::vector<snapshot_internal::TermRecord> terms;
  terms.reserve(terms_.size());
  for (auto& [key, docs] : terms_) {
    for (auto& [doc, stats] : docs) doc = rank[doc];
    const auto by_doc = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    // Already sorted when documents were added in name order.
    if (!std::is_sorted(docs.begin(), docs.end(), by_doc)) {
      std::sort(docs.begin(), docs.end(), by_doc);
    }
    terms.push_back(snapshot_internal::TermRecord{key, &docs});
  }
  std::sort(terms.begin(), terms.end(),
            [](const snapshot_internal::TermRecord& a,
               const snapshot_internal::TermRecord& b) { return a.key < b.key; });

  snapshot_internal::HeaderFields header;
  const std::string term_dir =
      snapshot_internal::BuildTermDirectory(terms, &header.terms_checksum);
  const std::string dir = snapshot_internal::BuildDirectory(records);
  header.doc_count = entries_.size();
  header.terms_offset = offset_;
  header.terms_size = term_dir.size();
  header.dir_offset = offset_ + term_dir.size();
  header.dir_size = dir.size();
  header.dir_checksum =
      Hash64(reinterpret_cast<const uint8_t*>(dir.data()), dir.size());
  header.file_size = header.dir_offset + dir.size();
  const std::string header_bytes = snapshot_internal::BuildHeader(header);

  // Every step before the rename leaves `path_` untouched on failure.
  Status status = Status::OK();
  EXTRACT_FAULT_CHECK_INTO(status, "snapshot.write");
  if (status.ok() &&
      (std::fwrite(term_dir.data(), 1, term_dir.size(), file_) !=
           term_dir.size() ||
       std::fwrite(dir.data(), 1, dir.size(), file_) != dir.size() ||
       std::fseek(file_, 0, SEEK_SET) != 0 ||
       std::fwrite(header_bytes.data(), 1, header_bytes.size(), file_) !=
           header_bytes.size())) {
    status = Status::Internal("cannot write " + temp_path_);
  }
  if (!status.ok()) return Abandon(std::move(status));
  // Replacing an image must never leave a torn file where a good one
  // stood: the new image is made durable before the rename exposes it, and
  // the rename after. A fresh path protects nothing — a crash can at worst
  // leave a torn image there, which Open refuses — so it skips the syncs
  // and their writeback cost.
  const bool replacing = ::access(path_.c_str(), F_OK) == 0;
  if (replacing) {
    EXTRACT_FAULT_CHECK_INTO(status, "snapshot.fsync");
    if (status.ok() &&
        (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0)) {
      status =
          Status::Internal("cannot sync " + temp_path_ + ": " + ErrnoText());
    }
    if (!status.ok()) return Abandon(std::move(status));
  }
  if (std::fclose(std::exchange(file_, nullptr)) != 0) {
    return Abandon(Status::Internal("cannot close " + temp_path_));
  }
  EXTRACT_FAULT_CHECK_INTO(status, "snapshot.rename");
  if (status.ok() && std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    status = Status::Internal("cannot rename " + temp_path_ + " over " +
                              path_ + ": " + ErrnoText());
  }
  if (!status.ok()) return Abandon(std::move(status));
  if (!replacing) return Status::OK();
  // The new image is in place; the rename is durable once its directory is.
  EXTRACT_FAULT_CHECK_INTO(status, "snapshot.dirsync");
  if (!status.ok()) return status;
  return SyncParentDirectory(path_);
}

// ----------------------------------------------------------- snapshot ----

Result<std::shared_ptr<CorpusSnapshot>> CorpusSnapshot::Open(
    const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  EXTRACT_INJECT_FAULT("snapshot.open");
  MmapFile file;
  EXTRACT_ASSIGN_OR_RETURN(file, MmapFile::Open(path));
  auto view = snapshot_internal::OpenImage(file.data(), file.size());
  if (!view.ok()) {
    return Status(view.status().code(),
                  path + ": " + view.status().message());
  }
  std::shared_ptr<CorpusSnapshot> snap(new CorpusSnapshot());
  snap->file_ = std::move(file);  // mapping address survives the move
  snap->view_ = *view;
  snap->path_ = path;
  snap->term_verified_ =
      std::make_unique<std::atomic<bool>[]>(snap->view_.term_count);
  snap->slots_ = std::make_unique<Slot[]>(snap->view_.doc_count);
  snap->open_ns_ = ElapsedNs(start);
  return snap;
}

CorpusSnapshot::~CorpusSnapshot() {
  for (size_t i = 0; i < doc_count(); ++i) {
    delete slots_[i].doc.load(std::memory_order_acquire);
  }
}

ptrdiff_t CorpusSnapshot::FindIndex(std::string_view name) const {
  size_t lo = 0;
  size_t hi = doc_count();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (view_.name(mid) < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < doc_count() && view_.name(lo) == name) {
    return static_cast<ptrdiff_t>(lo);
  }
  return -1;
}

Result<const CorpusSnapshot::SnapshotDocument*> CorpusSnapshot::Fault(
    size_t i) const {
  if (i >= doc_count()) {
    return Status::InvalidArgument("snapshot document index out of range");
  }
  if (const SnapshotDocument* doc = ResidentOrNull(i)) return doc;

  const auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(fault_mu_[i % kFaultShards]);
  if (const SnapshotDocument* doc = ResidentOrNull(i)) return doc;

  auto fail = [&](Status status) -> Status {
    fault_failures_.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
#if EXTRACT_FAULT_INJECTION
  if (FaultInjector::Instance().armed()) {
    Status injected = FaultInjector::Instance().Check("snapshot.fault");
    if (!injected.ok()) return fail(std::move(injected));
  }
#endif
  const uint64_t payload_off = view_.entry(i, kEntryPayloadOff);
  const uint64_t payload_size = view_.entry(i, kEntryPayloadSize);
  const uint8_t* payload = view_.base + payload_off;
  Status checksum_status = Status::OK();
  EXTRACT_FAULT_CHECK_INTO(checksum_status, "snapshot.checksum");
  if (checksum_status.ok() &&
      Hash64(payload, static_cast<size_t>(payload_size)) !=
          view_.entry(i, kEntryPayloadChecksum)) {
    checksum_status = Status::ParseError(
        "snapshot document payload checksum mismatch: " +
        std::string(view_.name(i)));
  }
  if (!checksum_status.ok()) return fail(std::move(checksum_status));

  auto db = snapshot_internal::DecodeDocumentBlob(
      payload, static_cast<size_t>(payload_size));
  if (!db.ok()) {
    return fail(Status(db.status().code(), std::string(view_.name(i)) + ": " +
                                               db.status().message()));
  }
  auto* doc = new SnapshotDocument();
  doc->db = std::make_shared<const XmlDatabase>(std::move(db).value());
  doc->name = std::string(view_.name(i));
  doc->instance = instance_base() + i;
  doc->cache_id = doc->name + "@" + std::to_string(doc->instance);
  slots_[i].doc.store(doc, std::memory_order_release);
  faults_.fetch_add(1, std::memory_order_relaxed);
  resident_.fetch_add(1, std::memory_order_relaxed);
  fault_ns_.fetch_add(ElapsedNs(start), std::memory_order_relaxed);
  return doc;
}

Result<CorpusSnapshot::TermList> CorpusSnapshot::FindTerm(
    std::string_view token) const {
  const auto key_at = [this](size_t t) {
    const uint64_t k0 = LoadU64(view_.key_offsets + 8 * t);
    const uint64_t k1 = LoadU64(view_.key_offsets + 8 * (t + 1));
    return std::string_view(view_.key_bytes + k0, static_cast<size_t>(k1 - k0));
  };
  size_t lo = 0;
  size_t hi = static_cast<size_t>(view_.term_count);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < token) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == view_.term_count || key_at(lo) != token) return TermList{};
  const uint64_t begin = LoadU64(view_.list_begin + 8 * lo);
  const uint64_t end = LoadU64(view_.list_begin + 8 * (lo + 1));
  TermList list{view_.term_entries + begin * kTermEntryBytes,
                static_cast<size_t>(end - begin)};
  if (term_verified_[lo].load(std::memory_order_acquire)) return list;

  // First use: the entries must match their checksum and address
  // documents in strictly ascending, in-range order — the invariants
  // ForEachCandidate's merge and every later directory access rely on.
  Status status = Status::OK();
  EXTRACT_FAULT_CHECK_INTO(status, "snapshot.checksum");
  if (status.ok() && Hash64(list.entries, list.size * kTermEntryBytes) !=
                         LoadU64(view_.list_checksum + 8 * lo)) {
    status = Status::ParseError("snapshot term list checksum mismatch: " +
                                std::string(token));
  }
  for (size_t j = 0; status.ok() && j < list.size; ++j) {
    const uint8_t* entry = list.entries + j * kTermEntryBytes;
    const uint32_t doc = LoadU32(entry);
    if (doc >= view_.doc_count || LoadU32(entry + 4) == 0 ||
        (j > 0 && doc <= LoadU32(entry - kTermEntryBytes))) {
      status = Status::ParseError("snapshot bad term list: " +
                                  std::string(token));
    }
  }
  if (!status.ok()) return status;
  term_verified_[lo].store(true, std::memory_order_release);
  return list;
}

Status CorpusSnapshot::ForEachCandidate(const Query& query,
                                        const CandidateFn& fn) const {
  const size_t m = query.keywords.size();
  if (m == 0) {  // no keyword to prune by: every document, no stats
    for (size_t i = 0; i < doc_count(); ++i) fn(i, {});
    return Status::OK();
  }
  // The entry list of each keyword; the shortest one drives the merge.
  std::vector<TermList> lists(m);
  size_t shortest = 0;
  for (size_t k = 0; k < m; ++k) {
    EXTRACT_ASSIGN_OR_RETURN(lists[k],
                             FindTerm(ToLowerCopy(query.keywords[k])));
    if (lists[k].size == 0) return Status::OK();  // absent from the corpus
    if (lists[k].size < lists[shortest].size) shortest = k;
  }

  // Emits, in index order, the documents every list holds.
  const auto doc_at = [](const TermList& list, size_t j) {
    return LoadU32(list.entries + j * kTermEntryBytes);
  };
  std::vector<TermDocStats> stats(m);
  std::vector<size_t> cursor(m, 0);
  const TermList& lead = lists[shortest];
  for (size_t j = 0; j < lead.size; ++j) {
    const uint32_t doc = doc_at(lead, j);
    cursor[shortest] = j;
    bool all = true;
    for (size_t k = 0; k < m && all; ++k) {
      if (k == shortest) continue;
      while (cursor[k] < lists[k].size && doc_at(lists[k], cursor[k]) < doc) {
        ++cursor[k];
      }
      all = cursor[k] < lists[k].size && doc_at(lists[k], cursor[k]) == doc;
    }
    if (!all) continue;
    for (size_t k = 0; k < m; ++k) {
      const uint8_t* entry = lists[k].entries + cursor[k] * kTermEntryBytes;
      stats[k] = TermDocStats{LoadU32(entry + 4), LoadU32(entry + 8),
                              LoadU32(entry + 12)};
    }
    fn(doc, stats);
  }
  return Status::OK();
}

CorpusSnapshotStats CorpusSnapshot::Stats() const {
  CorpusSnapshotStats stats;
  stats.documents = view_.doc_count;
  stats.resident = resident_.load(std::memory_order_relaxed);
  stats.faults = faults_.load(std::memory_order_relaxed);
  stats.fault_failures = fault_failures_.load(std::memory_order_relaxed);
  stats.fault_ns = fault_ns_.load(std::memory_order_relaxed);
  stats.open_ns = open_ns_;
  stats.file_bytes = view_.file_size;
  stats.path = path_;
  return stats;
}

}  // namespace extract
