// Live mutable corpus: epoch-pinned snapshot swapping. Covers the
// EpochDomain primitive, the precise mutation statuses, pinned-view
// stability across removals, and — the teeth — a TSan torture mix of
// concurrent readers, writers, cancellation and cache invalidation where
// every non-cancelled query must be byte-identical to a quiesced oracle
// run against the exact view it pinned.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

namespace extract {
namespace {

// ---------------------------------------------------------------- EpochDomain

TEST(EpochDomainTest, PublishRetireReclaim) {
  EpochDomain<int> domain;
  EpochDomain<int>::Pin pin = domain.Acquire();
  EXPECT_EQ(*pin, 0);
  EXPECT_EQ(pin.epoch(), 0u);

  EXPECT_EQ(domain.Publish(41), 1u);
  EXPECT_EQ(domain.Publish(42), 2u);

  // The pinned reader still sees epoch 0; new pins see epoch 2.
  EXPECT_EQ(*pin, 0);
  EpochDomain<int>::Pin fresh = domain.Acquire();
  EXPECT_EQ(*fresh, 42);
  EXPECT_EQ(fresh.epoch(), 2u);

  EpochStats stats = domain.Stats();
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.pinned_readers, 2u);
  // Epoch 1 had no pin, so it reclaimed inside Publish; epoch 0 is held.
  EXPECT_EQ(stats.retired_live, 1u);
  EXPECT_EQ(stats.reclaimed, 1u);

  pin = EpochDomain<int>::Pin();  // drop the epoch-0 hold
  stats = domain.Stats();
  EXPECT_EQ(stats.pinned_readers, 1u);
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_EQ(stats.reclaimed, 2u);
}

TEST(EpochDomainTest, PinCopyAndMoveSemantics) {
  EpochDomain<int> domain;
  domain.Publish(7);

  EpochDomain<int>::Pin a = domain.Acquire();
  EXPECT_EQ(domain.Stats().pinned_readers, 1u);

  EpochDomain<int>::Pin b = a;  // copy extends the pin
  EXPECT_EQ(domain.Stats().pinned_readers, 2u);
  EXPECT_EQ(*b, 7);

  EpochDomain<int>::Pin c = std::move(a);  // move transfers it
  EXPECT_EQ(domain.Stats().pinned_readers, 2u);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(c);

  b = EpochDomain<int>::Pin();
  c = EpochDomain<int>::Pin();
  EXPECT_EQ(domain.Stats().pinned_readers, 0u);
}

TEST(EpochDomainTest, PinOutlivesDomain) {
  EpochDomain<std::string>::Pin pin;
  {
    EpochDomain<std::string> domain;
    domain.Publish("alive");
    pin = domain.Acquire();
  }
  EXPECT_EQ(*pin, "alive");  // the pin alone keeps the snapshot alive
}

// ------------------------------------------------------ mutation statuses

TEST(CorpusChurnTest, PreciseMutationStatuses) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("a", "<x>one</x>").ok());
  EXPECT_EQ(corpus.AddDocument("a", "<y>two</y>").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(corpus.RemoveDocument("missing").code(), StatusCode::kNotFound);

  corpus.BeginShutdown();
  EXPECT_EQ(corpus.AddDocument("b", "<z>three</z>").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(corpus.RemoveDocument("a").code(),
            StatusCode::kFailedPrecondition);

  // Serving continues against the last published view after shutdown.
  XSeekEngine engine;
  auto hits = corpus.SearchAll(Query::Parse("one"), engine);
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(corpus.size(), 1u);
}

// ------------------------------------------------------ pinned-view reads

/// Byte-level fingerprint of a snippet: every observable field.
std::string Fingerprint(const Snippet& s) {
  std::string out;
  out += std::to_string(s.result_root);
  out += '|';
  for (NodeId n : s.nodes) {
    out += std::to_string(n);
    out += ',';
  }
  out += '|';
  for (bool c : s.covered) out += c ? '1' : '0';
  out += '|';
  out += s.key.value;
  out += '|';
  out += s.ilist.ToString();
  out += '|';
  out += s.tree ? WriteXml(*s.tree) : "(no tree)";
  return out;
}

std::string FingerprintHit(const CorpusResult& hit) {
  return hit.document + "#" + std::to_string(hit.result.root) + "@" +
         std::to_string(hit.score);
}

TEST(CorpusChurnTest, PinnedViewServesIdenticallyAfterRemoval) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());

  Query query = Query::Parse("texas");
  XSeekEngine engine;
  SnippetOptions options;
  options.size_bound = 9;

  CorpusPin pin = corpus.PinView();
  auto before = corpus.SearchAll(query, engine, RankingOptions{},
                                 CorpusServingOptions{}, pin);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_FALSE(before->empty());
  auto before_snips =
      corpus.GenerateSnippets(query, *before, options, pin);
  ASSERT_TRUE(before_snips.ok()) << before_snips.status();

  ASSERT_TRUE(corpus.RemoveDocument("stores").ok());
  EXPECT_EQ(corpus.EpochStatsSnapshot().retired_live, 1u)
      << "the held pin must keep the retired view alive";

  // The pinned view still serves the removed document, byte-identically.
  auto after = corpus.SearchAll(query, engine, RankingOptions{},
                                CorpusServingOptions{}, pin);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ(FingerprintHit((*after)[i]), FingerprintHit((*before)[i]));
  }
  auto after_snips =
      corpus.GenerateSnippets(query, *after, options, pin);
  ASSERT_TRUE(after_snips.ok()) << after_snips.status();
  for (size_t i = 0; i < after_snips->size(); ++i) {
    EXPECT_EQ(Fingerprint((*after_snips)[i]), Fingerprint((*before_snips)[i]));
  }

  // The current view no longer has the document.
  EXPECT_EQ(corpus.Find("stores"), nullptr);

  pin = CorpusPin();  // last reader drains: the retired view reclaims
  EpochStats stats = corpus.EpochStatsSnapshot();
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_GE(stats.reclaimed, 1u);
}

TEST(CorpusChurnTest, AddIsVisibleOnlyToNewPins) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());

  CorpusPin old_pin = corpus.PinView();
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());

  EXPECT_EQ(old_pin->documents.size(), 1u);
  EXPECT_EQ(corpus.PinView()->documents.size(), 2u);
  EXPECT_EQ(corpus.size(), 2u);

  Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto old_hits = corpus.SearchAll(query, engine, RankingOptions{},
                                   CorpusServingOptions{}, old_pin);
  ASSERT_TRUE(old_hits.ok());
  for (const CorpusResult& hit : *old_hits) {
    EXPECT_EQ(hit.document, "stores") << "old pin must not see the add";
  }
  auto new_hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(new_hits.ok());
  bool saw_retailer = false;
  for (const CorpusResult& hit : *new_hits) {
    saw_retailer = saw_retailer || hit.document == "retailer";
  }
  EXPECT_TRUE(saw_retailer);
}

// A stream (slots compute as they are pulled) opened before a removal must
// drain byte-identically after it — the session's pin keeps the database
// alive through the drain.
TEST(CorpusChurnTest, InFlightStreamSurvivesRemoval) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  XmlCorpus reference;
  ASSERT_TRUE(reference.AddDocument("stores", GenerateStoresXml()).ok());

  Query query = Query::Parse("store texas");
  XSeekEngine engine;
  SnippetOptions options;
  options.size_bound = 10;

  auto served = corpus.ServeQuery(query, engine, RankingOptions{},
                                  CorpusServingOptions{}, options,
                                  StreamOptions{});
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->page().empty());

  // Remove (and replace) the document while the stream is open and no
  // snippet has been computed yet.
  ASSERT_TRUE(corpus.RemoveDocument("stores").ok());
  ASSERT_TRUE(corpus.AddDocument("stores", "<other>content</other>").ok());

  std::vector<std::pair<size_t, std::string>> got;
  while (auto event = served->stream().Next()) {
    ASSERT_TRUE(event->snippet.ok()) << event->snippet.status();
    got.emplace_back(event->slot, Fingerprint(*event->snippet));
  }
  ASSERT_EQ(got.size(), served->page().size());

  auto expected = reference.GenerateSnippets(
      query, served->page(), options);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const auto& [slot, fingerprint] : got) {
    EXPECT_EQ(fingerprint, Fingerprint((*expected)[slot]));
  }
}

// ---------------------------------------------------------------- torture

// Concurrent readers (gated top-k, blocking, cancelling) × writers
// (remove + re-add churn over two flapping documents) × snippet-cache
// invalidation. Every non-cancelled query is verified against a
// sequential, uncached oracle evaluated on the exact view the query
// pinned — any torn read, freed database, or stale cache byte fails.
TEST(CorpusChurnTest, TortureReadersWritersCancellation) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache();
  const std::string stores_xml = GenerateStoresXml();
  const std::string retailer_xml = GenerateRetailerXml();
  const std::string movies_xml = GenerateMoviesXml();
  ASSERT_TRUE(corpus.AddDocument("base0", stores_xml).ok());
  ASSERT_TRUE(corpus.AddDocument("base1", retailer_xml).ok());
  ASSERT_TRUE(corpus.AddDocument("churn0", movies_xml).ok());
  ASSERT_TRUE(corpus.AddDocument("churn1", stores_xml).ok());

  const std::vector<std::string> queries = {"texas", "store texas",
                                            "texas clothes", "drama"};

  constexpr int kReaders = 3;
  constexpr int kItersPerReader = 8;
  constexpr int kWriters = 2;
  constexpr int kMutationsPerWriter = 24;

  std::vector<std::string> reader_failures(kReaders);
  std::vector<std::string> writer_failures(kWriters);
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string name = "churn" + std::to_string(w);
      for (int m = 0; m < kMutationsPerWriter; ++m) {
        Status removed = corpus.RemoveDocument(name);
        if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
          writer_failures[w] = "remove: " + removed.ToString();
          return;
        }
        const std::string& xml =
            (m % 2 == 0) ? (w == 0 ? retailer_xml : movies_xml)
                         : (w == 0 ? movies_xml : stores_xml);
        Status added = corpus.AddDocument(name, xml);
        if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
          writer_failures[w] = "add: " + added.ToString();
          return;
        }
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      XSeekEngine engine;
      for (int iter = 0; iter < kItersPerReader; ++iter) {
        const Query query =
            Query::Parse(queries[(r + iter) % queries.size()]);
        const bool gated = iter % 3 == 0;
        const bool cancel = iter % 5 == 4;
        SnippetOptions options;
        options.size_bound = 8 + (iter % 3) * 3;
        CorpusServingOptions serving;
        serving.page_size = gated ? 5 : 0;

        CorpusPin pin = corpus.PinView();
        auto served = corpus.ServeQuery(query, engine, RankingOptions{},
                                        serving, options, StreamOptions{},
                                        pin);
        if (!served.ok()) {
          reader_failures[r] = "serve: " + served.status().ToString();
          return;
        }
        std::vector<std::pair<size_t, std::string>> got;
        bool cancelled = false;
        while (auto event = served->stream().Next()) {
          if (cancel && !cancelled) {
            served->Cancel();
            cancelled = true;
            continue;
          }
          if (cancelled) continue;  // drain the cancelled tail
          if (!event->snippet.ok()) {
            reader_failures[r] = "slot " + std::to_string(event->slot) +
                                 ": " + event->snippet.status().ToString();
            return;
          }
          got.emplace_back(event->slot, Fingerprint(*event->snippet));
        }
        if (cancelled) continue;  // cancelled runs are not verified

        // Oracle: sequential, uncached, quiesced-equivalent evaluation on
        // the same pinned view (the pin makes it immutable, so "after the
        // fact" IS quiesced).
        auto oracle = corpus.SearchAll(query, engine, RankingOptions{},
                                       CorpusServingOptions{}, pin);
        if (!oracle.ok()) {
          reader_failures[r] = "oracle: " + oracle.status().ToString();
          return;
        }
        const size_t expect_hits =
            gated ? std::min<size_t>(serving.page_size, oracle->size())
                  : oracle->size();
        if (served->page().size() != expect_hits) {
          reader_failures[r] =
              "page size " + std::to_string(served->page().size()) +
              " != oracle " + std::to_string(expect_hits);
          return;
        }
        for (size_t i = 0; i < expect_hits; ++i) {
          if (FingerprintHit(served->page()[i]) !=
              FingerprintHit((*oracle)[i])) {
            reader_failures[r] = "hit " + std::to_string(i) + " diverges: " +
                                 FingerprintHit(served->page()[i]) + " vs " +
                                 FingerprintHit((*oracle)[i]);
            return;
          }
        }
        if (got.size() != expect_hits) {
          reader_failures[r] = "emitted " + std::to_string(got.size()) +
                               " snippets, expected " +
                               std::to_string(expect_hits);
          return;
        }
        for (const auto& [slot, fingerprint] : got) {
          const CorpusResult& hit = served->page()[slot];
          auto doc = pin->documents.find(hit.document);
          if (doc == pin->documents.end()) {
            reader_failures[r] = "hit references a document outside the "
                                 "pinned view: " + hit.document;
            return;
          }
          SnippetService service(doc->second.db.get());
          auto expected = service.Generate(query, hit.result, options);
          if (!expected.ok()) {
            reader_failures[r] = "oracle snippet: " +
                                 expected.status().ToString();
            return;
          }
          if (fingerprint != Fingerprint(*expected)) {
            reader_failures[r] =
                "snippet bytes diverge at slot " + std::to_string(slot) +
                " (document " + hit.document + ")";
            return;
          }
        }
      }
    });
  }

  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(writer_failures[w].empty())
        << "writer " << w << ": " << writer_failures[w];
  }
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(reader_failures[r].empty())
        << "reader " << r << ": " << reader_failures[r];
  }

  // The churn must actually have recycled views, and quiescence drains
  // every pin.
  EpochStats stats = corpus.EpochStatsSnapshot();
  EXPECT_GE(stats.published, 4u + 2u * kMutationsPerWriter);
  EXPECT_EQ(stats.pinned_readers, 0u);
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_GE(stats.reclaimed, stats.published - 1);
}

}  // namespace
}  // namespace extract
