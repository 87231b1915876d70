// Concurrency torture of the admission layer, unit level (the controller's
// bound, EDF queue, shedding, shutdown) and server level (sessions beyond
// the bound queue in deadline order, deterministic shed under a 16-client
// burst at capacity 1+2, client disconnect mid-SSE cancels the stream and
// frees the slot). Runs under TSan in CI.

#include "http/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "http/http_server.h"
#include "http/json.h"
#include "http/query_endpoints.h"
#include "http_test_util.h"
#include "search/corpus.h"
#include "search/ranking.h"

namespace extract {
namespace {

using Clock = std::chrono::steady_clock;
using testing::Get;
using testing::HttpResponse;

/// Spins until `pred` holds or ~5s elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (Clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(AdmissionControllerTest, BoundNeverExceededUnderContention) {
  AdmissionOptions options;
  options.max_concurrent = 3;
  options.max_queue = 64;
  AdmissionController controller(options);

  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto ticket = controller.Acquire();
        ASSERT_TRUE(ticket.ok()) << ticket.status();
        int now = active.fetch_add(1) + 1;
        int seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        active.fetch_sub(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(peak.load(), 3);
  AdmissionStats stats = controller.Stats();
  EXPECT_EQ(stats.admitted, 8u * 50u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_LE(stats.peak_active, 3u);
}

TEST(AdmissionControllerTest, WaitersAdmittedInDeadlineOrder) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 16;
  AdmissionController controller(options);

  auto holder = controller.Acquire();
  ASSERT_TRUE(holder.ok());

  // Waiters arrive in scrambled order; deadlines say 3, 1, 4, 0, 2.
  const int arrival_to_rank[] = {3, 1, 4, 0, 2};
  const auto base = Clock::now() + std::chrono::hours(1);
  std::mutex order_mu;
  std::vector<int> admitted_ranks;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 5; ++i) {
    const int rank = arrival_to_rank[i];
    waiters.emplace_back([&, rank] {
      auto ticket =
          controller.Acquire(base + std::chrono::milliseconds(rank));
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      std::lock_guard<std::mutex> lock(order_mu);
      admitted_ranks.push_back(rank);
      // Ticket destruction hands the slot to the next-best waiter.
    });
    // Serialize arrival so (deadline, seq) keys are fully determined.
    ASSERT_TRUE(WaitFor([&] {
      return controller.Stats().queued == static_cast<size_t>(i + 1);
    }));
  }

  holder->Reset();  // start the chain
  for (auto& thread : waiters) thread.join();
  EXPECT_EQ(admitted_ranks, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(controller.Stats().admitted_after_wait, 5u);
}

TEST(AdmissionControllerTest, QueueFullShedsImmediately) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  AdmissionController controller(options);

  auto holder = controller.Acquire();
  ASSERT_TRUE(holder.ok());
  std::vector<std::thread> queued;
  for (int i = 0; i < 2; ++i) {
    queued.emplace_back([&] {
      auto ticket = controller.Acquire();
      EXPECT_TRUE(ticket.ok());
    });
  }
  ASSERT_TRUE(WaitFor([&] { return controller.Stats().queued == 2; }));

  // Third arrival: queue full, immediate kUnavailable — never blocks.
  const auto before = Clock::now();
  auto shed = controller.Acquire(Clock::now() + std::chrono::hours(1));
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(Clock::now() - before, std::chrono::seconds(1));
  EXPECT_EQ(controller.Stats().shed_queue_full, 1u);

  holder->Reset();
  for (auto& thread : queued) thread.join();
}

TEST(AdmissionControllerTest, DeadlineExpiryWhileQueued) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  AdmissionController controller(options);
  auto holder = controller.Acquire();
  ASSERT_TRUE(holder.ok());

  // Already-expired deadline: shed without queueing.
  auto expired = controller.Acquire(Clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // Expires while queued: returns kDeadlineExceeded after ~the budget and
  // leaves the queue clean.
  auto timed_out = controller.Acquire(Clock::now() +
                                      std::chrono::milliseconds(50));
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  AdmissionStats stats = controller.Stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.shed_deadline, 2u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(AdmissionControllerTest, ShutdownAbortsWaitersAndFutureAcquires) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  AdmissionController controller(options);
  auto holder = controller.Acquire();
  ASSERT_TRUE(holder.ok());

  std::vector<std::thread> waiters;
  std::atomic<int> aborted{0};
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      auto ticket = controller.Acquire();  // no deadline: waits forever
      if (ticket.status().code() == StatusCode::kUnavailable) ++aborted;
    });
  }
  ASSERT_TRUE(WaitFor([&] { return controller.Stats().queued == 3; }));

  controller.Shutdown();
  for (auto& thread : waiters) thread.join();
  EXPECT_EQ(aborted.load(), 3);
  EXPECT_EQ(controller.Acquire().status().code(), StatusCode::kUnavailable);
  // Held tickets still release cleanly after shutdown.
  holder->Reset();
  EXPECT_EQ(controller.Stats().active, 0u);
}

TEST(AdmissionControllerTest, TicketMoveTransfersOwnership) {
  AdmissionController controller(AdmissionOptions{.max_concurrent = 1});
  auto ticket = controller.Acquire();
  ASSERT_TRUE(ticket.ok());
  AdmissionController::Ticket moved = std::move(*ticket);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(ticket->valid());
  EXPECT_EQ(controller.Stats().active, 1u);
  moved.Reset();
  EXPECT_FALSE(moved.valid());
  EXPECT_EQ(controller.Stats().active, 0u);
}

// ---------------------------------------------------------------- server

/// XSeekEngine behind a latch: while the latch is held, every incremental
/// producer blocks in Pull until Release. A gated (page_size > 0) request
/// sends its response head before any pull, so holding the latch keeps its
/// stream open for as long as a test needs. Unheld, it is XSeekEngine.
class LatchedEngine : public SearchEngine {
 public:
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    released_.notify_all();
  }

  Result<std::vector<QueryResult>> Search(const XmlDatabase& db,
                                          const Query& query) const override {
    return inner_.Search(db, query);
  }
  bool RequiresAllKeywords() const override {
    return inner_.RequiresAllKeywords();
  }
  double DocumentScoreBound(
      const RankingOptions& ranking,
      std::span<const TermDocStats> keyword_stats) const override {
    return inner_.DocumentScoreBound(ranking, keyword_stats);
  }
  Result<std::unique_ptr<ResultProducer>> OpenIncremental(
      const XmlDatabase& db, const Query& query, const RankingOptions& ranking,
      size_t top_k_hint) const override {
    auto opened = inner_.OpenIncremental(db, query, ranking, top_k_hint);
    if (!opened.ok()) return opened;
    return Result<std::unique_ptr<ResultProducer>>(
        std::make_unique<Producer>(this, std::move(*opened)));
  }

 private:
  class Producer : public ResultProducer {
   public:
    Producer(const LatchedEngine* engine,
             std::unique_ptr<ResultProducer> inner)
        : engine_(engine), inner_(std::move(inner)) {}

    Status Pull(std::vector<RankedResult>* out) override {
      engine_->WaitWhileHeld();
      return inner_->Pull(out);
    }
    bool Exhausted() const override { return inner_->Exhausted(); }
    double ScoreUpperBound() const override {
      return inner_->ScoreUpperBound();
    }
    size_t candidates_total() const override {
      return inner_->candidates_total();
    }
    size_t candidates_scored() const override {
      return inner_->candidates_scored();
    }

   private:
    const LatchedEngine* engine_;
    std::unique_ptr<ResultProducer> inner_;
  };

  void WaitWhileHeld() const {
    std::unique_lock<std::mutex> lock(mu_);
    released_.wait(lock, [this] { return !held_; });
  }

  XSeekEngine inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable released_;
  bool held_ = false;
};

class HttpAdmissionTest : public ::testing::Test {
 protected:
  void StartServer(size_t max_concurrent, size_t max_queue) {
    ASSERT_TRUE(corpus_.AddDocument("retailer", GenerateRetailerXml()).ok());
    ASSERT_TRUE(corpus_.AddDocument("stores", GenerateStoresXml()).ok());
    HttpServerOptions options;
    options.admission.max_concurrent = max_concurrent;
    options.admission.max_queue = max_queue;
    server_ = std::make_unique<HttpServer>(options);
    service_ = std::make_unique<QueryService>(&corpus_, &engine_,
                                              QueryServiceOptions{});
    service_->Register(server_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    engine_.Release();  // a failed test must not leave a search parked
    if (server_ != nullptr) server_->Stop();
  }

  XmlCorpus corpus_;
  LatchedEngine engine_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(HttpAdmissionTest, RequestsQueueBeyondBoundAndServeAfterRelease) {
  StartServer(/*max_concurrent=*/1, /*max_queue=*/8);

  // Occupy the only slot out-of-band, so the HTTP request MUST queue.
  auto holder = server_->admission().Acquire();
  ASSERT_TRUE(holder.ok());

  std::thread client([&] {
    HttpResponse response = Get(
        server_->port(), "/query?q=texas&page_size=2&deadline_ms=5000");
    EXPECT_EQ(response.status, 200);
  });
  ASSERT_TRUE(WaitFor([&] { return server_->admission().Stats().queued == 1; }));

  holder->Reset();  // hand the slot to the queued request
  client.join();
  AdmissionStats stats = server_->admission().Stats();
  EXPECT_EQ(stats.admitted_after_wait, 1u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_GT(stats.max_wait_ns, 0u);
}

TEST_F(HttpAdmissionTest, SixteenFoldOverloadShedsDeterministically) {
  // Capacity 1 + queue 2, the slot held for the whole burst: of 16
  // concurrent requests exactly 2 queue (then expire: kDeadlineExceeded)
  // and 14 shed immediately (kUnavailable). Nothing hangs, nothing 5xxes
  // except the deliberate 503s, every body decodes.
  StartServer(/*max_concurrent=*/1, /*max_queue=*/2);
  auto holder = server_->admission().Acquire();
  ASSERT_TRUE(holder.ok());

  std::mutex mu;
  std::vector<HttpResponse> responses;
  std::vector<std::thread> clients;
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&] {
      HttpResponse response =
          Get(server_->port(), "/query?q=texas&deadline_ms=2000");
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
  }
  for (auto& thread : clients) thread.join();

  int unavailable = 0, deadline = 0;
  for (const HttpResponse& response : responses) {
    ASSERT_TRUE(response.valid);
    EXPECT_EQ(response.status, 503);
    EXPECT_EQ(response.headers.count("retry-after"), 1u);
    auto decoded = JsonValue::Parse(response.body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const std::string& code = decoded->Find("status")->string_value;
    if (code == "Unavailable") ++unavailable;
    if (code == "DeadlineExceeded") ++deadline;
  }
  EXPECT_EQ(unavailable, 14);
  EXPECT_EQ(deadline, 2);

  // The server recovered: release the slot, the next request serves.
  holder->Reset();
  EXPECT_EQ(Get(server_->port(), "/query?q=texas&page_size=1").status, 200);
  AdmissionStats stats = server_->admission().Stats();
  EXPECT_EQ(stats.shed_queue_full, 14u);
  EXPECT_EQ(stats.shed_deadline, 2u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST_F(HttpAdmissionTest, ClientDisconnectMidSseCancelsStreamAndFreesSlot) {
  StartServer(/*max_concurrent=*/1, /*max_queue=*/4);

  // Open a gated SSE stream whose search is parked in its first pull, read
  // only the response head, then vanish (full close -> FIN/RST). The search
  // resumes only once the close has landed, so the server writes its first
  // snippet frame to a departed client however loaded the machine is.
  engine_.Hold();
  int fd = testing::ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(testing::SendAll(
      fd, "GET /query?q=" + testing::UrlEncode("texas apparel retailer") +
              "&mode=sse&gated=1 HTTP/1.1\r\nHost: t\r\n\r\n"));
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // at least the head
  ASSERT_GT(n, 0);
  ::close(fd);
  engine_.Release();

  // The handler must notice, cancel the stream and release the ticket.
  EXPECT_TRUE(WaitFor([&] {
    return server_->Stats().sse_client_disconnects >= 1 &&
           server_->admission().Stats().active == 0;
  }));

  // The freed slot serves the next client immediately.
  HttpResponse after = Get(server_->port(),
                           "/query?q=texas&page_size=1&deadline_ms=5000");
  EXPECT_EQ(after.status, 200);
}

TEST_F(HttpAdmissionTest, StopWithQueuedWaitersDoesNotHang) {
  StartServer(/*max_concurrent=*/1, /*max_queue=*/4);
  auto holder = server_->admission().Acquire();
  ASSERT_TRUE(holder.ok());

  // Park two no-deadline requests in the admission queue, then Stop: the
  // shutdown hook must abort them (503) instead of deadlocking the join.
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&] {
      HttpResponse response = Get(server_->port(), "/query?q=texas");
      // Aborted waiters answer 503; a client racing the socket teardown
      // may instead see a dead connection. Both are clean outcomes.
      if (response.valid) EXPECT_EQ(response.status, 503);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return server_->admission().Stats().queued == 2; }));

  const auto before = Clock::now();
  server_->Stop();
  EXPECT_LT(Clock::now() - before, std::chrono::seconds(5));
  for (auto& thread : clients) thread.join();
}

}  // namespace
}  // namespace extract
