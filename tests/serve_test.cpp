// Protocol- and batching-level tests for the src/serve daemon stack:
// framing codec edge cases (truncation, oversized lengths, zero-length
// scripts, garbage), Batcher bit-identity against the library path at
// several parallel widths, admission control under overload, and the
// Server's failure-containment and graceful-drain contracts over real
// socketpairs — a malformed client loses its connection, never the daemon.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "serve/frame.h"
#include "serve/listener.h"
#include "serve/serve.h"
#include "serve/server.h"

namespace jsrev {
namespace {

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

serve::Frame classify_frame(std::uint32_t id, std::string payload,
                            std::uint8_t flags = 0) {
  serve::Frame f;
  f.type = serve::FrameType::kClassify;
  f.id = id;
  f.flags = flags;
  f.payload = std::move(payload);
  return f;
}

TEST(Frame, RoundTrip) {
  const serve::Frame in = classify_frame(42, "var x = 1;",
                                         serve::kWantProvenance);
  const std::string bytes = serve::encode_frame(in);
  ASSERT_EQ(bytes.size(), serve::kFrameHeaderBytes + in.payload.size());

  serve::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::decode_frame(bytes, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, serve::FrameType::kClassify);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.flags, serve::kWantProvenance);
  EXPECT_EQ(out.payload, "var x = 1;");
}

TEST(Frame, ZeroLengthPayload) {
  const std::string bytes = serve::encode_frame(classify_frame(7, ""));
  serve::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::decode_frame(bytes, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(consumed, serve::kFrameHeaderBytes);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Frame, TruncationAlwaysNeedsMore) {
  // Every strict prefix of a valid frame decodes to kNeedMore, never to an
  // error and never to a short read.
  const std::string bytes = serve::encode_frame(classify_frame(9, "x = 1;"));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serve::Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(serve::decode_frame(bytes.substr(0, len), 1 << 20, &out,
                                  &consumed),
              serve::DecodeStatus::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Frame, OversizedLengthIsRejectedBeforeBuffering) {
  // A header advertising more than max_payload fails immediately — the
  // decoder must not wait for (or allocate) the advertised bytes.
  serve::Frame huge = classify_frame(3, std::string(100, 'a'));
  std::string bytes = serve::encode_frame(huge);
  serve::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(serve::decode_frame(bytes, /*max_payload=*/99, &out, &consumed),
            serve::DecodeStatus::kTooLarge);
  EXPECT_EQ(consumed, 0u);
  EXPECT_EQ(out.id, 3u);  // header fields are reported for the error reply
}

TEST(Frame, GarbageFailsFast) {
  serve::Frame out;
  std::size_t consumed = 0;
  // Wrong very first byte: rejected with a single byte of input.
  EXPECT_EQ(serve::decode_frame("X", 1 << 20, &out, &consumed),
            serve::DecodeStatus::kBadMagic);
  // Right first byte, wrong second.
  EXPECT_EQ(serve::decode_frame("JX", 1 << 20, &out, &consumed),
            serve::DecodeStatus::kBadMagic);
}

TEST(Frame, UnknownTypeByte) {
  std::string bytes = serve::encode_frame(classify_frame(1, "x"));
  bytes[2] = '\x7f';  // not a FrameType
  serve::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(serve::decode_frame(bytes, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kBadType);
  EXPECT_EQ(out.id, 1u);
}

TEST(Frame, BackToBackFramesDecodeInOrder) {
  std::string stream;
  serve::append_frame(classify_frame(1, "a;"), &stream);
  serve::append_frame(classify_frame(2, "b;"), &stream);
  serve::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::decode_frame(stream, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(out.id, 1u);
  stream.erase(0, consumed);
  ASSERT_EQ(serve::decode_frame(stream, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(out.id, 2u);
  EXPECT_EQ(consumed, stream.size());
}

// ---------------------------------------------------------------------------
// Batcher + Server against a real trained model.
// ---------------------------------------------------------------------------

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::Config cfg;
    cfg.seed = 77;
    cfg.threads = 2;
    cfg.embed_epochs = 4;
    cfg.cluster_sample_per_class = 400;
    dataset::GeneratorConfig gc;
    gc.seed = 77;
    gc.benign_count = 30;
    gc.malicious_count = 30;
    core::JsRevealer trainer(cfg);
    trainer.train(dataset::generate_corpus(gc));
    model_path_ = new std::string("serve_test_model.jsrm");
    trainer.save_artifact_file(*model_path_);
    model_ = new serve::ServeModel(*model_path_);

    dataset::GeneratorConfig eval;
    eval.seed = 1234;
    eval.benign_count = 12;
    eval.malicious_count = 12;
    scripts_ = new std::vector<std::string>();
    for (const auto& s : dataset::generate_corpus(eval).samples) {
      scripts_->push_back(s.source);
    }
    scripts_->push_back("function broken( {");  // unparseable ⇒ malicious
    scripts_->push_back("");                    // empty program

    core::ModelView library;
    library.map_file(*model_path_);
    library_verdicts_ = new std::vector<int>(library.classify_all(*scripts_));
  }

  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete library_verdicts_;
    delete scripts_;
    delete model_;
    delete model_path_;
  }

  static std::string* model_path_;
  static serve::ServeModel* model_;
  static std::vector<std::string>* scripts_;
  static std::vector<int>* library_verdicts_;
};

std::string* ServeFixture::model_path_ = nullptr;
serve::ServeModel* ServeFixture::model_ = nullptr;
std::vector<std::string>* ServeFixture::scripts_ = nullptr;
std::vector<int>* ServeFixture::library_verdicts_ = nullptr;

TEST_F(ServeFixture, ModelOpensAsMappedArtifact) {
  EXPECT_EQ(model_->format(), "jsrm-mapped");
  EXPECT_EQ(model_->name(), "JSRevealer[mapped]");
}

TEST_F(ServeFixture, BatcherMatchesLibraryAtEveryWidth) {
  for (const std::size_t width : {1u, 2u, 8u}) {
    serve::ServeOptions opts = model_->options();
    opts.threads = width;
    serve::Batcher batcher(*model_, opts);

    std::mutex mu;
    std::vector<int> verdicts(scripts_->size(), -1);
    for (std::size_t i = 0; i < scripts_->size(); ++i) {
      serve::ServeRequest req;
      req.id = static_cast<std::uint32_t>(i);
      req.source = (*scripts_)[i];
      batcher.submit(std::move(req), [&](serve::ServeResponse resp) {
        std::lock_guard<std::mutex> lock(mu);
        verdicts[resp.id] = resp.verdict;
      });
    }
    batcher.drain();
    EXPECT_EQ(verdicts, *library_verdicts_) << "width " << width;
  }
}

TEST_F(ServeFixture, BatcherRejectsBeyondQueueCapacity) {
  serve::ServeOptions opts = model_->options();
  opts.max_queue = 2;
  serve::Batcher batcher(*model_, opts);

  std::atomic<int> rejected{0}, answered{0};
  // More submissions than the queue holds; the worker drains concurrently,
  // so we only assert the two ends of the invariant: everything gets a
  // response, and nothing rejected was ever classified.
  for (std::uint32_t i = 0; i < 64; ++i) {
    serve::ServeRequest req;
    req.id = i;
    req.source = "var v" + std::to_string(i) + " = 1;";
    batcher.submit(std::move(req), [&](serve::ServeResponse resp) {
      if (resp.rejected) {
        EXPECT_EQ(resp.verdict, -1);
        EXPECT_FALSE(resp.error.empty());
        rejected.fetch_add(1);
      } else {
        answered.fetch_add(1);
      }
    });
  }
  batcher.drain();
  EXPECT_EQ(rejected.load() + answered.load(), 64);
}

/// Writes all of `bytes` to `fd` (test-side helper; asserts no short write).
void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(w, 0);
    off += static_cast<std::size_t>(w);
  }
}

/// Reads response frames from `fd` until `n` have arrived or EOF.
std::vector<serve::Frame> read_frames(int fd, std::size_t n) {
  std::vector<serve::Frame> frames;
  std::string buf;
  char chunk[16 * 1024];
  while (frames.size() < n) {
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(r));
    for (;;) {
      serve::Frame f;
      std::size_t consumed = 0;
      if (serve::decode_frame(buf, 64u << 20, &f, &consumed) !=
          serve::DecodeStatus::kOk) {
        break;
      }
      buf.erase(0, consumed);
      frames.push_back(std::move(f));
    }
  }
  return frames;
}

TEST_F(ServeFixture, ConcurrentClientsMatchLibrary) {
  serve::Server server(*model_, model_->options());
  server.listen_tcp(0);
  ASSERT_NE(server.bound_port(), 0);
  std::thread daemon([&] { server.run(); });

  constexpr int kClients = 3;
  std::vector<std::vector<int>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = serve::connect_endpoint(
          "127.0.0.1:" + std::to_string(server.bound_port()),
          /*timeout_ms=*/0);
      if (fd < 0) return;
      std::string out;
      for (std::size_t i = 0; i < scripts_->size(); ++i) {
        serve::append_frame(
            classify_frame(static_cast<std::uint32_t>(i + 1), (*scripts_)[i]),
            &out);
      }
      send_all(fd, out);
      const std::vector<serve::Frame> frames =
          read_frames(fd, scripts_->size());
      per_client[c].assign(scripts_->size(), -1);
      for (const serve::Frame& f : frames) {
        if (f.type == serve::FrameType::kVerdict && f.id >= 1 &&
            f.id <= scripts_->size() && !f.payload.empty()) {
          per_client[c][f.id - 1] = f.payload[0] - '0';
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  server.request_shutdown();
  daemon.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(per_client[c], *library_verdicts_) << "client " << c;
  }
}

TEST_F(ServeFixture, MalformedFrameClosesOnlyThatConnection) {
  serve::Server server(*model_, model_->options());
  server.listen_tcp(0);
  std::thread daemon([&] { server.run(); });

  const auto connect_client = [&]() -> int {
    const int fd = serve::connect_endpoint(
        "127.0.0.1:" + std::to_string(server.bound_port()), /*timeout_ms=*/0);
    EXPECT_GE(fd, 0);
    return fd;
  };

  // Client A sends garbage: it gets an error frame, then EOF.
  {
    const int fd = connect_client();
    send_all(fd, "this is not a frame");
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, serve::FrameType::kError);
    char byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0);  // connection closed after the error
    ::close(fd);
  }

  // Client B, connected afterwards, is served normally: the daemon survived.
  {
    const int fd = connect_client();
    send_all(fd, serve::encode_frame(classify_frame(5, "var ok = 1;")));
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, serve::FrameType::kVerdict);
    EXPECT_EQ(frames[0].id, 5u);
    ::close(fd);
  }

  server.request_shutdown();
  daemon.join();
}

// Clients that reconnect must not cost the daemon one thread per connection
// it ever accepted: the listener joins finished connection threads on every
// accept, so 500 sequential PING round trips leave only the last few
// tracked.
TEST_F(ServeFixture, SequentialConnectionsDoNotAccumulateThreads) {
  const std::string path = "serve_test_reap.sock";
  serve::Server server(*model_, model_->options());
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });

  constexpr std::uint32_t kConnections = 500;
  std::uint32_t ponged = 0;
  for (std::uint32_t i = 0; i < kConnections; ++i) {
    const int fd =
        serve::connect_endpoint("unix:" + path, /*timeout_ms=*/10'000);
    if (fd < 0) break;
    serve::Frame ping;
    ping.type = serve::FrameType::kPing;
    ping.id = i;
    send_all(fd, serve::encode_frame(ping));
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ::close(fd);
    if (frames.size() != 1 || frames[0].type != serve::FrameType::kPong) {
      break;
    }
    ++ponged;
  }
  EXPECT_EQ(ponged, kConnections);
  // Each accept reaps everything already finished; only the last few
  // connections can still be in their done-flag window.
  EXPECT_LE(server.tracked_connections(), 8u);

  server.request_shutdown();
  daemon.join();
}

TEST_F(ServeFixture, QuitDrainsInFlightWorkBeforeBye) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::Server server(*model_, model_->options());
  std::thread daemon([&] {
    server.serve_fd(sv[0], sv[0]);
    ::close(sv[0]);
  });

  // All classifies and the QUIT land in one burst; every verdict must still
  // arrive, and kBye must come last.
  std::string out;
  for (std::size_t i = 0; i < scripts_->size(); ++i) {
    serve::append_frame(
        classify_frame(static_cast<std::uint32_t>(i + 1), (*scripts_)[i]),
        &out);
  }
  serve::Frame quit;
  quit.type = serve::FrameType::kQuit;
  serve::append_frame(quit, &out);
  send_all(sv[1], out);

  const std::vector<serve::Frame> frames =
      read_frames(sv[1], scripts_->size() + 1);
  daemon.join();
  ::close(sv[1]);

  ASSERT_EQ(frames.size(), scripts_->size() + 1);
  std::vector<int> verdicts(scripts_->size(), -1);
  for (std::size_t i = 0; i < scripts_->size(); ++i) {
    EXPECT_EQ(frames[i].type, serve::FrameType::kVerdict);
    if (frames[i].id >= 1 && frames[i].id <= scripts_->size() &&
        !frames[i].payload.empty()) {
      verdicts[frames[i].id - 1] = frames[i].payload[0] - '0';
    }
  }
  EXPECT_EQ(verdicts, *library_verdicts_);
  EXPECT_EQ(frames.back().type, serve::FrameType::kBye);
}

TEST_F(ServeFixture, PingStatsAndParseFailedFlag) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::Server server(*model_, model_->options());
  std::thread daemon([&] {
    server.serve_fd(sv[0], sv[0]);
    ::close(sv[0]);
  });

  std::string out;
  serve::Frame ping;
  ping.type = serve::FrameType::kPing;
  ping.id = 100;
  ping.payload = "echo";
  serve::append_frame(ping, &out);
  serve::append_frame(classify_frame(101, "function broken( {"), &out);
  serve::Frame stats;
  stats.type = serve::FrameType::kStats;
  stats.id = 102;
  serve::append_frame(stats, &out);
  send_all(sv[1], out);

  const std::vector<serve::Frame> frames = read_frames(sv[1], 3);
  ::shutdown(sv[1], SHUT_WR);  // EOF ends serve_fd
  daemon.join();
  ::close(sv[1]);

  ASSERT_EQ(frames.size(), 3u);
  bool saw_pong = false, saw_verdict = false, saw_stats = false;
  for (const serve::Frame& f : frames) {
    if (f.type == serve::FrameType::kPong) {
      saw_pong = true;
      EXPECT_EQ(f.id, 100u);
      EXPECT_EQ(f.payload, "echo");
    } else if (f.type == serve::FrameType::kVerdict) {
      saw_verdict = true;
      EXPECT_EQ(f.id, 101u);
      EXPECT_EQ(f.payload, "1");  // unparseable ⇒ malicious
      EXPECT_NE(f.flags & serve::kParseFailed, 0);
    } else if (f.type == serve::FrameType::kStatsJson) {
      saw_stats = true;
      EXPECT_EQ(f.id, 102u);
      EXPECT_NE(f.payload.find("serve.requests"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_pong);
  EXPECT_TRUE(saw_verdict);
  EXPECT_TRUE(saw_stats);
}

}  // namespace
}  // namespace jsrev
