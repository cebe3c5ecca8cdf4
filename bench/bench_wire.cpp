// Wire frontend benchmarks (DESIGN.md §15) — one JSONL row per mode for
// BENCH_wire.json / CI schema validation:
//
//   --framing [--duration-ms D]
//       Single-core framing throughput: a captured packet-in stream is
//       replayed through net::Framer + of::wire::decode in 64KB reads,
//       exactly the per-connection receive path of net::OfServer. The loop
//       is pure CPU — it saturates a core on framing alone and reports
//       frames/sec and MB/sec.
//
//   --accept [--connections N] [--wave W]
//       Accept scale: N emulated switches (default 10240) complete the
//       hello/features handshake against a live OfServer, in waves of at
//       most W concurrent connections (default 4096, clamped to the fd
//       limit — both endpoints live in this process, so each loopback
//       connection costs two fds). Reports total accepted, the largest
//       concurrent wave, and accepts/sec.
//
//   --cbench [--connections N] [--rounds R]
//       Closed-loop latency over TCP loopback: the full serve stack
//       (controller on a one-shard runtime + shield + L2 learning app +
//       epoll frontend) measured by net::runCbenchClient. Same row shape
//       as `sdnshield cbench --json`.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "apps/l2_learning.h"
#include "controller/controller.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "net/cbench_client.h"
#include "net/framer.h"
#include "net/of_server.h"
#include "of/packet.h"
#include "of/wire.h"
#include "shard/shard_runtime.h"

namespace {

using namespace sdnshield;
namespace wire = of::wire;

long argValue(int argc, char** argv, const char* name, long fallback) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atol(argv[i + 1]);
  }
  return fallback;
}

bool argFlag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Raises the soft fd limit toward the hard one; returns the resulting cap.
std::size_t raiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1024;
  if (limit.rlim_cur < limit.rlim_max) {
    rlimit raised = limit;
    raised.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &raised);
    ::getrlimit(RLIMIT_NOFILE, &limit);
  }
  return static_cast<std::size_t>(limit.rlim_cur);
}

/// The serve stack behind the benchmarked socket: identical to
/// `sdnshield serve` at its default of one shard — packet-ins hop to the
/// shard loop and policy publishes fence it.
struct ServeStack {
  ctrl::Controller controller;
  shard::ShardRuntime shards;
  iso::ShieldRuntime shield{controller};
  net::OfServer server;

  ServeStack() : server(controller) {
    shards.start();
    shards.attach(controller);
    shards.attachEngine(shield.engine());
    auto app = std::make_shared<apps::L2LearningSwitch>();
    shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));
  }
  ~ServeStack() {
    server.stop();
    shield.shutdown();
    shards.detachEngine(shield.engine());
    shards.detach(controller);
    shards.stop();
  }
};

int runFraming(int argc, char** argv) {
  auto duration =
      std::chrono::milliseconds(argValue(argc, argv, "--duration-ms", 2000));

  // A representative receive stream: the cbench probe packet-in (the frame
  // the server decodes on every round) padded with echoes, ~1MB total so
  // the working set exceeds the framer's 16KB compaction threshold.
  of::Bytes stream;
  of::PacketIn probe;
  probe.inPort = 4;
  probe.packet = of::Packet::makeTcp(
      of::MacAddress::fromUint64(0x040000000001ULL),
      of::MacAddress::fromUint64(0x020000000001ULL),
      of::Ipv4Address(10, 9, 0, 1), of::Ipv4Address(10, 0, 0, 1), 12345, 80,
      of::tcpflags::kSyn);
  of::Bytes probeFrame = wire::encodePacketIn(probe);
  of::Bytes echoFrame = wire::encodeEcho({false, 7, {0xab, 0xcd}});
  while (stream.size() < (1u << 20)) {
    stream.insert(stream.end(), probeFrame.begin(), probeFrame.end());
    stream.insert(stream.end(), echoFrame.begin(), echoFrame.end());
  }

  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + duration;
  net::Framer framer;
  net::Framer::Frame frame;
  constexpr std::size_t kReadChunk = 64 * 1024;
  while (std::chrono::steady_clock::now() < deadline) {
    // One pass over the stream in 64KB "reads", decoding every frame.
    for (std::size_t offset = 0; offset < stream.size();
         offset += kReadChunk) {
      std::size_t n = std::min(kReadChunk, stream.size() - offset);
      framer.append(stream.data() + offset, n);
      while (framer.next(frame) == net::Framer::Status::kFrame) {
        wire::Message message = wire::decode(frame.data, frame.size);
        (void)message;
        ++frames;
      }
    }
    bytes += stream.size();
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double fps = seconds > 0 ? static_cast<double>(frames) / seconds : 0;
  double mbps =
      seconds > 0 ? static_cast<double>(bytes) / (1e6 * seconds) : 0;

  std::printf("framing: %llu frames (%.1f MB) in %.2fs — %.0f frames/sec, "
              "%.1f MB/sec\n",
              static_cast<unsigned long long>(frames),
              static_cast<double>(bytes) / 1e6, seconds, fps, mbps);
  std::printf("{\"bench\": \"wire\", \"mode\": \"framing\", "
              "\"connections\": 1, \"frames\": %llu, \"bytes\": %llu, "
              "\"seconds\": %.3f, \"frames_per_sec\": %.0f, "
              "\"mb_per_sec\": %.1f}\n",
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(bytes), seconds, fps, mbps);
  return 0;
}

int runAccept(int argc, char** argv) {
  std::size_t fdLimit = raiseFdLimit();
  auto total =
      static_cast<std::size_t>(argValue(argc, argv, "--connections", 10240));
  auto wave = static_cast<std::size_t>(argValue(argc, argv, "--wave", 4096));
  // Two fds per loopback connection (client + accepted side), plus listener,
  // epoll/eventfd instances and stdio headroom.
  std::size_t waveCap = fdLimit > 256 ? (fdLimit - 256) / 2 : 64;
  wave = std::min(wave, waveCap);

  ServeStack stack;
  std::string error;
  if (!stack.server.start(&error)) {
    std::fprintf(stderr, "bench_wire --accept: %s\n", error.c_str());
    return 1;
  }

  std::size_t accepted = 0;
  std::size_t concurrentPeak = 0;
  std::size_t waves = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total; ++waves) {
    std::size_t batch = std::min(wave, total - done);
    net::CbenchClientConfig config;
    config.port = stack.server.port();
    config.connections = batch;
    config.handshakeOnly = true;
    config.firstDpid = done + 1;  // Fresh dpids: every wave attaches anew.
    config.connectTimeout = std::chrono::milliseconds(30000);
    net::CbenchClientResult result = net::runCbenchClient(config);
    accepted += result.handshaked;
    concurrentPeak = std::max(concurrentPeak, result.handshaked);
    done += batch;
    if (result.handshaked != batch) {
      std::fprintf(stderr, "bench_wire --accept: wave %zu handshaked %zu/%zu"
                   " (%s)\n", waves, result.handshaked, batch,
                   result.error.c_str());
      break;
    }
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double aps = seconds > 0 ? static_cast<double>(accepted) / seconds : 0;

  std::printf("accept: %zu switches accepted+handshaked in %.2fs across %zu "
              "wave(s) (peak %zu concurrent, fd limit %zu) — %.0f "
              "accepts/sec\n",
              accepted, seconds, waves, concurrentPeak, fdLimit, aps);
  std::printf("{\"bench\": \"wire\", \"mode\": \"accept\", "
              "\"connections\": %zu, \"accepted\": %zu, "
              "\"concurrent_peak\": %zu, \"waves\": %zu, "
              "\"seconds\": %.3f, \"accepts_per_sec\": %.0f}\n",
              total, accepted, concurrentPeak, waves, seconds, aps);
  return accepted == total ? 0 : 1;
}

int runCbench(int argc, char** argv) {
  raiseFdLimit();
  ServeStack stack;
  std::string error;
  if (!stack.server.start(&error)) {
    std::fprintf(stderr, "bench_wire --cbench: %s\n", error.c_str());
    return 1;
  }

  net::CbenchClientConfig config;
  config.port = stack.server.port();
  config.connections =
      static_cast<std::size_t>(argValue(argc, argv, "--connections", 64));
  config.rounds =
      static_cast<std::size_t>(argValue(argc, argv, "--rounds", 20));
  config.roundTimeout = std::chrono::milliseconds(5000);

  auto start = std::chrono::steady_clock::now();
  net::CbenchClientResult result = net::runCbenchClient(config);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double rps = seconds > 0
                   ? static_cast<double>(result.roundsCompleted) / seconds
                   : 0;

  std::printf("cbench: %zu/%zu handshaked, %zu rounds, %zu timeouts — "
              "median=%.1fus p90=%.1fus mean=%.1fus (%.0f responses/sec)\n",
              result.handshaked, config.connections, result.roundsCompleted,
              result.timeouts, result.medianUs(), result.p90Us(),
              result.meanUs(), rps);
  std::printf("{\"bench\": \"wire\", \"mode\": \"cbench\", "
              "\"connections\": %zu, \"rounds\": %zu, \"handshaked\": %zu, "
              "\"timeouts\": %zu, \"latency_median_us\": %.3f, "
              "\"latency_p90_us\": %.3f, \"latency_mean_us\": %.3f, "
              "\"responses_per_sec\": %.1f, \"flow_mods\": %llu}\n",
              config.connections, config.rounds, result.handshaked,
              result.timeouts, result.medianUs(), result.p90Us(),
              result.meanUs(), rps,
              static_cast<unsigned long long>(result.flowModsReceived));
  if (!result.ok) {
    std::fprintf(stderr, "bench_wire --cbench: %s\n", result.error.c_str());
  }
  return result.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argFlag(argc, argv, "--framing")) return runFraming(argc, argv);
  if (argFlag(argc, argv, "--accept")) return runAccept(argc, argv);
  if (argFlag(argc, argv, "--cbench")) return runCbench(argc, argv);
  std::fprintf(stderr,
               "usage: bench_wire --framing [--duration-ms D]\n"
               "       bench_wire --accept  [--connections N] [--wave W]\n"
               "       bench_wire --cbench  [--connections N] [--rounds R]\n");
  return 2;
}
