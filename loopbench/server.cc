// loopbench_server: the system under test of the loopback benchmark. It
// runs one Engine behind one net::Server on an ephemeral loopback port,
// in a process of its own, so the CPU time and peak RSS it reports are
// the engine's and the server's alone.
//
// It is driven over two channels. The benchmark's load generator speaks
// the binary wire protocol to the printed port; the parent process that
// spawned it talks line commands over stdin/stdout:
//
//   stdout, at start:   port <p>
//   stdin "stats":      stats key=value ...   (process CPU, peak RSS and
//                                              the exact engine/server
//                                              counters, read live)
//   stdin "quit"/EOF:   stops the server and the engine, prints one
//                       final "stats" line (counters rolled over from the
//                       closed sessions) and exits 0.
//
//   loopbench_server [--wal-dir <dir>]
//
// --wal-dir enables the write-ahead log (fsync off, no checkpoints). The
// engine coalesces kEngineBatchRows rows (engine_settings.h).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>

#include "engine/engine.h"
#include "engine_settings.h"
#include "net/server.h"

namespace {

using namespace upa;

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--wal-dir <dir>]\n", argv0);
  return 2;
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Peak RSS of this process image (VmHWM). Not getrusage's ru_maxrss:
/// the parent spawns this program with posix_spawn, whose child shares
/// the parent's memory until exec, and ru_maxrss keeps that peak.
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

void PrintStats(const Engine& engine, const net::Server& server) {
  const EngineMetrics m = engine.Metrics();
  uint64_t results_pos = 0, results_neg = 0, sub_deltas = 0;
  for (const QueryMetrics& q : m.queries) {
    results_pos += q.stats.results_pos;
    results_neg += q.stats.results_neg;
    sub_deltas += q.sub_deltas;
  }
  const net::ServerStats s = server.Stats();
  std::printf(
      "stats cpu_ns=%llu maxrss_kb=%ld results_pos=%llu results_neg=%llu "
      "sub_deltas=%llu wal_records=%llu wal_bytes=%llu bytes_in=%llu "
      "bytes_out=%llu frames_in=%llu frames_out=%llu\n",
      static_cast<unsigned long long>(ProcessCpuNs()), PeakRssKb(),
      static_cast<unsigned long long>(results_pos),
      static_cast<unsigned long long>(results_neg),
      static_cast<unsigned long long>(sub_deltas),
      static_cast<unsigned long long>(m.durability.wal_records),
      static_cast<unsigned long long>(m.durability.wal_bytes),
      static_cast<unsigned long long>(s.bytes_in),
      static_cast<unsigned long long>(s.bytes_out),
      static_cast<unsigned long long>(s.frames_in),
      static_cast<unsigned long long>(s.frames_out));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  EngineOptions opts;
  opts.batch_size = loopbench::kEngineBatchRows;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wal-dir") == 0 && i + 1 < argc) {
      opts.durability.dir = argv[++i];
      opts.durability.fsync = false;
    } else {
      return Usage(argv[0]);
    }
  }

  Engine engine(opts);
  net::Server server(&engine);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "loopbench_server: start failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("port %d\n", server.port());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "stats") {
      PrintStats(engine, server);
    } else if (line == "quit") {
      break;
    } else {
      std::fprintf(stderr, "loopbench_server: unknown command '%s'\n",
                   line.c_str());
    }
  }
  server.Stop();
  engine.Stop();
  PrintStats(engine, server);
  return 0;
}
