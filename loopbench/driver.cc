// loopbench_driver: the load generator and layer tracer of the loopback
// benchmark (see README.md in this directory for the workloads, the
// metrics and how to read them).
//
// One process, one thread, one net::Client connection. It spawns
// loopbench_server (Engine + net::Server in a process of its own), drives
// a seeded LBL trace slice through it in rounds (a round is IngestBatch +
// Flush; Flush returning means every subscription mirror holds the
// barrier-time view), and checks at the end that every mirror equals its
// query's Snapshot RPC and a ReferenceEvaluator fed the same trace.
//
//   loopbench_driver --workload <probe_join|fanout_wal|q1_open>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --server <path to loopbench_server> --work-dir <dir>
//                    [--setups <k>]
//
// --trace 0 prints the end-to-end metrics of one loopback run. --trace 1
// additionally runs the workload single-threaded through BuildPipeline +
// ReplayTrace, in-process through Engine::Ingest/Flush, and a second
// loopback run with client-side spans, and prints the per-layer metrics.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; lines starting with "counts" are exact and repeat
// bit-for-bit for one seed. Exit status 1 when any check failed.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "core/partition.h"
#include "core/physical_planner.h"
#include "engine/engine.h"
#include "engine_settings.h"
#include "exec/replay.h"
#include "net/client.h"
#include "net/protocol.h"
#include "ref/reference.h"
#include "sql/catalog.h"
#include "workload/lbl_generator.h"

extern char** environ;

namespace {

using namespace upa;
using Clock = std::chrono::steady_clock;
using Batch = std::vector<std::pair<uint32_t, Tuple>>;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ms(Clock::duration d) { return Seconds(d) * 1e3; }

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

/// Nearest-rank percentile of `v` (copied, so callers keep their order).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// A result as a sorted multiset of field vectors (timestamps and
/// expiration stamps are not part of the answer).
using Rows = std::vector<std::vector<Value>>;

Rows Canonical(const std::vector<Tuple>& rows) {
  Rows out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.fields);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

struct QuerySpec {
  const char* name;
  const char* sql;
  int shards;
};

struct WorkloadSpec {
  const char* name;
  std::vector<QuerySpec> queries;
  size_t round_tuples;  ///< Tuples per IngestBatch + Flush round.
  /// Closed loop: the rate the timed slice is sized for (slice = rate x
  /// seconds); open loop: the fixed send rate.
  double ktps;
  bool open_loop;
  bool wal;
  Time warmup_span;  ///< First window span, ingested untimed.
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = {
      {"probe_join",
       {{"probe",
         "SELECT link0.src_ip FROM link0 [RANGE 5000], link1 [RANGE 5000] "
         "WHERE link0.payload = link1.payload",
         2}},
       256, 70.0, false, false, 5000},
      {"fanout_wal",
       {{"mono", "SELECT src_ip FROM link0 WHERE protocol = 1", 1},
        {"wks", "SELECT src_ip FROM link0 [RANGE 800] WHERE protocol = 2",
         1},
        {"wk", "SELECT DISTINCT src_ip FROM link0 [RANGE 800]", 1},
        {"str",
         "SELECT src_ip FROM link0 [RANGE 800] EXCEPT "
         "SELECT src_ip FROM link1 [RANGE 800]",
         1}},
       256, 100.0, false, true, 800},
      {"q1_open",
       {{"q1",
         "SELECT link0.src_ip FROM link0 [RANGE 2000], link1 [RANGE 2000] "
         "WHERE link0.src_ip = link1.src_ip AND link0.protocol = 2 AND "
         "link1.protocol = 2",
         1}},
       64, 10.0, true, false, 2000},
  };
  for (const WorkloadSpec& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// The seeded input of one run, generated before anything is timed: the
/// rounds of the warm-up (the first window span) followed by the rounds
/// of the timed slice. Tuples carry the trace's link index as stream id,
/// which is also the id a fresh server and a fresh catalog assign.
struct Input {
  std::vector<Batch> rounds;
  size_t warm_rounds = 0;
  uint64_t warm_tuples = 0;
  uint64_t timed_tuples = 0;
  Time last_ts = 0;

  uint64_t total_tuples() const { return warm_tuples + timed_tuples; }
};

Input MakeInput(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  const int links = 2;
  const size_t timed_rounds = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(spec.ktps * 1000.0 * seconds /
                                       spec.round_tuples)));
  const uint64_t timed = timed_rounds * spec.round_tuples;
  const uint64_t warm = static_cast<uint64_t>(spec.warmup_span) * links;
  LblTraceConfig cfg;
  cfg.seed = seed;
  cfg.num_links = links;
  cfg.duration = static_cast<Time>((warm + timed) / links);
  Trace trace = GenerateLblTrace(cfg);

  Input in;
  in.warm_tuples = warm;
  in.timed_tuples = timed;
  in.last_ts = trace.LastTs();
  // Rounds never split a timestamp (round sizes are multiples of the link
  // count), so every barrier sits on a Definition 1 boundary.
  size_t i = 0;
  const auto cut = [&](uint64_t n) {
    while (n > 0) {
      const size_t take = std::min<uint64_t>(n, spec.round_tuples);
      Batch b;
      b.reserve(take);
      for (size_t k = 0; k < take; ++k, ++i) {
        TraceEvent& e = trace.events[i];
        b.emplace_back(static_cast<uint32_t>(e.stream), std::move(e.tuple));
      }
      in.rounds.push_back(std::move(b));
      n -= take;
    }
  };
  cut(warm);
  in.warm_rounds = in.rounds.size();
  cut(timed);
  return in;
}

// ---------------------------------------------------------------------------
// Oracle: ReferenceEvaluator per query, fed the run's whole trace prefix.

/// Canonical rows of each query at the end of the trace.
using Expected = std::vector<Rows>;

bool ComputeExpected(const WorkloadSpec& spec, const Input& in, Expected* out,
                     std::string* err) {
  SourceCatalog catalog;
  catalog.DeclareStream("link0", LblSchema());
  catalog.DeclareStream("link1", LblSchema());
  for (const QuerySpec& q : spec.queries) {
    ParseResult p = catalog.Compile(q.sql);
    if (!p.ok()) {
      *err = std::string("oracle compile ") + q.name + ": " + p.error;
      return false;
    }
    // A time-windowed stream can only influence the answer at the last
    // timestamp through tuples inside its window, so the oracle gets
    // each stream from its recovery horizon on (the whole prefix for
    // unwindowed streams) -- the same answer as the full prefix.
    const std::map<int, Time> horizons = StreamRecoveryHorizons(*p.plan);
    ReferenceEvaluator ref(p.plan.get());
    for (const Batch& b : in.rounds) {
      for (const auto& [stream, t] : b) {
        auto h = horizons.find(static_cast<int>(stream));
        if (h == horizons.end()) continue;
        if (h->second != kNeverExpires && t.ts <= in.last_ts - h->second) {
          continue;
        }
        ref.Observe(static_cast<int>(stream), t);
      }
    }
    out->push_back(Canonical(ref.EvalAt(in.last_ts)));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Operation accounting: every client call and every result check is one
// attempted operation; a call returning false or a failed check is one
// failed operation.

struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Count(bool ok, const char* what, const std::string& detail = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s%s%s\n", what, detail.empty() ? "" : ": ",
                   detail.c_str());
    }
    return ok;
  }
};

// ---------------------------------------------------------------------------
// The server process.

using Stats = std::map<std::string, uint64_t>;

uint64_t Get(const Stats& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0 : it->second;
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  /// Spawns `path args...` with the UPA_* environment stripped (the
  /// benchmark pins every engine knob itself) and reads its port line.
  bool Launch(const std::string& path, const std::vector<std::string>& args,
              std::string* err) {
    // Close-on-exec pipes: the child keeps only the ends dup2'd onto its
    // stdin and stdout.
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) {
      *err = std::strerror(errno);
      return false;
    }
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      *err = std::strerror(errno);
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, from_child[1], STDOUT_FILENO);
    std::vector<std::string> argv_s{path};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv_p;
    for (std::string& a : argv_s) argv_p.push_back(a.data());
    argv_p.push_back(nullptr);
    std::vector<char*> env_p;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "UPA_", 4) != 0) env_p.push_back(*e);
    }
    env_p.push_back(nullptr);
    const int rc = posix_spawn(&pid_, path.c_str(), &fa, nullptr,
                               argv_p.data(), env_p.data());
    posix_spawn_file_actions_destroy(&fa);
    close(to_child[0]);
    close(from_child[1]);
    if (rc != 0) {
      *err = "spawn " + path + ": " + std::strerror(rc);
      pid_ = -1;
      close(to_child[1]);
      close(from_child[0]);
      return false;
    }
    in_fd_ = to_child[1];
    out_ = fdopen(from_child[0], "r");
    std::string line;
    if (!ReadLine(&line) || std::sscanf(line.c_str(), "port %d", &port_) != 1) {
      *err = "server did not report its port";
      return false;
    }
    return true;
  }

  int port() const { return port_; }

  /// Live counters (CPU, peak RSS, engine and server totals).
  bool Sample(Stats* out) { return Send("stats\n") && ReadStats(out); }

  /// Stops the server and returns its final counters.
  bool Quit(Stats* out) {
    const bool ok = Send("quit\n") && ReadStats(out);
    Reap();
    return ok;
  }

 private:
  bool Send(const char* cmd) {
    const size_t n = std::strlen(cmd);
    return in_fd_ >= 0 && write(in_fd_, cmd, n) == static_cast<ssize_t>(n);
  }

  bool ReadLine(std::string* line) {
    char buf[1024];
    if (out_ == nullptr || std::fgets(buf, sizeof(buf), out_) == nullptr) {
      return false;
    }
    *line = buf;
    return true;
  }

  bool ReadStats(Stats* out) {
    std::string line;
    if (!ReadLine(&line) || line.rfind("stats ", 0) != 0) return false;
    out->clear();
    size_t pos = 6;
    while (pos < line.size()) {
      const size_t end = line.find_first_of(" \n", pos);
      const std::string tok = line.substr(pos, end - pos);
      const size_t eq = tok.find('=');
      if (eq != std::string::npos) {
        (*out)[tok.substr(0, eq)] = std::strtoull(tok.c_str() + eq + 1,
                                                  nullptr, 10);
      }
      if (end == std::string::npos) break;
      pos = end + 1;
    }
    return true;
  }

  void Reap() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
    if (out_ != nullptr) std::fclose(out_);
    out_ = nullptr;
    if (pid_ > 0) {
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }

  void Kill() {
    if (pid_ > 0) kill(pid_, SIGKILL);
    Reap();
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  FILE* out_ = nullptr;
  int port_ = -1;
};

// ---------------------------------------------------------------------------
// Loopback sessions.

struct Config {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 1;
  bool trace = false;
  int setups = 15;
  std::string server;
  std::string work_dir;
};

struct Session {
  ServerProcess server;
  net::Client client;
  std::vector<net::SubscriptionMirror*> mirrors;
  std::string wal_dir;
  double setup_s = 0;
  double register_ms = 0;
  double subscribe_ms = 0;
  double warmup_s = 0;
};

/// A new directory name under the (cleared) work directory.
std::string FreshDir(const Config& cfg, const char* tag) {
  static int serial = 0;
  return (std::filesystem::path(cfg.work_dir) /
          (std::string(tag) + "-" + std::to_string(serial++)))
      .string();
}

/// Launch, connect, declare, register, subscribe and warm up. setup_s
/// runs from the launch to the end of the warm-up.
bool OpenSession(const Config& cfg, const Input& in, Session* s, Ops* ops) {
  const WorkloadSpec& spec = *cfg.spec;
  std::vector<std::string> args;
  if (spec.wal) {
    s->wal_dir = FreshDir(cfg, "wal");
    args.push_back("--wal-dir");
    args.push_back(s->wal_dir);
  }
  std::string err;
  const Clock::time_point t0 = Clock::now();
  if (!ops->Count(s->server.Launch(cfg.server, args, &err), "launch", err)) {
    return false;
  }
  if (!ops->Count(s->client.Connect("127.0.0.1", s->server.port(), &err),
                  "connect", err)) {
    return false;
  }
  // The rounds carry the link index as stream id; a fresh server must
  // assign the same ids.
  for (int64_t link : {0, 1}) {
    const int64_t id = s->client.DeclareStream(
        "link" + std::to_string(link), LblSchema(), &err);
    if (!ops->Count(id == link, "declare", err)) return false;
  }
  const Clock::time_point t1 = Clock::now();
  for (const QuerySpec& q : spec.queries) {
    net::ClientQueryInfo info;
    if (!ops->Count(s->client.RegisterQuery(q.name, q.sql, q.shards, &info,
                                            &err),
                    "register", err)) {
      return false;
    }
  }
  const Clock::time_point t2 = Clock::now();
  for (const QuerySpec& q : spec.queries) {
    net::SubscriptionMirror* m = s->client.Subscribe(q.name, &err);
    if (!ops->Count(m != nullptr, "subscribe", err)) return false;
    s->mirrors.push_back(m);
  }
  const Clock::time_point t3 = Clock::now();
  for (size_t r = 0; r < in.warm_rounds; ++r) {
    if (!ops->Count(s->client.IngestBatch(in.rounds[r], &err), "ingest",
                    err) ||
        !ops->Count(s->client.Flush(&err), "flush", err)) {
      return false;
    }
  }
  const Clock::time_point t4 = Clock::now();
  s->register_ms = Ms(t2 - t1);
  s->subscribe_ms = Ms(t3 - t2);
  s->warmup_s = Seconds(t4 - t3);
  s->setup_s = Seconds(t4 - t0);
  return true;
}

void CloseSession(Session* s, Stats* final_stats) {
  s->client.Close();
  Stats ignored;
  s->server.Quit(final_stats != nullptr ? final_stats : &ignored);
  if (!s->wal_dir.empty()) std::filesystem::remove_all(s->wal_dir);
}

/// Mirror == Snapshot RPC == oracle for every query, plus the Section 5.2
/// pin that only STR subscriptions ever carry negative tuples.
void CheckSession(const WorkloadSpec& spec, const Input& in,
                  const Expected& want, Session* s, Ops* ops) {
  for (size_t q = 0; q < spec.queries.size(); ++q) {
    const char* name = spec.queries[q].name;
    std::vector<Tuple> snap;
    Time at = 0;
    std::string err;
    if (!ops->Count(s->client.Snapshot(name, &snap, &at, &err), "snapshot",
                    err)) {
      continue;
    }
    const auto mirror = Canonical(s->mirrors[q]->Rows());
    const auto snapshot = Canonical(snap);
    ops->Count(at == in.last_ts && mirror == snapshot && snapshot == want[q],
               "result check",
               std::string(name) + ": mirror " + std::to_string(mirror.size()) +
                   " rows, snapshot " + std::to_string(snapshot.size()) +
                   " rows at t=" + std::to_string(at) + ", oracle " +
                   std::to_string(want[q].size()) + " rows at t=" +
                   std::to_string(in.last_ts));
    const UpdatePattern p = s->mirrors[q]->pattern();
    ops->Count(p == UpdatePattern::kStrict ||
                   s->mirrors[q]->negatives_applied() == 0,
               "pattern check", name);
  }
}

/// One tenth of the timed slice. End-to-end figures are the mean of the
/// segment values without the kTrimmed highest and kTrimmed lowest ones:
/// an interference burst that hits one or two segments of a run does not
/// move them, and where the segments drift because state grows through
/// the slice (fanout_wal), they still average most of the run's time,
/// where a median would rest on a single segment.
constexpr size_t kSegments = 10;
constexpr size_t kTrimmed = 2;

double TrimmedMean(std::vector<double> v, size_t trim) {
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (size_t i = trim; i + trim < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

struct Segment {
  double wall_s = 0;
  double ktuples = 0;
  double client_cpu_ms = 0;
  double server_cpu_ms = 0;
  double lat_p50_ms = 0;
  double lat_p90_ms = 0;
};

/// What one timed loopback slice measured.
struct LoopResult {
  std::vector<Segment> segments;
  double wall_s = 0;  ///< Sums over the segments.
  double client_cpu_ms = 0;
  double server_cpu_ms = 0;
  std::vector<double> latency_ms;   ///< Per round.
  std::vector<double> lateness_ms;  ///< Open loop: send - due, per round.
  std::vector<double> ingest_ms;    ///< Traced: IngestBatch call spans.
  std::vector<double> flush_ms;     ///< Traced: Flush call spans.
  Stats before, after;              ///< Server counters around the slice.
  Stats final_stats;                ///< After shutdown (exact counts).
  double peak_rss_mb = 0;
  std::vector<double> setup_s, register_ms, subscribe_ms, warmup_s;
};

/// An open loop has a growing backlog when the generator is, in the
/// median over the last quarter of the batches, more than four batches
/// further behind its schedule than in the median over the first
/// quarter: the system does not keep up with the offered rate. A stall
/// that delays fewer than half of the last quarter's batches does not
/// trip it.
bool BacklogGrows(const std::vector<double>& lateness_ms, double period_ms) {
  const size_t n = lateness_ms.size();
  const size_t q = std::max<size_t>(1, n / 4);
  const auto backlog = [&](size_t from) {
    std::vector<double> b;
    for (size_t i = from; i < from + q; ++i) {
      b.push_back(std::floor(lateness_ms[i] / period_ms));
    }
    return Median(b);
  };
  return backlog(n - q) > backlog(0) + 4.0;
}

/// Runs `cfg.setups` set-ups (the last one kept), the timed slice, the
/// result checks and the shutdown.
LoopResult RunLoopback(const Config& cfg, const Input& in, const Expected& want,
                       bool traced, int setups, Ops* ops) {
  const WorkloadSpec& spec = *cfg.spec;
  LoopResult res;
  std::unique_ptr<Session> s;
  for (int k = 0; k < setups; ++k) {
    if (s != nullptr) CloseSession(s.get(), nullptr);
    s = std::make_unique<Session>();
    if (!OpenSession(cfg, in, s.get(), ops)) {
      CloseSession(s.get(), nullptr);
      return res;
    }
    res.setup_s.push_back(s->setup_s);
    res.register_ms.push_back(s->register_ms);
    res.subscribe_ms.push_back(s->subscribe_ms);
    res.warmup_s.push_back(s->warmup_s);
  }

  const size_t n = in.rounds.size() - in.warm_rounds;
  res.latency_ms.reserve(n);
  if (traced) {
    res.ingest_ms.reserve(n);
    res.flush_ms.reserve(n);
  }
  const double period_ns = spec.round_tuples / (spec.ktps * 1000.0) * 1e9;
  std::string err;
  bool ok = ops->Count(s->server.Sample(&res.before), "server stats");
  Stats seg_stats = res.before;
  const Clock::time_point start = Clock::now();
  for (size_t seg = 0; ok && seg < kSegments; ++seg) {
    const size_t begin = seg * n / kSegments;
    const size_t end = (seg + 1) * n / kSegments;
    const uint64_t cpu0 = ProcessCpuNs();
    uint64_t wait_cpu_ns = 0;  // Spent spinning until batches were due.
    const Clock::time_point seg_start = Clock::now();
    for (size_t k = begin; ok && k < end; ++k) {
      const Batch& round = in.rounds[in.warm_rounds + k];
      Clock::time_point t0;
      if (spec.open_loop) {
        const Clock::time_point due =
            start +
            std::chrono::nanoseconds(static_cast<int64_t>(k * period_ns));
        // Spin rather than sleep: waking a sleeping generator is late by
        // the host's wake-up latency, which would be charged to the system
        // as queueing delay. The spin's CPU time is not the generator's
        // work and is left out of client_cpu_ms.
        const uint64_t spin0 = ThreadCpuNs();
        while (Clock::now() < due) {
        }
        wait_cpu_ns += ThreadCpuNs() - spin0;
        res.lateness_ms.push_back(Ms(Clock::now() - due));
        t0 = due;  // Latency is timed from the due time.
      } else {
        t0 = Clock::now();
      }
      const Clock::time_point c0 = traced ? Clock::now() : t0;
      ok = ops->Count(s->client.IngestBatch(round, &err), "ingest", err);
      const Clock::time_point c1 = traced ? Clock::now() : t0;
      ok = ok && ops->Count(s->client.Flush(&err), "flush", err);
      const Clock::time_point t1 = Clock::now();
      res.latency_ms.push_back(Ms(t1 - t0));
      if (traced) {
        res.ingest_ms.push_back(Ms(c1 - c0));
        res.flush_ms.push_back(Ms(t1 - c1));
      }
    }
    // Segment figures; the server is sampled between segments, outside
    // the timed rounds.
    Segment sg;
    sg.wall_s = Seconds(Clock::now() - seg_start);
    sg.client_cpu_ms = (ProcessCpuNs() - cpu0 - wait_cpu_ns) / 1e6;
    const Stats prev = seg_stats;
    ok = ops->Count(s->server.Sample(&seg_stats), "server stats") && ok;
    sg.server_cpu_ms = (static_cast<double>(Get(seg_stats, "cpu_ns")) -
                        Get(prev, "cpu_ns")) / 1e6;
    sg.ktuples = (end - begin) * spec.round_tuples / 1000.0;
    const std::vector<double> lat(res.latency_ms.begin() + begin,
                                  res.latency_ms.end());
    sg.lat_p50_ms = Percentile(lat, 50);
    sg.lat_p90_ms = Percentile(lat, 90);
    res.segments.push_back(sg);
    res.wall_s += sg.wall_s;
    res.client_cpu_ms += sg.client_cpu_ms;
    res.server_cpu_ms += sg.server_cpu_ms;
  }
  res.after = seg_stats;
  if (ok && spec.open_loop) {
    ok = ops->Count(!BacklogGrows(res.lateness_ms, period_ns / 1e6),
                    "backlog check", "generator fell behind its schedule");
  }
  if (ok) CheckSession(spec, in, want, s.get(), ops);
  CloseSession(s.get(), &res.final_stats);
  ops->Count(!res.final_stats.empty(), "server shutdown");
  res.peak_rss_mb = Get(res.final_stats, "maxrss_kb") / 1024.0;
  return res;
}

void PrintCounts(const char* stage, const Config& cfg, const Input& in,
                 const Stats& s) {
  std::printf(
      "counts stage=%s workload=%s seed=%llu tuples=%llu results_pos=%llu "
      "results_neg=%llu sub_deltas=%llu wal_records=%llu bytes_in=%llu "
      "bytes_out=%llu frames_in=%llu frames_out=%llu\n",
      stage, cfg.spec->name, static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(in.total_tuples()),
      static_cast<unsigned long long>(Get(s, "results_pos")),
      static_cast<unsigned long long>(Get(s, "results_neg")),
      static_cast<unsigned long long>(Get(s, "sub_deltas")),
      static_cast<unsigned long long>(Get(s, "wal_records")),
      static_cast<unsigned long long>(Get(s, "bytes_in")),
      static_cast<unsigned long long>(Get(s, "bytes_out")),
      static_cast<unsigned long long>(Get(s, "frames_in")),
      static_cast<unsigned long long>(Get(s, "frames_out")));
}

// ---------------------------------------------------------------------------
// Traced layers.

/// Single-threaded baseline: the engine's shard replicas of every query,
/// each built with BuildPipeline and fed by ReplayTrace (warm-up, then
/// the timed slice) one after another on this thread, profiled for the
/// paper's Section 6.1 processing / insertion / expiration split. The
/// tuples are split across replicas by the engine's rule (hash of the
/// partition column modulo the shard count), so the replicas do the
/// same work as the engine's shard threads.
struct PipelineResult {
  double wall_s = 0;
  obs::PhaseBreakdown phases;
  size_t max_state_bytes = 0;
  size_t max_state_tuples = 0;
  uint64_t results_pos = 0;
  uint64_t results_neg = 0;
};

PipelineResult RunPipelines(const WorkloadSpec& spec, const Input& in,
                            const Expected& want, Ops* ops) {
  PipelineResult res;
  SourceCatalog catalog;
  catalog.DeclareStream("link0", LblSchema());
  catalog.DeclareStream("link1", LblSchema());
  for (size_t q = 0; q < spec.queries.size(); ++q) {
    ParseResult p = catalog.Compile(spec.queries[q].sql);
    if (!ops->Count(p.ok(), "pipeline compile", p.error)) continue;
    const PartitionScheme scheme = AnalyzePartitionability(*p.plan);
    const size_t shards =
        scheme.partitionable ? static_cast<size_t>(spec.queries[q].shards)
                             : 1;
    std::vector<Trace> warm(shards), timed(shards);
    for (size_t r = 0; r < in.rounds.size(); ++r) {
      for (const auto& [stream, t] : in.rounds[r]) {
        const int id = static_cast<int>(stream);
        size_t shard = 0;
        if (shards > 1) {
          auto col = scheme.stream_key_cols.find(id);
          if (col == scheme.stream_key_cols.end()) continue;
          shard = HashValue(t.fields[static_cast<size_t>(col->second)]) %
                  shards;
        }
        (r < in.warm_rounds ? warm : timed)[shard].events.push_back({id, t});
      }
    }
    std::vector<Tuple> rows;
    for (size_t sh = 0; sh < shards; ++sh) {
      auto pipeline = BuildPipeline(*p.plan, ExecMode::kUpa);
      pipeline->EnableProfiling();
      const ReplayMetrics m0 = ReplayTrace(warm[sh], pipeline.get());
      const ReplayMetrics m1 = ReplayTrace(timed[sh], pipeline.get());
      res.wall_s += m1.wall_seconds;
      res.phases.processing_ns +=
          m1.profile.phases.processing_ns - m0.profile.phases.processing_ns;
      res.phases.insertion_ns +=
          m1.profile.phases.insertion_ns - m0.profile.phases.insertion_ns;
      res.phases.expiration_ns +=
          m1.profile.phases.expiration_ns - m0.profile.phases.expiration_ns;
      res.max_state_bytes += m1.max_state_bytes;
      res.max_state_tuples += m1.max_state_tuples;
      res.results_pos += m1.stats.results_pos - m0.stats.results_pos;
      res.results_neg += m1.stats.results_neg - m0.stats.results_neg;
      // A replica that saw nothing in the last timestamps has not ticked
      // to the end of the trace.
      pipeline->Tick(in.last_ts);
      for (Tuple& t : pipeline->view().Snapshot()) rows.push_back(std::move(t));
    }
    ops->Count(Canonical(rows) == want[q], "pipeline result check",
               spec.queries[q].name);
  }
  return res;
}

/// The same rounds in-process through Engine::Ingest / Engine::Flush,
/// with the server's engine options and a counting subscriber per query.
struct EngineResult {
  double busy_s = 0;
  double cpu_ms = 0;  ///< Process CPU over the timed slice.
  double ingest_ns = 0;
  std::vector<double> flush_ms;
  std::vector<double> queue_depth;  ///< Sampled per round, before Flush.
  double state_bytes_max = 0;
  uint64_t wal_records = 0, wal_bytes = 0, sub_deltas = 0;  ///< Timed slice.
};

struct EngineTotals {
  uint64_t queue_depth = 0, state_bytes = 0, sub_deltas = 0;
  uint64_t results_pos = 0, results_neg = 0, wal_records = 0, wal_bytes = 0;
};

EngineTotals Sum(const EngineMetrics& m) {
  EngineTotals t;
  for (const QueryMetrics& q : m.queries) {
    t.queue_depth += q.queue_depth;
    t.state_bytes += q.state_bytes;
    t.sub_deltas += q.sub_deltas;
    t.results_pos += q.stats.results_pos;
    t.results_neg += q.stats.results_neg;
  }
  t.wal_records = m.durability.wal_records;
  t.wal_bytes = m.durability.wal_bytes;
  return t;
}

EngineResult RunEngine(const Config& cfg, const Input& in,
                       const Expected& want, Ops* ops) {
  const WorkloadSpec& spec = *cfg.spec;
  EngineResult res;
  EngineOptions eo;
  eo.batch_size = loopbench::kEngineBatchRows;
  std::string wal_dir;
  if (spec.wal) {
    wal_dir = FreshDir(cfg, "engine-wal");
    eo.durability.dir = wal_dir;
    eo.durability.fsync = false;
  }
  {
    // Shard threads of different queries deliver concurrently. Declared
    // before the engine, so it outlives every callback.
    std::atomic<uint64_t> delivered{0};
    Engine engine(eo);
    ops->Count(engine.DeclareStream("link0", LblSchema()) == 0 &&
                   engine.DeclareStream("link1", LblSchema()) == 1,
               "engine declare");
    for (const QuerySpec& q : spec.queries) {
      QueryOptions qo;
      qo.shards = q.shards;
      const RegisterResult r = engine.RegisterSql(q.name, q.sql, qo);
      ops->Count(r.ok, "engine register", r.error);
      SubscriptionInfo info;
      ops->Count(engine.Subscribe(
                     q.name,
                     [&delivered](const SubscriptionEvent& ev) {
                       if (ev.kind == SubscriptionEvent::Kind::kDelta) {
                         delivered.fetch_add(1, std::memory_order_relaxed);
                       }
                     },
                     &info),
                 "engine subscribe");
    }
    for (size_t r = 0; r < in.warm_rounds; ++r) {
      for (const auto& [stream, t] : in.rounds[r]) {
        engine.Ingest(static_cast<int>(stream), t);
      }
      ops->Count(engine.Flush(), "engine flush");
    }
    const EngineTotals warm = Sum(engine.Metrics());
    res.flush_ms.reserve(in.rounds.size() - in.warm_rounds);
    double ingest_s = 0;
    double sampling_cpu_ns = 0;  // This thread's Metrics() sampling.
    const uint64_t cpu0 = ProcessCpuNs();
    for (size_t r = in.warm_rounds; r < in.rounds.size(); ++r) {
      const Batch& round = in.rounds[r];
      const Clock::time_point t0 = Clock::now();
      for (const auto& [stream, t] : round) {
        engine.Ingest(static_cast<int>(stream), t);
      }
      const Clock::time_point t1 = Clock::now();
      // Routes the coalesced round into the shard queues (the clock does
      // not move, so nothing else happens), so that the queue depth
      // below is the backlog the barrier has to work off.
      engine.AdvanceTo(round.back().second.ts);
      const Clock::time_point t2 = Clock::now();
      const uint64_t sample0 = ThreadCpuNs();
      const EngineTotals now = Sum(engine.Metrics());
      res.queue_depth.push_back(static_cast<double>(now.queue_depth));
      res.state_bytes_max = std::max(res.state_bytes_max,
                                     static_cast<double>(now.state_bytes));
      sampling_cpu_ns += static_cast<double>(ThreadCpuNs() - sample0);
      const Clock::time_point t3 = Clock::now();
      ops->Count(engine.Flush(), "engine flush");
      const Clock::time_point t4 = Clock::now();
      ingest_s += Seconds(t1 - t0);
      res.flush_ms.push_back(Ms((t2 - t1) + (t4 - t3)));
      res.busy_s += Seconds((t2 - t0) + (t4 - t3));
    }
    res.cpu_ms = (ProcessCpuNs() - cpu0 - sampling_cpu_ns) / 1e6;
    res.ingest_ns = ingest_s * 1e9;
    const EngineMetrics end_metrics = engine.Metrics();
    const EngineTotals end = Sum(end_metrics);
    // One round puts at most one item into each shard queue, and the
    // barrier drains them, so the samples stay between 0 and the number
    // of shard queues. A last quarter above the first by more than that
    // means the barrier stopped draining them: a failed run, not a
    // latency figure.
    double shard_queues = 0;
    for (const QueryMetrics& q : end_metrics.queries) shard_queues += q.shards;
    const auto& d = res.queue_depth;
    const size_t quarter = std::max<size_t>(1, d.size() / 4);
    double first = 0, last = 0;
    for (size_t i = 0; i < quarter && i < d.size(); ++i) {
      first += d[i] / quarter;
      last += d[d.size() - 1 - i] / quarter;
    }
    ops->Count(last <= first + shard_queues, "engine backlog check",
               "shard queues grew over the run");
    res.state_bytes_max =
        std::max(res.state_bytes_max, static_cast<double>(end.state_bytes));
    res.wal_records = end.wal_records - warm.wal_records;
    res.wal_bytes = end.wal_bytes - warm.wal_bytes;
    res.sub_deltas = end.sub_deltas - warm.sub_deltas;
    for (size_t q = 0; q < spec.queries.size(); ++q) {
      std::vector<Tuple> rows;
      const bool ok = engine.Snapshot(spec.queries[q].name, &rows);
      ops->Count(ok && Canonical(rows) == want[q], "engine result check",
                 spec.queries[q].name);
    }
    engine.Stop();
    std::printf(
        "counts stage=engine workload=%s seed=%llu tuples=%llu "
        "results_pos=%llu results_neg=%llu sub_deltas=%llu delivered=%llu "
        "wal_records=%llu wal_bytes=%llu\n",
        spec.name, static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(in.total_tuples()),
        static_cast<unsigned long long>(end.results_pos),
        static_cast<unsigned long long>(end.results_neg),
        static_cast<unsigned long long>(end.sub_deltas),
        static_cast<unsigned long long>(delivered.load()),
        static_cast<unsigned long long>(end.wal_records),
        static_cast<unsigned long long>(end.wal_bytes));
  }
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  return res;
}

/// EncodeFrame + DecodeFrame of the timed rounds as kIngestBatch frames.
double CodecNsPerTuple(const Input& in, Ops* ops) {
  double ns = 0;
  bool ok = true;
  for (size_t r = in.warm_rounds; r < in.rounds.size(); ++r) {
    net::Message m;
    m.type = net::MsgType::kIngestBatch;
    m.req_id = r + 1;
    m.batch = in.rounds[r];
    net::Message back;
    size_t consumed = 0;
    const Clock::time_point t0 = Clock::now();
    const std::string frame = net::EncodeFrame(m);
    const net::DecodeStatus st =
        net::DecodeFrame(frame.data(), frame.size(), &back, &consumed);
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ok = ok && st == net::DecodeStatus::kOk &&
         back.batch.size() == m.batch.size();
  }
  ops->Count(ok, "codec round trip");
  return ns / static_cast<double>(in.timed_tuples);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const Ops& ops, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ops.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <probe_join|fanout_wal|q1_open> "
               "--seed <n> --seconds <s> --trace <0|1> --server <path> "
               "--work-dir <dir> [--setups <k>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.spec = FindWorkload(v);
      if (cfg.spec == nullptr) return Usage(argv[0]);
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(cfg.seconds > 0)) return Usage(argv[0]);
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage(argv[0]);
      }
      cfg.trace = v[0] == '1';
    } else if (arg == "--server") {
      cfg.server = v;
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else if (arg == "--setups") {
      cfg.setups = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || cfg.setups < 1) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (cfg.spec == nullptr || cfg.server.empty() || cfg.work_dir.empty()) {
    return Usage(argv[0]);
  }
  // The work directory holds only this program's WAL directories; clear
  // what an interrupted run left behind.
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  const WorkloadSpec& spec = *cfg.spec;

  // A traced run has four stages (pipeline, engine and two loopback runs),
  // so it measures half the slice, to end within the time a run may take.
  Input in = MakeInput(spec, cfg.seed,
                       cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  Expected want;
  std::string err;
  Ops ops;
  if (!ops.Count(ComputeExpected(spec, in, &want, &err), "oracle", err)) {
    PrintResult(ops, {});
    return 1;
  }
  const double ktuples = in.timed_tuples / 1000.0;
  std::printf("# workload=%s seed=%llu warm-up=%llu tuples timed=%llu tuples "
              "in %zu rounds of %zu\n",
              spec.name, static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(in.warm_tuples),
              static_cast<unsigned long long>(in.timed_tuples),
              in.rounds.size() - in.warm_rounds, spec.round_tuples);

  LoopResult loop = RunLoopback(cfg, in, want, false, cfg.setups, &ops);
  PrintCounts("loopback", cfg, in, loop.final_stats);
  const auto seg_mean = [&loop](double (*f)(const Segment&)) {
    std::vector<double> v;
    for (const Segment& sg : loop.segments) v.push_back(f(sg));
    return TrimmedMean(std::move(v), kTrimmed);
  };
  const size_t per_segment = loop.latency_ms.size() / kSegments;
  std::printf("# round latency: p50/p90 are means of the middle %zu of %zu "
              "segment values; segments of %zu rounds (%zu rounds beyond "
              "each segment's p90)\n",
              kSegments - 2 * kTrimmed, kSegments, per_segment,
              per_segment / 10);
  std::printf("# segments (ktuple/s, server ms/ktuple, client ms/ktuple, "
              "p50 ms, p90 ms):");
  for (const Segment& g : loop.segments) {
    std::printf(" %.4g,%.4g,%.4g,%.4g,%.4g", g.ktuples / g.wall_s,
                g.server_cpu_ms / g.ktuples, g.client_cpu_ms / g.ktuples,
                g.lat_p50_ms, g.lat_p90_ms);
  }
  std::printf("\n");
  std::printf("# setup_s of each set-up:");
  for (double v : loop.setup_s) std::printf(" %.4f", v);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    metrics = {
        {"setup_s", Median(loop.setup_s), "s"},
        {"throughput_ktps",
         seg_mean([](const Segment& g) { return g.ktuples / g.wall_s; }),
         "ktuple/s"},
        {"server_cpu_ms_per_ktuple",
         seg_mean(
             [](const Segment& g) { return g.server_cpu_ms / g.ktuples; }),
         "ms"},
        {"client_cpu_ms_per_ktuple",
         seg_mean(
             [](const Segment& g) { return g.client_cpu_ms / g.ktuples; }),
         "ms"},
        {"server_peak_rss_mb", loop.peak_rss_mb, "MB"},
        {"result_lat_p50_ms",
         seg_mean([](const Segment& g) { return g.lat_p50_ms; }), "ms"},
        {"result_lat_p90_ms",
         seg_mean([](const Segment& g) { return g.lat_p90_ms; }), "ms"},
    };
  } else {
    const PipelineResult pipe = RunPipelines(spec, in, want, &ops);
    const EngineResult eng = RunEngine(cfg, in, want, &ops);
    LoopResult traced = RunLoopback(cfg, in, want, true, 1, &ops);
    PrintCounts("traced", cfg, in, traced.final_stats);
    const double codec_ns = CodecNsPerTuple(in, &ops);

    // The three levels as CPU time per ktuple: the replicas replayed on
    // one thread, the in-process engine (all its threads), and the
    // loopback system (server plus load generator). The engine runs its
    // shards in parallel, so wall times would not nest; CPU times do.
    const double pipe_ms = pipe.wall_s * 1e3 / ktuples;
    const double engine_ms = eng.cpu_ms / ktuples;
    const double loop_ms =
        (loop.server_cpu_ms + loop.client_cpu_ms) / ktuples;
    double spans_ms = 0;
    for (double v : traced.ingest_ms) spans_ms += v;
    for (double v : traced.flush_ms) spans_ms += v;
    const auto per_tuple = [&](const char* key) {
      return (static_cast<double>(Get(traced.after, key)) -
              Get(traced.before, key)) /
             static_cast<double>(in.timed_tuples);
    };
    const double lat_p99 = Percentile(traced.latency_ms, 99);
    std::printf("# traced: round latency p99 %.4f ms over %zu rounds; CPU "
                "ms/ktuple: pipeline %.4f, engine %.4f, loopback %.4f\n",
                lat_p99, traced.latency_ms.size(), pipe_ms, engine_ms,
                loop_ms);
    const double tuples = static_cast<double>(in.timed_tuples);
    metrics = {
        {"pipeline.ms_per_ktuple", pipe_ms, "ms"},
        {"ops.processing_ms_per_ktuple",
         pipe.phases.processing_ns / 1e6 / ktuples, "ms"},
        {"ops.insertion_ms_per_ktuple",
         pipe.phases.insertion_ns / 1e6 / ktuples, "ms"},
        {"ops.expiration_ms_per_ktuple",
         pipe.phases.expiration_ns / 1e6 / ktuples, "ms"},
        {"state.max_state_bytes", static_cast<double>(pipe.max_state_bytes),
         "bytes"},
        {"state.max_state_tuples", static_cast<double>(pipe.max_state_tuples),
         "count"},
        {"exec.results_pos_per_ktuple", pipe.results_pos / ktuples, "count"},
        {"exec.results_neg_per_ktuple", pipe.results_neg / ktuples, "count"},
        {"engine.throughput_ktps", ktuples / eng.busy_s, "ktuple/s"},
        {"engine.cpu_ms_per_ktuple", engine_ms, "ms"},
        {"engine.ingest_ns_per_tuple", eng.ingest_ns / tuples, "ns"},
        {"engine.flush_p50_ms", Percentile(eng.flush_ms, 50), "ms"},
        {"engine.wal_records_per_ktuple", eng.wal_records / ktuples, "count"},
        {"engine.wal_bytes_per_tuple", eng.wal_bytes / tuples, "bytes"},
        {"engine.sub_deltas_per_ktuple", eng.sub_deltas / ktuples, "count"},
        {"engine.queue_depth_max", Percentile(eng.queue_depth, 100), "count"},
        {"engine.state_bytes_max", eng.state_bytes_max, "bytes"},
        {"net.ingest_call_p50_ms", Percentile(traced.ingest_ms, 50), "ms"},
        {"net.flush_call_p50_ms", Percentile(traced.flush_ms, 50), "ms"},
        {"net.codec_ns_per_tuple", codec_ns, "ns"},
        {"net.bytes_in_per_tuple", per_tuple("bytes_in"), "bytes"},
        {"net.bytes_out_per_tuple", per_tuple("bytes_out"), "bytes"},
        {"net.frames_out_per_ktuple", per_tuple("frames_out") * 1e3, "count"},
        {"client.result_lat_p99_ms", lat_p99, "ms"},
        {"client.result_lat_samples",
         static_cast<double>(traced.latency_ms.size()), "count"},
        {"client.gen_lateness_p90_ms", Percentile(traced.lateness_ms, 90),
         "ms"},
        {"sql.register_ms", Median(loop.register_ms), "ms"},
        {"net.subscribe_ms", Median(loop.subscribe_ms), "ms"},
        {"setup.warmup_s", Median(loop.warmup_s), "s"},
        {"share.pipeline", pipe_ms / loop_ms, "ratio"},
        {"share.engine_minus_pipeline", (engine_ms - pipe_ms) / loop_ms,
         "ratio"},
        {"share.loopback_minus_engine", (loop_ms - engine_ms) / loop_ms,
         "ratio"},
        {"trace.span_coverage", spans_ms / (traced.wall_s * 1e3), "ratio"},
        {"trace.overhead",
         Median(traced.latency_ms) / Median(loop.latency_ms) - 1.0, "ratio"},
    };
  }
  PrintResult(ops, metrics);
  return ops.failed == 0 ? 0 : 1;
}
