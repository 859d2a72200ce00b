// Shared benchmark harness: constructs the four server configurations the
// paper compares (section 5.1.1) on identical simulated hardware.
//
//   s4-nas  - S4 drive as network-attached object store; the S4 client
//             daemon runs on the client machine, so every S4 RPC crosses
//             the 100Mb network (Figure 1a).
//   s4-nfs  - S4-enhanced NFS server: NFS-to-S4 translation co-located with
//             the drive; only NFS operations cross the network (Figure 1b).
//   ffs-nfs - FreeBSD-like NFS server exporting an FFS-style in-place file
//             system with synchronous metadata.
//   ext2-nfs- Linux-2.2-like NFS server whose "synchronous" mount defers
//             metadata writes (the flaw the paper observed).
#ifndef S4_BENCH_HARNESS_H_
#define S4_BENCH_HARNESS_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/baseline/ffs_like.h"
#include "src/drive/s4_drive.h"
#include "src/fs/nfs_wrapper.h"
#include "src/fs/s4_fs.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/check.h"

namespace s4 {
namespace bench {

enum class ServerKind { kS4Nas, kS4NasBatched, kS4Nfs, kFfsNfs, kExt2Nfs };

inline const char* ServerName(ServerKind kind) {
  switch (kind) {
    case ServerKind::kS4Nas:
      return "S4-NAS";
    case ServerKind::kS4NasBatched:
      return "S4-NAS-batched";
    case ServerKind::kS4Nfs:
      return "S4-NFS";
    case ServerKind::kFfsNfs:
      return "BSD-FFS-NFS";
    case ServerKind::kExt2Nfs:
      return "Linux-ext2-NFS";
  }
  return "?";
}

// A server kind's label in a bench report: "S4-NAS" -> "s4_nas".
inline std::string ServerSlug(ServerKind kind) {
  std::string s = ServerName(kind);
  for (char& c : s) {
    c = c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

struct ServerOptions {
  uint64_t disk_bytes = 2ull << 30;
  // Paper testbed: 128MB drive buffer cache, 32MB object cache, 512MB server
  // RAM for the NFS baselines. Buffer cache scaled ~1/2 to keep the harness
  // snappy while preserving cache-to-working-set ratios.
  uint64_t s4_block_cache = 64ull << 20;
  uint64_t s4_object_cache = 32ull << 20;
  uint64_t ffs_buffer_cache = 96ull << 20;
  SimDuration detection_window = 7 * kDay;
  bool audit_enabled = true;
  bool versioning_enabled = true;
  bool cleaner_enabled = true;
  // ext2 personality: background metadata write-back cadence.
  uint32_t ext2_flush_every_ops = 512;
  // Batched S4 mode (kS4NasBatched): how many mutating NFS ops share one
  // Sync RPC, and whether the final mutating RPC rides the same kBatch frame
  // as the Sync. Ignored by the other kinds.
  uint32_t fs_group_commit_ops = 32;
  bool fs_batch_rpcs = true;
  // Last-word hook over the drive options (S4 kinds only): runs after the
  // fields above are applied, so ablation benches can flip knobs the
  // ServerOptions surface does not expose (waypoint cadence, cleaner pacing).
  std::function<void(S4DriveOptions&)> tweak_drive_options;
};

// One fully wired server + client stack. All members are owned; `fs` is the
// FileSystemApi workloads should use.
struct Server {
  ServerKind kind;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<S4Drive> drive;
  std::unique_ptr<S4RpcServer> rpc_server;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<S4Client> client;
  std::unique_ptr<S4FileSystem> s4_fs;
  std::unique_ptr<FfsLikeServer> ffs;
  std::unique_ptr<NfsServerWrapper> nfs;
  FileSystemApi* fs = nullptr;
  uint32_t ext2_flush_every_ops = 0;
  uint64_t ops_since_flush = 0;

  // Housekeeping between operations: background cleaning for S4, deferred
  // metadata write-back for the ext2 personality. Call periodically from
  // workload hooks.
  void Tick() {
    if (drive != nullptr && drive->CleanerNeeded()) {
      S4_CHECK(drive->RunCleanerPass(2).ok());
    }
    if (ffs != nullptr && ext2_flush_every_ops > 0 &&
        ++ops_since_flush >= ext2_flush_every_ops) {
      ops_since_flush = 0;
      S4_CHECK(ffs->FlushMetadata().ok());
    }
  }

  double SimSeconds() const { return ToSeconds(clock->Now()); }

  // Drains any deferred group-commit sync (batched S4 mode) so results are
  // durable before stats are read or the workload ends.
  void Drain() {
    if (s4_fs != nullptr) {
      S4_CHECK(s4_fs->Commit().ok());
    }
  }
};

inline std::unique_ptr<Server> MakeServer(ServerKind kind, ServerOptions options = {}) {
  auto server = std::make_unique<Server>();
  server->kind = kind;
  server->clock = std::make_unique<SimClock>(SimTime{0});
  server->device =
      std::make_unique<BlockDevice>(options.disk_bytes / kSectorSize, server->clock.get());

  Credentials user;
  user.user = 100;
  user.client = 1;

  switch (kind) {
    case ServerKind::kS4Nas:
    case ServerKind::kS4NasBatched:
    case ServerKind::kS4Nfs: {
      S4DriveOptions drive_opts;
      drive_opts.block_cache_bytes = options.s4_block_cache;
      drive_opts.object_cache_bytes = options.s4_object_cache;
      drive_opts.detection_window = options.detection_window;
      drive_opts.audit_enabled = options.audit_enabled;
      drive_opts.versioning_enabled = options.versioning_enabled;
      drive_opts.cleaner_enabled = options.cleaner_enabled;
      if (options.tweak_drive_options) {
        options.tweak_drive_options(drive_opts);
      }
      auto drive = S4Drive::Format(server->device.get(), server->clock.get(), drive_opts);
      S4_CHECK(drive.ok());
      server->drive = std::move(*drive);
      server->rpc_server = std::make_unique<S4RpcServer>(server->drive.get());
      NetModel net;
      if (kind == ServerKind::kS4Nfs) {
        // Translation co-located with the drive: S4 RPCs are local.
        net.per_message_latency = 2;
        net.bandwidth_mb_s = 400.0;
      }
      server->transport = std::make_unique<LoopbackTransport>(server->rpc_server.get(),
                                                              server->clock.get(), net);
      server->client = std::make_unique<S4Client>(server->transport.get(), user);
      S4FileSystemOptions fs_opts;
      if (kind == ServerKind::kS4NasBatched) {
        fs_opts.group_commit_ops = options.fs_group_commit_ops;
        fs_opts.batch_rpcs = options.fs_batch_rpcs;
      }
      auto fs = S4FileSystem::Format(server->client.get(), "root", fs_opts);
      S4_CHECK(fs.ok());
      server->s4_fs = std::move(*fs);
      if (kind == ServerKind::kS4Nfs) {
        server->nfs = std::make_unique<NfsServerWrapper>(server->s4_fs.get(),
                                                         server->clock.get());
        server->fs = server->nfs.get();
      } else {
        server->fs = server->s4_fs.get();
      }
      break;
    }
    case ServerKind::kFfsNfs:
    case ServerKind::kExt2Nfs: {
      FfsOptions ffs_opts;
      ffs_opts.sync_metadata = kind == ServerKind::kFfsNfs;
      ffs_opts.buffer_cache_bytes = options.ffs_buffer_cache;
      auto fs = FfsLikeServer::Format(server->device.get(), server->clock.get(), ffs_opts);
      S4_CHECK(fs.ok());
      server->ffs = std::move(*fs);
      server->nfs =
          std::make_unique<NfsServerWrapper>(server->ffs.get(), server->clock.get());
      server->fs = server->nfs.get();
      if (kind == ServerKind::kExt2Nfs) {
        server->ext2_flush_every_ops = options.ext2_flush_every_ops;
      }
      break;
    }
  }
  return server;
}

// Formats a simulated duration as seconds with 2 decimals.
inline std::string Secs(SimDuration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ToSeconds(d));
  return buf;
}

// A JSON scalar or object, serialised when it is built, so a report holds
// only text and every file is written by BenchReport::Finish.
class JsonValue {
 public:
  JsonValue(double v);
  JsonValue(bool v) : json_(v ? "true" : "false") {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}
  JsonValue(const std::string& s);
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonValue(T v) : json_(std::to_string(v)) {}

  static JsonValue Object(const std::vector<std::pair<std::string, JsonValue>>& fields);
  // Already-serialised JSON (the drive's registry dump).
  static JsonValue Raw(std::string json) { return JsonValue(Tag{}, std::move(json)); }

  const std::string& json() const { return json_; }

 private:
  struct Tag {};
  JsonValue(Tag, std::string json) : json_(std::move(json)) {}
  std::string json_;
};
using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

// JSON has no NaN or infinity: a non-finite number is written as null.
inline JsonValue::JsonValue(double v) {
  if (!std::isfinite(v)) {
    json_ = "null";
    return;
  }
  char buf[32];
  json_.assign(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline JsonValue::JsonValue(const std::string& s) : json_("\"") {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      json_ += '\\';
    }
    json_ += c;
  }
  json_ += '"';
}

inline JsonValue JsonValue::Object(const JsonFields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    out += (out.size() > 1 ? ", " : "") + JsonValue(key).json() + ": " + value.json();
  }
  return Raw(out + "}");
}

// Which way a metric should move; BENCHMARK.json spells it the same way.
enum class Better { kHigher, kLower };

// One bench run's machine-readable results: BENCH_<bench>.json in the
// working directory, with exactly these top-level keys:
//   bench    the bench's name
//   config   the --quick and --check flags this run was given
//   metrics  name -> {value, unit, better}: what tools/bench_compare.py
//            compares, run against run
//   layers   label -> one server's drive registry dump and its disk, lfs
//            and fs counters
//   results  table -> rows: the tables the bench prints
//   gates    [{metric, op, bound, value, pass}], evaluated by Finish()
// CI uploads these files as artifacts so runs can be compared across commits.
class BenchReport {
 public:
  // Removes --quick and --check from argv, keeping the other flags in order,
  // and records them under config. Call it before google-benchmark's
  // Initialize, which rejects flags it does not know.
  BenchReport(std::string bench, int* argc = nullptr, char** argv = nullptr)
      : bench_(std::move(bench)) {
    if (argc == nullptr) {
      return;
    }
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        quick_ = true;
      } else if (std::strcmp(argv[i], "--check") == 0) {
        check_ = true;
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
  }

  bool quick() const { return quick_; }

  void Metric(const std::string& name, double value, const std::string& unit, Better better) {
    metrics_[name] = {value, unit, better};
  }

  // Records `server` under `label`: its simulated time, disk reads and
  // writes, network messages and per-op p50/p99 as metrics, and its drive
  // registry and disk, lfs and fs counters under layers[label].
  void Server(const std::string& label, const ::s4::bench::Server& server) {
    const std::string p = label + ".";
    const DiskStats& disk = server.device->stats();
    Metric(p + "sim_seconds", server.SimSeconds(), "s", Better::kLower);
    Metric(p + "disk.reads", disk.reads, "count", Better::kLower);
    Metric(p + "disk.writes", disk.writes, "count", Better::kLower);
    JsonFields layer = {
        {"disk", JsonValue::Object({{"reads", disk.reads},
                                    {"writes", disk.writes},
                                    {"bytes_read", disk.sectors_read * kSectorSize},
                                    {"bytes_written", disk.sectors_written * kSectorSize},
                                    {"seeks", disk.seeks},
                                    {"busy_seconds", ToSeconds(disk.busy_time)}})}};
    if (server.s4_fs != nullptr) {
      const S4FileSystemStats& fs = server.s4_fs->stats();
      layer.emplace_back("fs", JsonValue::Object({{"rpc_syncs", fs.rpc_syncs},
                                                  {"deferred_syncs", fs.deferred_syncs},
                                                  {"rpc_batches", fs.rpc_batches}}));
    }
    if (server.drive != nullptr) {
      const MetricRegistry& reg = server.drive->metrics();
      Metric(p + "net.messages", reg.CounterValue("net.messages_sent"), "count",
             Better::kLower);
      for (int op = 1; op <= kMaxRpcOp; ++op) {
        const char* name = RpcOpName(static_cast<RpcOp>(op));
        const Histogram* h = reg.FindHistogram(std::string("drive.op.") + name + ".latency");
        if (h != nullptr && h->count() > 0) {
          Metric(p + "op." + name + ".p50_us", h->Percentile(0.50), "us", Better::kLower);
          Metric(p + "op." + name + ".p99_us", h->Percentile(0.99), "us", Better::kLower);
        }
      }
      const SegmentWriterStats& sw = server.drive->writer_stats();
      layer.emplace_back("lfs", JsonValue::Object({{"records_appended", sw.records_appended},
                                                   {"chunks_flushed", sw.chunks_flushed},
                                                   {"sectors_flushed", sw.sectors_flushed},
                                                   {"bytes_coalesced", sw.bytes_coalesced},
                                                   {"bytes_flushed", sw.bytes_flushed}}));
      layer.emplace_back("registry", JsonValue::Raw(reg.ToJson()));
    }
    layers_.insert_or_assign(label, JsonValue::Object(layer));
  }

  void Row(const std::string& table, const JsonFields& row) {
    results_[table].push_back(JsonValue::Object(row));
  }

  // Passes when metric `op` bound holds, op being ">=", "<=" or ">". A gate
  // on a metric that was never reported fails, so renaming a metric cannot
  // silently switch its gate off.
  void Gate(const std::string& metric, const std::string& op, double bound) {
    S4_CHECK(op == ">=" || op == "<=" || op == ">");
    gates_.push_back({metric, op, bound});
  }

  // Writes BENCH_<bench>.json and prints one PASS or FAIL line per gate.
  // Returns the process exit status: 1 when --check was given and a gate
  // failed, otherwise 0.
  int Finish() const {
    bool failed = false;
    std::vector<std::string> gates;
    for (const GateSpec& g : gates_) {
      auto it = metrics_.find(g.metric);
      // An unreported metric reads as NaN (null in the file), which fails
      // every op.
      const double v = it == metrics_.end() ? std::nan("") : it->second.value;
      const bool pass = g.op == ">=" ? v >= g.bound : g.op == "<=" ? v <= g.bound : v > g.bound;
      failed = failed || !pass;
      std::printf("%s: %s = %s %s %g\n", pass ? "PASS" : "FAIL", g.metric.c_str(),
                  JsonValue(v).json().c_str(), g.op.c_str(), g.bound);
      gates.push_back(JsonValue::Object({{"metric", g.metric},
                                         {"op", g.op},
                                         {"bound", g.bound},
                                         {"value", v},
                                         {"pass", pass}})
                          .json());
    }
    std::vector<std::string> metrics;
    for (const auto& [name, m] : metrics_) {
      const char* better = m.better == Better::kHigher ? "higher" : "lower";
      metrics.push_back(
          JsonValue(name).json() + ": " +
          JsonValue::Object({{"value", m.value}, {"unit", m.unit}, {"better", better}}).json());
    }
    std::vector<std::string> layers;
    for (const auto& [label, layer] : layers_) {
      layers.push_back(JsonValue(label).json() + ": " + layer.json());
    }
    std::vector<std::string> results;
    for (const auto& [table, rows] : results_) {
      std::vector<std::string> lines;
      for (const JsonValue& row : rows) {
        lines.push_back(row.json());
      }
      results.push_back(JsonValue(table).json() + ": " + Lines('[', lines, ']', "    "));
    }
    std::ofstream out("BENCH_" + bench_ + ".json");
    out << "{\n\"bench\": " << JsonValue(bench_).json()
        << ",\n\"config\": " << JsonValue::Object({{"quick", quick_}, {"check", check_}}).json()
        << ",\n\"metrics\": " << Lines('{', metrics, '}', "  ")
        << ",\n\"layers\": " << Lines('{', layers, '}', "  ")
        << ",\n\"results\": " << Lines('{', results, '}', "  ")
        << ",\n\"gates\": " << Lines('[', gates, ']', "  ") << "\n}\n";
    if (!out) {
      std::fprintf(stderr, "BenchReport: cannot write BENCH_%s.json\n", bench_.c_str());
    }
    return check_ && failed ? 1 : 0;
  }

 private:
  struct MetricValue {
    double value;
    std::string unit;
    Better better;
  };
  struct GateSpec {
    std::string metric;
    std::string op;
    double bound;
  };
  std::string bench_;
  bool quick_ = false;
  bool check_ = false;
  std::map<std::string, MetricValue> metrics_;
  std::map<std::string, JsonValue> layers_;
  std::map<std::string, std::vector<JsonValue>> results_;
  std::vector<GateSpec> gates_;

  // `open`, then one item per line at `indent`, then `close`, indented two
  // spaces less.
  static std::string Lines(char open, const std::vector<std::string>& items, char close,
                           const std::string& indent) {
    std::string out(1, open);
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n") + indent + items[i];
    }
    return out + "\n" + indent.substr(2) + close;
  }
};

}  // namespace bench
}  // namespace s4

#endif  // S4_BENCH_HARNESS_H_
