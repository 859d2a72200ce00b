#include "perfbench/report.h"

#include <algorithm>
#include <cstdio>

#include "src/rpc/client.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Mean simulated microseconds of one drive op, from its registry histogram.
double OpSimUs(const Counters& d, const char* op) {
  Counters::Hist h = d.H(std::string("drive.op.") + op + ".latency");
  return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

}  // namespace

MetricMap LayerMetrics(const LayerInputs& in) {
  const Counters& d = in.delta;
  const double ops = static_cast<double>(in.ops);
  const double elapsed = static_cast<double>(in.sim_elapsed);
  MetricMap m;
  auto set = [&m](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };

  // fs: the NFS-to-S4 translator.
  const SpanAgg fs = in.log->Sum("fs.");
  const double client_calls = in.client != nullptr ? static_cast<double>(in.client->calls()) : 0;
  set("fs.rpcs_per_call", Ratio(client_calls, static_cast<double>(fs.calls)), "ratio");
  set("fs.sync_rpcs_per_call",
      Ratio(static_cast<double>(d.fs_rpc_syncs), static_cast<double>(fs.calls)), "ratio");
  set("fs.attr_cache_hit_ratio",
      Ratio(static_cast<double>(d.fs_attr_hits),
            static_cast<double>(d.fs_attr_hits + d.fs_attr_misses)),
      "ratio");
  set("fs.dir_cache_hit_ratio",
      Ratio(static_cast<double>(d.fs_dir_hits),
            static_cast<double>(d.fs_dir_hits + d.fs_dir_misses)),
      "ratio");
  set("fs.self_host_us_per_call",
      Ratio(static_cast<double>(fs.host_self_ns) / 1e3, static_cast<double>(fs.calls)), "us");

  // rpc: client framing, transport round trips, batching. The drive-side
  // share of a round trip is the drive's per-op latency sum; kBatch envelopes
  // are excluded because their sub-ops record their own latency.
  uint64_t frames = 0;
  uint64_t req_bytes = 0;
  uint64_t resp_bytes = 0;
  for (const TransportProbe* t : in.transports) {
    frames += t->calls();
    req_bytes += t->request_bytes();
    resp_bytes += t->response_bytes();
  }
  const SpanAgg transport = in.log->Sum("rpc.transport");
  const std::string batch_hist =
      std::string("drive.op.") + s4::RpcOpName(s4::RpcOp::kBatch) + ".latency";
  int64_t drive_sim = 0;
  for (const auto& [name, h] : d.hist) {
    if (name.rfind("drive.op.", 0) == 0 && name != batch_hist) drive_sim += h.sum;
  }
  const double nframes = static_cast<double>(frames);
  set("rpc.calls", nframes, "count");
  set("rpc.req_bytes_per_call", Ratio(static_cast<double>(req_bytes), nframes), "bytes");
  set("rpc.resp_bytes_per_call", Ratio(static_cast<double>(resp_bytes), nframes), "bytes");
  set("rpc.sim_ms_per_call", Ratio(static_cast<double>(transport.sim) / 1e3, nframes), "ms");
  set("rpc.net_sim_ms_per_call",
      Ratio(static_cast<double>(transport.sim - drive_sim) / 1e3, nframes), "ms");
  set("rpc.host_us_per_call", Ratio(static_cast<double>(transport.host_ns) / 1e3, nframes),
      "us");
  const SpanAgg rpc_client = in.log->Sum("rpc.client.");
  set("rpc.client_self_host_us_per_call",
      Ratio(static_cast<double>(rpc_client.host_self_ns) / 1e3,
            static_cast<double>(rpc_client.calls)),
      "us");
  set("rpc.subops_per_batch",
      Ratio(static_cast<double>(d.Reg("rpc.batched_sub_ops")),
            static_cast<double>(d.Reg("rpc.batches"))),
      "ratio");

  // cluster: the ShardRouter as seen from above (its spans) and below (the
  // per-shard transport spans nested in them).
  const SpanAgg router = in.log->Sum("cluster.Call");  // Call + CallBatch
  double shard_sim_sum = 0;
  double shard_sim_max = 0;
  const auto& by_shard = in.log->transport_sim_by_shard();
  for (const auto& [shard, sim] : by_shard) {
    shard_sim_sum += static_cast<double>(sim);
    shard_sim_max = std::max(shard_sim_max, static_cast<double>(sim));
  }
  const double rcalls = static_cast<double>(router.calls);
  const double data_writes =
      in.client != nullptr ? static_cast<double>(in.client->data_writes()) : 0;
  set("cluster.shard_frames_per_call", Ratio(nframes, rcalls), "ratio");
  set("cluster.sim_ms_per_call", Ratio(static_cast<double>(router.sim) / 1e3, rcalls), "ms");
  set("cluster.shard_parallelism", Ratio(shard_sim_sum, static_cast<double>(router.sim)),
      "ratio");
  set("cluster.shard_imbalance",
      Ratio(shard_sim_max, Ratio(shard_sim_sum, static_cast<double>(by_shard.size()))),
      "ratio");
  set("cluster.parity_frames_per_write",
      Ratio(static_cast<double>(d.parity_deltas), data_writes), "ratio");
  set("cluster.degraded_fetches_per_read", 0, "ratio");  // set by array_postmark
  set("cluster.self_host_us_per_call",
      Ratio(static_cast<double>(router.host_self_ns) / 1e3, rcalls), "us");

  // exec: filled in by executor_mix.
  for (const char* name : {"exec.frames", "exec.maint_slices"}) set(name, 0, "count");
  for (const char* name : {"exec.device_busy_share", "exec.busiest_device_share"}) {
    set(name, 0, "ratio");
  }
  for (const char* name : {"exec.submit_blocked_host_ms", "exec.drain_host_ms"}) {
    set(name, 0, "ms");
  }

  // drive: per-op simulated cost, admission, history walks, cleaner.
  set("drive.sim_us_per_op",
      Ratio(static_cast<double>(drive_sim), static_cast<double>(d.Reg("drive.ops_total"))),
      "us");
  for (const char* op : {"Write", "Append", "Read", "Sync", "Create", "Delete"}) {
    m[std::string("drive.op.") + op + ".sim_us"] = Metric{OpSimUs(d, op), "us"};
  }
  set("drive.ops_denied", static_cast<double>(d.Reg("drive.ops_denied")), "count");
  set("drive.throttle_delays", static_cast<double>(d.Reg("throttle.delays")), "count");
  const SpanAgg check = in.log->Sum("drive.CleanerNeeded");
  set("drive.cleaner_check_host_us",
      Ratio(static_cast<double>(check.host_ns) / 1e3, static_cast<double>(check.calls)), "us");
  const double history_reads = static_cast<double>(d.Reg("drive.time_based_reads"));
  set("history.walk_sectors_per_read",
      Ratio(static_cast<double>(d.Reg("history.walk_sectors_read")), history_reads), "ratio");
  set("history.waypoint_seeks_per_read",
      Ratio(static_cast<double>(d.Reg("history.waypoint_seeks")), history_reads), "ratio");
  SpanAgg cleaner = in.log->Sum("drive.RunCleanerPass");
  const SpanAgg maintain = in.log->Sum("cluster.MaintainShards");
  cleaner.sim += maintain.sim;
  cleaner.host_ns += maintain.host_ns;
  set("cleaner.sim_ms", static_cast<double>(cleaner.sim) / 1e3, "ms");
  set("cleaner.host_ms", static_cast<double>(cleaner.host_ns) / 1e6, "ms");
  set("cleaner.sectors_expired", static_cast<double>(d.Reg("cleaner.sectors_expired")),
      "count");
  set("cleaner.sectors_copied", static_cast<double>(d.Reg("cleaner.sectors_copied")), "count");
  set("cleaner.walk_sectors_read", static_cast<double>(d.Reg("cleaner.walk_sectors_read")),
      "count");

  // cache: block cache (with read-ahead) and decoded journal-sector cache.
  const double hits = static_cast<double>(d.Reg("cache.block.hits"));
  set("cache.block.hit_ratio",
      Ratio(hits, hits + static_cast<double>(d.Reg("cache.block.misses"))), "ratio");
  set("cache.readahead_sectors", static_cast<double>(d.Reg("cache.readahead_sectors")),
      "count");
  const double jhits = static_cast<double>(d.Reg("cache.jsector.hits"));
  set("cache.jsector.hit_ratio",
      Ratio(jhits, jhits + static_cast<double>(d.Reg("cache.jsector.misses"))), "ratio");

  // journal / lfs / audit.
  set("journal.entries_per_sector",
      Ratio(static_cast<double>(d.Reg("drive.journal_entries")),
            static_cast<double>(d.Reg("drive.journal_sectors_written"))),
      "ratio");
  set("lfs.sectors_flushed_per_op", Ratio(static_cast<double>(d.lfs_sectors_flushed), ops),
      "ratio");
  set("lfs.coalesced_share",
      Ratio(static_cast<double>(d.lfs_bytes_coalesced), static_cast<double>(d.lfs_bytes_flushed)),
      "ratio");
  set("audit.records_per_op", Ratio(static_cast<double>(d.Reg("audit.records")), ops), "ratio");
  set("audit.blocks_written_per_op",
      Ratio(static_cast<double>(d.Reg("audit.blocks_written")), ops), "ratio");

  // sim: the disk and network models.
  set("disk.reads_per_op", Ratio(static_cast<double>(d.disk_reads), ops), "ratio");
  set("disk.writes_per_op", Ratio(static_cast<double>(d.disk_writes), ops), "ratio");
  set("disk.sectors_per_write",
      Ratio(static_cast<double>(d.disk_sectors_written), static_cast<double>(d.disk_writes)),
      "ratio");
  set("disk.seeks_per_op", Ratio(static_cast<double>(d.disk_seeks), ops), "ratio");
  set("disk.busy_share",
      Ratio(static_cast<double>(d.DiskBusy()),
            elapsed * static_cast<double>(d.device_busy.size())),
      "ratio");
  set("disk.write_amp",
      Ratio(static_cast<double>(d.disk_sectors_written) * s4::kSectorSize,
            static_cast<double>(in.user_bytes_written)),
      "ratio");
  set("net.messages_per_op", Ratio(static_cast<double>(d.Reg("net.messages_sent")), ops),
      "ratio");
  set("net.bytes_per_op",
      Ratio(static_cast<double>(d.Reg("net.bytes_sent") + d.Reg("net.bytes_received")), ops),
      "bytes");

  // trace: filled in by FinishTrace and by RunTraced (main.cc).
  set("trace.unattributed_sim_share", 0, "ratio");
  set("trace.host_overhead_share", 0, "ratio");
  return m;
}

void AddSampleMetrics(const RepResult& rep, MetricMap* out) {
  const Percentiles ops(rep.op_lat);
  const Percentiles history(rep.history_lat);
  const Percentiles degraded(rep.degraded_lat);
  (*out)["op_samples"] = Metric{static_cast<double>(ops.count()), "count"};
  (*out)["history_read_samples"] = Metric{static_cast<double>(history.count()), "count"};
  (*out)["history_read_p50_ms"] = Metric{history.Ms(0.50), "ms"};
  (*out)["history_read_p99_ms"] =
      Metric{history.Supports(0.99) ? history.Ms(0.99) : 0, "ms"};
  (*out)["degraded_read_samples"] = Metric{static_cast<double>(degraded.count()), "count"};
  (*out)["degraded_read_p50_ms"] = Metric{degraded.Ms(0.50), "ms"};
}

void CheckAudit(s4::S4Drive* drive, s4::RpcTransport* transport, const std::string& label,
                std::vector<std::string>* failures) {
  const uint64_t ops_total = drive->metrics().CounterValue("drive.ops_total");
  s4::Credentials admin;
  admin.user = 0;
  admin.client = 99;
  admin.admin_key = drive->options().admin_key;
  s4::S4Client auditor(transport, admin);
  s4::AuditChainState saved;  // genesis
  s4::Status s = auditor.AuditChallenge(&saved);
  if (!s.ok()) {
    failures->push_back(label + ": audit challenge failed: " + s.ToString());
    return;
  }
  const uint64_t records = drive->metrics().CounterValue("audit.records");
  if (saved.next_seq < ops_total || records < ops_total) {
    failures->push_back(label + ": audit chain holds " + std::to_string(saved.next_seq) +
                        " verified records (" + std::to_string(records) +
                        " counted) for " + std::to_string(ops_total) + " ops");
  }
}

void FinishTrace(const SpanLog& log, const RepOptions& opts, RepResult* rep) {
  const double elapsed = static_cast<double>(rep->sim_elapsed);
  rep->layers["trace.unattributed_sim_share"] =
      Metric{elapsed > 0 ? 1.0 - static_cast<double>(log.top_level_sim()) / elapsed : 0,
             "ratio"};
  if (!opts.trace_out.empty() && !log.WriteChromeJson(opts.trace_out)) {
    rep->gate_failures.push_back("cannot write trace " + opts.trace_out);
  }
  AddSampleMetrics(*rep, &rep->layers);
}

}  // namespace perfbench
