#include "perfbench/adapter.h"

namespace perfbench {

uint64_t Counters::Reg(const std::string& name) const {
  auto it = registry.find(name);
  return it == registry.end() ? 0 : it->second;
}

Counters::Hist Counters::H(const std::string& name) const {
  auto it = hist.find(name);
  return it == hist.end() ? Hist{} : it->second;
}

SimDuration Counters::DiskBusy() const {
  SimDuration sum = 0;
  for (SimDuration b : device_busy) sum += b;
  return sum;
}

Counters Counters::operator-(const Counters& before) const {
  Counters d = *this;
  for (auto& [name, v] : d.registry) v -= before.Reg(name);
  for (auto& [name, h] : d.hist) {
    Hist b = before.H(name);
    h.count -= b.count;
    h.sum -= b.sum;
  }
  d.disk_reads -= before.disk_reads;
  d.disk_writes -= before.disk_writes;
  d.disk_sectors_written -= before.disk_sectors_written;
  d.disk_seeks -= before.disk_seeks;
  for (size_t i = 0; i < d.device_busy.size() && i < before.device_busy.size(); ++i) {
    d.device_busy[i] -= before.device_busy[i];
  }
  d.lfs_sectors_flushed -= before.lfs_sectors_flushed;
  d.lfs_bytes_coalesced -= before.lfs_bytes_coalesced;
  d.lfs_bytes_flushed -= before.lfs_bytes_flushed;
  d.fs_rpc_syncs -= before.fs_rpc_syncs;
  d.fs_attr_hits -= before.fs_attr_hits;
  d.fs_attr_misses -= before.fs_attr_misses;
  d.fs_dir_hits -= before.fs_dir_hits;
  d.fs_dir_misses -= before.fs_dir_misses;
  d.parity_deltas -= before.parity_deltas;
  d.degraded_reads -= before.degraded_reads;
  return d;
}

Counters ReadCounters(const Subjects& s) {
  Counters c;
  for (const s4::S4Drive* drive : s.drives) {
    const s4::MetricRegistry& reg = drive->metrics();
    for (const auto& [name, counter] : reg.counters()) c.registry[name] += counter->value();
    for (const auto& [name, h] : reg.histograms()) {
      c.hist[name].count += h->count();
      c.hist[name].sum += h->sum();
    }
    const s4::SegmentWriterStats& w = drive->writer_stats();
    c.lfs_sectors_flushed += w.sectors_flushed;
    c.lfs_bytes_coalesced += w.bytes_coalesced;
    c.lfs_bytes_flushed += w.bytes_flushed;
  }
  for (const s4::BlockDevice* dev : s.devices) {
    const s4::DiskStats d = dev->stats();
    c.disk_reads += d.reads;
    c.disk_writes += d.writes;
    c.disk_sectors_written += d.sectors_written;
    c.disk_seeks += d.seeks;
    c.device_busy.push_back(d.busy_time);
  }
  if (s.fs != nullptr) {
    const s4::S4FileSystemStats& f = s.fs->stats();
    c.fs_rpc_syncs = f.rpc_syncs;
    c.fs_attr_hits = f.attr_cache_hits;
    c.fs_attr_misses = f.attr_cache_misses;
    c.fs_dir_hits = f.dir_cache_hits;
    c.fs_dir_misses = f.dir_cache_misses;
  }
  if (s.router != nullptr) {
    const s4::RouterStats& r = s.router->rstats();
    c.parity_deltas = r.parity_deltas;
    c.degraded_reads = r.degraded_reads;
  }
  return c;
}

double SpaceAmplification(const Subjects& s) {
  double occupied = 0;
  double live = 0;
  for (size_t i = 0; i < s.drives.size() && i < s.devices.size(); ++i) {
    occupied += s.drives[i]->SpaceUtilization() *
                static_cast<double>(s.devices[i]->capacity_bytes());
    live += static_cast<double>(s.drives[i]->LiveBytes());
  }
  return live > 0 ? occupied / live : 0;
}

}  // namespace perfbench
