// The one place the benchmark reads the system's counters.
//
// Every read of a stats struct the ROADMAP plans to delete (DiskStats,
// SegmentWriterStats, S4FileSystemStats, RouterStats) happens in adapter.cc,
// next to the MetricRegistry reads that will replace them; a change that
// moves one of those structs onto the registry edits this file only. The
// executor's charged_span/gap_span and the router's attributed_busy() are
// deliberately not consumed anywhere.
#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/shard_router.h"
#include "src/drive/s4_drive.h"
#include "src/fs/s4_fs.h"
#include "src/sim/block_device.h"

namespace perfbench {

using s4::SimDuration;

// What a workload exposes for counter reading; null members are absent.
struct Subjects {
  std::vector<s4::S4Drive*> drives;
  std::vector<s4::BlockDevice*> devices;
  s4::S4FileSystem* fs = nullptr;
  s4::ShardRouter* router = nullptr;
};

// A reading of every counter the benchmark consumes, summed over drives
// (per device where a maximum is needed). Subtract two readings to get the
// deltas over a phase.
struct Counters {
  struct Hist {
    uint64_t count = 0;
    int64_t sum = 0;  // simulated microseconds
  };
  std::map<std::string, uint64_t> registry;  // MetricRegistry counters
  std::map<std::string, Hist> hist;          // MetricRegistry histograms
  // Block devices.
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t disk_sectors_written = 0;
  uint64_t disk_seeks = 0;
  std::vector<SimDuration> device_busy;
  // Segment writers.
  uint64_t lfs_sectors_flushed = 0;
  uint64_t lfs_bytes_coalesced = 0;
  uint64_t lfs_bytes_flushed = 0;
  // File-system translator.
  uint64_t fs_rpc_syncs = 0;
  uint64_t fs_attr_hits = 0;
  uint64_t fs_attr_misses = 0;
  uint64_t fs_dir_hits = 0;
  uint64_t fs_dir_misses = 0;
  // Array router.
  uint64_t parity_deltas = 0;
  uint64_t degraded_reads = 0;

  uint64_t Reg(const std::string& name) const;
  Hist H(const std::string& name) const;
  SimDuration DiskBusy() const;
  Counters operator-(const Counters& before) const;
};

Counters ReadCounters(const Subjects& s);

// Occupied disk bytes (Σ SpaceUtilization × capacity) over live bytes.
double SpaceAmplification(const Subjects& s);

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
