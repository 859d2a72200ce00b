// Table 1: the S4 RPC interface — every operation exercised end to end over
// the network transport, with measured per-operation latency and its
// time-based-access capability.
//
// Usage: bench_rpc [google-benchmark flags]
// Writes BENCH_rpc.json.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "bench/harness.h"
#include "src/util/rng.h"

namespace s4 {
namespace bench {
namespace {

struct OpRow {
  const char* name;
  bool time_based;
  const char* description;
  double mean_us = 0;
};

std::vector<OpRow> g_rows = {
    {"Create", false, "Create an object", 0},
    {"Delete", false, "Delete an object", 0},
    {"Read", true, "Read data from an object", 0},
    {"Write", false, "Write data to an object", 0},
    {"Append", false, "Append data to the end of an object", 0},
    {"Truncate", false, "Truncate an object to a specified length", 0},
    {"GetAttr", true, "Get the attributes of an object", 0},
    {"SetAttr", false, "Set the opaque attributes of an object", 0},
    {"GetACLByUser", true, "Get an ACL entry by UserID", 0},
    {"GetACLByIndex", true, "Get an ACL entry by table index", 0},
    {"SetACL", false, "Set an ACL entry for an object", 0},
    {"PCreate", false, "Create a partition (name -> ObjectID)", 0},
    {"PDelete", false, "Delete a partition", 0},
    {"PList", true, "List the partitions", 0},
    {"PMount", true, "Retrieve the ObjectID given its name", 0},
    {"Sync", false, "Sync the entire cache to disk", 0},
    {"Flush", false, "Remove all versions between two times (admin)", 0},
    {"FlushO", false, "Remove versions of one object (admin)", 0},
    {"SetWindow", false, "Adjust the guaranteed detection window (admin)", 0},
};

constexpr int kReps = 64;

void MeasureAll(::benchmark::State& state, BenchReport& report) {
  for (auto _ : state) {
    auto server = MakeServer(ServerKind::kS4Nas);
    S4Client* client = server->client.get();
    Credentials admin;
    admin.admin_key = server->drive->options().admin_key;
    S4Client admin_client(server->transport.get(), admin);
    SimClock* clock = server->clock.get();
    Rng rng(3);
    Bytes payload = rng.RandomBytes(4096);

    auto timed = [&](const char* name, auto&& fn) {
      SimTime t0 = clock->Now();
      for (int i = 0; i < kReps; ++i) {
        fn(i);
      }
      double mean = static_cast<double>(clock->Now() - t0) / kReps;
      for (auto& row : g_rows) {
        if (std::string(row.name) == name) {
          row.mean_us = mean;
        }
      }
    };

    // Working objects.
    std::vector<ObjectId> ids;
    for (int i = 0; i < kReps + 2; ++i) {
      auto id = client->Create({});
      S4_CHECK(id.ok());
      S4_CHECK(client->Write(*id, 0, payload).ok());
      ids.push_back(*id);
    }
    SimTime version_time = clock->Now();
    clock->Advance(kSecond);

    timed("Create", [&](int) { S4_CHECK(client->Create({}).ok()); });
    timed("Write", [&](int i) { S4_CHECK(client->Write(ids[i], 0, payload).ok()); });
    timed("Append", [&](int i) { S4_CHECK(client->Append(ids[i], payload).ok()); });
    timed("Read", [&](int i) { S4_CHECK(client->Read(ids[i], 0, 4096).ok()); });
    timed("Truncate", [&](int i) { S4_CHECK(client->Truncate(ids[i], 1024).ok()); });
    timed("GetAttr", [&](int i) { S4_CHECK(client->GetAttr(ids[i]).ok()); });
    timed("SetAttr", [&](int i) { S4_CHECK(client->SetAttr(ids[i], BytesOf("a")).ok()); });
    timed("SetACL", [&](int i) {
      S4_CHECK(client->SetAcl(ids[i], AclEntry{200, kPermRead}).ok());
    });
    timed("GetACLByUser", [&](int i) { S4_CHECK(client->GetAclByUser(ids[i], 200).ok()); });
    timed("GetACLByIndex", [&](int i) { S4_CHECK(client->GetAclByIndex(ids[i], 0).ok()); });
    timed("PCreate", [&](int i) {
      S4_CHECK(client->PCreate("part" + std::to_string(i), ids[i]).ok());
    });
    timed("PMount", [&](int i) {
      S4_CHECK(client->PMount("part" + std::to_string(i)).ok());
    });
    timed("PList", [&](int) { S4_CHECK(client->PList().ok()); });
    timed("PDelete", [&](int i) {
      S4_CHECK(client->PDelete("part" + std::to_string(i)).ok());
    });
    timed("Sync", [&](int) { S4_CHECK(client->Sync().ok()); });
    timed("Delete", [&](int i) { S4_CHECK(client->Delete(ids[i]).ok()); });
    timed("FlushO", [&](int i) {
      S4_CHECK(admin_client.FlushObject(ids[i], 0, version_time).ok());
    });
    timed("Flush", [&](int) { S4_CHECK(admin_client.Flush(0, 1).ok()); });
    timed("SetWindow", [&](int) { S4_CHECK(admin_client.SetWindow(7 * kDay).ok()); });

    state.SetIterationTime(ToSeconds(clock->Now()));
    report.Server("s4_nas", *server);
  }
}

void Report(BenchReport& report) {
  std::printf("\n=== Table 1: S4 RPC interface (measured over the network transport) ===\n");
  std::printf("%-15s %6s %12s   %s\n", "RPC", "time?", "mean (us)", "description");
  for (const auto& row : g_rows) {
    std::printf("%-15s %6s %12.0f   %s\n", row.name, row.time_based ? "yes" : "no",
                row.mean_us, row.description);
    report.Row("table1",
               {{"rpc", row.name}, {"time_based", row.time_based}, {"mean_us", row.mean_us}});
  }
  std::printf("\nAll modifications create new versions; time-based reads accept an extra\n"
              "time parameter resolved against the history pool.\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("rpc");
  ::benchmark::RegisterBenchmark(
      "MeasureAll", [&report](::benchmark::State& state) { s4::bench::MeasureAll(state, report); })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  s4::bench::Report(report);
  return report.Finish();
}
