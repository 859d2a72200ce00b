// A single S4-NAS drive as the paper's Figure 1a wires it: the client talks
// to the drive over the 100 Mb network model (LoopbackTransport). In a traced
// repetition the client and transport are wrapped in probes that share one
// span log.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>

#include "perfbench/adapter.h"
#include "perfbench/probe.h"
#include "src/drive/s4_drive.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/util/check.h"

namespace perfbench {

inline s4::Credentials UserCreds() {
  s4::Credentials c;
  c.user = 100;
  c.client = 1;
  return c;
}

struct NasStack {
  std::unique_ptr<s4::SimClock> clock;
  std::unique_ptr<SpanLog> log;  // null unless traced
  std::unique_ptr<s4::BlockDevice> device;
  std::unique_ptr<s4::S4Drive> drive;
  std::unique_ptr<s4::S4RpcServer> server;
  std::unique_ptr<s4::LoopbackTransport> transport;
  std::unique_ptr<TransportProbe> transport_probe;
  std::unique_ptr<s4::S4Client> client;
  std::unique_ptr<ClientProbe> client_probe;
  s4::S4ClientApi* api = nullptr;  // what workloads call: the client or its probe

  Subjects subjects() const { return Subjects{{drive.get()}, {device.get()}, nullptr, nullptr}; }
};

inline std::unique_ptr<NasStack> MakeNasStack(uint64_t disk_bytes,
                                              const s4::S4DriveOptions& options, bool traced) {
  auto s = std::make_unique<NasStack>();
  s->clock = std::make_unique<s4::SimClock>(s4::SimTime{0});
  if (traced) s->log = std::make_unique<SpanLog>(s->clock.get());
  s->device = std::make_unique<s4::BlockDevice>(disk_bytes / s4::kSectorSize, s->clock.get());
  auto drive = s4::S4Drive::Format(s->device.get(), s->clock.get(), options);
  S4_CHECK(drive.ok());
  s->drive = std::move(*drive);
  s->server = std::make_unique<s4::S4RpcServer>(s->drive.get());
  s->transport = std::make_unique<s4::LoopbackTransport>(s->server.get(), s->clock.get(),
                                                         s4::NetModel());
  s4::RpcTransport* transport = s->transport.get();
  if (traced) {
    s->transport_probe = std::make_unique<TransportProbe>(transport, s->log.get(), -1);
    transport = s->transport_probe.get();
  }
  s->client = std::make_unique<s4::S4Client>(transport, UserCreds());
  s->api = s->client.get();
  if (traced) {
    s->client_probe = std::make_unique<ClientProbe>(s->api, s->log.get(), /*cluster=*/false);
    s->api = s->client_probe.get();
  }
  return s;
}

// Starts/stops the measured phase on an optional span log.
inline void SetActive(SpanLog* log, bool on) {
  if (log != nullptr) log->set_active(on);
}

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
