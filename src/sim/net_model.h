// NetModel: cost model for the client<->drive network.
//
// Substitutes the paper's 100Mb switched Ethernet: a fixed per-message
// latency plus a bandwidth term. Used by the RPC loopback transport.
#ifndef S4_SRC_SIM_NET_MODEL_H_
#define S4_SRC_SIM_NET_MODEL_H_

#include <cstdint>

#include "src/util/time.h"

namespace s4 {

struct NetModel {
  SimDuration per_message_latency = 60;  // one-way wire+stack latency (us)
  double bandwidth_mb_s = 12.5;          // 100 Mb/s
  // Protocol processing (marshalling, syscalls, context switches) per
  // message, summed over sender and receiver — 2000-era CPUs.
  SimDuration per_message_cpu = 220;

  SimDuration TransferCost(uint64_t bytes) const {
    double seconds = static_cast<double>(bytes) / (bandwidth_mb_s * 1e6);
    return per_message_latency + per_message_cpu +
           static_cast<SimDuration>(seconds * kSecond);
  }
};

}  // namespace s4

#endif  // S4_SRC_SIM_NET_MODEL_H_
