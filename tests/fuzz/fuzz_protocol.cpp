// Fuzz target: the line-delimited protocol dispatcher (serve/protocol.cpp)
// against a real JobManager — the full attack surface a TCP client can
// reach. Property: handle_request_line never throws and never kills the
// manager; every input produces exactly one reply object with an "ok"
// member. Successfully submitted jobs are cancelled immediately so the
// loop stays bounded (the tiny solver template keeps stragglers cheap).
#include <string>

#include "fuzz_target.hpp"
#include "serve/job_manager.hpp"
#include "serve/protocol.hpp"

namespace {

absq::serve::JobManager& manager() {
  static absq::serve::JobManager* instance = [] {
    absq::serve::JobManagerConfig config;
    config.solver_slots = 1;
    config.max_queue = 4;
    config.solver.num_devices = 1;
    config.solver.device.block_limit = 2;
    config.solver.device.threads_per_device = 1;  // one worker per device
    config.solver.pool_capacity = 8;
    static absq::serve::JobManager m(std::move(config));
    return &m;
  }();
  return *instance;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  const absq::serve::ProtocolReply reply =
      absq::serve::handle_request_line(manager(), line);
  if (!reply.reply.has("ok")) __builtin_trap();
  // Keep the job set bounded: anything the fuzzer managed to admit gets
  // cancelled right away.
  if (reply.reply.at("ok").as_bool() && reply.reply.has("id")) {
    try {
      const std::int64_t id = reply.reply.at("id").as_int();
      if (id >= 0) {
        (void)manager().cancel(static_cast<absq::serve::JobId>(id));
      }
    } catch (const absq::CheckError&) {
      // Already terminal or a non-submit reply carrying an id — fine.
    }
  }
  return 0;
}
