// Child-process hygiene for the server fleet: launch, readiness from the
// port file, per-process /proc sampling, and kill-and-reap on every exit
// path (normal return, error, or SIGINT/SIGTERM/SIGHUP).
#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

// Kills every live child and exits when the driver is interrupted. Children
// also receive SIGKILL if the driver dies without running any handler.
void InstallSignalCleanup();

class Fleet {
 public:
  Fleet() = default;
  ~Fleet() { StopAll(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Starts `argv` with stdout and stderr appended to `log_path`. Call from
  // the main thread only: children are tied to the launching thread's life.
  blink::Result<pid_t> Launch(const std::vector<std::string>& argv,
                              const std::string& log_path);

  // Waits until `port_file` holds a complete port line. Fails when `pid`
  // exits first or `timeout_s` passes.
  blink::Result<uint16_t> AwaitPort(const std::string& port_file, pid_t pid,
                                    double timeout_s) const;

  // SIGKILLs and reaps every child this fleet started.
  void StopAll();

  const std::vector<pid_t>& pids() const { return pids_; }

  // Sums over the fleet: user+sys CPU seconds so far, and peak RSS in MB.
  // Fails if a process is gone.
  blink::Result<double> CpuSeconds() const;
  blink::Result<double> PeakRssMb() const;

 private:
  std::vector<pid_t> pids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
