#include "perfbench/procs.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "perfbench/metrics.h"

namespace perfbench {
namespace {

// Live children, readable from a signal handler.
constexpr int kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) {
      return;
    }
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) {
      return;
    }
  }
}

void KillChildrenAndExit(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ::_exit(128 + sig);
}

}  // namespace

void InstallSignalCleanup() {
  struct sigaction action {};
  action.sa_handler = KillChildrenAndExit;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) {
    ::sigaction(sig, &action, nullptr);
  }
  ::signal(SIGPIPE, SIG_IGN);
}

blink::Result<pid_t> Fleet::Launch(const std::vector<std::string>& argv,
                                   const std::string& log_path) {
  std::vector<char*> args;
  for (const auto& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) {
    return blink::Status::Internal("cannot open " + log_path);
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);  // the driver died before the tie was made
    }
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  if (pid < 0) {
    return blink::Status::Internal("fork failed");
  }
  Register(pid);
  pids_.push_back(pid);
  return pid;
}

blink::Result<uint16_t> Fleet::AwaitPort(const std::string& port_file, pid_t pid,
                                         double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      const long port = std::strtol(text.c_str(), nullptr, 10);
      if (port > 0 && port < 65536) {
        return static_cast<uint16_t>(port);
      }
      return blink::Status::Internal("bad port file " + port_file + ": " + text);
    }
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      Unregister(pid);
      return blink::Status::Internal("server " + std::to_string(pid) +
                                     " exited before writing " + port_file);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return blink::Status::DeadlineExceeded("no port in " + port_file);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void Fleet::StopAll() {
  for (pid_t pid : pids_) {
    ::kill(pid, SIGKILL);
  }
  for (pid_t pid : pids_) {
    ::waitpid(pid, nullptr, 0);
    Unregister(pid);
  }
  pids_.clear();
}

blink::Result<double> Fleet::CpuSeconds() const {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  double total = 0;
  for (pid_t pid : pids_) {
    const auto cpu = ParseStatCpuSeconds(ReadProcFile(pid, "stat"), ticks);
    if (!cpu.has_value()) {
      return blink::Status::Internal("no /proc stat for " + std::to_string(pid));
    }
    total += *cpu;
  }
  return total;
}

blink::Result<double> Fleet::PeakRssMb() const {
  double total = 0;
  for (pid_t pid : pids_) {
    const auto mb = ParseStatusPeakMb(ReadProcFile(pid, "status"));
    if (!mb.has_value()) {
      return blink::Status::Internal("no /proc status for " + std::to_string(pid));
    }
    total += *mb;
  }
  return total;
}

}  // namespace perfbench
