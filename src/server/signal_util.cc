#include "server/signal_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>

namespace cad::server {

namespace {

// Lock-free atomics are async-signal-safe (and, unlike a bare
// sig_atomic_t, race-free when RequestStop is called from another thread).
std::atomic<int> g_stop_requested{0};
std::atomic<int> g_stop_signal{0};
int g_wakeup_read = -1;
int g_wakeup_write = -1;

void StopHandler(int signo) {
  g_stop_signal.store(signo, std::memory_order_relaxed);
  g_stop_requested.store(1, std::memory_order_release);
  if (g_wakeup_write >= 0) {
    // The async-signal-safe wakeup: one byte down the self-pipe. A full
    // pipe (EAGAIN) is fine — a reader wake is already pending.
    const char byte = 1;
    const ssize_t ignored = ::write(g_wakeup_write, &byte, 1);
    (void)ignored;
  }
}

}  // namespace

Status InstallStopSignalHandlers() {
  if (g_wakeup_read < 0) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      return Status::IoError("signal_util: pipe() failed");
    }
    // Non-blocking on both ends: the handler must never block, and test
    // drains must not hang.
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
    g_wakeup_read = fds[0];
    g_wakeup_write = fds[1];
  }
  struct sigaction action = {};
  action.sa_handler = &StopHandler;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: blocking syscalls return EINTR so their loops re-check
  // StopRequested() instead of sleeping through the drain request.
  action.sa_flags = 0;
  if (::sigaction(SIGINT, &action, nullptr) != 0 ||
      ::sigaction(SIGTERM, &action, nullptr) != 0) {
    return Status::IoError("signal_util: sigaction() failed");
  }
  return Status::OK();
}

bool StopRequested() {
  return g_stop_requested.load(std::memory_order_acquire) != 0;
}

int StopSignal() { return g_stop_signal.load(std::memory_order_relaxed); }

int StopWakeupFd() { return g_wakeup_read; }

void RequestStop(int signo) { StopHandler(signo); }

}  // namespace cad::server
