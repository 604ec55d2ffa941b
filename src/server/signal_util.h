#ifndef CAD_SERVER_SIGNAL_UTIL_H_
#define CAD_SERVER_SIGNAL_UTIL_H_

#include "common/status.h"

namespace cad::server {

/// \file
/// The repo's single sanctioned signal-handling surface (a cad_lint rule
/// bans raw signal()/sigaction() everywhere else). Stop requests — SIGINT,
/// SIGTERM, or a programmatic RequestStop — all funnel into one process-wide
/// flag plus a self-pipe wakeup, so blocking loops (poll, accept, stream
/// reads) and polling loops (per-window flag checks) share one drain path.
///
/// The handler itself touches only lock-free atomics and write() on the
/// self-pipe, the async-signal-safe minimum.

/// Installs the stop handler for SIGINT and SIGTERM and creates the
/// self-pipe. Idempotent. Handlers are installed without SA_RESTART so
/// blocking syscalls return EINTR and their loops re-check StopRequested().
[[nodiscard]] Status InstallStopSignalHandlers();

/// True once a stop signal arrived (or RequestStop was called).
bool StopRequested();

/// The signal number that requested the stop (0 before any request;
/// programmatic requests report the signo they passed).
int StopSignal();

/// Readable end of the self-pipe: poll()/select() on it to sleep until a
/// stop request. Non-blocking; -1 before InstallStopSignalHandlers.
int StopWakeupFd();

/// Raises the stop flag from normal (non-handler) code — the socket
/// server's shutdown frame uses this so remote shutdown and SIGTERM drain
/// through identical code.
void RequestStop(int signo);

}  // namespace cad::server

#endif  // CAD_SERVER_SIGNAL_UTIL_H_
