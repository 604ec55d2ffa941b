// cad_server — multi-tenant always-on anomaly service (DESIGN.md §13).
//
// A resident process that ingests many concurrent named-node event streams
// (tenant = stream) over a length-prefixed unix-socket protocol
// (src/server/protocol.h). Each tenant runs its own OnlineCadMonitor on a
// shared worker pool under a shared solver-cache memory budget; bounded
// per-tenant queues reject-with-status under backpressure (never a silent
// drop; see the `server.queue_rejections` metric); interval checkpoints use
// the standard v1/v2/v3 monitor format wrapped in a per-tenant envelope.
//
//   cad_server --socket /tmp/cad.sock --data_dir /var/lib/cad \
//              --window 1 --checkpoint_every 8 --workers 4
//
// Heartbeats, metrics, and anomaly-report tails are served over the same
// socket (kStats / kMetrics / kReport) from the src/obs registry, including
// per-tenant p99 window latency from timer histograms.
//
// Shutdown: SIGTERM (or a kShutdown frame) starts the graceful drain — stop
// accepting, flush every tenant's queue, checkpoint every tenant, exit 0.
// kill -9 loses nothing durable: on restart every tenant resumes from its
// envelope checkpoint, and a client replaying its stream reproduces the
// uninterrupted run's report CSV byte-identically.

#include <csignal>
#include <iostream>
#include <memory>
#include <string>

#include "app/stream_session.h"
#include "common/flags.h"
#include "obs/obs.h"
#include "server/fleet.h"
#include "server/signal_util.h"
#include "server/socket_server.h"

namespace cad {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string socket_path;
  std::string data_dir;
  int64_t workers = 4;
  int64_t cache_budget_mb = 0;
  int64_t queue_capacity = 4096;
  int64_t report_tail = 64;
  int64_t stats_every = 0;
  StreamSessionFlags stream_flags;
  stream_flags.checkpoint_every = 8;
  stream_flags.Register(&flags);
  flags.AddString("socket", &socket_path,
                  "unix-socket path the server listens on");
  flags.AddString("data_dir", &data_dir,
                  "directory for per-tenant checkpoints ('<name>.ckpt') and "
                  "report CSVs ('<name>.csv'); empty = no durable state");
  flags.AddInt64("workers", &workers,
                 "worker threads shared by all tenants (>= 1)");
  flags.AddInt64("cache_budget_mb", &cache_budget_mb,
                 "shared solver-cache budget across tenants in MiB; "
                 "least-recently-active idle tenants are evicted above it "
                 "(0 = unlimited)");
  flags.AddInt64("queue_capacity", &queue_capacity,
                 "per-tenant ingest-queue bound in events; full queues "
                 "reject batches with kRejected (client retries)");
  flags.AddInt64("report_tail", &report_tail,
                 "anomaly-report rows kept in memory per tenant for kReport");
  flags.AddInt64("stats_every", &stats_every,
                 "per-tenant heartbeat cadence in windows (0 disables); the "
                 "latest heartbeat line rides the kStats reply");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (socket_path.empty()) {
    std::cerr << "--socket is required\n" << flags.Usage();
    return 2;
  }
  if (workers < 1) {
    std::cerr << "--workers must be >= 1\n";
    return 2;
  }
  if (queue_capacity < 1) {
    std::cerr << "--queue_capacity must be >= 1\n";
    return 2;
  }
  if (stream_flags.checkpoint_every > 0 && data_dir.empty()) {
    std::cerr << "--checkpoint_every requires --data_dir (use "
                 "--checkpoint_every 0 for a stateless server)\n";
    return 2;
  }

  // Metrics are always on in the server: kMetrics/kStats queries and the
  // per-tenant latency histograms depend on the registry recording.
  obs::ResetMetrics();
  obs::SetMetricsEnabled(true);

  const Status signals = server::InstallStopSignalHandlers();
  if (!signals.ok()) {
    std::cerr << signals.ToString() << "\n";
    return 1;
  }

  server::FleetOptions fleet_options;
  fleet_options.num_workers = static_cast<size_t>(workers);
  fleet_options.cache_budget_bytes =
      static_cast<size_t>(cache_budget_mb) * (1u << 20);
  fleet_options.data_dir = data_dir;
  server::TenantOptions& tenant = fleet_options.tenant;
  tenant.queue_capacity_events = static_cast<size_t>(queue_capacity);
  tenant.report_tail_rows = static_cast<size_t>(report_tail);
  tenant.stats_every = static_cast<size_t>(stats_every);
  const Status applied = stream_flags.Apply(&tenant.session);
  if (!applied.ok()) {
    std::cerr << applied.message() << "\n";
    return 2;
  }

  Result<std::unique_ptr<server::TenantFleet>> fleet =
      server::TenantFleet::Create(std::move(fleet_options));
  if (!fleet.ok()) {
    std::cerr << fleet.status().ToString() << "\n";
    return 1;
  }
  // A restarted server resumes every checkpointed tenant before accepting
  // connections, so kill -9 -> restart is queryable immediately.
  const Status resumed = (*fleet)->ResumeAll();
  if (!resumed.ok()) {
    std::cerr << "tenant resume failed: " << resumed.ToString() << "\n";
    return 1;
  }

  Result<std::unique_ptr<server::SocketServer>> socket_server =
      server::SocketServer::Create(socket_path, fleet->get());
  if (!socket_server.ok()) {
    std::cerr << socket_server.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "cad_server listening on " << socket_path << " ("
            << (*fleet)->tenant_count() << " tenants resumed, " << workers
            << " workers)\n";

  const Status served = (*socket_server)->Serve();
  if (!served.ok()) {
    std::cerr << served.ToString() << "\n";
    return 1;
  }

  // Graceful drain (DESIGN.md §13): intake is already stopped; flush every
  // tenant's queue, checkpoint every tenant, then stop the workers. Exit 0
  // only when the drain completed cleanly.
  std::cerr << "draining " << (*fleet)->tenant_count() << " tenants (signal "
            << server::StopSignal() << ")\n";
  const Status drained = (*fleet)->DrainAll();
  (*fleet)->Stop();
  if (!drained.ok()) {
    std::cerr << "drain failed: " << drained.ToString() << "\n";
    return 1;
  }
  std::cerr << "drain complete\n";
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
