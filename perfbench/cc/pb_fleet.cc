// pb_fleet — the benchmark's open-loop protocol client for cad_server.
//
// One process, two connections, three threads: a sender, a reply reader on
// the sender's connection, and a poller on the second connection.
//
//  1. Set-up: connect (retrying every 100 us until the server listens),
//     kPing, then kOpen every tenant, pipelined. Set-up time is measured
//     from --t0_ns, the CLOCK_MONOTONIC time at which the caller spawned
//     cad_server. --setup_only stops here.
//  2. Load: each tenant file '<u> <v> <t> <w>' is split into batches of
//     --batch events. Every tenant offers --rate / tenants events per second
//     from its own phase within one window period, so the fleet receives
//     --rate events per second with the tenants' window ends spread evenly.
//     The sender writes each batch when it is due and does not wait for the
//     reply; the reader matches replies to requests in order (the server
//     answers a connection's requests in order). The loop is open across
//     tenants. Within a tenant, a batch waits until the tenant's previous
//     batch is accepted, because the server must see a tenant's events in
//     order. A kRejected batch (backpressure) is resent 1 ms later while the
//     other tenants' batches go out on schedule; the windows it closes count
//     as late. Send lag is the time from a batch's due time to its first
//     send, and every latency is timed from the due time, so a stall counts
//     against later requests. After the last batch is accepted every tenant
//     gets kFinish; the run ends at the last kFinish reply.
//  3. Poll: every --poll_us the poller asks kStats for each tenant that has a
//     window whose closing batch was accepted but not yet seen observed. The
//     window latency is the time from the due time of the batch holding the
//     first event past the window until the reply in which the tenant's
//     'windows' counter passes it. Every --fleet_poll_ms it samples the fleet
//     summary's pending_events.
//
// Results (raw samples; percentiles are computed by the caller) go to --out
// as JSON.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json_writer.h"
#include "server/protocol.h"

namespace cad {
namespace {

using server::Frame;
using server::MessageType;
using server::WireEvent;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Result<int> Connect(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("cannot connect to " + path);
  }
  return fd;
}

Result<int> ConnectWithRetry(const std::string& path, int64_t timeout_ms) {
  const int64_t deadline = NowNs() + timeout_ms * 1000000;
  while (true) {
    Result<int> fd = Connect(path);
    if (fd.ok() || NowNs() > deadline) return fd;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Result<Frame> Call(int fd, MessageType type, const std::string& payload) {
  CAD_RETURN_NOT_OK(server::WriteFrame(fd, type, payload));
  std::optional<Frame> reply;
  CAD_ASSIGN_OR_RETURN(reply, server::ReadFrame(fd));
  if (!reply.has_value()) return Status::IoError("server closed connection");
  return *reply;
}

/// The number following `"key":` in `json` at or after `from`; NaN if absent.
double JsonNumber(const std::string& json, const std::string& key,
                  size_t from = 0) {
  const size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

Result<std::string> TenantStats(int fd, const std::string& tenant) {
  Frame reply;
  CAD_ASSIGN_OR_RETURN(reply, Call(fd, MessageType::kStats,
                                   server::EncodeTenant(tenant)));
  if (reply.type != MessageType::kStatsReply) {
    return Status::Internal("kStats: unexpected reply");
  }
  return server::DecodeText(reply.payload);
}

struct Batch {
  size_t tenant = 0;
  size_t index = 0;  // batch index within the tenant
  std::vector<WireEvent> events;
  int64_t due_offset_ns = 0;
};

/// A window of one tenant whose end is marked by the first event of a later
/// window; `batch` is the tenant-local batch holding that event.
struct Closure {
  size_t tenant = 0;
  size_t window = 0;
  size_t batch = 0;
  int64_t due_ns = 0;  // absolute, filled when the run starts
  double latency_ms = -1.0;
  bool forced_late = false;
};

struct TenantState {
  std::atomic<size_t> accepted{0};
  std::atomic<bool> failed{false};
};

/// A request written on the sender's connection and not yet answered.
struct Outstanding {
  size_t tenant = 0;
  size_t q = 0;  // schedule index of the batch (kEvents only)
  int64_t sent_ns = 0;
};

struct Completion {
  Outstanding request;
  MessageType reply = MessageType::kError;
  int64_t received_ns = 0;
};

/// Hand-off between the sender and the reader of the sender's connection.
/// The reader waits for `outstanding` to be non-empty before it reads, so it
/// never blocks on a connection with nothing to answer.
struct Replies {
  std::mutex mu;
  std::condition_variable to_sender;
  std::condition_variable to_reader;
  std::deque<Outstanding> outstanding;
  std::deque<Completion> completions;
  bool stop = false;
  std::string error;
};

/// The sender's view of one tenant: batches that are due but not yet
/// accepted, in order. The front one is in flight when `busy`, and is
/// resent at `retry_at` (if non-zero) after a kRejected reply.
struct SenderTenant {
  std::deque<size_t> ready;
  bool busy = false;
  int64_t retry_at = 0;
};

Status LoadTenant(const std::string& path, size_t tenant, size_t batch_size,
                  std::vector<std::vector<Batch>>* batches,
                  std::vector<Closure>* closures, size_t* events) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::vector<Batch>& mine = (*batches)[tenant];
  std::string line;
  int64_t current_window = -1;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    WireEvent event;
    if (!(fields >> event.u >> event.v >> event.timestamp >> event.weight)) {
      return Status::InvalidArgument("bad event line in " + path);
    }
    const auto window = static_cast<int64_t>(std::floor(event.timestamp));
    if (mine.empty() || mine.back().events.size() >= batch_size) {
      mine.push_back(Batch{tenant, mine.size(), {}, 0});
    }
    if (current_window >= 0 && window > current_window) {
      closures->push_back(Closure{tenant, static_cast<size_t>(current_window),
                                  mine.size() - 1, 0, -1.0, false});
    }
    current_window = window;
    mine.back().events.push_back(std::move(event));
    ++*events;
  }
  return Status::OK();
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string socket_path;
  std::string dir;
  std::string out_path;
  int64_t tenants = 0;
  double rate = 0.0;
  int64_t batch_size = 64;
  int64_t poll_us = 250;
  int64_t fleet_poll_ms = 50;
  int64_t t0_ns = 0;
  bool setup_only = false;
  flags.AddString("socket", &socket_path, "cad_server socket path");
  flags.AddString("dir", &dir, "directory of tenant_NNN.txt files");
  flags.AddString("out", &out_path, "results JSON");
  flags.AddInt64("tenants", &tenants, "tenant count");
  flags.AddDouble("rate", &rate, "offered events per second");
  flags.AddInt64("batch", &batch_size, "events per kEvents request");
  flags.AddInt64("poll_us", &poll_us, "tenant kStats polling period (us)");
  flags.AddInt64("fleet_poll_ms", &fleet_poll_ms,
                 "fleet-summary sampling period");
  flags.AddInt64("t0_ns", &t0_ns,
                 "CLOCK_MONOTONIC ns at which cad_server was spawned");
  flags.AddBool("setup_only", &setup_only, "stop after ping + open");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || socket_path.empty() || out_path.empty() ||
      tenants < 1 || batch_size < 1 || poll_us < 1 || fleet_poll_ms < 1 ||
      (!setup_only && (dir.empty() || !(rate > 0.0)))) {
    std::cerr << parsed.ToString() << "\npb_fleet: need --socket, --out, "
                 "--tenants >= 1, and --dir/--rate > 0 unless --setup_only\n"
              << flags.Usage();
    return 2;
  }
  const auto n_tenants = static_cast<size_t>(tenants);
  std::vector<std::string> names(n_tenants);
  for (size_t i = 0; i < n_tenants; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "t%03zu", i);
    names[i] = name;
  }

  // --- set-up -------------------------------------------------------------
  Result<int> sender_fd = ConnectWithRetry(socket_path, 20000);
  if (!sender_fd.ok()) {
    std::cerr << sender_fd.status().ToString() << "\n";
    return 1;
  }
  const int fd = *sender_fd;
  Result<Frame> pong = Call(fd, MessageType::kPing, "");
  if (!pong.ok() || pong->type != MessageType::kOk) {
    std::cerr << "kPing failed\n";
    return 1;
  }
  // The kOpen requests are written together and answered in order, so the
  // set-up time is the server's work, not one thread wake-up per tenant.
  for (const std::string& name : names) {
    if (!server::WriteFrame(fd, MessageType::kOpen, server::EncodeTenant(name))
             .ok()) {
      std::cerr << "kOpen " << name << ": write failed\n";
      return 1;
    }
  }
  for (const std::string& name : names) {
    Result<std::optional<Frame>> opened = server::ReadFrame(fd);
    if (!opened.ok() || !opened->has_value() ||
        (*opened)->type != MessageType::kOpenOk) {
      std::cerr << "kOpen " << name << " failed\n";
      return 1;
    }
  }
  const int64_t setup_ns = NowNs() - t0_ns;
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("setup_s");
  json.Number(static_cast<double>(setup_ns) / 1e9);
  if (setup_only) {
    json.EndObject();
    out << "\n";
    ::close(fd);
    return out.good() ? 0 : 1;
  }

  // --- load ---------------------------------------------------------------
  std::vector<std::vector<Batch>> per_tenant(n_tenants);
  std::vector<Closure> closures;
  size_t total_events = 0;
  for (size_t i = 0; i < n_tenants; ++i) {
    char file[48];
    std::snprintf(file, sizeof(file), "/tenant_%03zu.txt", i);
    const Status loaded = LoadTenant(dir + file, i,
                                     static_cast<size_t>(batch_size),
                                     &per_tenant, &closures, &total_events);
    if (!loaded.ok()) {
      std::cerr << loaded.ToString() << "\n";
      return 1;
    }
  }
  // Every tenant offers rate / tenants events per second, starting at its
  // own phase within one mean window period. Tenants that advanced in
  // lockstep would all close a window at once, and the fleet's tail
  // latency would then depend on how those bursts happen to line up.
  const double tenant_rate = rate / static_cast<double>(n_tenants);
  std::vector<Batch*> schedule;
  for (size_t i = 0; i < n_tenants; ++i) {
    size_t tenant_events = 0;
    for (const Batch& batch : per_tenant[i]) {
      tenant_events += batch.events.size();
    }
    size_t windows = 1;
    for (const Closure& closure : closures) windows += closure.tenant == i;
    const double period_s = static_cast<double>(tenant_events) /
                            static_cast<double>(windows) / tenant_rate;
    const double phase_s = period_s * static_cast<double>(i) /
                           static_cast<double>(n_tenants);
    size_t cumulative = 0;
    for (Batch& batch : per_tenant[i]) {
      batch.due_offset_ns = static_cast<int64_t>(
          (phase_s + static_cast<double>(cumulative) / tenant_rate) * 1e9);
      cumulative += batch.events.size();
      schedule.push_back(&batch);
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Batch* a, const Batch* b) {
                     return a->due_offset_ns < b->due_offset_ns;
                   });

  Result<int> poller_fd = Connect(socket_path);
  if (!poller_fd.ok()) {
    std::cerr << poller_fd.status().ToString() << "\n";
    return 1;
  }
  std::vector<TenantState> state(n_tenants);
  std::vector<std::vector<size_t>> closures_of(n_tenants);
  for (size_t c = 0; c < closures.size(); ++c) {
    closures_of[closures[c].tenant].push_back(c);
  }

  const int64_t start_ns = NowNs() + 5000000;
  for (Closure& closure : closures) {
    closure.due_ns =
        start_ns + per_tenant[closure.tenant][closure.batch].due_offset_ns;
  }
  // Windows whose closing batch was rejected at least once; written by the
  // sender before it bumps `accepted`, read by the poller after.
  std::vector<std::atomic<bool>> rejected_batch_flags(schedule.size());
  std::vector<std::vector<size_t>> schedule_pos(n_tenants);
  for (size_t q = 0; q < schedule.size(); ++q) {
    schedule_pos[schedule[q]->tenant].push_back(q);
  }

  std::atomic<bool> sender_done{false};
  std::vector<std::pair<double, double>> pending_samples;
  std::string poller_error;
  std::thread poller([&] {
    const int pfd = *poller_fd;
    std::vector<size_t> next_open(n_tenants, 0);  // first unresolved closure
    int64_t next_fleet = 0;
    while (true) {
      const int64_t cycle = NowNs();
      bool outstanding = false;
      for (size_t i = 0; i < n_tenants; ++i) {
        const std::vector<size_t>& mine = closures_of[i];
        if (next_open[i] >= mine.size()) continue;
        outstanding = true;
        if (state[i].failed.load() && sender_done.load()) {
          // A failed tenant never observes its remaining windows: late.
          for (; next_open[i] < mine.size(); ++next_open[i]) {
            closures[mine[next_open[i]]].forced_late = true;
          }
          continue;
        }
        const size_t accepted = state[i].accepted.load();
        if (closures[mine[next_open[i]]].batch >= accepted) continue;
        Result<std::string> stats = TenantStats(pfd, names[i]);
        const int64_t seen = NowNs();
        if (!stats.ok()) {
          poller_error = stats.status().ToString();
          return;
        }
        const double windows = JsonNumber(*stats, "windows");
        while (next_open[i] < mine.size() &&
               static_cast<double>(closures[mine[next_open[i]]].window) <
                   windows) {
          Closure& closure = closures[mine[next_open[i]]];
          closure.latency_ms =
              static_cast<double>(seen - closure.due_ns) / 1e6;
          const size_t q = schedule_pos[i][closure.batch];
          closure.forced_late =
              rejected_batch_flags[q].load() || state[i].failed.load();
          ++next_open[i];
        }
      }
      if (cycle >= next_fleet) {
        Result<std::string> fleet = TenantStats(pfd, "");
        if (fleet.ok()) {
          pending_samples.emplace_back(
              static_cast<double>(NowNs() - start_ns) / 1e9,
              JsonNumber(*fleet, "pending_events"));
        }
        next_fleet = cycle + fleet_poll_ms * 1000000;
      }
      if (!outstanding && sender_done.load()) return;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(cycle + poll_us * 1000)));
    }
  });

  Replies replies;
  std::thread reader([&] {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(replies.mu);
        replies.to_reader.wait(lock, [&] {
          return replies.stop || !replies.outstanding.empty();
        });
        if (replies.outstanding.empty()) return;
      }
      Result<std::optional<Frame>> frame = server::ReadFrame(fd);
      const int64_t received = NowNs();
      const std::lock_guard<std::mutex> lock(replies.mu);
      if (!frame.ok() || !frame->has_value()) {
        replies.error = frame.ok() ? "server closed connection"
                                   : frame.status().ToString();
        replies.to_sender.notify_all();
        return;
      }
      replies.completions.push_back(
          Completion{replies.outstanding.front(), (*frame)->type, received});
      replies.outstanding.pop_front();
      replies.to_sender.notify_all();
    }
  });
  const auto stop_threads = [&] {
    {
      const std::lock_guard<std::mutex> lock(replies.mu);
      replies.stop = true;
    }
    replies.to_reader.notify_all();
    sender_done.store(true);
    reader.join();
    poller.join();
  };
  const auto abort_run = [&](const std::string& why) {
    std::cerr << why << "\n";
    // Unblocks a reader or poller waiting on the server.
    ::shutdown(fd, SHUT_RDWR);
    ::shutdown(*poller_fd, SHUT_RDWR);
    stop_threads();
    return 1;
  };

  std::vector<double> rtt_ms;
  std::vector<double> lag_ms;
  size_t requests = 0;
  size_t rejections = 0;
  size_t errors = 0;
  rtt_ms.reserve(schedule.size());
  lag_ms.reserve(schedule.size());
  int64_t first_send_ns = 0;
  std::string send_error;
  const auto send = [&](const Outstanding& request, MessageType type,
                        const std::string& payload) {
    {
      const std::lock_guard<std::mutex> lock(replies.mu);
      replies.outstanding.push_back(request);
    }
    replies.to_reader.notify_one();
    const Status written = server::WriteFrame(fd, type, payload);
    if (!written.ok()) send_error = written.ToString();
    return written.ok();
  };
  const auto send_batch = [&](size_t q) {
    const Batch& batch = *schedule[q];
    const std::string payload =
        server::EncodeEvents(names[batch.tenant], batch.events);
    const int64_t sent = NowNs();
    if (first_send_ns == 0) first_send_ns = sent;
    ++requests;
    return send(Outstanding{batch.tenant, q, sent},
                MessageType::kEvents, payload);
  };
  // Waits for replies or until `wake_ns`, and moves the replies received
  // into `completed`; false once the reader has failed.
  std::vector<Completion> completed;
  const auto collect = [&](int64_t wake_ns) -> bool {
    completed.clear();
    std::unique_lock<std::mutex> lock(replies.mu);
    replies.to_sender.wait_until(
        lock, Clock::time_point(std::chrono::nanoseconds(wake_ns)), [&] {
          return !replies.completions.empty() || !replies.error.empty();
        });
    if (!replies.error.empty()) return false;
    completed.assign(replies.completions.begin(), replies.completions.end());
    replies.completions.clear();
    return true;
  };

  std::vector<SenderTenant> sender(n_tenants);
  size_t next_due = 0;
  int64_t wake = start_ns;
  while (true) {
    if (!collect(wake)) return abort_run("reader: " + replies.error);
    const int64_t now = NowNs();
    for (const Completion& done : completed) {
      const Outstanding& request = done.request;
      SenderTenant& mine = sender[request.tenant];
      rtt_ms.push_back(static_cast<double>(done.received_ns -
                                           request.sent_ns) / 1e6);
      if (done.reply == MessageType::kAccepted) {
        state[request.tenant].accepted.store(schedule[request.q]->index + 1);
        mine.ready.pop_front();
        mine.busy = false;
      } else if (done.reply == MessageType::kRejected) {
        ++rejections;
        rejected_batch_flags[request.q].store(true);
        mine.retry_at = now + 1000000;
      } else {
        ++errors;
        state[request.tenant].failed.store(true);
        mine.ready.clear();
        mine.busy = false;
      }
    }
    for (; next_due < schedule.size() &&
           start_ns + schedule[next_due]->due_offset_ns <= now;
         ++next_due) {
      const size_t tenant = schedule[next_due]->tenant;
      if (!state[tenant].failed.load()) sender[tenant].ready.push_back(next_due);
    }
    wake = next_due < schedule.size()
               ? start_ns + schedule[next_due]->due_offset_ns
               : now + 100000000;
    bool idle = next_due == schedule.size();
    for (SenderTenant& mine : sender) {
      if (mine.retry_at != 0 && mine.retry_at <= now) {
        mine.retry_at = 0;
        if (!send_batch(mine.ready.front())) return abort_run(send_error);
      } else if (!mine.busy && !mine.ready.empty()) {
        const size_t q = mine.ready.front();
        const int64_t due = start_ns + schedule[q]->due_offset_ns;
        lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
        mine.busy = true;
        if (!send_batch(q)) return abort_run(send_error);
      }
      if (mine.retry_at != 0) wake = std::min(wake, mine.retry_at);
      idle = idle && !mine.busy && mine.ready.empty();
    }
    if (idle) break;
  }
  size_t failed_tenants = 0;
  size_t finishes = 0;
  for (size_t i = 0; i < n_tenants; ++i) {
    if (state[i].failed.load()) {
      ++failed_tenants;
      continue;
    }
    ++finishes;
    if (!send(Outstanding{i, 0, NowNs()}, MessageType::kFinish,
              server::EncodeTenant(names[i]))) {
      return abort_run(send_error);
    }
  }
  while (finishes > 0) {
    if (!collect(NowNs() + 100000000)) {
      return abort_run("reader: " + replies.error);
    }
    for (const Completion& done : completed) {
      --finishes;
      if (done.reply != MessageType::kOk) {
        ++errors;
        ++failed_tenants;
        state[done.request.tenant].failed.store(true);
      }
    }
  }
  const int64_t finish_ns = NowNs();
  stop_threads();
  if (!poller_error.empty()) {
    std::cerr << "poller: " << poller_error << "\n";
    return 1;
  }

  std::vector<double> tenant_p99;
  std::vector<double> tenant_cache;
  for (size_t i = 0; i < n_tenants; ++i) {
    Result<std::string> stats = TenantStats(*poller_fd, names[i]);
    if (!stats.ok()) {
      ++errors;
      continue;
    }
    const size_t latency_at = stats->find("\"latency_ms\":");
    tenant_p99.push_back(JsonNumber(*stats, "p99", latency_at));
    tenant_cache.push_back(JsonNumber(*stats, "cache_bytes"));
    if (stats->find("\"failed\":\"\"") == std::string::npos) ++failed_tenants;
  }
  ::close(*poller_fd);
  ::close(fd);

  const auto number_array = [&](const std::string& key,
                                const std::vector<double>& values) {
    json.Key(key);
    json.BeginArray();
    for (const double v : values) json.Number(v);
    json.EndArray();
  };
  json.Key("events");
  json.Number(total_events);
  json.Key("requests");
  json.Number(requests);
  json.Key("rejections");
  json.Number(rejections);
  json.Key("errors");
  json.Number(errors);
  json.Key("failed_tenants");
  json.Number(failed_tenants);
  json.Key("run_s");
  json.Number(static_cast<double>(finish_ns - first_send_ns) / 1e9);
  std::vector<double> latency;
  std::vector<double> forced;
  for (const Closure& closure : closures) {
    latency.push_back(closure.latency_ms);
    forced.push_back(closure.forced_late ? 1.0 : 0.0);
  }
  number_array("window_latency_ms", latency);
  number_array("window_forced_late", forced);
  number_array("rtt_ms", rtt_ms);
  number_array("send_lag_ms", lag_ms);
  std::vector<double> pending_t;
  std::vector<double> pending_v;
  for (const auto& [t, v] : pending_samples) {
    pending_t.push_back(t);
    pending_v.push_back(v);
  }
  number_array("pending_t_s", pending_t);
  number_array("pending_events", pending_v);
  number_array("tenant_p99_ms", tenant_p99);
  number_array("tenant_cache_bytes", tenant_cache);
  json.EndObject();
  out << "\n";
  return out.good() ? 0 : 1;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
