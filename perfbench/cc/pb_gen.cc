// pb_gen — seeded input generator for the benchmark workloads.
//
// Writes one workload's event files plus ground truth into --out, using the
// repository's own datagen:
//
//   stream_incremental  events.txt: MakeRmatTemporalSequence (jitter 0,
//                       --rewire churn per window, one uniform-rewire burst
//                       at the middle window); truth.txt: the burst's
//                       added edges.
//   stream_rebuild      events.txt: each window an independent raw R-MAT
//                       sample (duplicate draws kept) plus a burst of
//                       uniform edges in the middle window; truth.txt.
//   server_fleet        tenant_NNN.txt: one Enron-style organization stream
//                       per tenant, each with its own seed.
//
// Every file also gets meta.json (node/window/event counts, the anomaly
// transitions). Output bytes depend only on the flags, so the same seed
// gives the same files.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "datagen/enron_sim.h"
#include "datagen/rmat.h"

namespace cad {
namespace {

struct Written {
  size_t events = 0;
};

void WriteEvent(std::ostream& out, NodeId u, NodeId v, size_t window,
                double weight, Written* written) {
  out << u << " " << v << " " << (static_cast<double>(window) + 0.5) << " "
      << weight << "\n";
  ++written->events;
}

Status WriteSequence(const TemporalGraphSequence& sequence,
                     const std::string& path, Written* written) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out.precision(17);
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    for (const Edge& e : sequence.Snapshot(t).Edges()) {
      WriteEvent(out, e.u, e.v, t, e.weight, written);
    }
  }
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

Status WriteTruth(const std::vector<Edge>& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  for (const Edge& e : edges) out << e.u << " " << e.v << "\n";
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

/// `anomaly_transitions` lists the transitions whose reports must name the
/// injected edges' endpoints.
Status WriteMeta(const std::string& path, size_t num_nodes, size_t windows,
                 size_t events, const std::vector<size_t>& anomaly_transitions,
                 size_t tenants) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "{\"num_nodes\": " << num_nodes << ", \"windows\": " << windows
      << ", \"events\": " << events << ", \"anomaly_transitions\": [";
  for (size_t i = 0; i < anomaly_transitions.size(); ++i) {
    out << (i > 0 ? ", " : "") << anomaly_transitions[i];
  }
  out << "], \"tenants\": " << tenants << "}\n";
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

int Run(int argc, char** argv) {
  FlagParser flags;
  // Every size flag is required by the workload that reads it: the workload
  // table in run.py is the one place the sizes are set.
  std::string workload;
  std::string out_dir;
  int64_t seed = -1;
  int64_t num_nodes = -1;
  int64_t edges_per_node = -1;
  int64_t windows = -1;
  double rewire = -1.0;
  double anomaly_fraction = -1.0;
  int64_t burst_edges = -1;
  double burst_weight = -1.0;
  int64_t tenants = -1;
  int64_t employees = -1;
  flags.AddString("workload", &workload,
                  "stream_incremental, stream_rebuild or server_fleet");
  flags.AddString("out", &out_dir, "existing output directory");
  flags.AddInt64("seed", &seed, "workload seed");
  flags.AddInt64("num_nodes", &num_nodes, "R-MAT node count (streams)");
  flags.AddInt64("edges_per_node", &edges_per_node,
                 "R-MAT edges (or raw draws) per node per window (streams)");
  flags.AddInt64("windows", &windows, "windows per stream");
  flags.AddDouble("rewire", &rewire,
                  "stream_incremental: fraction of edges rewired per window");
  flags.AddDouble("anomaly_fraction", &anomaly_fraction,
                  "stream_incremental: fraction of edges in the burst");
  flags.AddInt64("burst_edges", &burst_edges,
                 "stream_rebuild: uniform edges injected mid-stream");
  flags.AddDouble("burst_weight", &burst_weight,
                  "stream_rebuild: weight of each injected edge");
  flags.AddInt64("tenants", &tenants, "server_fleet: tenant count");
  flags.AddInt64("employees", &employees, "server_fleet: nodes per tenant");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  const bool stream = workload != "server_fleet";
  const bool valid =
      !out_dir.empty() && seed >= 0 && windows >= 3 &&
      (stream ? num_nodes >= 2 && edges_per_node >= 1
              : tenants >= 1 && employees >= 60 && windows >= 42) &&
      (workload != "stream_incremental" ||
       (rewire >= 0.0 && anomaly_fraction > 0.0)) &&
      (workload != "stream_rebuild" || (burst_edges >= 1 && burst_weight > 0.0));
  if (!valid) {
    std::cerr << "pb_gen: need --out, --seed >= 0, --windows >= 3 and the "
                 "workload's flags: stream_incremental --num_nodes "
                 "--edges_per_node --rewire --anomaly_fraction; "
                 "stream_rebuild --num_nodes --edges_per_node --burst_edges "
                 "--burst_weight; server_fleet --tenants --employees >= 60 "
                 "--windows >= 42 (the org simulator's script)\n";
    return 2;
  }
  const auto n = static_cast<size_t>(num_nodes);
  const auto t_count = static_cast<size_t>(windows);
  const size_t anomaly = t_count / 2;
  Written written;
  Status status = Status::OK();

  if (workload == "stream_incremental") {
    RmatTemporalOptions options;
    options.base.num_nodes = n;
    options.base.num_edges = n * static_cast<size_t>(edges_per_node);
    options.base.seed = static_cast<uint64_t>(seed);
    options.num_snapshots = t_count;
    options.jitter = 0.0;
    options.rewire_fraction = rewire;
    options.anomaly_snapshot = anomaly;
    options.anomaly_fraction = anomaly_fraction;
    std::vector<Edge> injected;
    Result<TemporalGraphSequence> sequence =
        MakeRmatTemporalSequence(options, &injected);
    status = sequence.status();
    if (status.ok()) {
      status = WriteSequence(*sequence, out_dir + "/events.txt", &written);
    }
    // `injected` lists the burst's deleted edges, then as many added uniform
    // edges. Only the added ones are truth: uniform edges cut across the
    // degree structure, which is what the commute-time score separates,
    // while the deleted ones are power-law edges like those the background
    // churn removes.
    if (status.ok()) {
      const std::vector<Edge> added(
          injected.begin() + static_cast<std::ptrdiff_t>(injected.size() / 2),
          injected.end());
      status = WriteTruth(added, out_dir + "/truth.txt");
    }
  } else if (workload == "stream_rebuild") {
    std::ofstream out(out_dir + "/events.txt");
    out.precision(17);
    const size_t draws = n * static_cast<size_t>(edges_per_node);
    std::vector<Edge> injected;
    for (size_t t = 0; t < t_count; ++t) {
      RmatOptions options;
      options.num_nodes = n;
      options.num_edges = draws;
      options.seed = static_cast<uint64_t>(seed) * 1000003u + t;
      for (const Edge& e : RmatEdgeSamples(options, draws)) {
        WriteEvent(out, e.u, e.v, t, e.weight, &written);
      }
      if (t == anomaly) {
        Rng rng(static_cast<uint64_t>(seed) ^ 0x5bd1e9955bd1e995ULL);
        while (injected.size() < static_cast<size_t>(burst_edges)) {
          const auto u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
          const auto v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
          if (u == v) continue;
          injected.push_back(Edge{std::min(u, v), std::max(u, v), 1.0});
          WriteEvent(out, u, v, t, burst_weight, &written);
        }
      }
    }
    status = out.good() ? Status::OK() : Status::IoError("events write failed");
    if (status.ok()) status = WriteTruth(injected, out_dir + "/truth.txt");
  } else if (workload == "server_fleet") {
    size_t months = 0;
    size_t nodes = 0;
    for (int64_t i = 0; i < tenants && status.ok(); ++i) {
      EnronSimOptions options;
      options.num_employees = static_cast<size_t>(employees);
      options.num_months = t_count;
      options.seed = static_cast<uint64_t>(seed) * 7919u +
                     static_cast<uint64_t>(i);
      const EnronSimData data = MakeEnronStyleData(options);
      months = data.sequence.num_snapshots();
      nodes = data.sequence.num_nodes();
      char name[32];
      std::snprintf(name, sizeof(name), "/tenant_%03d.txt",
                    static_cast<int>(i));
      status = WriteSequence(data.sequence, out_dir + name, &written);
    }
    if (status.ok()) {
      status = WriteMeta(out_dir + "/meta.json", nodes, months,
                         written.events, {}, static_cast<size_t>(tenants));
    }
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    return 0;
  } else {
    std::cerr << "unknown --workload '" << workload << "'\n";
    return 2;
  }
  if (status.ok()) {
    // The R-MAT sequence keeps the rewired edges, so only the transition
    // into the burst window changes; the raw-sample burst exists in one
    // window only, so the transition out of it changes too.
    std::vector<size_t> transitions = {anomaly - 1};
    if (workload == "stream_rebuild") transitions.push_back(anomaly);
    status = WriteMeta(out_dir + "/meta.json", n, t_count, written.events,
                       transitions, 0);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
