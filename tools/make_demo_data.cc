// make_demo_data — writes sample datasets for cad_cli into a directory:
//   toy.tel        the paper's 17-node illustrative example (2 snapshots)
//   toy_names.txt  node names b1..b8, r1..r9 for --names
//   org.tel        an Enron-style simulated organization (48 months)
//   org_names.txt  role-based employee names
//   events.txt     org.tel re-expressed as timestamped events (cad_stream)
//   events_named.txt  the same events keyed by employee name instead of id
//                     (exercises the named-node ingestion path)
//   rmat_events.txt   a raw R-MAT edge-sample stream with power-law
//                     structure (duplicates kept; ingestion accumulates
//                     weight), spread over --rmat_snapshots windows — the
//                     small-scale stand-in for the million-node harness
//
//   make_demo_data --output_dir data
//   cad_cli --input data/toy.tel --method CAD --l 6 --edges_csv -

#include <fstream>
#include <iostream>

#include "common/flags.h"
#include "datagen/enron_sim.h"
#include "datagen/rmat.h"
#include "datagen/toy_example.h"
#include "io/temporal_io.h"

namespace cad {
namespace {

Status WriteNames(const std::vector<std::string>& names,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  for (const std::string& name : names) out << name << "\n";
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

// Re-expresses each snapshot t as events at timestamp t + 0.5, so that
// aggregating with --window 1 --start_time 0 reproduces the sequence
// exactly. This is the demo input for cad_stream. With `names`, endpoints
// are written as the node names instead of integer ids (the named-node
// ingestion demo: id i maps back to names[i] because ids are interned in
// first-appearance order and the first snapshot's edges are emitted in
// ascending id order).
Status WriteEventFile(const TemporalGraphSequence& sequence,
                      const std::vector<std::string>& names,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "# timestamped events: <u> <v> <timestamp> <weight>\n";
  out.precision(17);
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    const double timestamp = static_cast<double>(t) + 0.5;
    for (const Edge& e : sequence.Snapshot(t).Edges()) {
      if (names.empty()) {
        out << e.u << " " << e.v;
      } else {
        out << names[e.u] << " " << names[e.v];
      }
      out << " " << timestamp << " " << e.weight << "\n";
    }
  }
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

// Emits `samples` raw R-MAT draws split evenly across `snapshots` windows,
// each draw stamped mid-window (t + 0.5) like WriteEventFile. Duplicate
// draws are intentional: the event reader folds them by accumulating
// weight, which is exactly the raw-stream shape RmatEdgeSamples documents.
Status WriteRmatEventFile(const RmatOptions& options, size_t samples,
                          size_t snapshots, const std::string& path) {
  const std::vector<Edge> draws = RmatEdgeSamples(options, samples);
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << "# timestamped events: <u> <v> <timestamp> <weight>\n";
  out.precision(17);
  const size_t per_snapshot = (draws.size() + snapshots - 1) / snapshots;
  for (size_t i = 0; i < draws.size(); ++i) {
    const double timestamp = static_cast<double>(i / per_snapshot) + 0.5;
    out << draws[i].u << " " << draws[i].v << " " << timestamp << " "
        << draws[i].weight << "\n";
  }
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

struct DemoConfig {
  std::string output_dir = "data";
  int64_t employees = 151;
  int64_t months = 48;
  int64_t seed = 7;
  int64_t rmat_nodes = 200;
  int64_t rmat_samples = 4000;
  int64_t rmat_snapshots = 6;
};

// Rejects flag values the generators would otherwise CHECK-abort on.
Status ValidateConfig(const DemoConfig& config, RmatOptions* rmat) {
  if (config.employees < 60 || config.months < 42) {
    return Status::InvalidArgument(
        "--employees must be >= 60 and --months >= 42 (the organization "
        "simulator's minimums)");
  }
  if (config.rmat_nodes < 0 || config.rmat_samples < 1 ||
      config.rmat_snapshots < 1) {
    return Status::InvalidArgument(
        "--rmat_nodes must be >= 0, --rmat_samples and --rmat_snapshots "
        ">= 1");
  }
  rmat->num_nodes = static_cast<size_t>(config.rmat_nodes);
  rmat->num_edges = static_cast<size_t>(config.rmat_samples);  // bound only
  rmat->seed = static_cast<uint64_t>(config.seed);
  return ValidateRmatOptions(*rmat);
}

Status WriteDemoData(const DemoConfig& config, const RmatOptions& rmat) {
  const std::string& dir = config.output_dir;
  const ToyExample toy = MakeToyExample();
  CAD_RETURN_NOT_OK(WriteTemporalEdgeListFile(toy.sequence, dir + "/toy.tel"));
  CAD_RETURN_NOT_OK(WriteNames(toy.node_names, dir + "/toy_names.txt"));
  std::cout << "wrote " << dir << "/toy.tel (17 nodes, 2 snapshots)\n";

  EnronSimOptions sim;
  sim.num_employees = static_cast<size_t>(config.employees);
  sim.num_months = static_cast<size_t>(config.months);
  sim.seed = static_cast<uint64_t>(config.seed);
  const EnronSimData org = MakeEnronStyleData(sim);
  CAD_RETURN_NOT_OK(WriteTemporalEdgeListFile(org.sequence, dir + "/org.tel"));
  CAD_RETURN_NOT_OK(WriteNames(org.node_names, dir + "/org_names.txt"));
  CAD_RETURN_NOT_OK(WriteEventFile(org.sequence, {}, dir + "/events.txt"));
  CAD_RETURN_NOT_OK(WriteEventFile(org.sequence, org.node_names,
                                   dir + "/events_named.txt"));
  std::cout << "wrote " << dir << "/org.tel (" << config.employees
            << " nodes, " << config.months << " snapshots), events.txt, and "
            << "events_named.txt\n";
  std::cout << "ground-truth events in org.tel:\n";
  for (const OrgEvent& event : org.events) {
    std::cout << "  transition " << event.onset_transition << ": "
              << event.description << "\n";
  }

  CAD_RETURN_NOT_OK(WriteRmatEventFile(
      rmat, static_cast<size_t>(config.rmat_samples),
      static_cast<size_t>(config.rmat_snapshots), dir + "/rmat_events.txt"));
  std::cout << "wrote " << dir << "/rmat_events.txt (" << config.rmat_nodes
            << " nodes, " << config.rmat_samples << " draws, "
            << config.rmat_snapshots << " windows)\n";
  return Status::OK();
}

// Every failure — a bad flag, an out-of-range value, an unwritable
// --output_dir — prints the error and exits 1; none reaches an abort.
int Run(int argc, char** argv) {
  FlagParser flags;
  DemoConfig config;
  flags.AddString("output_dir", &config.output_dir,
                  "directory to write into (must exist)");
  flags.AddInt64("employees", &config.employees,
                 "organization size for org.tel (>= 60)");
  flags.AddInt64("months", &config.months, "months for org.tel (>= 42)");
  flags.AddInt64("seed", &config.seed, "simulator seed");
  flags.AddInt64("rmat_nodes", &config.rmat_nodes,
                 "node count for rmat_events.txt");
  flags.AddInt64("rmat_samples", &config.rmat_samples,
                 "raw R-MAT draws in rmat_events.txt (duplicates kept)");
  flags.AddInt64("rmat_snapshots", &config.rmat_snapshots,
                 "windows the R-MAT draws are spread over");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "make_demo_data: " << parsed.ToString() << "\n"
              << flags.Usage();
    return 1;
  }
  if (flags.help_requested()) return 0;
  RmatOptions rmat;
  Status status = ValidateConfig(config, &rmat);
  if (status.ok()) status = WriteDemoData(config, rmat);
  if (!status.ok()) {
    std::cerr << "make_demo_data: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
