#include "flow/flow_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "fault/fault.hpp"
#include "flow/checkpoint.hpp"
#include "netlist/netlist_io.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace tmm::flow {

namespace fs = std::filesystem;

namespace {

// Same registry entry Framework::train uses for its failures; the two
// stages never count the same design twice (a design that failed to
// load never reaches training or modeling).
obs::Counter& g_designs_failed = obs::counter("flow.designs_failed");

std::string macro_out_path(const std::string& dir, const std::string& design) {
  return (fs::path(dir) / "out" / (sanitize_design_name(design) + ".macro"))
      .string();
}

/// Key-value completion record persisted as <dir>/results/<design>.res.
std::string compose_result(const DesignResult& r) {
  char buf[256];
  std::ostringstream os;
  os << "design " << r.design << "\nilm_pins " << r.gen.ilm_pins
     << "\nmodel_pins " << r.gen.model_pins << "\nmodel_bytes "
     << r.model_file_bytes << '\n';
  std::snprintf(buf, sizeof buf, "max_err_ps %.6g\navg_err_ps %.6g\n",
                r.acc.max_err_ps, r.acc.avg_err_ps);
  os << buf << "structural_mismatches " << r.acc.structural_mismatches
     << '\n';
  return os.str();
}

}  // namespace

FlowRunReport run_flow(const std::vector<std::string>& design_paths,
                       const std::string& dir, FlowConfig cfg,
                       const Library& lib,
                       const frontend::FrontendConfig& fcfg) {
  cfg.checkpoint_dir = dir;
  FlowRunReport report;

  // Stage 0: load every design, isolating parse/IO failures — one
  // malformed file must not discard the whole batch. The frontend
  // dispatches on extension: .blif/.v are imported, .dsn read directly
  // (against `lib` when its name matches, keeping baseline runs
  // bit-identical).
  std::vector<Design> designs;
  for (const std::string& path : design_paths) {
    try {
      designs.push_back(frontend::load_design_any(path, fcfg, &lib));
    } catch (const std::exception& e) {
      report.failed.push_back({path, e.what()});
      g_designs_failed.add();
      log_error("flow: cannot load %s, skipped: %s", path.c_str(), e.what());
    }
  }
  if (designs.empty())
    throw fault::FlowError(
        fault::ErrorCode::kUnavailable, "flow.run",
        design_paths.empty()
            ? std::string("no design files given")
            : "no loadable designs (first: " + report.failed.front().design +
                  ": " + report.failed.front().error + ")");

  // Checkpoint entries and macro outputs are keyed by sanitized design
  // name; duplicates would silently alias each other's files.
  {
    std::vector<std::string> keys;
    keys.reserve(designs.size());
    for (const Design& d : designs)
      keys.push_back(sanitize_design_name(d.name()));
    std::sort(keys.begin(), keys.end());
    const auto dup = std::adjacent_find(keys.begin(), keys.end());
    if (dup != keys.end())
      throw fault::FlowError(
          fault::ErrorCode::kConfig, "flow.run",
          "duplicate design name '" + *dup +
              "' — checkpoint and output files would alias (rename with "
              "gen-design --name)");
  }

  // Stages 1+2 with per-design isolation and checkpoint/resume inside
  // Framework::train; throws only when every design fails.
  Framework fw(cfg);
  report.training = fw.train(designs);

  // Framework's constructor normalizes cfg (AOCV propagation into the
  // sub-configs), so reopen with the *effective* config — the same
  // fingerprint train() stamped into MANIFEST.
  const Checkpoint ckpt = Checkpoint::open(dir, fw.config());
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "out", ec);
  if (ec)
    throw fault::FlowError(fault::ErrorCode::kIo, "flow.run",
                           "cannot create output directory: " + ec.message());

  // Stage 3 per design: failures are skipped with a diagnostic;
  // completed designs persist a result record, so a re-run resumes
  // past them without recomputation.
  for (const Design& d : designs) {
    const bool trained_ok = [&] {
      for (const DesignFailure& f : report.training.failed)
        if (f.design == d.name()) return false;
      return true;
    }();
    if (!trained_ok) continue;  // already reported by training
    if (ckpt.has_result(d.name())) {
      DesignOutcome o;
      o.design = d.name();
      o.from_checkpoint = true;
      o.macro_path = macro_out_path(dir, d.name());
      o.record = ckpt.load_result(d.name()).value_or("");
      report.completed.push_back(std::move(o));
      log_info("flow: design %s already completed, skipped (resume)",
               d.name().c_str());
      continue;
    }
    try {
      DesignOutcome o;
      o.design = d.name();
      o.macro_path = macro_out_path(dir, d.name());
      const DesignResult r = fw.run_design(d, o.macro_path);
      o.record = compose_result(r);
      ckpt.save_result(d.name(), o.record);
      report.completed.push_back(std::move(o));
    } catch (const std::exception& e) {
      report.failed.push_back({d.name(), e.what()});
      g_designs_failed.add();
      log_error("flow: design %s failed, skipped: %s", d.name().c_str(),
                e.what());
    }
  }

  if (report.completed.empty())
    throw fault::FlowError(
        fault::ErrorCode::kUnavailable, "flow.run",
        "every design failed modeling (first: " +
            report.failed.front().design + ": " +
            report.failed.front().error + ")");
  return report;
}

}  // namespace tmm::flow
