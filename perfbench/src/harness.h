// Shared pieces of the repository benchmark: bench-side spans, output
// checks, the per-pass result record and the workload interface.
//
// The benchmark drives only public entry points of the stxbar library.
// Layers are measured from outside, by timing calls into each layer's
// public functions with the spans below; the program's own obs registry
// is read only for counts (and only while a traced pass enables it).
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "xbar/flow.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Spans, kept in memory and written out when the run ends.

struct span_record {
  std::string name;
  std::int64_t op = 0;  ///< the design/request the span belongs to
  int parent = -1;      ///< index of the enclosing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// A stage re-run through its public function on the same inputs, to
  /// time a layer that is reachable only inside another public call.
  bool replay = false;
};

class tracer {
 public:
  int open(const std::string& name, std::int64_t op, int parent, bool replay);
  void close(int index);

  /// Self time (duration minus the time covered by child spans) of every
  /// span, in seconds, grouped by span name.
  std::map<std::string, std::vector<double>> self_seconds() const;
  /// Summed duration of the outermost replay spans, in seconds.
  double replay_seconds() const;
  /// Chrome trace-event JSON of every span (op id as "tid").
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<span_record> spans_;
};

/// RAII span; a no-op when `tr` is null (untraced passes).
class scoped_span {
 public:
  scoped_span(tracer* tr, const std::string& name, std::int64_t op,
              int parent = -1, bool replay = false)
      : tr_(tr), index_(tr ? tr->open(name, op, parent, replay) : -1) {}
  ~scoped_span() {
    if (tr_ != nullptr) tr_->close(index_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  int index() const { return index_; }

 private:
  tracer* tr_;
  int index_;
};

// ---------------------------------------------------------------------
// Results.

struct pass_result {
  std::int64_t attempted = 0;  ///< designs produced (one op each)
  std::int64_t failed = 0;     ///< designs whose output check failed
  std::vector<std::string> errors;  ///< first few failure reasons
  double elapsed_s = 0.0;      ///< measured wall time, replays excluded
  /// The end-to-end figures of the pass, in speed-scaled host time
  /// (set_from_repetitions, or the workload's own rule).
  double designs_per_s = 0.0;
  double latency_ms_p50 = 0.0;
  std::int64_t latency_samples = 0;
  /// Set when the workload takes peak RSS at a fixed point of its work;
  /// 0 = the process high-water mark at the end of the run.
  double peak_rss_mb = 0.0;
  /// Counts that must repeat exactly between two traced passes.
  std::map<std::string, double> counts;
  /// Other per-layer values (gauges, ratios, derived times).
  std::map<std::string, double> layer;
  /// Workload-specific end-to-end figures printed beside the gated
  /// metrics: name -> (value, unit).
  std::vector<std::pair<std::string, std::pair<double, std::string>>> extra;

  void fail(const std::string& why);
};

/// Runs the body of one op. An exception it throws counts as a failed op
/// (out.fail) instead of ending the run; returns false when it threw.
template <typename Fn>
bool guarded(pass_result& out, const std::string& what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    out.fail(what + ": " + e.what());
    return false;
  }
}

/// The process's peak resident memory so far (ru_maxrss), in MB.
double peak_rss_mb();

/// Host speed on a shared machine swings by tens of percent over tens of
/// seconds with other tenants' load. Every timed op is therefore scaled
/// by speed_scale() taken right before it, and a pass whose ops cycle
/// over a fixed set of inputs times each input by the median of its
/// scaled repetitions (bench::time_reps's median-of-N):
/// designs_per_s = designs / sum of those medians, and latency_ms_p50 =
/// their median. `per_input` maps an input id to the scaled seconds of
/// each repetition.
void set_from_repetitions(
    const std::map<std::string, stx::obs::latency_accumulator>& per_input,
    double designs_per_op, pass_result& out);

/// Machine-speed probe: std::sort of a fixed pseudo-random array of 16K
/// keys (64 KiB, cache-resident; branchy integer work with loads and
/// stores), which shares no code or data with the library (about 1 ms
/// on an idle core). Returns kProbeNominalS divided by its measured
/// time: the factor that scales a host time taken next to it to a
/// machine on which the sort takes exactly kProbeNominalS. Over 180 s of
/// alternating paper flows and MILP syntheses, scaling by the sort cut
/// the spread of 15 s window medians from 3.8-4.1% to 1.6-1.7%; a
/// register-only arithmetic loop cut it only to 3.3-3.9%, likely
/// because one dependent chain does not feel a busy SMT sibling or
/// cache pressure.
double speed_scale();
inline constexpr double kProbeNominalS = 0.001;

/// Checks one produced design: no larger than the full crossbar, every
/// target bound to a bus id below num_buses, and an exact codec round
/// trip. Returns "" when it holds, else the reason. `report_bytes`
/// receives the encoded report size.
std::string check_report(const stx::xbar::flow_report& r,
                         std::int64_t* report_bytes = nullptr);

/// Counters and gauges of the obs registry, by name.
std::map<std::string, std::int64_t> obs_counts();

/// Adds the deterministic layer counters the library's obs registry
/// gained between two snapshots to `out.counts`.
void add_obs_counts(const std::map<std::string, std::int64_t>& before,
                    const std::map<std::string, std::int64_t>& after,
                    pass_result& out);

/// Replays phases 2-3 of one design through their public functions, as
/// children of `parent`: traffic.analyze (input_from_trace, both
/// directions), xbar.size_search (min_feasible_buses) and xbar.synthesize
/// (synthesize). Runs with obs off so the replay adds no counts. Returns
/// the replayed (request, response) designs for cross-checking.
std::pair<stx::xbar::crossbar_design, stx::xbar::crossbar_design>
replay_synthesis(const stx::xbar::collected_traces& traces,
                 const stx::xbar::flow_options& opts, tracer& tr,
                 std::int64_t op, int parent);

/// Table 2 total bus counts of the paper (Mat1 8, Mat2 6, FFT 15,
/// QSort 6, DES 6), by app_spec::name; -1 for any other app.
int paper_total_buses(const std::string& app);

// ---------------------------------------------------------------------
// Workloads.

class workload {
 public:
  virtual ~workload() = default;
  /// Builds the inputs from `seed` (repeatable: setup, teardown, setup).
  virtual void setup(std::uint64_t seed) = 0;
  virtual void teardown() {}
  /// Runs whole ops until `seconds` have elapsed, or exactly `ops` ops
  /// when ops > 0. `tr` is non-null in traced passes only.
  virtual pass_result run(double seconds, int ops, tracer* tr) = 0;
  /// Op count of one traced pass.
  virtual int traced_ops() const = 0;
  /// True when the workload keeps obs enabled in every pass.
  virtual bool forces_obs() const { return false; }
};

std::unique_ptr<workload> make_flow_paper();
std::unique_ptr<workload> make_sweep_grid();
std::unique_ptr<workload> make_synth_milp();
std::unique_ptr<workload> make_serve_mixed(const std::string& scratch_dir);

}  // namespace perfbench
