#include "testkit/scenario.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace stx::testkit {

void scenario::validate() const {
  // Upper bounds keep every decoded scenario actually runnable: without
  // them an absurd field (e.g. burst=2^33) would overflow downstream
  // arithmetic and silently simulate a DIFFERENT app than the seed
  // string claims, breaking the reproduction contract.
  STX_REQUIRE(num_initiators >= 1 && num_initiators <= 1024,
              "num_initiators out of [1, 1024]");
  STX_REQUIRE(num_targets >= 1 && num_targets <= 1024,
              "num_targets out of [1, 1024]");
  STX_REQUIRE(burst_cycles >= 1 && burst_cycles <= 10'000'000,
              "burst_cycles out of [1, 1e7]");
  STX_REQUIRE(packet_cells >= 1 && packet_cells <= 1'000'000,
              "packet_cells out of [1, 1e6]");
  STX_REQUIRE(gap_cycles >= 0 && gap_cycles <= 100'000'000,
              "gap_cycles out of [0, 1e8]");
  STX_REQUIRE(phase_spread >= 0.0 && phase_spread <= 1.0,
              "phase_spread out of [0,1]");
  STX_REQUIRE(read_fraction >= 0.0 && read_fraction <= 1.0,
              "read_fraction out of [0,1]");
  STX_REQUIRE(hotspot_fraction >= 0.0 && hotspot_fraction < 1.0,
              "hotspot_fraction out of [0,1)");
  STX_REQUIRE(hotspot_target >= 0 && hotspot_target < num_targets,
              "hotspot_target out of range");
  STX_REQUIRE(critical_cores >= 0 && critical_cores <= num_initiators,
              "critical_cores out of range");
  STX_REQUIRE(window_size >= 1 && window_size <= 10'000'000,
              "window_size out of [1, 1e7]");
  STX_REQUIRE(overlap_threshold >= 0.0 && overlap_threshold <= 1.0,
              "overlap_threshold out of [0,1]");
  STX_REQUIRE(max_targets_per_bus >= 0, "max_targets_per_bus negative");
  STX_REQUIRE(horizon >= 1000 && horizon <= 100'000'000,
              "horizon out of [1000, 1e8]");
}

std::string scenario::name() const {
  return "fuzz-" + std::to_string(num_initiators) + "x" +
         std::to_string(num_targets) + "-s" + std::to_string(seed);
}

workloads::app_spec scenario::make_app() const {
  validate();
  workloads::app_spec app;
  app.name = name();
  app.num_initiators = num_initiators;
  app.num_targets = num_targets;
  for (int t = 0; t < num_targets; ++t) {
    app.target_names.push_back("Mem" + std::to_string(t));
  }

  // Safe in int: validate() caps burst_cycles at 1e7 and floors
  // packet_cells at 1.
  const int packets_per_burst = std::max<int>(
      1, static_cast<int>(burst_cycles / packet_cells));

  // Per-core traffic mixes come from decorrelated child streams of the
  // scenario seed, so the program shapes vary between cores while the
  // whole application stays a pure function of the scenario record.
  rng master(seed);
  for (int i = 0; i < num_initiators; ++i) {
    rng mix = master.split(static_cast<std::uint64_t>(i) + 1);
    const int home = i % num_targets;
    std::vector<sim::core_op> prog;

    // One-time phase prologue, as in workloads::make_synthetic: staggered
    // burst starts give the pairwise-overlap gradient the window analysis
    // feeds on.
    const auto offset = static_cast<sim::cycle_t>(
        static_cast<double>(i) * phase_spread *
        static_cast<double>(burst_cycles));
    std::size_t loop_start = 0;
    if (offset > 0) {
      sim::core_op warm;
      warm.op = sim::core_op::kind::compute;
      warm.cycles = offset;
      prog.push_back(warm);
      loop_start = 1;
    }

    for (int p = 0; p < packets_per_burst; ++p) {
      sim::core_op op;
      op.cells = packet_cells;
      const bool to_hotspot =
          hotspot_fraction > 0.0 && mix.chance(hotspot_fraction);
      op.target = to_hotspot ? hotspot_target : home;
      op.op = mix.chance(read_fraction) ? sim::core_op::kind::read
                                        : sim::core_op::kind::write;
      op.critical = i < critical_cores && op.target == home;
      prog.push_back(op);
    }

    if (gap_cycles > 0) {
      sim::core_op gap;
      gap.op = sim::core_op::kind::compute;
      gap.cycles = gap_cycles;
      prog.push_back(gap);
    }

    app.programs.push_back(std::move(prog));
    app.loop_starts.push_back(loop_start);
  }
  app.validate();
  return app;
}

xbar::flow_options scenario::make_flow_options() const {
  xbar::flow_options opts;
  opts.horizon = horizon;
  opts.seed = seed;
  opts.synth.params.window_size = window_size;
  opts.synth.params.overlap_threshold = overlap_threshold;
  opts.synth.params.max_targets_per_bus = max_targets_per_bus;
  return opts;
}

scenario sample_scenario(rng& r) {
  scenario s;
  s.seed = r.next_u64();
  s.num_initiators = static_cast<int>(r.uniform_int(2, 8));
  s.num_targets = static_cast<int>(r.uniform_int(2, 8));
  s.burst_cycles = r.uniform_int(100, 1600);
  s.packet_cells = static_cast<int>(r.uniform_int(4, 32));
  s.gap_cycles = r.uniform_int(200, 4000);
  s.phase_spread = r.uniform01();
  s.read_fraction = r.uniform(0.0, 0.5);
  if (r.chance(0.4)) {
    s.hotspot_fraction = r.uniform(0.05, 0.35);
    s.hotspot_target = static_cast<int>(r.uniform_int(0, s.num_targets - 1));
  }
  if (r.chance(0.3)) {
    s.critical_cores =
        static_cast<int>(r.uniform_int(1, std::min(2, s.num_initiators)));
  }
  static constexpr traffic::cycle_t kWindows[] = {200, 400, 800, 1600};
  s.window_size = kWindows[r.uniform_int(0, 3)];
  s.overlap_threshold = r.uniform(0.10, 0.50);
  s.max_targets_per_bus =
      r.chance(0.25) ? 0 : static_cast<int>(r.uniform_int(2, 5));
  s.horizon = r.uniform_int(15'000, 40'000);
  s.validate();
  return s;
}

big_fabric_case sample_big_fabric_case(rng& r) {
  big_fabric_case c;
  c.params = workloads::sample_big_fabric_params(r);
  c.opts.seed = r.next_u64();
  static constexpr traffic::cycle_t kWindows[] = {200, 400, 800, 1600};
  c.opts.synth.params.window_size = kWindows[r.uniform_int(0, 3)];
  c.opts.synth.params.overlap_threshold = r.uniform(0.10, 0.50);
  // A cardinality cap is what makes large fabrics need many buses; keep
  // it tight relative to the target count so the binding tree is deep.
  c.opts.synth.params.max_targets_per_bus =
      static_cast<int>(r.uniform_int(3, 8));
  c.opts.horizon = r.uniform_int(15'000, 30'000);
  return c;
}

namespace {

std::string format_double(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::int64_t parse_i64(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const auto v = std::strtoll(text.c_str(), &end, 10);
  STX_REQUIRE(end == text.c_str() + text.size() && !text.empty() &&
                  errno == 0,
              "scenario field " + key + " has a malformed integer '" + text +
                  "'");
  return v;
}

/// A field stored in an `int`: out-of-range values are rejected, never
/// narrowed.
int parse_i32(const std::string& key, const std::string& text) {
  const auto v = parse_i64(key, text);
  STX_REQUIRE(v >= std::numeric_limits<int>::min() &&
                  v <= std::numeric_limits<int>::max(),
              "scenario field " + key + " is out of range '" + text + "'");
  return static_cast<int>(v);
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const auto v = std::strtoull(text.c_str(), &end, 10);
  STX_REQUIRE(end == text.c_str() + text.size() && !text.empty() &&
                  errno == 0,
              "scenario field " + key + " has a malformed integer '" + text +
                  "'");
  return v;
}

double parse_f64(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  STX_REQUIRE(end == text.c_str() + text.size() && !text.empty(),
              "scenario field " + key + " has a malformed number '" + text +
                  "'");
  return v;
}

constexpr const char* kMagic = "stxfuzz/v1";

}  // namespace

std::string encode(const scenario& s) {
  std::ostringstream out;
  out << kMagic << " seed=" << s.seed << " ini=" << s.num_initiators
      << " tgt=" << s.num_targets << " burst=" << s.burst_cycles
      << " cells=" << s.packet_cells << " gap=" << s.gap_cycles
      << " spread=" << format_double(s.phase_spread)
      << " read=" << format_double(s.read_fraction)
      << " hotfrac=" << format_double(s.hotspot_fraction)
      << " hot=" << s.hotspot_target << " crit=" << s.critical_cores
      << " win=" << s.window_size
      << " thr=" << format_double(s.overlap_threshold)
      << " maxtb=" << s.max_targets_per_bus << " horizon=" << s.horizon;
  return out.str();
}

scenario decode(const std::string& line) {
  const auto tokens = split_list(line, ' ');
  STX_REQUIRE(!tokens.empty() && tokens[0] == kMagic,
              "scenario string must start with '" + std::string(kMagic) +
                  "'");
  scenario s;
  for (std::size_t k = 1; k < tokens.size(); ++k) {
    const auto& tok = tokens[k];
    const auto eq = tok.find('=');
    STX_REQUIRE(eq != std::string::npos,
                "scenario token '" + tok + "' is not key=value");
    const auto key = tok.substr(0, eq);
    const auto val = tok.substr(eq + 1);
    if (key == "seed") {
      s.seed = parse_u64(key, val);
    } else if (key == "ini") {
      s.num_initiators = parse_i32(key, val);
    } else if (key == "tgt") {
      s.num_targets = parse_i32(key, val);
    } else if (key == "burst") {
      s.burst_cycles = parse_i64(key, val);
    } else if (key == "cells") {
      s.packet_cells = parse_i32(key, val);
    } else if (key == "gap") {
      s.gap_cycles = parse_i64(key, val);
    } else if (key == "spread") {
      s.phase_spread = parse_f64(key, val);
    } else if (key == "read") {
      s.read_fraction = parse_f64(key, val);
    } else if (key == "hotfrac") {
      s.hotspot_fraction = parse_f64(key, val);
    } else if (key == "hot") {
      s.hotspot_target = parse_i32(key, val);
    } else if (key == "crit") {
      s.critical_cores = parse_i32(key, val);
    } else if (key == "win") {
      s.window_size = parse_i64(key, val);
    } else if (key == "thr") {
      s.overlap_threshold = parse_f64(key, val);
    } else if (key == "maxtb") {
      s.max_targets_per_bus = parse_i32(key, val);
    } else if (key == "horizon") {
      s.horizon = parse_i64(key, val);
    } else {
      throw invalid_argument_error("unknown scenario field '" + key + "'");
    }
  }
  s.validate();
  return s;
}

}  // namespace stx::testkit
