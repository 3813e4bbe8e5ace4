// Functional traffic traces: what the crossbar synthesis consumes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace stx::traffic {

/// Simulation time in clock cycles.
using cycle_t = std::int64_t;

/// Half-open [begin, end) cycle intervals.
using interval_list = std::vector<std::pair<cycle_t, cycle_t>>;

/// Sorts `spans` and merges overlapping or adjacent intervals into the
/// sorted, disjoint form trace::busy_intervals returns.
void merge_intervals(interval_list& spans);

/// One contiguous span of cycles during which a target was receiving data
/// from some initiator (recorded by the simulator during the full-crossbar
/// collection run, Fig. 3 phase 1).
struct stream_event {
  int target = 0;        ///< receiving endpoint id
  int initiator = 0;     ///< sending endpoint id
  cycle_t begin = 0;     ///< first busy cycle (inclusive)
  cycle_t end = 0;       ///< one past the last busy cycle (exclusive)
  bool critical = false; ///< real-time stream requiring guarantees

  bool operator==(const stream_event&) const = default;
};

/// A complete traffic trace for one crossbar direction.
///
/// "Targets" here are the receiving endpoints of whichever direction is
/// being designed: memory targets for the initiator->target crossbar,
/// processor initiators for the target->initiator crossbar (the paper
/// designs the two independently with the same machinery).
class trace {
 public:
  trace() = default;
  trace(int num_targets, int num_initiators, cycle_t horizon);

  /// Appends an event; `begin < end`, ids in range, event must not extend
  /// past the horizon (the horizon grows automatically if it does).
  void add(const stream_event& e);

  /// Grows the horizon to at least `h` (trailing silence counts as part
  /// of the observation period for window analysis).
  void extend_horizon(cycle_t h);

  int num_targets() const { return num_targets_; }
  int num_initiators() const { return num_initiators_; }
  cycle_t horizon() const { return horizon_; }
  const std::vector<stream_event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Total busy cycles per target over the whole trace.
  std::vector<cycle_t> total_busy_per_target() const;

  /// True when any event to `target` is marked critical.
  bool target_has_critical(int target) const;

  /// Sorted, disjoint busy intervals of one target (overlapping or
  /// adjacent events to the same target are merged).
  interval_list busy_intervals(int target, bool critical_only = false) const;

  /// Exact equality: dimensions, horizon and the full event sequence —
  /// what "bit-identical traces" means wherever runs are compared
  /// differentially (segmented-run determinism tests; historically the
  /// polling/event kernel-equivalence invariant).
  bool operator==(const trace&) const = default;

  /// Appends the portable text format (`stxtrace v1`) to `out`: a header
  /// line "stxtrace v1 targets=T initiators=I horizon=H events=N", then
  /// one "target initiator begin end critical(0|1)" line per event.
  void append_text(std::string& out) const;
  /// Reads one stxtrace v1 text starting at `pos` in `text` and leaves
  /// `pos` just past its last event; what follows is not read. Fields are
  /// whitespace-separated; a header value is a signed decimal prefix of
  /// its token, an event field a signed decimal that fits its type.
  /// Throws stx::invalid_argument_error on a malformed or truncated text.
  static trace parse_text(std::string_view text, std::size_t& pos);

  /// Writes / reads the same format through a stream (append_text /
  /// parse_text; load reads the stream to its end).
  void save(std::ostream& out) const;
  static trace load(std::istream& in);
  void save_file(const std::string& path) const;
  static trace load_file(const std::string& path);

 private:
  int num_targets_ = 0;
  int num_initiators_ = 0;
  cycle_t horizon_ = 0;
  std::vector<stream_event> events_;
};

/// The token `in >> std::string` reads at `pos`: skips whitespace, then
/// takes the run up to the next whitespace (empty at the end of `text`),
/// leaving `pos` after it. The tokenizer of stxtrace texts and of the
/// store's stxtraces/v2 blobs that hold two of them.
std::string_view next_token(std::string_view text, std::size_t& pos);

}  // namespace stx::traffic
