// Generation-phase leaf types: what a backend produces and how a caller
// asks for it. Deliberately free of xbar includes so xbar/flow.h can pull
// this header without creating an include cycle with gen/backends.h.
#pragma once

#include <string>
#include <vector>

namespace stx::gen {

/// One generated deployable file, still in memory.
struct artifact {
  std::string backend;   ///< name of the producing backend, e.g. "sv"
  std::string filename;  ///< suggested leaf filename, e.g. "mat2.sv"
  std::string content;
};

/// What to generate (gen::generate in gen/backends.h). An unknown backend
/// name throws, listing the known ones.
struct generate_options {
  /// Backend names to run, in this order ("sv", "dot", "json", "report").
  /// Empty = all four, in that order.
  std::vector<std::string> backends;
  /// Filename stem for the artifacts; empty = a sanitised application name.
  std::string basename;
};

/// Writes every artifact into `out_dir` (created if missing, recursively)
/// and returns the written paths in artifact order.
std::vector<std::string> write_artifacts(const std::vector<artifact>& arts,
                                         const std::string& out_dir);

/// Lower-cases `name` and replaces non-alphanumerics with '_' so it can
/// serve as a filename stem and an RTL module prefix.
std::string sanitize_basename(const std::string& name);

}  // namespace stx::gen
