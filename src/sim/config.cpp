#include "sim/config.h"

#include <numeric>
#include <sstream>

#include "util/error.h"

namespace stx::sim {

const char* to_string(arbitration a) {
  switch (a) {
    case arbitration::fixed_priority: return "fixed_priority";
    case arbitration::round_robin: return "round_robin";
    case arbitration::least_recently_granted: return "least_recently_granted";
  }
  return "?";
}

crossbar_config crossbar_config::shared(int n) {
  crossbar_config cfg;
  cfg.num_buses = 1;
  cfg.binding.assign(static_cast<std::size_t>(n), 0);
  return cfg;
}

crossbar_config crossbar_config::full(int n) {
  crossbar_config cfg;
  cfg.num_buses = n;
  cfg.binding.resize(static_cast<std::size_t>(n));
  std::iota(cfg.binding.begin(), cfg.binding.end(), 0);
  return cfg;
}

crossbar_config crossbar_config::partial(int num_buses,
                                         std::vector<int> binding) {
  crossbar_config cfg;
  cfg.num_buses = num_buses;
  cfg.binding = std::move(binding);
  return cfg;
}

void crossbar_config::validate(int n_endpoints) const {
  STX_REQUIRE(num_buses >= 1, "crossbar needs at least one bus");
  STX_REQUIRE(static_cast<int>(binding.size()) == n_endpoints,
              "binding size must equal endpoint count");
  for (int b : binding) {
    STX_REQUIRE(b >= 0 && b < num_buses, "binding references unknown bus");
  }
  STX_REQUIRE(transfer_overhead >= 0, "negative transfer overhead");
}

std::string crossbar_config::to_string() const {
  std::ostringstream out;
  const auto n = static_cast<int>(binding.size());
  if (num_buses == 1) {
    out << "shared(" << n << " endpoints)";
  } else if (num_buses == n) {
    out << "full(" << n << " buses)";
  } else {
    out << "partial(" << num_buses << " buses: [";
    for (std::size_t i = 0; i < binding.size(); ++i) {
      if (i > 0) out << ",";
      out << binding[i];
    }
    out << "])";
  }
  return out.str();
}

}  // namespace stx::sim
