#include "gen/backends.h"

#include <sstream>
#include <vector>

#include "util/error.h"

namespace stx::gen {

namespace {

/// Bits needed to hold ids 0..n-1 (at least 1).
int id_width(int n) {
  int w = 1;
  while ((1 << w) < n) ++w;
  return w;
}

/// Everything the per-direction module emitter needs.
struct direction_spec {
  std::string module_name;
  std::string comment;            ///< e.g. "initiator->target (request)"
  int num_src = 0;                ///< sending endpoints (every one reaches
                                  ///< every bus)
  int num_dst = 0;                ///< receiving endpoints (bound to buses)
  int num_buses = 0;
  const std::vector<int>* binding = nullptr;  ///< dst -> bus
  std::vector<std::string> dst_names;
  std::vector<traffic::cycle_t> dst_busy;     ///< busy-cycle totals (may be
                                              ///< empty)
};

void emit_arbiter(std::ostringstream& out, const std::string& base) {
  out <<
      "// Work-conserving round-robin arbiter. `ptr` is a one-hot marker of\n"
      "// the highest-priority requester; after a grant it rotates to just\n"
      "// past the grantee (STbus-style fair arbitration, paper Sec. 3).\n"
      "// The double-vector subtract picks the first request at or after\n"
      "// `ptr` without a priority chain.\n"
      "module " << base << "_rr_arbiter #(\n"
      "  parameter int unsigned N_REQ = 2\n"
      ") (\n"
      "  input  logic             clk,\n"
      "  input  logic             rst_n,\n"
      "  input  logic [N_REQ-1:0] req,\n"
      "  output logic [N_REQ-1:0] grant\n"
      ");\n"
      "  if (N_REQ == 1) begin : g_single\n"
      "    assign grant = req;\n"
      "  end else begin : g_rr\n"
      "    logic [N_REQ-1:0]   ptr;\n"
      "    logic [2*N_REQ-1:0] req_d, gnt_d;\n"
      "\n"
      "    assign req_d = {req, req};\n"
      "    assign gnt_d = req_d & ~(req_d - {{N_REQ{1'b0}}, ptr});\n"
      "    assign grant = gnt_d[N_REQ-1:0] | gnt_d[2*N_REQ-1:N_REQ];\n"
      "\n"
      "    always_ff @(posedge clk or negedge rst_n) begin\n"
      "      if (!rst_n) begin\n"
      "        ptr <= {{(N_REQ-1){1'b0}}, 1'b1};\n"
      "      end else if (|grant) begin\n"
      "        ptr <= {grant[N_REQ-2:0], grant[N_REQ-1]};\n"
      "      end\n"
      "    end\n"
      "  end\n"
      "endmodule\n";
}

void emit_direction(std::ostringstream& out, const std::string& base,
                    const direction_spec& d) {
  const int dest_w = id_width(d.num_dst);
  const int bus_w = id_width(d.num_buses);
  const auto& binding = *d.binding;

  out << "// " << d.comment << ": " << d.num_src << " senders -> "
      << d.num_dst << " receivers over " << d.num_buses
      << (d.num_buses == 1 ? " bus" : " buses") << ".\n"
      << "module " << d.module_name << " #(\n"
      << "  parameter int unsigned DATA_W = 32\n"
      << ") (\n"
      << "  input  logic              clk,\n"
      << "  input  logic              rst_n,\n"
      << "  // sending side\n"
      << "  input  logic [" << d.num_src - 1 << ":0]         src_valid,\n"
      << "  input  logic [" << dest_w - 1 << ":0]         src_dest  ["
      << d.num_src << "],\n"
      << "  input  logic [DATA_W-1:0] src_data  [" << d.num_src << "],\n"
      << "  output logic [" << d.num_src - 1 << ":0]         src_ready,\n"
      << "  // receiving side\n"
      << "  output logic [" << d.num_dst - 1 << ":0]         dst_valid,\n"
      << "  output logic [DATA_W-1:0] dst_data  [" << d.num_dst << "]\n"
      << ");\n"
      << "  localparam int unsigned NUM_SRC   = " << d.num_src << ";\n"
      << "  localparam int unsigned NUM_BUSES = " << d.num_buses << ";\n"
      << "  localparam int unsigned DEST_W    = " << dest_w << ";\n"
      << "  localparam int unsigned BUS_W     = " << bus_w << ";\n"
      << "\n";

  // Address decode: one case item per receiving endpoint (the synthesis
  // binding rendered as a lookup).
  out << "  // Address decode: destination id -> bus id (synthesis "
         "binding).\n"
      << "  function automatic logic [BUS_W-1:0] bus_of(\n"
      << "      input logic [DEST_W-1:0] dest);\n"
      << "    unique case (dest)\n";
  for (int t = 0; t < d.num_dst; ++t) {
    out << "      " << dest_w << "'d" << t << ": bus_of = " << bus_w << "'d"
        << binding[static_cast<std::size_t>(t)] << ";";
    out << "  // " << d.dst_names[static_cast<std::size_t>(t)];
    if (!d.dst_busy.empty()) {
      out << " (" << d.dst_busy[static_cast<std::size_t>(t)]
          << " busy cycles)";
    }
    out << "\n";
  }
  out << "      default: bus_of = '0;\n"
      << "    endcase\n"
      << "  endfunction\n";

  // Per-bus request gather, arbiter instance and winner mux.
  for (int k = 0; k < d.num_buses; ++k) {
    out << "\n  // ---- bus " << k << ": targets {";
    bool first = true;
    for (int t = 0; t < d.num_dst; ++t) {
      if (binding[static_cast<std::size_t>(t)] != k) continue;
      out << (first ? " " : ", ")
          << d.dst_names[static_cast<std::size_t>(t)];
      first = false;
    }
    out << " } ----\n"
        << "  logic [NUM_SRC-1:0] bus" << k << "_req;\n"
        << "  logic [NUM_SRC-1:0] bus" << k << "_grant;\n"
        << "  logic               bus" << k << "_valid;\n"
        << "  logic [DEST_W-1:0]  bus" << k << "_dest;\n"
        << "  logic [DATA_W-1:0]  bus" << k << "_data;\n"
        << "\n"
        << "  always_comb begin\n"
        << "    for (int s = 0; s < int'(NUM_SRC); s++) begin\n"
        << "      bus" << k << "_req[s] =\n"
        << "          src_valid[s] && (bus_of(src_dest[s]) == BUS_W'(" << k
        << "));\n"
        << "    end\n"
        << "  end\n"
        << "\n"
        << "  " << base << "_rr_arbiter #(.N_REQ(NUM_SRC)) u_arb_bus" << k
        << " (\n"
        << "    .clk(clk), .rst_n(rst_n), .req(bus" << k << "_req), "
        << ".grant(bus" << k << "_grant));\n"
        << "\n"
        << "  always_comb begin\n"
        << "    bus" << k << "_valid = 1'b0;\n"
        << "    bus" << k << "_dest  = '0;\n"
        << "    bus" << k << "_data  = '0;\n"
        << "    for (int s = 0; s < int'(NUM_SRC); s++) begin\n"
        << "      if (bus" << k << "_grant[s]) begin\n"
        << "        bus" << k << "_valid = 1'b1;\n"
        << "        bus" << k << "_dest  = src_dest[s];\n"
        << "        bus" << k << "_data  = src_data[s];\n"
        << "      end\n"
        << "    end\n"
        << "  end\n";
  }

  // Receiver demux: each destination listens on its bound bus only.
  out << "\n  // ---- receiver demux: each destination listens on its bound "
         "bus ----\n";
  for (int t = 0; t < d.num_dst; ++t) {
    const int k = binding[static_cast<std::size_t>(t)];
    out << "  assign dst_valid[" << t << "] = bus" << k
        << "_valid && (bus" << k << "_dest == " << dest_w << "'d" << t
        << ");  // " << d.dst_names[static_cast<std::size_t>(t)] << "\n"
        << "  assign dst_data[" << t << "]  = bus" << k << "_data;\n";
  }

  // Ready: a sender proceeds in any cycle some bus granted it.
  out << "\n  // A sender proceeds in any cycle some bus granted it.\n"
      << "  always_comb begin\n"
      << "    for (int s = 0; s < int'(NUM_SRC); s++) begin\n"
      << "      src_ready[s] =";
  for (int k = 0; k < d.num_buses; ++k) {
    out << (k == 0 ? " " : " | ") << "bus" << k << "_grant[s]";
  }
  out << ";\n"
      << "    end\n"
      << "  end\n"
      << "endmodule\n";
}

void emit_top(std::ostringstream& out, const std::string& base,
              const xbar::flow_report& r) {
  const int ni = r.num_initiators;
  const int nt = r.num_targets;
  const int req_dw = id_width(nt);
  const int resp_dw = id_width(ni);
  out << "// Top level: both crossbar directions of the designed STbus "
         "node.\n"
      << "module " << base << "_xbar #(\n"
      << "  parameter int unsigned DATA_W = 32\n"
      << ") (\n"
      << "  input  logic              clk,\n"
      << "  input  logic              rst_n,\n"
      << "  // request path: " << ni << " initiators -> " << nt
      << " targets over " << r.request_design.num_buses << " buses\n"
      << "  input  logic [" << ni - 1 << ":0]         req_valid,\n"
      << "  input  logic [" << req_dw - 1 << ":0]         req_dest  [" << ni
      << "],\n"
      << "  input  logic [DATA_W-1:0] req_data  [" << ni << "],\n"
      << "  output logic [" << ni - 1 << ":0]         req_ready,\n"
      << "  output logic [" << nt - 1 << ":0]         tgt_valid,\n"
      << "  output logic [DATA_W-1:0] tgt_data  [" << nt << "],\n"
      << "  // response path: " << nt << " targets -> " << ni
      << " initiators over " << r.response_design.num_buses << " buses\n"
      << "  input  logic [" << nt - 1 << ":0]         resp_valid,\n"
      << "  input  logic [" << resp_dw - 1 << ":0]         resp_dest  ["
      << nt << "],\n"
      << "  input  logic [DATA_W-1:0] resp_data  [" << nt << "],\n"
      << "  output logic [" << nt - 1 << ":0]         resp_ready,\n"
      << "  output logic [" << ni - 1 << ":0]         ini_valid,\n"
      << "  output logic [DATA_W-1:0] ini_data  [" << ni << "]\n"
      << ");\n"
      << "  " << base << "_req_xbar #(.DATA_W(DATA_W)) u_req_xbar (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .src_valid(req_valid), .src_dest(req_dest), "
      << ".src_data(req_data),\n"
      << "    .src_ready(req_ready),\n"
      << "    .dst_valid(tgt_valid), .dst_data(tgt_data));\n"
      << "\n"
      << "  " << base << "_resp_xbar #(.DATA_W(DATA_W)) u_resp_xbar (\n"
      << "    .clk(clk), .rst_n(rst_n),\n"
      << "    .src_valid(resp_valid), .src_dest(resp_dest), "
      << ".src_data(resp_data),\n"
      << "    .src_ready(resp_ready),\n"
      << "    .dst_valid(ini_valid), .dst_data(ini_data));\n"
      << "endmodule\n";
}

}  // namespace

std::string emit_sv(const xbar::flow_report& r, const std::string& basename) {
  STX_REQUIRE(r.num_initiators > 0 && r.num_targets > 0,
              "RTL generation needs initiator and target counts in the "
              "flow report");
  check_design(r.request_design, r.num_targets, "request");
  check_design(r.response_design, r.num_initiators, "response");

  const std::string base = basename;

  const auto target_names = padded_target_names(r);
  std::vector<std::string> initiator_names;
  for (int i = 0; i < r.num_initiators; ++i) {
    initiator_names.push_back("core" + std::to_string(i));
  }

  std::ostringstream out;
  out << "// " << base << "_xbar.sv — application-specific STbus partial "
      << "crossbar\n"
      << "// Generated by stxbar from the synthesised design for \""
      << r.app_name << "\".\n"
      << "// Request : " << r.request_design.num_buses << " buses / "
      << r.num_targets << " targets, max bus overlap "
      << r.request_design.max_overlap << " cycles.\n"
      << "// Response: " << r.response_design.num_buses << " buses / "
      << r.num_initiators << " initiators, max bus overlap "
      << r.response_design.max_overlap << " cycles.\n"
      << "// Do not edit: regenerate with `xbargen --app=... --emit=sv`.\n"
      << "`default_nettype none\n"
      << "\n";

  emit_arbiter(out, base);

  direction_spec req;
  req.module_name = base + "_req_xbar";
  req.comment = "Request crossbar, initiator->target";
  req.num_src = r.num_initiators;
  req.num_dst = r.num_targets;
  req.num_buses = r.request_design.num_buses;
  req.binding = &r.request_design.binding;
  req.dst_names = target_names;
  if (!r.request_traffic.empty()) {
    req.dst_busy = receiver_totals(r.request_traffic, r.num_targets);
  }
  out << "\n";
  emit_direction(out, base, req);

  direction_spec resp;
  resp.module_name = base + "_resp_xbar";
  resp.comment = "Response crossbar, target->initiator";
  resp.num_src = r.num_targets;
  resp.num_dst = r.num_initiators;
  resp.num_buses = r.response_design.num_buses;
  resp.binding = &r.response_design.binding;
  resp.dst_names = initiator_names;
  if (!r.response_traffic.empty()) {
    resp.dst_busy = receiver_totals(r.response_traffic, r.num_initiators);
  }
  out << "\n";
  emit_direction(out, base, resp);

  out << "\n";
  emit_top(out, base, r);
  out << "`default_nettype wire\n";
  return out.str();
}

}  // namespace stx::gen
