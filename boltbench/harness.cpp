// boltbench — the benchmark's input builder and traced per-layer run.
//
//   boltbench gen <workload> <seed> <dir>
//       Builds the workload's inputs from the seed and writes them into
//       <dir>: main.pcap (the timed trace), one.pcap (its first packet, the
//       set-up input), runt.pcap (one UDP/IPv4 frame cut to 20 bytes)
//       and inputs.json (what was built, for the run record).
//
//   boltbench trace <workload> <seed> <dir> <threads>
//       Calls each layer's public functions on <dir>/main.pcap, the stored
//       contract <dir>/<nf>.json and the fleet spool <dir>/spool. The
//       same pass runs untraced and traced (a span around every layer call,
//       per-call timings for calls made once per packet), in interleaved
//       pairs after a warm-up pass. Prints
//       the layer-share table, then one JSON line of per-layer metrics, and
//       writes the spans to <dir>/spans.json.
//
// run.py drives both; see README.md for the metric definitions.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/hunter.h"
#include "core/bolt.h"
#include "core/targets.h"
#include "hw/models.h"
#include "monitor/follow.h"
#include "monitor/monitor.h"
#include "monitor/report.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/packet_builder.h"
#include "net/pcap.h"
#include "net/workload.h"
#include "obs/delta.h"
#include "obs/fleet.h"
#include "perf/contract_io.h"
#include "perf/expr_vm.h"
#include "perf/metric.h"
#include "perf/quantile_sketch.h"
#include "support/io.h"
#include "support/random.h"

using namespace bolt;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* nf;
  bool check_cycles;             ///< false where the CLI runs --no-cycles
  std::size_t hunt_generations;  ///< in-process hunt budget (population 4)
};

// nat_hunt's budget matches the CLI hunt run.py times (40 x 4 + 1 = 161
// replays); the other workloads run a token hunt so the adversary layer is
// measured everywhere, doing the least work where it is not the subject.
constexpr Workload kWorkloads[] = {
    {"nat_zipf", "nat", true, 2},
    {"lb_failover", "lb", true, 2},
    {"nat_longrun_fleet", "nat", false, 2},
    {"nat_hunt", "nat", true, 40},
};
constexpr std::size_t kHuntPopulation = 4;
constexpr std::size_t kPartitions = 8;  // the operator default

// Results of timed calls whose value is otherwise unused land here, so the
// compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// 1M packets: per-packet framework work dominates, and a 1-thread monitor
// run takes about a second, so run.py can repeat it within one run.
constexpr std::size_t kZipfPackets = 1'000'000;

std::vector<net::Packet> nat_zipf(std::uint64_t seed) {
  net::ZipfSpec spec;
  spec.seed = seed;
  spec.flow_pool = 2048;
  spec.skew = 1.1;
  spec.packet_count = kZipfPackets;
  return net::zipf_traffic(spec);
}

net::Packet heartbeat(std::uint32_t backend, net::TimestampNs ts) {
  // Same datagram as net::heartbeat_traffic: 172.16.0.(b+1) -> health port.
  net::PacketBuilder b;
  b.ipv4(net::Ipv4Address{0xac100000u | (backend + 1)},
         net::Ipv4Address::from_octets(10, 0, 0, 100))
      .udp(static_cast<std::uint16_t>(30000 + backend), 7000)
      .timestamp_ns(ts)
      .in_port(1);
  return b.build();
}

// Zipf client flows over 30 s of packet time while backend heartbeats
// lapse: four backends go silent for good in the first half, and every
// backend is silent for 8 s mid-run (longer than the 5 s heartbeat
// timeout), so client packets walk the Maglev ring past dead backends.
// A backend's heartbeats reach one monitor partition only, and a partition
// with no live backend left would make every packet of its flows walk the
// whole ring; which flows land there depends on the seed, so the lost
// backends are drawn among those whose partition keeps another one. That
// keeps the ring-walk share, and the cost, nearly the same for every seed.
std::vector<net::Packet> lb_failover(std::uint64_t seed, std::string& facts) {
  constexpr std::size_t kClients = 60'000;
  constexpr std::uint64_t kGapNs = 500'000;
  constexpr std::uint32_t kBackends = 16;  // core::default_lb_config()
  constexpr std::uint64_t kBeatNs = 1'000'000'000;
  constexpr std::uint64_t kBlackoutNs = 8'000'000'000;
  constexpr std::uint32_t kLostBackends = 4;

  net::ZipfSpec spec;
  spec.seed = seed;
  spec.flow_pool = 2048;
  spec.skew = 1.1;
  spec.packet_count = kClients;
  spec.timing.gap_ns = kGapNs;
  std::vector<net::Packet> out = net::zipf_traffic(spec);

  const std::uint64_t start = spec.timing.start_ns;
  const std::uint64_t span = kClients * kGapNs;
  const std::uint64_t end = start + span;
  support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x1b);
  std::vector<std::uint64_t> silent_from(kBackends, end);
  std::vector<std::size_t> live_in_partition(kPartitions, 0);
  for (std::uint32_t b = 0; b < kBackends; ++b) {
    ++live_in_partition[monitor::partition_of(heartbeat(b, 0), kPartitions)];
  }
  std::string lost;
  for (std::uint32_t k = 0; k < kLostBackends; ++k) {
    std::uint32_t b = static_cast<std::uint32_t>(rng.below(kBackends));
    for (;; b = (b + 1) % kBackends) {
      const std::size_t p = monitor::partition_of(heartbeat(b, 0), kPartitions);
      if (silent_from[b] == end && live_in_partition[p] > 1) {
        --live_in_partition[p];
        break;
      }
    }
    silent_from[b] = start + span / 5 + rng.below(span / 5);
    lost += (lost.empty() ? "" : ",") + std::to_string(b);
  }
  const std::uint64_t blackout_begin = start + span / 2;
  const std::uint64_t blackout_end = blackout_begin + kBlackoutNs;
  std::size_t beats = 0;
  for (std::uint32_t b = 0; b < kBackends; ++b) {
    for (std::uint64_t t = start + rng.below(kBeatNs); t < silent_from[b];
         t += kBeatNs) {
      if (t >= blackout_begin && t < blackout_end) continue;
      out.push_back(heartbeat(b, t));
      ++beats;
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_ns() < b.timestamp_ns();
                   });
  facts = "\"client_packets\":" + std::to_string(kClients) +
          ",\"heartbeats\":" + std::to_string(beats) +
          ",\"backends_lost_for_good\":[" + lost +
          "],\"blackout_ns\":[" + std::to_string(blackout_begin) + "," +
          std::to_string(blackout_end) + "]";
  return out;
}

// The compressed-week trace with frames padded to a 60/590/1514-byte mix,
// so per-byte costs (pcap decode, the monitor's packet copy, RSS) show.
constexpr std::size_t kLongRunPackets = 150'000;

std::vector<net::Packet> nat_longrun(std::uint64_t seed, std::string& facts) {
  net::LongRunSpec spec;
  spec.seed = seed;
  spec.packet_count = kLongRunPackets;
  std::vector<net::Packet> packets = net::long_run_traffic(spec);
  constexpr std::size_t kSizes[] = {60, 590, 1514};
  std::size_t per_size[3] = {};
  support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x60);
  for (net::Packet& p : packets) {
    const std::size_t k = rng.below(3);
    ++per_size[k];
    if (p.size() >= kSizes[k]) continue;
    std::vector<std::uint8_t> data(p.bytes().data(),
                                   p.bytes().data() + p.size());
    data.resize(kSizes[k], 0);
    p = net::Packet(std::move(data), p.timestamp_ns(), p.in_port());
  }
  facts = "\"frame_mix\":{\"60\":" + std::to_string(per_size[0]) +
          ",\"590\":" + std::to_string(per_size[1]) +
          ",\"1514\":" + std::to_string(per_size[2]) + "}";
  return packets;
}

// The hunt's seed trace (what `bolt hunt nat --seed S` starts from), for
// the traced run; the CLI hunt itself takes no pcap.
std::vector<net::Packet> nat_hunt_seed_trace(std::uint64_t seed) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  core::make_named_target("nat", reg, target);
  core::ContractGenerator gen(reg);
  const core::GenerationResult result = gen.generate(target.analysis());
  adversary::AdversaryOptions opts;
  opts.seed = seed;
  return adversary::adversarial_traffic("nat", result.contract, reg, opts,
                                        &result.path_reports)
      .packets;
}

int cmd_gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  std::string facts;
  std::vector<net::Packet> packets;
  const std::string name = w.name;
  if (name == "nat_zipf") {
    packets = nat_zipf(seed);
  } else if (name == "lb_failover") {
    packets = lb_failover(seed, facts);
  } else if (name == "nat_longrun_fleet") {
    packets = nat_longrun(seed, facts);
  } else {
    packets = nat_hunt_seed_trace(seed);
  }
  std::uint64_t bytes = 0;
  for (const net::Packet& p : packets) bytes += p.size();
  net::write_pcap(dir + "/main.pcap", packets);
  net::write_pcap(dir + "/one.pcap", {packets.front()});
  // A runt: a UDP/IPv4 frame cut to 20 bytes, so the IPv4 ethertype and
  // version/IHL byte are there but the rest of the IPv4 header is not.
  const net::Packet whole =
      net::packet_for_tuple(net::tuple_for_index(0), 1'000'000'000);
  std::vector<std::uint8_t> runt(whole.bytes().data(),
                                 whole.bytes().data() + 20);
  net::write_pcap(dir + "/runt.pcap",
                  {net::Packet(std::move(runt), whole.timestamp_ns())});
  std::string json = "{\"workload\":\"" + name +
                     "\",\"seed\":" + std::to_string(seed) +
                     ",\"packets\":" + std::to_string(packets.size()) +
                     ",\"frame_bytes\":" + std::to_string(bytes);
  if (!facts.empty()) json += "," + facts;
  json += "}\n";
  if (!support::write_file(dir + "/inputs.json", json)) {
    std::fprintf(stderr, "boltbench: cannot write %s/inputs.json\n",
                 dir.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, per-call timings in quantile sketches
// ---------------------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-call timings of a call made once per packet: one sketch sample per
/// call instead of one span per call.
struct CallStats {
  perf::QuantileSketch sketch;
  std::uint64_t total_ns = 0;
  std::uint64_t calls = 0;
  double mean_ns() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_ns) / calls;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, current_, now_ns(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = now_ns();
    current_ = spans_[id].parent;
  }

  template <typename F>
  void per_call(const char* name, F&& call) {
    if (!enabled_) {
      call();
      return;
    }
    CallStats& s = calls_[name];
    const std::uint64_t t0 = now_ns();
    call();
    const std::uint64_t dt = now_ns() - t0;
    s.sketch.add(dt);
    s.total_ns += dt;
    ++s.calls;
  }

  /// Summed duration of the spans called `name`, in ns.
  double span_ns(const std::string& name) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.name == name) total += static_cast<double>(s.end_ns - s.begin_ns);
    }
    return total;
  }
  const CallStats& calls(const std::string& name) const {
    static const CallStats kNone;
    const auto it = calls_.find(name);
    return it == calls_.end() ? kNone : it->second;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, CallStats>& all_calls() const { return calls_; }

 private:
  bool enabled_;
  int current_ = -1;
  std::vector<Span> spans_;
  std::map<std::string, CallStats> calls_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// The pass: every layer's public calls on the workload's inputs
// ---------------------------------------------------------------------------

struct Inputs {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::string dir;
  std::size_t threads = 1;
};

/// Work counts and outcomes of one pass (identical in every pass).
struct Counts {
  std::uint64_t packets = 0;
  double ic_per_pkt = 0;
  double ma_per_pkt = 0;
  double calls_per_pkt = 0;
  std::uint64_t ring_walk_packets = 0;
  std::uint64_t new_flow_packets = 0;
  std::uint64_t bound_rows = 0;
  std::size_t entries = 0;
  std::uint64_t delta_windows = 0;
  std::uint64_t symbex_paths = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t replays = 0;
  std::uint64_t adversary_packets = 0;
  obs::MonitorTelemetry telemetry;  ///< of the mt run
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t state_high_water = 0;
  std::string failure;  ///< empty when every output check passed
};

bool contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

monitor::MonitorOptions base_options(std::size_t threads) {
  monitor::MonitorOptions o;
  o.partitions = kPartitions;
  o.threads = threads;
  return o;
}

/// NF execution in partition order on fresh per-partition instances, the
/// way the monitor runs it, optionally metered by a conservative cycle
/// model. Collects dense PCV rows (contract registry ids) when `rows` is
/// given.
void execute(Tracer& t, const char* name, const char* nf,
             const perf::PcvRegistry& contract_reg,
             const std::vector<net::Packet>& packets,
             const std::vector<std::vector<std::uint32_t>>& work, bool metered,
             std::size_t stride, std::vector<std::uint64_t>* rows,
             Counts* counts) {
  std::vector<std::unique_ptr<perf::PcvRegistry>> regs;
  std::vector<core::NfTarget> targets(work.size());
  std::vector<std::unique_ptr<hw::ConservativeModel>> models;
  std::vector<std::unique_ptr<core::NfRunner>> runners;
  for (std::size_t p = 0; p < work.size(); ++p) {
    regs.push_back(std::make_unique<perf::PcvRegistry>(contract_reg));
    core::make_named_target(nf, *regs.back(), targets[p]);
    models.push_back(std::make_unique<hw::ConservativeModel>());
    runners.push_back(targets[p].make_runner(
        nf::framework_full(), metered ? models.back().get() : nullptr));
  }
  net::Packet scratch;
  ir::RunResult run;
  std::uint64_t ic = 0, ma = 0, calls = 0;
  Scope s(t, name);
  for (std::size_t p = 0; p < work.size(); ++p) {
    core::NfRunner& runner = *runners[p];
    hw::ConservativeModel& model = *models[p];
    for (const std::uint32_t index : work[p]) {
      t.per_call(name, [&] {
        scratch = packets[index];  // the NF rewrites headers
        if (metered) model.begin_packet();
        runner.process_into(scratch, run);
      });
      if (counts == nullptr) continue;
      ic += run.instructions;
      ma += run.mem_accesses;
      calls += run.calls.size();
      if (rows != nullptr) {
        const std::size_t base = rows->size();
        rows->resize(base + stride, 0);
        for (const auto& [id, value] : run.pcvs) {
          if (id < stride) (*rows)[base + id] = value;
        }
      }
    }
  }
  if (counts != nullptr && !packets.empty()) {
    const double n = static_cast<double>(packets.size());
    counts->ic_per_pkt = static_cast<double>(ic) / n;
    counts->ma_per_pkt = static_cast<double>(ma) / n;
    counts->calls_per_pkt = static_cast<double>(calls) / n;
  }
}

Counts run_pass(const Inputs& in, Tracer& t) {
  Counts c;
  const Workload& w = *in.w;
  const std::string nf = w.nf;
  const std::string pcap = in.dir + "/main.pcap";
  const monitor::MonitorEngine::TargetFactory factory =
      monitor::MonitorEngine::named_factory(nf);
  Scope pass(t, "boltbench.pass");

  // --- perf / core / symbex: the stored contract, and generating one ----
  perf::PcvRegistry reg;
  const std::string contract_path = in.dir + "/" + nf + ".json";
  {
    Scope s(t, "perf.load_contract");
    for (int i = 0; i < 5; ++i) {
      perf::PcvRegistry scratch;
      t.per_call("perf.load_contract",
                 [&] { perf::load_contract(contract_path, scratch); });
    }
  }
  const perf::Contract contract = perf::load_contract(contract_path, reg);
  c.entries = contract.entries().size();
  {
    perf::PcvRegistry gen_reg;
    core::NfTarget target;
    core::make_named_target(nf, gen_reg, target);
    core::ContractGenerator gen(gen_reg);
    Scope s(t, "core.contract_gen");
    const core::GenerationResult g = gen.generate(target.analysis());
    c.symbex_paths = g.total_paths;
    c.solver_calls = g.executor_stats.solver_calls;
  }

  // --- net ---------------------------------------------------------------
  const std::vector<net::Packet> packets = [&] {
    Scope s(t, "net.read_pcap");
    return net::read_pcap(pcap);
  }();
  c.packets = packets.size();
  {
    Scope s(t, "net.pcap_tail");
    net::PcapTail tail(pcap);
    std::uint64_t got = 0;
    for (;;) {
      const std::vector<net::Packet> chunk = tail.poll();
      if (chunk.empty()) break;
      got += chunk.size();
    }
    if (got != c.packets) c.failure = "PcapTail read a different packet count";
  }
  {
    Scope s(t, "net.header_parse");
    std::uint64_t keys = 0;
    for (const net::Packet& p : packets) {
      t.per_call("net.header_parse", [&] {
        if (net::parse_ethernet(p.bytes())) {
          if (const auto ip = net::parse_ipv4(p.bytes(), 14)) {
            keys += ip->src.value;
          }
        }
        if (const auto tuple = net::extract_five_tuple(p)) {
          keys ^= tuple->key();
        }
      });
    }
    g_sink = keys;
  }

  // --- monitor -------------------------------------------------------------
  std::vector<std::vector<std::uint32_t>> work(kPartitions);
  {
    Scope s(t, "monitor.partition_of");
    for (std::uint32_t i = 0; i < packets.size(); ++i) {
      std::size_t part = 0;
      t.per_call("monitor.partition_of", [&] {
        part = monitor::partition_of(packets[i], kPartitions);
      });
      work[part].push_back(i);
    }
  }
  std::unique_ptr<monitor::MonitorEngine> engine;
  {
    Scope s(t, "monitor.engine_ctor");
    engine = std::make_unique<monitor::MonitorEngine>(contract, reg,
                                                      base_options(1));
  }
  monitor::MonitorReport report;
  {
    Scope s(t, "monitor.run");
    report = engine->run(packets, factory);
  }
  std::string report_json;
  {
    Scope s(t, "monitor.report_to_json");
    report_json = monitor::report_to_json(report);
  }
  if (report.violations != 0 || report.unattributed != 0) {
    c.failure = "violations or unattributed packets on clean traffic";
  }
  for (const monitor::ClassReport& cls : report.classes) {
    if (contains(cls.input_class, "existing_unresponsive") ||
        contains(cls.input_class, "ring_select")) {
      c.ring_walk_packets += cls.packets;
    }
    if (contains(cls.input_class, "new")) c.new_flow_packets += cls.packets;
  }
  c.epoch_sweeps = report.epoch_sweeps;
  c.state_high_water = report.state_high_water;
  {
    monitor::MonitorOptions mt = base_options(in.threads);
    mt.telemetry = true;
    const monitor::MonitorEngine e(contract, reg, mt);
    obs::RunObservations ob;
    monitor::MonitorReport r;
    {
      Scope s(t, "monitor.run_mt");
      r = e.run(packets, factory, nullptr, &ob);
    }
    c.telemetry = ob.telemetry;
    if (monitor::report_to_json(r) != report_json) {
      c.failure = "1-thread and mt in-process reports differ";
    }
  }
  {
    monitor::MonitorOptions nc = base_options(1);
    nc.check_cycles = false;
    const monitor::MonitorEngine e(contract, reg, nc);
    Scope s(t, "monitor.run_nocycles");
    e.run(packets, factory);
  }
  std::string stream_json;
  std::vector<obs::DeltaWindow> deltas;
  {
    monitor::MonitorOptions so = base_options(1);
    so.check_cycles = w.check_cycles;
    so.delta_every = 1;
    monitor::StreamMonitor sm(
        contract, reg, factory, so, {}, [&](const monitor::ClosedWindow& cw) {
          if (cw.has_delta && !cw.provisional) deltas.push_back(cw.delta);
        });
    {
      Scope s(t, "monitor.stream_feed");
      for (const net::Packet& p : packets) {
        t.per_call("monitor.stream_feed", [&] { sm.feed(p); });
      }
    }
    Scope s(t, "monitor.stream_finish");
    stream_json = monitor::report_to_json(sm.finish().report);
  }

  // --- obs -------------------------------------------------------------------
  c.delta_windows = deltas.size();
  {
    Scope s(t, "obs.delta_window_to_json");
    std::size_t bytes = 0;
    for (const obs::DeltaWindow& d : deltas) {
      bytes += obs::delta_window_to_json(d).size();
    }
    if (bytes == 0 && !deltas.empty()) c.failure = "empty delta rendering";
  }
  std::vector<obs::WindowPartial> windows;
  std::vector<obs::FinalPartial> finals;
  {
    Scope s(t, "obs.read_spool");
    obs::read_spool(in.dir + "/spool", contract.nf_name(), &windows, &finals);
  }
  {
    Scope s(t, "obs.merge_partials");
    const obs::FleetMergeResult merged =
        obs::merge_partials(windows, finals, obs::DriftOptions{});
    if (monitor::report_to_json(merged.report) != stream_json) {
      c.failure = "merged spool report differs from the stream report";
    }
  }

  // --- ir / dslib / hw / perf: NF execution, metering, bound evaluation ----
  std::size_t stride = std::max<std::size_t>(reg.size(), 1);
  std::vector<std::array<perf::CompiledExpr, 3>> vms;
  for (const perf::ContractEntry& e : contract.entries()) {
    std::array<perf::CompiledExpr, 3> exprs;
    for (const perf::Metric m : perf::kAllMetrics) {
      exprs[perf::metric_index(m)] = perf::CompiledExpr::compile(e.perf.get(m));
      stride = std::max(stride, exprs[perf::metric_index(m)].slot_count());
    }
    vms.push_back(std::move(exprs));
  }
  std::vector<std::uint64_t> rows;
  rows.reserve(packets.size() * stride);
  execute(t, "ir.process_into", w.nf, reg, packets, work, false, stride,
          &rows, &c);
  execute(t, "hw.process_into_metered", w.nf, reg, packets, work, true,
          stride, nullptr, nullptr);
  c.bound_rows = rows.size() / stride;
  {
    Scope s(t, "perf.eval_slots");
    std::int64_t sum = 0;
    for (std::size_t r = 0; r < rows.size(); r += stride) {
      for (const auto& exprs : vms) {
        for (const perf::CompiledExpr& e : exprs) sum += e.eval_slots(&rows[r]);
      }
    }
    g_sink = static_cast<std::uint64_t>(sum);
  }
  {
    perf::QuantileSketch sketch;
    Scope s(t, "perf.sketch_add");
    for (std::size_t r = 0; r < rows.size(); r += stride) {
      sketch.add(rows[r] + r);
    }
  }

  // --- adversary -------------------------------------------------------------
  adversary::AdversaryOptions ao;
  ao.seed = in.seed;
  ao.partitions = kPartitions;
  ao.threads = 1;
  const adversary::AdversarialTrace synth = [&] {
    Scope s(t, "adversary.adversarial_traffic");
    return adversary::adversarial_traffic(nf, contract, reg, ao);
  }();
  c.adversary_packets = synth.packets.size();
  const adversary::AdversarialTrace planned = [&] {
    Scope s(t, "adversary.plan_packets");
    return adversary::plan_packets(nf, contract, reg, synth.packets, ao);
  }();
  {
    monitor::MonitorOptions ro = base_options(1);
    ro.partitions = planned.partitions;
    ro.epoch_ns = planned.epoch_ns;
    const monitor::MonitorEngine e(contract, reg, ro);
    Scope s(t, "adversary.replay");
    if (e.run(planned.packets, factory).violations != 0) {
      c.failure = "violations on the adversary's seed trace";
    }
  }
  {
    adversary::HunterOptions ho;
    ho.seed = in.seed;
    ho.generations = w.hunt_generations;
    ho.population = kHuntPopulation;
    ho.adversary.threads = 1;
    ho.monitor.threads = 1;
    Scope s(t, "adversary.hunt");
    const adversary::HunterResult h = adversary::hunt(nf, contract, reg, ho);
    c.replays = h.replays;
    if (h.violation_found || h.divergence_found) {
      c.failure = "the hunt found a violation or a plan divergence";
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Metrics, layer shares and the span file
// ---------------------------------------------------------------------------

constexpr const char* kLayers[] = {"net",   "monitor",   "ir",   "hw",
                                   "perf",  "obs",       "core", "adversary",
                                   "boltbench"};

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self time per layer: each span's duration minus its children's.
std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].begin_ns);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[spans[i].parent] -=
          static_cast<double>(spans[i].end_ns - spans[i].begin_ns);
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[layer_of(spans[i].name)] += self[i];
  }
  return by_layer;
}

void put(std::string& out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + buf;
}

bool write_spans(const std::string& path, const Tracer& t) {
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    out += (i ? ",\n" : "\n") + std::string("{\"id\":") + std::to_string(i) +
           ",\"name\":\"" + s.name + "\",\"parent\":" +
           std::to_string(s.parent) + ",\"begin_ns\":" +
           std::to_string(s.begin_ns) + ",\"end_ns\":" +
           std::to_string(s.end_ns) + "}";
  }
  out += "],\n\"per_call\":{";
  bool first = true;
  for (const auto& [name, s] : t.all_calls()) {
    out += (first ? "\n\"" : ",\n\"") + name + "\":{\"calls\":" +
           std::to_string(s.calls) + ",\"total_ns\":" +
           std::to_string(s.total_ns) + ",\"p50_ns\":" +
           std::to_string(s.sketch.quantile(0.5)) + ",\"p99_ns\":" +
           std::to_string(s.sketch.quantile(0.99)) + "}";
    first = false;
  }
  out += "}}\n";
  return support::write_file(path, out);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// obs telemetry overhead: 1-thread runs with telemetry off and on, in
/// interleaved pairs; the median of the per-pair differences.
double telemetry_overhead_pct(const Inputs& in) {
  perf::PcvRegistry reg;
  const perf::Contract contract =
      perf::load_contract(in.dir + "/" + in.w->nf + ".json", reg);
  const std::vector<net::Packet> packets =
      net::read_pcap(in.dir + "/main.pcap");
  const auto factory = monitor::MonitorEngine::named_factory(in.w->nf);
  auto timed = [&](bool telemetry) {
    monitor::MonitorOptions o = base_options(1);
    o.telemetry = telemetry;
    const monitor::MonitorEngine e(contract, reg, o);
    obs::RunObservations ob;
    const std::uint64_t t0 = now_ns();
    e.run(packets, factory, nullptr, telemetry ? &ob : nullptr);
    return static_cast<double>(now_ns() - t0);
  };
  timed(false);  // warm-up: the passes before this leave a cold heap behind
  constexpr int kPairs = 3;
  std::vector<double> pct;
  for (int i = 0; i < kPairs; ++i) {
    const double off = timed(false);
    const double on = timed(true);
    pct.push_back((on - off) / off * 100.0);
  }
  return median(pct);
}

int cmd_trace(const Inputs& in) {
  {
    Tracer warm_up(false);  // the first pass in a process runs cold
    run_pass(in, warm_up);
  }
  // Tracing overhead: untraced and traced passes in interleaved pairs.
  // The per-layer metrics come from the last traced pass.
  constexpr int kPairs = 2;
  double untraced_ns = 0;
  double traced_ns = 0;
  std::unique_ptr<Tracer> traced;
  Counts c;
  for (int i = 0; i < kPairs; ++i) {
    Tracer off(false);
    const std::uint64_t u0 = now_ns();
    run_pass(in, off);
    untraced_ns += static_cast<double>(now_ns() - u0) / kPairs;
    traced = std::make_unique<Tracer>(true);
    const std::uint64_t t0 = now_ns();
    c = run_pass(in, *traced);
    traced_ns += static_cast<double>(now_ns() - t0) / kPairs;
    if (!c.failure.empty()) {
      std::fprintf(stderr, "boltbench: output check failed: %s\n",
                   c.failure.c_str());
      return 1;
    }
  }
  const Tracer& t = *traced;
  if (!write_spans(in.dir + "/spans.json", t)) {
    std::fprintf(stderr, "boltbench: cannot write spans.json\n");
    return 1;
  }

  const double n = static_cast<double>(std::max<std::uint64_t>(c.packets, 1));
  const double ms = 1e-6;
  const obs::MonitorTelemetry& tel = c.telemetry;
  const double executed =
      static_cast<double>(std::max<std::uint64_t>(tel.packets_executed, 1));
  std::string m = "{";
  put(m, "net.pcap_decode_ns_per_pkt", t.span_ns("net.read_pcap") / n);
  put(m, "net.pcap_tail_ns_per_pkt", t.span_ns("net.pcap_tail") / n);
  put(m, "net.header_parse_ns_per_pkt", t.calls("net.header_parse").mean_ns());
  put(m, "monitor.partition_ns_per_pkt",
      t.calls("monitor.partition_of").mean_ns());
  put(m, "monitor.engine_ctor_ms", t.span_ns("monitor.engine_ctor") * ms);
  put(m, "monitor.run_ns_per_pkt", t.span_ns("monitor.run") / n);
  put(m, "monitor.run_ns_per_pkt_mt", t.span_ns("monitor.run_mt") / n);
  put(m, "monitor.run_nocycles_ns_per_pkt",
      t.span_ns("monitor.run_nocycles") / n);
  put(m, "monitor.stream_feed_ns_per_pkt",
      t.calls("monitor.stream_feed").mean_ns());
  put(m, "monitor.stream_feed_p99_ns",
      static_cast<double>(t.calls("monitor.stream_feed").sketch.quantile(0.99)));
  put(m, "monitor.report_render_ms", t.span_ns("monitor.report_to_json") * ms);
  put(m, "monitor.attr_memo_hit_ratio",
      static_cast<double>(tel.attr_memo_hits) / executed);
  put(m, "monitor.batch_fill_p50",
      static_cast<double>(tel.batch_fill.quantile(0.5)));
  put(m, "monitor.ring_stalls_per_kpkt",
      static_cast<double>(tel.ring_stalls) * 1000.0 / executed);
  put(m, "monitor.rows_validated_per_pkt",
      static_cast<double>(tel.rows_validated) / executed);
  put(m, "monitor.epoch_sweeps", static_cast<double>(c.epoch_sweeps));
  put(m, "monitor.state_high_water", static_cast<double>(c.state_high_water));
  put(m, "ir.exec_ns_per_pkt", t.calls("ir.process_into").mean_ns());
  put(m, "ir.exec_p99_ns",
      static_cast<double>(t.calls("ir.process_into").sketch.quantile(0.99)));
  put(m, "ir.ic_per_pkt", c.ic_per_pkt);
  put(m, "ir.ma_per_pkt", c.ma_per_pkt);
  put(m, "dslib.calls_per_pkt", c.calls_per_pkt);
  put(m, "dslib.ring_walk_share_pm",
      static_cast<double>(c.ring_walk_packets) * 1000.0 / n);
  put(m, "workload.new_flow_share_pm",
      static_cast<double>(c.new_flow_packets) * 1000.0 / n);
  put(m, "hw.meter_ns_per_pkt", t.calls("hw.process_into_metered").mean_ns() -
                                    t.calls("ir.process_into").mean_ns());
  put(m, "perf.contract_load_ms",
      static_cast<double>(t.calls("perf.load_contract").sketch.quantile(0.5)) *
          ms);
  const double evals = static_cast<double>(
      std::max<std::uint64_t>(c.bound_rows * c.entries, 1));
  put(m, "perf.bound_eval_ns_per_row", t.span_ns("perf.eval_slots") / evals);
  put(m, "perf.sketch_add_ns",
      t.span_ns("perf.sketch_add") /
          static_cast<double>(std::max<std::uint64_t>(c.bound_rows, 1)));
  put(m, "obs.delta_windows", static_cast<double>(c.delta_windows));
  put(m, "obs.delta_render_us_per_window",
      t.span_ns("obs.delta_window_to_json") * 1e-3 /
          static_cast<double>(std::max<std::uint64_t>(c.delta_windows, 1)));
  put(m, "obs.spool_read_ms", t.span_ns("obs.read_spool") * ms);
  put(m, "obs.merge_ms", t.span_ns("obs.merge_partials") * ms);
  put(m, "obs.telemetry_overhead_pct", telemetry_overhead_pct(in));
  put(m, "adversary.synth_ms", t.span_ns("adversary.adversarial_traffic") * ms);
  put(m, "adversary.plan_ms_per_replay",
      t.span_ns("adversary.plan_packets") * ms);
  put(m, "adversary.replay_ms", t.span_ns("adversary.replay") * ms);
  put(m, "adversary.hunt_ms", t.span_ns("adversary.hunt") * ms);
  put(m, "adversary.replays", static_cast<double>(c.replays));
  put(m, "adversary.trace_packets", static_cast<double>(c.adversary_packets));
  put(m, "core.contract_gen_ms", t.span_ns("core.contract_gen") * ms);
  put(m, "symbex.solver_calls", static_cast<double>(c.solver_calls));
  put(m, "symbex.paths", static_cast<double>(c.symbex_paths));
  put(m, "trace.traced_pass_ms", traced_ns * ms);
  put(m, "trace.untraced_pass_ms", untraced_ns * ms);
  put(m, "trace.overhead_pct", (traced_ns - untraced_ns) / untraced_ns * 100.0);

  // Layer-share table: each layer's self time as a share of the pass.
  const std::map<std::string, double> self = self_ns_by_layer(t.spans());
  double total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  std::printf("layer shares of self time, %s seed %llu (traced pass %.1f ms, "
              "untraced %.1f ms, tracing overhead %+.2f%%)\n",
              in.w->name, static_cast<unsigned long long>(in.seed),
              traced_ns * ms, untraced_ns * ms,
              (traced_ns - untraced_ns) / untraced_ns * 100.0);
  std::printf("  %-10s %12s %8s\n", "layer", "self ms", "share");
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : it->second;
    const double share = total > 0 ? ns / total * 100.0 : 0.0;
    std::printf("  %-10s %12.2f %7.2f%%\n", layer, ns * ms, share);
    put(m, std::string("share.") + layer + "_pct", share);
  }
  m += "}";
  std::printf("%s\n", m.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: boltbench gen <workload> <seed> <dir>\n"
               "       boltbench trace <workload> <seed> <dir> <threads>\n"
               "workloads: nat_zipf | lb_failover | nat_longrun_fleet | "
               "nat_hunt\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string cmd = argv[1];
  Inputs in;
  in.w = find_workload(argv[2]);
  if (in.w == nullptr) return usage();
  in.seed = std::strtoull(argv[3], nullptr, 10);
  in.dir = argv[4];
  if (cmd == "gen" && argc == 5) return cmd_gen(*in.w, in.seed, in.dir);
  if (cmd == "trace" && argc == 6) {
    in.threads = std::max<std::size_t>(1, std::strtoull(argv[5], nullptr, 10));
    return cmd_trace(in);
  }
  return usage();
}
