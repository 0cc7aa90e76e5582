/// sicmac — command-line front end to the library. One binary, the whole
/// paper:
///
///   sicmac pair --s1 24 --s2 12 [--table shannon|11b|11g|11n]
///   sicmac crosslink --s11 30 --s12 10 --s21 45 --s22 25
///   sicmac schedule --clients 24,18,12,9 [--power-control] [--multirate]
///   sicmac backlog --clients 24,18,12 --queues 4,2,8 [--no-packing]
///   sicmac montecarlo --scenario upload|crosslink|deployment [--trials N]
///   sicmac trace-gen --out trace.csv [--days 14] [--seed S]
///   sicmac trace-eval --in trace.csv
///   sicmac mesh --long 40 --short 10 [--exponent 4]
///   sicmac capacity --s1 20 --s2 12
///   sicmac simulate --clients 24,18,12,9 [--stale-sigma dB] [--cancel-prob p]
///   sicmac deploy --aps 4 --clients 24 --chaos-profile default [--threads N]
///   sicmac report [--trials N] [--seed S]      # markdown repro summary
///   sicmac [<command>] --help                  # usage, runs nothing
///
/// All SNRs in dB over a unit noise floor; rates on a 20 MHz channel.
///
/// Global observability flags (every command, deploy included):
///   --metrics-out <file>   JSON metrics snapshot of the run
///   --trace-out <file>     Chrome-trace JSONL (open in ui.perfetto.dev)
///   --log-level <level>    off|error|warn|info|debug (default off)
///
/// Deploy-only forensics (see README "Reading a post-mortem"):
///   --timeseries-out <csv> per-epoch time-series (wide CSV)
///   --postmortem-out <json> flight-recorder post-mortem; also dumped
///                          automatically on watchdog trip / invariant
///                          violation (the latter exits 5)
///   --postmortem-window N  epochs of events replayed in the dump (16)
///   --health-summary       per-AP lifetime health table
///
/// Global performance flag (montecarlo, trace-eval, report):
///   --threads <n>          sweep worker threads, at most 256; 0 = all
///                          hardware threads (default 1). Results are
///                          bit-identical for any value — see DESIGN.md
///                          "Parallel sweeps".
///
/// Exit codes: 0 success; 1 internal error; 2 usage error; 3 file I/O
/// error; 4 trace format error; 5 deployment invariant violated;
/// 6 matching infeasible (odd vertex count / a cost it cannot use).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "matching/error.hpp"
#include "obs/obs.hpp"
#include "sicmac.hpp"
#include "util/cli_args.hpp"

namespace {

using namespace sic;

constexpr double kBits = 12000.0;

std::unique_ptr<phy::RateAdapter> make_adapter(const std::string& name) {
  if (name == "shannon") {
    return std::make_unique<phy::ShannonRateAdapter>(megahertz(20.0));
  }
  if (name == "11b") {
    return std::make_unique<phy::DiscreteRateAdapter>(phy::RateTable::dot11b());
  }
  if (name == "11g") {
    return std::make_unique<phy::DiscreteRateAdapter>(phy::RateTable::dot11g());
  }
  if (name == "11n") {
    return std::make_unique<phy::DiscreteRateAdapter>(phy::RateTable::dot11n());
  }
  throw UsageError("unknown --table (use shannon|11b|11g|11n): " + name);
}

Milliwatts from_db(double snr_db) {
  return Milliwatts{Decibels{snr_db}.linear()};
}

/// Shared --pairing parsing for every command that runs the Fig. 12
/// matching reduction.
core::SchedulerOptions::Pairing parse_pairing(const ArgParser& args) {
  const std::string name = args.get_string("pairing", "blossom");
  if (name == "blossom") return core::SchedulerOptions::Pairing::kBlossom;
  if (name == "greedy") return core::SchedulerOptions::Pairing::kGreedy;
  throw UsageError("unknown --pairing (use blossom|greedy): " + name);
}

/// The closing line of `schedule` and `backlog`. A client below the base
/// rate never completes, which makes both totals +inf; the gain is then
/// not a number, so the line says how many clients cannot be served.
void print_total(double total, double serial, int unservable) {
  std::printf("total %.1f us vs serial %.1f us  ->  ", 1e6 * total,
              1e6 * serial);
  if (unservable == 0) {
    std::printf("gain %.3fx\n", serial / total);
  } else {
    std::printf("gain n/a (%d client%s below the base rate, never served)\n",
                unservable, unservable == 1 ? "" : "s");
  }
}

int cmd_pair(const ArgParser& args) {
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const double s1 = args.get_double("s1", 24.0);
  const double s2 = args.get_double("s2", 12.0);
  const auto ctx = core::UploadPairContext::make(
      from_db(s1), from_db(s2), Milliwatts{1.0}, *adapter,
      args.get_double("bits", kBits));
  const auto rates = core::sic_rates(ctx);
  std::printf("pair: S1=%.1f dB, S2=%.1f dB, policy=%s\n", s1, s2,
              adapter->name().c_str());
  std::printf("  concurrent rates : %.2f / %.2f Mbps\n",
              rates.stronger.megabits(), rates.weaker.megabits());
  std::printf("  serial   (eq 5)  : %.1f us\n",
              1e6 * core::serial_airtime(ctx));
  std::printf("  SIC      (eq 6)  : %.1f us  (gain %.3fx)\n",
              1e6 * core::sic_airtime(ctx), core::sic_gain(ctx));
  const auto pc = core::optimize_weaker_power(ctx);
  std::printf("  + power control  : %.1f us  (scale %.2f%s)\n",
              1e6 * pc.airtime, pc.scale, pc.applied ? "" : ", no-op");
  std::printf("  + multirate      : %.1f us\n",
              1e6 * core::multirate_airtime(ctx));
  const auto packing = core::packing_two_to_one(ctx);
  std::printf("  + packing        : %d fast packets, per-packet gain %.3fx\n",
              packing.fast_packets, packing.gain);
  return 0;
}

int cmd_capacity(const ArgParser& args) {
  const double s1 = args.get_double("s1", 20.0);
  const double s2 = args.get_double("s2", 12.0);
  const phy::CapacityRegion region{megahertz(20.0), from_db(s1), from_db(s2),
                                   Milliwatts{1.0}};
  std::printf("two-user MAC capacity region (S1=%.1f dB, S2=%.1f dB):\n", s1,
              s2);
  std::printf("  max r1        : %.2f Mbps\n", region.max_r1().megabits());
  std::printf("  max r2        : %.2f Mbps\n", region.max_r2().megabits());
  std::printf("  sum (eq 4)    : %.2f Mbps\n",
              region.sum_capacity().megabits());
  const auto a = region.corner_user1_decoded_first();
  const auto b = region.corner_user2_decoded_first();
  std::printf("  SIC corner A  : (%.2f, %.2f) Mbps  [user1 decoded first]\n",
              a.r1.megabits(), a.r2.megabits());
  std::printf("  SIC corner B  : (%.2f, %.2f) Mbps\n", b.r1.megabits(),
              b.r2.megabits());
  const auto arrival =
      phy::TwoSignalArrival::make(from_db(s1), from_db(s2), Milliwatts{1.0});
  std::printf("  gain vs TDMA  : %.4fx (Fig. 3 value)\n",
              phy::capacity_gain(megahertz(20.0), arrival));
  return 0;
}

int cmd_crosslink(const ArgParser& args) {
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  channel::TwoLinkRss rss;
  rss.s11 = from_db(args.get_double("s11", 30.0));
  rss.s12 = from_db(args.get_double("s12", 10.0));
  rss.s21 = from_db(args.get_double("s21", 45.0));
  rss.s22 = from_db(args.get_double("s22", 25.0));
  rss.noise = Milliwatts{1.0};
  const auto result = core::evaluate_cross_link(rss, *adapter, kBits);
  std::printf("cross-link case: %s\n", to_string(result.kase));
  std::printf("  SIC feasible     : %s\n", result.sic_feasible ? "yes" : "no");
  std::printf("  serial  (Z-SIC)  : %.1f us\n", 1e6 * result.serial_airtime);
  if (result.sic_feasible) {
    std::printf("  concurrent (Z+)  : %.1f us\n",
                1e6 * result.concurrent_airtime);
  }
  std::printf("  realized gain    : %.3fx\n", result.gain);
  std::printf("  with packing     : %.3fx\n",
              core::cross_link_packing_gain(rss, *adapter, kBits));
  return 0;
}

int cmd_schedule(const ArgParser& args) {
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const auto snrs = args.get_double_list("clients");
  if (snrs.empty()) {
    throw UsageError("schedule needs --clients s1,s2,... (dB)");
  }
  std::vector<channel::LinkBudget> clients;
  for (const double db : snrs) {
    clients.push_back(channel::LinkBudget{from_db(db), Milliwatts{1.0}});
  }
  core::SchedulerOptions options;
  options.enable_power_control = args.has("power-control");
  options.enable_multirate = args.has("multirate");
  options.pairing = parse_pairing(args);
  const auto schedule = core::schedule_upload(clients, *adapter, options);
  const double serial = core::serial_upload_airtime(clients, *adapter, kBits);
  int unservable = 0;
  for (const auto& c : clients) {
    if (std::isinf(core::solo_airtime(c, *adapter, kBits))) ++unservable;
  }
  std::printf("SIC-aware schedule (%zu clients, policy=%s):\n", clients.size(),
              adapter->name().c_str());
  for (const auto& slot : schedule.slots) {
    if (slot.second < 0) {
      std::printf("  C%-2d solo            %9.1f us\n", slot.first,
                  1e6 * slot.plan.airtime);
    } else {
      std::printf("  C%-2d + C%-2d %-11s %9.1f us\n", slot.first, slot.second,
                  to_string(slot.plan.mode), 1e6 * slot.plan.airtime);
    }
  }
  print_total(schedule.total_airtime, serial, unservable);
  return 0;
}

int cmd_backlog(const ArgParser& args) {
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const auto snrs = args.get_double_list("clients");
  const auto queues = args.get_int_list("queues");
  if (snrs.empty() || queues.size() != snrs.size()) {
    throw UsageError(
        "backlog needs --clients s1,s2,... and matching --queues n1,n2,...");
  }
  std::vector<core::BacklogClient> clients;
  int unservable = 0;
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    if (queues[i] < 0) {
      throw UsageError("flag --queues: queue lengths must be >= 0, got " +
                       std::to_string(queues[i]));
    }
    clients.push_back(core::BacklogClient{
        channel::LinkBudget{from_db(snrs[i]), Milliwatts{1.0}}, queues[i]});
    if (std::isinf(core::solo_drain_airtime(clients.back(), *adapter, kBits))) {
      ++unservable;
    }
  }
  core::BacklogOptions options;
  options.enable_packing = !args.has("no-packing");
  options.pairing = parse_pairing(args);
  const auto schedule =
      core::schedule_backlog_upload(clients, *adapter, options);
  const double serial =
      core::serial_backlog_airtime(clients, *adapter, kBits);
  std::printf("backlog schedule (%zu clients):\n", clients.size());
  for (const auto& slot : schedule.slots) {
    if (slot.second < 0) {
      std::printf("  C%-2d solo drain            %9.1f us\n", slot.first,
                  1e6 * slot.plan.airtime);
    } else {
      std::printf("  C%-2d + C%-2d %-14s %9.1f us (%d rounds)\n", slot.first,
                  slot.second, to_string(slot.plan.mode),
                  1e6 * slot.plan.airtime, slot.plan.rounds);
    }
  }
  print_total(schedule.total_airtime, serial, unservable);
  return 0;
}

/// The integer flag, or a UsageError when it is below \p min.
int require_at_least(const ArgParser& args, const std::string& flag,
                     int fallback, int min) {
  const int v = args.get_int(flag, fallback);
  if (v < min) {
    throw UsageError("flag --" + flag + ": " + std::to_string(v) +
                     " must be >= " + std::to_string(min));
  }
  return v;
}

int cmd_montecarlo(const ArgParser& args) {
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const std::string scenario = args.get_string("scenario", "upload");
  const int trials = require_at_least(args, "trials", 10000, 1);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const int threads = args.get_threads();
  topology::SamplerConfig config;
  config.range_m = args.get_double("range", config.range_m);
  const auto report = [](const char* name, const std::vector<double>& xs) {
    const analysis::EmpiricalCdf cdf{xs};
    std::printf("  %-16s no-gain %5.1f%%  >20%% %5.1f%%  median %.3f\n", name,
                100.0 * cdf.at(1.0 + 1e-9),
                100.0 * cdf.fraction_above(1.2), cdf.quantile(0.5));
  };
  if (scenario == "upload") {
    const auto s = analysis::run_two_to_one_techniques(config, *adapter,
                                                       trials, seed, kBits,
                                                       threads);
    std::printf("upload (two clients -> one AP), %d trials, seed %llu:\n",
                trials, static_cast<unsigned long long>(seed));
    report("SIC", s.sic);
    report("+power control", s.power_control);
    report("+multirate", s.multirate);
    report("+packing", s.packing);
  } else if (scenario == "crosslink") {
    const auto s = analysis::run_two_link_techniques(config, *adapter, trials,
                                                     seed, kBits, threads);
    std::printf("cross-link (two tx -> two rx), %d trials, seed %llu:\n",
                trials, static_cast<unsigned long long>(seed));
    report("SIC", s.sic);
    report("+power control", s.power_control);
    report("+packing", s.packing);
  } else if (scenario == "deployment") {
    // The blossom schedule pairs clients: a cell needs two of them.
    const int clients = require_at_least(args, "clients-per-cell", 8, 2);
    const auto gains = analysis::run_upload_deployment_gains(
        config, *adapter, trials, clients, seed, kBits, threads);
    std::printf(
        "deployment (%d clients -> one AP, blossom schedule), %d trials, "
        "seed %llu:\n",
        clients, trials, static_cast<unsigned long long>(seed));
    report("SIC schedule", gains);
  } else {
    throw UsageError("unknown --scenario (upload|crosslink|deployment): " +
                     scenario);
  }
  return 0;
}

int cmd_trace_gen(const ArgParser& args) {
  const std::string out = args.get_string("out", "");
  if (out.empty()) throw UsageError("trace-gen needs --out <file>");
  trace::BuildingConfig config;
  // The generator counts whole seconds in an int.
  const double seconds = args.get_double("days", 14.0) * 86400;
  if (!(seconds >= 1.0 && seconds <= std::numeric_limits<int>::max())) {
    throw UsageError("flag --days: " + *args.get("days") +
                     " is not between one second and " +
                     std::to_string(std::numeric_limits<int>::max() / 86400) +
                     " days");
  }
  config.duration_s = static_cast<int>(seconds);
  const std::uint64_t seed = args.get_u64("seed", 1);
  // Open the output before the (potentially minutes-long) generation so an
  // unwritable path fails in milliseconds, not after the work is done.
  std::ofstream os{out};
  if (!os) {
    throw trace::TraceIoError("cannot open trace file for write: " + out);
  }
  const auto trace = trace::generate_building_trace(config, seed);
  trace::write_csv(trace, os);
  std::printf("wrote %zu snapshots / %zu observations to %s\n",
              trace.snapshots.size(), trace.total_observations(), out.c_str());
  return 0;
}

int cmd_trace_eval(const ArgParser& args) {
  const std::string in = args.get_string("in", "");
  if (in.empty()) throw UsageError("trace-eval needs --in <file>");
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const auto trace = trace::read_csv_file(in);
  analysis::UploadTraceEvalConfig eval;
  eval.threads = args.get_threads();
  const auto gains = analysis::evaluate_upload_trace(trace, *adapter, eval);
  std::printf("%s: %zu snapshots, %d cells with >= 2 clients\n", in.c_str(),
              trace.snapshots.size(), gains.cells_evaluated);
  const auto report = [](const char* name, const std::vector<double>& xs) {
    if (xs.empty()) return;
    const analysis::EmpiricalCdf cdf{xs};
    std::printf("  %-22s mean %.3f  >20%% gain %5.1f%%\n", name,
                analysis::summarize(xs).mean,
                100.0 * cdf.fraction_above(1.2));
  };
  report("pairing (blossom)", gains.pairing);
  report("pairing + power ctl", gains.power_control);
  report("pairing + multirate", gains.multirate);
  report("greedy pairing", gains.greedy_pairing);
  return 0;
}

int cmd_mesh(const ArgParser& args) {
  auto chain = topology::make_mesh_chain(args.get_double("long", 40.0),
                                         args.get_double("short", 10.0));
  chain.pathloss = channel::LogDistancePathLoss::for_carrier(
      args.get_double("exponent", 4.0));
  for (auto& node : chain.nodes) node.tx_power = Dbm{23.0};
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  const auto report = core::analyze_mesh_chain(chain, adapter);
  std::printf("mesh chain A->C->D->E:\n");
  std::printf("  SIC feasible at relay C : %s (case %s)\n",
              report.sic_feasible_at_relay ? "yes" : "no",
              to_string(report.cross.kase));
  std::printf("  serial throughput       : %.1f Mbps\n",
              report.serial_throughput_bps / 1e6);
  std::printf("  pipelined throughput    : %.1f Mbps (gain %.3fx)\n",
              report.pipelined_throughput_bps / 1e6, report.gain);
  return 0;
}

double require_range(const ArgParser& args, const std::string& flag,
                     double fallback, double lo, double hi) {
  const double v = args.get_double(flag, fallback);
  if (v < lo || v > hi) {
    throw UsageError("flag --" + flag + ": " + std::to_string(v) +
                     " out of range [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  }
  return v;
}

int cmd_simulate(const ArgParser& args) {
  // End-to-end scheduled upload on the discrete-event simulator, with the
  // closed-loop executor's fault knobs and failure telemetry exposed.
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const auto snrs = args.get_double_list("clients");
  if (snrs.empty()) {
    throw UsageError("simulate needs --clients s1,s2,... (dB)");
  }
  std::vector<channel::LinkBudget> clients;
  for (const double db : snrs) {
    clients.push_back(channel::LinkBudget{from_db(db), Milliwatts{1.0}});
  }
  core::SchedulerOptions options;
  options.enable_power_control = args.has("power-control");
  options.enable_multirate = args.has("multirate");
  options.pairing = parse_pairing(args);
  options.admission_margin_db =
      Decibels{require_range(args, "margin", 0.0, 0.0, 60.0)};
  const auto schedule = core::schedule_upload(clients, *adapter, options);

  mac::UploadSimConfig config;
  config.faults.stale_rss_sigma =
      Decibels{require_range(args, "stale-sigma", 0.0, 0.0, 60.0)};
  config.faults.stale_rss_rho = require_range(args, "stale-rho", 0.9, 0.0, 1.0);
  config.faults.cancellation_failure_prob =
      require_range(args, "cancel-prob", 0.0, 0.0, 1.0);
  config.faults.ack_loss_prob = require_range(args, "ack-loss", 0.0, 0.0, 1.0);
  config.recovery.enabled = !args.has("open-loop");
  config.recovery.rematch_options = options;
  config.seed = args.get_u64("seed", 1);
  const auto r = mac::run_scheduled_upload(clients, *adapter, schedule, config);

  std::printf("scheduled upload (%zu clients, %s, %s):\n", clients.size(),
              adapter->name().c_str(),
              config.recovery.enabled ? "closed-loop" : "open-loop");
  std::printf("  offered / confirmed : %llu / %llu\n",
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.offered -
                                              r.failures.unrecovered));
  std::printf("  completion          : %.3f ms\n", 1e3 * r.completion_s);
  std::printf("  retransmissions     : %llu\n",
              static_cast<unsigned long long>(r.failures.retransmissions));
  std::printf("  unrecovered drops   : %llu\n",
              static_cast<unsigned long long>(r.failures.unrecovered));
  std::printf("  failure causes      : rate-miss %llu, cancellation %llu, "
              "ack-loss %llu\n",
              static_cast<unsigned long long>(r.failures.rate_misses),
              static_cast<unsigned long long>(r.failures.cancellation_failures),
              static_cast<unsigned long long>(r.failures.ack_losses));
  std::printf("  duplicates at AP    : %llu\n",
              static_cast<unsigned long long>(r.failures.duplicate_deliveries));
  std::printf("  demotions           : mode %llu, client %llu\n",
              static_cast<unsigned long long>(r.failures.mode_demotions),
              static_cast<unsigned long long>(r.failures.client_demotions));
  std::printf("  re-match rounds     : %llu\n",
              static_cast<unsigned long long>(r.failures.rematch_rounds));
  std::printf("  recovered frames    : %llu\n",
              static_cast<unsigned long long>(r.failures.recovered));
  return 0;
}

int cmd_deploy(const ArgParser& args) {
  // Multi-AP deployment under a chaos profile: APs on a line, clients
  // round-robin across cells, the invariant auditor attached to every
  // epoch. A violated invariant is its own exit code (5) so CI and
  // scripts can tell "the engine broke a conservation law" from an
  // ordinary failure.
  //
  // Flight-recorder forensics: with --postmortem-out (and/or
  // --timeseries-out) the run records structured per-(ap,epoch) events
  // and epoch time-series. A watchdog trip or an invariant violation
  // dumps the post-mortem immediately — frozen at the epoch that
  // tripped — and an untripped run writes it at the end ("requested").
  const auto adapter = make_adapter(args.get_string("table", "shannon"));
  const int n_aps = args.get_int("aps", 4);
  const int n_clients = args.get_int("clients", 24);
  const int n_epochs = args.get_int("epochs", 30);
  if (n_aps < 1) throw UsageError("deploy needs --aps >= 1");
  if (n_clients < 1) throw UsageError("deploy needs --clients >= 1");
  if (n_epochs < 1) throw UsageError("deploy needs --epochs >= 1");
  const std::string profile = args.get_string("chaos-profile", "default");
  const std::string timeseries_out = args.get_string("timeseries-out", "");
  const std::string postmortem_out = args.get_string("postmortem-out", "");
  const int window = args.get_int("postmortem-window", 16);
  if (window < 1) throw UsageError("deploy needs --postmortem-window >= 1");

  mac::DeploymentEngineConfig config;
  config.scheduler.enable_power_control = args.has("power-control");
  config.scheduler.enable_multirate = args.has("multirate");
  config.scheduler.pairing = parse_pairing(args);
  config.closed_loop = !args.has("open-loop");
  config.enable_quarantine = !args.has("no-quarantine");
  config.epoch_drift_sigma =
      Decibels{require_range(args, "drift-sigma", 2.0, 0.0, 60.0)};
  config.threads = args.get_threads();
  config.seed = args.get_u64("seed", 1);

  // Attach the flight recorder + time-series registry only when an output
  // asks for them — detached runs stay zero-cost.
  const bool record = !timeseries_out.empty() || !postmortem_out.empty();
  obs::TimeSeriesRegistry series;
  obs::FlightRecorder recorder;
  if (record) {
    recorder.set_config("command", "deploy");
    recorder.set_config("aps", std::to_string(n_aps));
    recorder.set_config("clients", std::to_string(n_clients));
    recorder.set_config("epochs", std::to_string(n_epochs));
    recorder.set_config("chaos_profile", profile);
    recorder.set_config("table", args.get_string("table", "shannon"));
    recorder.set_config("closed_loop", config.closed_loop ? "true" : "false");
    recorder.set_config("quarantine",
                        config.enable_quarantine ? "true" : "false");
    recorder.set_config("drift_sigma_db",
                        std::to_string(config.epoch_drift_sigma.value()));
    // No `threads` entry on purpose: the thread count is an execution
    // detail that never changes results, and recording it would break the
    // post-mortem's byte-identity-across-thread-counts contract.
    recorder.set_config("seed", std::to_string(config.seed));
    obs::set_timeseries(&series);
    obs::set_flight(&recorder);
  }

  std::vector<topology::Point> sites;
  for (int a = 0; a < n_aps; ++a) sites.push_back({60.0 * a, 0.0});
  mac::DeploymentEngine engine{sites, *adapter, config,
                               mac::FaultSchedule::preset(profile, n_clients)};
  for (int c = 0; c < n_clients; ++c) {
    const int ap = c % n_aps;
    engine.add_client({60.0 * ap + 4.0 + 1.5 * (c / n_aps),
                       (c % 2 == 0) ? 6.0 : -6.0});
  }
  mac::InvariantAuditor auditor;
  engine.set_auditor(&auditor);

  // One epoch at a time so a trip dumps the post-mortem *at* the broken
  // epoch — the ring is frozen before later epochs can evict its events.
  bool postmortem_written = false;
  const auto write_postmortem = [&] {
    if (postmortem_written) return;
    const std::string path =
        postmortem_out.empty() ? "sicmac-postmortem.json" : postmortem_out;
    std::ofstream os{path};
    if (!os) {
      throw trace::TraceIoError("cannot open post-mortem file for write: " +
                                path);
    }
    os << recorder.postmortem_json(&series,
                                   static_cast<std::uint64_t>(window))
       << '\n';
    std::fprintf(stderr, "wrote post-mortem (%s) to %s\n",
                 recorder.tripped() ? recorder.trip_reason().c_str()
                                    : "requested",
                 path.c_str());
    postmortem_written = true;
  };
  for (int e = 0; e < n_epochs; ++e) {
    (void)engine.run_epoch();
    if (!record) continue;
    if (!auditor.ok()) {
      (void)recorder.trip(
          "invariant violation: " + auditor.violations().front().what,
          static_cast<std::uint64_t>(auditor.violations().front().epoch));
    }
    if (recorder.tripped()) write_postmortem();
  }
  if (record) {
    obs::set_flight(nullptr);
    obs::set_timeseries(nullptr);
    if (!postmortem_out.empty()) write_postmortem();
    if (!timeseries_out.empty()) {
      std::ofstream os{timeseries_out};
      if (!os) {
        throw trace::TraceIoError("cannot open time-series file for write: " +
                                  timeseries_out);
      }
      os << series.csv();
      std::fprintf(stderr, "wrote %zu time-series to %s\n", series.n_series(),
                   timeseries_out.c_str());
    }
  }
  const mac::DeploymentResult& r = engine.result();
  std::printf("deployment (%d APs, %d clients, %s, chaos=%s, %s):\n", n_aps,
              n_clients, adapter->name().c_str(), profile.c_str(),
              config.closed_loop
                  ? (config.enable_quarantine ? "closed-loop+quarantine"
                                              : "closed-loop")
                  : "open-loop");
  std::printf("  epochs              : %zu\n", r.epochs.size());
  std::printf("  offered / confirmed : %llu / %llu (%.2f%%)\n",
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.confirmed),
              100.0 * r.confirmation_rate());
  std::printf("  unrecovered drops   : %llu\n",
              static_cast<unsigned long long>(r.unrecovered));
  std::printf("  deferred (no AP)    : %llu\n",
              static_cast<unsigned long long>(r.deferred));
  std::printf("  planning decisions  : %llu\n",
              static_cast<unsigned long long>(r.decisions));
  std::printf("  handoffs            : %llu\n",
              static_cast<unsigned long long>(r.handoffs));
  std::printf("  quarantines / back  : %llu / %llu\n",
              static_cast<unsigned long long>(r.quarantines),
              static_cast<unsigned long long>(r.readmissions));
  std::printf("  watchdog fires      : %llu\n",
              static_cast<unsigned long long>(r.watchdog_fires));
  {
    double mean_health = 0.0;
    for (const auto& es : r.epochs) mean_health += es.mean_health;
    if (!r.epochs.empty()) {
      mean_health /= static_cast<double>(r.epochs.size());
    }
    std::printf("  mean epoch health   : %.3f\n", mean_health);
  }
  std::printf("  invariant audit     : %s (%llu epochs)\n",
              auditor.ok() ? "ok" : "VIOLATED",
              static_cast<unsigned long long>(auditor.epochs_checked()));
  if (args.has("health-summary")) {
    std::printf("  per-AP health (health = conf x 1/(1+retry) x (1-quar) x "
                "1/(1+flux)):\n");
    std::printf("    %3s %8s %12s %12s %12s\n", "ap", "epochs", "mean_health",
                "min_health", "mean_conf");
    for (const mac::ApHealthSummary& s : engine.health_summary()) {
      std::printf("    %3d %8llu %12.4f %12.4f %12.4f\n", s.ap,
                  static_cast<unsigned long long>(s.epochs_served),
                  s.mean_health, s.min_health, s.mean_confirmation);
    }
  }
  if (!auditor.ok()) {
    for (const auto& v : auditor.violations()) {
      std::fprintf(stderr, "invariant violation (epoch %d): %s\n", v.epoch,
                   v.what.c_str());
    }
    return 5;
  }
  return 0;
}

int cmd_report(const ArgParser& args) {
  // A self-contained markdown reproduction summary with bootstrap 95% CIs
  // on every headline fraction — the quick-look version of EXPERIMENTS.md.
  const int trials = require_at_least(args, "trials", 4000, 1);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const int threads = args.get_threads();
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  topology::SamplerConfig config;

  const auto row = [&](const char* name, const std::vector<double>& xs,
                       const char* paper) {
    const auto ci = analysis::bootstrap_fraction_above(xs, 1.2, 0.95, 400, 9);
    std::printf("| %-28s | %5.1f%% [%4.1f, %4.1f] | %-18s |\n", name,
                100.0 * ci.point, 100.0 * ci.lo, 100.0 * ci.hi, paper);
  };
  const auto table_header = [] {
    std::printf("| series | >20%% gain | paper |\n|---|---|---|\n");
  };

  std::printf("# sicmac reproduction summary\n\n");
  std::printf(
      "trials per experiment: %d, seed %llu. Values are the fraction of\n"
      "cases gaining over 20%% (bootstrap 95%% CI in brackets).\n\n",
      trials, static_cast<unsigned long long>(seed));

  std::printf("## Fig. 11a — upload pair techniques\n\n");
  table_header();
  const auto up = analysis::run_two_to_one_techniques(config, shannon, trials,
                                                      seed, kBits, threads);
  row("SIC alone", up.sic, "~20%");
  row("SIC + power control", up.power_control, "~40%");
  row("SIC + multirate", up.multirate, "~40%");
  row("SIC + packing", up.packing, "(not quoted)");

  std::printf("\n## Fig. 6 / 11b — two receivers\n\n");
  table_header();
  const auto cross = analysis::run_two_link_techniques(config, shannon, trials,
                                                       seed, kBits, threads);
  row("SIC alone", cross.sic, "~0 (90% no gain)");
  row("SIC + power control", cross.power_control, "very little");
  row("SIC + packing", cross.packing, "very little");
  {
    const auto gains = analysis::run_two_link_gains(config, shannon, trials,
                                                    seed, kBits, threads);
    const analysis::EmpiricalCdf cdf{gains};
    std::printf("\nno-gain fraction (Fig. 6): %.1f%%  (paper: ~90%%)\n",
                100.0 * cdf.at(1.0 + 1e-9));
  }

  std::printf("\n## Fig. 13 — trace-driven upload (1-day synthetic trace)\n\n");
  trace::BuildingConfig building;
  building.duration_s = 24 * 3600;
  const auto building_trace = trace::generate_building_trace(building, seed);
  analysis::UploadTraceEvalConfig upload_eval;
  upload_eval.threads = threads;
  const auto tgains =
      analysis::evaluate_upload_trace(building_trace, shannon, upload_eval);
  table_header();
  row("pairing (blossom)", tgains.pairing, "prospective");
  row("pairing + power ctl", tgains.power_control, "enhanced");
  row("pairing + multirate", tgains.multirate, "enhanced");
  row("greedy pairing", tgains.greedy_pairing, "(ablation)");

  std::printf("\n## Fig. 14 — trace-driven download link pairs\n\n");
  trace::LinkTraceConfig campaign;
  const auto link_trace = trace::generate_link_trace(campaign, seed);
  analysis::DownloadTraceEvalConfig eval;
  eval.pair_samples = trials;
  eval.threads = threads;
  const phy::DiscreteRateAdapter g11{phy::RateTable::dot11g()};
  const auto arb = analysis::evaluate_download_trace(link_trace, shannon, eval);
  const auto disc = analysis::evaluate_download_trace(link_trace, g11, eval);
  table_header();
  row("arbitrary rates, SIC", arb.plain, "limited");
  row("arbitrary rates, +packing", arb.packing, "limited");
  row("802.11g rates, SIC", disc.plain, "not significant");
  row("802.11g rates, +packing", disc.packing, "~40%");
  return 0;
}

void print_usage() {
  std::printf(
      "sicmac — SIC MAC-layer analysis toolkit\n"
      "global flags: [--metrics-out m.json] [--trace-out t.jsonl]\n"
      "              [--log-level off|error|warn|info|debug]\n"
      "              [--threads N]  (sweeps; N <= 256, 0 = all cores;\n"
      "                              results identical for any N)\n"
      "commands:\n"
      "  pair        --s1 dB --s2 dB [--table shannon|11b|11g|11n]\n"
      "  capacity    --s1 dB --s2 dB\n"
      "  crosslink   --s11 dB --s12 dB --s21 dB --s22 dB [--table ...]\n"
      "  schedule    --clients dB,dB,... [--power-control] [--multirate]\n"
      "              [--pairing blossom|greedy]\n"
      "  backlog     --clients dB,... --queues n,... [--no-packing]\n"
      "              [--pairing ...]\n"
      "  montecarlo  --scenario upload|crosslink|deployment [--trials N]\n"
      "              [--seed S] [--clients-per-cell K]\n"
      "  trace-gen   --out file.csv [--days D] [--seed S]\n"
      "  trace-eval  --in file.csv [--table ...]\n"
      "  mesh        --long m --short m [--exponent a]\n"
      "  simulate    --clients dB,... [--stale-sigma dB] [--stale-rho r]\n"
      "              [--cancel-prob p] [--ack-loss p] [--margin dB]\n"
      "              [--pairing ...] [--open-loop] [--seed S]\n"
      "  deploy      [--aps N] [--clients N] [--epochs N] [--pairing ...]\n"
      "              [--chaos-profile none|default|outage|burst|churn]\n"
      "              [--open-loop] [--no-quarantine] [--drift-sigma dB]\n"
      "              [--timeseries-out ts.csv] [--postmortem-out pm.json]\n"
      "              [--postmortem-window N] [--health-summary]\n"
      "              [--threads N] [--seed S]\n"
      "              The global --metrics-out/--trace-out/--log-level flags\n"
      "              apply here too; a watchdog trip or invariant violation\n"
      "              dumps the flight-recorder post-mortem immediately, and\n"
      "              a violated invariant exits with code 5.\n"
      "  report      [--trials N] [--seed S]\n"
      "exit codes: 0 ok, 1 internal, 2 usage, 3 file I/O, 4 trace format,\n"
      "            5 deployment invariant violated, 6 matching infeasible\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args{argc, argv};
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const std::string& cmd = args.command();

    // Global observability flags — parsed before dispatch so every command
    // runs instrumented the same way.
    const std::string log_level = args.get_string("log-level", "");
    if (!log_level.empty()) {
      const auto parsed = obs::parse_log_level(log_level);
      if (!parsed) {
        throw UsageError("unknown --log-level (off|error|warn|info|debug): " +
                         log_level);
      }
      obs::set_log_level(*parsed);
    }
    const std::string metrics_out = args.get_string("metrics-out", "");
    const std::string trace_out = args.get_string("trace-out", "");
    obs::MetricsRegistry registry;
    if (!metrics_out.empty()) obs::set_metrics(&registry);
    std::ofstream trace_os;
    std::unique_ptr<obs::TraceSink> sink;
    if (!trace_out.empty()) {
      trace_os.open(trace_out);
      if (!trace_os) {
        throw trace::TraceIoError("cannot open trace file for write: " +
                                  trace_out);
      }
      sink = std::make_unique<obs::TraceSink>(trace_os);
      obs::set_trace(sink.get());
    }

    int rc = 0;
    if (cmd == "pair") {
      rc = cmd_pair(args);
    } else if (cmd == "capacity") {
      rc = cmd_capacity(args);
    } else if (cmd == "crosslink") {
      rc = cmd_crosslink(args);
    } else if (cmd == "schedule") {
      rc = cmd_schedule(args);
    } else if (cmd == "backlog") {
      rc = cmd_backlog(args);
    } else if (cmd == "montecarlo") {
      rc = cmd_montecarlo(args);
    } else if (cmd == "trace-gen") {
      rc = cmd_trace_gen(args);
    } else if (cmd == "trace-eval") {
      rc = cmd_trace_eval(args);
    } else if (cmd == "mesh") {
      rc = cmd_mesh(args);
    } else if (cmd == "simulate") {
      rc = cmd_simulate(args);
    } else if (cmd == "deploy") {
      rc = cmd_deploy(args);
    } else if (cmd == "report") {
      rc = cmd_report(args);
    } else {
      print_usage();
      return 2;
    }
    if (sink) {
      obs::set_trace(nullptr);
      sink->flush();
      std::fprintf(stderr, "wrote %llu trace events to %s\n",
                   static_cast<unsigned long long>(sink->events_written()),
                   trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      obs::set_metrics(nullptr);
      std::ofstream ms{metrics_out};
      if (!ms) {
        throw trace::TraceIoError("cannot open metrics file for write: " +
                                  metrics_out);
      }
      ms << registry.json_snapshot() << '\n';
      std::fprintf(stderr, "wrote metrics snapshot to %s\n",
                   metrics_out.c_str());
    }
    for (const auto& flag : args.unknown_flags()) {
      std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
    }
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const mac::FaultConfigError& e) {
    // Malformed chaos profile / fault knobs — a usage problem, not an
    // internal failure.
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const trace::TraceIoError& e) {
    std::fprintf(stderr, "io error: %s\n", e.what());
    return 3;
  } catch (const trace::TraceFormatError& e) {
    std::fprintf(stderr, "trace format error: %s\n", e.what());
    return 4;
  } catch (const matching::MatchingError& e) {
    // The matching layer rejected its input (odd vertex count, a cost it
    // cannot use) — distinct from an internal error so scripts sweeping
    // --pairing configurations can tell the two apart.
    std::fprintf(stderr, "matching error: %s\n", e.what());
    return 6;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
