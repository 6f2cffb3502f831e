// tgbench — one repetition of one benchmark workload, in its own process.
//
//   tgbench --workload NAME --seed N --trace 0|1 --work-dir DIR
//           [--size full|tiny] [--spans FILE]
//
// Phases: set-up (config -> ready Scenario), simulate (Scenario::run),
// analyze (the analyst suite over the recorded usage), then verification,
// which is timed by nothing and counted in neither memory nor allocations.
// Prints one JSON object on stdout with the raw measurements, the output
// checks and a digest of the simulated outputs; run.py aggregates
// repetitions into the benchmark's metrics.
//
// --trace 1 installs LayerHook on the engine and records spans (see
// layer_trace.hpp); --trace 0 runs with no hook. Both produce the same
// digest for a seed, which is how the traced run proves it preserved the
// event order.
#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/features.hpp"
#include "core/report.hpp"
#include "core/streaming.hpp"
#include "fault/invariants.hpp"
#include "layer_trace.hpp"
#include "obs/metrics.hpp"
#include "util/memstats.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace tg;
using tgbench::Clock;
using tgbench::Layer;
using tgbench::LayerHook;
using tgbench::ScopedSpan;
using tgbench::SpanRecorder;

// Records per segment for the spilling workload and for the re-append. At
// 16,384 (a quarter of the library's example size) a 3-year run seals and
// spills dozens of segments per stream, so the write path carries weight.
constexpr std::uint32_t kSegmentRecords = 16384;
constexpr std::uint32_t kTinySegmentRecords = 512;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool tiny = false;
  std::string work_dir;
  std::string spans;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "tgbench: %s\nusage: tgbench --workload "
               "quarter_s16|stream_spill_3y|analysis_3y --seed N --trace 0|1 "
               "--work-dir DIR [--size full|tiny] [--spans FILE]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.traced = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size: full|tiny");
      a.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.work_dir.empty()) {
    usage("--workload, --seed and --work-dir are required");
  }
  if (a.workload != "quarter_s16" && a.workload != "stream_spill_3y" &&
      a.workload != "analysis_3y") {
    usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

// --- Workload configs --------------------------------------------------------

// quarter_s16: BM_ScenarioQuarter/16 — the default mix x4 over 90 days.
ScenarioConfig quarter_s16(std::uint64_t seed, bool tiny) {
  return ScenarioConfig::defaults()
      .with_seed(seed)
      .with_horizon(tiny ? 20 * kDay : 90 * kDay)
      .with_scale(tiny ? 0.25 : 16 / 4.0)
      .with_plan_cache(true);
}

// stream_spill_3y: exp_year_in_the_life (data-intensive archetype, data
// grid, monthly streaming windows) over three years, spilling segments.
ScenarioConfig stream_spill_3y(std::uint64_t seed, bool tiny,
                               const std::string& spill_dir) {
  const int months = tiny ? 2 : 36;
  ScenarioConfig::StreamingOptions streaming;
  streaming.enabled = true;
  streaming.bucket = 30 * kDay;
  streaming.series_end = months * 30 * kDay;
  streaming.segments.segment_records =
      tiny ? kTinySegmentRecords : kSegmentRecords;
  streaming.segments.spill_dir = spill_dir;
  return ScenarioConfig::defaults()
      .with_seed(seed)
      .with_horizon(tiny ? 60 * kDay : 3 * kYear)
      .with_gateway_adoption_ramp(0.5)
      .with_plan_cache(true)
      .with_streaming(streaming)
      .with_archetype(ArchetypeSpec::data_intensive())
      .with_data_grid(DataGridConfig::enabled_defaults());
}

// analysis_3y: the default mix over three years; simulated during set-up.
ScenarioConfig analysis_3y(std::uint64_t seed, bool tiny) {
  return ScenarioConfig::defaults()
      .with_seed(seed)
      .with_horizon(tiny ? 120 * kDay : 3 * kYear);
}

// --- Output checks -----------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  int attempted_ = 0;
  std::vector<std::string> failures_;
};

/// FNV-1a over the simulated outputs the traced and untraced runs of one
/// seed must agree on.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(long v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<long>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_report(Digest& d, const ModalityReport& r) {
  for (const ModalityRow& row : r.rows()) {
    d.add(row.users);
    d.add(row.primary_users);
    d.add(row.jobs);
    d.add(row.nu);
    d.add(row.user_share);
    d.add(row.nu_share);
  }
  d.add(r.total_users());
  d.add(r.total_jobs());
  d.add(r.total_nu());
  d.add(r.gateway_end_users());
}

bool same_report(const ModalityReport& a, const ModalityReport& b) {
  Digest da;
  Digest db;
  digest_report(da, a);
  digest_report(db, b);
  return da.value() == db.value();
}

bool same_series(const ModalityTimeSeries& a, const ModalityTimeSeries& b) {
  return a.primary_users == b.primary_users &&
         a.gateway_end_users == b.gateway_end_users && a.bucket == b.bucket;
}

/// Counts every record the accounting layer appends (Scenario::subscribe).
class RecordCounter final : public UsageDatabase::RecordObserver {
 public:
  void on_job(const JobRecord&) override { ++jobs; }
  void on_transfer(const TransferRecord&) override { ++transfers; }
  void on_session(const SessionRecord&) override { ++sessions; }
  std::uint64_t jobs = 0;
  std::uint64_t transfers = 0;
  std::uint64_t sessions = 0;
};

// --- The record tape ---------------------------------------------------------

/// Every record of a database, read through the query surface both storage
/// engines serve, in one end-time-ordered stream (stable, so each user's
/// records keep their append order).
struct Tape {
  enum class Kind : std::uint8_t { kJob, kTransfer, kSession };
  struct Entry {
    SimTime end;
    Kind kind;
    const void* record;
  };
  std::vector<Entry> entries;
};

Tape read_tape(const UsageDatabase& db) {
  Tape tape;
  for (const JobRecord* r :
       db.jobs_ending_in(std::numeric_limits<SimTime>::min(), kMaxSimTime)) {
    tape.entries.push_back({r->end_time, Tape::Kind::kJob, r});
  }
  UserWindowRecords window;
  for (UserId::rep u = 0; u < db.user_id_limit(); ++u) {
    db.records_of(UserId(u), std::numeric_limits<SimTime>::min(),
                  kMaxSimTime, window);
    for (const TransferRecord* r : window.transfers) {
      tape.entries.push_back({r->end_time, Tape::Kind::kTransfer, r});
    }
    for (const SessionRecord* r : window.sessions) {
      tape.entries.push_back({r->end_time, Tape::Kind::kSession, r});
    }
  }
  std::stable_sort(tape.entries.begin(), tape.entries.end(),
                   [](const Tape::Entry& a, const Tape::Entry& b) {
                     return a.end < b.end;
                   });
  return tape;
}

template <class Sink>
void play_tape(const Tape& tape, Sink&& sink) {
  for (const Tape::Entry& e : tape.entries) {
    switch (e.kind) {
      case Tape::Kind::kJob:
        sink(*static_cast<const JobRecord*>(e.record));
        break;
      case Tape::Kind::kTransfer:
        sink(*static_cast<const TransferRecord*>(e.record));
        break;
      case Tape::Kind::kSession:
        sink(*static_cast<const SessionRecord*>(e.record));
        break;
    }
  }
}

// --- The analyst suite -------------------------------------------------------

struct SuiteResult {
  std::optional<ModalityReport> report;
  std::optional<ModalityReport> report_segmented;
  ModalityTimeSeries series;
  ModalityTimeSeries replay_series;
  std::vector<long> sweep_primary;  ///< classified users per sweep point
  std::vector<double> extract_user_us;
  long extract_jobs = 0;       ///< jobs summed over extract()'s users
  long extract_user_jobs = 0;  ///< the same over extract_user() calls
  std::uint64_t windows_closed = 0;
  std::uint64_t records_dropped = 0;
  SegmentLogStats reappend_segments;
  std::size_t tape_records = 0;
};

/// End of the quarterly series for a horizon: whole quarters, or the
/// horizon itself when it is shorter than one (StreamingOptions' rule).
SimTime series_end_for(Duration horizon) {
  const SimTime whole = horizon / kQuarter * kQuarter;
  return whole > 0 ? whole : horizon;
}

/// The analysis an operator runs once the usage is recorded: the headline
/// report, the quarterly series, a threshold sweep over one extraction, the
/// per-user drill-down, a streaming replay of the record tape, and a
/// re-append of the tape into segmented storage with the same report on it.
SuiteResult analyst_suite(const Scenario& scenario, SpanRecorder& rec,
                          const std::string& reappend_dir, bool tiny) {
  SuiteResult out;
  const Platform& platform = scenario.platform();
  const UsageDatabase& db = scenario.db();
  const FeatureConfig& features = scenario.config().features;
  const RuleClassifier classifier;
  const SimTime to = scenario.engine().now() + 1;
  const SimTime series_end = series_end_for(scenario.config().horizon);

  {
    ScopedSpan s(rec, "core.report");
    out.report.emplace(scenario.report(classifier));
  }
  {
    ScopedSpan s(rec, "core.series");
    out.series =
        quarterly_series(platform, db, classifier, 0, series_end, features);
  }
  const FeatureExtractor extractor(platform, features);
  std::vector<UserFeatures> all;
  {
    ScopedSpan s(rec, "core.extract");
    all = extractor.extract(db, 0, to);
  }
  for (const UserFeatures& f : all) out.extract_jobs += f.jobs;
  {
    ScopedSpan s(rec, "core.classify");
    for (int i = 0; i < 8; ++i) {
      ClassifierThresholds t;
      t.gateway_fraction = 0.3 + 0.05 * i;
      t.workflow_fraction = 0.15 + 0.025 * i;
      t.exploratory_max_nu = 250.0 * (1 + i);
      const auto sets = RuleClassifier(t).classify(all);
      std::array<long, kModalityCount> primary{};
      for (const ModalitySet& m : sets) {
        if (m.members.any()) ++primary[static_cast<std::size_t>(m.primary)];
      }
      out.sweep_primary.insert(out.sweep_primary.end(), primary.begin(),
                               primary.end());
    }
  }
  {
    ScopedSpan s(rec, "core.extract_user");
    out.extract_user_us.reserve(db.user_id_limit());
    for (UserId::rep u = 0; u < db.user_id_limit(); ++u) {
      const auto t0 = Clock::now();
      const UserFeatures f = extractor.extract_user(db, UserId(u), 0, to);
      const auto t1 = Clock::now();
      out.extract_user_jobs += f.jobs;
      out.extract_user_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  Tape tape;
  {
    ScopedSpan s(rec, "accounting.scan");
    tape = read_tape(db);
  }
  out.tape_records = tape.entries.size();
  {
    ScopedSpan s(rec, "core.stream_replay");
    StreamingConfig sc;
    sc.series_start = 0;
    sc.series_end = series_end;
    sc.bucket = kQuarter;
    sc.features = features;
    StreamingExtractor replay(platform, sc);
    play_tape(tape, [&replay](const auto& r) {
      using R = std::decay_t<decltype(r)>;
      if constexpr (std::is_same_v<R, JobRecord>) {
        replay.on_job(r);
      } else if constexpr (std::is_same_v<R, TransferRecord>) {
        replay.on_transfer(r);
      } else {
        replay.on_session(r);
      }
    });
    replay.finish();
    out.replay_series = replay.time_series();
    out.windows_closed = replay.stats().windows_closed.value();
    out.records_dropped = replay.stats().records_dropped.value();
  }
  UsageDatabase segmented;
  {
    ScopedSpan s(rec, "accounting.reappend");
    SegmentLogConfig cfg;
    cfg.segment_records = tiny ? kTinySegmentRecords : kSegmentRecords;
    cfg.spill_dir = reappend_dir;
    segmented.enable_segments(cfg);
    play_tape(tape, [&segmented](const auto& r) { segmented.add(r); });
  }
  out.reappend_segments = segmented.segment_stats();
  {
    ScopedSpan s(rec, "core.report_segmented");
    out.report_segmented.emplace(ModalityReport::build(
        platform, segmented, classifier, 0, to, features));
  }
  return out;
}

// --- Measurements ------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// Sums every registry metric whose name starts with `prefix` and ends with
/// `suffix`.
double sum_metrics(const std::vector<obs::MetricsRegistry::Sample>& snap,
                   const std::string& prefix, const std::string& suffix) {
  double total = 0.0;
  for (const auto& s : snap) {
    if (s.name.size() >= prefix.size() + suffix.size() &&
        s.name.compare(0, prefix.size(), prefix) == 0 &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += s.value;
    }
  }
  return total;
}

std::string json_string(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n') ? ' ' : c;
  }
  return quoted + "\"";
}

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, std::isfinite(v) ? buf : "null");
  }
  void num(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    field(key, json_string(v));
  }
  void raw(const std::string& key, const std::string& json) {
    field(key, json);
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

int run(const Args& args) {
  namespace fs = std::filesystem;
  const fs::path work(args.work_dir);
  const fs::path spill_dir = work / "spill";
  const fs::path reappend_dir = work / "reappend";
  fs::create_directories(spill_dir);
  fs::create_directories(reappend_dir);

  SpanRecorder rec;
  LayerHook hook(rec);
  RecordCounter records;
  Checks checks;
  const int root = rec.open("workload");

  const bool simulate_in_setup = args.workload == "analysis_3y";
  const auto make_config = [&] {
    if (args.workload == "quarter_s16") {
      return quarter_s16(args.seed, args.tiny);
    }
    if (args.workload == "stream_spill_3y") {
      return stream_spill_3y(args.seed, args.tiny, spill_dir.string());
    }
    return analysis_3y(args.seed, args.tiny);
  };
  std::unique_ptr<Scenario> scenario;
  double simulate_s = 0.0;
  const auto simulate = [&] {
    ScopedSpan s(rec, "simulate");
    if (args.traced) scenario->engine().set_choice_hook(&hook);
    const auto t0 = Clock::now();
    scenario->run();
    simulate_s = seconds_between(t0, Clock::now());
    hook.disarm();
    scenario->engine().set_choice_hook(nullptr);
  };

  // Set-up takes milliseconds when it does not simulate, so it is repeated
  // and the median reported; only the last Scenario is kept and measured.
  const int setup_runs = simulate_in_setup ? 1 : 5;
  std::vector<double> setup_samples;
  AllocStats alloc0;
  for (int i = 0; i < setup_runs; ++i) {
    scenario.reset();
    const bool last = i == setup_runs - 1;
    if (last) alloc0 = allocation_stats();
    const std::int32_t span = last ? rec.open("setup") : -1;
    const auto t0 = Clock::now();
    scenario = std::make_unique<Scenario>(make_config());
    if (last) {
      scenario->subscribe(&records);
      if (simulate_in_setup) simulate();
      rec.close(span);
    }
    setup_samples.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(setup_samples.begin(), setup_samples.end());
  const double setup_s = setup_samples[setup_samples.size() / 2];

  if (!simulate_in_setup) simulate();

  const auto t_analyze = Clock::now();
  SuiteResult suite;
  {
    ScopedSpan s(rec, "analyze");
    suite = analyst_suite(*scenario, rec, reappend_dir.string(), args.tiny);
  }
  const double analyze_s = seconds_between(t_analyze, Clock::now());
  const AllocStats alloc1 = allocation_stats();
  const double rss_mb = peak_rss_mb();
  rec.close(root);

  // --- Verification (not measured) ---
  const UsageDatabase& db = scenario->db();
  const Engine::Stats& es = scenario->engine().stats();
  const SegmentLogStats seg = db.segment_stats();
  checks.expect(records.jobs == db.job_count() &&
                    records.transfers == db.transfer_count() &&
                    records.sessions == db.session_count(),
                "observer record counts equal the database's");
  checks.expect(suite.tape_records ==
                    db.job_count() + db.transfer_count() + db.session_count(),
                "record tape covers every stored record");
  if (db.segmented()) {
    // The audit reads contiguous rows, which segmented storage does not
    // serve: audit a monolithic copy of the same records instead.
    UsageDatabase copy;
    play_tape(read_tape(db), [&copy](const auto& r) { copy.add(r); });
    const InvariantReport audit = check_invariants(
        scenario->platform(), copy, &scenario->ledger(),
        &scenario->community(), &scenario->pool(), scenario->config().charging,
        AuditPhase::kFinal);
    checks.expect(audit.ok() && audit.checks > 0,
                  "final audit: " + audit.to_string());
    checks.expect(seg.spill_failures == 0, "segment spills all succeeded");
    checks.expect(seg.spilled > 0, "segment log spilled to disk");
  } else {
    const InvariantReport audit = scenario->audit_now(AuditPhase::kFinal);
    checks.expect(audit.ok() && audit.checks > 0,
                  "final audit: " + audit.to_string());
  }
  checks.expect(same_report(*suite.report, *suite.report_segmented),
                "segmented report equals the headline report");
  checks.expect(suite.extract_user_jobs == suite.extract_jobs,
                "extract_user agrees with extract on every user's jobs");
  checks.expect(same_series(suite.series, suite.replay_series),
                "streaming replay equals quarterly_series");
  checks.expect(suite.reappend_segments.spill_failures == 0,
                "re-append spills all succeeded");
  checks.expect(db.job_count() > 0, "the run recorded jobs");
  if (scenario->streaming() != nullptr) {
    checks.expect(scenario->streaming()->stats().windows_closed.value() > 0,
                  "live streaming closed its windows");
  }

  Digest digest;
  digest.add(static_cast<std::uint64_t>(db.job_count()));
  digest.add(static_cast<std::uint64_t>(db.transfer_count()));
  digest.add(static_cast<std::uint64_t>(db.session_count()));
  digest.add(es.fired.value());
  digest.add(db.total_nu());
  digest_report(digest, *suite.report);
  for (const auto& q : suite.series.primary_users) {
    for (const int v : q) digest.add(v);
  }
  for (const int v : suite.series.gateway_end_users) digest.add(v);
  for (const long v : suite.sweep_primary) digest.add(v);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64,
                digest.value());

  // --- Per-layer counts (publish_metrics) and span self times ---
  obs::MetricsRegistry registry;
  scenario->publish_metrics(registry);
  const auto snap = registry.snapshot();
  const auto self = rec.self_seconds();
  const auto self_of = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };

  JsonOut layer;
  layer.num("sched.replan_s", self_of("sched.replan"));
  layer.num("sched.completion_s", self_of("sched.completion"));
  layer.num("workload.submit_s", self_of("workload.submit"));
  layer.num("net.flow_completion_s", self_of("net.flow_completion"));
  layer.num("other.event_s", self_of("other.event"));
  layer.num("sched.replan_events", hook.events(Layer::kSchedReplan));
  layer.num("sched.completion_events", hook.events(Layer::kSchedCompletion));
  layer.num("workload.submit_events", hook.events(Layer::kWorkloadSubmit));
  layer.num("net.flow_completions", hook.events(Layer::kNetFlowCompletion));
  layer.num("sched.replans_full", sum_metrics(snap, "sched.", ".replan.full"));
  layer.num("sched.replans_incremental",
            sum_metrics(snap, "sched.", ".replan.incremental"));
  layer.num("sched.replans_coalesced",
            sum_metrics(snap, "sched.", ".replan.coalesced"));
  layer.num("sched.jobs_finished",
            sum_metrics(snap, "sched.", ".jobs_finished"));
  layer.num("sched.jobs_failed", sum_metrics(snap, "sched.", ".jobs_failed"));
  layer.num("des.tombstones", es.tombstones.value());
  layer.num("des.heap_high_water", es.heap_high_water.value());
  layer.num("gateway.jobs_submitted",
            sum_metrics(snap, "gateway.", ".jobs_submitted"));
  layer.num("gateway.jobs_dropped",
            sum_metrics(snap, "gateway.", ".jobs_dropped"));
  layer.num("data.stage_ins", sum_metrics(snap, "data.stage_ins", ""));
  layer.num("data.transfers", sum_metrics(snap, "data.transfers", ""));
  const double bytes_hit = sum_metrics(snap, "data.cache.bytes_hit", "");
  layer.num("data.bytes_hit", bytes_hit);
  layer.num("data.bytes_read",
            bytes_hit + sum_metrics(snap, "data.cache.bytes_missed", ""));
  layer.num("accounting.records_appended",
            records.jobs + records.transfers + records.sessions);
  layer.num("accounting.segments_sealed", seg.sealed);
  layer.num("accounting.segments_spilled", seg.spilled);
  layer.num("accounting.spilled_mb",
            static_cast<double>(seg.spilled_bytes) / (1024.0 * 1024.0));
  layer.num("accounting.spill_failures", seg.spill_failures);
  layer.num("accounting.reappend_s", self_of("accounting.reappend"));
  layer.num("accounting.scan_s", self_of("accounting.scan"));
  layer.num("core.report_s", self_of("core.report"));
  layer.num("core.report_segmented_s", self_of("core.report_segmented"));
  layer.num("core.series_s", self_of("core.series"));
  layer.num("core.extract_s", self_of("core.extract"));
  layer.num("core.classify_s", self_of("core.classify"));
  layer.num("core.stream_replay_s", self_of("core.stream_replay"));
  layer.num("core.windows_closed", suite.windows_closed);
  layer.num("core.records_dropped", suite.records_dropped);
  double layer_sum = 0.0;
  for (const char* name : tgbench::kLayerSpan) layer_sum += self_of(name);
  layer.num("obs.layer_self_s", layer_sum);
  layer.num("obs.spans", static_cast<std::uint64_t>(rec.spans().size()));

  std::string eu = "[";
  for (std::size_t i = 0; i < suite.extract_user_us.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", i == 0 ? "" : ",",
                  suite.extract_user_us[i]);
    eu += buf;
  }
  eu += "]";

  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    failures += (i == 0 ? "" : ",") + json_string(checks.failures()[i]);
  }
  failures += "]";

  if (args.traced && !args.spans.empty() && !rec.write_csv(args.spans)) {
    std::fprintf(stderr, "tgbench: cannot write spans to %s\n",
                 args.spans.c_str());
    return 1;
  }

  JsonOut out;
  out.str("workload", args.workload);
  out.num("seed", args.seed);
  out.num("traced", static_cast<std::uint64_t>(args.traced ? 1 : 0));
  out.num("setup_s", setup_s);
  out.num("simulate_s", simulate_s);
  out.num("analyze_s", analyze_s);
  out.num("jobs", static_cast<std::uint64_t>(db.job_count()));
  out.num("events_fired", es.fired.value());
  out.num("peak_rss_mb", rss_mb);
  out.raw("alloc_counting", allocation_counting_enabled() ? "true" : "false");
  out.num("allocs", alloc1.allocations - alloc0.allocations);
  out.num("alloc_bytes", alloc1.bytes - alloc0.bytes);
  out.str("digest", digest_hex);
  out.num("checks_attempted", static_cast<std::uint64_t>(checks.attempted()));
  out.raw("failures", failures);
  out.raw("layer", layer.done());
  out.raw("extract_user_us", eu);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgbench: %s\n", e.what());
    return 1;
  }
}
