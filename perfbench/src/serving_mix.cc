// serving_mix: the multi-tenant service under open-loop load.
//
// Why this workload: it loads queueing, leases, batching, publish under
// readers, the resilient Execute path and the metrics registry, none of
// which the other workloads touch. Load is open loop because closed-loop
// latency hides stalls: the generator sends on a fixed schedule and every
// latency is timed from the request's due time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/threading.h"
#include "datagen/generator.h"
#include "dynamic/churn.h"
#include "metrics/metrics.h"
#include "reliability/fault_injector.h"
#include "serving/service.h"
#include "trace.h"
#include "workloads.h"

namespace mube::perfbench {

namespace {

/// Offered rates, stepped in this order. The nominal step runs for half of
/// the run's seconds, the others share the other half. Frozen in
/// BENCHMARK.json's workload note: changing them changes the benchmark.
constexpr double kRatesRps[] = {10.0, 20.0, 30.0, 40.0};
constexpr double kNominalRps = 10.0;
/// Service-level objective of a step: refine p99 within this limit, no
/// failed, refused or shed request, no growing backlog.
constexpr double kRefineP99LimitMs = 500.0;
constexpr size_t kTenants = 16;
/// Every kExecuteEvery-th request is an Execute (Refine:Execute = 4:1).
constexpr size_t kExecuteEvery = 5;
/// Every kRepeatEvery-th request, unless it is an Execute, repeats the
/// step's previous refine, one or two requests later. Other keys recur
/// only in a later epoch, so these repeats are what the (tenant, seed,
/// epoch) determinism check compares.
constexpr size_t kRepeatEvery = 4;
/// Request deadline on the service clock, 20x the latency limit. A shed or
/// degraded request is a failed operation, so the deadline sits far past
/// the limit: the limit is judged from the latencies, and the service sheds
/// or degrades only if the box stalls for seconds. At 1000 ms a slow stretch
/// of a shared box made the 40 rps step shed a few requests in some runs
/// and none in others.
constexpr double kDeadlineMs = 10'000.0;
constexpr double kChurnPeriodS = 1.0;
/// A step whose generator ran later than this at p99 is not a valid
/// open-loop measurement: the nominal step then fails the run, and an
/// overload step does not count as meeting the limit.
constexpr double kMaxGeneratorLagMs = 50.0;
/// A service set-up takes a few ms, and a shared box's speed drifts over
/// seconds, so set-up is timed on this many throwaway services before the
/// steps and again after each step; setup_s is the median of them all.
constexpr size_t kSetupsPerPhase = 9;
/// Generator seed of the served universe. It is the same for every run
/// seed, which draws the request seeds, churn batches and fault schedule:
/// with a universe per seed, refine latency and mean Q(S) followed the
/// universe as much as the run (universes are varied on paper_loop).
constexpr uint64_t kUniverseSeed = 1;
/// Rows an Execute asks for: one page of results.
constexpr size_t kExecuteRowLimit = 100;
/// Resident-set sampling period while the rate steps run.
constexpr auto kRssSamplePeriod = std::chrono::milliseconds(10);

MubeConfig ServingConfig(const Args& args) {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = 8;
  config.optimizer_options.max_evaluations = args.tiny ? 100 : 400;
  config.optimizer_options.seed = 1;
  config.pcsa.num_maps = 64;
  // One similarity thread: with nproc threads, set-up took 4 ms or 9 ms
  // depending on how the seed's universe split across them, not on the
  // work done.
  config.similarity_threads = 1;
  return config;
}

/// Mixed churn batch: one re-crawl, one rename, one new source. No
/// removals, so every tenant's pins stay answerable.
std::vector<ChurnEvent> ChurnBatch(const Universe& universe, uint64_t seed,
                                   size_t round) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xC0DE + round);
  const std::vector<uint32_t> alive = universe.AliveSourceIds();
  const Source& crawled = universe.source(alive[rng.Uniform(alive.size())]);
  std::vector<uint64_t> tuples(crawled.tuples().begin(),
                               crawled.tuples().end());
  for (size_t g = 0; g < tuples.size() / 10 + 1; ++g) {
    tuples.push_back((uint64_t{0xBEEF} << 32) | rng.Uniform(1u << 30));
  }
  const Source& renamed = universe.source(alive[rng.Uniform(alive.size())]);
  Source fresh(0, "churned-" + std::to_string(round) + ".example.com");
  fresh.AddAttribute(Attribute("title"));
  fresh.AddAttribute(Attribute("price"));
  fresh.SetTuples({rng.Uniform(1u << 20), rng.Uniform(1u << 20)});
  return {
      ChurnEvent::UpdateTuples(crawled.name(), tuples),
      ChurnEvent::RenameAttribute(renamed.name(), 0,
                                  renamed.attribute(0).name + " v2"),
      ChurnEvent::AddSource(std::move(fresh)),
  };
}

/// Gives tenant t its own pins, GA constraint and weights.
void ConfigureTenant(MubeService* service, const GeneratedUniverse& generated,
                     size_t t) {
  Tenant* tenant =
      service->RegisterTenant("tenant-" + std::to_string(t)).ValueOrDie();
  const SnapshotManager::Lease lease = service->snapshots().Acquire();
  const Universe& universe = lease.universe();
  const std::vector<uint32_t>& pool = generated.unperturbed_source_ids;
  MUBE_CHECK(tenant->PinSource(universe, pool[(t * 7) % pool.size()]).ok());
  if (t % 2 == 1) {
    MUBE_CHECK(
        tenant->PinSource(universe, pool[(t * 7 + 3) % pool.size()]).ok());
  }
  if (t % 4 == 2) {
    const MediatedSchema gas =
        bench::PickGaConstraints(generated, 1 + t % 3, 3);
    const GlobalAttribute& ga = gas.gas()[t % gas.size()];
    MUBE_CHECK(tenant->AddGaConstraint(universe, ga).ok());
  }
  // Shift weight between matching and coverage; the rest stay at the
  // paper's values.
  const double shift = 0.02 * static_cast<double>(t % 8);
  MUBE_CHECK(tenant
                 ->SetWeights(5, {0.25 + shift, 0.25, 0.20 - shift, 0.15,
                                  0.15})
                 .ok());
}

/// One request's record: only what the metrics and checks read (an
/// Execute report's merged rows are dropped on arrival).
struct Sample {
  bool execute = false;
  std::string tenant;
  uint64_t seed = 0;
  double lag_ms = 0.0;      // generator lateness at submit
  double latency_ms = 0.0;  // due time -> response observed
  bool refused = false;     // Submit failed (queue full / quota)
  bool answered = false;    // a response arrived
  StatusCode code = StatusCode::kOk;
  bool degraded = false;
  uint64_t epoch = 0;
  double staleness = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::vector<uint32_t> sources;  // Refine: the selection
  double q = 0.0;                 // Refine: Q(S)
  ExecutionReport report;         // Execute: counters, rows cleared

  bool ok() const {
    return answered && code == StatusCode::kOk && !degraded;
  }
};

void Record(const RefineResponse& r, Sample* s) {
  s->answered = true;
  s->code = r.status.code();
  s->degraded = r.degraded;
  s->epoch = r.epoch;
  s->staleness = static_cast<double>(r.staleness_epochs);
  s->queue_ms = r.queue_seconds * 1e3;
  s->run_ms = r.run_seconds * 1e3;
  if (r.status.ok() && !r.results.empty()) {
    s->sources = r.results[0].solution.sources;
    s->q = r.results[0].solution.overall;
  }
}

void Record(ExecuteResponse r, Sample* s) {
  s->answered = true;
  s->code = r.status.code();
  s->degraded = r.degraded;
  s->epoch = r.epoch;
  s->queue_ms = r.queue_seconds * 1e3;
  s->run_ms = r.run_seconds * 1e3;
  s->report = std::move(r.report);
  s->report.result.records.clear();
  s->report.result.records.shrink_to_fit();
}

/// Samples this process's resident set every kRssSamplePeriod and keeps the
/// peak of each whole second. Every publish deep-copies the universe, so the
/// process peak counted how many epochs some reader happened to hold at one
/// instant (33-40 MB over seeds of one universe); the median of the
/// per-second peaks is the footprint under load.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the median of the per-second peaks, in MB.
  double Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return Median(peaks_mb_);
  }

 private:
  void Loop() {
    const WallTimer clock;
    double window_end_s = 1.0;
    double peak_mb = 0.0;
    while (!stop_.load()) {
      peak_mb = std::max(peak_mb, CurrentRssMb());
      if (clock.ElapsedSeconds() >= window_end_s) {
        peaks_mb_.push_back(peak_mb);
        peak_mb = 0.0;
        window_end_s += 1.0;
      }
      std::this_thread::sleep_for(kRssSamplePeriod);
    }
    // A part window counts only when no whole one ended.
    if (peaks_mb_.empty()) peaks_mb_.push_back(peak_mb);
  }

  std::atomic<bool> stop_{false};
  std::vector<double> peaks_mb_;  // the sampler thread's until joined
  std::thread thread_;
};

struct StepResult {
  double rate = 0.0;
  std::vector<Sample> samples;
  size_t backlog_at_end = 0;
  size_t unfulfilled = 0;
};

/// Watches submitted futures and stamps each response when it is seen
/// ready (polled every millisecond; a blocking wait on one future would
/// stamp the others late).
class Collector {
 public:
  struct Pending {
    size_t index;
    double due_s;
    std::optional<ResponseFuture> refine;
    std::optional<ExecuteFuture> execute;
  };

  Collector(std::vector<Sample>* samples, const WallTimer* clock)
      : samples_(samples), clock_(clock), thread_([this] { Loop(); }) {}
  ~Collector() { Finish(0.0); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(Pending pending) {
    MutexLock lock(&mu_);
    pending_.push_back(std::move(pending));
  }
  size_t Outstanding() {
    MutexLock lock(&mu_);
    return pending_.size();
  }
  /// Waits up to `timeout_s` for every pending response, then stops.
  /// Returns how many were still unfulfilled.
  size_t Finish(double timeout_s) {
    {
      MutexLock lock(&mu_);
      if (!thread_.joinable()) return unfulfilled_;
      deadline_s_ = clock_->ElapsedSeconds() + timeout_s;
      finishing_ = true;
    }
    thread_.join();
    MutexLock lock(&mu_);
    return unfulfilled_;
  }

 private:
  void Loop() {
    for (;;) {
      std::vector<Pending> ready;
      bool done = false;
      {
        MutexLock lock(&mu_);
        for (auto it = pending_.begin(); it != pending_.end();) {
          const bool is_ready = it->refine.has_value() ? it->refine->Ready()
                                                       : it->execute->Ready();
          if (is_ready) {
            ready.push_back(std::move(*it));
            it = pending_.erase(it);
          } else {
            ++it;
          }
        }
        if (finishing_ && (pending_.empty() ||
                           clock_->ElapsedSeconds() > deadline_s_)) {
          unfulfilled_ = pending_.size();
          pending_.clear();
          done = true;
        }
      }
      const double now_s = clock_->ElapsedSeconds();
      for (Pending& p : ready) {
        Sample& sample = (*samples_)[p.index];
        sample.latency_ms = (now_s - p.due_s) * 1e3;
        if (p.refine.has_value()) {
          Record(p.refine->Wait(), &sample);
        } else {
          Record(p.execute->Wait(), &sample);
        }
      }
      if (done) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::vector<Sample>* samples_;
  const WallTimer* clock_;
  Mutex mu_;
  std::vector<Pending> pending_ GUARDED_BY(mu_);
  bool finishing_ GUARDED_BY(mu_) = false;
  double deadline_s_ GUARDED_BY(mu_) = 0.0;
  size_t unfulfilled_ GUARDED_BY(mu_) = 0;
  std::thread thread_;
};

/// Runs one fixed-rate step for `seconds` and drains it. The generator is
/// this thread; request k is due at k / rate. A churn thread calls
/// `publish` once per kChurnPeriodS of the step, so a step publishes the
/// same number of batches however fast the box is.
StepResult RunStep(MubeService* service, double rate, double seconds,
                   uint64_t seed, uint64_t* request_counter,
                   const std::function<void()>& publish) {
  StepResult step;
  step.rate = rate;
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  step.samples.resize(count);
  const WallTimer clock;
  Collector collector(&step.samples, &clock);
  const size_t publishes =
      static_cast<size_t>(std::floor(seconds / kChurnPeriodS));
  std::thread churn([&] {
    for (size_t j = 1; j <= publishes; ++j) {
      const double wait_s =
          static_cast<double>(j) * kChurnPeriodS - clock.ElapsedSeconds();
      if (wait_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
      }
      publish();
    }
  });
  const Sample* last_refine = nullptr;
  for (size_t k = 0; k < count; ++k) {
    const double due_s = static_cast<double>(k) / rate;
    const double wait_s = due_s - clock.ElapsedSeconds();
    if (wait_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
    }
    const uint64_t n = (*request_counter)++;
    Sample& sample = step.samples[k];
    sample.execute = n % kExecuteEvery == kExecuteEvery - 1;
    sample.tenant = "tenant-" + std::to_string(n % kTenants);
    sample.seed = seed * 1000 + (n / kTenants) % 2;
    if (!sample.execute) {
      if (n % kRepeatEvery == kRepeatEvery - 1 && last_refine != nullptr) {
        sample.tenant = last_refine->tenant;
        sample.seed = last_refine->seed;
      }
      last_refine = &sample;
    }
    sample.lag_ms = (clock.ElapsedSeconds() - due_s) * 1e3;
    Collector::Pending pending{k, due_s, std::nullopt, std::nullopt};
    if (sample.execute) {
      ExecuteRequest request;
      request.tenant = sample.tenant;
      request.query.limit = kExecuteRowLimit;
      request.deadline_ms = kDeadlineMs;
      Result<ExecuteFuture> future = service->SubmitExecute(request);
      if (!future.ok()) {
        sample.refused = true;
        continue;
      }
      pending.execute = future.ValueOrDie();
    } else {
      RefineRequest request;
      request.tenant = sample.tenant;
      request.seed = sample.seed;
      request.deadline_ms = kDeadlineMs;
      Result<ResponseFuture> future = service->Submit(request);
      if (!future.ok()) {
        sample.refused = true;
        continue;
      }
      pending.refine = future.ValueOrDie();
    }
    collector.Add(std::move(pending));
  }
  step.backlog_at_end = collector.Outstanding();
  churn.join();
  step.unfulfilled = collector.Finish(30.0);
  return step;
}

struct StepStats {
  std::vector<double> refine_ms, execute_ms, lag_ms, queue_ms, run_ms,
      exec_run_ms, q, staleness;
  size_t failed = 0;
  size_t refused = 0, shed = 0, degraded = 0;
  double attributed_ms = 0.0;  // lag + queue + run over refines
  double refine_total_ms = 0.0;
  ReliabilityStats reliability;
  uint64_t tuples_transferred = 0;
};

StepStats Summarize(const StepResult& step) {
  StepStats st;
  for (const Sample& s : step.samples) {
    st.lag_ms.push_back(s.lag_ms);
    if (!s.ok()) ++st.failed;
    if (s.refused) ++st.refused;
    if (s.code == StatusCode::kDeadlineExceeded) ++st.shed;
    if (s.degraded) ++st.degraded;
    if (!s.ok()) continue;
    if (s.execute) {
      st.execute_ms.push_back(s.latency_ms);
      st.exec_run_ms.push_back(s.run_ms);
      st.reliability.MergeReport(s.report);
      st.tuples_transferred += s.report.result.tuples_transferred;
      continue;
    }
    st.refine_ms.push_back(s.latency_ms);
    st.queue_ms.push_back(s.queue_ms);
    st.run_ms.push_back(s.run_ms);
    st.q.push_back(s.q);
    st.staleness.push_back(s.staleness);
    st.refine_total_ms += s.latency_ms;
    st.attributed_ms += s.lag_ms + s.queue_ms + s.run_ms;
  }
  return st;
}

bool MeetsSlo(const StepResult& step, const StepStats& st) {
  return st.failed == 0 && step.unfulfilled == 0 &&
         Percentile(st.lag_ms, 0.99) <= kMaxGeneratorLagMs &&
         Percentile(st.refine_ms, 0.99) <= kRefineP99LimitMs &&
         static_cast<double>(step.backlog_at_end) <= 0.5 * step.rate;
}

}  // namespace

void RunServingMix(const Args& args, Report* report) {
  GeneratorConfig gen;
  gen.seed = kUniverseSeed;
  gen.num_sources = args.tiny ? 40 : 120;
  // Tuple volumes a fiftieth of the paper's: Execute scans whole sources
  // serially on the dispatcher.
  gen.min_cardinality = 1'000;
  gen.max_cardinality = 20'000;
  gen.tuple_pool_size = 200'000;
  const GeneratedUniverse generated = GenerateUniverse(gen).ValueOrDie();
  const MubeConfig config = ServingConfig(args);

  FaultInjector faults(args.seed);
  for (uint32_t sid = 0; sid < generated.universe.size(); sid += 4) {
    FaultProfile profile;
    profile.transient_failure_prob = 0.2;
    profile.extra_latency_ms = 5.0;
    faults.SetProfile(sid, profile);
  }
  ServiceOptions options;
  options.queue_capacity = 1024;
  options.max_batch = 16;
  options.worker_threads = 0;  // nproc
  options.degrade_threshold_ms = 50.0;
  options.fault_injector = &faults;

  // Set-up: generated universe -> a service with every tenant registered,
  // ready to answer a refine. The first service built serves the steps.
  std::vector<double> setup_s;
  MetricsRegistry registry;
  auto set_up = [&] {
    const WallTimer watch;
    std::unique_ptr<MubeService> built =
        MubeService::Create(generated.universe, config, options, &registry)
            .ValueOrDie();
    for (size_t t = 0; t < kTenants; ++t) {
      ConfigureTenant(built.get(), generated, t);
    }
    setup_s.push_back(watch.ElapsedSeconds());
    return built;
  };
  auto time_set_ups = [&] {
    for (size_t i = 0; i < kSetupsPerPhase; ++i) set_up();
  };
  const std::unique_ptr<MubeService> service = set_up();
  time_set_ups();
  // An Execute needs the tenant's incumbent: one untimed refine per tenant
  // before the steps.
  std::vector<ResponseFuture> warmups;
  for (size_t t = 0; t < kTenants; ++t) {
    RefineRequest request;
    request.tenant = "tenant-" + std::to_string(t);
    request.seed = args.seed * 1000;
    warmups.push_back(service->Submit(request).ValueOrDie());
  }
  size_t warmup_failed = 0;
  for (const ResponseFuture& warmup : warmups) {
    if (!warmup.Wait().status.ok()) ++warmup_failed;
  }
  report->Check(warmup_failed == 0,
                "serving_mix: every tenant's first refine answered");

  // One churn batch, published by each step's churn thread on its fixed
  // schedule (one step at a time, so these counters need no lock). In the
  // traced run the publish is also replayed step by step.
  bool replay = false;
  size_t round = 0;
  std::vector<double> publish_ms, lease_us;
  PublishReplay replay_sum;
  size_t replays_skipped = 0;
  size_t churn_failed = 0;
  const auto publish = [&] {
    WallTimer watch;
    SnapshotManager::Lease base = service->snapshots().Acquire();
    lease_us.push_back(watch.ElapsedMillis() * 1e3);
    const std::vector<ChurnEvent> batch =
        ChurnBatch(base.universe(), args.seed, round++);
    watch.Reset();
    const Status status = service->ApplyChurn(batch);
    publish_ms.push_back(watch.ElapsedMillis());
    if (!status.ok()) {
      ++churn_failed;
      return;
    }
    if (!replay) return;
    SnapshotManager::Lease published = service->snapshots().Acquire();
    if (published.epoch() != base.epoch() + 1) {
      ++replays_skipped;  // a persistent-failure publish landed in between
      return;
    }
    std::set<uint32_t> touched;
    for (const ChurnEvent& event : batch) {
      const std::optional<uint32_t> sid = published.universe().FindSource(
          event.kind == ChurnEvent::Kind::kAddSource ? event.source.name()
                                                     : event.source_name);
      if (sid.has_value()) touched.insert(*sid);
    }
    replay_sum.Add(ReplayPublish(
        base, published, batch,
        SampleSlice(published.universe(), touched, 256)));
  };

  // The rate steps. The traced run measures the nominal step twice, first
  // without publish replays, to price them; the checks cover both.
  uint64_t request_counter = 0;
  auto step_seconds = [&](double rate) {
    return rate == kNominalRps ? args.seconds / 2.0 : args.seconds / 6.0;
  };
  std::vector<StepResult> steps;
  std::optional<StepStats> untraced_nominal;
  RssSampler rss;
  if (args.trace) {
    steps.push_back(RunStep(service.get(), kNominalRps,
                            step_seconds(kNominalRps), args.seed,
                            &request_counter, publish));
    untraced_nominal = Summarize(steps.back());
    time_set_ups();
    replay = true;
  }
  for (double rate : kRatesRps) {
    if (args.trace && rate != kNominalRps) continue;
    steps.push_back(RunStep(service.get(), rate, step_seconds(rate),
                            args.seed, &request_counter, publish));
    time_set_ups();
  }
  const double rss_mb = rss.Stop();
  service->Drain();

  // ---- output checks ------------------------------------------------------
  size_t attempted = 0, failed = 0, unfulfilled = 0;
  size_t refused = 0, shed = 0, degraded = 0;
  std::map<std::tuple<std::string, uint64_t, uint64_t>, std::vector<uint32_t>>
      canonical;
  size_t mismatches = 0, compared = 0, nominal_compared = 0;
  double max_rps = 0.0;
  bool below_all_met = true;
  const StepResult* nominal = nullptr;
  for (const StepResult& step : steps) {
    const StepStats st = Summarize(step);
    attempted += step.samples.size();
    failed += st.failed;
    refused += st.refused;
    shed += st.shed;
    degraded += st.degraded;
    unfulfilled += step.unfulfilled;
    below_all_met = below_all_met && MeetsSlo(step, st);
    if (below_all_met) max_rps = step.rate;
    if (step.rate == kNominalRps) nominal = &step;
    report->Detail("step_" + std::to_string(static_cast<int>(step.rate)) +
                       "rps_refine_p99_ms",
                   Percentile(st.refine_ms, 0.99), "ms");
    for (const Sample& s : step.samples) {
      if (s.execute || !s.ok()) continue;
      auto [it, inserted] =
          canonical.try_emplace({s.tenant, s.seed, s.epoch}, s.sources);
      if (inserted) continue;
      ++compared;
      if (step.rate == kNominalRps) ++nominal_compared;
      if (it->second != s.sources) ++mismatches;
    }
  }
  report->Operations(attempted + publish_ms.size(), failed + churn_failed);
  // What the failed operations were, over every step.
  report->Detail("refused", static_cast<double>(refused), "count");
  report->Detail("shed", static_cast<double>(shed), "count");
  report->Detail("degraded", static_cast<double>(degraded), "count");
  report->Detail("churn_failed", static_cast<double>(churn_failed), "count");
  report->Check(unfulfilled == 0,
                "serving_mix: every admitted future fulfilled");
  report->Detail("determinism_pairs", static_cast<double>(compared), "count");
  report->Check(mismatches == 0 && nominal_compared > 0,
                "serving_mix: (tenant, seed, epoch) answers deterministic (" +
                    std::to_string(compared) + " pairs compared, " +
                    std::to_string(nominal_compared) +
                    " at the nominal step)");
  // Probe: the same request twice at the quiescent final epoch.
  size_t probe_mismatches = 0;
  for (size_t t = 0; t < kTenants; t += 4) {
    RefineRequest request;
    request.tenant = "tenant-" + std::to_string(t);
    request.seed = args.seed * 1000 + 7;
    const RefineResponse a = service->Refine(request);
    const RefineResponse b = service->Refine(request);
    if (!a.status.ok() || !b.status.ok() || a.epoch != b.epoch ||
        !SameAnswer(a.results[0].solution, b.results[0].solution)) {
      ++probe_mismatches;
    }
  }
  report->Check(probe_mismatches == 0,
                "serving_mix: a replayed request is bit-identical");
  service->Drain();
  report->Check(service->snapshots().live_epoch_count() == 1,
                "serving_mix: one live epoch after the drain");
  report->Check(churn_failed == 0, "serving_mix: every churn batch published");
  report->Check(nominal != nullptr, "serving_mix: nominal step ran");
  if (nominal == nullptr) return;
  const StepStats nom = Summarize(*nominal);
  const double nominal_lag_p99 = Percentile(nom.lag_ms, 0.99);
  report->Check(nominal_lag_p99 <= kMaxGeneratorLagMs,
                "serving_mix: open-loop generator on schedule at the nominal "
                "step (lag p99 " + std::to_string(nominal_lag_p99) + " ms)");

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", rss_mb, "MB");
    report->Detail("process_peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("iteration_p50_s", Median(nom.run_ms) / 1e3, "s");
    report->Metric("answer_p50_ms", Median(nom.refine_ms), "ms");
    report->Metric("mean_q", Mean(nom.q), "Q");
    report->Detail("refine_p50_ms", Median(nom.refine_ms), "ms");
    report->Detail("refine_p99_ms", Percentile(nom.refine_ms, 0.99), "ms");
    report->Detail("execute_p50_ms", Median(nom.execute_ms), "ms");
    report->Detail("execute_p99_ms", Percentile(nom.execute_ms, 0.99), "ms");
    report->Detail("publish_p50_ms", Median(publish_ms), "ms");
    report->Detail("max_rps_at_slo", max_rps, "1/s");
    report->Detail("failed_frac",
                   Ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
                   "ratio");
    report->Detail("nominal_refines", static_cast<double>(nom.refine_ms.size()),
                   "count");
    return;
  }

  // Traced re-solves of half the tenants at the quiescent final epoch, each
  // checked against the answer the service gives for the same request.
  SolveTrace solve_sum;
  bool traced_identical = true;
  for (size_t t = 0; t < kTenants; t += 2) {
    RefineRequest request;
    request.tenant = "tenant-" + std::to_string(t);
    request.seed = args.seed * 1000 + 11;
    const RefineResponse served = service->Refine(request);
    const SnapshotManager::Lease lease = service->snapshots().Acquire();
    const Tenant* tenant = service->FindTenant(request.tenant);
    if (!served.status.ok() || served.epoch != lease.epoch() ||
        tenant == nullptr) {
      traced_identical = false;
      continue;
    }
    Result<SolveTrace> traced = TracedSolve(
        lease.engine(), tenant->BuildRunSpec(lease.universe(), request.seed));
    if (!traced.ok()) {
      report->Check(false, "serving_mix: traced re-solve " +
                               traced.status().ToString());
      return;
    }
    traced_identical =
        traced_identical &&
        SameAnswer(traced.ValueOrDie().solution, served.results[0].solution);
    solve_sum.Add(traced.ValueOrDie());
  }
  report->Check(traced_identical,
                "serving_mix: traced answers bit-identical to the service's");
  ReportSolveLayers(solve_sum, report);
  report->Check(replay_sum.matches_published,
                "serving_mix: step-by-step publish replay matches the "
                "published epoch");
  const double match_calls = CounterValue(&registry, "mube_match_calls_total");
  const double union_hits =
      CounterValue(&registry, "mube_union_memo_hits_total");
  const double union_calls =
      union_hits + CounterValue(&registry, "mube_union_memo_misses_total");
  report->Metric("core.create_s", Median(setup_s), "s");
  report->Metric("opt.evaluations",
                 CounterValue(&registry, "mube_optimizer_evaluations_total"),
                 "count");
  report->Metric("match.calls", match_calls, "count");
  report->Metric(
      "match.memo_hit_ratio",
      Ratio(CounterValue(&registry, "mube_match_memo_hits_total"), match_calls),
      "ratio");
  report->Metric("sketch.union_calls", union_calls, "count");
  report->Metric("sketch.union_memo_hit_ratio", Ratio(union_hits, union_calls),
                 "ratio");
  report->Metric("sketch.churn_ms", replay_sum.sketch_churn_ms, "ms");
  report->Metric("text.clone_ms", replay_sum.text_clone_ms, "ms");
  report->Metric("text.churn_splice_ms", replay_sum.text_splice_ms, "ms");
  report->Metric("text.churn_measure_calls", replay_sum.text_splice_calls,
                 "count");
  report->Metric("schema.universe_clone_ms", replay_sum.universe_clone_ms,
                 "ms");
  report->Metric("dynamic.apply_events_ms", replay_sum.apply_events_ms, "ms");
  report->Metric("core.fork_ms", replay_sum.fork_ms, "ms");
  report->Metric("core.apply_delta_ms", replay_sum.apply_delta_ms, "ms");
  report->Metric("snapshot.publish_p50_ms", Median(publish_ms), "ms");
  report->Metric("serving.refine_p99_ms", Percentile(nom.refine_ms, 0.99),
                 "ms");
  report->Metric("serving.execute_p50_ms", Median(nom.execute_ms), "ms");
  report->Metric("serving.execute_p99_ms", Percentile(nom.execute_ms, 0.99),
                 "ms");
  report->Metric("serving.queue_wait_p50_ms", Median(nom.queue_ms), "ms");
  report->Metric("serving.queue_wait_p99_ms", Percentile(nom.queue_ms, 0.99),
                 "ms");
  report->Metric("serving.run_ms", Median(nom.run_ms), "ms");
  report->Metric("serving.lease_us", Median(lease_us), "us");
  const Histogram::Snapshot batches =
      registry.GetHistogram("serving_batch_size", {})->TakeSnapshot();
  report->Metric("serving.batch_size",
                 Ratio(batches.sum, static_cast<double>(batches.count)),
                 "count");
  report->Metric("serving.staleness_epochs", Mean(nom.staleness), "count");
  report->Metric("serving.rejected", static_cast<double>(nom.refused), "count");
  report->Metric("serving.shed", static_cast<double>(nom.shed), "count");
  report->Metric("serving.degraded", static_cast<double>(nom.degraded),
                 "count");
  report->Metric("exec.execute_ms", Median(nom.exec_run_ms), "ms");
  report->Metric("exec.tuples_transferred",
                 static_cast<double>(nom.tuples_transferred), "count");
  report->Metric("reliability.scans",
                 static_cast<double>(nom.reliability.scans_attempted), "count");
  report->Metric("reliability.retries",
                 static_cast<double>(nom.reliability.retries), "count");
  report->Metric("reliability.short_circuits",
                 static_cast<double>(nom.reliability.breaker_short_circuits),
                 "count");
  report->Metric(
      "reliability.useful_scan_ratio",
      Ratio(static_cast<double>(nom.reliability.scans_attempted -
                                nom.reliability.scans_failed),
            static_cast<double>(nom.reliability.scans_attempted)),
      "ratio");
  report->Metric("bench.generator_lag_p99_ms", nominal_lag_p99, "ms");
  const double untraced_p50 = Median(untraced_nominal->refine_ms);
  report->Metric("bench.trace_overhead_frac",
                 Ratio(Median(nom.refine_ms) - untraced_p50, untraced_p50),
                 "ratio");
  const double unattributed = nom.refine_total_ms - nom.attributed_ms;
  report->Metric("bench.unattributed_frac",
                 Ratio(unattributed, nom.refine_total_ms), "ratio");
  report->Detail("replays_skipped", static_cast<double>(replays_skipped),
                 "count");
}

}  // namespace mube::perfbench
