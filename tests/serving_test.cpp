// Tests for src/serving: epoch-based COW snapshot lifecycle (readers
// pinned across publish, reclaim-after-last-unpin, all-or-nothing churn,
// fork-vs-rebuild equivalence), per-tenant constraint state, and the
// multi-tenant service loop (admission control, batching, fixed-seed
// determinism per epoch, metrics). The concurrency tests here are the
// -DMUBE_SANITIZE=thread targets for the serving layer: readers run
// against pinned epochs while churn builds and publishes the next one.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mube.h"
#include "datagen/generator.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "metrics/metrics.h"
#include "reliability/fault_injector.h"
#include "schema/universe.h"
#include "serving/breaker_registry.h"
#include "serving/service.h"
#include "serving/snapshot.h"
#include "serving/tenant.h"

namespace mube {
namespace {

Source MakeSource(const std::string& name,
                  const std::vector<std::string>& attrs,
                  std::vector<uint64_t> tuples = {}) {
  Source source(0, name);
  for (const std::string& attr : attrs) {
    source.AddAttribute(Attribute(attr));
  }
  if (!tuples.empty()) source.SetTuples(std::move(tuples));
  return source;
}

/// Same small hand-built catalog the dynamic tests use.
Universe SmallUniverse() {
  Universe universe;
  universe.AddSource(
      MakeSource("alpha.com", {"title", "author"}, {1, 2, 3, 4}));
  universe.AddSource(
      MakeSource("beta.com", {"book title", "price"}, {3, 4, 5}));
  universe.AddSource(
      MakeSource("gamma.com", {"author name", "isbn"}, {6, 7}));
  universe.AddSource(
      MakeSource("delta.com", {"title", "isbn number"}, {1, 8, 9}));
  return universe;
}

GeneratorConfig SmallGen(uint64_t seed = 17) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = 24;
  config.min_cardinality = 50;
  config.max_cardinality = 1'000;
  config.tuple_pool_size = 8'000;
  config.specialty_tuples_min = 10;
  config.specialty_tuples_max = 40;
  return config;
}

MubeConfig FastConfig() {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = 6;
  config.optimizer_options.max_evaluations = 400;
  config.optimizer_options.seed = 5;
  config.pcsa.num_maps = 64;
  return config;
}

/// One removal, one addition, one re-crawl, one rename, one cooperation
/// change — the standard mixed batch from the dynamic tests.
std::vector<ChurnEvent> MixedBatch(const Universe& universe) {
  return {
      ChurnEvent::RemoveSource(universe.source(2).name()),
      ChurnEvent::AddSource(
          MakeSource("newcomer.com", {"title", "author", "price in eur"},
                     {101, 102, 103, 104})),
      ChurnEvent::UpdateTuples(universe.source(0).name(), {1, 2, 42, 43}),
      ChurnEvent::RenameAttribute(universe.source(1).name(), 0,
                                  "full book title"),
      ChurnEvent::SetCooperative(universe.source(3).name(), false),
  };
}

std::unique_ptr<SnapshotManager> MakeManager(
    MetricsRegistry* registry = nullptr) {
  return SnapshotManager::Create(SmallUniverse(), FastConfig(), registry)
      .ValueOrDie();
}

// -------------------------------------------------------- SnapshotManager --

TEST(SnapshotManagerTest, EpochZeroServesTheInitialCatalog) {
  std::unique_ptr<SnapshotManager> manager = MakeManager();
  EXPECT_EQ(manager->current_epoch(), 0u);
  EXPECT_EQ(manager->live_epoch_count(), 1u);
  EXPECT_EQ(manager->published_count(), 0u);

  SnapshotManager::Lease lease = manager->Acquire();
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease.epoch(), 0u);
  EXPECT_EQ(lease.universe().size(), 4u);

  RunSpec spec;
  spec.seed = 11;
  Result<MubeResult> result = lease.engine().Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().solution.feasible);
}

TEST(SnapshotManagerTest, ReaderPinnedAcrossPublishSeesFrozenEpoch) {
  std::unique_ptr<SnapshotManager> manager = MakeManager();
  SnapshotManager::Lease pinned = manager->Acquire();

  RunSpec spec;
  spec.seed = 23;
  const MubeResult before = pinned.engine().Run(spec).ValueOrDie();

  ASSERT_TRUE(manager->ApplyChurn(MixedBatch(pinned.universe())).ok());
  EXPECT_EQ(manager->current_epoch(), 1u);
  EXPECT_EQ(manager->published_count(), 1u);
  // The superseded epoch stays alive: our lease still pins it.
  EXPECT_EQ(manager->live_epoch_count(), 2u);

  // New readers land on the churned catalog...
  SnapshotManager::Lease fresh = manager->Acquire();
  EXPECT_EQ(fresh.epoch(), 1u);
  EXPECT_TRUE(fresh.universe().FindSource("newcomer.com").has_value());
  EXPECT_FALSE(fresh.universe().alive(2));  // gamma.com removed

  // ...while the pinned reader's world is frozen: same catalog, and the
  // exact same selection for the same spec.
  EXPECT_FALSE(pinned.universe().FindSource("newcomer.com").has_value());
  EXPECT_TRUE(pinned.universe().alive(2));
  const MubeResult after = pinned.engine().Run(spec).ValueOrDie();
  EXPECT_EQ(after.solution.sources, before.solution.sources);
  EXPECT_DOUBLE_EQ(after.solution.overall, before.solution.overall);

  // Dropping the last pin reclaims the superseded epoch.
  pinned.Release();
  EXPECT_EQ(manager->live_epoch_count(), 1u);
}

TEST(SnapshotManagerTest, RejectedBatchPublishesNothing) {
  MetricsRegistry registry;
  std::unique_ptr<SnapshotManager> manager = MakeManager(&registry);

  // The valid prefix must not leak: all-or-nothing, unlike
  // Session::ApplyChurn's applied-prefix contract.
  const std::vector<ChurnEvent> batch = {
      ChurnEvent::AddSource(MakeSource("fresh.com", {"title"}, {77})),
      ChurnEvent::RemoveSource("no-such-source.com"),
  };
  EXPECT_FALSE(manager->ApplyChurn(batch).ok());

  EXPECT_EQ(manager->current_epoch(), 0u);
  EXPECT_EQ(manager->published_count(), 0u);
  EXPECT_EQ(manager->live_epoch_count(), 1u);
  SnapshotManager::Lease lease = manager->Acquire();
  EXPECT_EQ(lease.epoch(), 0u);
  EXPECT_FALSE(lease.universe().FindSource("fresh.com").has_value());
  EXPECT_EQ(
      registry.GetCounter("serving_churn_rejected_total")->Value(), 1u);
  EXPECT_EQ(
      registry.GetCounter("serving_epochs_published_total")->Value(), 0u);
}

/// The COW fork is only correct if a forked-then-reconciled epoch is
/// indistinguishable from an engine built from scratch over the churned
/// catalog — same similarity state, same sketches, same selections.
TEST(SnapshotManagerTest, ForkedEpochMatchesFreshRebuild) {
  for (const char* measure : {"jaccard3", "tfidf_cosine"}) {
    MubeConfig config = FastConfig();
    config.similarity_measure = measure;

    const Universe initial = SmallUniverse();
    const std::vector<ChurnEvent> events = MixedBatch(initial);

    std::unique_ptr<SnapshotManager> manager =
        SnapshotManager::Create(initial, config, nullptr).ValueOrDie();
    ASSERT_TRUE(manager->ApplyChurn(events).ok());
    SnapshotManager::Lease lease = manager->Acquire();
    ASSERT_EQ(lease.epoch(), 1u);

    DeltaUniverse rebuilt(SmallUniverse());
    ChurnDelta delta;
    ASSERT_TRUE(rebuilt.ApplyAll(events, &delta).ok());
    std::unique_ptr<Mube> fresh =
        Mube::Create(&rebuilt.universe(), config).ValueOrDie();

    RunSpec spec;
    spec.seed = 31;
    const MubeResult forked = lease.engine().Run(spec).ValueOrDie();
    const MubeResult scratch = fresh->Run(spec).ValueOrDie();
    EXPECT_EQ(forked.solution.sources, scratch.solution.sources) << measure;
    EXPECT_DOUBLE_EQ(forked.solution.overall, scratch.solution.overall)
        << measure;
  }
}

/// Readers of both similarity stores.
class SnapshotReadersTest : public ::testing::TestWithParam<const char*> {};

/// The TSan target: readers Run() against pinned epochs while a writer
/// clones, churns, reconciles, and publishes new ones. No reader ever
/// blocks on the writer; every superseded epoch is reclaimed once its
/// last reader unpins — on the sparse store, while newer epochs still
/// share its index buffers; fixed seeds stay deterministic per epoch.
TEST_P(SnapshotReadersTest, ConcurrentReadersAcrossChurn) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(23)).ValueOrDie();
  std::vector<std::string> names;
  for (uint32_t sid = 0; sid < gen.universe.size(); ++sid) {
    names.push_back(gen.universe.source(sid).name());
  }
  MubeConfig config = FastConfig();
  config.similarity_index = GetParam();
  std::unique_ptr<SnapshotManager> manager =
      SnapshotManager::Create(gen.universe, config, nullptr).ValueOrDie();

  constexpr int kReaders = 4;
  constexpr int kRunsPerReader = 5;
  constexpr int kChurnBatches = 4;

  struct Observation {
    uint64_t epoch;
    uint64_t seed;
    std::vector<uint32_t> sources;
  };
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&manager, &observed, r] {
      for (int i = 0; i < kRunsPerReader; ++i) {
        SnapshotManager::Lease lease = manager->Acquire();
        RunSpec spec;
        // Seeds are shared across readers so concurrent observations of
        // the same (epoch, seed) pair exist and must agree.
        spec.seed = 100 + i;
        const MubeResult result = lease.engine().Run(spec).ValueOrDie();
        observed[r].push_back(
            Observation{lease.epoch(), *spec.seed, result.solution.sources});
      }
    });
  }
  std::thread writer([&manager, &names] {
    for (int b = 0; b < kChurnBatches; ++b) {
      const std::vector<ChurnEvent> batch = {
          ChurnEvent::UpdateTuples(
              names[b], {static_cast<uint64_t>(9000 + b), 9100, 9200}),
          ChurnEvent::AddSource(MakeSource(
              "churned-" + std::to_string(b) + ".com", {"title", "price"},
              {static_cast<uint64_t>(9300 + b)})),
      };
      ASSERT_TRUE(manager->ApplyChurn(batch).ok());
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();

  // Quiescent: every lease dropped, so only the current epoch survives.
  EXPECT_EQ(manager->current_epoch(),
            static_cast<uint64_t>(kChurnBatches));
  EXPECT_EQ(manager->published_count(),
            static_cast<uint64_t>(kChurnBatches));
  EXPECT_EQ(manager->live_epoch_count(), 1u);

  // Determinism per epoch: identical (epoch, seed) pairs — no matter
  // which thread ran them, or what churn was in flight — selected the
  // exact same sources.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint32_t>> canonical;
  size_t cross_checked = 0;
  for (const std::vector<Observation>& per_thread : observed) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kRunsPerReader));
    for (const Observation& obs : per_thread) {
      auto [it, inserted] =
          canonical.try_emplace({obs.epoch, obs.seed}, obs.sources);
      if (!inserted) {
        EXPECT_EQ(it->second, obs.sources)
            << "epoch " << obs.epoch << " seed " << obs.seed;
        ++cross_checked;
      }
    }
  }
  // Replay against the final epoch: observations recorded on it must
  // reproduce exactly.
  SnapshotManager::Lease final_lease = manager->Acquire();
  for (const auto& [key, sources] : canonical) {
    if (key.first != final_lease.epoch()) continue;
    RunSpec spec;
    spec.seed = key.second;
    EXPECT_EQ(final_lease.engine().Run(spec).ValueOrDie().solution.sources,
              sources);
  }
  // With 4 readers sharing 5 seeds, collisions are guaranteed.
  EXPECT_GT(cross_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Stores, SnapshotReadersTest,
                         ::testing::Values("dense", "sparse"));

/// Engine metrics across forks and publishes, on both similarity stores.
class SimilarityMetricsTest : public ::testing::TestWithParam<const char*> {
 protected:
  MubeConfig Config() const {
    MubeConfig config = FastConfig();
    config.similarity_index = GetParam();
    return config;
  }
};

TEST_P(SimilarityMetricsTest, ForksCreditNothing) {
  const Universe universe = SmallUniverse();
  MetricsRegistry registry;
  std::unique_ptr<Mube> engine = Mube::Create(&universe, Config()).ValueOrDie();
  engine->AttachMetrics(&registry);
  // Attaching credits the initial build, once.
  ASSERT_GT(engine->similarity().last_measure_calls(), 0u);
  EXPECT_EQ(registry.GetCounter("mube_measure_calls_total")->Value(),
            engine->similarity().last_measure_calls());
  EXPECT_EQ(
      registry.GetCounter("mube_similarity_candidate_pairs_total")->Value(),
      engine->similarity().last_candidate_pairs());

  const std::string before = registry.Expose();
  std::vector<std::unique_ptr<Mube>> forks;
  for (int i = 0; i < 3; ++i) {
    forks.push_back(engine->Fork(&universe).ValueOrDie());
  }
  EXPECT_EQ(registry.Expose(), before);
}

TEST_P(SimilarityMetricsTest, PublishCreditsItsChurnOnce) {
  MetricsRegistry registry;
  std::unique_ptr<SnapshotManager> manager =
      SnapshotManager::Create(SmallUniverse(), Config(), &registry)
          .ValueOrDie();
  Counter* measure_calls = registry.GetCounter("mube_measure_calls_total");
  Counter* candidates =
      registry.GetCounter("mube_similarity_candidate_pairs_total");
  Counter* pruned = registry.GetCounter("mube_similarity_pruned_pairs_total");
  const uint64_t calls_before = measure_calls->Value();
  const uint64_t candidates_before = candidates->Value();
  const uint64_t pruned_before = pruned->Value();

  const Universe initial = manager->Acquire().universe().Clone();
  ASSERT_TRUE(manager->ApplyChurn(MixedBatch(initial)).ok());
  SnapshotManager::Lease lease = manager->Acquire();
  const SimilaritySource& churned = lease.engine().similarity();
  ASSERT_GT(churned.last_measure_calls(), 0u);
  EXPECT_EQ(measure_calls->Value() - calls_before,
            churned.last_measure_calls());
  EXPECT_EQ(candidates->Value() - candidates_before,
            churned.last_candidate_pairs());
  EXPECT_EQ(pruned->Value() - pruned_before, churned.last_pruned_pairs());
}

INSTANTIATE_TEST_SUITE_P(Stores, SimilarityMetricsTest,
                         ::testing::Values("dense", "sparse"));

// ----------------------------------------------------------------- Tenant --

TEST(TenantTest, ValidatesConstraintEditsLikeSession) {
  const Universe universe = SmallUniverse();
  Tenant tenant("alice");

  EXPECT_TRUE(tenant.PinSource(universe, "alpha.com").ok());
  EXPECT_FALSE(tenant.PinSource(universe, "alpha.com").ok());  // dup
  EXPECT_FALSE(tenant.PinSource(universe, "nope.com").ok());
  EXPECT_FALSE(tenant.PinSource(universe, 99).ok());
  EXPECT_TRUE(tenant.PinSource(universe, 2).ok());
  EXPECT_EQ(tenant.pinned_sources(), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(tenant.UnpinSource(2).ok());
  EXPECT_FALSE(tenant.UnpinSource(2).ok());

  EXPECT_FALSE(tenant.SetTheta(1.5).ok());
  EXPECT_TRUE(tenant.SetTheta(0.4).ok());
  EXPECT_FALSE(tenant.SetMaxSources(0).ok());
  EXPECT_TRUE(tenant.SetMaxSources(3).ok());
  EXPECT_FALSE(tenant.SetOptimizer("annealing-of-doom").ok());
  EXPECT_TRUE(tenant.SetOptimizer("sls").ok());
  EXPECT_FALSE(tenant.SetWeights(3, {0.5, 0.5}).ok());       // count
  EXPECT_FALSE(tenant.SetWeights(2, {0.9, 0.9}).ok());       // sum
  EXPECT_TRUE(tenant.SetWeights(2, {0.25, 0.75}).ok());

  RunSpec spec = tenant.BuildRunSpec(universe, 77);
  EXPECT_EQ(spec.source_constraints, (std::vector<uint32_t>{0}));
  EXPECT_EQ(spec.theta, 0.4);
  EXPECT_EQ(spec.max_sources, 3u);
  EXPECT_EQ(spec.optimizer, "sls");
  EXPECT_EQ(spec.weights, (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(spec.seed, 77u);
}

TEST(TenantTest, StalePinsAndGasAreShedAtSpecBuildTime) {
  DeltaUniverse catalog(SmallUniverse());
  Tenant tenant("bob");
  ASSERT_TRUE(tenant.PinSource(catalog.universe(), "gamma.com").ok());
  ASSERT_TRUE(tenant.PinSource(catalog.universe(), "alpha.com").ok());
  GlobalAttribute ga({AttributeRef(2, 0), AttributeRef(0, 1)});
  ASSERT_TRUE(tenant.AddGaConstraint(catalog.universe(), ga).ok());

  // gamma.com (id 2) retires; the pin and the GA that references it are
  // dropped lazily at spec-build time, the alpha pin survives.
  ChurnDelta delta;
  ASSERT_TRUE(
      catalog.ApplyAll({ChurnEvent::RemoveSource("gamma.com")}, &delta)
          .ok());
  RunSpec spec = tenant.BuildRunSpec(catalog.universe(), 1);
  EXPECT_EQ(spec.source_constraints, (std::vector<uint32_t>{0}));
  EXPECT_EQ(spec.ga_constraints.gas().size(), 0u);

  // A GA constraint added after the retirement is refused at edit time,
  // the same rule as pinning the retired source.
  Status stale_ga = tenant.AddGaConstraint(
      catalog.universe(),
      GlobalAttribute({AttributeRef(2, 1), AttributeRef(3, 1)}));
  EXPECT_EQ(stale_ga.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tenant.PinSource(catalog.universe(), "gamma.com").code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------- Service --

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.queue_capacity = 64;
  options.max_batch = 4;
  options.worker_threads = 2;
  return options;
}

/// Bounded future waits: a lost fulfillment must fail the test loudly, not
/// hang the suite. 60 s dwarfs any legitimate serve time here.
template <typename FutureT>
auto BoundedWait(const FutureT& future) {
  auto response = future.WaitFor(60.0);
  if (!response.has_value()) {
    ADD_FAILURE() << "future was not fulfilled within 60 s";
    response.emplace();
    response->status = Status::DeadlineExceeded("test wait timed out");
  }
  return *std::move(response);
}

/// A successful Refine that installs `tenant`'s incumbent (Execute's
/// prerequisite).
void SeedIncumbent(MubeService* service, const std::string& tenant,
                   uint64_t seed = 5) {
  RefineRequest request;
  request.tenant = tenant;
  request.seed = seed;
  const RefineResponse response = service->Refine(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
}

TEST(MubeServiceTest, RegisterRefineAndAlternatives) {
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(),
                          SmallServiceOptions())
          .ValueOrDie();

  Result<Tenant*> alice = service->RegisterTenant("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(service->RegisterTenant("alice").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(service->RegisterTenant("").ok());
  EXPECT_EQ(service->FindTenant("alice"), alice.ValueOrDie());
  EXPECT_EQ(service->FindTenant("nobody"), nullptr);

  RefineRequest request;
  request.tenant = "nobody";
  EXPECT_EQ(service->Refine(request).status.code(), StatusCode::kNotFound);

  request.tenant = "alice";
  request.seed = 7;
  RefineResponse response = service->Refine(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.results.size(), 1u);
  EXPECT_TRUE(response.results[0].solution.feasible);
  EXPECT_EQ(response.epoch, 0u);

  // A portfolio request returns up to `alternatives` *distinct* solutions
  // (a catalog this small may collapse to fewer), best first.
  request.alternatives = 3;
  response = service->Refine(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_GE(response.results.size(), 1u);
  ASSERT_LE(response.results.size(), 3u);
  for (size_t i = 1; i < response.results.size(); ++i) {
    EXPECT_GE(response.results[i - 1].solution.overall,
              response.results[i].solution.overall);
  }
}

TEST(MubeServiceTest, TenantConstraintsShapeSelectionsAcrossChurn) {
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(),
                          SmallServiceOptions())
          .ValueOrDie();
  Tenant* bob = service->RegisterTenant("bob").ValueOrDie();
  {
    SnapshotManager::Lease lease = service->snapshots().Acquire();
    ASSERT_TRUE(bob->PinSource(lease.universe(), "alpha.com").ok());
    ASSERT_TRUE(bob->SetTheta(0.2).ok());
  }

  RefineRequest request;
  request.tenant = "bob";
  request.seed = 3;
  RefineResponse response = service->Refine(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const std::vector<uint32_t>& chosen = response.results[0].solution.sources;
  EXPECT_NE(std::find(chosen.begin(), chosen.end(), 0u), chosen.end());

  // The pinned source retires. The service keeps answering: the stale pin
  // is shed at spec-build time against the new epoch.
  ASSERT_TRUE(
      service->ApplyChurn({ChurnEvent::RemoveSource("alpha.com")}).ok());
  response = service->Refine(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 1u);
  const std::vector<uint32_t>& after = response.results[0].solution.sources;
  EXPECT_EQ(std::find(after.begin(), after.end(), 0u), after.end());
}

TEST(MubeServiceTest, FixedSeedStreamIsDeterministicPerEpoch) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(29)).ValueOrDie();
  std::unique_ptr<MubeService> service =
      MubeService::Create(gen.universe, FastConfig(), SmallServiceOptions())
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("carol").ok());

  auto submit_wave = [&service]() {
    std::vector<ResponseFuture> futures;
    for (int i = 0; i < 12; ++i) {
      RefineRequest request;
      request.tenant = "carol";
      request.seed = 1 + (i % 3);  // three seeds, four submissions each
      futures.push_back(service->Submit(request).ValueOrDie());
    }
    std::map<std::pair<uint64_t, uint64_t>, std::vector<uint32_t>> by_key;
    for (int i = 0; i < 12; ++i) {
      const RefineResponse response = BoundedWait(futures[i]);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      const uint64_t seed = 1 + (i % 3);
      auto [it, inserted] = by_key.try_emplace(
          {response.epoch, seed}, response.results[0].solution.sources);
      if (!inserted) {
        EXPECT_EQ(it->second, response.results[0].solution.sources)
            << "epoch " << response.epoch << " seed " << seed;
      }
    }
    return by_key;
  };

  auto epoch0 = submit_wave();
  ASSERT_TRUE(service
                  ->ApplyChurn({ChurnEvent::UpdateTuples(
                      gen.universe.source(0).name(), {1, 2, 3})})
                  .ok());
  auto epoch1 = submit_wave();
  // Distinct epochs may (and here, with a re-crawled source, do) exist;
  // within each wave every repeated seed agreed — asserted above.
  EXPECT_EQ(epoch1.begin()->first.first, 1u);
  EXPECT_EQ(epoch0.begin()->first.first, 0u);
}

TEST(MubeServiceTest, AdmissionControlRejectsWhenTheQueueIsFull) {
  ServiceOptions options;
  options.queue_capacity = 1;
  options.max_batch = 1;
  options.worker_threads = 1;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options)
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("dave").ok());

  // Flood a single-slot queue with slow portfolio requests until one is
  // turned away. The dispatcher is busy for many milliseconds per request,
  // so a tight submit loop must eventually find the queue occupied.
  RefineRequest request;
  request.tenant = "dave";
  request.alternatives = 4;
  std::vector<ResponseFuture> accepted;
  bool rejected = false;
  for (int i = 0; i < 20'000 && !rejected; ++i) {
    request.seed = i + 1;
    Result<ResponseFuture> submitted = service->Submit(request);
    if (submitted.ok()) {
      accepted.push_back(submitted.MoveValueUnsafe());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
  service->Drain();
  for (const ResponseFuture& future : accepted) {
    EXPECT_TRUE(future.Ready());
    EXPECT_TRUE(BoundedWait(future).status.ok());
  }
}

TEST(MubeServiceTest, StopDrainsAdmittedWorkAndRejectsNew) {
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(),
                          SmallServiceOptions())
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("erin").ok());

  RefineRequest request;
  request.tenant = "erin";
  request.seed = 9;
  ResponseFuture admitted = service->Submit(request).ValueOrDie();
  service->Stop();
  service->Stop();  // idempotent

  // Work admitted before Stop() completes; work after is turned away.
  EXPECT_TRUE(admitted.Ready());
  EXPECT_TRUE(BoundedWait(admitted).status.ok());
  EXPECT_EQ(service->Submit(request).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(service->Refine(request).status.code(),
            StatusCode::kUnavailable);
}

/// Service-level churn/read race (the second TSan target): tenants keep
/// refining while the catalog churns; nobody blocks, nothing leaks.
TEST(MubeServiceTest, ChurnNeverBlocksInFlightRequests) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(31)).ValueOrDie();
  ServiceOptions options;
  options.queue_capacity = 128;
  options.max_batch = 8;
  options.worker_threads = 4;
  MetricsRegistry registry;
  std::unique_ptr<MubeService> service =
      MubeService::Create(gen.universe, FastConfig(), options, &registry)
          .ValueOrDie();
  for (const char* name : {"t0", "t1", "t2", "t3"}) {
    ASSERT_TRUE(service->RegisterTenant(name).ok());
  }

  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 24; ++i) {
    RefineRequest request;
    request.tenant = "t" + std::to_string(i % 4);
    request.seed = i + 1;
    Result<ResponseFuture> submitted = service->Submit(request);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(submitted.MoveValueUnsafe());
    if (i % 6 == 5) {
      ASSERT_TRUE(service
                      ->ApplyChurn({ChurnEvent::UpdateTuples(
                          gen.universe.source(i % 8).name(),
                          {static_cast<uint64_t>(7000 + i)})})
                      .ok());
    }
  }
  service->Drain();
  for (const ResponseFuture& future : futures) {
    const RefineResponse response = BoundedWait(future);
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_LE(response.epoch, 4u);
  }
  // Quiescent after the drain: every batch lease dropped, superseded
  // epochs reclaimed.
  EXPECT_EQ(service->snapshots().live_epoch_count(), 1u);
  EXPECT_EQ(service->snapshots().published_count(), 4u);

  // The unified registry saw the serving layer AND the engine hot paths.
  EXPECT_GE(registry.GetCounter("serving_requests_total")->Value(), 24u);
  EXPECT_EQ(registry.GetCounter("serving_epochs_published_total")->Value(),
            4u);
  EXPECT_GT(registry.GetCounter("serving_batches_total")->Value(), 0u);
  EXPECT_GE(registry.GetCounter("mube_runs_total")->Value(), 24u);
  EXPECT_GT(registry.GetCounter("mube_optimizer_evaluations_total")->Value(),
            0u);
  EXPECT_GT(registry.GetCounter("mube_match_calls_total")->Value(), 0u);
  EXPECT_GT(registry.GetCounter("mube_match_memo_misses_total")->Value(),
            0u);
  EXPECT_GT(registry.GetCounter("mube_union_memo_misses_total")->Value(),
            0u);
  EXPECT_GT(registry.GetCounter("mube_measure_calls_total")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("mube_churn_batches_total")->Value(), 4u);

  const std::string text = registry.Expose();
  EXPECT_NE(text.find("# TYPE mube_run_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serving_request_run_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("serving_staleness_epochs_bucket"),
            std::string::npos);
}

// ------------------------------------------------- Resilient Execute path --

TEST(MubeServiceTest, ExecuteRunsTheIncumbentSelectionResiliently) {
  MetricsRegistry registry;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(),
                          SmallServiceOptions(), &registry)
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("alice").ok());

  ExecuteRequest request;
  request.tenant = "nobody";
  EXPECT_EQ(service->Execute(request).status.code(), StatusCode::kNotFound);

  // Execute needs a selection to run: before any successful Refine there is
  // no incumbent, and the response says so instead of guessing one.
  request.tenant = "alice";
  EXPECT_EQ(service->Execute(request).status.code(),
            StatusCode::kFailedPrecondition);

  SeedIncumbent(service.get(), "alice");
  const ExecuteResponse response = service->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.report.outcome, QueryOutcome::kAnswered);
  EXPECT_GE(response.report.sources_succeeded, 1u);
  EXPECT_FALSE(response.report.result.records.empty());
  EXPECT_GT(response.dispatch_sequence, 0u);

  const Tenant* alice = service->FindTenant("alice");
  EXPECT_EQ(alice->serving_stats().executes, 1u);
  EXPECT_EQ(registry.GetCounter("serving_executes_total")->Value(), 1u);
  // A healthy run is cached for future degraded serves.
  EXPECT_TRUE(alice->cached_report().has_value());
}

TEST(MubeServiceTest, QueueExpiredDeadlinesAreShedBeforeDispatch) {
  std::atomic<double> clock{0.0};
  MetricsRegistry registry;
  ServiceOptions options = SmallServiceOptions();
  options.clock_ms = [&clock] { return clock.load(); };
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options, &registry)
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("alice").ok());
  SeedIncumbent(service.get(), "alice");

  // Stage a wave behind a paused dispatcher, expire it on the manual
  // clock, then release: everything must shed with kDeadlineExceeded and
  // nothing may reach an engine.
  service->PauseDispatch();
  RefineRequest refine;
  refine.tenant = "alice";
  refine.deadline_ms = 100.0;
  ResponseFuture refine_future = service->Submit(refine).ValueOrDie();
  ExecuteRequest execute;
  execute.tenant = "alice";
  execute.deadline_ms = 80.0;
  ExecuteFuture execute_future =
      service->SubmitExecute(execute).ValueOrDie();
  clock.store(150.0);
  service->ResumeDispatch();
  service->Drain();

  const RefineResponse refined = BoundedWait(refine_future);
  EXPECT_EQ(refined.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(refined.dispatch_sequence, 0u);  // never dispatched
  const ExecuteResponse executed = BoundedWait(execute_future);
  EXPECT_EQ(executed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(executed.dispatch_sequence, 0u);

  EXPECT_EQ(
      registry.GetCounter("serving_deadline_expired_in_queue_total")->Value(),
      2u);
  EXPECT_EQ(
      registry.GetCounter("serving_post_deadline_dispatch_total")->Value(),
      0u);
  EXPECT_EQ(service->FindTenant("alice")->serving_stats().shed_deadline, 2u);
}

TEST(MubeServiceTest, TightBudgetDegradesToTheCachedAnswerStaleMarked) {
  std::atomic<double> clock{0.0};
  MetricsRegistry registry;
  ServiceOptions options = SmallServiceOptions();
  options.clock_ms = [&clock] { return clock.load(); };
  options.degrade_threshold_ms = 50.0;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options, &registry)
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("alice").ok());
  SeedIncumbent(service.get(), "alice");
  ExecuteRequest execute;
  execute.tenant = "alice";
  ASSERT_TRUE(service->Execute(execute).status.ok());  // caches a report

  // Remaining budget at serve time is 100 - 70 = 30 ms < the 50 ms degrade
  // threshold: still alive (not shed), but too tight for a fresh run.
  service->PauseDispatch();
  RefineRequest refine;
  refine.tenant = "alice";
  refine.seed = 99;
  refine.deadline_ms = 100.0;
  ResponseFuture refine_future = service->Submit(refine).ValueOrDie();
  execute.deadline_ms = 100.0;
  ExecuteFuture execute_future =
      service->SubmitExecute(execute).ValueOrDie();
  clock.store(70.0);
  service->ResumeDispatch();
  service->Drain();

  const RefineResponse refined = BoundedWait(refine_future);
  ASSERT_TRUE(refined.status.ok()) << refined.status.ToString();
  EXPECT_TRUE(refined.degraded);
  ASSERT_EQ(refined.results.size(), 1u);
  EXPECT_TRUE(refined.results[0].solution.feasible);
  const ExecuteResponse executed = BoundedWait(execute_future);
  ASSERT_TRUE(executed.status.ok()) << executed.status.ToString();
  EXPECT_TRUE(executed.degraded);
  EXPECT_EQ(executed.report.outcome, QueryOutcome::kAnswered);

  EXPECT_EQ(registry.GetCounter("serving_degraded_serves_total")->Value(),
            2u);
  EXPECT_EQ(
      registry.GetCounter("serving_post_deadline_dispatch_total")->Value(),
      0u);
  EXPECT_EQ(service->FindTenant("alice")->serving_stats().degraded, 2u);
}

TEST(MubeServiceTest, TenantQuotaRejectsDistinctlyFromGlobalOverload) {
  ServiceOptions options;
  options.queue_capacity = 4;
  options.max_batch = 4;
  options.worker_threads = 1;
  options.per_tenant_quota = 2;
  MetricsRegistry registry;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options, &registry)
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("greedy").ok());
  ASSERT_TRUE(service->RegisterTenant("modest").ok());

  service->PauseDispatch();
  RefineRequest request;
  request.tenant = "greedy";
  std::vector<ResponseFuture> accepted;
  accepted.push_back(service->Submit(request).ValueOrDie());
  accepted.push_back(service->Submit(request).ValueOrDie());
  // Third submit breaches greedy's quota: kResourceExhausted (my share is
  // full) with a retry-after hint, NOT kUnavailable (the service is full).
  Result<ResponseFuture> over_quota = service->Submit(request);
  ASSERT_FALSE(over_quota.ok());
  EXPECT_EQ(over_quota.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over_quota.status().message().find("retry after"),
            std::string::npos);

  // Another tenant still gets in — the queue has global room.
  request.tenant = "modest";
  accepted.push_back(service->Submit(request).ValueOrDie());
  accepted.push_back(service->Submit(request).ValueOrDie());
  // Now the *global* capacity (4) is exhausted: a third tenant's first
  // request is turned away with kUnavailable before any quota check.
  ASSERT_TRUE(service->RegisterTenant("late").ok());
  request.tenant = "late";
  Result<ResponseFuture> overloaded = service->Submit(request);
  ASSERT_FALSE(overloaded.ok());
  EXPECT_EQ(overloaded.status().code(), StatusCode::kUnavailable);

  service->ResumeDispatch();
  service->Drain();
  for (const ResponseFuture& future : accepted) {
    EXPECT_TRUE(BoundedWait(future).status.ok());
  }
  EXPECT_EQ(registry.GetCounter("serving_quota_rejected_total")->Value(),
            1u);
  EXPECT_EQ(service->FindTenant("greedy")->serving_stats().rejected_quota,
            1u);
  EXPECT_EQ(service->FindTenant("modest")->serving_stats().rejected_quota,
            0u);
}

TEST(MubeServiceTest, WeightedFairDispatchBoundsStarvation) {
  ServiceOptions options;
  options.queue_capacity = 64;
  options.max_batch = 16;
  options.worker_threads = 2;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options)
          .ValueOrDie();
  Tenant* heavy = service->RegisterTenant("heavy").ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("light").ok());
  ASSERT_TRUE(heavy->SetDispatchWeight(2).ok());
  EXPECT_FALSE(heavy->SetDispatchWeight(0).ok());

  // heavy floods 8 requests before light submits 2. Round-robin with
  // weights {heavy: 2, light: 1} must interleave light at every third
  // dispatch slot — light's i-th request dispatches within i * (2 + 1)
  // slots no matter how deep heavy's backlog is.
  service->PauseDispatch();
  RefineRequest request;
  request.tenant = "heavy";
  std::vector<ResponseFuture> heavy_futures;
  for (int i = 0; i < 8; ++i) {
    request.seed = i + 1;
    heavy_futures.push_back(service->Submit(request).ValueOrDie());
  }
  request.tenant = "light";
  std::vector<ResponseFuture> light_futures;
  for (int i = 0; i < 2; ++i) {
    request.seed = 100 + i;
    light_futures.push_back(service->Submit(request).ValueOrDie());
  }
  service->ResumeDispatch();
  service->Drain();

  constexpr uint64_t kCycle = 2 + 1;  // sum of dispatch weights
  for (size_t i = 0; i < light_futures.size(); ++i) {
    const RefineResponse response = BoundedWait(light_futures[i]);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_LE(response.dispatch_sequence, (i + 1) * kCycle)
        << "light request " << i << " starved past its fair-share bound";
  }
  for (const ResponseFuture& future : heavy_futures) {
    EXPECT_TRUE(BoundedWait(future).status.ok());
  }
}

TEST(MubeServiceTest, BreakerStateSurvivesEpochPublishes) {
  FaultInjector faults(7);
  FaultProfile down;
  down.hard_down = true;
  faults.SetProfile(0, down);  // alpha.com never answers

  ServiceOptions options = SmallServiceOptions();
  options.fault_injector = &faults;
  options.reliability.breaker.min_samples = 2;
  options.reliability.breaker.failure_threshold = 0.5;
  options.reliability.breaker.open_cooldown_ms = 1e9;  // effectively forever
  options.reliability.persistent_failure_threshold = 100;  // isolate breakers
  MetricsRegistry registry;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options, &registry)
          .ValueOrDie();
  Tenant* alice = service->RegisterTenant("alice").ValueOrDie();
  {
    SnapshotManager::Lease lease = service->snapshots().Acquire();
    ASSERT_TRUE(alice->PinSource(lease.universe(), "alpha.com").ok());
  }
  SeedIncumbent(service.get(), "alice");

  auto scan_status_of = [](const ExecuteResponse& response, uint32_t sid) {
    for (const SourceScanLog& log : response.report.scans) {
      if (log.source_id == sid) return log.status;
    }
    return ScanStatus::kSkippedCannotAnswer;
  };

  // Two hard failures trip the breaker (min_samples = 2, rate 1.0)...
  ExecuteRequest request;
  request.tenant = "alice";
  for (int i = 0; i < 2; ++i) {
    const ExecuteResponse response = service->Execute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(scan_status_of(response, 0), ScanStatus::kFailed);
  }
  // ...an epoch publishes (unrelated churn)...
  ASSERT_TRUE(service
                  ->ApplyChurn({ChurnEvent::UpdateTuples("beta.com",
                                                         {3, 4, 5, 99})})
                  .ok());
  // ...and the open breaker still short-circuits on the NEW epoch: breaker
  // state lives in the service's registry, not in any epoch's executor.
  const ExecuteResponse after = service->Execute(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(scan_status_of(after, 0), ScanStatus::kShortCircuited);
  EXPECT_EQ(after.report.breaker_short_circuits, 1u);

  service->Drain();
  EXPECT_EQ(service->breaker_registry().TotalTransitions().opens, 1u);
  EXPECT_EQ(registry.GetCounter("serving_breaker_opens_total")->Value(), 1u);
}

TEST(MubeServiceTest, PersistentExecuteFailuresChurnTheCatalog) {
  FaultInjector faults(11);
  FaultProfile down;
  down.hard_down = true;
  faults.SetProfile(0, down);  // alpha.com never answers

  ServiceOptions options = SmallServiceOptions();
  options.fault_injector = &faults;
  options.reliability.persistent_failure_threshold = 2;
  MetricsRegistry registry;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options, &registry)
          .ValueOrDie();
  Tenant* alice = service->RegisterTenant("alice").ValueOrDie();
  {
    SnapshotManager::Lease lease = service->snapshots().Acquire();
    ASSERT_TRUE(alice->PinSource(lease.universe(), "alpha.com").ok());
  }
  SeedIncumbent(service.get(), "alice");

  // Two Executes push alpha.com's failure streak to the threshold; the
  // service then routes the drained churn through its own epoch store —
  // a source that never answered is removed outright.
  ExecuteRequest request;
  request.tenant = "alice";
  ASSERT_TRUE(service->Execute(request).status.ok());
  EXPECT_EQ(service->snapshots().published_count(), 0u);
  ASSERT_TRUE(service->Execute(request).status.ok());
  service->Drain();

  EXPECT_EQ(service->snapshots().published_count(), 1u);
  EXPECT_EQ(
      registry.GetCounter("serving_persistent_failure_churn_total")->Value(),
      1u);
  SnapshotManager::Lease lease = service->snapshots().Acquire();
  EXPECT_EQ(lease.epoch(), 1u);
  EXPECT_FALSE(lease.universe().alive(0));

  // The tenant keeps being served: the stale pin and the incumbent's dead
  // member are shed, and the next Execute runs the survivors.
  const ExecuteResponse after = service->Execute(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  for (const SourceScanLog& log : after.report.scans) {
    EXPECT_NE(log.source_id, 0u);
  }
}

/// TSan target: Drain and Stop racing a mixed in-flight Refine/Execute
/// stream plus churn. The only invariant that matters under the race is
/// that every admitted future is fulfilled — no leaks, no hangs.
TEST(MubeServiceTest, DrainAndStopRaceInFlightExecutes) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(37)).ValueOrDie();
  ServiceOptions options;
  options.queue_capacity = 128;
  options.max_batch = 8;
  options.worker_threads = 4;
  std::unique_ptr<MubeService> service =
      MubeService::Create(gen.universe, FastConfig(), options).ValueOrDie();
  for (const char* name : {"t0", "t1"}) {
    ASSERT_TRUE(service->RegisterTenant(name).ok());
    SeedIncumbent(service.get(), name);
  }

  Mutex mu;
  std::vector<ResponseFuture> refines;
  std::vector<ExecuteFuture> executes;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&service, &mu, &refines, &executes, t] {
      const std::string tenant = "t" + std::to_string(t);
      for (int i = 0; i < 12; ++i) {
        if (i % 3 == 2) {
          ExecuteRequest request;
          request.tenant = tenant;
          Result<ExecuteFuture> submitted =
              service->SubmitExecute(std::move(request));
          if (submitted.ok()) {
            MutexLock lock(&mu);
            executes.push_back(submitted.MoveValueUnsafe());
          }
        } else {
          RefineRequest request;
          request.tenant = tenant;
          request.seed = i + 1;
          Result<ResponseFuture> submitted = service->Submit(request);
          if (submitted.ok()) {
            MutexLock lock(&mu);
            refines.push_back(submitted.MoveValueUnsafe());
          }
        }
      }
    });
  }
  std::thread churner([&service, &gen] {
    for (int b = 0; b < 3; ++b) {
      ASSERT_TRUE(service
                      ->ApplyChurn({ChurnEvent::UpdateTuples(
                          gen.universe.source(b).name(),
                          {static_cast<uint64_t>(8000 + b)})})
                      .ok());
    }
  });
  service->Drain();  // races the submitters: may return while they submit
  for (std::thread& submitter : submitters) submitter.join();
  churner.join();
  service->Stop();  // drains whatever was admitted after the Drain

  for (const ResponseFuture& future : refines) {
    EXPECT_TRUE(future.Ready());
    const RefineResponse response = BoundedWait(future);
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  for (const ExecuteFuture& future : executes) {
    EXPECT_TRUE(future.Ready());
    const ExecuteResponse response = BoundedWait(future);
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

/// TSan target: an adversarial flooder pinned to its quota must not starve
/// or quota-poison a polite tenant submitting one request at a time.
TEST(MubeServiceTest, QuotaShieldsPoliteTenantsFromAdversarialFloods) {
  ServiceOptions options;
  options.queue_capacity = 64;
  options.max_batch = 4;
  options.worker_threads = 2;
  options.per_tenant_quota = 4;
  std::unique_ptr<MubeService> service =
      MubeService::Create(SmallUniverse(), FastConfig(), options)
          .ValueOrDie();
  ASSERT_TRUE(service->RegisterTenant("adversary").ok());
  ASSERT_TRUE(service->RegisterTenant("polite").ok());

  std::atomic<int> adversary_quota_rejections{0};
  std::thread adversary([&service, &adversary_quota_rejections] {
    std::vector<ResponseFuture> futures;
    for (int i = 0; i < 120; ++i) {
      RefineRequest request;
      request.tenant = "adversary";
      request.seed = i + 1;
      Result<ResponseFuture> submitted = service->Submit(request);
      if (submitted.ok()) {
        futures.push_back(submitted.MoveValueUnsafe());
      } else if (submitted.status().IsResourceExhausted()) {
        ++adversary_quota_rejections;
      }
    }
    for (const ResponseFuture& future : futures) {
      EXPECT_TRUE(BoundedWait(future).status.ok());
    }
  });
  std::thread polite([&service] {
    for (int i = 0; i < 8; ++i) {
      RefineRequest request;
      request.tenant = "polite";
      request.seed = 1000 + i;
      // One request in flight at a time: the definition of polite. Under a
      // per-tenant quota the adversary's flood cannot make these fail.
      const RefineResponse response = service->Refine(request);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    }
  });
  adversary.join();
  polite.join();
  service->Drain();

  // The flood really was clamped by the quota, and none of the clamping
  // leaked onto the polite tenant.
  EXPECT_GT(adversary_quota_rejections.load(), 0);
  EXPECT_EQ(service->FindTenant("polite")->serving_stats().rejected_quota,
            0u);
  EXPECT_EQ(service->FindTenant("polite")->serving_stats().served_ok, 8u);
}

}  // namespace
}  // namespace mube
