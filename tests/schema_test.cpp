// Tests for src/schema: attributes, sources, universes, Global Attributes
// (Definition 1), mediated schemas (Definitions 2-3), and the text
// serialization round trip.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dynamic/delta_universe.h"
#include "schema/attribute.h"
#include "schema/global_attribute.h"
#include "schema/mediated_schema.h"
#include "schema/serialization.h"
#include "schema/source.h"
#include "schema/universe.h"

namespace mube {
namespace {

Universe SmallUniverse() {
  Universe u;
  {
    Source s(0, "alpha.com");
    s.AddAttribute(Attribute("title", 0));
    s.AddAttribute(Attribute("author", 1));
    s.AddAttribute(Attribute("price", 5));
    s.SetTuples({1, 2, 3});
    s.characteristics().Set("mttf", 120.0);
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "beta.org");
    s.AddAttribute(Attribute("book title", 0));
    s.AddAttribute(Attribute("writer", 1));
    s.SetTuples({3, 4});
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "gamma.net");
    s.AddAttribute(Attribute("keyword", 3));
    s.set_cardinality(10);  // uncooperative: no tuples
    u.AddSource(std::move(s));
  }
  return u;
}

// -------------------------------------------------------------- Attribute --

TEST(AttributeTest, NormalizesOnConstruction) {
  Attribute a("Book_Title ");
  EXPECT_EQ(a.name, "Book_Title ");
  EXPECT_EQ(a.normalized, "book title");
  EXPECT_EQ(a.concept_id, kNoConcept);
}

TEST(AttributeTest, ConceptLabelStored) {
  Attribute a("isbn", 2);
  EXPECT_EQ(a.concept_id, 2);
}

TEST(AttributeRefTest, OrderingAndEquality) {
  AttributeRef a(1, 2), b(1, 3), c(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, AttributeRef(1, 2));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ToString(), "s1.a2");
}

// ----------------------------------------------------------------- Source --

TEST(SourceTest, AddAndFindAttributes) {
  Source s(0, "x");
  EXPECT_EQ(s.AddAttribute(Attribute("title")), 0u);
  EXPECT_EQ(s.AddAttribute(Attribute("author")), 1u);
  EXPECT_EQ(s.attribute_count(), 2u);
  EXPECT_EQ(s.FindAttribute("author"), std::optional<uint32_t>(1));
  EXPECT_EQ(s.FindAttribute("missing"), std::nullopt);
}

TEST(SourceTest, TuplesSetCardinality) {
  Source s(0, "x");
  EXPECT_FALSE(s.has_tuples());
  EXPECT_EQ(s.cardinality(), 0u);
  s.SetTuples({10, 20, 30});
  EXPECT_TRUE(s.has_tuples());
  EXPECT_EQ(s.cardinality(), 3u);
}

TEST(SourceTest, ExplicitCardinalityWithoutTuples) {
  Source s(0, "x");
  s.set_cardinality(500);
  EXPECT_FALSE(s.has_tuples());
  EXPECT_EQ(s.cardinality(), 500u);
}

TEST(SourceTest, Characteristics) {
  Source s(0, "x");
  EXPECT_FALSE(s.characteristics().Has("mttf"));
  s.characteristics().Set("mttf", 99.5);
  EXPECT_EQ(s.characteristics().Get("mttf"), std::optional<double>(99.5));
  EXPECT_EQ(s.characteristics().Get("fee"), std::nullopt);
  s.characteristics().Set("mttf", 10.0);  // overwrite
  EXPECT_EQ(s.characteristics().Get("mttf"), std::optional<double>(10.0));
}

TEST(SourceTest, ToStringMatchesFigure1Style) {
  Source s(0, "aceticket.com");
  s.AddAttribute(Attribute("state"));
  s.AddAttribute(Attribute("city"));
  EXPECT_EQ(s.ToString(), "aceticket.com{state, city}");
}

// --------------------------------------------------------------- Universe --

TEST(UniverseTest, AssignsDenseIds) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(u.source(0).name(), "alpha.com");
  EXPECT_EQ(u.source(0).id(), 0u);
  EXPECT_EQ(u.source(2).id(), 2u);
}

TEST(UniverseTest, FindSourceByName) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.FindSource("beta.org"), std::optional<uint32_t>(1));
  EXPECT_EQ(u.FindSource("nope"), std::nullopt);
}

TEST(UniverseTest, GlobalAttributeIndexingRoundTrips) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.total_attribute_count(), 6u);  // 3 + 2 + 1
  for (size_t g = 0; g < u.total_attribute_count(); ++g) {
    const AttributeRef ref = u.RefFromGlobalIndex(g);
    EXPECT_EQ(u.GlobalAttrIndex(ref), g);
  }
  EXPECT_EQ(u.GlobalAttrIndex(AttributeRef(1, 0)), 3u);
  EXPECT_EQ(u.GlobalAttrIndex(AttributeRef(2, 0)), 5u);
}

TEST(UniverseTest, ContainsChecksBounds) {
  Universe u = SmallUniverse();
  EXPECT_TRUE(u.Contains(AttributeRef(0, 2)));
  EXPECT_FALSE(u.Contains(AttributeRef(0, 3)));
  EXPECT_FALSE(u.Contains(AttributeRef(3, 0)));
}

TEST(UniverseTest, TotalCardinalitySums) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.total_cardinality(), 3u + 2u + 10u);
}

TEST(UniverseTest, RefreshStatisticsAfterMutation) {
  Universe u = SmallUniverse();
  u.mutable_source(2).set_cardinality(100);
  u.RefreshStatistics();
  EXPECT_EQ(u.total_cardinality(), 3u + 2u + 100u);
}

// --------------------------------------------- Universe churn and clones --

// Characteristic values are drawn from a few, ±0 among them, so a range's
// ends have several holders and the sign of a zero end matters.
constexpr double kCharacteristicValues[] = {-0.0, 0.0, 1.5, 2.5, 7.0, 100.0};
const char* const kCharacteristics[] = {"mttf", "latency", "fees"};

// prefix + n (+ suffix), built by appending.
std::string Numbered(const char* prefix, uint64_t n, const char* suffix = "") {
  std::string name = prefix;
  name += std::to_string(n);
  name += suffix;
  return name;
}

Source RandomSource(Rng& rng, const std::string& name) {
  Source s(0, name);
  const uint64_t attrs = 1 + rng.Uniform(4);
  for (uint64_t a = 0; a < attrs; ++a) {
    s.AddAttribute(Attribute(Numbered("attr ", rng.Uniform(50))));
  }
  if (rng.Bernoulli(0.7)) {
    std::vector<uint64_t> tuples(rng.Uniform(20));
    for (uint64_t& t : tuples) t = rng.Uniform(1000);
    s.SetTuples(std::move(tuples));
  } else {
    s.set_cardinality(rng.Uniform(100));
  }
  for (const char* c : kCharacteristics) {
    if (rng.Bernoulli(0.6)) {
      s.characteristics().Set(c, kCharacteristicValues[rng.Uniform(6)]);
    }
  }
  return s;
}

// The range as a scan of the live sources in id order computes it.
std::pair<double, double> ScannedRange(const Universe& u,
                                       const std::string& characteristic) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (uint32_t id = 0; id < u.size(); ++id) {
    if (!u.alive(id)) continue;
    const std::optional<double> v =
        u.source(id).characteristics().Get(characteristic);
    if (!v.has_value()) continue;
    lo = std::min(lo, *v);
    hi = std::max(hi, *v);
  }
  if (lo > hi) return {0.0, 0.0};
  return {lo, hi};
}

bool SameBits(std::pair<double, double> a, std::pair<double, double> b) {
  return std::memcmp(&a.first, &b.first, sizeof(double)) == 0 &&
         std::memcmp(&a.second, &b.second, sizeof(double)) == 0;
}

// Every statistic `u` keeps by its churn equals a refreshed copy's, and
// each range equals the scan's bit for bit.
void ExpectStatisticsOfARefresh(const Universe& u) {
  Universe fresh = u.Clone();
  fresh.RefreshStatistics();
  ASSERT_EQ(u.total_attribute_count(), fresh.total_attribute_count());
  for (uint32_t id = 0; id < u.size(); ++id) {
    for (uint32_t a = 0; a < u.source(id).attribute_count(); ++a) {
      const AttributeRef ref(id, a);
      ASSERT_EQ(u.GlobalAttrIndex(ref), fresh.GlobalAttrIndex(ref));
      ASSERT_EQ(u.RefFromGlobalIndex(u.GlobalAttrIndex(ref)), ref);
    }
    ASSERT_EQ(u.source(id).cardinality(), fresh.source(id).cardinality());
  }
  ASSERT_EQ(u.total_cardinality(), fresh.total_cardinality());
  ASSERT_EQ(u.alive_count(), fresh.alive_count());
  for (const char* c : kCharacteristics) {
    ASSERT_TRUE(SameBits(u.CharacteristicRange(c), fresh.CharacteristicRange(c)))
        << c;
    ASSERT_TRUE(SameBits(u.CharacteristicRange(c), ScannedRange(u, c))) << c;
  }
}

// What a universe holds, as text: every slot's schema, data, liveness and
// characteristics, then its statistics.
std::string Dump(const Universe& u) {
  std::ostringstream out;
  for (const Source& s : u.sources()) {
    out << s.ToString() << (u.alive(s.id()) ? " live" : " retired")
        << " card=" << s.cardinality() << " tuples=";
    for (uint64_t t : s.tuples()) out << t << ",";
    for (const auto& [name, value] : s.characteristics().values()) {
      out << " " << name << "=" << value;
    }
    out << "\n";
  }
  out << u.total_attribute_count() << " " << u.total_cardinality() << " "
      << u.alive_count();
  for (const char* c : kCharacteristics) {
    const auto [lo, hi] = u.CharacteristicRange(c);
    out << " " << c << "=[" << lo << "," << hi << "]";
  }
  return out.str();
}

// Head's FindSource: the first live source in id order, else the first.
std::optional<uint32_t> LinearFind(const Universe& u, const std::string& name) {
  std::optional<uint32_t> retired;
  for (uint32_t id = 0; id < u.size(); ++id) {
    if (u.source(id).name() != name) continue;
    if (u.alive(id)) return id;
    if (!retired.has_value()) retired = id;
  }
  return retired;
}

TEST(UniverseTest, DeltaKeptStatisticsMatchARefreshAfterEveryEvent) {
  Rng rng(23);
  Universe seed;
  for (int i = 0; i < 40; ++i) {
    seed.AddSource(RandomSource(rng, Numbered("s", i)));
  }
  // Every 25 events the churn moves on to a clone, so writes land on
  // chunks its ancestors share.
  std::vector<std::unique_ptr<DeltaUniverse>> epochs;
  epochs.push_back(std::make_unique<DeltaUniverse>(std::move(seed)));
  for (int step = 0; step < 600; ++step) {
    if (step % 25 == 24) {
      epochs.push_back(
          std::make_unique<DeltaUniverse>(epochs.back()->universe().Clone()));
    }
    DeltaUniverse& du = *epochs.back();
    const Universe& u = du.universe();
    const std::vector<uint32_t> alive = u.AliveSourceIds();
    const std::string some =
        alive.empty() ? "none" : u.source(alive[rng.Uniform(alive.size())]).name();
    ChurnEvent event = ChurnEvent::RemoveSource(some);
    switch (alive.size() < 20 ? 0 : rng.Uniform(4)) {
      case 0:
        // Names repeat, so retired names come back.
        event = ChurnEvent::AddSource(
            RandomSource(rng, Numbered("s", rng.Uniform(80))));
        break;
      case 1:
        break;
      case 2:
        event = ChurnEvent::RenameAttribute(some, 0, "renamed");
        break;
      default: {
        std::vector<uint64_t> tuples(rng.Uniform(30));
        for (uint64_t& t : tuples) t = rng.Uniform(1000);
        event = ChurnEvent::UpdateTuples(some, std::move(tuples));
      }
    }
    ChurnDelta delta;
    const Status status = du.Apply(event, &delta);
    // Only an add whose name a live source carries is refused.
    if (!status.ok()) {
      ASSERT_EQ(event.kind, ChurnEvent::Kind::kAddSource) << status.ToString();
    }
    ExpectStatisticsOfARefresh(u);
    if (HasFatalFailure()) FAIL() << "after step " << step;
  }
}

TEST(UniverseTest, FindSourceMatchesALinearScanOverChurn) {
  // Twelve names for hundreds of sources: live duplicates, retired
  // matches, and name-index rebuilds as the universe grows past them.
  Rng rng(7);
  std::vector<std::unique_ptr<Universe>> epochs;
  epochs.push_back(std::make_unique<Universe>());
  for (int step = 0; step < 3000; ++step) {
    if (step % 100 == 99) {
      epochs.push_back(std::make_unique<Universe>(epochs.back()->Clone()));
    }
    Universe& u = *epochs.back();
    if (u.alive_count() == 0 || rng.Bernoulli(0.6)) {
      Source s(0, Numbered("n", rng.Uniform(12), ".com"));
      s.AddAttribute(Attribute("a"));
      u.AddSource(std::move(s));
    } else {
      const std::vector<uint32_t> alive = u.AliveSourceIds();
      u.RetireSource(alive[rng.Uniform(alive.size())]);
    }
    for (int n = 0; n <= 12; ++n) {
      const std::string name = Numbered("n", n, ".com");
      ASSERT_EQ(u.FindSource(name), LinearFind(u, name))
          << name << " at step " << step;
    }
  }
  // Every earlier epoch still answers as its own scan does.
  for (const std::unique_ptr<Universe>& u : epochs) {
    for (int n = 0; n < 12; ++n) {
      const std::string name = Numbered("n", n, ".com");
      EXPECT_EQ(u->FindSource(name), LinearFind(*u, name));
    }
  }
}

TEST(UniverseTest, CloneIsIndependentOfChurnOnEitherSide) {
  Rng rng(11);
  Universe original;
  for (int i = 0; i < 150; ++i) {
    original.AddSource(RandomSource(rng, Numbered("s", i)));
  }
  Universe clone = original.Clone();
  const std::string before = Dump(original);
  ASSERT_EQ(Dump(clone), before);

  auto churn = [&](Universe& u, int salt) {
    u.AddSource(RandomSource(rng, Numbered("new", salt)));
    u.RetireSource(static_cast<uint32_t>(3 + salt));
    u.RetireSource(static_cast<uint32_t>(70 + salt));
    u.UpdateTuples(static_cast<uint32_t>(130 + salt), {1, 2, 3, 4});
    ASSERT_TRUE(u.mutable_source(static_cast<uint32_t>(65 + salt))
                    .RenameAttribute(0, "renamed")
                    .ok());
    u.mutable_source(static_cast<uint32_t>(10 + salt))
        .characteristics()
        .Set("mttf", 1e6);
    u.RefreshStatistics();
  };
  churn(original, 0);
  EXPECT_EQ(Dump(clone), before);
  const std::string original_after = Dump(original);
  EXPECT_NE(original_after, before);

  churn(clone, 1);
  EXPECT_EQ(Dump(original), original_after);
  EXPECT_NE(Dump(clone), before);
  EXPECT_EQ(clone.FindSource("new1"), std::optional<uint32_t>(150));
  EXPECT_EQ(original.FindSource("new1"), std::nullopt);
  ExpectStatisticsOfARefresh(original);
  ExpectStatisticsOfARefresh(clone);
}

TEST(UniverseTest, ChurnedCloneOutlivesTheUniversesItSharesWith) {
  // Clone → churn → clone → churn, then destroy the first two
  // generations: the third reads chunks the earlier ones wrote, which
  // must outlive them (run under ASan to see a use after free).
  Rng rng(5);
  std::vector<std::unique_ptr<Universe>> generations;
  generations.push_back(std::make_unique<Universe>());
  Universe reference;
  for (int i = 0; i < 200; ++i) {
    const Source s = RandomSource(rng, Numbered("s", i));
    generations[0]->AddSource(s);
    reference.AddSource(s);
  }
  for (uint32_t round = 1; round <= 2; ++round) {
    generations.push_back(
        std::make_unique<Universe>(generations.back()->Clone()));
    Universe& next = *generations.back();
    for (uint32_t k = 0; k < 5; ++k) {
      const Source s = RandomSource(rng, Numbered("r", round * 10 + k));
      next.AddSource(s);
      reference.AddSource(s);
      const uint32_t retired = round * 40 + k * 7;
      next.RetireSource(retired);
      reference.RetireSource(retired);
      const std::vector<uint64_t> tuples = {round, k, 99};
      next.UpdateTuples(round * 50 + k, tuples);
      reference.UpdateTuples(round * 50 + k, tuples);
    }
  }
  generations[0].reset();
  generations[1].reset();
  const Universe& last = *generations[2];
  EXPECT_EQ(Dump(last), Dump(reference));
  for (const Source& s : reference.sources()) {
    EXPECT_EQ(last.FindSource(s.name()), reference.FindSource(s.name()));
  }
  ExpectStatisticsOfARefresh(last);
}

// -------------------------------------------------- GlobalAttribute (Def 1)

TEST(GlobalAttributeTest, EmptyIsInvalid) {
  GlobalAttribute ga;
  EXPECT_FALSE(ga.IsValid());
}

TEST(GlobalAttributeTest, SingletonIsValid) {
  GlobalAttribute ga({AttributeRef(0, 0)});
  EXPECT_TRUE(ga.IsValid());
}

TEST(GlobalAttributeTest, TwoAttributesSameSourceIsInvalidViaCtor) {
  GlobalAttribute ga({AttributeRef(0, 0), AttributeRef(0, 1)});
  EXPECT_FALSE(ga.IsValid());
}

TEST(GlobalAttributeTest, InsertRejectsSameSource) {
  GlobalAttribute ga;
  EXPECT_TRUE(ga.Insert(AttributeRef(0, 0)));
  EXPECT_TRUE(ga.Insert(AttributeRef(1, 2)));
  EXPECT_FALSE(ga.Insert(AttributeRef(0, 1)));  // second attr of source 0
  EXPECT_TRUE(ga.Insert(AttributeRef(0, 0)));   // re-insert is a no-op
  EXPECT_EQ(ga.size(), 2u);
  EXPECT_TRUE(ga.IsValid());
}

TEST(GlobalAttributeTest, MembersKeptSortedAndDeduped) {
  GlobalAttribute ga({AttributeRef(2, 1), AttributeRef(0, 3),
                      AttributeRef(2, 1)});
  ASSERT_EQ(ga.size(), 2u);
  EXPECT_EQ(ga.members()[0], AttributeRef(0, 3));
  EXPECT_EQ(ga.members()[1], AttributeRef(2, 1));
}

TEST(GlobalAttributeTest, TouchesSource) {
  GlobalAttribute ga({AttributeRef(1, 0), AttributeRef(3, 2)});
  EXPECT_TRUE(ga.TouchesSource(1));
  EXPECT_TRUE(ga.TouchesSource(3));
  EXPECT_FALSE(ga.TouchesSource(0));
  EXPECT_FALSE(ga.TouchesSource(2));
}

TEST(GlobalAttributeTest, SubsetAndIntersect) {
  GlobalAttribute small({AttributeRef(0, 0), AttributeRef(1, 1)});
  GlobalAttribute big(
      {AttributeRef(0, 0), AttributeRef(1, 1), AttributeRef(2, 0)});
  GlobalAttribute other({AttributeRef(3, 0)});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.Intersects(big));
  EXPECT_FALSE(small.Intersects(other));
}

TEST(GlobalAttributeTest, MergeValidity) {
  GlobalAttribute a({AttributeRef(0, 0), AttributeRef(1, 0)});
  GlobalAttribute b({AttributeRef(2, 0)});
  GlobalAttribute c({AttributeRef(1, 1)});  // shares source 1 with a
  EXPECT_TRUE(a.CanMergeWith(b));
  EXPECT_FALSE(a.CanMergeWith(c));
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.IsValid());
}

// ------------------------------------------------ MediatedSchema (Defs 2-3)

TEST(MediatedSchemaTest, WellFormedRequiresDisjointValidGas) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(0, 1), AttributeRef(2, 0)}));
  EXPECT_TRUE(m.IsWellFormed());

  MediatedSchema overlapping = m;
  overlapping.Add(GlobalAttribute({AttributeRef(0, 0)}));  // reuses s0.a0
  EXPECT_FALSE(overlapping.IsWellFormed());

  MediatedSchema with_invalid;
  with_invalid.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(0, 1)}));
  EXPECT_FALSE(with_invalid.IsWellFormed());
}

TEST(MediatedSchemaTest, ValidOnRequiresSpanning) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  EXPECT_TRUE(m.IsValidOn({0, 1}));
  EXPECT_FALSE(m.IsValidOn({0, 1, 2}));  // source 2 untouched
  EXPECT_TRUE(m.IsValidOn({}));          // nothing to span
}

TEST(MediatedSchemaTest, SubsumptionIsContainmentPerGa) {
  MediatedSchema big;
  big.Add(GlobalAttribute(
      {AttributeRef(0, 0), AttributeRef(1, 0), AttributeRef(2, 0)}));
  big.Add(GlobalAttribute({AttributeRef(3, 0), AttributeRef(4, 0)}));

  MediatedSchema small;
  small.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(2, 0)}));

  EXPECT_TRUE(big.Subsumes(small));   // small ⊑ big
  EXPECT_FALSE(small.Subsumes(big));

  // A GA split across two big GAs is NOT subsumed.
  MediatedSchema crossing;
  crossing.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(3, 0)}));
  EXPECT_FALSE(big.Subsumes(crossing));
}

TEST(MediatedSchemaTest, SubsumptionIsReflexiveAndTransitive) {
  MediatedSchema a;
  a.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  EXPECT_TRUE(a.Subsumes(a));

  MediatedSchema b;
  b.Add(GlobalAttribute(
      {AttributeRef(0, 0), AttributeRef(1, 0), AttributeRef(2, 0)}));
  MediatedSchema c;
  c.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0),
                         AttributeRef(2, 0), AttributeRef(3, 0)}));
  EXPECT_TRUE(b.Subsumes(a));
  EXPECT_TRUE(c.Subsumes(b));
  EXPECT_TRUE(c.Subsumes(a));  // transitivity
}

TEST(MediatedSchemaTest, EmptySchemaSubsumedByAnything) {
  MediatedSchema empty;
  MediatedSchema any;
  any.Add(GlobalAttribute({AttributeRef(0, 0)}));
  EXPECT_TRUE(any.Subsumes(empty));
  EXPECT_TRUE(empty.Subsumes(empty));
}

TEST(MediatedSchemaTest, FindGaWithAttribute) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(2, 0)}));
  EXPECT_EQ(m.FindGaWithAttribute(AttributeRef(1, 0)), 0);
  EXPECT_EQ(m.FindGaWithAttribute(AttributeRef(2, 0)), 1);
  EXPECT_EQ(m.FindGaWithAttribute(AttributeRef(9, 9)), -1);
  EXPECT_TRUE(m.ContainsAttribute(AttributeRef(0, 0)));
  EXPECT_FALSE(m.ContainsAttribute(AttributeRef(0, 1)));
}

TEST(MediatedSchemaTest, TouchedSourcesSortedUnique) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(3, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(1, 1), AttributeRef(0, 0)}));
  EXPECT_EQ(m.TouchedSources(), (std::vector<uint32_t>{0, 1, 3}));
}

TEST(MediatedSchemaTest, TotalAttributeCount) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(2, 0)}));
  EXPECT_EQ(m.TotalAttributeCount(), 3u);
}

// ---------------------------------------------------------- Serialization --

TEST(SerializationTest, UniverseRoundTrip) {
  Universe original = SmallUniverse();
  const std::string text = SerializeUniverse(original);
  Result<Universe> parsed = ParseUniverse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Universe& u = parsed.ValueOrDie();
  ASSERT_EQ(u.size(), original.size());
  for (uint32_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(u.source(i).name(), original.source(i).name());
    EXPECT_EQ(u.source(i).cardinality(), original.source(i).cardinality());
    ASSERT_EQ(u.source(i).attribute_count(),
              original.source(i).attribute_count());
    for (uint32_t a = 0; a < u.source(i).attribute_count(); ++a) {
      EXPECT_EQ(u.source(i).attribute(a).name,
                original.source(i).attribute(a).name);
      EXPECT_EQ(u.source(i).attribute(a).concept_id,
                original.source(i).attribute(a).concept_id);
    }
    EXPECT_EQ(u.source(i).characteristics().values(),
              original.source(i).characteristics().values());
  }
}

TEST(SerializationTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseUniverse("attr orphan\n").ok());
  EXPECT_FALSE(ParseUniverse("source a\nend\n").ok());  // no attributes
  EXPECT_FALSE(ParseUniverse("source a\nattr x\n").ok());  // no end
  EXPECT_FALSE(ParseUniverse("source a\nsource b\n").ok());  // nested
  EXPECT_FALSE(ParseUniverse("source a\nattr x\nbogus 1\nend\n").ok());
  EXPECT_FALSE(
      ParseUniverse("source a\nattr x\ncardinality twelve\nend\n").ok());
}

TEST(SerializationTest, ParseToleratesCommentsAndBlanks) {
  Result<Universe> u = ParseUniverse(
      "# catalog\n\nsource a\nattr x\n# inner comment\nattr y\nend\n");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.ValueOrDie().size(), 1u);
  EXPECT_EQ(u.ValueOrDie().source(0).attribute_count(), 2u);
}

TEST(SerializationTest, GlobalAttributeParsing) {
  Universe u = SmallUniverse();
  Result<GlobalAttribute> ga =
      ParseGlobalAttribute("alpha.com.title, beta.org.writer", u);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  EXPECT_EQ(ga.ValueOrDie().size(), 2u);
  EXPECT_TRUE(ga.ValueOrDie().Contains(AttributeRef(0, 0)));
  EXPECT_TRUE(ga.ValueOrDie().Contains(AttributeRef(1, 1)));
}

TEST(SerializationTest, GlobalAttributeParsingHandlesDotsInSourceNames) {
  // "beta.org.book title": the source is "beta.org", attr "book title".
  Universe u = SmallUniverse();
  Result<GlobalAttribute> ga = ParseGlobalAttribute("beta.org.book title", u);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  EXPECT_TRUE(ga.ValueOrDie().Contains(AttributeRef(1, 0)));
}

TEST(SerializationTest, GlobalAttributeParseErrors) {
  Universe u = SmallUniverse();
  EXPECT_FALSE(ParseGlobalAttribute("missing.com.title", u).ok());
  EXPECT_FALSE(ParseGlobalAttribute("alpha.com.missing", u).ok());
  EXPECT_FALSE(ParseGlobalAttribute("", u).ok());
  // Two attributes of the same source violate Definition 1.
  EXPECT_FALSE(
      ParseGlobalAttribute("alpha.com.title, alpha.com.author", u).ok());
}

TEST(SerializationTest, MediatedSchemaRoundTrip) {
  Universe u = SmallUniverse();
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(0, 1), AttributeRef(1, 1)}));
  const std::string text = SerializeMediatedSchema(m, u);
  Result<MediatedSchema> parsed = ParseMediatedSchema(text, u);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie(), m);
}

class SerializationPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SerializationPropertyTest, RandomUniverseRoundTrips) {
  // Property: serialize ∘ parse is the identity on arbitrary catalogs —
  // names with spaces/dots, characteristics, concept labels, and sources
  // with explicit cardinalities all survive.
  Rng rng(GetParam());
  Universe original;
  const size_t num_sources = 1 + rng.Uniform(8);
  const std::vector<std::string> name_pool = {
      "title", "book title", "isbn 13", "price range", "ships from",
      "a", "x y z", "after date"};
  for (size_t i = 0; i < num_sources; ++i) {
    Source s(0, "host" + std::to_string(i) + ".example.org");
    const size_t num_attrs = 1 + rng.Uniform(5);
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(name_pool.size(), num_attrs);
    for (size_t p : picks) {
      const int32_t concept_id =
          rng.Bernoulli(0.5) ? static_cast<int32_t>(rng.Uniform(14))
                             : kNoConcept;
      s.AddAttribute(Attribute(name_pool[p], concept_id));
    }
    s.set_cardinality(rng.Uniform(1'000'000));
    if (rng.Bernoulli(0.7)) {
      s.characteristics().Set("mttf", rng.UniformDouble(1, 500));
    }
    if (rng.Bernoulli(0.3)) {
      s.characteristics().Set("latency", rng.UniformDouble(10, 900));
    }
    original.AddSource(std::move(s));
  }

  Result<Universe> parsed = ParseUniverse(SerializeUniverse(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Universe& u = parsed.ValueOrDie();
  ASSERT_EQ(u.size(), original.size());
  for (uint32_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(u.source(i).name(), original.source(i).name());
    EXPECT_EQ(u.source(i).cardinality(), original.source(i).cardinality());
    EXPECT_EQ(u.source(i).characteristics().values(),
              original.source(i).characteristics().values());
    ASSERT_EQ(u.source(i).attribute_count(),
              original.source(i).attribute_count());
    for (uint32_t a = 0; a < u.source(i).attribute_count(); ++a) {
      EXPECT_EQ(u.source(i).attribute(a).name,
                original.source(i).attribute(a).name);
      EXPECT_EQ(u.source(i).attribute(a).concept_id,
                original.source(i).attribute(a).concept_id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(SerializationTest, MediatedSchemaParseRejectsOverlap) {
  Universe u = SmallUniverse();
  EXPECT_FALSE(
      ParseMediatedSchema("alpha.com.title\nalpha.com.title\n", u).ok());
}

TEST(SerializationTest, ShippedTheaterCatalogParses) {
  // The sample catalog under examples/catalogs must stay loadable by
  // interactive_session.
  std::ifstream in(std::string(MUBE_REPO_DIR) +
                   "/examples/catalogs/theater.catalog");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<Universe> parsed = ParseUniverse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().size(), 11u);  // the Figure 1 sources
  EXPECT_TRUE(parsed.ValueOrDie().FindSource("aceticket.com").has_value());
}

}  // namespace
}  // namespace mube
