// Durable persistence (sim/wire.h, CheckpointRegistry
// serialize/deserialize, sim/snapshot_store.h, the CampaignService disk
// tier and the replication records of ParallelRunner::run_resumable):
// byte-stable golden images, load-then-branch digest identity across
// worker counts, corrupt/truncated/mismatched/mutated images and store
// files, ids past the restored stack and old-version files rejected back
// to a cold simulation, mutated replication records re-run or replayed exactly,
// and failed store writes surfaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dissem/scenario.h"
#include "serve/serve.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/snapshot_store.h"
#include "sim/wire.h"

namespace iobt {
namespace {

using serve::CampaignService;
using serve::Query;
using sim::SnapshotStore;

dissem::DissemSpec tiny_spec() {
  dissem::DissemSpec spec;
  spec.name = "persist-tiny";
  dissem::LayerSpec l;
  l.layer = net::kLayerGround;
  l.nodes = 12;
  l.gateways = 2;
  l.radio.range_m = 150.0;
  l.radio.data_rate_bps = 1e6;
  l.radio.base_loss = 0.01;
  l.device = things::DeviceClass::kSensorMote;
  l.speed_mps = 3.0;
  spec.layers = {l};
  spec.mobility = dissem::MobilityKind::kWaypoint;
  spec.attack = dissem::AttackCampaign::kNone;
  spec.intensity = 0.0;
  spec.area = sim::Rect{{0, 0}, {300, 300}};
  spec.horizon_s = 20.0;
  spec.seed_time_s = 2.0;
  return spec;
}

Query tiny_query(std::uint64_t seed = 42,
                 dissem::AttackCampaign attack = dissem::AttackCampaign::kNone,
                 double intensity = 0.0) {
  Query q;
  q.spec = tiny_spec();
  q.seed = seed;
  q.branch_time_s = 15.0;
  q.delta.attack = attack;
  q.delta.intensity = intensity;
  return q;
}

/// Fresh per-test scratch directory under the build tree.
std::string scratch_dir(const std::string& name) {
  const std::string dir = "persist_test_scratch/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

/// Simulates `q`'s prefix on a fresh stack and returns its wire image.
std::string prefix_wire_image(const Query& q) {
  dissem::DissemScenario s(q.spec, q.seed);
  s.sim.run_until(sim::SimTime::seconds(q.branch_time_s));
  const sim::Snapshot snap = s.sim.checkpoint().save(serve::prefix_hash(q));
  std::string wire;
  EXPECT_TRUE(s.sim.checkpoint().serialize_snapshot(snap, wire));
  return wire;
}

// ----------------------------------------------------------- Wire format ----

TEST(WirePersistence, PrimitivesRoundTripExactly) {
  sim::WireWriter w;
  const double third = 1.0 / 3.0;
  w.u64(0).u64(~0ULL).i64(-1).i64(42).boolean(true).boolean(false);
  w.f64(third).f64(-0.0).f64(1e308);
  w.bytes("").bytes(std::string("a b\nc\0d", 7));
  sim::WireReader r(w.out());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), 42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  // Bit patterns, not values: -0.0 and the full double range survive.
  EXPECT_EQ(r.f64(), third);
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_EQ(r.f64(), 1e308);
  EXPECT_EQ(r.bytes(), "");
  EXPECT_EQ(r.bytes(), std::string("a b\nc\0d", 7));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WirePersistence, ReaderFailsSoftOnMalformedInput) {
  sim::WireReader r("not-a-number ");
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
  // Latched: every later read answers zero instead of touching the input.
  EXPECT_EQ(r.i64(), 0);
  EXPECT_EQ(r.bytes(), "");
  // Tokens the writer never emits are rejected, not coerced: a sign, a
  // leading zero or whitespace, an overflowing decimal, and for doubles
  // anything but 16 lowercase hex digits.
  for (const char* bad : {"-1 ", "+5 ", "\n5 ", "05 ", "18446744073709551616 "}) {
    sim::WireReader u(bad);
    u.u64();
    EXPECT_FALSE(u.ok()) << "u64 accepted '" << bad << "'";
  }
  for (const char* bad : {"-ff0000000000000 ", "+3ff000000000000 ",
                          "\n3ff000000000000 ", "3FF0000000000000 "}) {
    sim::WireReader f(bad);
    f.f64();
    EXPECT_FALSE(f.ok()) << "f64 accepted '" << bad << "'";
  }
}

// ------------------------------------------------------ Registry images ----

TEST(RegistrySerialization, MetricsImageWithNonCanonicalNumbersIsRejected) {
  // No counters, no gauges, one summary "k": count, mean, m2, min, max,
  // seen, reservoir size — sim/wire.h tokens, each followed by one space.
  const std::string one = "3ff0000000000000";
  const std::string zero = "0000000000000000";
  const auto image = [&](const std::string& count, const std::string& mean,
                         const std::string& seen) {
    return "0 0 1 1 k " + count + " " + mean + " " + zero + " " + one + " " +
           one + " " + seen + " 0 ";
  };
  // One standalone image: restore must accept it AND end on its last byte.
  const auto reads = [](const std::string& text, sim::MetricsRegistry& m) {
    sim::WireReader r(text);
    return m.restore(r) && r.at_end();
  };
  const std::string canonical = image("1", one, "1");
  sim::MetricsRegistry good;
  ASSERT_TRUE(reads(canonical, good));
  sim::WireWriter again;
  good.save(again);
  EXPECT_EQ(again.out(), canonical);
  sim::MetricsRegistry sink;
  // A signed count once decoded to 2^64-1 and re-encoded to other bytes.
  EXPECT_FALSE(reads(image("-1", one, "+3"), sink));
  for (const std::string& bad :
       {image("+1", one, "1"), image("01", one, "1"),
        image("18446744073709551616", one, "1"),
        image("1", "3FF0000000000000", "1"), image("1", "-ff0000000000000", "1"),
        // The same summary in the version-1 text image.
        "m1 0 0 1 k 1 " + one + " " + zero + " " + one + " " + one + " 1 0"}) {
    EXPECT_FALSE(reads(bad, sink)) << bad;
  }
}

TEST(RegistrySerialization, GoldenImageIsByteStableAcrossStacks) {
  // Two independently built stacks of the same scenario produce the SAME
  // bytes: the image depends only on (spec, seed, branch), never on
  // pointer values, map iteration order, or which stack wrote it.
  const Query q = tiny_query();
  const std::string a = prefix_wire_image(q);
  const std::string b = prefix_wire_image(q);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(RegistrySerialization, DecodeReencodesToIdenticalBytes) {
  const Query q = tiny_query();
  const std::string wire = prefix_wire_image(q);
  dissem::DissemScenario s(q.spec, q.seed);
  auto snap = s.sim.checkpoint().deserialize_snapshot(wire);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->prefix_hash(), serve::prefix_hash(q));
  std::string again;
  ASSERT_TRUE(s.sim.checkpoint().serialize_snapshot(*snap, again));
  EXPECT_EQ(wire, again);
}

TEST(RegistrySerialization, LoadThenBranchIsDigestIdenticalToInMemoryBranch) {
  const Query q = tiny_query(42, dissem::AttackCampaign::kJamming, 0.6);
  const std::uint64_t reference = CampaignService::run_uncached(q).digest;

  // In-memory branch: save at the branch point, restore into a fresh
  // stack, run out the horizon.
  std::string wire;
  std::uint64_t in_memory = 0;
  {
    dissem::DissemScenario s(q.spec, q.seed);
    s.sim.run_until(sim::SimTime::seconds(q.branch_time_s));
    const sim::Snapshot snap = s.sim.checkpoint().save(serve::prefix_hash(q));
    ASSERT_TRUE(s.sim.checkpoint().serialize_snapshot(snap, wire));
    dissem::DissemScenario b(q.spec, q.seed);
    b.sim.checkpoint().restore(snap);
    serve::apply_delta(b, q);
    b.sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
    in_memory = b.outcome().digest;
  }
  EXPECT_EQ(in_memory, reference);

  // Wire branch: the ORIGINAL stack is gone; a new stack decodes the
  // bytes and branches. Must be bit-identical to both references.
  dissem::DissemScenario b(q.spec, q.seed);
  auto snap = b.sim.checkpoint().deserialize_snapshot(wire);
  ASSERT_TRUE(snap.has_value());
  b.sim.checkpoint().restore(*snap);
  serve::apply_delta(b, q);
  b.sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
  EXPECT_EQ(b.outcome().digest, reference);
}

TEST(RegistrySerialization, TruncatedImagesRejectCleanly) {
  const Query q = tiny_query();
  const std::string wire = prefix_wire_image(q);
  dissem::DissemScenario s(q.spec, q.seed);
  // Every strict prefix of a valid image is invalid — decode must answer
  // nullopt (never throw, crash, or half-decode) at any cut point.
  for (const double frac : {0.0, 0.1, 0.37, 0.5, 0.81, 0.99}) {
    const auto cut = static_cast<std::size_t>(frac * double(wire.size()));
    EXPECT_FALSE(
        s.sim.checkpoint().deserialize_snapshot(wire.substr(0, cut)).has_value())
        << "cut at " << cut << "/" << wire.size();
  }
  // Trailing garbage is equally fatal: the size fields must account for
  // every byte.
  EXPECT_FALSE(
      s.sim.checkpoint().deserialize_snapshot(wire + "junk").has_value());
}

/// A snapshot image split at its framing: the header tokens and one
/// (key, blob) pair per participant, in roster order.
struct Framed {
  std::uint64_t prefix = 0;
  std::int64_t at = 0;
  std::vector<std::pair<std::string, std::string>> parts;
};

Framed unframe(const std::string& image) {
  sim::WireReader r(image);
  Framed f;
  f.prefix = r.u64();
  f.at = r.i64();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.bytes();
    f.parts.emplace_back(std::move(key), r.bytes());
  }
  EXPECT_TRUE(r.ok() && r.at_end());
  return f;
}

std::string frame(const Framed& f) {
  sim::WireWriter w;
  w.u64(f.prefix).i64(f.at).u64(f.parts.size());
  for (const auto& [key, blob] : f.parts) w.bytes(key).bytes(blob);
  return w.take();
}

/// One seeded mutation of `a`: a bit flip, a truncation, a splice with
/// `b`, a duplicated token, or a decimal token (a count or length prefix)
/// replaced by one larger than the image. Tokens are picked uniformly, so
/// short count tokens are hit as often as long hex ones. `what`
/// describes the mutation for the repro line.
std::string mutate(const std::string& a, const std::string& b, sim::Rng& rng,
                   std::string& what) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  // Space-separated tokens as [begin, end), and the decimal ones.
  std::vector<std::pair<std::size_t, std::size_t>> tokens, decimals;
  for (std::size_t begin = 0; begin < a.size();) {
    const std::size_t end = std::min(a.find(' ', begin), a.size());
    std::uint64_t v = 0;
    tokens.emplace_back(begin, end);
    if (sim::parse_u64_token(std::string_view(a).substr(begin, end - begin), v)) {
      decimals.emplace_back(begin, end);
    }
    begin = end + 1;
  }
  std::string m = a;
  switch (rng.uniform_int(0, 4)) {
    case 0: {
      const std::size_t at = pick(a.size());
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      m[at] = static_cast<char>(m[at] ^ (1 << bit));
      what = "bit " + std::to_string(bit) + " of byte " + std::to_string(at);
      break;
    }
    case 1: {
      const std::size_t cut = pick(a.size());
      m.resize(cut);
      what = "truncated to " + std::to_string(cut) + " bytes";
      break;
    }
    case 2: {
      const std::size_t cut_a = pick(a.size());
      const std::size_t cut_b = pick(b.size());
      m = a.substr(0, cut_a) + b.substr(cut_b);
      what = "splice a[0, " + std::to_string(cut_a) + ") + b[" +
             std::to_string(cut_b) + ", end)";
      break;
    }
    case 3: {
      const auto [begin, end] = tokens[pick(tokens.size())];
      m.insert(begin, a.substr(begin, end - begin) + " ");
      what = "duplicated token at byte " + std::to_string(begin);
      break;
    }
    default: {
      const auto [begin, end] = decimals[pick(decimals.size())];
      const std::string big = std::to_string(a.size() + 1 + pick(1u << 20));
      m.replace(begin, end - begin, big);
      what = "decimal token at byte " + std::to_string(begin) + " set to " + big;
      break;
    }
  }
  return m;
}

TEST(RegistrySerialization, MutatedImagesAreRejectedOrReachAFixedPoint) {
  // Every mutant either decodes to nullopt, or restores without a crash,
  // runs on to the horizon, and reaches a fixed point: the state it left behind, saved, restored
  // into a second fresh stack and saved again, gives the same bytes. Both
  // stacks are built by the same code, so re-armed events get the same
  // kernel seqs on both sides. Half the mutants hit the whole image (its
  // framing included); the other half hit one participant's blob and are
  // re-framed, so a change of length still reaches that participant's
  // reader instead of failing the framing.
  constexpr std::uint64_t kSeed = 0x5eed0f1a7ULL;
  constexpr int kMutants = 4000;
  const Query q = tiny_query();
  const std::string a = prefix_wire_image(q);
  const std::string b = prefix_wire_image(tiny_query(43));
  const Framed framed_a = unframe(a);
  const Framed framed_b = unframe(b);
  const sim::Rng root(kSeed);
  int rejected = 0, accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    sim::Rng rng = root.child(static_cast<std::uint64_t>(i));
    std::string what;
    std::string mutant;
    if (rng.bernoulli(0.5)) {
      mutant = mutate(a, b, rng, what);
    } else {
      Framed f = framed_a;
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(f.parts.size()) - 1));
      f.parts[p].second = mutate(f.parts[p].second, framed_b.parts[p].second, rng, what);
      what = f.parts[p].first + " blob, " + what;
      mutant = frame(f);
    }
    const std::string repro =
        "repro: persist_test --gtest_filter=RegistrySerialization."
        "MutatedImagesAreRejectedOrReachAFixedPoint (seed " +
        std::to_string(kSeed) + ", mutant " + std::to_string(i) + ": " + what + ")";
    try {
      dissem::DissemScenario first(q.spec, q.seed);
      const auto snap = first.sim.checkpoint().deserialize_snapshot(mutant);
      if (!snap) {
        ++rejected;
        continue;
      }
      ++accepted;
      {
        // An accepted image must also run on to the horizon: an id past
        // the restored stack once decoded here and threw mid-run.
        dissem::DissemScenario run(q.spec, q.seed);
        run.sim.checkpoint().restore(*snap);
        // No restored position and no synced link weight is NaN.
        for (net::NodeId v = 0; v < run.net.node_count(); ++v) {
          const sim::Vec2 p = run.net.position(v);
          ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << "node " << v << ", " << repro;
        }
        const auto no_nan_weight = [&](const char* when) {
          for (const net::Edge& e : run.net.topology_view().edges()) {
            ASSERT_FALSE(std::isnan(e.weight))
                << "link " << e.a << "-" << e.b << " " << when << ", " << repro;
          }
        };
        no_nan_weight("after restore");
        run.sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
        EXPECT_GE(run.outcome().reach, 0.0) << repro;
        no_nan_weight("at the horizon");
      }
      const sim::Snapshot once = first.sim.checkpoint().save(snap->prefix_hash());
      dissem::DissemScenario second(q.spec, q.seed);
      second.sim.checkpoint().restore(once);
      const sim::Snapshot twice = second.sim.checkpoint().save(snap->prefix_hash());
      EXPECT_EQ(once.image(), twice.image()) << repro;
    } catch (const std::exception& e) {
      ADD_FAILURE() << repro << " threw: " << e.what();
    }
  }
  // The budget exercises both outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

// --------------------------------------------------------- Restore bounds ----

/// Space-separated tokens of a participant blob. Only meaningful up to the
/// blob's first bytes() field counting from the front, or after its last
/// one counting from the back.
std::vector<std::string> tokens_of(const std::string& blob) {
  std::vector<std::string> out;
  for (std::size_t begin = 0; begin < blob.size();) {
    const std::size_t end = std::min(blob.find(' ', begin), blob.size());
    out.push_back(blob.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += t + " ";
  return out;
}

/// Decodes `image` after `edit` rewrote participant `key`'s blob tokens.
/// The network's node count (its blob's first token) is passed along: ids
/// are rewritten against it.
std::optional<sim::Snapshot> decode_edited(
    const std::string& key,
    const std::function<void(std::vector<std::string>&, std::uint64_t)>& edit) {
  const Query q = tiny_query();
  Framed f = unframe(prefix_wire_image(q));
  std::uint64_t nodes = 0;
  std::vector<std::string>* target = nullptr;
  std::vector<std::vector<std::string>> blobs;
  blobs.reserve(f.parts.size());
  for (const auto& [k, blob] : f.parts) {
    blobs.push_back(tokens_of(blob));
    if (k == "net.network") {
      EXPECT_TRUE(sim::parse_u64_token(blobs.back()[0], nodes));
    }
    if (k == key) target = &blobs.back();
  }
  EXPECT_NE(target, nullptr) << key;
  EXPECT_GT(nodes, 0u);
  if (target == nullptr) return std::nullopt;
  edit(*target, nodes);
  for (std::size_t i = 0; i < f.parts.size(); ++i) {
    f.parts[i].second = join_tokens(blobs[i]);
  }
  dissem::DissemScenario s(q.spec, q.seed);
  return s.sim.checkpoint().deserialize_snapshot(frame(f));
}

TEST(RestoreBounds, UneditedImageDecodes) {
  EXPECT_TRUE(decode_edited("net.network",
                            [](std::vector<std::string>&, std::uint64_t) {})
                  .has_value());
}

TEST(RestoreBounds, GossipRowNodePastTheNetworkIsRejected) {
  // informed count n, n informed times, row count, then the first row's node.
  EXPECT_FALSE(decode_edited("dissem.epidemic", [](auto& t, std::uint64_t nodes) {
    const std::size_t informed = std::stoul(t[0]);
    ASSERT_NE(t[informed + 1], "0");  // the prefix has gossip rows
    t[informed + 2] = std::to_string(nodes);
  }).has_value());
}

TEST(RestoreBounds, InformedCountOffTheInformedTimesIsRejected) {
  // Tail: informed count, seeded-at time, attached flag.
  EXPECT_FALSE(decode_edited("dissem.epidemic", [](auto& t, std::uint64_t) {
    t[t.size() - 3] = std::to_string(std::stoul(t[t.size() - 3]) + 1);
  }).has_value());
}

TEST(RestoreBounds, AssetNodePastTheNetworkIsRejected) {
  // Asset count, then the first asset's id, device class, affiliation, node.
  EXPECT_FALSE(decode_edited("things.world", [](auto& t, std::uint64_t nodes) {
    t[4] = std::to_string(nodes);
  }).has_value());
}

TEST(RestoreBounds, AssetIdOffItsSlotIsRejected) {
  EXPECT_FALSE(decode_edited("things.world", [](auto& t, std::uint64_t) {
    t[1] = std::to_string(1);
  }).has_value());
}

TEST(RestoreBounds, NodeToAssetEntryPastTheAssetsIsRejected) {
  // Tail: node-to-asset entries, disruption count, rng (6 tokens), started,
  // tick period, next tick, tick seq.
  EXPECT_FALSE(decode_edited("things.world", [](auto& t, std::uint64_t) {
    ASSERT_EQ(t[t.size() - 11], "0");  // no disruptions
    t[t.size() - 12] = t[0];           // the asset count
  }).has_value());
}

TEST(RestoreBounds, SybilIdPastTheWorldIsRejected) {
  // No attacks in the prefix: schedule, Sybil and log counts are all 0.
  EXPECT_FALSE(decode_edited("security.attacks", [](auto& t, std::uint64_t nodes) {
    ASSERT_EQ(join_tokens(t), "0 0 0 ");
    t[1] = "1 " + std::to_string(nodes);
  }).has_value());
}

TEST(RestoreBounds, PromotionPastTheNetworkIsRejected) {
  EXPECT_FALSE(decode_edited("dissem.reconfig", [](auto& t, std::uint64_t nodes) {
    ASSERT_EQ(join_tokens(t), "0 ");
    t[0] = "1 " + std::to_string(nodes) + " 0 0";
  }).has_value());
}

TEST(RestoreBounds, NonFinitePositionIsRejected) {
  // Node count n, then n positions (x, y), then n profiles (range, data
  // rate, base loss). A position or range that fits no grid cell and no
  // range test is rejected; the same token set to a finite value is not.
  constexpr const char* kNaN = "7ff8000000000000";
  constexpr const char* kInf = "7ff0000000000000";
  constexpr const char* kMinusInf = "fff0000000000000";
  constexpr const char* kZero = "0000000000000000";
  const auto edit = [](std::size_t token, const char* value) {
    return decode_edited("net.network", [=](auto& t, std::uint64_t nodes) {
      t[token == 0 ? 2 * nodes + 1 : token] = value;
    });
  };
  EXPECT_FALSE(edit(1, kNaN).has_value()) << "x of node 0 NaN";
  EXPECT_FALSE(edit(4, kInf).has_value()) << "y of node 1 +inf";
  EXPECT_FALSE(edit(3, kMinusInf).has_value()) << "x of node 1 -inf";
  EXPECT_FALSE(edit(0, kNaN).has_value()) << "range of node 0 NaN";
  EXPECT_FALSE(edit(0, kInf).has_value()) << "range of node 0 +inf";
  EXPECT_TRUE(edit(1, kZero).has_value()) << "x of node 0 zero";
  EXPECT_TRUE(edit(0, kZero).has_value()) << "range of node 0 zero";
}

// -------------------------------------------------------- Snapshot store ----

TEST(SnapshotStore, PutGetRoundTripsAndCountsFiles) {
  SnapshotStore store(scratch_dir("roundtrip"));
  const std::string payload = "hello wire world \n binary\0!";
  ASSERT_TRUE(store.put(0xabcdULL, payload));
  EXPECT_EQ(store.file_count(), 1u);
  std::string out;
  EXPECT_EQ(store.get(0xabcdULL, out), SnapshotStore::GetStatus::kHit);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(store.get(0x1234ULL, out), SnapshotStore::GetStatus::kMissing);
}

TEST(SnapshotStore, CorruptHeaderTruncationAndVersionSkewAreRejected) {
  const std::string dir = scratch_dir("corrupt");
  SnapshotStore store(dir);
  const std::string payload(300, 'x');
  ASSERT_TRUE(store.put(7, payload));
  const std::string path = dir + "/" + SnapshotStore::file_name(7);

  const auto rewrite = [&](const std::function<std::string(std::string)>& f) {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << f(std::move(all));
  };
  std::string sink;

  rewrite([](std::string s) { s[0] = 'X'; return s; });  // bad magic
  EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected);

  ASSERT_TRUE(store.put(7, payload));
  rewrite([](std::string s) { s[7] = '9'; return s; });  // unsupported version
  EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected);

  ASSERT_TRUE(store.put(7, payload));
  rewrite([](std::string s) { return s.substr(0, s.size() - 40); });  // truncated
  EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected);

  ASSERT_TRUE(store.put(7, payload));
  rewrite([](std::string s) { s[s.size() - 10] ^= 1; return s; });  // bit rot
  EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected);

  // Header tokens the writer never emits are rejected too; a size of "-1"
  // used to drive a SIZE_MAX allocation that threw out of get().
  const auto set_field = [&](std::size_t field, const std::string& tok) {
    rewrite([&](std::string s) {
      std::size_t begin = 0;
      for (std::size_t i = 0; i < field; ++i) begin = s.find(' ', begin) + 1;
      return s.replace(begin, s.find_first_of(" \n", begin) - begin, tok);
    });
  };
  const std::pair<std::size_t, std::string> bad_fields[] = {
      {1, "+1"}, {3, "-1"}, {3, "+300"}, {3, "0300"}};
  for (const auto& [field, tok] : bad_fields) {
    ASSERT_TRUE(store.put(7, payload));
    set_field(field, tok);
    EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected)
        << "header field " << field << " = " << tok;
  }
  // The right checksum in uppercase hex.
  ASSERT_TRUE(store.put(7, payload));
  rewrite([](std::string s) {
    const std::size_t end = s.find('\n');
    const std::size_t begin = s.rfind(' ', end) + 1;
    EXPECT_LT(s.find_first_of("abcdef", begin), end);  // has letters to raise
    for (std::size_t i = begin; i < end; ++i) {
      s[i] = static_cast<char>(std::toupper(s[i]));
    }
    return s;
  });
  EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected);

  // Wrong prefix stamp: a valid file served under another prefix's name.
  ASSERT_TRUE(store.put(7, payload));
  std::filesystem::copy_file(path, dir + "/" + SnapshotStore::file_name(8));
  EXPECT_EQ(store.get(8, sink), SnapshotStore::GetStatus::kRejected);

  // The intact original still reads back: rejection is per-file.
  EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kHit);
  EXPECT_EQ(sink, payload);
}

TEST(SnapshotStore, NonCanonicalHeaderIsRejected) {
  // A header whose tokens all parse is still rejected unless it is the
  // exact line the writer emits: a trailing token, a leading space or a
  // trailing tab. The payload itself stays intact, so only the header can
  // reject these.
  const std::string dir = scratch_dir("noncanonical");
  SnapshotStore store(dir);
  const std::string payload(64, 'y');
  const std::string path = dir + "/" + SnapshotStore::file_name(7);
  const std::function<std::string(std::string)> edits[] = {
      [](std::string line) { return line + " trailing junk"; },
      [](std::string line) { return " " + line; },
      [](std::string line) { return line + "\t"; },
  };
  for (const auto& edit : edits) {
    ASSERT_TRUE(store.put(7, payload));
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    const std::size_t eol = all.find('\n');
    const std::string edited = edit(all.substr(0, eol));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << edited << all.substr(eol);
    std::string sink;
    EXPECT_EQ(store.get(7, sink), SnapshotStore::GetStatus::kRejected)
        << "header '" << edited << "'";
  }
  // The canonical file reads back.
  ASSERT_TRUE(store.put(7, payload));
  std::string out;
  EXPECT_EQ(store.get(7, out), SnapshotStore::GetStatus::kHit);
  EXPECT_EQ(out, payload);
}

TEST(SnapshotStore, MutatedFilesAreRejectedOrReadBackExactly) {
  // Seeded mutants of a valid file written in its place: bit flips,
  // truncations, splices with another key's file, duplicated header
  // tokens and oversized size or version fields. get() never throws, and
  // it either rejects the file or returns exactly the payload put. The
  // payload is binary and holds no space, so mutate()'s tokens are the
  // header's.
  constexpr std::uint64_t kSeed = 0x5eed0f1a7ULL;
  constexpr int kMutants = 2000;
  const std::string dir = scratch_dir("mutated");
  SnapshotStore store(dir);
  std::string payload;
  for (int c = 0; c < 256; ++c) {
    if (c != ' ') payload.push_back(static_cast<char>(c));
  }
  ASSERT_TRUE(store.put(7, payload));
  ASSERT_TRUE(store.put(8, std::string(payload.rbegin(), payload.rend())));
  const auto read_file = [&dir](std::uint64_t key) {
    std::ifstream in(dir + "/" + SnapshotStore::file_name(key), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string a = read_file(7);
  const std::string b = read_file(8);
  const std::string path = dir + "/" + SnapshotStore::file_name(7);
  const sim::Rng root(kSeed);
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    sim::Rng rng = root.child(static_cast<std::uint64_t>(i));
    std::string what;
    const std::string mutant = mutate(a, b, rng, what);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << mutant;
    const std::string repro =
        "repro: persist_test --gtest_filter=SnapshotStore."
        "MutatedFilesAreRejectedOrReadBackExactly (seed " +
        std::to_string(kSeed) + ", mutant " + std::to_string(i) + ": " + what + ")";
    try {
      std::string out;
      const SnapshotStore::GetStatus status = store.get(7, out);
      if (status == SnapshotStore::GetStatus::kRejected) {
        ++rejected;
      } else {
        EXPECT_EQ(status, SnapshotStore::GetStatus::kHit) << repro;
        EXPECT_EQ(out, payload) << repro;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << repro << " threw: " << e.what();
    }
  }
  EXPECT_GT(rejected, 0);
  // The mutants replaced the right file: the original reads back again.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << a;
  std::string out;
  EXPECT_EQ(store.get(7, out), SnapshotStore::GetStatus::kHit);
  EXPECT_EQ(out, payload);
}

// ------------------------------------------------- Service durable tier ----

TEST(CampaignServiceDurability, RestartedServiceReWarmsDigestIdentical) {
  const std::string dir = scratch_dir("rewarm");
  const std::vector<Query> batch = {
      tiny_query(42, dissem::AttackCampaign::kNone, 0.0),
      tiny_query(42, dissem::AttackCampaign::kJamming, 0.6),
      tiny_query(43, dissem::AttackCampaign::kGatewayHunt, 0.8),
      tiny_query(43, dissem::AttackCampaign::kCombined, 0.5),
  };
  std::vector<std::uint64_t> reference;
  for (const Query& q : batch) {
    reference.push_back(CampaignService::run_uncached(q).digest);
  }

  {
    CampaignService::Options opts;
    opts.workers = 2;
    opts.snapshot_dir = dir;
    CampaignService first(opts);
    const serve::BatchResult res = first.submit(batch);
    EXPECT_EQ(res.failures, 0u);
    EXPECT_EQ(res.prefix_sims, 2u);
    EXPECT_EQ(first.cache_stats().disk_stores, 2u);
  }  // the first service dies; its memory tier dies with it

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    CampaignService::Options opts;
    opts.workers = workers;
    opts.snapshot_dir = dir;
    CampaignService revived(opts);
    const serve::BatchResult res = revived.submit(batch);
    EXPECT_EQ(res.failures, 0u);
    // No prefix re-simulation: both prefixes re-warm from the disk tier.
    EXPECT_EQ(res.prefix_sims, 0u) << "workers=" << workers;
    EXPECT_EQ(res.disk_hits, 2u) << "workers=" << workers;
    EXPECT_EQ(res.cache_hits, batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(res.results[i].outcome.digest, reference[i])
          << "workers=" << workers << " query=" << i;
    }
  }
}

TEST(CampaignServiceDurability, CorruptDiskFilesFallBackToColdSimulation) {
  const std::string dir = scratch_dir("fallback");
  const Query q = tiny_query(50, dissem::AttackCampaign::kJamming, 0.4);
  const std::uint64_t reference = CampaignService::run_uncached(q).digest;

  CampaignService::Options opts;
  opts.workers = 1;
  opts.snapshot_dir = dir;
  {
    CampaignService first(opts);
    ASSERT_EQ(first.submit({q}).failures, 0u);
  }
  // Vandalize the stored snapshot: flip one payload byte.
  const std::string path =
      dir + "/" + SnapshotStore::file_name(serve::prefix_hash(q));
  {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    all[all.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << all;
  }
  CampaignService revived(opts);
  const serve::BatchResult res = revived.submit({q});
  // The corrupt file is rejected, the prefix re-simulates cold, and the
  // answer is still exactly right — then the re-simulated snapshot
  // OVERWRITES the corrupt file, healing the tier.
  EXPECT_EQ(res.failures, 0u);
  EXPECT_EQ(res.disk_hits, 0u);
  EXPECT_EQ(res.prefix_sims, 1u);
  EXPECT_EQ(revived.cache_stats().disk_rejects, 1u);
  EXPECT_EQ(res.results[0].outcome.digest, reference);

  CampaignService again(opts);
  const serve::BatchResult healed = again.submit({q});
  EXPECT_EQ(healed.disk_hits, 1u);
  EXPECT_EQ(healed.results[0].outcome.digest, reference);
}

TEST(CampaignServiceDurability, VersionOneFileIsRejectedAndRewritten) {
  // A version-1 file holds the older metrics text image. Only its version
  // token differs here (payload and checksum are intact), and that alone
  // must reject it: the service re-simulates cold, answers exactly as
  // run_uncached does, and overwrites the file with the current version.
  const std::string dir = scratch_dir("version1");
  const Query q = tiny_query(51, dissem::AttackCampaign::kGatewayHunt, 0.7);
  const std::uint64_t reference = CampaignService::run_uncached(q).digest;

  CampaignService::Options opts;
  opts.workers = 1;
  opts.snapshot_dir = dir;
  {
    CampaignService first(opts);
    ASSERT_EQ(first.submit({q}).failures, 0u);
  }
  const std::string path =
      dir + "/" + SnapshotStore::file_name(serve::prefix_hash(q));
  const auto read_file = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  {
    std::string all = read_file();
    ASSERT_EQ(all.rfind("iosnap 2 ", 0), 0u);
    all[7] = '1';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << all;
  }
  CampaignService revived(opts);
  const serve::BatchResult res = revived.submit({q});
  EXPECT_EQ(res.failures, 0u);
  EXPECT_EQ(res.disk_hits, 0u);
  EXPECT_EQ(res.prefix_sims, 1u);
  EXPECT_EQ(revived.cache_stats().disk_rejects, 1u);
  EXPECT_EQ(revived.cache_stats().disk_stores, 1u);
  EXPECT_EQ(res.results[0].outcome.digest, reference);
  EXPECT_EQ(read_file().rfind("iosnap 2 ", 0), 0u);

  CampaignService again(opts);
  const serve::BatchResult healed = again.submit({q});
  EXPECT_EQ(healed.disk_hits, 1u);
  EXPECT_EQ(healed.prefix_sims, 0u);
  EXPECT_EQ(healed.results[0].outcome.digest, reference);
}

// ------------------------------------------------- Replication records ----

std::string encode_bits(const double& x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return std::to_string(bits);
}

/// Strict inverse of encode_bits: the one decimal spelling it writes.
double decode_bits(std::string_view s) {
  std::uint64_t bits = 0;
  if (!sim::parse_u64_token(s, bits)) throw std::invalid_argument("bad payload");
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

TEST(ReplicationRecords, MutatedRecordsAreRerunOrReplayedExactly) {
  // Each mutant goes through the store under its replication's key with a
  // valid header, so the record decoder judges it, not the checksum.
  // run_resumable never throws; a replayed mutant re-encodes to its own
  // bytes and is merged in its seed slot; any other is re-run, and the
  // merged digest is the uninterrupted run's.
  constexpr std::uint64_t kSeed = 0x5eed0f1a7ULL;
  constexpr int kMutants = 600;
  const auto seeds = sim::ParallelRunner::seed_range(900, 3);
  const auto work = [](sim::ReplicationContext& ctx) {
    sim::Rng rng = ctx.make_rng();
    const double x = rng.uniform();
    ctx.metrics.count("runs");
    ctx.metrics.gauge("last", x);
    for (int i = 0; i < 8; ++i) ctx.metrics.observe("lat", rng.uniform());
    return x;
  };
  const sim::ParallelRunner runner(2);
  const auto reference = runner.run<double>(seeds, work);
  std::vector<std::string> records;
  for (const auto& r : reference.replications) {
    records.push_back(sim::encode_replication(r.wall_ms, encode_bits(r.payload), r.metrics));
  }
  SnapshotStore store(scratch_dir("records"));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(store.put(sim::replication_key(seeds[i], i), records[i]));
  }
  const sim::Rng root(kSeed);
  int replayed = 0, rerun = 0;
  for (int m = 0; m < kMutants; ++m) {
    sim::Rng rng = root.child(static_cast<std::uint64_t>(m));
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1));
    std::string what;
    const std::string mutant =
        mutate(records[i], records[(i + 1) % seeds.size()], rng, what);
    const std::string repro =
        "repro: persist_test --gtest_filter=ReplicationRecords."
        "MutatedRecordsAreRerunOrReplayedExactly (seed " +
        std::to_string(kSeed) + ", mutant " + std::to_string(m) + ": record " +
        std::to_string(i) + ", " + what + ")";
    const std::uint64_t key = sim::replication_key(seeds[i], i);
    ASSERT_TRUE(store.put(key, mutant)) << repro;
    try {
      const auto out =
          runner.run_resumable<double>(seeds, work, store, encode_bits, decode_bits);
      EXPECT_EQ(out.failures, 0u) << repro;
      const auto& r = out.replications[i];
      if (out.resumed == seeds.size()) {
        ++replayed;
        EXPECT_EQ(sim::encode_replication(r.wall_ms, encode_bits(r.payload), r.metrics),
                  mutant)
            << repro;
        sim::MetricsRegistry expected;
        for (std::size_t k = 0; k < seeds.size(); ++k) {
          expected.merge_from(k == i ? r.metrics : reference.replications[k].metrics);
        }
        EXPECT_EQ(out.merged.digest(), expected.digest()) << repro;
      } else {
        ++rerun;
        EXPECT_EQ(out.resumed, seeds.size() - 1) << repro;
        EXPECT_EQ(out.merged.digest(), reference.merged.digest()) << repro;
        EXPECT_EQ(encode_bits(r.payload), encode_bits(reference.replications[i].payload))
            << repro;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << repro << " threw: " << e.what();
    }
    ASSERT_TRUE(store.put(key, records[i]));  // the next mutant starts clean
  }
  // The budget exercises both outcomes.
  EXPECT_GT(replayed, 0);
  EXPECT_GT(rerun, 0);
}

/// Opens a store, then replaces its directory with a regular file: every
/// later put fails, whatever the process may write (root included).
SnapshotStore store_over_replaced_dir(const std::string& name) {
  const std::string dir = scratch_dir(name);
  SnapshotStore store(dir);
  std::filesystem::remove_all(dir);
  std::ofstream(dir) << "not a directory";
  return store;
}

TEST(SnapshotStore, PutIntoReplacedDirectoryFails) {
  SnapshotStore store = store_over_replaced_dir("replaced_put");
  EXPECT_FALSE(store.put(1, "payload"));
  std::string out;
  EXPECT_EQ(store.get(1, out), SnapshotStore::GetStatus::kMissing);
  EXPECT_EQ(store.file_count(), 0u);
}

TEST(ReplicationRecords, RunResumableCountsFailedPuts) {
  SnapshotStore store = store_over_replaced_dir("replaced_runner");
  const sim::ParallelRunner runner(2);
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const auto out = runner.run_resumable<std::uint64_t>(
      seeds, [](sim::ReplicationContext& ctx) { return ctx.seed * 10; },
      store, [](const std::uint64_t& v) { return std::to_string(v); },
      [](std::string_view s) -> std::uint64_t {
        return std::strtoull(std::string(s).c_str(), nullptr, 10);
      });
  // Every replication still succeeded — the answers are correct — but none
  // are durable, and the outcome says so instead of pretending.
  EXPECT_EQ(out.failures, 0u);
  EXPECT_EQ(out.store_write_failures, seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(out.replications[i].payload, seeds[i] * 10);
  }
}

}  // namespace
}  // namespace iobt
