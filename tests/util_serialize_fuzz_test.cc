// Robustness sweep for the deserializers: random byte buffers, bit flips,
// truncations, and version-skewed snapshots of valid model payloads must
// produce clean Status errors, never crashes, silent garbage models, or
// giant allocations — and a clean save->load round trip must reproduce
// bit-identical samples at every thread count.

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "encoding/tuple_encoder.h"
#include "ensemble/ensemble_model.h"
#include "ensemble/partitioning.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"
#include "vae/vae_model.h"

namespace deepaqp {
namespace {

vae::VaeAqpOptions TinyVaeOptions() {
  vae::VaeAqpOptions options;
  options.epochs = 2;
  options.hidden_dim = 16;
  return options;
}

util::Result<std::unique_ptr<vae::VaeAqpModel>> TrainTinyVae(uint64_t seed) {
  auto table = data::GenerateTaxi({.rows = 400, .seed = seed});
  return vae::VaeAqpModel::Train(table, TinyVaeOptions());
}

util::Result<std::unique_ptr<ensemble::EnsembleModel>> TrainTinyEnsemble() {
  auto table = data::GenerateTaxi({.rows = 1000, .seed = 9});
  auto groups = ensemble::GroupByAttribute(table, 0, 0.02);
  ensemble::Partition partition;
  for (size_t g = 0; g < std::min<size_t>(2, groups.size()); ++g) {
    partition.parts.push_back({static_cast<int>(g)});
  }
  return ensemble::EnsembleModel::Train(table, groups, partition,
                                        TinyVaeOptions());
}

void ExpectTablesIdentical(const relation::Table& a,
                           const relation::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t c = 0; c < a.num_attributes(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.schema().IsCategorical(c)) {
        ASSERT_EQ(a.CatCode(r, c), b.CatCode(r, c))
            << "row " << r << " col " << c;
      } else {
        ASSERT_EQ(a.NumValue(r, c), b.NumValue(r, c))
            << "row " << r << " col " << c;
      }
    }
  }
}

size_t SectionOffset(const std::vector<uint8_t>& bytes,
                     const std::string& name) {
  auto snap = util::SnapshotReader::Open(bytes);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  for (const auto& s : snap->sections()) {
    if (s.name == name) return s.offset + s.size / 2;
  }
  ADD_FAILURE() << "no section " << name;
  return 0;
}

TEST(SerializeFuzzTest, HostileVectorLengthsAreRejected) {
  // Claim ~2^61 floats: the remainder-based bounds check must refuse
  // without wrapping or allocating.
  util::ByteWriter w;
  w.WriteU64(uint64_t{1} << 61);
  w.WriteF32(1.0f);
  util::ByteReader r(w.bytes());
  EXPECT_FALSE(r.ReadF32Vector().ok());

  util::ByteWriter w2;
  w2.WriteU64(~uint64_t{0});  // string length -1
  util::ByteReader r2(w2.bytes());
  EXPECT_FALSE(r2.ReadString().ok());
}

TEST(SerializeFuzzTest, RandomBuffersNeverCrashModelLoad) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng.NextIndex(256));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextIndex(256));
    auto model = vae::VaeAqpModel::Deserialize(junk);
    EXPECT_FALSE(model.ok());
  }
}

TEST(SerializeFuzzTest, TruncatedModelsFailCleanly) {
  auto model = TrainTinyVae(5);
  ASSERT_TRUE(model.ok());
  const std::vector<uint8_t> bytes = (*model)->Serialize();
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t cut = rng.NextIndex(bytes.size());
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(vae::VaeAqpModel::Deserialize(truncated).ok())
        << "cut at " << cut;
  }
}

TEST(SerializeFuzzTest, BitFlippedModelsAlwaysRejected) {
  // With a whole-file checksum, EVERY single flipped bit must be caught —
  // not just flips that happen to break a structural invariant.
  auto model = TrainTinyVae(15);
  ASSERT_TRUE(model.ok());
  const std::vector<uint8_t> bytes = (*model)->Serialize();
  util::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t byte = rng.NextIndex(mutated.size());
    mutated[byte] ^= static_cast<uint8_t>(1u << rng.NextIndex(8));
    auto back = vae::VaeAqpModel::Deserialize(mutated);
    EXPECT_FALSE(back.ok()) << "flip at byte " << byte << " was accepted";
  }
}

/// `model` as a snapshot of payload `version`, with version 1's decode
/// strategy and draw count after default_t when `strategy` >= 0.
std::vector<uint8_t> CraftSnapshot(vae::VaeAqpModel& model, uint32_t version,
                                   int strategy = -1, int32_t draws = 0) {
  util::SnapshotWriter snap(vae::kVaeModelSnapshotKind, version);
  util::ByteWriter& meta = snap.AddSection("meta");
  meta.WriteF64(model.default_t());
  if (strategy >= 0) {
    meta.WriteU8(static_cast<uint8_t>(strategy));
    meta.WriteI32(draws);
  }
  model.tuple_encoder().Serialize(snap.AddSection("encoder"));
  model.net().Serialize(snap.AddSection("net"));
  return snap.Finish();
}

TEST(SerializeFuzzTest, VersionOneSnapshotsLoadAndDecodeOneDraw) {
  // A version-1 snapshot loads whatever draw count it holds (2^31 - 1 was
  // refused as a stall while draws were decoded) and generates what the
  // same model generates today. Its strategy byte is still validated.
  auto model = TrainTinyVae(21);
  ASSERT_TRUE(model.ok());
  auto old = vae::VaeAqpModel::Deserialize(
      CraftSnapshot(**model, 1, 2, std::numeric_limits<int32_t>::max()));
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ((*old)->default_t(), (*model)->default_t());
  util::Rng old_rng(3);
  util::Rng new_rng(3);
  const relation::Table got = (*old)->Generate(1000, old_rng);
  ASSERT_EQ(got.num_rows(), 1000u);
  ExpectTablesIdentical((*model)->Generate(1000, new_rng), got);
  auto bad = vae::VaeAqpModel::Deserialize(CraftSnapshot(**model, 1, 3, 8));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SerializeFuzzTest, VersionTwoMetaWithTrailingBytesIsRejected) {
  auto model = TrainTinyVae(22);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(vae::VaeAqpModel::Deserialize(CraftSnapshot(**model, 2)).ok());
  auto back = vae::VaeAqpModel::Deserialize(CraftSnapshot(**model, 2, 2, 8));
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("trailing bytes"), std::string::npos)
      << back.status().ToString();
}

TEST(SerializeFuzzTest, FutureSnapshotVersionsAreDiagnosed) {
  // Container format from the future.
  util::SnapshotWriter future(vae::kVaeModelSnapshotKind,
                              vae::kVaeModelPayloadVersion,
                              util::kSnapshotFormatVersion + 1);
  future.AddSection("meta").WriteF64(0.0);
  auto back = vae::VaeAqpModel::Deserialize(future.Finish());
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("format version"),
            std::string::npos)
      << back.status().ToString();

  // Payload schema from the future (container itself is fine).
  util::SnapshotWriter bumped(vae::kVaeModelSnapshotKind,
                              vae::kVaeModelPayloadVersion + 1);
  bumped.AddSection("meta").WriteF64(0.0);
  auto back2 = vae::VaeAqpModel::Deserialize(bumped.Finish());
  ASSERT_FALSE(back2.ok());
  EXPECT_NE(back2.status().message().find("payload version"),
            std::string::npos)
      << back2.status().ToString();
}

TEST(SerializeFuzzTest, WrongPayloadKindIsDiagnosed) {
  auto ens = TrainTinyEnsemble();
  ASSERT_TRUE(ens.ok()) << ens.status().ToString();
  const std::vector<uint8_t> ens_bytes = (*ens)->Serialize();
  auto as_vae = vae::VaeAqpModel::Deserialize(ens_bytes);
  ASSERT_FALSE(as_vae.ok());
  EXPECT_NE(as_vae.status().message().find(ensemble::kEnsembleSnapshotKind),
            std::string::npos)
      << as_vae.status().ToString();

  auto model = TrainTinyVae(16);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(
      ensemble::EnsembleModel::Deserialize((*model)->Serialize()).ok());
}

TEST(SerializeFuzzTest, EnsembleDegradedLoadSkipsCorruptMember) {
  auto ens = TrainTinyEnsemble();
  ASSERT_TRUE(ens.ok()) << ens.status().ToString();
  ASSERT_EQ((*ens)->num_members(), 2u);
  const std::vector<uint8_t> bytes = (*ens)->Serialize();

  std::vector<uint8_t> mutated = bytes;
  mutated[SectionOffset(bytes, "member-0000")] ^= 0x10;

  // Strict load refuses the whole file; degraded load keeps the intact
  // member and reports the reduced coverage.
  EXPECT_FALSE(ensemble::EnsembleModel::Deserialize(mutated).ok());
  ensemble::EnsembleLoadReport report;
  auto degraded =
      ensemble::EnsembleModel::DeserializeDegraded(mutated, &report);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(report.members_total, 2u);
  EXPECT_EQ(report.members_loaded, 1u);
  EXPECT_TRUE(report.degraded());
  EXPECT_GT(report.coverage, 0.0);
  EXPECT_LT(report.coverage, 1.0);
  ASSERT_EQ(report.member_errors.size(), 1u);
  EXPECT_NE(report.member_errors[0].find("member-0000"), std::string::npos);

  util::Rng rng(4);
  auto sample = (*degraded)->Generate(200, vae::kTPlusInf, rng);
  EXPECT_EQ(sample.num_rows(), 200u);

  // A corrupt weights section is not recoverable: every member's mixture
  // share is gone.
  std::vector<uint8_t> bad_weights = bytes;
  bad_weights[SectionOffset(bytes, "weights")] ^= 0x01;
  EXPECT_FALSE(
      ensemble::EnsembleModel::DeserializeDegraded(bad_weights, &report)
          .ok());
}

TEST(SerializeFuzzTest, SaveLoadRoundTripIsBitIdenticalAtAnyThreadCount) {
  auto model = TrainTinyVae(17);
  ASSERT_TRUE(model.ok());
  const std::vector<uint8_t> bytes = (*model)->Serialize();
  auto reloaded = vae::VaeAqpModel::Deserialize(bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  // Re-serializing the loaded model reproduces the file byte for byte.
  EXPECT_EQ((*reloaded)->Serialize(), bytes);

  for (int threads : {1, 4}) {
    util::SetGlobalThreads(threads);
    util::Rng rng_a(123);
    util::Rng rng_b(123);
    relation::Table a = (*model)->Generate(700, (*model)->default_t(), rng_a);
    relation::Table b =
        (*reloaded)->Generate(700, (*reloaded)->default_t(), rng_b);
    ExpectTablesIdentical(a, b);
  }
  util::SetGlobalThreads(0);
}

TEST(SerializeFuzzTest, EnsembleRoundTripIsBitIdentical) {
  auto ens = TrainTinyEnsemble();
  ASSERT_TRUE(ens.ok()) << ens.status().ToString();
  const std::vector<uint8_t> bytes = (*ens)->Serialize();
  auto reloaded = ensemble::EnsembleModel::Deserialize(bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->Serialize(), bytes);

  util::Rng rng_a(55);
  util::Rng rng_b(55);
  relation::Table a = (*ens)->Generate(400, vae::kTPlusInf, rng_a);
  relation::Table b = (*reloaded)->Generate(400, vae::kTPlusInf, rng_b);
  ExpectTablesIdentical(a, b);
}

TEST(SerializeFuzzTest, BitFlippedEncoderHeadersFailOrStayConsistent) {
  auto table = data::GenerateTaxi({.rows = 300, .seed = 6});
  auto enc = encoding::TupleEncoder::Fit(table, {});
  ASSERT_TRUE(enc.ok());
  util::ByteWriter w;
  enc->Serialize(w);
  std::vector<uint8_t> bytes = w.bytes();
  util::Rng rng(88);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng.NextIndex(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextIndex(8));
    util::ByteReader r(mutated);
    auto back = encoding::TupleEncoder::Deserialize(r);
    // Either a clean error, or a structurally consistent encoder.
    if (back.ok()) {
      size_t offset = 0;
      for (const auto& layout : back->layout()) {
        EXPECT_EQ(layout.offset, offset);
        offset += layout.width;
      }
      EXPECT_EQ(back->encoded_dim(), offset);
    }
  }
}

}  // namespace
}  // namespace deepaqp
