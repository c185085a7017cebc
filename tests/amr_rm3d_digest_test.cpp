// Golden hierarchy digests of the analytic AMR emulators.
//
// Each array holds one FNV-1a digest per snapshot (the initial hierarchy
// and every regrid) over the step, the level count and every box of every
// level.  The values were recorded from the per-cell gather formulation of
// the refinement flags; any change to flagging, clustering, refinement or
// chopping that moves a single box fails here with the first divergent
// snapshot.  Folding the per-snapshot digests in order gives the chained
// digests that perfbench/digests.txt records for the same RM3D
// configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pragma/amr/galaxy.hpp"
#include "pragma/amr/rm3d.hpp"

namespace pragma::amr {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold(std::uint64_t digest, int step, const GridHierarchy& h) {
  digest = fnv(digest, static_cast<std::uint64_t>(step));
  digest = fnv(digest, static_cast<std::uint64_t>(h.num_levels()));
  for (const GridLevel& level : h.levels()) {
    digest = fnv(digest, level.boxes.size());
    for (const Box& box : level.boxes)
      for (int v : {box.lo().x, box.lo().y, box.lo().z, box.hi().x,
                    box.hi().y, box.hi().z})
        digest = fnv(digest, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(v)));
  }
  return digest;
}

struct Digests {
  std::vector<std::uint64_t> snapshots;
  std::uint64_t chained = kFnvOffset;

  void add(int step, const GridHierarchy& h) {
    snapshots.push_back(fold(kFnvOffset, step, h));
    chained = fold(chained, step, h);
  }
};

/// Run `emulator` to `steps`, calling `before_step(step)` ahead of each
/// advance, and digest every snapshot.
template <typename Emulator, typename Hook>
Digests digest_run(Emulator& emulator, int steps, Hook before_step) {
  Digests d;
  d.add(emulator.step(), emulator.hierarchy());
  while (emulator.step() < steps) {
    before_step(emulator);
    if (emulator.advance()) d.add(emulator.step(), emulator.hierarchy());
  }
  return d;
}

template <typename Emulator>
Digests digest_run(Emulator& emulator, int steps) {
  return digest_run(emulator, steps, [](Emulator&) {});
}

template <std::size_t N>
void expect_snapshots(const Digests& got, const std::uint64_t (&want)[N]) {
  ASSERT_EQ(got.snapshots.size(), N);
  for (std::size_t i = 0; i < N; ++i)
    ASSERT_EQ(got.snapshots[i], want[i]) << "first divergent snapshot " << i;
}

Digests rm3d_digests(std::uint64_t seed, int steps) {
  Rm3dConfig config;
  config.seed = seed;
  config.coarse_steps = steps;
  Rm3dEmulator emulator(config);
  return digest_run(emulator, steps);
}

// clang-format off
constexpr std::uint64_t kRm3dSeed7Steps200[] = {
    0xb7225a1f815b7985ULL, 0x8b3cf7722578b25bULL, 0xb1b4c3c613c62f88ULL,
    0x24a26b23b2251d06ULL, 0x486fc8bc17db91b0ULL, 0xb5f7bb81cf98c2acULL,
    0xed9048431d685b60ULL, 0x82a2c5bb51a154fbULL, 0x10f5135952968fcdULL,
    0x9bf41c28d29790aeULL, 0xd78eed3fc8eb5308ULL, 0x690558a197251bd5ULL,
    0x6bc8e22308d4f0bcULL, 0x7f1a26352027b0d7ULL, 0x13ab752278448a7eULL,
    0xa34be816a41bad48ULL, 0xbd0b21ebe0b60b2aULL, 0x4638054fe1793e90ULL,
    0x77a80ae8a2a67bd0ULL, 0xf2889a38223958e6ULL, 0x525e9747f8ee4af3ULL,
    0x8899ea1b282906c4ULL, 0x3355beec4cec4e0aULL, 0x5918723cba731bb0ULL,
    0x26639bd8ea550a7eULL, 0x3a5a3283120557eaULL, 0xe3546ad4369ebbf0ULL,
    0x6a3bd5090353096eULL, 0xbdbdc2154d9aa453ULL, 0xe2eb2276f4147bc1ULL,
    0xcf12171381331e9bULL, 0xac2fba2ff6f79727ULL, 0x754d16f5ff8a1519ULL,
    0xfcc2ef74e8f10513ULL, 0xa0d9935cdf02f410ULL, 0x49c34c73d0091adfULL,
    0xdbcc08df4ea5e0a5ULL, 0x40216c175d971717ULL, 0x12153981ebbbfedbULL,
    0x034961ace6068295ULL, 0x3776b631c3f3bed6ULL, 0x4e830b7a0cfcb94bULL,
    0xbc40e2af687344efULL, 0xff7dccdf49fb9dc6ULL, 0x1a98ce13acbe219aULL,
    0x793fc7fb5a2e9f93ULL, 0x511b501e9a126d8cULL, 0x12ea0e719c86ad31ULL,
    0x0734aa3086b9db87ULL, 0xe40a10e08b7a95fbULL, 0x01791b34b23dda26ULL,
};
constexpr std::uint64_t kRm3dSeed8Steps200[] = {
    0x0728949ae48c9411ULL, 0x8b3cf7722578b25bULL, 0xb1b4c3c613c62f88ULL,
    0x24a26b23b2251d06ULL, 0x486fc8bc17db91b0ULL, 0xb5f7bb81cf98c2acULL,
    0xed9048431d685b60ULL, 0x82a2c5bb51a154fbULL, 0x10f5135952968fcdULL,
    0x75d53bddf43e8b89ULL, 0x5954bb390f95bb2cULL, 0x9c6fa7e252713553ULL,
    0x86f097650f8a3a72ULL, 0xf9269079dd6507fcULL, 0x7670b9a6b01127aeULL,
    0x698536d18383bd48ULL, 0xec49289b16a59bd1ULL, 0x3e01f1d1d23e489eULL,
    0xaf029817406082ecULL, 0x2cd854e9388c15e0ULL, 0x1dfc102c47578ef6ULL,
    0x49b65f58e0f1104dULL, 0xb53c6cc5997554c8ULL, 0xbe8e47372597582cULL,
    0xd6ec0800a93b4252ULL, 0x325018794e2d446cULL, 0xef71041b3bdf9fc3ULL,
    0x84627ff1350bb0ffULL, 0x6a2e33f75528915fULL, 0xc3ea69b5cde2dbd0ULL,
    0x3860e9b7d01d02a6ULL, 0x10c5339e810b7d1eULL, 0x394847e21aceb08aULL,
    0x26cb2f1b2128fc4aULL, 0x55b9cceeecc5c615ULL, 0x28275a5e61435e09ULL,
    0xae9cba2c98c1281aULL, 0x9d2c1c4f67205c78ULL, 0xcb87d26756dae6b0ULL,
    0xaa64c7c286f09127ULL, 0xfc842d6db1e4a3f6ULL, 0xafb07bab949673c7ULL,
    0xfa3cd0318bfe8a53ULL, 0x2b352a77563c4c55ULL, 0xb60d6824ed4e281fULL,
    0x9e6e1756f5e93c92ULL, 0x83d6b8cbbf7c0175ULL, 0xdee363f7ff52088cULL,
    0xe137ea1a7b3cf909ULL, 0xc48a3d27bd63a55bULL, 0x3fe4bd2ef27133aeULL,
};
constexpr std::uint64_t kRm3dSeed7Steps800[] = {
    0xb7225a1f815b7985ULL, 0x8b3cf7722578b25bULL, 0x44541f324352cb57ULL,
    0x8dce3608f1d53653ULL, 0x912589bbe7611b4fULL, 0x5b619c25bcaf0c48ULL,
    0x23d851f07dfc3200ULL, 0xaa95111a7d74a212ULL, 0x1440fbe7066e6a60ULL,
    0x1bfce9eaba232892ULL, 0x8d39629275290292ULL, 0x181ae2de1dd5b1a8ULL,
    0x9c198a73f989c87aULL, 0x8a78b8f17b0b1442ULL, 0x45d9afb504ec9818ULL,
    0x23ea81b1b1d2a2e6ULL, 0x3f312e1b3b10c4e0ULL, 0x74f480ec979dc5e2ULL,
    0x955dcbb59c905b80ULL, 0xaeedf3fea8741e8eULL, 0x780a7fd860d82568ULL,
    0x9ff0993f481b89e0ULL, 0xeeb8b23a9d2f6b1eULL, 0xe6a1d22837ea5b94ULL,
    0x9dbcf7ef9d9d44d8ULL, 0xd2cd47f896ad4686ULL, 0x338e9d6541e37c79ULL,
    0x04e04a2f8bb6d3c9ULL, 0xf869935a31e559d7ULL, 0xd3eee4ed891479bfULL,
    0x5db511fe419ed425ULL, 0xdeb613afeb8f029dULL, 0x2649224893d6ccadULL,
    0xb657e1531941165fULL, 0x82f98f79f3611985ULL, 0x28a6ce06eb3407deULL,
    0xac2c74d2b411c81aULL, 0x33d9184708e90f28ULL, 0x61f66a2dc12a499eULL,
    0xdcb63eef52e22042ULL, 0x0afe2015b3c74780ULL, 0x43743ece90292084ULL,
    0x734329ed2fb4c80dULL, 0xed355e40c522d474ULL, 0x410f1e30627ddfc9ULL,
    0x95b96f9615766341ULL, 0x404fdbc1f8712ec0ULL, 0x8f1cc434feea7c00ULL,
    0x6b04e173a4fb508cULL, 0xa8d13ad2a86b7022ULL, 0xa37620c0cd2e262aULL,
    0xce288a10b26aa945ULL, 0x2172709cf2a660b3ULL, 0x12b90e6c67013c0bULL,
    0x586baaf863676ecdULL, 0x9298de8c50ad9b75ULL, 0x0e750b3db0b91036ULL,
    0xd14011cac9828128ULL, 0xf58dcef3936bffe8ULL, 0x07f0533e383b84d1ULL,
    0x88044ae9d8b8a0fcULL, 0x3e11d79db9593444ULL, 0xf5dd8608becff67aULL,
    0x6746be020338b7b6ULL, 0x8dd752ee1e17af05ULL, 0xec62fe1954b03cadULL,
    0xb695db82e703db65ULL, 0x3256d7f4606da21cULL, 0xc472f48e6ce94a2bULL,
    0xb969713f91951db3ULL, 0xa1f4007df36d9d0fULL, 0xa004e40b0ea1aa76ULL,
    0xc576996fc8912877ULL, 0x4ea2980794ad6ce9ULL, 0x596bfbe5809dfeb3ULL,
    0x033cb843653806a7ULL, 0x07f2b2049538aa45ULL, 0xd3e531154c73c7f8ULL,
    0x6cfae4dc551dcf0eULL, 0x65d82157bec4d90aULL, 0x2d4f7c787ef8008cULL,
    0xbed26b78a81a4e34ULL, 0x3b78bf80cb28d098ULL, 0xc25754eba30ee54bULL,
    0x7243c04951244757ULL, 0x907c0916fb7a713dULL, 0x457d392c19d71949ULL,
    0x04e904a8030cc855ULL, 0x1ff5236f6efab4bdULL, 0xfbac9e0f9aa4a385ULL,
    0x15447b4eb98329f8ULL, 0x531b372fe9f1fc83ULL, 0x8a8b72d83d0bccf3ULL,
    0x8dd7d5ede221d010ULL, 0x1ca2cd8c0e7736a6ULL, 0x0be5c5c2c1af22c9ULL,
    0xc0f376dca0725331ULL, 0xd5f05dd56ee4a864ULL, 0x251f84837141b0bbULL,
    0xdd958866ac729b2fULL, 0x4ad7daa29afe8cf1ULL, 0xa2fb836c1b27076bULL,
    0x856bad605d45099dULL, 0xd2519262e0ce90feULL, 0xe42a9958a4bf3257ULL,
    0x59eaa2f47ba91e09ULL, 0xfb48e7cf46c29178ULL, 0xb73a7944dd5ab9eaULL,
    0x9ee4e00dd784e49dULL, 0x430a0469a7dbb52dULL, 0x128ad919f6f27699ULL,
    0xd00067ebd2d1fd26ULL, 0xeeff37bddb7791ccULL, 0xdf00e213566f927fULL,
    0x18b717ed8456923bULL, 0x166c9703282f14eaULL, 0x025d806936a97ecaULL,
    0xe1facc2a6388fc0cULL, 0x085062b901582fdfULL, 0xef7e175f860bfcf8ULL,
    0xc95ec4e67e9f8f9cULL, 0x8247b4b3a7aa5f60ULL, 0x2a59f7569fca67e4ULL,
    0x15c457b56e2ef6a8ULL, 0x47fb61356d993fbcULL, 0x6938467e3333c180ULL,
    0xba74299040e0f5e0ULL, 0x56bb1d96dcef1f94ULL, 0x47fbe12bfb1bd753ULL,
    0x681efcb6dbad3692ULL, 0xc7b18b405bd1b536ULL, 0x28126a712a30edbfULL,
    0x1454378551a68535ULL, 0xda03bc82b9e2f3beULL, 0x9c60b65cc78f4e2cULL,
    0xf7ef903dca4c4a54ULL, 0xd4d97b45bfb80afaULL, 0xba53913fe9d9e6b0ULL,
    0x51f195ff5f370eeaULL, 0x4af1498376a7c99dULL, 0x4ae53e81d03462d1ULL,
    0x8b54bc90e98f4501ULL, 0xcd7392055a3a1ee6ULL, 0x97b7dcf594192d9aULL,
    0x343d7870b0ecb537ULL, 0x1cdeebd8cbee2110ULL, 0x2ec08b963e07b10eULL,
    0xd55376f1ede88651ULL, 0x299282655fed0189ULL, 0xefdd0b835556bb7eULL,
    0x9d43f74bf0489a0cULL, 0x270fbfc0add0415eULL, 0x23d9bbebf80d568dULL,
    0xb74969b16493f8f3ULL, 0xa26639811f3366d1ULL, 0xfda68eedce72d707ULL,
    0x305f6a6c39403f73ULL, 0x20a5cb389bdd6f39ULL, 0x6a93ad6ee71e826cULL,
    0x019fa6ae345997cdULL, 0x268333cc2a9550bcULL, 0x990b03744965dce3ULL,
    0xcf6c92676e9c9dc3ULL, 0x10bf3aa75abae886ULL, 0xd8716eebff52c875ULL,
    0xec2b566907d85eebULL, 0xe7db3abfae6da2abULL, 0x57fcd424d5b5de46ULL,
    0x3fb6995c5aaf4aadULL, 0xa7a1a91e1666d1e4ULL, 0x545200e8cd58fea2ULL,
    0xa22b8c866ccd8ecaULL, 0x5420c5204f990310ULL, 0x65888068b6664366ULL,
    0x30db0ca9c016eb2eULL, 0x1ef9e95c9de2e21cULL, 0x5be2a009e30e363cULL,
    0x35e59993fb9686d4ULL, 0xd455a57858dd48d1ULL, 0x1966689834c8f76bULL,
    0x3c3511c8931bf101ULL, 0xcf63ef6b8103e002ULL, 0x55dba0a6a4039333ULL,
    0xa1d45be37187338bULL, 0x91da3c36a279d3eeULL, 0x58c6abc207498eecULL,
    0xa977a70edaa1f60fULL, 0xbe64a6a441edfab2ULL, 0x6054ac9566fe5697ULL,
    0xd912c075fbcd96c7ULL, 0x6c9ffcc483f813b6ULL, 0xbf03b24ac06983d7ULL,
    0xe79f9e838b034b86ULL, 0xae28e62aa823dfa3ULL, 0xf9c0008c9efe1739ULL,
    0x815b590a875ebe1dULL, 0x0a65406999394ffaULL, 0x9a1d194d6640b1b8ULL,
    0xb962cccc63d01283ULL, 0x2ca81420546906f2ULL, 0xb50c05c6fa2f607bULL,
};
constexpr std::uint64_t kRm3dChoppedMidRun[] = {
    0xb7225a1f815b7985ULL, 0x8b3cf7722578b25bULL, 0xb1b4c3c613c62f88ULL,
    0x24a26b23b2251d06ULL, 0x486fc8bc17db91b0ULL, 0xb5f7bb81cf98c2acULL,
    0xed9048431d685b60ULL, 0x82a2c5bb51a154fbULL, 0x10f5135952968fcdULL,
    0x9bf41c28d29790aeULL, 0xd78eed3fc8eb5308ULL, 0x690558a197251bd5ULL,
    0x6bc8e22308d4f0bcULL, 0x7f1a26352027b0d7ULL, 0x13ab752278448a7eULL,
    0xa34be816a41bad48ULL, 0xbd0b21ebe0b60b2aULL, 0x4638054fe1793e90ULL,
    0x77a80ae8a2a67bd0ULL, 0xf2889a38223958e6ULL, 0x525e9747f8ee4af3ULL,
    0x8899ea1b282906c4ULL, 0x3355beec4cec4e0aULL, 0x5918723cba731bb0ULL,
    0x26639bd8ea550a7eULL, 0x3a5a3283120557eaULL, 0xd08820ee41d52fd7ULL,
    0x5bcb745168b61197ULL, 0xeb248df47b160e83ULL, 0xcc2a7dd9d28bad30ULL,
    0xbf6e08c1032f1bf6ULL, 0x638f34f783b2e494ULL, 0xca18d99ba5274b00ULL,
    0xa9f3fb43fac46eb8ULL, 0x490ae7b7482f6d6bULL, 0x9e854bcfc012b9caULL,
    0xa58c0686ace35528ULL, 0x684ea3b6cd56bf05ULL, 0x76911e6aaaaa3196ULL,
    0xcdd2a49e75f804cbULL, 0xb92680fe30ee5c48ULL, 0xbcdc896c666bc8d3ULL,
    0xd63a877cc8ec4aeaULL, 0x566312e06b4065c1ULL, 0x3cbb5f0696707c1dULL,
    0x185de4e6a967d77bULL, 0x462681eee6a2556dULL, 0xbbe670a9ff70a176ULL,
    0x3063624983997ed9ULL, 0xf47d0c4e404aeebaULL, 0x40249445f505063dULL,
};
constexpr std::uint64_t kGalaxySeed17Steps200[] = {
    0xdd697bbf177fab1fULL, 0x382b0db3a4a1c510ULL, 0xe241e2ae45380f37ULL,
    0xd31bf202f9555c34ULL, 0xfc62c13a05ebaca2ULL, 0x07e4b3a8733e699cULL,
    0x7dc49adf7cbcd4c1ULL, 0x3c31e01607b1dcc6ULL, 0x534a375a4f3aa082ULL,
    0xaa37c7268e8b01e7ULL, 0xb034ba481c9750ccULL, 0x1713e3087e9ed456ULL,
    0x79c61a771affca72ULL, 0xf656b56f98c34346ULL, 0x04a7e5f5be85e39fULL,
    0xdcb796a654e94faaULL, 0x6660e57a57ed430bULL, 0xa522754a9a75e8a7ULL,
    0x38894782a6550016ULL, 0x20ced44e6bf93f26ULL, 0x04fca62d1b6dee32ULL,
    0x7a1b94f538a3cc5aULL, 0x8274b58a74103905ULL, 0x018ba9f6ceb43c9dULL,
    0x574e0a8fdbf0306eULL, 0x4ed7cd82067c4fd4ULL, 0x619cd73405b82314ULL,
    0x528af46a5d6be841ULL, 0xf15ed34373e42044ULL, 0xdf0aa2415008d101ULL,
    0x40bf31e2e13126f2ULL, 0xe4a13965d9a1949fULL, 0xc70f70e1a4794ecfULL,
    0xa37b93e9d7c1a8c9ULL, 0x6d42fe4ebcf61fa5ULL, 0xd5e53dd2ba10a2a8ULL,
    0xbfc23b723e154873ULL, 0x0ccbbb587bdf2c7fULL, 0x310555a2d9017279ULL,
    0xd35930223419568bULL, 0x909139df552454c9ULL, 0xe957da17548a988bULL,
    0x808c26aff121c103ULL, 0xa1c71e1e0c85018cULL, 0xb8bb80ec01d807ebULL,
    0x150e4ba06e57ecc8ULL, 0xd08f452553e02b37ULL, 0x217cff85f5e106e1ULL,
    0xc4b931923c3be0daULL, 0xfe0ee3ef047c5bc6ULL, 0xbbcf4ffdad21080eULL,
};
// clang-format on

TEST(Rm3dDigest, Seed7Steps200) {
  const Digests d = rm3d_digests(7, 200);
  expect_snapshots(d, kRm3dSeed7Steps200);
  EXPECT_EQ(d.chained, 0xb33492563b7d9286ULL);
}

TEST(Rm3dDigest, Seed8Steps200) {
  const Digests d = rm3d_digests(8, 200);
  expect_snapshots(d, kRm3dSeed8Steps200);
  EXPECT_EQ(d.chained, 0x0a41091efc2aa663ULL);
}

TEST(Rm3dDigest, Seed7Steps800) {
  const Digests d = rm3d_digests(7, 800);
  expect_snapshots(d, kRm3dSeed7Steps800);
  EXPECT_EQ(d.chained, 0x409d7e6a932d8a46ULL);
}

TEST(Rm3dDigest, PatchBoundChangedMidRun) {
  Rm3dConfig config;
  config.coarse_steps = 200;
  Rm3dEmulator emulator(config);
  const Digests d = digest_run(emulator, 200, [](Rm3dEmulator& e) {
    if (e.step() == 100) e.set_max_box_cells(2048);
  });
  expect_snapshots(d, kRm3dChoppedMidRun);
  // The bound does change the hierarchy from step 100 on.
  ASSERT_EQ(d.snapshots[25], kRm3dSeed7Steps200[25]);
  EXPECT_NE(d.snapshots[26], kRm3dSeed7Steps200[26]);
}

TEST(GalaxyDigest, Seed17Steps200) {
  GalaxyConfig config;
  config.coarse_steps = 200;
  GalaxyEmulator emulator(config);
  expect_snapshots(digest_run(emulator, 200), kGalaxySeed17Steps200);
}

}  // namespace
}  // namespace pragma::amr
