#include <gtest/gtest.h>

#include "domains/crypto.hpp"
#include "support/error.hpp"

namespace dslayer::domains {
namespace {

using dsl::ExplorationSession;
using dsl::Value;

class CryptoLayerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { layer_ = build_crypto_layer().release(); }
  static void TearDownTestSuite() {
    delete layer_;
    layer_ = nullptr;
  }
  static dsl::DesignSpaceLayer* layer_;
};

dsl::DesignSpaceLayer* CryptoLayerTest::layer_ = nullptr;

TEST_F(CryptoLayerTest, LayerIsWellFormed) {
  EXPECT_TRUE(layer_->validate().empty());
  EXPECT_TRUE(layer_->index_warnings().empty());
  EXPECT_EQ(layer_->libraries().size(), 3u);  // Fig. 1's multi-library setup
}

TEST_F(CryptoLayerTest, HierarchyMatchesFig5And7) {
  for (const char* path :
       {kPathOperator, "Operator.LogicArithmetic", "Operator.LogicArithmetic.Arithmetic",
        kPathAdder, "Operator.LogicArithmetic.Arithmetic.Multiplier", "Operator.Modular",
        "Operator.Modular.Exponentiator", kPathOMM, kPathOMMH, kPathOMMHM, kPathOMMHB,
        kPathOMMS, "Operator.Modular.Multiplier.Software.PCProcessor"}) {
    EXPECT_NE(layer_->space().find(path), nullptr) << path;
  }
}

TEST_F(CryptoLayerTest, OmmRequirementsMatchFig8) {
  const dsl::Cdo* omm = layer_->space().find(kPathOMM);
  ASSERT_NE(omm, nullptr);
  for (const char* req : {kEOL, kOperandCoding, kResultCoding, kModuloIsOdd, kLatencyBound}) {
    const dsl::Property* p = omm->find_property(req);
    ASSERT_NE(p, nullptr) << req;
    EXPECT_EQ(p->kind, dsl::PropertyKind::kRequirement) << req;
  }
  // The generalized DI1.
  const dsl::Property* style = omm->find_property(kImplStyle);
  ASSERT_NE(style, nullptr);
  EXPECT_TRUE(style->generalized);
}

TEST_F(CryptoLayerTest, OmmHDesignIssuesMatchFig11) {
  const dsl::Cdo* hw = layer_->space().find(kPathOMMH);
  ASSERT_NE(hw, nullptr);
  for (const char* di :
       {kLayoutStyle, kFabTech, kRadix, kNumSlices, kSliceWidth, kLoopAdder, kLoopMultiplier}) {
    const dsl::Property* p = hw->find_property(di);
    ASSERT_NE(p, nullptr) << di;
    EXPECT_EQ(p->kind, dsl::PropertyKind::kDesignIssue) << di;
    EXPECT_FALSE(p->generalized) << di;
  }
  // Algorithm is the generalized issue of OMM-H; Radix defaults to 2.
  EXPECT_EQ(hw->generalized_issue()->name, kAlgorithm);
  EXPECT_EQ(hw->find_property(kRadix)->default_value, Value::number(2));
  // Number of slices is an integration parameter: no core filtering.
  EXPECT_FALSE(hw->find_property(kNumSlices)->filters_cores);
}

TEST_F(CryptoLayerTest, MontgomeryLeafHasBehavioralDescriptions) {
  const dsl::Cdo* hm = layer_->space().find(kPathOMMHM);
  ASSERT_NE(hm, nullptr);
  EXPECT_TRUE(hm->is_leaf());
  EXPECT_EQ(hm->local_behaviors().size(), 2u);  // radix 2 and 4 variants
}

TEST_F(CryptoLayerTest, CoreCounts) {
  const dsl::Cdo* omm = layer_->space().find(kPathOMM);
  const dsl::Cdo* hm = layer_->space().find(kPathOMMHM);
  const dsl::Cdo* hb = layer_->space().find(kPathOMMHB);
  const dsl::Cdo* sw = layer_->space().find(kPathOMMS);
  EXPECT_EQ(layer_->cores_under(*omm).size(), 56u);  // 46 HW + 10 SW
  EXPECT_EQ(layer_->cores_under(*hm).size(), 34u);   // 6 designs x 5 widths + 4 extra tech
  EXPECT_EQ(layer_->cores_under(*hb).size(), 12u);   // 2 designs x 5 widths + 2 extra
  EXPECT_EQ(layer_->cores_under(*sw).size(), 10u);
}

TEST_F(CryptoLayerTest, AdderCoresIndexUnderLogicArithmetic) {
  const dsl::Cdo* adder = layer_->space().find(kPathAdder);
  EXPECT_EQ(layer_->cores_under(*adder).size(), 15u);  // 3 kinds x 5 widths
  const dsl::Cdo* csa = layer_->space().find("Operator.LogicArithmetic.Arithmetic.Adder.CarrySave");
  ASSERT_NE(csa, nullptr);
  EXPECT_EQ(layer_->cores_at(*csa).size(), 5u);
}

// --- the Section 5 walkthrough ------------------------------------------------

TEST_F(CryptoLayerTest, Req5EliminatesSoftware) {
  ExplorationSession s(*layer_, kPathOMM);
  apply_coprocessor_spec(s);
  const auto options = s.available_options(kImplStyle);
  EXPECT_EQ(options, std::vector<std::string>{"Hardware"});
  const auto eliminated = s.eliminated_options(kImplStyle);
  ASSERT_EQ(eliminated.size(), 1u);
  EXPECT_EQ(eliminated[0].second, "CC6");
}

TEST_F(CryptoLayerTest, RelaxedLatencyKeepsSoftware) {
  ExplorationSession s(*layer_, kPathOMM);
  s.set_requirement(kEOL, 768.0);
  s.set_requirement(kLatencyBound, 50000.0);  // 50 ms: software is fine
  EXPECT_EQ(s.available_options(kImplStyle).size(), 2u);
  s.decide(kImplStyle, "Software");
  s.decide(kPlatform, "PC-Processor");
  EXPECT_GT(s.candidates().size(), 0u);
}

TEST_F(CryptoLayerTest, CC1BlocksMontgomeryForEvenModuli) {
  ExplorationSession s(*layer_, kPathOMM);
  s.set_requirement(kEOL, 768.0);
  s.set_requirement(kModuloIsOdd, "NotGuaranteed");
  s.decide(kImplStyle, "Hardware");
  EXPECT_THROW(s.decide(kAlgorithm, "Montgomery"), ExplorationError);
  EXPECT_EQ(s.available_options(kAlgorithm), std::vector<std::string>{"Brickell"});
  EXPECT_NO_THROW(s.decide(kAlgorithm, "Brickell"));
}

TEST_F(CryptoLayerTest, CC1FlagsMontgomeryOnRequirementRevision) {
  ExplorationSession s(*layer_, kPathOMM);
  s.set_requirement(kEOL, 768.0);
  s.set_requirement(kModuloIsOdd, "Guaranteed");
  s.decide(kImplStyle, "Hardware");
  s.decide(kAlgorithm, "Montgomery");
  // The paper's re-assessment loop: the independent changes later.
  s.set_requirement(kModuloIsOdd, "NotGuaranteed");
  EXPECT_EQ(s.state_of(kAlgorithm), ExplorationSession::State::kNeedsReassessment);
  EXPECT_THROW(s.reaffirm(kAlgorithm), ExplorationError);
  // And all Montgomery cores are gone from the candidate set.
  EXPECT_TRUE(s.candidates().empty());
}

TEST_F(CryptoLayerTest, CC2DerivesLatencyCycles) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  EXPECT_EQ(s.derived(kLatencyCycles), Value::number(769));  // radix default 2
  s.decide(kRadix, 4.0);
  EXPECT_EQ(s.derived(kLatencyCycles), Value::number(385));
}

TEST_F(CryptoLayerTest, CC3RanksBehaviorsByDelay) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  const auto ranks = s.rank_behaviors(kMaxCombDelay);
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].bd_name, "Montgomery_r2");
  EXPECT_LT(ranks[0].value, ranks[1].value);
}

TEST_F(CryptoLayerTest, CC4EliminatesClaForLargeOperands) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  EXPECT_EQ(s.available_options(kLoopAdder), std::vector<std::string>{"CSA"});
  EXPECT_THROW(s.decide(kLoopAdder, "CLA"), ExplorationError);
}

TEST_F(CryptoLayerTest, CC4AllowsClaForSmallOperands) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 16.0);
  EXPECT_EQ(s.available_options(kLoopAdder).size(), 2u);
  EXPECT_NO_THROW(s.decide(kLoopAdder, "CLA"));
}

TEST_F(CryptoLayerTest, CC5EliminatesArrayMultipliersAtRadix4) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  s.decide(kRadix, 4.0);
  const auto options = s.available_options(kLoopMultiplier);
  EXPECT_EQ(options, (std::vector<std::string>{"N/A", "MUX"}));
}

TEST_F(CryptoLayerTest, CC7OrdersSlicingDecisions) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  EXPECT_THROW(s.decide(kNumSlices, 12.0), ExplorationError);  // SliceWidth first
  s.decide(kSliceWidth, 64.0);
  EXPECT_THROW(s.decide(kNumSlices, 4.0), ExplorationError);  // 4*64 < 768
  EXPECT_NO_THROW(s.decide(kNumSlices, 12.0));
}

TEST_F(CryptoLayerTest, LatencyFilterUsesComposedMultiplier) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  const std::size_t unbounded = s.candidates().size();
  s.set_requirement(kLatencyBound, 1.5);
  const std::size_t bounded = s.candidates().size();
  EXPECT_LT(bounded, unbounded);
  EXPECT_GT(bounded, 0u);
  // Every surviving core really meets the bound when composed for 768 bits.
  for (const dsl::Core* core : s.candidates()) {
    const rtl::SliceConfig config = slice_config_from_core(*core);
    const auto design = rtl::MultiplierDesign::for_operand_length(config, 768);
    EXPECT_LE(design.latency_ns(768) / 1000.0, 1.5) << core->name();
  }
}

TEST_F(CryptoLayerTest, FullWalkthroughNarrowsToUsableCores) {
  ExplorationSession s(*layer_, kPathOMM);
  apply_coprocessor_spec(s);
  s.decide(kImplStyle, "Hardware");
  s.decide(kAlgorithm, "Montgomery");
  s.decide(kLoopAdder, "CSA");
  s.decide(kFabTech, "0.35um");
  s.decide(kLayoutStyle, "std-cell");
  s.decide(kRadix, 4.0);
  s.decide(kLoopMultiplier, "MUX");
  const auto cores = s.candidates();
  ASSERT_FALSE(cores.empty());
  for (const dsl::Core* core : cores) {
    EXPECT_EQ(core->binding(kAlgorithm), Value::text("Montgomery"));
    EXPECT_EQ(core->binding(kLoopAdder), Value::text("CSA"));
    EXPECT_EQ(core->binding(kLoopMultiplier), Value::text("MUX"));
    EXPECT_EQ(core->binding(kRadix), Value::number(4));
  }
  // The area range reported to the designer is non-trivial.
  const auto range = s.metric_range(kMetricArea);
  ASSERT_TRUE(range.has_value());
  EXPECT_GT(range->count, 1u);
  EXPECT_LT(range->min, range->max);
}

TEST_F(CryptoLayerTest, OperandLengthStopsAtTheModelledMaximum) {
  // The filters and estimators take the operand length as `unsigned`: at
  // 2^32 + 768 it wrapped to 768, at 2^32 to 0, and at 2e7 bits the
  // latency model stalled a sweep. Req1's domain now refuses all three.
  ExplorationSession s(*layer_, kPathOMM);
  for (const double eol : {4294968064.0, 4294967296.0, 20000000.0, 65537.0}) {
    EXPECT_THROW(s.set_requirement(kEOL, eol), ExplorationError) << eol;
  }
  EXPECT_FALSE(s.value_of(kEOL).has_value());
  s.set_requirement(kEOL, 65536.0);
  s.set_requirement(kLatencyBound, 8.0);
  s.decide(kImplStyle, "Hardware");
  EXPECT_TRUE(s.candidates().empty());  // nothing multiplies 64k bits in 8 us
}

TEST_F(CryptoLayerTest, TechnologyDecisionsFilterCores) {
  ExplorationSession s(*layer_, kPathOMMHM);
  s.set_requirement(kEOL, 768.0);
  const std::size_t all = s.candidates().size();
  s.decide(kFabTech, "0.70um");
  const std::size_t old_only = s.candidates().size();
  EXPECT_LT(old_only, all);
  EXPECT_GT(old_only, 0u);  // the deliberately-added 0.70um cores
}

// --- core reconstruction helpers -------------------------------------------------

TEST_F(CryptoLayerTest, SliceConfigRoundTrip) {
  const dsl::Cdo* hm = layer_->space().find(kPathOMMHM);
  for (const dsl::Core* core : layer_->cores_under(*hm)) {
    const rtl::SliceConfig config = slice_config_from_core(*core);
    const rtl::SliceDesign slice(config);
    EXPECT_NEAR(slice.area(), core->metric(kMetricArea).value(), 1e-6) << core->name();
    EXPECT_NEAR(slice.clock_ns(), core->metric(kMetricClockNs).value(), 1e-9) << core->name();
  }
}

TEST_F(CryptoLayerTest, SoftwareCoreRoundTrip) {
  const dsl::Cdo* sw = layer_->space().find(kPathOMMS);
  for (const dsl::Core* core : layer_->cores_under(*sw)) {
    const swmodel::SoftwareCore model = software_core_from(*core);
    EXPECT_NEAR(model.mont_mul_us(1024), core->metric(kMetricModMulUs1024).value(), 1e-6)
        << core->name();
  }
}

TEST_F(CryptoLayerTest, SliceConfigFromNonHardwareCoreThrows) {
  const dsl::Cdo* sw = layer_->space().find(kPathOMMS);
  const auto cores = layer_->cores_under(*sw);
  ASSERT_FALSE(cores.empty());
  EXPECT_THROW(slice_config_from_core(*cores.front()), PreconditionError);
}

TEST_F(CryptoLayerTest, DocumentIncludesFig13Constraints) {
  const std::string doc = layer_->document();
  for (const char* id : {"CC1", "CC2", "CC3", "CC4", "CC5", "CC6", "CC7"}) {
    EXPECT_NE(doc.find(id), std::string::npos) << id;
  }
}

}  // namespace
}  // namespace dslayer::domains
