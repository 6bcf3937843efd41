#include <gtest/gtest.h>

#include "domains/crypto.hpp"
#include "domains/media.hpp"
#include "dsl/serialize.hpp"
#include "support/error.hpp"

namespace dslayer::dsl {
namespace {

/// Structural equality of the data parts of two layers.
void expect_same_structure(const DesignSpaceLayer& a, const DesignSpaceLayer& b) {
  // Same CDO paths, options, docs.
  const auto a_cdos = a.space().all();
  const auto b_cdos = b.space().all();
  ASSERT_EQ(a_cdos.size(), b_cdos.size());
  for (std::size_t i = 0; i < a_cdos.size(); ++i) {
    SCOPED_TRACE(a_cdos[i]->path());
    EXPECT_EQ(a_cdos[i]->path(), b_cdos[i]->path());
    EXPECT_EQ(a_cdos[i]->specializing_option(), b_cdos[i]->specializing_option());
    EXPECT_EQ(a_cdos[i]->doc(), b_cdos[i]->doc());
    // Same properties, attribute for attribute.
    const auto& ap = a_cdos[i]->local_properties();
    const auto& bp = b_cdos[i]->local_properties();
    ASSERT_EQ(ap.size(), bp.size());
    for (std::size_t j = 0; j < ap.size(); ++j) {
      SCOPED_TRACE(ap[j].name);
      EXPECT_EQ(ap[j].name, bp[j].name);
      EXPECT_EQ(ap[j].kind, bp[j].kind);
      EXPECT_EQ(ap[j].generalized, bp[j].generalized);
      EXPECT_EQ(ap[j].unit, bp[j].unit);
      EXPECT_EQ(ap[j].filters_cores, bp[j].filters_cores);
      EXPECT_EQ(ap[j].compliance, bp[j].compliance);
      EXPECT_EQ(ap[j].compliance_key, bp[j].compliance_key);
      EXPECT_EQ(ap[j].default_value, bp[j].default_value);
      EXPECT_EQ(ap[j].doc, bp[j].doc);
      if (ap[j].domain.kind() != ValueDomain::Kind::kIntegerSet) {
        EXPECT_EQ(ap[j].domain.describe(), bp[j].domain.describe());
      }
    }
  }
  // Same libraries, cores, bindings, metrics, views.
  const auto a_libs = a.libraries();
  const auto b_libs = b.libraries();
  ASSERT_EQ(a_libs.size(), b_libs.size());
  for (std::size_t i = 0; i < a_libs.size(); ++i) {
    EXPECT_EQ(a_libs[i]->name(), b_libs[i]->name());
    const auto a_cores = a_libs[i]->cores();
    const auto b_cores = b_libs[i]->cores();
    ASSERT_EQ(a_cores.size(), b_cores.size());
    for (std::size_t j = 0; j < a_cores.size(); ++j) {
      SCOPED_TRACE(a_cores[j]->name());
      EXPECT_EQ(a_cores[j]->name(), b_cores[j]->name());
      EXPECT_EQ(a_cores[j]->class_path(), b_cores[j]->class_path());
      EXPECT_EQ(a_cores[j]->bindings(), b_cores[j]->bindings());
      EXPECT_EQ(a_cores[j]->metrics(), b_cores[j]->metrics());
      ASSERT_EQ(a_cores[j]->views().size(), b_cores[j]->views().size());
    }
  }
}

TEST(Serialize, CryptoLayerRoundTrips) {
  auto original = domains::build_crypto_layer();
  const std::string text = export_layer(*original);
  EXPECT_NE(text.find("dslayer-format 1"), std::string::npos);

  ImportResult imported = import_layer(text);
  ASSERT_NE(imported.layer, nullptr);
  EXPECT_EQ(imported.layer->name(), "cryptography");
  expect_same_structure(*original, *imported.layer);
  // The NumberOfSlices divisor-style domains are well-known sets here, so
  // the only accepted degradations are custom integer domains (none).
  EXPECT_TRUE(imported.warnings.empty());
  // Req1's bounded domain travels with its bound.
  const Property* eol =
      imported.layer->space().find(domains::kPathOMM)->find_property(domains::kEOL);
  ASSERT_NE(eol, nullptr);
  EXPECT_TRUE(eol->domain.contains(Value::number(65536.0)));
  EXPECT_FALSE(eol->domain.contains(Value::number(65537.0)));
}

TEST(Serialize, MediaLayerRoundTrips) {
  auto original = domains::build_media_layer();
  ImportResult imported = import_layer(export_layer(*original));
  expect_same_structure(*original, *imported.layer);
}

TEST(Serialize, ImportedIndexMatchesOriginal) {
  auto original = domains::build_crypto_layer();
  ImportResult imported = import_layer(export_layer(*original));
  for (const char* path : {domains::kPathOMM, domains::kPathOMMHM, domains::kPathOMMS,
                           domains::kPathAdder, domains::kPathExponentiator}) {
    const Cdo* a = original->space().find(path);
    const Cdo* b = imported.layer->space().find(path);
    ASSERT_NE(b, nullptr) << path;
    EXPECT_EQ(original->cores_under(*a).size(), imported.layer->cores_under(*b).size()) << path;
  }
}

TEST(Serialize, ExplorationWorksOnImportedLayer) {
  // Constraints/filters are code and do not travel; requirement compliance
  // rules and the structural pruning do.
  auto original = domains::build_crypto_layer();
  ImportResult imported = import_layer(export_layer(*original));
  ExplorationSession s(*imported.layer, domains::kPathOMM);
  s.set_requirement(domains::kEOL, 768.0);
  s.decide(domains::kImplStyle, "Hardware");
  s.decide(domains::kAlgorithm, "Montgomery");
  s.decide(domains::kLoopAdder, "CSA");
  EXPECT_EQ(s.current().path(), domains::kPathOMMHM);
  const auto cores = s.candidates();
  EXPECT_FALSE(cores.empty());
  for (const Core* core : cores) {
    EXPECT_EQ(core->binding(domains::kLoopAdder), Value::text("CSA"));
  }
  // Declarative compliance travels: the exponentiator latency rule works.
  ExplorationSession e(*imported.layer, domains::kPathExponentiator);
  e.set_requirement(domains::kModExpLatency, 1500.0);
  for (const Core* core : e.candidates()) {
    EXPECT_LE(core->metric(domains::kMetricModExpUs768).value(), 1500.0);
  }
}

TEST(Serialize, QuotingSurvivesHostileStrings) {
  DesignSpaceLayer layer("weird \"quotes\" and \\slashes\\");
  Cdo& root = layer.space().add_root("Root", "doc with \"quotes\" and spaces");
  root.add_property(Property::requirement("R 1", ValueDomain::options({"a b", "c\"d"}),
                                          "docs \\ with escapes"));
  ReuseLibrary& lib = layer.add_library("lib \"x\"");
  Core core("core \"1\"", "Root");
  core.bind("R 1", Value::text("a b"));
  lib.add(std::move(core));
  layer.index_cores();

  ImportResult imported = import_layer(export_layer(layer));
  expect_same_structure(layer, *imported.layer);
  EXPECT_EQ(imported.layer->name(), "weird \"quotes\" and \\slashes\\");
}

TEST(Serialize, CustomIntegerDomainDegradesWithWarning) {
  DesignSpaceLayer layer("custom");
  Cdo& root = layer.space().add_root("Root");
  root.add_property(Property::requirement(
      "Divisors", ValueDomain::integer_set([](std::int64_t i) { return 768 % i == 0; },
                                           "{ i | 768 mod i = 0 }"),
      "divisor domain"));
  ImportResult imported = import_layer(export_layer(layer));
  ASSERT_EQ(imported.warnings.size(), 1u);
  EXPECT_NE(imported.warnings[0].find("widened"), std::string::npos);
  // The imported domain is the documented fallback.
  const Property* p = imported.layer->space().find("Root")->find_property("Divisors");
  EXPECT_TRUE(p->domain.contains(Value::number(7)));  // widened: any positive int
}

TEST(Serialize, MalformedInputsThrow) {
  EXPECT_THROW(import_layer(""), DefinitionError);
  EXPECT_THROW(import_layer("layer \"x\"\n"), DefinitionError);  // missing header
  EXPECT_THROW(import_layer("dslayer-format 2\nlayer \"x\"\n"), DefinitionError);
  EXPECT_THROW(import_layer("dslayer-format 1\ncdo \"X\" parent \"\" option \"\" doc \"\"\n"),
               DefinitionError);  // cdo before layer
  EXPECT_THROW(import_layer("dslayer-format 1\nlayer \"x\"\nbogus \"y\"\n"), DefinitionError);
  EXPECT_THROW(import_layer("dslayer-format 1\nlayer \"x\"\ncore \"c\" class \"X\"\n"),
               DefinitionError);  // core before library
  EXPECT_THROW(import_layer("dslayer-format 1\nlayer \"x\"\nlayer \"unterminated\n"),
               DefinitionError);
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "dslayer-format 1\n"
      "\n"
      "# a comment\n"
      "layer \"tiny\"\n"
      "cdo \"Root\" parent \"\" option \"\" doc \"\"\n";
  ImportResult imported = import_layer(text);
  EXPECT_NE(imported.layer->space().find("Root"), nullptr);
}

TEST(Serialize, ExportEmbedsConstraintDescriptions) {
  auto layer = domains::build_crypto_layer();
  const std::string text = export_layer(*layer);
  EXPECT_NE(text.find("# constraint \"CC1\""), std::string::npos);
  EXPECT_NE(text.find("# constraint \"CC4\""), std::string::npos);
  EXPECT_NE(text.find("# behavior \"Montgomery_r2\""), std::string::npos);
}

}  // namespace
}  // namespace dslayer::dsl
