// The fixed backend table: name order, selection, errors, basenames and
// artifact writing.
#include "gen/backends.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gen_test_util.h"
#include "util/error.h"

namespace stx::gen {
namespace {

TEST(Registry, BackendNamesAreInTableOrder) {
  const auto& names = backend_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "sv");
  EXPECT_EQ(names[1], "dot");
  EXPECT_EQ(names[2], "json");
  EXPECT_EQ(names[3], "report");
}

TEST(Registry, CheckBackendNameAcceptsOnlyTheTable) {
  for (const auto& name : backend_names()) {
    EXPECT_NO_THROW(check_backend_name(name)) << name;
  }
  EXPECT_THROW(check_backend_name("vhdl"), invalid_argument_error);
  EXPECT_THROW(check_backend_name(""), invalid_argument_error);
}

TEST(Registry, GenerateSelectsRequestedBackends) {
  const auto report = testutil::small_report();
  generate_options opts;
  opts.backends = {"json", "sv"};
  const auto arts = generate(report, opts);
  ASSERT_EQ(arts.size(), 2u);
  EXPECT_EQ(arts[0].backend, "json");
  EXPECT_EQ(arts[0].filename, "unit_app_1.json");
  EXPECT_EQ(arts[0].content, emit_json(report));
  EXPECT_EQ(arts[1].backend, "sv");
  EXPECT_EQ(arts[1].filename, "unit_app_1.sv");
  EXPECT_EQ(arts[1].content, emit_sv(report, "unit_app_1"));
}

TEST(Registry, EmptySelectionRunsEverything) {
  const auto report = testutil::small_report();
  const auto arts = generate(report, {});
  ASSERT_EQ(arts.size(), 4u);
  for (std::size_t i = 0; i < arts.size(); ++i) {
    EXPECT_EQ(arts[i].backend, backend_names()[i]);
  }
  EXPECT_EQ(arts[0].filename, "unit_app_1.sv");
  EXPECT_EQ(arts[1].filename, "unit_app_1.dot");
  EXPECT_EQ(arts[2].filename, "unit_app_1.json");
  EXPECT_EQ(arts[3].filename, "unit_app_1.md");
  EXPECT_EQ(arts[3].content, emit_report(report));
}

TEST(Registry, UnknownBackendThrowsListingAvailable) {
  generate_options opts;
  opts.backends = {"verilog"};
  try {
    generate(testutil::small_report(), opts);
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("verilog"), std::string::npos);
    EXPECT_NE(what.find("sv"), std::string::npos);
    EXPECT_NE(what.find("report"), std::string::npos);
  }
}

TEST(Registry, ExplicitBasenameOverridesAppName) {
  generate_options opts;
  opts.backends = {"dot"};
  opts.basename = "custom";
  const auto arts = generate(testutil::small_report(), opts);
  ASSERT_EQ(arts.size(), 1u);
  EXPECT_EQ(arts[0].filename, "custom.dot");
  EXPECT_NE(arts[0].content.find("digraph custom_xbar {"), std::string::npos);
}

TEST(Registry, EmittersGetTheSanitisedStem) {
  // The file name and the identifiers inside it come from one stem.
  generate_options opts;
  opts.backends = {"sv", "dot"};
  const auto arts = generate(testutil::small_report(), opts);
  ASSERT_EQ(arts.size(), 2u);
  EXPECT_NE(arts[0].content.find("module unit_app_1_xbar "),
            std::string::npos);
  EXPECT_NE(arts[1].content.find("digraph unit_app_1_xbar {"),
            std::string::npos);
}

TEST(Artifact, SanitizeBasename) {
  EXPECT_EQ(sanitize_basename("Mat2"), "mat2");
  EXPECT_EQ(sanitize_basename("Unit App-1"), "unit_app_1");
  EXPECT_EQ(sanitize_basename("2fast"), "x2fast");
  EXPECT_EQ(sanitize_basename(""), "x");
}

TEST(Artifact, WriteArtifactsCreatesDirectoryAndFiles) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "stx_gen_registry_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());

  const auto arts = generate(testutil::small_report(), {});
  const auto paths = write_artifacts(arts, dir.string());
  ASSERT_EQ(paths.size(), arts.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::ifstream in(paths[i]);
    ASSERT_TRUE(in.good()) << paths[i];
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, arts[i].content);
  }
  std::filesystem::remove_all(dir.parent_path());
}

}  // namespace
}  // namespace stx::gen
