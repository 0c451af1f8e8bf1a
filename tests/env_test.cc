#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "io/env.h"
#include "io/mem_env.h"

namespace era {
namespace {

class EnvKinds : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      env_ = &mem_env_;
      base_ = "/test";
    } else {
      env_ = GetDefaultEnv();
      // Unique directory per run: leftover files from a previous invocation
      // must not leak into existence checks.
      base_ = ::testing::TempDir() + "era_env_test_" +
              std::to_string(
                  std::chrono::steady_clock::now().time_since_epoch().count());
      ASSERT_TRUE(env_->CreateDir(base_).ok());
    }
  }

  void TearDown() override {
    if (!GetParam()) {
      std::error_code ec;
      std::filesystem::remove_all(base_, ec);
    }
  }

  MemEnv mem_env_;
  Env* env_ = nullptr;
  std::string base_;
};

TEST_P(EnvKinds, WriteThenReadRoundTrip) {
  std::string path = base_ + "/file1";
  ASSERT_TRUE(env_->WriteFile(path, "hello world").ok());
  std::string content;
  ASSERT_TRUE(env_->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "hello world");
}

TEST_P(EnvKinds, FileSizeAndExists) {
  std::string path = base_ + "/file2";
  EXPECT_FALSE(env_->FileExists(path));
  ASSERT_TRUE(env_->WriteFile(path, std::string(1000, 'x')).ok());
  EXPECT_TRUE(env_->FileExists(path));
  auto size = env_->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1000u);
}

TEST_P(EnvKinds, PositionalReads) {
  std::string path = base_ + "/file3";
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  ASSERT_TRUE(env_->WriteFile(path, data).ok());

  auto file = env_->OpenRandomAccess(path);
  ASSERT_TRUE(file.ok());
  char buf[16];
  std::size_t got = 0;
  ASSERT_TRUE((*file)->Read(100, 16, buf, &got).ok());
  EXPECT_EQ(got, 16u);
  EXPECT_EQ(buf[0], static_cast<char>(100));
  EXPECT_EQ((*file)->Size(), 256u);
}

TEST_P(EnvKinds, ShortReadAtEof) {
  std::string path = base_ + "/file4";
  ASSERT_TRUE(env_->WriteFile(path, "abc").ok());
  auto file = env_->OpenRandomAccess(path);
  ASSERT_TRUE(file.ok());
  char buf[16];
  std::size_t got = 99;
  ASSERT_TRUE((*file)->Read(2, 16, buf, &got).ok());
  EXPECT_EQ(got, 1u);
  ASSERT_TRUE((*file)->Read(3, 16, buf, &got).ok());
  EXPECT_EQ(got, 0u);
  ASSERT_TRUE((*file)->Read(1000, 16, buf, &got).ok());
  EXPECT_EQ(got, 0u);
}

TEST_P(EnvKinds, DeleteFile) {
  std::string path = base_ + "/file5";
  ASSERT_TRUE(env_->WriteFile(path, "x").ok());
  ASSERT_TRUE(env_->DeleteFile(path).ok());
  EXPECT_FALSE(env_->FileExists(path));
  EXPECT_FALSE(env_->DeleteFile(path).ok());
}

TEST_P(EnvKinds, OpenMissingFileFails) {
  auto file = env_->OpenRandomAccess(base_ + "/nope");
  EXPECT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsIOError());
}

TEST_P(EnvKinds, OverwriteReplacesContent) {
  std::string path = base_ + "/file6";
  ASSERT_TRUE(env_->WriteFile(path, "long old content").ok());
  ASSERT_TRUE(env_->WriteFile(path, "new").ok());
  std::string content;
  ASSERT_TRUE(env_->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "new");
}

TEST_P(EnvKinds, RenameFileReplacesTarget) {
  std::string from = base_ + "/rename_src";
  std::string to = base_ + "/rename_dst";
  ASSERT_TRUE(env_->WriteFile(from, "fresh").ok());
  ASSERT_TRUE(env_->WriteFile(to, "stale").ok());
  ASSERT_TRUE(env_->RenameFile(from, to).ok());
  EXPECT_FALSE(env_->FileExists(from));
  std::string content;
  ASSERT_TRUE(env_->ReadFileToString(to, &content).ok());
  EXPECT_EQ(content, "fresh");
  EXPECT_FALSE(env_->RenameFile(base_ + "/nope", to).ok());
}

TEST_P(EnvKinds, WritableSyncSucceeds) {
  std::string path = base_ + "/synced";
  auto file = env_->NewWritable(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("def").ok());
  ASSERT_TRUE((*file)->Close().ok());
  std::string content;
  ASSERT_TRUE(env_->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "abcdef");
}

TEST_P(EnvKinds, AtomicallyWriteFilePublishesAndReportsCrc) {
  std::string path = base_ + "/atomic";
  uint32_t crc = 0;
  ASSERT_TRUE(AtomicallyWriteFile(env_, path, "durable payload", &crc).ok());
  std::string content;
  ASSERT_TRUE(env_->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "durable payload");
  EXPECT_NE(crc, 0u);
  EXPECT_FALSE(env_->FileExists(path + ".tmp")) << "temp must not survive";
  // Overwrite is atomic-replace, not append.
  ASSERT_TRUE(AtomicallyWriteFile(env_, path, "v2", nullptr).ok());
  ASSERT_TRUE(env_->ReadFileToString(path, &content).ok());
  EXPECT_EQ(content, "v2");
}

TEST_P(EnvKinds, AtomicFileWriterAbandonLeavesNothing) {
  std::string path = base_ + "/abandoned";
  auto writer = AtomicFileWriter::Open(env_, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("partial").ok());
  writer->Abandon();
  EXPECT_FALSE(env_->FileExists(path));
  EXPECT_FALSE(env_->FileExists(path + ".tmp"));
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvKinds, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "MemEnv" : "PosixEnv";
                         });

TEST(MemEnvTest, ReaderSurvivesDeletion) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/f", "persist").ok());
  auto file = env.OpenRandomAccess("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(env.DeleteFile("/f").ok());
  char buf[7];
  std::size_t got = 0;
  ASSERT_TRUE((*file)->Read(0, 7, buf, &got).ok());
  EXPECT_EQ(std::string(buf, got), "persist");
}

TEST(MemEnvTest, FileCount) {
  MemEnv env;
  EXPECT_EQ(env.FileCount(), 0u);
  ASSERT_TRUE(env.WriteFile("/a", "1").ok());
  ASSERT_TRUE(env.WriteFile("/b", "2").ok());
  EXPECT_EQ(env.FileCount(), 2u);
}

TEST(PosixEnvTest, CreateDirNested) {
  Env* env = GetDefaultEnv();
  const std::string root = ::testing::TempDir() + "era_nested";
  const std::string dir = root + "/a/b/c";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  ASSERT_TRUE(env->WriteFile(dir + "/f", "x").ok());
  EXPECT_TRUE(env->FileExists(dir + "/f"));
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

}  // namespace
}  // namespace era
