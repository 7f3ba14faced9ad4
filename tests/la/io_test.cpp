#include "la/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"

namespace tqr::la {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return testing::TempDir() + "tqr_io_" + name;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string track(std::string p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(IoTest, MatrixMarketRoundTrip) {
  auto a = Matrix<double>::random(7, 5, 11);
  const std::string path = track(temp_path("rt.mtx"));
  write_matrix_market(path, a.view());
  auto b = read_matrix_market(path);
  ASSERT_EQ(b.rows(), 7);
  ASSERT_EQ(b.cols(), 5);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 7; ++i) EXPECT_EQ(b(i, j), a(i, j));
}

TEST_F(IoTest, BinaryRoundTripBitExact) {
  auto a = Matrix<double>::random(33, 17, 12);
  a(0, 0) = 1e-300;  // denormal-ish values survive binary exactly
  const std::string path = track(temp_path("rt.bin"));
  write_binary(path, a.view());
  auto b = read_binary(path);
  for (index_t j = 0; j < 17; ++j)
    for (index_t i = 0; i < 33; ++i) EXPECT_EQ(b(i, j), a(i, j));
}

TEST_F(IoTest, BinaryRoundTripOfSubView) {
  // Views with ld > rows must serialize correctly.
  auto a = Matrix<double>::random(10, 10, 13);
  const std::string path = track(temp_path("view.bin"));
  write_binary(path, a.view().block(2, 3, 4, 5));
  auto b = read_binary(path);
  ASSERT_EQ(b.rows(), 4);
  ASSERT_EQ(b.cols(), 5);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(b(i, j), a(2 + i, 3 + j));
}

TEST_F(IoTest, DispatchByExtension) {
  auto a = Matrix<double>::random(4, 4, 14);
  const std::string mtx = track(temp_path("d.mtx"));
  const std::string bin = track(temp_path("d.bin"));
  write_matrix(mtx, a.view());
  write_matrix(bin, a.view());
  // The .mtx must be readable as text.
  std::ifstream in(mtx);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("%%MatrixMarket", 0), 0u);
  auto b1 = read_matrix(mtx);
  auto b2 = read_matrix(bin);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) {
      EXPECT_EQ(b1(i, j), a(i, j));
      EXPECT_EQ(b2(i, j), a(i, j));
    }
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market("/nonexistent/nope.mtx"), Error);
  EXPECT_THROW(read_binary("/nonexistent/nope.bin"), Error);
}

TEST_F(IoTest, RejectsCoordinateFormat) {
  const std::string path = track(temp_path("coord.mtx"));
  std::ofstream out(path);
  out << "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 5.0\n";
  out.close();
  EXPECT_THROW(read_matrix_market(path), Error);
}

TEST_F(IoTest, HugeMatrixMarketSizeLineThrowsBeforeAllocating) {
  // The size line names a 16 GB matrix but the file holds one entry: the
  // reader must run out of entries and throw, not size the matrix first.
  const std::string path = track(temp_path("huge.mtx"));
  std::ofstream out(path);
  out << "%%MatrixMarket matrix array real general\n2000000000 1\n1.5\n";
  out.close();
  EXPECT_THROW(read_matrix_market(path), Error);
  // Past index_t, the size line itself is malformed.
  std::ofstream(path, std::ios::trunc)
      << "%%MatrixMarket matrix array real general\n4294967297 1\n1.5\n";
  EXPECT_THROW(read_matrix_market(path), Error);
}

TEST_F(IoTest, RejectsGarbageBinary) {
  const std::string path = track(temp_path("garbage.bin"));
  std::ofstream out(path, std::ios::binary);
  out << "this is not a matrix";
  out.close();
  EXPECT_THROW(read_binary(path), Error);
}

TEST_F(IoTest, RejectsTruncatedBinary) {
  auto a = Matrix<double>::random(8, 8, 15);
  const std::string path = track(temp_path("trunc.bin"));
  write_binary(path, a.view());
  // Truncate the file to half size.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_THROW(read_binary(path), Error);
}

TEST_F(IoTest, CommentsInMatrixMarketSkipped) {
  const std::string path = track(temp_path("comments.mtx"));
  std::ofstream out(path);
  out << "%%MatrixMarket matrix array real general\n"
      << "% comment one\n% comment two\n"
      << "2 2\n1\n2\n3\n4\n";
  out.close();
  auto a = read_matrix_market(path);
  EXPECT_EQ(a(0, 0), 1.0);
  EXPECT_EQ(a(1, 0), 2.0);
  EXPECT_EQ(a(0, 1), 3.0);
  EXPECT_EQ(a(1, 1), 4.0);
}

}  // namespace
}  // namespace tqr::la
