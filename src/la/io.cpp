#include "la/io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace tqr::la {

namespace {
constexpr char kMagic[8] = {'T', 'Q', 'R', 'M', 'A', 'T', '0', '1'};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

void write_matrix_market(const std::string& path, ConstMatrixView<double> a) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot open " + path + " for writing");
  out << "%%MatrixMarket matrix array real general\n";
  out << "% written by tiledqr\n";
  out << a.rows << " " << a.cols << "\n";
  out.precision(17);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) out << a(i, j) << "\n";
  if (!out) throw Error("write failed: " + path);
}

Matrix<double> read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + path);
  std::string header;
  if (!std::getline(in, header)) throw Error("empty file: " + path);
  std::istringstream hs(header);
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket" || object != "matrix")
    throw Error("not a MatrixMarket file: " + path);
  if (format != "array")
    throw Error("only dense 'array' MatrixMarket files supported: " + path);
  if (field != "real")
    throw Error("only real-valued MatrixMarket files supported: " + path);
  if (symmetry != "general")
    throw Error("only 'general' symmetry supported: " + path);

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  long long rows = -1, cols = -1;
  dims >> rows >> cols;
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  if (rows < 0 || cols < 0 || rows > kMaxDim || cols > kMaxDim)
    throw Error("malformed MatrixMarket size line in " + path);

  // Read every entry before sizing the matrix, so a corrupt size line costs
  // at most what the file actually holds, never an allocation it names.
  const std::size_t count = checked_extent(static_cast<index_t>(rows),
                                           static_cast<index_t>(cols));
  std::vector<double> entries;
  double v;
  while (entries.size() < count && in >> v) entries.push_back(v);
  if (entries.size() < count)
    throw Error("truncated MatrixMarket data in " + path);
  Matrix<double> a(static_cast<index_t>(rows), static_cast<index_t>(cols));
  std::copy(entries.begin(), entries.end(), a.data());  // column-major
  return a;
}

void write_binary(const std::string& path, ConstMatrixView<double> a) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) throw Error("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  const std::int64_t rows = a.rows, cols = a.cols;
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  // Column-major, honoring the view's leading dimension.
  for (index_t j = 0; j < a.cols; ++j)
    out.write(reinterpret_cast<const char*>(&a(0, j)),
              static_cast<std::streamsize>(a.rows * sizeof(double)));
  if (!out) throw Error("write failed: " + path);
}

Matrix<double> read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw Error("not a tiledqr binary matrix: " + path);
  std::int64_t rows = 0, cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!in || rows < 0 || cols < 0 || rows > (1 << 24) || cols > (1 << 24))
    throw Error("malformed header in " + path);
  Matrix<double> a(static_cast<index_t>(rows), static_cast<index_t>(cols));
  in.read(reinterpret_cast<char*>(a.data()),
          static_cast<std::streamsize>(static_cast<std::size_t>(rows) * cols *
                                       sizeof(double)));
  if (!in) throw Error("truncated matrix data in " + path);
  return a;
}

void write_matrix(const std::string& path, ConstMatrixView<double> a) {
  if (ends_with(path, ".mtx"))
    write_matrix_market(path, a);
  else
    write_binary(path, a);
}

Matrix<double> read_matrix(const std::string& path) {
  if (ends_with(path, ".mtx")) return read_matrix_market(path);
  return read_binary(path);
}

}  // namespace tqr::la
