#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace choreo {
namespace {

TEST(Matrix, RoundTripAndSums) {
  DoubleMatrix m(2, 3, 0.0);
  m(0, 0) = 1.0;
  m(0, 2) = 2.0;
  m(1, 1) = 4.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.total(), 7.0);
  EXPECT_DOUBLE_EQ(m.row_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.col_sum(1), 4.0);
  EXPECT_DOUBLE_EQ(m.col_sum(0), 1.0);
}

TEST(Matrix, SquareConstructorAndEquality) {
  Matrix<int> a(2, 9);
  Matrix<int> b(2, 9);
  EXPECT_TRUE(a == b);
  b(1, 1) = 0;
  EXPECT_FALSE(a == b);
}

TEST(Matrix, BoundsChecked) {
  DoubleMatrix m(2, 2, 0.0);
  EXPECT_THROW(m(2, 0), PreconditionError);
  EXPECT_THROW(m(0, 2), PreconditionError);
  EXPECT_THROW(m.row_sum(5), PreconditionError);
}

TEST(Matrix, EmptyMatrix) {
  DoubleMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

// ---- Copy-on-write row chunks ----

/// The layout matrix.h documents: the most rows that fit in 4 KiB, a power
/// of two, at least one.
template <typename T>
std::size_t rows_per_chunk(std::size_t cols) {
  std::size_t rows = 1;
  while (2 * rows * cols * sizeof(T) <= 4096) rows *= 2;
  return rows;
}

/// A matrix and the dense row-major vector it must equal.
template <typename T>
struct Mirrored {
  Matrix<T> m;
  std::vector<T> dense;

  Mirrored(std::size_t rows, std::size_t cols) : m(rows, cols, T{}), dense(rows * cols, T{}) {}
  void set(std::size_t r, std::size_t c, T v) {
    m(r, c) = v;
    dense[r * m.cols() + c] = v;
  }
};

template <typename T>
void expect_matches_dense(const Mirrored<T>& x) {
  const std::size_t R = x.m.rows(), C = x.m.cols();
  T total{};
  for (const T& v : x.dense) total += v;
  EXPECT_EQ(x.m.total(), total);
  for (std::size_t r = 0; r < R; ++r) {
    T sum{};
    for (std::size_t c = 0; c < C; ++c) {
      ASSERT_EQ(x.m.row(r)[c], x.dense[r * C + c]) << r << "," << c;
      ASSERT_EQ(x.m(r, c), x.dense[r * C + c]) << r << "," << c;
      sum += x.dense[r * C + c];
    }
    EXPECT_EQ(x.m.row_sum(r), sum);
  }
  for (std::size_t c = 0; c < C; ++c) {
    T sum{};
    for (std::size_t r = 0; r < R; ++r) sum += x.dense[r * C + c];
    EXPECT_EQ(x.m.col_sum(c), sum);
  }
}

template <typename T>
std::vector<const T*> row_pointers(const Matrix<T>& m) {
  std::vector<const T*> rows;
  for (std::size_t r = 0; r < m.rows(); ++r) rows.push_back(m.row(r));
  return rows;
}

template <typename T>
T draw(Rng& rng) {
  return static_cast<T>(rng.uniform_int(1, 1000));
}

template <typename T>
class MatrixCopyOnWrite : public ::testing::Test {};
using MatrixElementTypes = ::testing::Types<double, std::uint64_t>;
TYPED_TEST_SUITE(MatrixCopyOnWrite, MatrixElementTypes);

// A copy shares every row; a write through either side copies exactly the
// chunk it lands in, leaves the other side as it was, and a second write to
// that chunk is in place. Values, ==, and the sums follow a dense reference
// throughout. Two shapes: 37 x 100 (several rows per chunk, a partial last
// chunk) and 6 x 500 (one 500-column row per chunk, a large view's layout).
TYPED_TEST(MatrixCopyOnWrite, CopiesShareRowsAndWritesCopyOneChunk) {
  using T = TypeParam;
  for (const auto& [R, C] : {std::pair<std::size_t, std::size_t>{37, 100}, {6, 500}}) {
    SCOPED_TRACE(std::to_string(R) + "x" + std::to_string(C));
    const std::size_t per_chunk = rows_per_chunk<T>(C);
    EXPECT_EQ(per_chunk > 1, C == 100);
    Rng rng(R * 1000 + C);
    Mirrored<T> a(R, C);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < C; ++c) a.set(r, c, draw<T>(rng));
    }
    expect_matches_dense(a);

    Mirrored<T> b = a;
    EXPECT_EQ(row_pointers(b.m), row_pointers(a.m));
    EXPECT_TRUE(a.m == b.m);

    for (int step = 0; step < 8; ++step) {
      const bool write_copy = step % 2 == 0;
      Mirrored<T>& writer = write_copy ? b : a;
      const Mirrored<T>& other = write_copy ? a : b;
      SCOPED_TRACE(write_copy ? "writing the copy" : "writing the original");
      const std::vector<const T*> writer_before = row_pointers(writer.m);
      const std::vector<const T*> other_before = row_pointers(other.m);
      const std::vector<T> other_values = other.dense;

      const auto r = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(R) - 1));
      const auto c = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(C) - 1));
      writer.set(r, c, draw<T>(rng) + T{1000});
      const std::vector<const T*> writer_after = row_pointers(writer.m);
      for (std::size_t k = 0; k < R; ++k) {
        // Only the written chunk's rows moved, and only if they were shared.
        const bool same_chunk = k / per_chunk == r / per_chunk;
        const bool was_shared = writer_before[k] == other_before[k];
        EXPECT_EQ(writer_after[k] != writer_before[k], same_chunk && was_shared) << "row " << k;
      }
      EXPECT_EQ(row_pointers(other.m), other_before);
      EXPECT_EQ(other.dense, other_values);

      // The chunk is now the writer's alone: a second write is in place.
      writer.set(r, (c + 1) % C, draw<T>(rng));
      EXPECT_EQ(row_pointers(writer.m), writer_after);

      expect_matches_dense(a);
      expect_matches_dense(b);
      EXPECT_EQ(a.m == b.m, a.dense == b.dense);
    }
    Mirrored<T> c = b;
    c.set(R - 1, C - 1, c.dense.back());  // copies the chunk, same values
    EXPECT_TRUE(c.m == b.m);
    EXPECT_NE(c.m.row(R - 1), b.m.row(R - 1));
  }
}

// A reader thread reads a shared chunk through its own copy and drops the
// copy; the writer learns that only through a relaxed flag, which orders
// nothing, and then writes the chunk, which it now holds alone, in place.
// The share count itself must order the reader's reads before that write:
// TSan reports the pair as a race if the check that allows the in-place
// write does not synchronize with the dropped handle.
TEST(MatrixCopyOnWrite, DroppedCopyChunkIsWrittenInPlaceWithoutRace) {
  DoubleMatrix original(6, 500, 1.0);
  original(0, 0) = 2.0;
  const double* row0 = original.row(0);
  std::atomic<bool> dropped{false};
  double seen = 0.0;
  std::thread reader([&dropped, &seen, copy = original]() mutable {
    {
      const DoubleMatrix mine = std::move(copy);
      for (std::size_t c = 0; c < mine.cols(); ++c) seen += mine(0, c);
    }
    dropped.store(true, std::memory_order_relaxed);
  });
  while (!dropped.load(std::memory_order_relaxed)) std::this_thread::yield();
  original(0, 1) = 3.0;
  reader.join();

  EXPECT_EQ(seen, 501.0);
  EXPECT_EQ(original.row(0), row0);  // written in place, not copied
  EXPECT_EQ(original(0, 1), 3.0);
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_numeric_row({2.5, 10.0});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Fmt, Percent) {
  EXPECT_EQ(fmt_pct(0.085), "8.5%");
  EXPECT_EQ(fmt_pct(0.5, 0), "50%");
  EXPECT_EQ(fmt(3.14159, 3), "3.142");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::mbps(300), 300e6);
  EXPECT_DOUBLE_EQ(units::gbps(1), 1e9);
  EXPECT_DOUBLE_EQ(units::to_mbps(950e6), 950.0);
  EXPECT_DOUBLE_EQ(units::megabytes(100), 1e8);
  EXPECT_DOUBLE_EQ(units::millis(5), 0.005);
  // 1 GB at 1 Gbit/s = 8 seconds.
  EXPECT_DOUBLE_EQ(units::transmit_time(units::gigabytes(1), units::gbps(1)), 8.0);
}

}  // namespace
}  // namespace choreo
