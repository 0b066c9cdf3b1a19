// Tests for util::Matrix: shape, row views, resize-reuse semantics,
// buffer alignment.

#include "rebudget/util/matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace {

using rebudget::util::Matrix;

TEST(Matrix, DefaultIsEmpty)
{
    Matrix<double> m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, ShapeAndFillConstruction)
{
    Matrix<double> m(3, 4, 2.5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 3u); // size() counts rows, like nested vectors
    EXPECT_FALSE(m.empty());
    for (size_t i = 0; i < m.rows(); ++i)
        for (size_t j = 0; j < m.cols(); ++j)
            EXPECT_EQ(m(i, j), 2.5);
}

TEST(Matrix, InitializerListConstruction)
{
    Matrix<double> m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(0, 0), 1.0);
    EXPECT_EQ(m(1, 2), 6.0);
}

TEST(Matrix, NestedVectorConstruction)
{
    std::vector<std::vector<double>> nested = {{1.0, 2.0}, {3.0, 4.0}};
    Matrix<double> m(nested);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(1, 0), 3.0);
    EXPECT_EQ(m.toNested(), nested);
}

TEST(Matrix, RowViewsAliasStorage)
{
    Matrix<double> m(2, 3, 0.0);
    auto r0 = m[0];
    ASSERT_EQ(r0.size(), 3u);
    r0[1] = 7.0;
    EXPECT_EQ(m(0, 1), 7.0);
    EXPECT_EQ(m.row(0)[1], 7.0);

    const Matrix<double> &cm = m;
    auto cr = cm[0];
    EXPECT_EQ(cr[1], 7.0);
}

TEST(Matrix, RowsAreContiguousRowMajor)
{
    Matrix<double> m{{1.0, 2.0}, {3.0, 4.0}};
    const double *d = m.data();
    EXPECT_EQ(d[0], 1.0);
    EXPECT_EQ(d[1], 2.0);
    EXPECT_EQ(d[2], 3.0);
    EXPECT_EQ(d[3], 4.0);
    EXPECT_EQ(m.row(1), m.data() + 2);
}

TEST(Matrix, RangeForYieldsRowSpans)
{
    Matrix<double> m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
    double total = 0.0;
    size_t rows = 0;
    for (auto row : m) {
        total += std::accumulate(row.begin(), row.end(), 0.0);
        ++rows;
    }
    EXPECT_EQ(rows, 3u);
    EXPECT_EQ(total, 21.0);
}

TEST(Matrix, ResizeSameColsPreservesSurvivingRows)
{
    Matrix<double> m{{1.0, 2.0}, {3.0, 4.0}};
    m.resize(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m(0, 0), 1.0);
    EXPECT_EQ(m(1, 1), 4.0);
    EXPECT_EQ(m(2, 0), 0.0); // new rows value-initialized
    m.resize(1, 2);
    EXPECT_EQ(m.rows(), 1u);
    EXPECT_EQ(m(0, 1), 2.0);
}

TEST(Matrix, ResizeWithinCapacityDoesNotMoveStorage)
{
    Matrix<double> m(8, 4, 1.0);
    const double *before = m.data();
    m.resize(2, 4);
    m.resize(8, 4);
    EXPECT_EQ(m.data(), before); // shrink + regrow reuses the buffer
    m.assign(4, 8, 0.0);         // same element count, new shape
    EXPECT_EQ(m.data(), before);
}

TEST(Matrix, AssignAndFill)
{
    Matrix<double> m(2, 2, 9.0);
    m.assign(3, 2, 1.5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(2, 1), 1.5);
    m.fill(0.25);
    for (auto row : m)
        for (double v : row)
            EXPECT_EQ(v, 0.25);
}

TEST(Matrix, ClearKeepsNothingVisible)
{
    Matrix<double> m(4, 4, 1.0);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, EqualityComparesShapeAndValues)
{
    Matrix<double> a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix<double> b{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(a, b);
    b(1, 1) = 5.0;
    EXPECT_NE(a, b);
    // Same elements, different shape.
    Matrix<double> c{{1.0, 2.0, 3.0, 4.0}};
    EXPECT_NE(a, c);
}

TEST(Matrix, StreamOutputMentionsShape)
{
    Matrix<double> m{{1.0, 2.0}};
    std::ostringstream os;
    os << m;
    EXPECT_NE(os.str().find("1x2"), std::string::npos);
}

TEST(Matrix, BufferIs64ByteAligned)
{
    for (size_t rows : {size_t(1), size_t(7), size_t(1000)}) {
        Matrix<double> m(rows, 2, 1.0);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) %
                      rebudget::util::kMatrixAlignment,
                  0u)
            << rows << " rows";
        m.resize(rows + 3, 4);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) %
                      rebudget::util::kMatrixAlignment,
                  0u)
            << rows << " rows after resize";
    }
}

} // namespace
