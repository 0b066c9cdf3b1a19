#ifndef REBUDGET_UTIL_MATRIX_H_
#define REBUDGET_UTIL_MATRIX_H_

/**
 * @file
 * Row-major flat matrix used across the solver hot path.
 *
 * The market engine historically stored bids and allocations as
 * std::vector<std::vector<double>>: one heap block per player per
 * solve, scattered across the allocator, re-acquired on every
 * findEquilibrium call.  Matrix keeps the same [player][resource]
 * indexing surface on a single contiguous buffer, so
 *
 * - repeated solves into the same result object reuse the buffer
 *   (resize() never shrinks capacity; see SolveWorkspace in market.h),
 * - a full sweep touches memory sequentially instead of pointer-chasing
 *   row blocks, and
 * - rows hand out std::span views compatible with the UtilityModel
 *   span-based interface at zero cost.
 *
 * Rows are iterable (ranged-for yields spans) and indexable
 * (m[i][j], m(i, j), m.row(i)), mirroring the nested-vector idioms the
 * rest of the codebase grew up with.
 *
 * Alignment contract: the backing buffer is 64-byte aligned (one full
 * cache line, and wide enough for any current vector ISA), so a loop
 * streaming the flat buffer starts on a cache-line boundary.  Row
 * pointers beyond row 0 are aligned only when cols()*sizeof(T) is a
 * multiple of the alignment: the contract buys cache-line-clean buffer
 * starts, not per-row alignment.
 */

#include <cstddef>
#include <initializer_list>
#include <new>
#include <ostream>
#include <span>
#include <vector>

#include "rebudget/util/logging.h"

namespace rebudget::util {

/** Buffer alignment of Matrix, in bytes (see the file comment). */
inline constexpr size_t kMatrixAlignment = 64;

/**
 * Minimal std::allocator drop-in returning storage aligned to `Align`
 * bytes.  Goes through the aligned global operator new/delete so
 * allocation-counting harnesses (bench/perf_equilibrium) and
 * sanitizers still see every matrix allocation.
 */
template <typename T, size_t Align>
struct AlignedAllocator
{
    static_assert((Align & (Align - 1)) == 0, "alignment must be 2^k");
    static_assert(Align >= alignof(T), "alignment below alignof(T)");

    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }
    void deallocate(T *p, size_t n)
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &)
    {
        return true;
    }
    friend bool operator!=(const AlignedAllocator &,
                           const AlignedAllocator &)
    {
        return false;
    }
};

/** Row-major dense matrix on one contiguous buffer. */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    /** @param rows,cols shape; every element set to `value`. */
    Matrix(size_t rows, size_t cols, const T &value = T())
        : rows_(rows), cols_(cols), data_(rows * cols, value)
    {
    }

    /**
     * Literal construction for tests and small fixtures:
     * Matrix<double>{{1, 2}, {3, 4}}.  All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<T>> rows)
        : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0)
    {
        data_.reserve(rows_ * cols_);
        for (const auto &row : rows) {
            REBUDGET_ASSERT(row.size() == cols_,
                            "Matrix: ragged initializer rows");
            data_.insert(data_.end(), row.begin(), row.end());
        }
    }

    /** Boundary convenience: copy a nested-vector matrix (must be
     * rectangular). */
    explicit Matrix(const std::vector<std::vector<T>> &nested)
        : rows_(nested.size()),
          cols_(nested.empty() ? 0 : nested.front().size())
    {
        data_.reserve(rows_ * cols_);
        for (const auto &row : nested) {
            REBUDGET_ASSERT(row.size() == cols_,
                            "Matrix: ragged nested rows");
            data_.insert(data_.end(), row.begin(), row.end());
        }
    }

    /** @return the number of rows. */
    size_t rows() const { return rows_; }
    /** @return the number of columns. */
    size_t cols() const { return cols_; }
    /**
     * @return the number of rows; mirrors nested-vector .size() so
     * row-count checks read the same either way.
     */
    size_t size() const { return rows_; }
    /** @return true when the matrix has no rows. */
    bool empty() const { return rows_ == 0; }

    /**
     * Reshape, reusing the existing heap buffer whenever the new
     * element count fits its capacity (the workspace-reuse contract:
     * solving repeatedly at a fixed shape performs no allocation after
     * the first solve).  Contents are preserved only when `cols` is
     * unchanged (rows behave like a vector resize: survivors keep
     * their values, new rows are value-initialized); reshaping the
     * column count leaves contents unspecified.
     */
    void resize(size_t rows, size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    /** Reshape (same reuse contract as resize) and fill with `value`. */
    void assign(size_t rows, size_t cols, const T &value)
    {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, value);
    }

    /** Set every element to `value` without reshaping. */
    void fill(const T &value)
    {
        data_.assign(data_.size(), value);
    }

    /** Drop to 0x0 keeping the heap buffer for later reuse. */
    void clear()
    {
        rows_ = 0;
        cols_ = 0;
        data_.clear();
    }

    /** @return a raw pointer to row i (cols() contiguous elements). */
    T *row(size_t i)
    {
        REBUDGET_ASSERT(i < rows_, "Matrix: row out of range");
        return data_.data() + i * cols_;
    }
    const T *row(size_t i) const
    {
        REBUDGET_ASSERT(i < rows_, "Matrix: row out of range");
        return data_.data() + i * cols_;
    }

    /** @return row i as a span (usable wherever a vector row was). */
    std::span<T> operator[](size_t i)
    {
        return std::span<T>(row(i), cols_);
    }
    std::span<const T> operator[](size_t i) const
    {
        return std::span<const T>(row(i), cols_);
    }

    /** @return element (i, j). */
    T &operator()(size_t i, size_t j)
    {
        REBUDGET_ASSERT(i < rows_ && j < cols_,
                        "Matrix: element out of range");
        return data_[i * cols_ + j];
    }
    const T &operator()(size_t i, size_t j) const
    {
        REBUDGET_ASSERT(i < rows_ && j < cols_,
                        "Matrix: element out of range");
        return data_[i * cols_ + j];
    }

    /** @return the contiguous row-major buffer. */
    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }

    /** Row iteration: ranged-for yields one span per row. */
    template <typename Span, typename Ptr>
    class RowIter
    {
      public:
        RowIter(Ptr p, size_t cols) : p_(p), cols_(cols) {}
        Span operator*() const { return Span(p_, cols_); }
        RowIter &operator++()
        {
            p_ += cols_;
            return *this;
        }
        bool operator!=(const RowIter &o) const { return p_ != o.p_; }
        bool operator==(const RowIter &o) const { return p_ == o.p_; }

      private:
        Ptr p_;
        size_t cols_;
    };
    using iterator = RowIter<std::span<T>, T *>;
    using const_iterator = RowIter<std::span<const T>, const T *>;

    iterator begin() { return iterator(data_.data(), cols_); }
    iterator end()
    {
        return iterator(data_.data() + rows_ * cols_, cols_);
    }
    const_iterator begin() const
    {
        return const_iterator(data_.data(), cols_);
    }
    const_iterator end() const
    {
        return const_iterator(data_.data() + rows_ * cols_, cols_);
    }

    /** Elementwise equality (shape and values). */
    friend bool operator==(const Matrix &a, const Matrix &b)
    {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
               a.data_ == b.data_;
    }
    friend bool operator!=(const Matrix &a, const Matrix &b)
    {
        return !(a == b);
    }

    /** @return a nested-vector copy (slow; boundary/debug use only). */
    std::vector<std::vector<T>> toNested() const
    {
        std::vector<std::vector<T>> out(rows_, std::vector<T>(cols_));
        for (size_t i = 0; i < rows_; ++i) {
            const T *r = row(i);
            out[i].assign(r, r + cols_);
        }
        return out;
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<T, AlignedAllocator<T, kMatrixAlignment>> data_;
};

/** Human-readable dump (test failure messages). */
template <typename T>
std::ostream &
operator<<(std::ostream &os, const Matrix<T> &m)
{
    os << "Matrix " << m.rows() << "x" << m.cols() << " [";
    for (size_t i = 0; i < m.rows(); ++i) {
        os << (i ? "; " : "");
        for (size_t j = 0; j < m.cols(); ++j)
            os << (j ? " " : "") << m(i, j);
    }
    return os << "]";
}

} // namespace rebudget::util

#endif // REBUDGET_UTIL_MATRIX_H_
