#ifndef REBUDGET_UTIL_TABLE_H_
#define REBUDGET_UTIL_TABLE_H_

/**
 * @file
 * Console table / CSV emitters used by the benchmark harness to print
 * the rows and series of the paper's tables and figures.
 */

#include <ostream>
#include <string>
#include <vector>

namespace rebudget::util {

/**
 * Column-aligned text table.
 *
 * Usage:
 * @code
 *   TablePrinter t({"mechanism", "efficiency", "EF"});
 *   t.addRow({"EqualShare", "0.71", "0.98"});
 *   t.print(std::cout);
 * @endcode
 */
class TablePrinter
{
  public:
    /** @param headers  column headers (defines the column count). */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append one row; must match the header column count. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a row of doubles with fixed precision. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int precision = 4);

    /** Render the aligned table. */
    void print(std::ostream &os) const;

    /** Render as CSV (comma-separated, header first). */
    void printCsv(std::ostream &os) const;

    /** @return number of data rows so far. */
    size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed decimals (helper for table rows). */
std::string formatDouble(double v, int precision = 4);

/** Format a confidence interval as "[lo, hi]", both with fixed decimals. */
std::string formatInterval(double lo, double hi, int precision = 4);

/** Print a visually separated section banner for bench output. */
void printBanner(std::ostream &os, const std::string &title);

} // namespace rebudget::util

#endif // REBUDGET_UTIL_TABLE_H_
