#include "rebudget/util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "rebudget/util/logging.h"

namespace rebudget::util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("TablePrinter requires at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    if (row.size() != headers_.size()) {
        fatal("TablePrinter row has %zu cells, expected %zu", row.size(),
              headers_.size());
    }
    rows_.push_back(std::move(row));
}

void
TablePrinter::addRow(const std::string &label,
                     const std::vector<double> &values, int precision)
{
    std::vector<std::string> row;
    row.reserve(values.size() + 1);
    row.push_back(label);
    for (double v : values)
        row.push_back(formatDouble(v, precision));
    addRow(std::move(row));
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        }
        os << '\n';
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

void
TablePrinter::printCsv(std::ostream &os) const
{
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ',';
            os << row[c];
        }
        os << '\n';
    };
    emit_row(headers_);
    for (const auto &row : rows_)
        emit_row(row);
}

std::string
formatDouble(double v, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

std::string
formatInterval(double lo, double hi, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << '[' << lo << ", "
       << hi << ']';
    return ss.str();
}

void
printBanner(std::ostream &os, const std::string &title)
{
    os << '\n'
       << "==== " << title << ' '
       << std::string(title.size() < 70 ? 70 - title.size() : 4, '=') << '\n';
}

} // namespace rebudget::util
