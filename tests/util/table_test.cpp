#include "rebudget/util/table.h"

#include <sstream>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::util {
namespace {

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.addRow({"x", "y"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,y\n");
}

TEST(TablePrinter, DoubleRowHelper)
{
    TablePrinter t({"label", "v1", "v2"});
    t.addRow("row", {1.0, 2.5}, 2);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "label,v1,v2\nrow,1.00,2.50\n");
}

TEST(TablePrinter, RowArityMismatchIsFatal)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(TablePrinter, EmptyHeadersIsFatal)
{
    EXPECT_THROW(TablePrinter({}), FatalError);
}

TEST(TablePrinter, RowCount)
{
    TablePrinter t({"a"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.rows(), 2u);
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(FormatInterval, FixedDecimalsInBrackets)
{
    EXPECT_EQ(formatInterval(0.9512, 1.0, 3), "[0.951, 1.000]");
    EXPECT_EQ(formatInterval(-2.5, 7.76, 1), "[-2.5, 7.8]");
}

TEST(PrintBanner, ContainsTitle)
{
    std::ostringstream os;
    printBanner(os, "Figure 4");
    EXPECT_NE(os.str().find("Figure 4"), std::string::npos);
}

} // namespace
} // namespace rebudget::util
