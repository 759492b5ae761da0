/**
 * @file
 * Plain-text table rendering for benchmark harnesses.
 *
 * Every bench binary reproduces a paper table or figure by printing rows;
 * TextTable keeps the formatting consistent (aligned columns, optional
 * markdown-style separators) so outputs diff cleanly across runs.
 */

#ifndef PHOTOFOURIER_COMMON_TABLE_HH
#define PHOTOFOURIER_COMMON_TABLE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace photofourier {

/** Column-aligned text table with a header row. */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a separator under the header. */
    std::string render() const;

    /** Format a double with the given number of decimals. */
    static std::string num(double value, int decimals = 2);

    /** Format a double in scientific notation. */
    static std::string sci(double value, int decimals = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace photofourier

#endif // PHOTOFOURIER_COMMON_TABLE_HH
