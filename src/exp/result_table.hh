/**
 * @file
 * Uniform result emission for the experiment layer.
 *
 * Every scenario run produces one ResultTable: named columns, rows
 * of typed cells, and three renderers — aligned text (stdout),
 * RFC 4180 CSV, and a versioned JSON document — so the examples
 * and benches stop re-implementing their own printers.  Rendering
 * is deterministic: cells carry pre-formatted text, so a table
 * built from the same points renders byte-identically regardless
 * of how many runner threads produced it.
 */

#ifndef UATM_EXP_RESULT_TABLE_HH
#define UATM_EXP_RESULT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace uatm::exp {

/** Bumped whenever the JSON table layout changes shape. */
constexpr int kResultTableSchemaVersion = 1;

/**
 * One table cell: display text plus, for numeric cells, the exact
 * value (emitted as a JSON number rather than a string).
 */
class Cell
{
  public:
    Cell() = default;

    /** A free-text cell. */
    static Cell text(std::string text);

    /** A floating-point cell formatted to @p precision places. */
    static Cell num(double value, int precision = 3);

    /** An integer cell. */
    static Cell integer(std::int64_t value);

    /**
     * A typed error cell for a failed point: renders as
     * "!<error code name>" so failed rows are visually distinct
     * and machine-greppable in every output format.
     */
    static Cell error(const Status &status);

    /**
     * Rebuild a cell from its serialized parts (display text,
     * numeric value, kind flags) — the PointCache round-trip.
     * The text is authoritative: a rebuilt cell renders
     * byte-identically to the original in every format.
     */
    static Cell fromParts(std::string text, double value,
                          bool numeric, bool is_error);

    const std::string &str() const { return text_; }
    bool numeric() const { return numeric_; }
    double value() const { return value_; }
    bool isError() const { return error_; }

  private:
    std::string text_;
    double value_ = 0.0;
    bool numeric_ = false;
    bool error_ = false;
};

/** Output form of a ResultTable. */
enum class TableFormat : std::uint8_t
{
    Text,   ///< aligned, human-readable (util/table)
    Csv,    ///< RFC 4180, one header row (util/csv quoting)
    Json,   ///< {"schema_version", "name", "columns", "rows"}
    Ndjson, ///< one JSON object per row, newline-delimited
};

/** Parse "text" | "csv" | "json" | "ndjson"; error Status on
 *  anything else. */
Expected<TableFormat> parseTableFormat(const std::string &name);

class ResultTable
{
  public:
    ResultTable() = default;
    ResultTable(std::string name, std::vector<std::string> columns);

    const std::string &name() const { return name_; }
    const std::vector<std::string> &columns() const
    {
        return columns_;
    }

    /** Append one row; arity must match the columns. */
    void addRow(std::vector<Cell> cells);

    std::size_t rows() const { return rows_.size(); }
    const Cell &at(std::size_t row, std::size_t col) const;
    const std::vector<Cell> &row(std::size_t r) const { return rows_.at(r); }

    /** Index of column @p column; NotFound when absent. */
    Expected<std::size_t> columnIndex(const std::string &column) const;

    /** The same rows with only @p columns, in that order (each
     *  must exist). */
    ResultTable project(const std::vector<std::string> &columns) const;

    /** Render in the requested format. */
    std::string render(TableFormat format) const;

    std::string renderText() const;
    std::string renderCsv() const;
    std::string renderJson() const;

    /**
     * Newline-delimited JSON: one {"column": value, ...} object
     * per row, no header.  Numeric cells emit their exact value
     * as a JSON number, everything else (labels, error cells) as
     * a string.  This is the wire format the serve layer streams,
     * so rendering is deterministic row by row.
     */
    std::string renderNdjson() const;

    /** One row of renderNdjson(), without the trailing newline. */
    std::string renderNdjsonRow(std::size_t row) const;

    /**
     * Render to @p out_path, or to stdout when the path is empty.
     * Returns an IoError Status when the file cannot be written.
     * The rendered string stays available via rendered().
     */
    Status emit(TableFormat format, const std::string &out_path) const;

    /** The string produced by the last emit() call. */
    const std::string &rendered() const { return rendered_; }

  private:
    std::string name_;
    std::vector<std::string> columns_;
    std::vector<std::vector<Cell>> rows_;
    mutable std::string rendered_;
};

} // namespace uatm::exp

#endif // UATM_EXP_RESULT_TABLE_HH
