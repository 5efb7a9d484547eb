/**
 * @file
 * Implementation of the experiment-layer result table.
 */

#include "exp/result_table.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace uatm::exp {

Cell
Cell::text(std::string text)
{
    Cell cell;
    cell.text_ = std::move(text);
    return cell;
}

Cell
Cell::num(double value, int precision)
{
    Cell cell;
    cell.text_ = TextTable::num(value, precision);
    cell.value_ = value;
    cell.numeric_ = true;
    return cell;
}

Cell
Cell::integer(std::int64_t value)
{
    Cell cell;
    cell.text_ = std::to_string(value);
    cell.value_ = static_cast<double>(value);
    cell.numeric_ = true;
    return cell;
}

Cell
Cell::error(const Status &status)
{
    UATM_ASSERT(!status.ok(), "an error cell needs an error status");
    Cell cell;
    cell.text_ = std::string("!") + errorCodeName(status.code());
    cell.error_ = true;
    return cell;
}

Cell
Cell::fromParts(std::string text, double value, bool numeric,
                bool is_error)
{
    Cell cell;
    cell.text_ = std::move(text);
    cell.value_ = value;
    cell.numeric_ = numeric;
    cell.error_ = is_error;
    return cell;
}

Expected<TableFormat>
parseTableFormat(const std::string &name)
{
    if (name == "text")
        return TableFormat::Text;
    if (name == "csv")
        return TableFormat::Csv;
    if (name == "json")
        return TableFormat::Json;
    if (name == "ndjson")
        return TableFormat::Ndjson;
    return Status::invalidArgument(
        "unknown table format '", name,
        "' (expected text, csv, json or ndjson)");
}

ResultTable::ResultTable(std::string name,
                         std::vector<std::string> columns)
    : name_(std::move(name)), columns_(std::move(columns))
{
    UATM_ASSERT(!columns_.empty(), "a table needs columns");
}

void
ResultTable::addRow(std::vector<Cell> cells)
{
    UATM_ASSERT(cells.size() == columns_.size(), "row arity ",
                cells.size(), " != column count ", columns_.size());
    rows_.push_back(std::move(cells));
}

const Cell &
ResultTable::at(std::size_t row, std::size_t col) const
{
    UATM_ASSERT(row < rows_.size(), "row ", row, " out of range");
    UATM_ASSERT(col < columns_.size(), "col ", col, " out of range");
    return rows_[row][col];
}

Expected<std::size_t>
ResultTable::columnIndex(const std::string &column) const
{
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (columns_[c] == column)
            return c;
    }
    return Status::notFound("table '", name_, "' has no column '",
                            column, "'");
}

ResultTable
ResultTable::project(const std::vector<std::string> &columns) const
{
    std::vector<std::size_t> picked;
    for (const std::string &column : columns)
        picked.push_back(okOrThrow(columnIndex(column)));
    ResultTable out(name_, columns);
    for (const auto &row : rows_) {
        std::vector<Cell> cells;
        cells.reserve(picked.size());
        for (std::size_t c : picked)
            cells.push_back(row[c]);
        out.addRow(std::move(cells));
    }
    return out;
}

std::string
ResultTable::render(TableFormat format) const
{
    switch (format) {
      case TableFormat::Text:
        return renderText();
      case TableFormat::Csv:
        return renderCsv();
      case TableFormat::Json:
        return renderJson();
      case TableFormat::Ndjson:
        return renderNdjson();
    }
    panic("bad table format ", int(format));
}

std::string
ResultTable::renderText() const
{
    TextTable table(columns_);
    for (const auto &row : rows_) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const auto &cell : row)
            cells.push_back(cell.str());
        table.addRow(std::move(cells));
    }
    return table.render();
}

std::string
ResultTable::renderCsv() const
{
    std::string out;
    auto writeRow = [&out](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i)
                out += ',';
            out += CsvWriter::escape(cells[i]);
        }
        out += '\n';
    };
    writeRow(columns_);
    for (const auto &row : rows_) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const auto &cell : row)
            cells.push_back(cell.str());
        writeRow(cells);
    }
    return out;
}

std::string
ResultTable::renderJson() const
{
    obs::JsonWriter json;
    json.beginObject()
        .keyValue("schema_version", kResultTableSchemaVersion)
        .keyValue("name", name_);
    json.key("columns").beginArray();
    for (const auto &column : columns_)
        json.value(column);
    json.endArray();
    json.key("rows").beginArray();
    for (const auto &row : rows_) {
        json.beginArray();
        for (const auto &cell : row) {
            if (cell.numeric())
                json.value(cell.value());
            else
                json.value(cell.str());
        }
        json.endArray();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string
ResultTable::renderNdjsonRow(std::size_t row) const
{
    UATM_ASSERT(row < rows_.size(), "row ", row, " out of range");
    obs::JsonWriter json;
    json.beginObject();
    for (std::size_t col = 0; col < columns_.size(); ++col) {
        const Cell &cell = rows_[row][col];
        json.key(columns_[col]);
        if (cell.numeric() && std::isfinite(cell.value())) {
            // The cell's rendered text ("%.*f" / to_string) is a
            // valid JSON number, and using it verbatim makes the
            // wire format text-authoritative: a cell rebuilt from
            // a cache entry streams byte-identically to the
            // freshly computed one.
            json.rawValue(cell.str());
        } else if (cell.numeric()) {
            json.value(cell.value()); // non-finite -> null
        } else {
            json.value(cell.str());
        }
    }
    json.endObject();
    return json.str();
}

std::string
ResultTable::renderNdjson() const
{
    std::string out;
    for (std::size_t row = 0; row < rows_.size(); ++row) {
        out += renderNdjsonRow(row);
        out += '\n';
    }
    return out;
}

Status
ResultTable::emit(TableFormat format,
                  const std::string &out_path) const
{
    rendered_ = render(format);
    if (out_path.empty()) {
        std::fputs(rendered_.c_str(), stdout);
        if (!rendered_.empty() && rendered_.back() != '\n')
            std::fputs("\n", stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            return Status::ioError("cannot open '", out_path,
                                   "' for writing");
        }
        out << rendered_;
        if (!rendered_.empty() && rendered_.back() != '\n')
            out << '\n';
        if (!out)
            return Status::ioError("failed writing '", out_path, "'");
    }
    return Status();
}

} // namespace uatm::exp
